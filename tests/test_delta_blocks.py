"""The per-delta checks decided on delta-sample stacks against the same checks
one delta at a time (``tests/helpers.py``): every basis, sine, verdict and
eigenvalue bit for bit, on seeded families whose A turns singular, whose
ranks change inside a block, whose null space is empty, with a callable H
and with a Keps loop that cannot be built at some deltas."""

import gc
import hashlib
import importlib
import json
import random
import sys
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest

from osscontrol import matlib, scenarios, subspaces
from osscontrol.matlib import DELTA_BLOCK, rank_decision
from osscontrol.plant import PlantMatrices, UncertainPlant, eval_plant
from osscontrol.subspaces import (
    _equality_rows,
    _geometry_groups,
    check_rfs,
    check_robust_full_rank,
    check_ros,
    equilibrium_geometry,
)

from helpers import (
    affine_family,
    assert_bits_equal,
    geometry_by_sample,
    random_plant,
    robust_subspace_by_sample,
    scaled_family,
    singular_family,
    spectrum_lines_by_sample,
)

GEOMETRY_KEYS = ("ndelta", "g", "gperp", "g_range", "t_basis")


def empty_null_family(rng) -> UncertainPlant:
    """No inputs: null [A B] is empty where A is invertible, and one-dimensional
    at delta = 1, where A is singular."""
    base = random_plant(rng, 3, 2, 2)
    base = PlantMatrices(a=base.a, b=np.zeros((3, 0)), bw=base.bw, c=base.c,
                         d=np.zeros((2, 0)), q=base.q)
    x = rng.standard_normal(3)
    return affine_family(rng, base, {"a": [-base.a @ np.outer(x, x) / (x @ x)]},
                         [(1.0,), (1.0 - 1e-10,)])


def square_family(rng) -> UncertainPlant:
    """As many inputs as outputs: [A B; C D] has full row rank, G full rank,
    except at delta = 1, where the last columns of B and D vanish."""
    base = random_plant(rng, 3, 2, 2)
    last = np.zeros((2, 2))
    last[1, 1] = 1.0
    return affine_family(rng, base, {"b": [-base.b @ last], "d": [-base.d @ last]}, [(1.0,)])


FAMILIES = {"singular": singular_family, "empty-null": empty_null_family,
            "scaled": scaled_family, "square": square_family}


def equalities(rng, up: UncertainPlant, kind: str):
    """No H, a fixed H, or a callable H(delta) = H0 + delta_1 H1."""
    p = eval_plant(up, up.nominal).p
    if kind == "none":
        return None
    h0 = rng.standard_normal((1, p))
    if kind == "fixed":
        return h0
    h1 = rng.standard_normal((1, p))
    return lambda delta: h0 + float(delta[0]) * h1


CASES = [(family, kind) for family in FAMILIES for kind in ("none", "fixed", "callable")]


@pytest.mark.parametrize("family,kind", CASES)
def test_block_geometry_equals_each_sample_alone(family, kind):
    rng = np.random.default_rng(sorted(FAMILIES).index(family))
    up = FAMILIES[family](rng)
    h_eq = equalities(rng, up, kind)
    samples = up.delta_samples
    ps = eval_plant(up, np.stack(samples))
    groups = _geometry_groups(ps, _equality_rows(h_eq, samples, ps.p))
    seen = np.concatenate([geom.rows for geom in groups])
    assert np.array_equal(np.sort(seen), np.arange(len(samples)))
    if family != "scaled":
        assert len(groups) > 1, "the family should change rank inside the stack"
    for geom in groups:
        for i, row in enumerate(geom.rows):
            d = samples[row]
            want = geometry_by_sample(eval_plant(up, d), h_eq(d) if callable(h_eq) else h_eq)
            for key in GEOMETRY_KEYS:
                assert_bits_equal(getattr(geom, key)[i], want[key], f"{key} at {d}")
    # one realization is the block of one
    d = samples[1]
    h = h_eq(d) if callable(h_eq) else h_eq
    alone = equilibrium_geometry(eval_plant(up, d), h)
    want = geometry_by_sample(eval_plant(up, d), h)
    for key in GEOMETRY_KEYS:
        got = getattr(alone, key)
        assert_bits_equal(getattr(got, "basis", got), want[key], key)


@pytest.mark.parametrize("family,kind", CASES)
def test_block_subspace_checks_equal_each_sample_alone(family, kind):
    rng = np.random.default_rng(10 + sorted(FAMILIES).index(family))
    up = FAMILIES[family](rng)
    h_eq = equalities(rng, up, kind)
    for check, key, out in ((check_ros, "g_range", "g0"), (check_rfs, "t_basis", "t0")):
        rep = check(up, h_eq)
        want = robust_subspace_by_sample(up, h_eq, key)
        assert rep["holds"] is want["holds"]
        assert rep["deltas"] == len(up.delta_samples)
        assert rep["matches"][0] and rep["sines"][0] == 0.0  # the nominal sample
        assert rep["matches"][1:].tolist() == want["matches"]
        assert_bits_equal(rep["sines"][1:], np.array(want["sines"]), f"{check.__name__} sines")
        assert rep["max_sine"] == max(want["sines"])
        if want["holds"]:
            assert_bits_equal(rep[out], want["ref"], out)
        else:
            assert all(np.array_equal(a, b) for a, b in zip(rep["witness"], want["witness"]))
    if family == "scaled" and kind != "callable":
        assert check_ros(up, h_eq)["holds"] and check_rfs(up, h_eq)["holds"]


RANK_FAMILIES = dict(FAMILIES, wide=lambda rng: scaled_family(rng, m=3, p=2))


@pytest.mark.parametrize("family", sorted(RANK_FAMILIES))
def test_block_full_rank_equals_each_sample_alone(family):
    rng = np.random.default_rng(20 + sorted(RANK_FAMILIES).index(family))
    up = RANK_FAMILIES[family](rng)
    full = [rank_decision(np.block([[pm.a, pm.b], [pm.c, pm.d]]), pm.n + pm.p)[0]
            for pm in (eval_plant(up, d) for d in up.delta_samples)]
    assert check_robust_full_rank(up) is all(full)
    # the square family fails past its nominal block, the wide one nowhere
    if family in ("square", "wide"):
        assert full[0] and all(full) is (family == "wide")


def keps_document(rng, draws: int = DELTA_BLOCK + 8, singular=(5,)) -> dict:
    """A two-state plant with D(delta) = [delta; 0.5] under proportional
    proxy-error feedback: the feedthrough loop 1 + delta is singular at
    delta = -1, the draws at the indices ``singular``."""
    def matrix(m):
        m = np.atleast_2d(m)
        return {"rows": m.shape[0], "cols": m.shape[1], "data": m.ravel().tolist()}

    drawn = rng.uniform(-0.9, 0.9, draws).tolist()
    for i in singular:
        drawn[i] = -1.0
    return {
        "name": "keps-blocks",
        "plant": {"matrices": {
            "a": matrix([[-1.0, 0.3], [0.2, -2.0]]),
            "a_delta": [matrix(0.2 * rng.standard_normal((2, 2)))],
            "b": matrix([[1.0], [0.5]]), "bw": matrix([[1.0], [0.0]]),
            "c": matrix([[1.0, 0.0], [0.0, 1.0]]),
            "d": matrix([[0.0], [0.5]]), "d_delta": [matrix([[1.0], [0.0]])],
            "q": matrix([[0.0], [0.0]])},
            "delta_dim": 1, "delta_samples": [[0.0]] + [[v] for v in drawn],
            "delta_box": [[-1.0, 1.0]]},
        "program": {"qp": {"m": matrix(np.eye(2)), "n": matrix([[0.0], [1.0]])}},
        "om": {"variant": "rfs", "basis": matrix([[1.0], [0.0]])},
        "stabilizer": {"gains": {"keta": matrix([[0.5]]), "keps": matrix([[1.0]])}},
        "sim": {"h": 0.01, "t_end": 1.0, "w": [1.0]},
    }


def test_block_spectra_equal_each_loop_alone():
    sc = scenarios.load_scenario(keps_document(np.random.default_rng(30)))
    plan = sc.variants[0]
    ctx = scenarios._Context(sc, plan)
    lines = scenarios._spectrum_info(ctx)
    want = spectrum_lines_by_sample(sc, plan)
    assert len(lines) == len(want) == len(sc.plant.delta_samples)
    failed = 0
    for line, (d, eigs) in zip(lines, want):
        where = f"[{plan.name}] delta={d.tolist()}"
        if isinstance(eigs, str):
            failed += 1
            assert line == f"{where}: spectrum unavailable ({eigs})"
            with pytest.raises(ValueError, match="singular"):
                ctx.spectrum(d)
            continue
        got = ctx.spectrum(d).astype(complex)
        for part in ("real", "imag"):
            assert_bits_equal(getattr(got, part), getattr(eigs.astype(complex), part), where)
        top = eigs.real.max()
        assert line == (f"{where}: max Re(closed-loop spectrum) = {top:.4g}"
                        + ("  ** unstable **" if top >= 0 else ""))
    assert failed == 1
    # a delta outside the box (no sample can be, see test_cli) fails alone too
    inside, outside = np.array([0.25]), np.array([1.5])
    tops, errors = ctx.spectrum_tops([inside, outside])
    assert list(errors) == [1] and "outside box" in str(errors[1])
    with pytest.raises(ValueError, match="outside box"):
        ctx.spectrum(outside)
    got = ctx.spectrum(inside).astype(complex)
    alone = np.linalg.eigvals(ctx.loop(inside).affine[0]).astype(complex)
    for part in ("real", "imag"):
        assert_bits_equal(getattr(got, part), getattr(alone, part), "inside")
    assert tops[0] == alone.real.max() and np.isnan(tops[1])


MAPPED_DRAWS = 3 * DELTA_BLOCK + 1


def thread_names(monkeypatch, module, name: str) -> list:
    """The names of the threads that call ``module.name``, as they call it."""
    names = []
    original = getattr(module, name)

    def recording(*args, **kwargs):
        names.append(threading.current_thread().name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, recording)
    return names


def mapped_and_inline(monkeypatch, module, name: str, run) -> tuple:
    """``run()`` with the blocks mapped over a pool of two threads, then
    with them run inline; each result with the threads that called
    ``module.name``, which sees every block."""
    out = []
    for workers in (2, 1):
        monkeypatch.setattr(matlib, "_WORKERS", workers)
        with monkeypatch.context() as patch:
            names = thread_names(patch, module, name)
            out.append((run(), names))
    (mapped, mapped_threads), (inline, inline_threads) = out
    main = threading.current_thread().name
    assert any(t != main for t in mapped_threads), "no block ran on the pool"
    assert set(inline_threads) == {main}
    return mapped, inline


MAPPED_FAMILIES = {
    "singular": lambda rng: singular_family(rng, MAPPED_DRAWS),
    "scaled": lambda rng: scaled_family(rng, draws=MAPPED_DRAWS),
}


@pytest.mark.parametrize("family", sorted(MAPPED_FAMILIES))
@pytest.mark.parametrize("kind", ["none", "callable"])
def test_mapped_subspace_pass_equals_inline(monkeypatch, family, kind):
    rng = np.random.default_rng(60 + sorted(MAPPED_FAMILIES).index(family))
    up = MAPPED_FAMILIES[family](rng)
    h_eq = equalities(rng, up, kind)
    assert len(up.delta_samples) >= 3 * DELTA_BLOCK + 2
    mapped, inline = mapped_and_inline(monkeypatch, subspaces, "eval_plant",
                                       lambda: check_rfs(up, h_eq))
    for got, want, key in ((mapped, inline, "t0"), (mapped["ros"], inline["ros"], "g0")):
        assert got["holds"] is want["holds"]
        assert got["deltas"] == want["deltas"] == len(up.delta_samples)
        assert_bits_equal(got["matches"], want["matches"], "matches")
        assert_bits_equal(got["sines"], want["sines"], "sines")
        assert got["max_sine"] == want["max_sine"]
        if want["holds"]:
            assert got["witness"] is None
            assert_bits_equal(got[key], want[key], key)
        else:
            assert all(np.array_equal(a, b) for a, b in zip(got["witness"], want["witness"]))
    # the inline pass is the one decided sample by sample
    want = robust_subspace_by_sample(up, h_eq, "t_basis")
    assert mapped["holds"] is want["holds"]
    assert_bits_equal(mapped["sines"][1:], np.array(want["sines"]), "sines by sample")
    if family == "singular":
        assert not mapped["holds"] and not mapped["ros"]["holds"]


def test_mapped_spectrum_pass_equals_inline(monkeypatch):
    # loops that cannot be built in the second and the third block, the
    # first of them at its block's first sample
    rng = np.random.default_rng(31)
    doc = keps_document(rng, MAPPED_DRAWS, singular=(DELTA_BLOCK - 1, 2 * DELTA_BLOCK + 7))
    sc = scenarios.load_scenario(doc)
    plan = sc.variants[0]
    assert len(sc.plant.delta_samples) >= 3 * DELTA_BLOCK + 2

    def check():
        ctx = scenarios._Context(sc, plan)
        lines = scenarios._spectrum_info(ctx)
        with pytest.raises(ValueError, match="singular") as raised:
            scenarios._check_hurwitz_at_samples(ctx, {"value": True})
        return lines, str(raised.value), ctx.sample_spectra

    mapped, inline = mapped_and_inline(monkeypatch, scenarios, "assemble", check)
    assert mapped[:2] == inline[:2]
    # NaN where the loop cannot be built
    assert np.array_equal(mapped[2][0], inline[2][0], equal_nan=True)
    assert list(mapped[2][1]) == list(inline[2][1]) == [DELTA_BLOCK, 2 * DELTA_BLOCK + 8]
    assert sum("spectrum unavailable" in line for line in mapped[0]) == 2
    # the lines are those of each loop built alone
    for line, (d, eigs) in zip(mapped[0], spectrum_lines_by_sample(sc, plan)):
        where = f"[{plan.name}] delta={d.tolist()}"
        if isinstance(eigs, str):
            assert line == f"{where}: spectrum unavailable ({eigs})"
        else:
            top = eigs.real.max()
            assert line == (f"{where}: max Re(closed-loop spectrum) = {top:.4g}"
                            + ("  ** unstable **" if top >= 0 else ""))


def test_sample_spectra_leave_no_reference_cycle():
    # a context holds its trajectories: the spectrum pass must not keep it
    # alive until the cycle collector runs
    sc = scenarios.load_scenario(keps_document(np.random.default_rng(32), singular=()))
    ctx = scenarios._Context(sc, sc.variants[0])
    gc.disable()
    try:
        assert not ctx.sample_spectra[1]
        alive = weakref.ref(ctx)
        del ctx
        assert alive() is None
    finally:
        gc.enable()


def test_unbuildable_deltas_leave_no_reference_cycle():
    # the errors kept for the deltas whose loop cannot be built carry no
    # traceback: its frames would hold the context
    sc = scenarios.load_scenario(keps_document(np.random.default_rng(30)))
    ctx = scenarios._Context(sc, sc.variants[0])
    gc.disable()
    try:
        lines = scenarios._spectrum_info(ctx)
        assert any("spectrum unavailable (proxy-error feedthrough loop is singular)" in line
                   for line in lines)
        # nor does raising one of them again
        with pytest.raises(ValueError, match="singular"):
            scenarios._check_hurwitz_at_samples(ctx, {"value": True})
        alive = weakref.ref(ctx)
        del ctx
        assert alive() is None
    finally:
        gc.enable()


DENSE_DRAWS = 100


@pytest.mark.parametrize("name", ["power-dapi", "rfs-violation"])
def test_dense_samples_keep_the_bundled_verdicts(name):
    # 100 seeded draws from the delta box after the bundled samples: every
    # expectation still passes, and the RFS witness is the bundled pair
    doc = json.loads(scenarios.bundled_path(name).read_text())
    bundled = scenarios.load_scenario(name)
    rng = np.random.default_rng(40)
    lo, hi = np.array(bundled.plant.delta_box, dtype=float).T
    doc["plant"]["delta_samples"] = ([d.tolist() for d in bundled.plant.delta_samples]
                                     + rng.uniform(lo, hi, (DENSE_DRAWS, len(lo))).tolist())
    sc = scenarios.load_scenario(doc)
    report = scenarios.check_scenario(sc)
    want = scenarios.check_scenario(bundled)
    assert report.exit_code == want.exit_code == 0
    assert ([(r.kind, r.variant, r.passed) for r in report.results]
            == [(r.kind, r.variant, r.passed) for r in want.results])
    if name == "rfs-violation":
        rfs = next(r for r in report.results if r.kind == "rfs")
        assert "witness deltas [0.0] vs [0.5]" in rfs.detail
    assert f"over {DENSE_DRAWS + 3} deltas" in report.results[0].detail


# SHA-256 of the info lines (one spectrum line per delta sample) and of the
# check details of ``check_scenario`` on each 100-draw dense document that
# ``perfbench/harness.dense_doc`` builds with ``random.Random(0)``, as the
# program wrote them while each check made its own pass over the samples
DENSE_REPORT_SHA256 = {
    "power-dapi": ("1e58b622e986aa3c89e290e34695e6c21217eee849f2c4d97626804cf85655a8",
                   "77f7c9e8c037ea3acec7e0ff00340498fbe7eac4c5c53b48630808a25ad7c5a6"),
    "power-novel": ("ac8276a54666775fd3a67c3de801285f3b639d221ee9767ed67b8a6eda15be3b",
                    "05b7e1fd46d5497698ea121ceac9b3b79ddc93ae75d7ceeced9ed37cca41ef60"),
    "rfs-violation": ("1a589167d0958bb650d26f1f0735323b20808b8c2ed850d58c83d2e60c52cedd",
                      "9f5e431d8be20952bac1461524c6d89b33007052e2da8101767ec993f3e66a1f"),
}


@pytest.mark.parametrize("name", sorted(DENSE_REPORT_SHA256))
def test_dense_report_text_is_pinned(monkeypatch, name):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    for module in ("harness", "bootstrap"):
        monkeypatch.delitem(sys.modules, module, raising=False)
    harness = importlib.import_module("harness")
    sc = scenarios.load_scenario(harness.dense_doc(name, random.Random(0), 100))
    report = scenarios.check_scenario(sc)
    assert report.exit_code == 0
    assert len(report.info) == len(sc.plant.delta_samples)
    texts = ("\n".join(report.info), "\n".join(r.detail for r in report.results))
    assert tuple(hashlib.sha256(t.encode()).hexdigest() for t in texts) == DENSE_REPORT_SHA256[name]


# SHA-256 of the info lines and of the check details of ``check_scenario`` on
# each bundled scenario, whose samples fit one block (decided inline, with no
# thread), as the program wrote them before the blocks were mapped over threads
BUNDLED_REPORT_SHA256 = {
    "tracking-sparse": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
                        "fbacc5fc719d5583e3dc125bde5eb068ce09348da596bdc96ac9a354c4aa5247"),
    "equilibrium-necessity": ("1009c1c22697126c6c3455e3e9fa76ac4566506e1075d69530972e1514d2fabb",
                              "0bd980565cf5d6f726ee5a1530b393db4385112b136b1c8fcb4a3d6e4ae611e8"),
    "rfs-violation": ("ddaf02fe34ba625d87c562681dcd1587e43f73b3c5e3a54cfd95faee6f669b55",
                      "3838b61f24dacda32ec4b085c1f19651c0ad09d219b7d115d30f9288d6e1f972"),
    "no-hurwitz": ("b61309b2e21c78479667d6889ce14a9c3889803f4573cf97a17f17b409a63aba",
                   "7663067410bfa13203b9de101c328e92f84ecf66112b4e2a758cf06defb9a87f"),
    "pd-vs-oss": ("2d1dfd0c8d338a0a107d9e68675f5e697abae3cc92c41b347fae58bf4e423b8e",
                  "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "power-dapi": ("64150bbb2d17b3ce9b276f231a4edad3649b3a08ac37cecd5a6baf3969c5dd4e",
                   "ea80c4afeff43c95cbab4eb2b0a8a19475dfde550c94521d5542cb2ec5af218e"),
    "power-novel": ("33923bc2f609596a4f1bac62883e84ec0546a95d79cd1d78daef6c0df4d400ac",
                    "05b7e1fd46d5497698ea121ceac9b3b79ddc93ae75d7ceeced9ed37cca41ef60"),
    "power-gb": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
                 "4d72a81a9b54b0774ae8f174206a0e8f97c14c563fd040295c434d4573bdc418"),
}


@pytest.mark.parametrize("name", scenarios.BUNDLED_NAMES)
def test_bundled_report_text_is_pinned(name):
    sc = scenarios.load_scenario(name)
    assert len(sc.plant.delta_samples) <= DELTA_BLOCK
    report = scenarios.check_scenario(sc)
    assert report.exit_code == 0
    texts = ("\n".join(report.info), "\n".join(r.detail for r in report.results))
    assert tuple(hashlib.sha256(t.encode()).hexdigest() for t in texts) == BUNDLED_REPORT_SHA256[name]
