import json

import numpy as np
import pytest

from osscontrol import scenarios
from osscontrol.matlib import range_basis, subspace_equal
from osscontrol.omodels import OptimalityModel
from osscontrol.optprob import ConvexProgram
from osscontrol.plant import (
    PlantMatrices,
    UncertainPlant,
    build_augmented_qp,
    eval_plant,
    fixed_plant,
    per_delta,
)
from osscontrol.power import build_swing_plant, default_network
from osscontrol.subspaces import equilibrium_geometry

from helpers import (
    assert_bits_equal,
    augmented_by_hand,
    bundled_qp_variants,
    dc_gain,
    feasible_direction_matrix,
    output_subspace_matrix,
    random_plant,
    random_qp_instance,
    swing_matrices_by_formula,
)

FIELDS = ("a", "b", "bw", "c", "d", "q", "cm")


class TestPlantMatrices:
    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            PlantMatrices(a=np.zeros((2, 3)), b=np.zeros((2, 1)), bw=np.zeros((2, 1)),
                          c=np.zeros((1, 2)), d=np.zeros((1, 1)), q=np.zeros((1, 1)))
        with pytest.raises(ValueError):
            PlantMatrices(a=np.zeros((2, 2)), b=np.zeros((2, 1)), bw=np.zeros((2, 1)),
                          c=np.zeros((1, 3)), d=np.zeros((1, 1)), q=np.zeros((1, 1)))

    def test_row_count_is_checked_and_only_vectors_are_reshaped(self):
        mats = dict(a=-np.eye(2), bw=np.ones((2, 1)), c=np.eye(2), d=np.zeros((2, 1)),
                    q=np.zeros((2, 1)))
        for key, bad in (("b", np.ones((1, 2))), ("bw", np.ones((1, 2))),
                         ("d", np.zeros((1, 2))), ("q", np.zeros((1, 2)))):
            given = dict(mats, b=np.ones((2, 1)))
            given[key] = bad
            with pytest.raises(ValueError, match=f"plant.{key} has 1 rows, expected 2"):
                PlantMatrices(**given)
        # a vector is read as the expected rows: one input here
        pm = PlantMatrices(**mats, b=[1.0, -1.0])
        assert pm.b.shape == (2, 1) and np.array_equal(pm.b[:, 0], [1.0, -1.0])

    def test_default_measurement_is_full_state(self, two_state_plant):
        assert np.allclose(two_state_plant.cm, np.eye(2))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            PlantMatrices(a=[[np.nan, 0], [0, -1]], b=np.zeros((2, 1)),
                          bw=np.zeros((2, 1)), c=np.eye(2), d=np.zeros((2, 1)),
                          q=np.zeros((2, 1)))


class TestEvalPlant:
    def test_two_state_values(self, nominal_two_state):
        pm = eval_plant(nominal_two_state, [])
        assert np.allclose(pm.a, [[-1, 0], [1, -1]])
        assert np.allclose(pm.b, [[1], [-1]])
        assert np.allclose(pm.bw, [[1], [1]])

    def test_perturbed_family(self, two_state_family):
        pm = eval_plant(two_state_family, [0.5])
        assert np.allclose(pm.a, [[-1.5, 0], [1.5, -1]])

    def test_delta_box_enforced(self, two_state_family):
        with pytest.raises(ValueError):
            eval_plant(two_state_family, [0.75])

    def test_swing_block_structure(self):
        net = default_network()
        up = build_swing_plant(net)
        pm = eval_plant(up, [0.0])
        n, nt = net.n, net.n_lines
        m_inv = np.diag(1.0 / net.inertia)
        assert np.allclose(pm.a[:n, :n], -m_inv @ np.diag(net.damping))
        assert np.allclose(pm.a[:n, n:], -m_inv @ net.incidence())
        assert np.allclose(pm.a[n:, :n], np.diag(net.susceptance) @ net.incidence().T)
        assert np.allclose(pm.a[n:, n:], 0.0)

    def test_inconsistent_family_rejected(self):
        def evaluate(delta):
            n = 2 if delta.size and delta[0] > 0 else 3
            return PlantMatrices(a=np.eye(n), b=np.ones((n, 1)), bw=np.ones((n, 1)),
                                 c=np.eye(n), d=np.zeros((n, 1)), q=np.zeros((n, 1)))

        with pytest.raises(ValueError):
            UncertainPlant(evaluate=per_delta(evaluate), delta_dim=1, delta_samples=[[0.0], [1.0]])

    def test_construction_evaluates_each_sample_once(self, two_state_family):
        calls = []

        def evaluate(delta):
            calls.append(delta)
            return eval_plant(two_state_family, delta)

        samples = [[0.0], [0.5], [-0.5], [0.25]]
        UncertainPlant(evaluate=per_delta(evaluate), delta_dim=1, delta_samples=samples)
        assert [float(d[0]) for d in calls] == [s[0] for s in samples]


def matrices_by_formula(spec: dict, delta) -> dict:
    """A ``matrices`` plant block at one delta, summed the way the loader
    sums it: ``base + sum(delta_i M_i)``, Python's ``sum`` starting at 0."""
    def decode(m):
        return np.asarray(m["data"], dtype=float).reshape(m["rows"], m["cols"])

    mats = spec["matrices"]
    out = {}
    for k in FIELDS:
        if k in mats:
            out[k] = decode(mats[k])
            if f"{k}_delta" in mats:
                out[k] = out[k] + sum(float(delta[i]) * decode(t)
                                      for i, t in enumerate(mats[f"{k}_delta"]))
    out.setdefault("cm", np.eye(out["a"].shape[0]))
    return out


def random_affine_spec(rng, dim: int = 2) -> dict:
    """A seeded ``matrices`` plant block whose A, B, C and Cm move with each
    of ``dim`` delta coordinates; its delta samples are (S, dim) draws."""
    shapes = {"a": (3, 3), "b": (3, 2), "bw": (3, 1), "c": (2, 3), "d": (2, 2), "q": (2, 1),
              "cm": (2, 3)}

    def matrix(shape):
        return {"rows": shape[0], "cols": shape[1], "data": rng.standard_normal(shape).ravel().tolist()}

    mats = {k: matrix(shape) for k, shape in shapes.items()}
    for k in ("a", "b", "c", "cm"):
        mats[f"{k}_delta"] = [matrix(shapes[k]) for _ in range(dim)]
    return {"matrices": mats, "delta_samples": rng.uniform(-1, 1, (5, dim)).tolist()}


def block_families():
    """(name, family, formula of one delta, box to draw from) for every
    bundled plant and a seeded random affine family."""
    out = []
    for name in scenarios.BUNDLED_NAMES:
        sc = scenarios.load_scenario(name)
        spec = json.loads(scenarios.bundled_path(name).read_text())["plant"]
        if "builder" in spec:
            formula = lambda d, net=sc.network: dict(swing_matrices_by_formula(net, d),
                                                      cm=np.eye(net.n + net.n_lines))
        else:
            formula = lambda d, spec=spec: matrices_by_formula(spec, d)
        out.append((name, sc.plant, formula, sc.plant.delta_box))
    spec = random_affine_spec(np.random.default_rng(70))
    out.append(("random-affine", scenarios._build_plant(scenarios._walk(spec, "plant", "plant", {}), None),
                lambda d: matrices_by_formula(spec, d), None))
    return out


class TestBlockEvaluation:
    @pytest.mark.parametrize("size", [1, 2, 33])
    def test_block_equals_each_delta_alone(self, size):
        rng = np.random.default_rng(71 + size)
        for name, up, formula, box in block_families():
            lo, hi = (np.array(box, dtype=float).T if box is not None
                      else (-np.ones(up.delta_dim), np.ones(up.delta_dim)))
            block = rng.uniform(lo, hi, (size, up.delta_dim))
            ps = eval_plant(up, block)
            for i, delta in enumerate(block):
                alone, want = eval_plant(up, delta), formula(delta)
                for k in FIELDS:
                    assert_bits_equal(getattr(ps, k)[i], want[k], f"{name} {k} at {delta}")
                    assert_bits_equal(getattr(alone, k), want[k], f"{name} {k} alone at {delta}")

    @pytest.mark.parametrize("bad", [0.75, -0.5000001, np.nan, np.inf])
    def test_block_raises_the_error_of_its_first_bad_delta(self, bad):
        for name, up, _, box in block_families():
            if not up.delta_dim:
                continue
            block = np.zeros((33, up.delta_dim))
            block[[7, 20], -1] = bad, -bad
            if box is None and np.isfinite(bad):
                assert eval_plant(up, block).a.shape[0] == 33, name
                continue
            with pytest.raises(ValueError) as alone:
                eval_plant(up, block[7])
            with pytest.raises(ValueError) as stacked:
                eval_plant(up, block)
            assert str(stacked.value) == str(alone.value), name

    def test_block_box_error_names_the_sample(self):
        up = scenarios.load_scenario("rfs-violation").plant
        with pytest.raises(ValueError, match=r"plant\.delta_samples\[3\]\[0\]=0\.75 outside box"):
            UncertainPlant(up.evaluate, 1, [[0.0], [0.5], [-0.5], [0.75], [0.9]], up.delta_box)


def _om(variant, basis, m_cost, h=None, l=None):
    p = np.shape(m_cost)[0]
    prog = ConvexProgram.from_qp(m_cost, np.zeros((p, 1)), n_w=1, h_eq=h, l_eq=l)
    return OptimalityModel(variant=variant, basis=basis, program=prog)


class TestBuildAugmentedQP:
    def test_zero_plant_direct_substitution(self):
        n = 2
        pm = PlantMatrices(a=np.zeros((n, n)), b=np.eye(n), bw=np.zeros((n, 1)),
                           c=np.eye(n), d=np.zeros((n, n)), q=np.zeros((n, 1)))
        aug = build_augmented_qp(pm, _om("rfs", np.eye(n), np.eye(n)))
        assert np.allclose(aug.a, np.block([[np.zeros((n, n)), np.zeros((n, n))],
                                            [np.eye(n), np.zeros((n, n))]]))
        assert np.allclose(aug.b, np.vstack([np.eye(n), np.zeros((n, n))]))

    def test_two_state_output_subspace_rows(self, two_state_plant):
        g0 = np.array([[1.0], [1.0]])
        aug = build_augmented_qp(two_state_plant, _om("ros", g0, np.eye(2)))
        assert aug.n_mu == 0 and aug.n_eta == 1
        # integrator row is g0' M [C D] = [1 0 | 1]
        assert np.allclose(aug.a[2], [1.0, 0.0, 0.0])
        assert np.allclose(aug.b[2], [1.0])

    def test_mu_coupling_block(self):
        rng = np.random.default_rng(11)
        pm = random_plant(rng, 3, 2, 3)
        h = rng.standard_normal((1, 3))
        g0 = rng.standard_normal((3, 2))
        m_cost = np.eye(3)
        aug = build_augmented_qp(pm, _om("ros", g0, m_cost, h, np.zeros((1, 1))))
        assert aug.n_mu == 1
        mu_cols = slice(3, 4)
        assert np.allclose(aug.a[4:, mu_cols], g0.T @ h.T)

    def test_reduced_variant_column_count_enforced(self, two_state_plant):
        with pytest.raises(ValueError):
            build_augmented_qp(two_state_plant,
                               _om("rerfs", np.ones((2, 2)), np.eye(2), np.zeros((1, 2)),
                                   np.zeros((1, 1))))

    def test_commutes_with_eval(self, two_state_family):
        # building from evaluated matrices equals evaluating then building
        for delta in two_state_family.delta_samples:
            pm = eval_plant(two_state_family, delta)
            aug = build_augmented_qp(pm, _om("ros", np.array([[1.0], [1.0]]), np.eye(2)))
            assert aug.n_state == pm.n + 1

    def test_state_dimension_accounting(self):
        rng = np.random.default_rng(12)
        pm = random_plant(rng, 4, 3, 3)
        h = rng.standard_normal((1, 3))
        t0 = rng.standard_normal((3, 2))
        for variant, extra in (("rfs", 1 + 2), ("ros", 1 + 2), ("rerfs", 1)):
            basis = t0 if variant != "rerfs" else rng.standard_normal((3, 1))
            g = rng.standard_normal((3, 2)) if variant == "ros" else basis
            aug = build_augmented_qp(pm, _om(variant, g, np.eye(3), h, np.zeros((1, 1))))
            n_mu = 1 if variant == "ros" else 0
            assert aug.n_state == pm.n + n_mu + aug.n_eta
            if variant == "rfs":
                assert aug.n_eta == 1 + g.shape[1]
            elif variant == "rerfs":
                assert aug.n_eta == 1

    def test_probe_matches_hand_formulas_on_random_qps(self):
        # the model's maps probed through om_dynamics against the per-variant
        # formulas; half the draws carry a linear cost c, which the probe
        # subtracts back out (exact in real arithmetic, not in floating point)
        rng = np.random.default_rng(14)
        for draw in range(60):
            n_ec = int(rng.integers(0, 3))
            p = int(rng.integers(max(n_ec, 1), 5))
            pm, prog, geom = random_qp_instance(rng, n_ec=n_ec, p=p)
            if draw % 2:
                prog = ConvexProgram.from_qp(prog.qp.m_cost, prog.qp.n_cost, n_w=prog.n_w,
                                             h_eq=prog.h_eq, l_eq=prog.l_eq,
                                             c=rng.standard_normal(prog.p))
            bases = {"rfs": feasible_direction_matrix(geom),
                     "ros": output_subspace_matrix(geom),
                     "rerfs": rng.standard_normal((prog.p, n_ec))}
            for variant, basis in bases.items():
                aug = build_augmented_qp(pm, OptimalityModel(variant, basis, prog))
                for got, want in zip((aug.a, aug.b), augmented_by_hand(pm, prog, variant, basis)):
                    assert got.shape == want.shape
                    scale = max(1.0, np.abs(want).max())
                    assert np.abs(got - want).max() <= 1e-12 * scale, (draw, variant)

    def test_probe_matches_hand_formulas_bitwise_on_bundled_variants(self):
        cases = 0
        for sc, plan in bundled_qp_variants():
            for delta in sc.plant.delta_samples:
                pm = eval_plant(sc.plant, delta)
                aug = build_augmented_qp(pm, plan.om)
                a, b = augmented_by_hand(pm, plan.om.program, plan.om.variant, plan.om.basis)
                assert np.array_equal(aug.a, a) and np.array_equal(aug.b, b), (sc.name, plan.name)
                cases += 1
        assert cases == 14


class TestDcGain:
    def test_matches_null_space_construction(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            pm = random_plant(rng, 4, 2, 3, stable=True)
            geom = equilibrium_geometry(pm)
            assert np.allclose(geom.g, dc_gain(pm), atol=1e-8)
            assert subspace_equal(range_basis(geom.g), range_basis(dc_gain(pm)))
