"""Row stacks: a loop of S rows integrated at once against each row alone.

``assemble`` given S deltas, S stabilizers or both builds one loop whose row
i is delta_i with stabilizer i, and ``integrate_rk4`` advances a row stack of
states.  Every row of the stacked trajectory must be bit-identical to
integrating that row's own one-row loop, up to the row's own divergence
step; a scenario run integrates its variants and sweep samples this way.
"""

import json

import numpy as np
import pytest

from osscontrol import scenarios
from osscontrol.omodels import OptimalityModel
from osscontrol.optprob import ConvexProgram, tracking_objective
from osscontrol.plant import fixed_plant
from osscontrol.simulate import ROW_BLOCK, assemble, integrate_rk4
from osscontrol.stabilize import Stabilizer

from helpers import assert_bits_equal, random_plant

H = 0.01
STEPS = 3 * ROW_BLOCK + 17
FIELDS = ("states", "y", "u", "eps", "cost")


def destabilizing(pm, rate):
    """kx = -c B' with c putting A + c B B' about ``rate`` past A's spectrum:
    positive state feedback whose row grows until it is truncated."""
    return -(rate / np.linalg.norm(pm.b, 2) ** 2) * pm.b.T


def affine_case(rng):
    """(plant, model, stabilizers, states): an equality-constrained QP with
    an output-subspace model; one row with proxy-error feedthrough (Keps), one
    built to diverge in the second block of steps."""
    pm = random_plant(rng, 3, 2, 3, n_w=1, stable=True)
    prog = ConvexProgram.from_qp(np.diag(rng.uniform(0.5, 2.0, 3)), rng.standard_normal((3, 1)),
                                 n_w=1, h_eq=rng.standard_normal((1, 3)),
                                 l_eq=rng.standard_normal((1, 1)))
    om = OptimalityModel(variant="ros", basis=rng.standard_normal((3, 2)), program=prog)
    small = dict(kmu=0.1 * rng.standard_normal((2, 1)), keta=0.1 * rng.standard_normal((2, 2)))
    stabs = [Stabilizer(**small),
             Stabilizer(kx=destabilizing(pm, 10.0), **small),
             Stabilizer(keps=0.05 * rng.standard_normal((2, 2)), **small)]
    return pm, om, stabs, rng.standard_normal((3, 6))


def inequality_case(rng):
    """(plant, model, stabilizers, states): the QP of ``affine_case`` with one
    affine inequality, whose multiplier state makes the loop nonlinear."""
    pm = random_plant(rng, 3, 2, 3, n_w=1, stable=True)
    g, offset = rng.standard_normal(3), 0.5

    def f(y, w):
        return float(g @ np.asarray(y, dtype=float).ravel() - offset)

    prog = ConvexProgram.from_qp(np.diag(rng.uniform(0.5, 2.0, 3)), rng.standard_normal((3, 1)),
                                 n_w=1, h_eq=rng.standard_normal((1, 3)),
                                 l_eq=rng.standard_normal((1, 1)),
                                 inequalities=[(f, lambda y, w: g)])
    om = OptimalityModel(variant="ros", basis=rng.standard_normal((3, 2)), program=prog)
    small = dict(knu=0.1 * rng.standard_normal((2, 1)), kmu=0.1 * rng.standard_normal((2, 1)),
                 keta=0.1 * rng.standard_normal((2, 2)))
    stabs = [Stabilizer(**small),
             Stabilizer(kx=destabilizing(pm, 10.0), **small),
             Stabilizer(kx=0.2 * rng.standard_normal((2, 3)), **small)]
    return pm, om, stabs, rng.standard_normal((3, 7))


def nonlinear_case(rng):
    """(plant, model, stabilizers, states): the tracking objective with per-row
    theta and beta as (S, 1) columns; the middle row built to diverge."""
    pm = random_plant(rng, 3, 2, 4, n_w=3, stable=True)
    theta, beta = np.array([[0.05], [0.5], [0.2]]), np.array([[20.0], [5.0], [10.0]])
    r_idx = np.array([0, 2])

    def program(theta, beta):
        return ConvexProgram.from_callables(4, 3, *tracking_objective(2, r_idx, theta, beta))

    basis = rng.standard_normal((4, 2))
    stacked = OptimalityModel(variant="ros", basis=basis, program=program(theta, beta))
    rows = [OptimalityModel(variant="ros", basis=basis, program=program(t, b))
            for t, b in zip(theta[:, 0], beta[:, 0])]
    keta = [0.3 * rng.standard_normal((2, 2)) for _ in range(3)]
    stabs = [Stabilizer(keta=keta[0]),
             Stabilizer(kx=destabilizing(pm, 10.0), keta=keta[1]),
             Stabilizer(keta=keta[2])]
    return pm, (stacked, rows), stabs, 0.5 * rng.standard_normal((3, 5))


CASES = {"affine": (affine_case, 61), "inequality": (inequality_case, 65),
         "tracking": (nonlinear_case, 62)}


@pytest.mark.parametrize("case", list(CASES))
def test_stacked_rows_match_one_row_integration(case):
    build, seed = CASES[case]
    rng = np.random.default_rng(seed)
    pm, om, stabs, z0 = build(rng)
    stacked_om, row_oms = om if case == "tracking" else (om, [om] * 3)
    up, w = fixed_plant(pm), rng.standard_normal(pm.n_w)
    loop = assemble(up, up.nominal, w, stacked_om, stabs)
    assert (loop.affine is not None) == (case == "affine")
    stack = integrate_rk4(loop, z0, STEPS * H, H)
    assert stack.states.shape == (STEPS + 1, 3, loop.n_state)
    assert stack.diverged.tolist() == [False, True, False]
    # the diverging row ends after the first block, before the others
    assert ROW_BLOCK + 1 < stack.ends[1] < STEPS + 1 == stack.ends[0] == stack.ends[2]
    # the row's states against its own loop's, and the stacked map's outputs
    # of the row against its own loop's outputs
    stacked = dict(zip(FIELDS[1:], stack.outputs(stack.states)))
    alone_loops = [assemble(up, up.nominal, w, om_i, stab) for stab, om_i in zip(stabs, row_oms)]
    rows = stack.rows([loop.outputs for loop in alone_loops])
    for i, (row, loop) in enumerate(zip(rows, alone_loops)):
        alone = integrate_rk4(loop, z0[i], STEPS * H, H)
        end = stack.ends[i]
        assert len(row.times) == len(alone.times) == end, i
        assert row.diverged == alone.diverged, i
        assert_bits_equal(row.times, alone.times, f"row {i} times")
        assert_bits_equal(row.states, alone.states, f"row {i} states")
        for what in FIELDS[1:]:
            assert_bits_equal(stacked[what][:end, i], getattr(alone, what), f"row {i} {what}")


def test_states_of_one_loop_match_one_row_integration():
    # a loop without per-row gains advances a row stack of initial states too
    rng = np.random.default_rng(63)
    pm, om, stabs, z0 = affine_case(rng)
    up, w = fixed_plant(pm), rng.standard_normal(pm.n_w)
    loop = assemble(up, up.nominal, w, om, stabs[1])
    stack = integrate_rk4(loop, z0, STEPS * H, H)
    assert stack.diverged.all()
    for i, row in enumerate(stack.rows()):
        alone = integrate_rk4(loop, z0[i], STEPS * H, H)
        assert len(row.times) == len(alone.times) and row.diverged, i
        for what in FIELDS:
            assert_bits_equal(getattr(row, what), getattr(alone, what), f"row {i} {what}")


def test_stacked_loop_holds_each_rows_closed_loop_matrix():
    rng = np.random.default_rng(64)
    pm, om, stabs, _ = affine_case(rng)
    up, w = fixed_plant(pm), rng.standard_normal(pm.n_w)
    a_stack, b_stack = assemble(up, up.nominal, w, om, stabs).affine
    for i, stab in enumerate(stabs):
        a_cl, b_cl = assemble(up, up.nominal, w, om, stab).affine
        assert_bits_equal(a_stack[i], a_cl, f"row {i} A_cl")
        assert_bits_equal(b_stack[i], b_cl, f"row {i} b_cl")
        assert a_stack[i].flags.c_contiguous


def test_delta_and_stabilizer_stacks_must_match():
    rng = np.random.default_rng(66)
    pm, om, stabs, _ = affine_case(rng)
    up, w = fixed_plant(pm), rng.standard_normal(pm.n_w)
    with pytest.raises(ValueError, match="one stabilizer per delta, got 3 stabilizers for 2"):
        assemble(up, np.zeros((2, 0)), w, om, stabs)
    # matching lengths: row i is delta i with stabilizer i
    a_stack, _ = assemble(up, np.zeros((3, 0)), w, om, stabs).affine
    for i, stab in enumerate(stabs):
        assert_bits_equal(a_stack[i], assemble(up, up.nominal, w, om, stab).affine[0],
                          f"row {i} A_cl")


def assert_requests_match_alone(sc, trajectories, t_end):
    """Every trajectory of a run (each variant at its delta and, when swept,
    at every delta sample) against integrating that variant and delta alone."""
    checked = 0
    for plan in sc.variants:
        if plan.sim is None:
            continue
        ctx = scenarios._Context(sc, plan, t_end=t_end)
        wanted = {plan.name: ctx.delta}
        if f"{plan.name}--delta0" in trajectories:
            wanted.update({f"{plan.name}--delta{i}": d
                           for i, d in enumerate(sc.plant.delta_samples)})
        for key, d in wanted.items():
            loop = ctx.loop(d)
            alone = integrate_rk4(loop, ctx.z0(loop.n_state), t_end, float(ctx.sim["h"]))
            got = trajectories[key]
            assert len(got.times) == len(alone.times), key
            assert got.diverged == alone.diverged, key
            for what in ("times",) + FIELDS:
                assert_bits_equal(getattr(got, what), getattr(alone, what), f"{key} {what}")
            checked += 1
    return checked


@pytest.mark.parametrize("name", [name for name in scenarios.BUNDLED_NAMES
                                  if len(scenarios.load_scenario(name).plant.delta_samples) > 1])
def test_planned_rows_match_each_request_alone(name):
    # power-gb's gather-and-broadcast loop is not swept; it is integrated alone
    sc = scenarios.load_scenario(name)
    h = float(sc.variants[0].sim["h"])
    t_end = (2 * ROW_BLOCK + 5) * h
    report, trajectories = scenarios.run_scenario(sc, t_end=t_end, sweep=True)
    assert not report.diverged
    swept = sc.variants[0].om is not None
    assert len(trajectories) == 1 + swept * len(sc.plant.delta_samples)
    assert assert_requests_match_alone(sc, trajectories, t_end) == len(trajectories)


def diverging_sweep_document() -> dict:
    """rfs-violation at its nominal delta, with A(delta) = A + 8 delta I: the
    loop at the sample delta = 0.5 is unstable, the other two are not."""
    doc = json.loads(scenarios.bundled_path("rfs-violation").read_text())
    doc["plant"]["matrices"]["a_delta"] = [{"rows": 2, "cols": 2, "data": [8.0, 0.0, 0.0, 8.0]}]
    doc["sim"]["delta"] = [0.0]
    doc["expect"] = []
    doc["variants"][0]["expect"] = []
    return doc


def test_a_diverging_sample_row_truncates_alone():
    sc = scenarios.load_scenario(diverging_sweep_document())
    t_end = 12.0
    report, trajectories = scenarios.run_scenario(sc, t_end=t_end, sweep=True)
    steps = int(round(t_end / float(sc.variants[0].sim["h"])))
    ends = [len(trajectories[f"main--delta{i}"].times) for i in range(3)]
    assert [trajectories[f"main--delta{i}"].diverged for i in range(3)] == [False, True, False]
    assert ends[0] == ends[2] == steps + 1 > ends[1]
    # the variant's own trajectory is the sample at its delta
    assert trajectories["main"] is trajectories["main--delta0"]
    assert assert_requests_match_alone(sc, trajectories, t_end) == 4
    sweep_lines = [line for line in report.info if "sweep" in line]
    assert [line.endswith("(diverged)") for line in sweep_lines] == [False, True, False]
    assert "[main] trajectory diverged and was truncated" not in report.info
    assert report.exit_code == 3


@pytest.mark.parametrize("change", ["bundled", "r_indices", "equality-row"])
def test_variants_whose_objectives_do_not_join_integrate_apart(change, monkeypatch):
    # tracking-sparse's variants share w, h, t_end and the model's basis: one
    # row stack, their theta as a column.  Tracked outputs that differ, or an
    # equality row in one variant only, cannot be one program (_row_program):
    # each variant is then a stack of its own
    doc = json.loads(scenarios.bundled_path("tracking-sparse").read_text())
    program = doc["variants"][1]["program"]
    if change == "r_indices":
        program["objective"]["params"]["r_indices"] = [0, 2, 3]
    elif change == "equality-row":
        program["h"] = {"rows": 1, "cols": 5, "data": [1.0, 0.0, 0.0, 0.0, 0.0]}
    stacks = []

    def recording(sys, z0, t_end, h):
        stacks.append(z0.shape)
        return integrate_rk4(sys, z0, t_end, h)

    monkeypatch.setattr(scenarios, "integrate_rk4", recording)
    sc = scenarios.load_scenario(doc)
    t_end = (ROW_BLOCK + 5) * float(sc.variants[0].sim["h"])
    _, trajectories = scenarios.run_scenario(sc, t_end=t_end)
    if change == "bundled":
        assert stacks == [(2, 6)]
    else:  # an equality row adds its multiplier's state
        assert stacks == [(1, 6), (1, 7 if change == "equality-row" else 6)]
    assert assert_requests_match_alone(sc, trajectories, t_end) == 2


def test_qp_variants_of_distinct_programs_integrate_apart(monkeypatch):
    # rfs-violation's QP in two variants that share w, h, t_end and the
    # model's basis, each with a program of its own: with no tracking
    # objective to join them (_row_program), each variant is a stack of its own
    doc = json.loads(scenarios.bundled_path("rfs-violation").read_text())
    doc["expect"] = []
    doc["variants"] = [
        {"name": name, "program": {"qp": {"m": {"rows": 2, "cols": 2, "data": [c, 0.0, 0.0, 1.0]}}}}
        for name, c in (("unit-cost", 1.0), ("weighted-cost", 2.0))]
    stacks = []

    def recording(sys, z0, t_end, h):
        stacks.append(z0.shape)
        return integrate_rk4(sys, z0, t_end, h)

    monkeypatch.setattr(scenarios, "integrate_rk4", recording)
    sc = scenarios.load_scenario(doc)
    assert sc.variants[0].program is not sc.variants[1].program
    t_end = (ROW_BLOCK + 5) * float(sc.variants[0].sim["h"])
    _, trajectories = scenarios.run_scenario(sc, t_end=t_end)
    assert stacks == [(1, 3), (1, 3)]
    assert assert_requests_match_alone(sc, trajectories, t_end) == 2
    # the two costs reach two equilibria
    ends = [trajectories[name].y[-1] for name in ("unit-cost", "weighted-cost")]
    assert not np.allclose(*ends)
