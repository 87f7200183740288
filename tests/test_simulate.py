"""Closed-loop outputs, divergence truncation and the bundled scenario claims."""

import dataclasses
import hashlib
import json
import sys
import warnings
from functools import cache
from pathlib import Path

import numpy as np
import pytest

from osscontrol import scenarios
from osscontrol.omodels import gather_broadcast_input, om_dynamics
from osscontrol.plant import eval_plant
from osscontrol.simulate import (
    DIVERGENCE_LIMIT,
    ROW_BLOCK,
    ClosedLoopSystem,
    _rk4_step_map,
    integrate_rk4,
)

# SHA-256 of every CSV trace `oss run` writes for the affine scenarios (with
# --sweep for the multi-sample ones), recorded before the row-stacked outputs.
GOLDEN = json.loads((Path(__file__).parent / "golden_traces.json").read_text())
AFFINE_SCENARIOS = sorted(GOLDEN)
SWEPT = {"rfs-violation", "power-dapi", "power-novel"}


@cache
def load(name):
    return scenarios.load_scenario(name)


def simulated_loops(name):
    """(label, plan, delta, w, loop) for every loop the scenario integrates:
    each variant with a sim block at each delta sample (gather-and-broadcast
    loops exist at the nominal delta only)."""
    sc = load(name)
    for plan in sc.variants:
        if plan.sim is None:
            continue
        ctx = scenarios._Context(sc, plan)
        deltas = ([sc.plant.nominal] if plan.controller_kind == "gather_broadcast"
                  else sc.plant.delta_samples)
        for d in deltas:
            yield f"{plan.name}@{np.atleast_1d(d).tolist()}", plan, d, ctx.w, ctx.loop(d)


def random_states(n_state):
    """Rows spanning three output blocks, some of them resting (all zero)."""
    rng = np.random.default_rng(7)
    zs = 3.0 * rng.standard_normal((2 * ROW_BLOCK + 5, n_state))
    zs[[0, ROW_BLOCK, -1]] = 0.0
    return zs


def standard_reference(sc, plan, delta, w, zs, loop_u):
    """Per-row (y, u, eps, cost) of an optimality-model loop, built from the
    plant, the stabilizer gains, om_dynamics and objective_value.

    With proportional proxy-error feedback (Keps != 0) the input solves a
    linear loop equation; the reference then takes the loop's input
    ``loop_u``, checks that it solves that equation, and rebuilds the rest.
    """
    pm = eval_plant(sc.plant, delta)
    om, stab = plan.om, plan.stabilizer
    n, m, n_eta = pm.n, pm.m, om.eps_dim
    k_full = np.hstack([stab.block("kx", m, n), stab.block("knu", m, om.n_ic),
                        stab.block("kmu", m, om.n_mu), stab.block("keta", m, n_eta)])
    keps = stab.block("keps", m, n_eta)
    rows = []
    for z, u_loop in zip(zs, loop_u):
        u = u_loop if np.any(keps) else -(k_full @ z) + 0.0
        y = pm.c @ z[:n] + pm.d @ u + pm.q @ w
        _, eps = om_dynamics(om, y, w, z[n: n + om.state_dim])
        if np.any(keps):
            np.testing.assert_allclose(u, -(k_full @ z) - keps @ eps, rtol=0,
                                       atol=1e-12 * (1.0 + np.abs(u).max()))
        rows.append((y, u, eps, om.program.objective_value(y, w)))
    return tuple(np.array(col) for col in zip(*rows))


def gather_broadcast_reference(net, weights, zs):
    """Per-row outputs of the gather-and-broadcast loop from its definition."""
    rows = []
    for z in zs:
        u = gather_broadcast_input(net.cost_a, net.cost_b, -z[-1]) + 0.0
        omega = z[: net.n]
        rows.append((np.concatenate([u, omega]), u, np.array([weights @ omega]),
                     float(np.sum(0.5 * net.cost_a * u ** 2 + net.cost_b * u))))
    return tuple(np.array(col) for col in zip(*rows))


def assert_bits_equal(got, want, what):
    assert got.shape == want.shape, what
    assert np.array_equal(got, want), what
    assert np.array_equal(np.signbit(got), np.signbit(want)), f"{what}: signed zeros"


@pytest.mark.parametrize("name", scenarios.bundled_scenarios())
def test_stacked_outputs_match_per_row_reference(name):
    sc = load(name)
    loops = list(simulated_loops(name))
    assert loops
    # every loop of the affine scenarios is affine, none of tracking-sparse
    assert all((sys.affine is not None) == (name in GOLDEN) for *_, sys in loops)
    for label, plan, delta, w, sys in loops:
        zs = random_states(sys.n_state)
        got = sys.outputs(zs)
        if plan.controller_kind == "gather_broadcast":
            want = gather_broadcast_reference(sc.network, plan.gb_weights, zs)
        else:
            want = standard_reference(sc, plan, delta, w, zs, got[1])
        for g, r, what in zip(got, want, ("y", "u", "eps", "cost")):
            assert_bits_equal(g, r, f"{name} {label} {what}")


CROSS_ROUTE_STEPS = 200
# The step map is built from the probed closed-loop matrix and reassociates
# the four RK4 stages, so the routes agree to rounding only: at most 1.5e-14
# relative to the state scale on the bundled loops, checked here with a
# hundredfold margin.
CROSS_ROUTE_TOL = 1e-12


@pytest.mark.parametrize("name", AFFINE_SCENARIOS)
def test_affine_step_map_matches_generic_rk4(name):
    for label, plan, _, _, sys in simulated_loops(name):
        h = float(plan.sim["h"])
        z0 = np.asarray(plan.sim.get("z0", np.zeros(sys.n_state)), dtype=float)
        fast = integrate_rk4(sys, z0, CROSS_ROUTE_STEPS * h, h)
        generic = integrate_rk4(dataclasses.replace(sys, affine=None), z0,
                                CROSS_ROUTE_STEPS * h, h)
        assert len(fast.times) == len(generic.times) == CROSS_ROUTE_STEPS + 1, label
        for what in ("states", "y"):
            got, want = getattr(fast, what), getattr(generic, what)
            np.testing.assert_allclose(
                got, want, rtol=0, atol=CROSS_ROUTE_TOL * (1.0 + np.abs(want).max()),
                err_msg=f"{name} {label} {what}")


# -- divergence truncation --------------------------------------------------------


def diagonal_loop(rates, offset=None):
    """Hand-built affine loop z_dot = diag(rates) z + offset whose outputs echo
    the state (no arithmetic, so diverged rows cannot warn there)."""
    a = np.diag(np.asarray(rates, dtype=float))
    b = np.zeros(len(rates)) if offset is None else np.asarray(offset, dtype=float)

    def outputs(zs):
        k = zs.shape[0]
        return zs.copy(), np.zeros((k, 0)), np.zeros((k, 0)), np.zeros(k)

    return ClosedLoopSystem(n_state=len(rates), rhs=lambda _t, z: a @ z + b,
                            outputs=outputs, m=0, p=len(rates), eps_dim=0, affine=(a, b))


def per_step_reference(sys, z0, steps, h):
    """Iterate the RK4 step map, checking every state as integrate_rk4 did
    before divergence was checked per block.  Returns (last, diverged, states)."""
    phi, psi = _rk4_step_map(*sys.affine, h)
    z = np.asarray(z0, dtype=float)
    states = [z]
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            z = phi @ z + psi
            states.append(z)
            if not np.isfinite(z).all() or np.linalg.norm(z) > DIVERGENCE_LIMIT:
                return k + 1, True, np.array(states)
    return steps, False, np.array(states)


H = 0.01
STEPS = 3 * ROW_BLOCK + 17


def growth_case(step):
    """(loop, z0, step) for a growing loop whose norm first passes the limit
    at ``step``, half a step's growth away from either neighbour."""
    loop = diagonal_loop([2.0, -1.0])
    phi, _ = _rk4_step_map(*loop.affine, H)
    return loop, np.array([DIVERGENCE_LIMIT / phi[0, 0] ** (step - 0.5), 0.0]), step


# (loop, z0, step at which the per-step check truncates, or None)
DIVERGENCE_CASES = {
    "inside-first-block": growth_case(ROW_BLOCK // 3),
    "last-step-of-block": growth_case(ROW_BLOCK),
    "first-step-of-block": growth_case(ROW_BLOCK + 1),
    "inside-later-block": growth_case(2 * ROW_BLOCK + 40),
    # one step multiplies by ~4e98, so 1e211 jumps past the float range
    "overflow-to-inf": (diagonal_loop([1e27, -1.0]), np.array([1e211, 1.0]), 1),
    "nan-state": (diagonal_loop([-1.0, -2.0]), np.array([np.nan, 1.0]), 1),
    # norm 0.9e12 at rest: every block is suspect, no state diverges
    "near-limit-no-divergence": (diagonal_loop([0.0, 0.0]), np.array([0.9e12, 0.0]), None),
    "stable": (diagonal_loop([-1.0, -0.5], offset=[1.0, 2.0]), np.array([5.0, -5.0]), None),
}


@pytest.mark.parametrize("case", list(DIVERGENCE_CASES))
def test_block_divergence_check_truncates_at_the_per_step_state(case):
    sys, z0, expect_last = DIVERGENCE_CASES[case]
    want_last, want_diverged, want_states = per_step_reference(sys, z0, STEPS, H)
    # the hand-built case really diverges where its name says
    assert want_last == (STEPS if expect_last is None else expect_last)
    assert want_diverged == (expect_last is not None)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        traj = integrate_rk4(sys, z0, STEPS * H, H)
    assert len(traj.times) - 1 == want_last
    assert traj.diverged == want_diverged
    np.testing.assert_array_equal(traj.states, want_states)
    np.testing.assert_array_equal(traj.y, want_states)


# -- bundled scenario claims ------------------------------------------------------


def expected_checks(sc, plans):
    """(kind, variant) of every expectation, in report order: scenario-level
    checks are reported under the first variant."""
    return ([(spec["kind"], plans[0].name) for spec in sc.expect]
            + [(spec["kind"], plan.name) for plan in plans for spec in plan.expect])


@pytest.mark.parametrize("name", AFFINE_SCENARIOS)
def test_affine_scenario_run_passes_with_golden_traces(name, tmp_path):
    sc = load(name)
    report, _ = scenarios.run_scenario(sc, out_dir=tmp_path, sweep=name in SWEPT)
    assert report.exit_code == 0, report.render()
    assert [(r.kind, r.variant) for r in report.results] == expected_checks(sc, sc.variants)
    traces = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
              for p in sorted(tmp_path.glob("*.csv"))}
    assert traces == GOLDEN[name]


def test_tracking_sparse_check_passes():
    # `run` integrates 40k nonlinear RK4 steps (several seconds); only the
    # analysis checks run here until its right-hand side is made cheap.
    sc = load("tracking-sparse")
    report = scenarios.check_scenario(sc)
    assert report.exit_code == 0, report.render()
    analysis = [(kind, variant) for kind, variant in expected_checks(sc, sc.variants)
                if kind not in scenarios.SIM_CHECK_KINDS]
    assert [(r.kind, r.variant) for r in report.results] == analysis


# SHA-256 of tracking-sparse's traces over a 2 s horizon (1000 nonlinear RK4
# steps per variant).  Kept out of golden_traces.json, whose keys are the
# affine scenarios.
TRACKING_SPARSE_SHORT = {
    "tracking-sparse--theta-sparse.csv":
        "d72c60ae117a3afabc652a838b9aae23b93bd071263634794488d36e61f3ab96",
    "tracking-sparse--theta-tiny.csv":
        "4fc99a50df638da31e716b0d660abe057e25b0b9c176afa4705439c17c31c3d6",
}


def test_tracking_sparse_short_run_traces(tmp_path):
    # the claims need the full 40 s horizon; at 2 s only the traces are pinned
    scenarios.run_scenario(load("tracking-sparse"), out_dir=tmp_path, t_end=2.0)
    traces = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
              for p in sorted(tmp_path.glob("*.csv"))}
    assert traces == TRACKING_SPARSE_SHORT


def test_sweep_reuses_the_variant_trajectory():
    sc = load("power-dapi")
    _, trajectories = scenarios.run_scenario(sc, t_end=1.0, sweep=True)
    assert trajectories["main--delta0"] is trajectories["main"]
    assert trajectories["main--delta1"] is not trajectories["main"]


def test_check_builds_one_closed_loop_matrix_per_delta(monkeypatch):
    calls = []
    original = scenarios.assemble

    def counting(*args):
        calls.append(args[1])
        return original(*args)

    monkeypatch.setattr(scenarios, "assemble", counting)
    sc = load("rfs-violation")
    assert scenarios.check_scenario(sc).exit_code == 0
    # one loop per delta sample for the spectra (the spectrum info lines and
    # hurwitz_at_samples share them) plus the equilibrium_mismatch loop
    assert len(calls) == len(sc.plant.delta_samples) + 1
    ctx = scenarios._Context(sc, sc.variants[0])
    d = sc.plant.delta_samples[1]
    first = ctx.spectrum(d)
    built = len(calls)
    assert ctx.spectrum(d) is first
    assert len(calls) == built


def test_sweep_threads_share_one_trajectory_per_delta():
    # more samples than worker threads, four distinct values, frequent thread
    # switches: workers racing on one delta must all return the first result
    doc = json.loads(scenarios.bundled_path("rfs-violation").read_text())
    doc["plant"]["delta_samples"] = [[0.0], [0.5], [-0.5], [0.25]] * 10
    sc = scenarios.load_scenario(doc)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _, trajectories = scenarios.run_scenario(sc, t_end=0.05, sweep=True)
    finally:
        sys.setswitchinterval(interval)
    first = {}
    for i, d in enumerate(sc.plant.delta_samples):
        traj = trajectories[f"main--delta{i}"]
        assert first.setdefault(d.tobytes(), traj) is traj
