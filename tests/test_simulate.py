"""Closed-loop outputs, divergence truncation and the bundled scenario claims."""

import dataclasses
import hashlib
import json
import warnings
from functools import cache
from pathlib import Path

import numpy as np
import pytest

from osscontrol import scenarios
from osscontrol.errors import OssError
from osscontrol.omodels import om_dynamics
from osscontrol.optprob import oracle_optimal_output
from osscontrol.plant import eval_plant
from osscontrol.power import gather_broadcast_input
from osscontrol.simulate import (
    DIVERGENCE_LIMIT,
    ROW_BLOCK,
    ClosedLoopSystem,
    Trajectory,
    _rk4_step_map,
    assemble,
    convergence_metrics,
    equilibrium_solve,
    integrate_rk4,
)

from helpers import assert_bits_equal, settling_time_by_scan, trajectory_of_arrays

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
        deltas = [sc.plant.nominal] if plan.om is None else sc.plant.delta_samples
        for d in deltas:
            yield f"{plan.name}@{np.atleast_1d(d).tolist()}", plan, d, ctx.w, ctx.loop(d)


def random_states(n_state):
    """Random rows, more than two ROW_BLOCK blocks of them, some resting (all
    zero)."""
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
        if plan.om is None:
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
                            outputs=outputs, affine=(a, b))


def per_step_reference(sys, z0, steps, h):
    """Take one RK4 step at a time, checking every state as integrate_rk4 did
    before divergence was checked per block: the step map of an affine loop,
    the four stages of ``rhs`` otherwise.  Returns (last, diverged, states)."""
    if sys.affine is not None:
        phi, psi = _rk4_step_map(*sys.affine, h)

        def step(z):
            return phi @ z + psi
    else:
        def step(z):
            k1 = sys.rhs(0.0, z)
            k2 = sys.rhs(0.0, z + 0.5 * h * k1)
            k3 = sys.rhs(0.0, z + 0.5 * h * k2)
            k4 = sys.rhs(0.0, z + h * k3)
            return z + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)

    z = np.asarray(z0, dtype=float)
    states = [z]
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            z = step(z)
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


@pytest.mark.parametrize("h", [0.0, -H])
def test_non_positive_step_is_refused(h):
    with pytest.raises(ValueError, match="step size must be positive"):
        integrate_rk4(diagonal_loop([-1.0]), np.ones(1), 1.0, h)


@pytest.mark.parametrize("case", list(DIVERGENCE_CASES))
def test_block_divergence_check_truncates_at_the_per_step_state(case):
    loop, z0, expect_last = DIVERGENCE_CASES[case]
    # the step map, and the four-stage step integrate_rk4 takes on nonlinear loops
    for route, sys in (("step map", loop),
                       ("four stages", dataclasses.replace(loop, affine=None))):
        want_last, want_diverged, want_states = per_step_reference(sys, z0, STEPS, H)
        # the hand-built case really diverges where its name says
        assert want_last == (STEPS if expect_last is None else expect_last), route
        assert want_diverged == (expect_last is not None), route
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            traj = integrate_rk4(sys, z0, STEPS * H, H)
        assert len(traj.times) - 1 == want_last, route
        assert traj.diverged == want_diverged, route
        np.testing.assert_array_equal(traj.states, want_states, err_msg=route)
        np.testing.assert_array_equal(traj.y, want_states, err_msg=route)


def test_diverged_trajectory_keeps_only_its_own_states():
    # every row diverges at step 40 of 6000: the trajectory owns its 41 states,
    # not a view of the whole horizon's buffer
    loop, z0, step = growth_case(40)
    traj = integrate_rk4(loop, z0, 6000 * H, H)
    assert traj.diverged and len(traj.states) == step + 1
    assert traj.states.base is None and traj.states.nbytes == (step + 1) * z0.nbytes


# -- bundled scenario claims ------------------------------------------------------


def expected_checks(sc, plans):
    """(kind, variant) of every expectation, in report order: scenario-level
    checks are reported under the first variant."""
    return ([(spec["kind"], plans[0].name) for spec in sc.expect]
            + [(spec["kind"], plan.name) for plan in plans for spec in plan.expect])


# SHA-256 of the text report (``render``) of each bundled run, with the sweep
# where the golden traces have one: the spectrum, sweep and trace lines and
# every check's detail.
RUN_REPORT_SHA256 = {
    "equilibrium-necessity": "e5ec1639e8d6806114c3fedcfe4df2540393fb9152f20918b5537145e100d0ce",
    "no-hurwitz": "bab5865af8dc9b83f453821e60331d96ace63cd1f18f0c4831686df433af9648",
    "pd-vs-oss": "f0dbc4d3fa504c3fae285783b24fb250bfd144258f625100b9ced68616a9f058",
    "power-dapi": "03895ca29e221820c4db2005a2dd5f089c3142c11a68ae528ee683617752588b",
    "power-gb": "43d005b8dd890a85fbcc15a47d2b3f4a0f9decefe7b6b617e0f884225608a017",
    "power-novel": "2757752b3e91af6062ae14ad0e3bc79f0199003f3d686ae1011a6a234ea28eaf",
    "rfs-violation": "996fb4fa01c1880608ce0620382e1731feceddb25e735312730917fd627074a1",
    "tracking-sparse": "c00ab9aa30d31a6e6e2a29b6197a336e8d1eb533546223210942cd092f9b962e",
}


# SHA-256 of the text report of ``check_scenario`` on each bundled document:
# the spectrum info lines and every analysis check's detail.
CHECK_REPORT_SHA256 = {
    "equilibrium-necessity": "9841b5313ce48132b7c052ff1f8f43cc348b6bea7fb986462432774fa2a3ebd7",
    "no-hurwitz": "9e7af00f9dea4097944e715d3248b9f687810bb3059cb7f4fd1313584e997447",
    "pd-vs-oss": "97983208e8670da7d6ded04cd6b8289f2fcbd2b639be9d0e928c674e933badd3",
    "power-dapi": "7e1138d3c902d3b4d7772c3c2d9c123730c18eeeba59028ed05da091909a8070",
    "power-gb": "c4a41565557453fbd7fc643fd26d16435f1a003597e7957ca72ceba7c08293dd",
    "power-novel": "5784d3db59bfdc883ce0a52db1aef84af85b28501a1e222df552df27659dfd0a",
    "rfs-violation": "ddef9fbcb7867ebda38f32f380d38bfeb4d703a2f3800ae48813a9bd5aedfef0",
    "tracking-sparse": "815018f5ff66399e7232ecee4d659af77f353a8693f97edc38d14bb936240dd0",
}


def render_sha256(report) -> str:
    return hashlib.sha256(report.render().encode()).hexdigest()


@pytest.mark.parametrize("name", scenarios.BUNDLED_NAMES)
def test_bundled_check_report_is_pinned(name):
    report = scenarios.check_scenario(load(name))
    assert report.exit_code == 0, report.render()
    assert render_sha256(report) == CHECK_REPORT_SHA256[name]


@pytest.mark.parametrize("name", AFFINE_SCENARIOS)
def test_affine_scenario_run_passes_with_golden_traces(name, tmp_path):
    sc = load(name)
    report, _ = scenarios.run_scenario(sc, out_dir=tmp_path, sweep=name in SWEPT)
    assert report.exit_code == 0, report.render()
    assert [(r.kind, r.variant) for r in report.results] == expected_checks(sc, sc.variants)
    assert render_sha256(report) == RUN_REPORT_SHA256[name]
    traces = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
              for p in sorted(tmp_path.glob("*.csv"))}
    assert traces == GOLDEN[name]


def test_tracking_sparse_check_passes():
    sc = load("tracking-sparse")
    report = scenarios.check_scenario(sc)
    assert report.exit_code == 0, report.render()
    analysis = [(kind, variant) for kind, variant in expected_checks(sc, sc.variants)
                if not scenarios.CHECK_KINDS[kind].simulated]
    assert [(r.kind, r.variant) for r in report.results] == analysis


@pytest.mark.parametrize("variant", ["theta-sparse", "theta-tiny"])
def test_equilibrium_solve_with_finite_difference_jacobian(variant):
    # tracking-sparse's loop is not affine, so the Newton solve builds its
    # Jacobian by central differences; its equilibrium output is the oracle's
    sc = load("tracking-sparse")
    plan = sc.variant(variant)
    w = scenarios._Context(sc, plan).w
    sys = assemble(sc.plant, sc.plant.nominal, w, plan.om, plan.stabilizer)
    assert sys.affine is None
    z, resid = equilibrium_solve(sys, np.zeros(sys.n_state))
    assert resid <= 1e-10
    y = sys.outputs(z[None])[0][0]
    y_star = oracle_optimal_output(plan.program, eval_plant(sc.plant, sc.plant.nominal),
                                   w)["y_star"]
    assert np.linalg.norm(y - y_star) <= 1e-10 * (1.0 + np.linalg.norm(y_star))


def one_state_loop(rhs):
    """A hand-built nonlinear loop z_dot = rhs(z) of one state; the Newton
    solve reads no outputs."""
    return ClosedLoopSystem(n_state=1, rhs=lambda _t, z: rhs(z), outputs=None)


def test_equilibrium_solve_line_search_stalls():
    # z^2 + 1 has no root and its least residual is at z = 0: from z = 1e-7
    # the Newton step of -5e6 overshoots by more than 40 halvings can undo
    sys = one_state_loop(lambda z: z * z + 1.0)
    with pytest.raises(OssError, match="^equilibrium Newton line search stalled$"):
        equilibrium_solve(sys, [1e-7])


def test_equilibrium_solve_singular_jacobian():
    # z_dot = 1 does not depend on z: its Jacobian is zero and gives no Newton step
    sys = one_state_loop(np.ones_like)
    with pytest.raises(OssError, match="^equilibrium Jacobian is singular at tolerance$"):
        equilibrium_solve(sys, [0.0])


def test_equilibrium_solve_does_not_converge():
    # exp(z) has no root: each full Newton step, dz = -1, is accepted, and the
    # residual after max_iter of them is exp(-max_iter), above the tolerance
    sys = one_state_loop(np.exp)
    with pytest.raises(OssError, match="^equilibrium Newton did not converge in 5 iterations$"):
        equilibrium_solve(sys, [0.0], max_iter=5)
    z, resid = equilibrium_solve(one_state_loop(lambda z: np.exp(z) - 1.0), [1.0], max_iter=5)
    assert abs(z[0]) <= 1e-10 and resid <= 1e-10  # the same loop with a root converges


# SHA-256 of tracking-sparse's traces over a 2 s horizon (1000 nonlinear RK4
# steps per variant).  Kept out of golden_traces.json, whose keys are the
# affine scenarios.
TRACKING_SPARSE_SHORT = {
    "tracking-sparse--theta-sparse.csv":
        "d72c60ae117a3afabc652a838b9aae23b93bd071263634794488d36e61f3ab96",
    "tracking-sparse--theta-tiny.csv":
        "4fc99a50df638da31e716b0d660abe057e25b0b9c176afa4705439c17c31c3d6",
}


# SHA-256 of tracking-sparse's traces over its full 40 s horizon (20 000
# nonlinear RK4 steps per variant), as in perfbench/reference.json.
TRACKING_SPARSE_FULL = {
    "tracking-sparse--theta-sparse.csv":
        "d7974bc72270e84319b7d1a19cda2ab947183a222250ad2b85a7622db37e63a4",
    "tracking-sparse--theta-tiny.csv":
        "5b016163e309320edb7081db186873b5e425df13a7f963e8d7d664bd46d187c8",
}


def test_tracking_sparse_run_passes_with_full_horizon_traces(tmp_path):
    sc = load("tracking-sparse")
    report, _ = scenarios.run_scenario(sc, out_dir=tmp_path)
    assert report.exit_code == 0, report.render()
    # ros, then final_err and final_input_abs in each variant
    assert [(r.kind, r.variant) for r in report.results] == expected_checks(sc, sc.variants)
    assert render_sha256(report) == RUN_REPORT_SHA256["tracking-sparse"]
    traces = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
              for p in sorted(tmp_path.glob("*.csv"))}
    assert traces == TRACKING_SPARSE_FULL


def test_tracking_sparse_short_run_traces(tmp_path):
    # the claims need the full 40 s horizon; at 2 s only the traces are pinned
    scenarios.run_scenario(load("tracking-sparse"), out_dir=tmp_path, t_end=2.0)
    traces = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
              for p in sorted(tmp_path.glob("*.csv"))}
    assert traces == TRACKING_SPARSE_SHORT


def test_sweep_reuses_the_variant_trajectory(tmp_path, monkeypatch):
    written = []
    to_csv = Trajectory.to_csv

    def counting(traj, path):
        written.append(Path(path).name)
        return to_csv(traj, path)

    monkeypatch.setattr(Trajectory, "to_csv", counting)
    sc = load("power-dapi")
    _, trajectories = scenarios.run_scenario(sc, out_dir=tmp_path, t_end=1.0, sweep=True)
    assert trajectories["main--delta0"] is trajectories["main"]
    assert trajectories["main--delta1"] is not trajectories["main"]
    # the reused trajectory is formatted once; its second file is a copy
    files = sorted(p.name for p in tmp_path.glob("*.csv"))
    assert len(files) == len(trajectories) == len(written) + 1
    assert "power-dapi--main--delta0.csv" not in written
    assert ((tmp_path / "power-dapi--main--delta0.csv").read_bytes()
            == (tmp_path / "power-dapi--main.csv").read_bytes())


def test_check_builds_one_closed_loop_stack_per_delta_block(monkeypatch, delta_block):
    calls = []
    original = scenarios.assemble

    def counting(*args):
        calls.append(np.asarray(args[1]))
        return original(*args)

    monkeypatch.setattr(scenarios, "assemble", counting)
    sc = load("rfs-violation")
    assert scenarios.check_scenario(sc).exit_code == 0
    # the equilibrium_mismatch loop, then one loop of the stacked delta samples
    # for the spectra (the spectrum info lines and hurwitz_at_samples share it)
    samples = np.stack(sc.plant.delta_samples)
    assert [c.shape for c in calls] == [(1,), samples.shape]
    assert np.array_equal(calls[1], samples)
    # a sample set past one block takes one loop per DELTA_BLOCK samples
    doc = json.loads(scenarios.bundled_path("rfs-violation").read_text())
    drawn = np.linspace(-0.5, 0.5, 2 * delta_block + 4)
    doc["plant"]["delta_samples"] += [[float(v)] for v in drawn]
    dense = scenarios.load_scenario(doc)
    calls.clear()
    assert scenarios.check_scenario(dense).exit_code == 0
    assert [len(c) for c in calls if c.ndim == 2] == [delta_block, delta_block, 7]
    ctx = scenarios._Context(sc, sc.variants[0])
    d = sc.plant.delta_samples[1]
    first = ctx.spectrum(d)
    built = len(calls)
    assert ctx.spectrum(d) is first
    assert len(calls) == built


def test_duplicate_sweep_samples_share_one_trajectory(tmp_path, monkeypatch):
    # forty samples of four distinct values: each value is one row of the
    # sweep's stack, one Trajectory object shared by its samples, and its
    # CSV is formatted once and copied for the others
    written = []
    to_csv = Trajectory.to_csv

    def counting(traj, path):
        written.append(Path(path).name)
        return to_csv(traj, path)

    monkeypatch.setattr(Trajectory, "to_csv", counting)
    doc = json.loads(scenarios.bundled_path("rfs-violation").read_text())
    doc["plant"]["delta_samples"] = [[0.0], [0.5], [-0.5], [0.25]] * 10
    sc = scenarios.load_scenario(doc)
    _, trajectories = scenarios.run_scenario(sc, out_dir=tmp_path, t_end=0.05, sweep=True)
    first = {}
    for i, d in enumerate(sc.plant.delta_samples):
        traj = trajectories[f"main--delta{i}"]
        assert first.setdefault(d.tobytes(), traj) is traj
    # the variant's own delta, 0.5, is one of the four
    assert trajectories["main"] is first[np.array([0.5]).tobytes()]
    assert len(written) == len(first) == 4
    assert len(list(tmp_path.glob("*.csv"))) == len(trajectories) == 41


@pytest.mark.parametrize("shape", ["settles-mid-run", "never-settles", "settled-from-start"])
def test_settling_time_matches_the_suffix_scan(shape):
    # errors decay with seeded noise; the tolerance puts the last excursion
    # mid-run, after the final sample, or before the first
    rng = np.random.default_rng(41)
    tol = 1e-3
    for _ in range(20):
        k = int(rng.integers(2, 300))
        times = np.linspace(0.0, 1.0, k)
        err = np.exp(-8.0 * times) * rng.uniform(0.5, 1.5, k)
        if shape == "never-settles":
            err[-1] = 2.0 * tol
        elif shape == "settled-from-start":
            err *= 0.5 * tol
        else:
            err[int(rng.integers(0, k - 1))] = 2.0 * tol
            err[-1] = 0.5 * tol
        y = np.zeros((k, 2))
        y[:, 0] = err
        traj = trajectory_of_arrays(times, np.zeros((k, 0)), y, np.zeros((k, 0)),
                                    np.zeros((k, 0)), np.zeros(k))
        got = convergence_metrics(traj, np.zeros(2), tol)["settling_time"]
        want = settling_time_by_scan(times, err, tol)
        assert got == want
        if shape == "never-settles":
            assert got == np.inf
        elif shape == "settled-from-start":
            assert got == 0.0
        else:
            assert 0.0 < got <= 1.0
