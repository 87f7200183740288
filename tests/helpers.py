"""Shared random-instance generators and reference formulas for tests.

Everything is driven by an explicit numpy Generator so test runs are
reproducible; "generate until valid" loops are bounded.  The reference
formulas (DC gain, KKT residual, the hand-written augmented plant of each
optimality-model variant, the optimality model with its empty products, the
settling-time scan, the CSV trace by ``np.savetxt``, the equilibrium
geometry, subspace checks and spectra one delta at a time, the swing plant
rebuilt block by block, the feasible-direction bases of the two distributed
power controllers) are independent routes that tests compare the
package against.  ``trajectory_of_arrays`` builds a trajectory from given
outputs, for the tests of what reads them.
"""

from __future__ import annotations

import numpy as np

from osscontrol import matlib
from osscontrol.matlib import (
    as_matrix,
    left_null_basis,
    null_basis,
    numerical_rank,
    range_basis,
)
from osscontrol.optprob import ConvexProgram, KKTPoint
from osscontrol.plant import PlantMatrices, UncertainPlant, eval_plant, fixed_plant, per_delta
from osscontrol.simulate import Trajectory
from osscontrol.stabilize import pbh_stabilizable
from osscontrol.subspaces import equilibrium_geometry


def random_plant(rng: np.random.Generator, n: int, m: int, p: int, n_w: int = 1,
                 stable: bool = False) -> PlantMatrices:
    """Random plant with (A, B) stabilizable (retries until the PBH test passes)."""
    for _ in range(50):
        a = rng.standard_normal((n, n))
        if stable:
            a = a - (np.linalg.eigvals(a).real.max() + 0.5) * np.eye(n)
        b = rng.standard_normal((n, m))
        if pbh_stabilizable(a, b):
            break
    else:
        raise RuntimeError("failed to generate a stabilizable pair")
    return PlantMatrices(
        a=a, b=b, bw=rng.standard_normal((n, n_w)),
        c=rng.standard_normal((p, n)), d=rng.standard_normal((p, m)),
        q=rng.standard_normal((p, n_w)),
    )


def affine_family(rng, base: PlantMatrices, shifts: dict, special,
                  draws: int | None = None) -> UncertainPlant:
    """``base`` plus delta_i times ``shifts[key][i]`` for each matrix key; the
    samples are the nominal zero, the ``special`` deltas and ``draws`` seeded
    draws (by default two blocks of ``matlib.DELTA_BLOCK``, as it is when
    called), shuffled so the special ones land inside the blocks."""
    draws = 2 * matlib.DELTA_BLOCK if draws is None else draws
    dim = len(next(iter(shifts.values())))

    def evaluate(delta):
        mats = {k: getattr(base, k) for k in ("a", "b", "bw", "c", "d", "q")}
        for key, terms in shifts.items():
            mats[key] = mats[key] + sum(float(delta[i]) * t for i, t in enumerate(terms))
        return PlantMatrices(**mats)

    drawn = list(rng.uniform(-0.8, 0.8, (draws, dim)))
    others = [np.asarray(s, dtype=float) for s in special] + drawn
    order = rng.permutation(len(others))
    return UncertainPlant(evaluate=per_delta(evaluate), delta_dim=dim,
                          delta_samples=[np.zeros(dim)] + [others[i] for i in order])


def singular_family(rng, draws: int | None = None) -> UncertainPlant:
    """A(delta) = A0 (I - delta_1 x x'/x'x) is singular at delta_1 = 1 and ill
    conditioned (cond >= 1e8) just below it; the last columns of B and D
    vanish at delta_2 = 1, where G loses rank."""
    base = random_plant(rng, 4, 2, 3)
    x = rng.standard_normal(4)
    proj = np.outer(x, x) / (x @ x)
    last = np.zeros((2, 2))
    last[1, 1] = 1.0
    shifts = {"a": [-base.a @ proj, np.zeros((4, 4))],
              "b": [np.zeros((4, 2)), -base.b @ last],
              "d": [np.zeros((3, 2)), -base.d @ last],
              "c": [0.3 * rng.standard_normal((3, 4)), np.zeros((3, 4))]}
    special = [(1.0, 0.0), (1.0 - 1e-10, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0 - 1e-10, 1.0)]
    return affine_family(rng, base, shifts, special, draws)


def scaled_family(rng, m: int = 2, p: int = 4, draws: int | None = None) -> UncertainPlant:
    """(s A, s B) keeps range G fixed: ROS and RFS hold, with roundoff sines."""
    base = random_plant(rng, 4, m, p)
    return affine_family(rng, base, {"a": [0.5 * base.a], "b": [0.5 * base.b]}, [], draws)


def random_qp_instance(rng: np.random.Generator, n_ec: int = 1, *, n=None, m=None,
                       p=None, n_w: int = 1, definite: bool = True):
    """Random equality-constrained QP over a random plant, with a nonredundant
    constraint stack.  Returns (plant, program, geometry)."""
    for _ in range(80):
        nn = int(n if n is not None else rng.integers(1, 7))
        mm = int(m if m is not None else rng.integers(1, 4))
        pp = int(p if p is not None else rng.integers(max(1, n_ec), 5))
        pm = random_plant(rng, nn, mm, pp, n_w)
        h = rng.standard_normal((n_ec, pp)) if n_ec else np.zeros((0, pp))
        geom = equilibrium_geometry(pm, h)
        stack = np.vstack([geom.gperp, h])
        if numerical_rank(stack) != stack.shape[0]:
            continue
        if definite:
            root = rng.standard_normal((pp, pp))
            m_cost = root.T @ root + 0.1 * np.eye(pp)
        else:
            root = rng.standard_normal((max(pp - 1, 1), pp))
            m_cost = root.T @ root
        prog = ConvexProgram.from_qp(m_cost, rng.standard_normal((pp, n_w)),
                                     n_w=n_w, h_eq=h,
                                     l_eq=rng.standard_normal((n_ec, n_w)))
        return pm, prog, geom
    raise RuntimeError("failed to generate a nonredundant QP instance")


def feasible_direction_matrix(geom, rng=None, columns=None) -> np.ndarray:
    """Matrix spanning the feasible directions; optionally re-mixed to a given
    column count (keeping the range)."""
    tb = geom.t_basis
    if columns is None:
        return tb
    if columns < tb.shape[1]:
        raise ValueError("cannot span the subspace with fewer columns")
    for _ in range(20):
        mix = rng.standard_normal((tb.shape[1], columns))
        if numerical_rank(mix) == tb.shape[1]:
            return tb @ mix
    raise RuntimeError("failed to draw a full-row-rank mixing matrix")


def uncertain_wrapper(pm: PlantMatrices) -> UncertainPlant:
    return fixed_plant(pm)


def output_subspace_matrix(geom) -> np.ndarray:
    """Full-column-rank matrix spanning the equilibrium-output subspace."""
    return range_basis(geom.g)


def dc_gain(pm: PlantMatrices) -> np.ndarray:
    """-C A^-1 B + D, defined when A is invertible."""
    return -pm.c @ np.linalg.solve(pm.a, pm.b) + pm.d


def kkt_residual(prog: ConvexProgram, plant_eq: dict, pt: KKTPoint, w) -> dict:
    """Residual blocks of the first-order optimality system at a candidate point.

    ``plant_eq`` supplies the equilibrium-constraint data: ``gperp`` (full row
    rank, annihilating the equilibrium-output subspace) and offset ``b``.
    """
    w = np.asarray(w, dtype=float).ravel()
    gperp = as_matrix(plant_eq["gperp"]).reshape(-1, prog.p)
    b = np.asarray(plant_eq["b"], dtype=float).ravel()
    y = pt.y
    stationarity = prog.lagrangian_grad(y, w, pt.nu) + gperp.T @ pt.lam + prog.h_eq.T @ pt.mu
    fvals = prog.ineq_values(y, w)
    primal = np.concatenate([
        gperp @ y - b,
        prog.h_eq @ y - prog.l_eq @ w,
        np.maximum(fvals, 0.0),
    ])
    complementarity = pt.nu * fvals
    return {"stationarity": stationarity, "primal": primal, "complementarity": complementarity}


def augmented_by_hand(pm: PlantMatrices, prog: ConvexProgram, variant: str,
                      basis) -> tuple[np.ndarray, np.ndarray]:
    """``(a, b)`` of the augmented plant, written out per optimality-model
    variant for an equality-constrained QP:

    - "rfs":   eta_dot = [H; T0' M] y - ...
    - "ros":   mu_dot = H y - ..., eta_dot = G0' (M y + H' mu) - ...
    - "rerfs": eta_dot = (H + T0' M) y - ...
    """
    mc, h, t, n = prog.qp.m_cost, prog.h_eq, as_matrix(basis), pm.n
    if variant == "ros":
        n_mu, n_eta = h.shape[0], t.shape[1]
        a = np.block([
            [pm.a, np.zeros((n, n_mu + n_eta))],
            [h @ pm.c, np.zeros((n_mu, n_mu + n_eta))],
            [t.T @ mc @ pm.c, t.T @ h.T, np.zeros((n_eta, n_eta))],
        ])
        return a, np.vstack([pm.b, h @ pm.d, t.T @ mc @ pm.d])
    if variant == "rfs":
        ce, de = np.vstack([h @ pm.c, t.T @ mc @ pm.c]), np.vstack([h @ pm.d, t.T @ mc @ pm.d])
    else:
        ce, de = (h + t.T @ mc) @ pm.c, (h + t.T @ mc) @ pm.d
    n_eta = ce.shape[0]
    a = np.block([[pm.a, np.zeros((n, n_eta))], [ce, np.zeros((n_eta, n_eta))]])
    return a, np.vstack([pm.b, de])


def bundled_qp_variants():
    """(scenario, variant plan) for every bundled variant whose optimality
    model is one of an equality-constrained QP."""
    from osscontrol import scenarios

    for name in scenarios.BUNDLED_NAMES:
        sc = scenarios.load_scenario(name)
        for plan in sc.variants:
            om = plan.om
            if om is not None and om.program.is_qp and not om.program.n_ic:
                yield sc, plan


def om_dynamics_by_hand(om, y, w, state) -> tuple[np.ndarray, np.ndarray]:
    """``(state_dot, eps)`` of an optimality model at one point, every product
    written out, the empty ones included: without equality rows ``H y - L w``
    and ``H' mu`` are products over an empty dimension (an empty vector and
    +0.0 entries), and ``[nu; mu]`` is always concatenated."""
    prog, basis = om.program, om.basis
    y, w, state = (np.asarray(a, dtype=float).ravel() for a in (y, w, state))
    nu, mu = state[:prog.n_ic], state[prog.n_ic:]
    grad = prog.lagrangian_grad(y, w, nu)
    nu_dot = np.maximum(nu + prog.ineq_values(y, w), 0.0) - nu if prog.n_ic else nu
    violation = prog.h_eq @ y - prog.l_eq @ w
    if om.variant == "rfs":
        return np.concatenate([nu_dot, mu]), np.concatenate([violation, basis.T @ grad])
    if om.variant == "ros":
        return np.concatenate([nu_dot, violation]), basis.T @ (grad + prog.h_eq.T @ mu)
    return np.concatenate([nu_dot, mu]), violation + basis.T @ grad


def assert_bits_equal(got, want, what):
    """Same shape, same values and same signs of zero."""
    assert got.shape == want.shape, what
    assert np.array_equal(got, want), what
    assert np.array_equal(np.signbit(got), np.signbit(want)), f"{what}: signed zeros"


def settling_time_by_scan(times, err, tol) -> float:
    """First time from which every later error is below ``tol``, by checking
    each suffix in turn; ``inf`` when the error never settles."""
    below = err < tol
    for i in range(len(below)):
        if below[i:].all():
            return float(times[i])
    return np.inf


def csv_by_savetxt(traj, path) -> None:
    """``traj.to_csv(path)`` as ``np.savetxt(fmt="%.15g")`` writes it: the
    reference of the chunked writer."""
    cols = [traj.times.reshape(-1, 1), traj.states, traj.u, traj.y, traj.eps,
            traj.cost.reshape(-1, 1)]
    data = np.hstack([c for c in cols if c.shape[1] > 0])
    names = (
        ["t"]
        + [f"x{i+1}" for i in range(traj.states.shape[1])]
        + [f"u{i+1}" for i in range(traj.u.shape[1])]
        + [f"y{i+1}" for i in range(traj.y.shape[1])]
        + [f"eps{i+1}" for i in range(traj.eps.shape[1])]
        + ["cost"]
    )
    with open(path, "w", newline="\n") as f:
        np.savetxt(f, data, fmt="%.15g", delimiter=",", header=",".join(names),
                   comments="", newline="\n")


def trajectory_of_arrays(times, states, y, u, eps, cost) -> Trajectory:
    """A Trajectory whose outputs at time i are row i of ``y``, ``u``,
    ``eps`` and ``cost``, given as arrays rather than by a loop.

    Its outputs map reads which rows of ``states`` it is given from their
    address: the states are held in a buffer one column wider, so that rows
    of zero width have distinct addresses too.
    """
    k, n = states.shape
    buffer = np.zeros((k, n + 1))
    buffer[:, :n] = states
    held = buffer[:, :n]
    start, stride = held.__array_interface__["data"][0], held.strides[0]

    def outputs(zs):
        lo, rest = divmod(zs.__array_interface__["data"][0] - start, stride)
        assert rest == 0 and zs.strides[0] == stride and 0 <= lo <= k - len(zs)
        return tuple(a[lo: lo + len(zs)] for a in (y, u, eps, cost))

    return Trajectory(times=times, states=held, outputs=outputs)


def geometry_by_sample(pm: PlantMatrices, h_eq=None) -> dict:
    """The equilibrium geometry of one realization, one matrix function call
    at a time: the reference of the delta-block computation.  Returns
    ``ndelta``, ``g``, ``gperp`` and the orthonormal bases ``g_range`` and
    ``t_basis``."""
    h = as_matrix(h_eq).reshape(-1, pm.p) if h_eq is not None and np.size(h_eq) else np.zeros((0, pm.p))
    if pm.n == 0:
        nd = np.eye(pm.m)
    else:
        try:
            cond = np.linalg.cond(pm.a)
        except np.linalg.LinAlgError:
            cond = np.inf
        if np.isfinite(cond) and cond < 1e8:
            nd = np.vstack([-np.linalg.solve(pm.a, pm.b), np.eye(pm.m)])
        else:
            nd = null_basis(np.hstack([pm.a, pm.b]))
    g = np.hstack([pm.c, pm.d]) @ nd
    gperp = left_null_basis(g).T if g.shape[1] else np.eye(pm.p)
    return {"ndelta": nd, "g": g, "gperp": gperp, "g_range": range_basis(g),
            "t_basis": null_basis(np.vstack([gperp, h]))}


def principal_sine(ref: np.ndarray, basis: np.ndarray) -> float:
    """Largest principal-angle sine between the ranges of two orthonormal
    bases, as ``matlib.subspace_equal`` computes it; 1 when their dimensions
    differ, 0 when both are empty."""
    if ref.shape[1] != basis.shape[1]:
        return 1.0
    if ref.shape[1] == 0:
        return 0.0
    return float(np.linalg.svd(basis - ref @ (ref.T @ basis), compute_uv=False)[0])


def robust_subspace_by_sample(up: UncertainPlant, h_eq, key: str, tol: float = 1e-8) -> dict:
    """``check_ros`` (key ``g_range``) or ``check_rfs`` (key ``t_basis``)
    decided one delta sample at a time: ``holds``, ``witness`` and the
    per-sample ``sines`` and ``matches`` against the nominal basis ``ref``."""
    bases = [geometry_by_sample(eval_plant(up, d), h_eq)[key] for d in up.delta_samples]
    ref = bases[0]
    sines = [principal_sine(ref, b) for b in bases[1:]]
    matches = [b.shape[1] == ref.shape[1] and sine <= tol for b, sine in zip(bases[1:], sines)]
    bad = [d for d, ok in zip(up.delta_samples[1:], matches) if not ok]
    return {"holds": not bad, "witness": (up.delta_samples[0], bad[0]) if bad else None,
            "sines": sines, "matches": matches, "ref": ref}


def spectrum_lines_by_sample(sc, plan) -> list:
    """``(delta, eigenvalues or the error message)`` for each delta sample of a
    scenario variant, each loop assembled at its delta alone."""
    from osscontrol.errors import OssError
    from osscontrol.scenarios import _Context
    from osscontrol.simulate import assemble

    w = _Context(sc, plan).w
    out = []
    for d in sc.plant.delta_samples:
        try:
            out.append((d, np.linalg.eigvals(assemble(sc.plant, d, w, plan.om,
                                                      plan.stabilizer).affine[0])))
        except (ValueError, OssError) as exc:
            out.append((d, str(exc)))
    return out


def swing_matrices_by_formula(net, delta) -> dict:
    """The swing plant's matrices at ``delta``, every block rebuilt with
    ``np.block``: the reference of ``power.build_swing_plant``."""
    n, nt = net.n, net.n_lines
    inc = net.incidence()
    m_inv = np.diag(1.0 / net.inertia)
    bsus = np.diag(net.susceptance)
    damp = np.diag((1.0 + float(delta[0])) * net.damping)
    a = np.block([[-m_inv @ damp, -m_inv @ inc], [bsus @ inc.T, np.zeros((nt, nt))]])
    b = np.vstack([m_inv, np.zeros((nt, n))])
    c = np.vstack([np.zeros((n, n + nt)), np.hstack([np.eye(n), np.zeros((n, nt))])])
    d = np.vstack([np.eye(n), np.zeros((n, n))])
    return {"a": a, "b": b, "bw": b.copy(), "c": c, "d": d, "q": np.zeros((2 * n, n))}


def rerfs_range_condition_by_sample(up: UncertainPlant, h_eq, t0) -> dict:
    """``subspaces.check_rerfs_range_condition`` decided one delta sample at a
    time, each G from ``equilibrium_geometry`` of the realization alone:
    ``holds``, the first failing delta as ``witness`` and the per-sample
    ``matches``."""
    from osscontrol.matlib import subspace_intersection
    from osscontrol.subspaces import _reduced_error_ranges

    t0 = as_matrix(t0)
    matches = []
    witness = None
    for delta in up.delta_samples:
        pm = eval_plant(up, delta)
        h = as_matrix(h_eq).reshape(-1, pm.p) if h_eq is not None and np.size(h_eq) else np.zeros((0, pm.p))
        if t0.shape[0] != pm.p:
            raise ValueError(f"t0 must have {pm.p} rows, got {t0.shape[0]}")
        ok = True
        if h.shape[0]:
            if t0.shape[1] != h.shape[0]:
                raise ValueError(
                    "the reduced-error range condition compares subspaces of the "
                    f"equality-constraint space: t0 needs {h.shape[0]} columns, got {t0.shape[1]}"
                )
            g = equilibrium_geometry(pm, h).g
            ok = not subspace_intersection(*_reduced_error_ranges(h, g, t0)).shape[1]
        matches.append(ok)
        if not ok and witness is None:
            witness = delta
    return {"holds": witness is None, "witness": witness, "matches": matches}


def dapi_basis_by_formula(net) -> np.ndarray:
    """[L'; 0]: the feasible directions of distributed-averaging PI over the
    communication Laplacian L, one column per bus (``power-dapi``'s
    ``om.basis``, a reduced-error model whose integrator gain is I / k)."""
    return np.vstack([net.laplacian.T, np.zeros((net.n, net.n))])


def two_integrator_basis_by_formula(net) -> np.ndarray:
    """[L[1:, :]'; 0]: the two-integrator controller's feasible directions,
    the Laplacian with its first row deleted (``power-novel``'s
    ``om.basis``).  Bus 0 integrates the weighted frequency c' omega, the
    others average marginal costs; the n - 1 columns are independent because
    the reduced Laplacian of a connected graph keeps rank n - 1."""
    return np.vstack([net.laplacian[1:, :].T, np.zeros((net.n, net.n - 1))])
