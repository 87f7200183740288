"""Closed-loop assembly, fixed-step integration, and convergence metrics.

The closed loop stacks plant state x, inequality-multiplier state nu,
equality-multiplier state mu (output-subspace variant only), and the
proxy-error integrators eta, in that order.  The control input is the
static feedback u = -(Kx x + Knu nu + Kmu mu + Keta eta) - Keps eps; when
Keps is nonzero the input appears on both sides through the plant
feedthrough, and the loop is solved exactly, which restricts proportional
proxy-error feedback to quadratic objectives (affine loop).

Integration is classical fixed-step RK4: deterministic, bit-stable for fixed
inputs, so golden traces are byte-reproducible.  For fully affine loops the
four stages collapse to a precomputed linear step map, which is the same
update in exact arithmetic, and divergence is checked once per block of
ROW_BLOCK steps; a block that may hold a diverged state is rescanned step by
step, so the truncation step is the one a per-step check would find.

A loop's ``outputs`` maps a (k, n_state) array of states to row-stacked
(y, u, eps, cost) arrays.  Affine loops evaluate it ROW_BLOCK rows at a time
with row-stacked matrix-vector products, which make the same BLAS call per
row as the single-state formulas, so the results are bit-identical to
evaluating each row on its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import OssError
from .omodels import OptimalityModel, om_dynamics
from .plant import PlantMatrices, UncertainPlant, eval_plant
from .stabilize import Stabilizer

DIVERGENCE_LIMIT = 1e12
# Rows per output block and steps per divergence check.  Outputs built over a
# whole trajectory at once need temporaries several times its size (peak
# memory of the bundled runs grew by a sixth); blocks keep them small.
ROW_BLOCK = 256


@dataclass(frozen=True)
class ClosedLoopSystem:
    """Assembled autonomous closed loop z_dot = rhs(t, z) with output maps.

    ``rhs`` takes one state.  ``outputs`` takes a (k, n_state) array of states
    and returns row-stacked ``(y, u, eps, cost)`` of shapes (k, p), (k, m),
    (k, eps_dim) and (k,); row i is bit-identical to evaluating the output
    formulas at state i alone.  ``affine`` holds (A_cl, b_cl) with
    rhs(z) = A_cl z + b_cl when the loop is affine.
    """

    n_state: int
    blocks: dict
    rhs: Callable[[float, np.ndarray], np.ndarray]
    outputs: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]
    m: int
    p: int
    eps_dim: int
    affine: tuple[np.ndarray, np.ndarray] | None = None

    def block(self, z: np.ndarray, name: str) -> np.ndarray:
        off, size = self.blocks[name]
        return z[off: off + size]


@dataclass
class Trajectory:
    """Uniform-grid closed-loop trace with per-time outputs."""

    times: np.ndarray
    states: np.ndarray
    y: np.ndarray
    u: np.ndarray
    eps: np.ndarray
    cost: np.ndarray
    diverged: bool = False

    def to_csv(self, path_or_file) -> None:
        """Write the trace as CSV: t, state, input, output, proxy error, cost.

        15 significant digits, comma separated, LF line endings.
        """
        cols = [self.times.reshape(-1, 1), self.states, self.u, self.y, self.eps,
                self.cost.reshape(-1, 1)]
        data = np.hstack([c for c in cols if c.shape[1] > 0])
        names = (
            ["t"]
            + [f"x{i+1}" for i in range(self.states.shape[1])]
            + [f"u{i+1}" for i in range(self.u.shape[1])]
            + [f"y{i+1}" for i in range(self.y.shape[1])]
            + [f"eps{i+1}" for i in range(self.eps.shape[1])]
            + ["cost"]
        )
        header = ",".join(names)
        if hasattr(path_or_file, "write"):
            np.savetxt(path_or_file, data, fmt="%.15g", delimiter=",",
                       header=header, comments="", newline="\n")
        else:
            with open(path_or_file, "w", newline="\n") as f:
                np.savetxt(f, data, fmt="%.15g", delimiter=",",
                           header=header, comments="", newline="\n")


def assemble(up: UncertainPlant, delta, w, om: OptimalityModel, stab: Stabilizer) -> ClosedLoopSystem:
    """Wire plant, optimality model, proxy-error integrators, and stabilizer."""
    pm = eval_plant(up, delta)
    prog = om.program
    if prog.p != pm.p:
        raise ValueError(
            f"program output dimension {prog.p} does not match plant output block ({pm.p})"
        )
    if prog.n_w != pm.n_w:
        raise ValueError(
            f"program disturbance dimension {prog.n_w} does not match plant ({pm.n_w})"
        )
    w = np.asarray(w, dtype=float).reshape(pm.n_w)
    n, m = pm.n, pm.m
    n_nu, n_mu, n_eta = om.n_ic, om.n_mu, om.eps_dim
    n_state = n + n_nu + n_mu + n_eta
    blocks = {
        "x": (0, n),
        "nu": (n, n_nu),
        "mu": (n + n_nu, n_mu),
        "eta": (n + n_nu + n_mu, n_eta),
    }
    k_full = np.hstack([
        stab.block("kx", m, n),
        stab.block("knu", m, n_nu),
        stab.block("kmu", m, n_mu),
        stab.block("keta", m, n_eta),
    ])
    keps = stab.block("keps", m, n_eta)
    affine_loop = prog.is_qp and n_nu == 0

    if np.any(keps):
        if not affine_loop:
            raise ValueError(
                "proportional proxy-error feedback (Keps != 0) needs a quadratic "
                "objective without inequalities so the input loop is affine"
            )
        # probe eps = E_y y + E_s (nu, mu) + e_w, exact for the affine model
        zero_state = np.zeros(om.state_dim)
        e_w = om_dynamics(om, np.zeros(pm.p), w, zero_state)[1]
        e_y = np.column_stack([
            om_dynamics(om, np.eye(pm.p)[:, i], w, zero_state)[1] - e_w
            for i in range(pm.p)
        ]) if pm.p else np.zeros((n_eta, 0))
        e_s = np.column_stack([
            om_dynamics(om, np.zeros(pm.p), w, np.eye(om.state_dim)[:, i])[1] - e_w
            for i in range(om.state_dim)
        ]) if om.state_dim else np.zeros((n_eta, 0))
        loop = np.eye(m) + keps @ e_y @ pm.d
        try:
            loop_inv = np.linalg.inv(loop)
        except np.linalg.LinAlgError as exc:
            raise ValueError("proxy-error feedthrough loop is singular") from exc
        c_z = np.zeros((pm.p, n_state))
        c_z[:, :n] = pm.c
        s_z = np.zeros((om.state_dim, n_state))
        s_z[:, n: n + om.state_dim] = np.eye(om.state_dim)
        u_gain = loop_inv @ (k_full + keps @ (e_y @ c_z + e_s @ s_z))
        u_offset = loop_inv @ (keps @ (e_y @ (pm.q @ w) + e_w))
    else:
        u_gain = k_full
        u_offset = np.zeros(m)

    def input_of(z: np.ndarray) -> np.ndarray:
        # + 0.0 normalizes negative zero so traces of resting loops read cleanly
        return -(u_gain @ z) - u_offset + 0.0

    def rhs(_t: float, z: np.ndarray) -> np.ndarray:
        x = z[:n]
        state = z[n: n + n_nu + n_mu]
        u = input_of(z)
        y = pm.c @ x + pm.d @ u + pm.q @ w
        state_dot, eps = om_dynamics(om, y, w, state)
        x_dot = pm.a @ x + pm.b @ u + pm.bw @ w
        return np.concatenate([x_dot, state_dot, eps])

    if affine_loop:
        outputs = _affine_outputs(pm, om, w, u_gain, u_offset)
        base = rhs(0.0, np.zeros(n_state))
        a_cl = np.column_stack([
            rhs(0.0, np.eye(n_state)[:, i]) - base for i in range(n_state)
        ]) if n_state else np.zeros((0, 0))
        affine = (a_cl, base)
    else:
        affine = None

        def outputs(zs: np.ndarray):
            k = zs.shape[0]
            ys, us, epss, costs = (np.empty((k, pm.p)), np.empty((k, m)),
                                   np.empty((k, n_eta)), np.empty(k))
            for i, z in enumerate(zs):
                u = input_of(z)
                y = pm.c @ z[:n] + pm.d @ u + pm.q @ w
                _, eps = om_dynamics(om, y, w, z[n: n + n_nu + n_mu])
                ys[i], us[i], epss[i], costs[i] = y, u, eps, prog.objective_value(y, w)
            return ys, us, epss, costs

    return ClosedLoopSystem(
        n_state=n_state, blocks=blocks, rhs=rhs, outputs=outputs,
        m=m, p=pm.p, eps_dim=n_eta, affine=affine,
    )


def _rows_mv(a: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """Row i is ``a @ zs[i]``: matmul makes the same BLAS call per row as for
    a single vector, so rows are bit-identical to it (``zs @ a.T`` is one GEMM
    with a different summation order, and is not)."""
    return np.matmul(a, zs[:, :, None])[:, :, 0]


def _rows_vm(zs: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Row i is ``zs[i] @ a``, bit-identical to the single-vector product."""
    return np.matmul(zs[:, None, :], a)[:, 0, :]


def _rows_dot(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Entry i is ``xs[i] @ ys[i]`` (or ``xs[i] @ ys`` for 1-D ys), bit-identical
    to the single-vector dot product."""
    return np.matmul(xs[:, None, :], ys[..., None])[:, 0, 0]


def _affine_outputs(pm: PlantMatrices, om: OptimalityModel, w: np.ndarray,
                    u_gain: np.ndarray, u_offset: np.ndarray):
    """Row-stacked outputs of an affine loop: a QP model without inequalities.

    Evaluates, ROW_BLOCK rows at a time, the formulas of ``assemble``'s input
    and output map, of ``om_dynamics`` and of ``ConvexProgram.objective_value``
    in the same operation order, so each row equals the per-state result.
    """
    n, m, n_mu, n_eta = pm.n, pm.m, om.n_mu, om.eps_dim
    prog = om.program
    qp = prog.qp
    qw, nw, lw = pm.q @ w, qp.n_cost @ w, prog.l_eq @ w

    def block(z: np.ndarray):
        u = -_rows_mv(u_gain, z) - u_offset + 0.0
        y = _rows_mv(pm.c, z[:, :n]) + _rows_mv(pm.d, u) + qw
        grad = _rows_mv(qp.m_cost, y) - nw + qp.c
        eq_violation = _rows_mv(prog.h_eq, y) - lw
        if om.variant == "rfs":
            eps = np.hstack([eq_violation, _rows_mv(om.basis.T, grad)])
        elif om.variant == "ros":
            mu = z[:, n: n + n_mu]
            eps = _rows_mv(om.basis.T, grad + _rows_mv(prog.h_eq.T, mu))
        else:
            eps = eq_violation + _rows_mv(om.basis.T, grad)
        cost = (_rows_dot(_rows_vm(0.5 * y, qp.m_cost), y)
                - _rows_dot(_rows_vm(y, qp.n_cost), w)
                + _rows_mv(qp.c[None, :], y)[:, 0])
        return y, u, eps, cost

    def outputs(zs: np.ndarray):
        k = zs.shape[0]
        out = (np.empty((k, pm.p)), np.empty((k, m)), np.empty((k, n_eta)), np.empty(k))
        for lo in range(0, k, ROW_BLOCK):
            for arr, part in zip(out, block(zs[lo: lo + ROW_BLOCK])):
                arr[lo: lo + ROW_BLOCK] = part
        return out

    return outputs


def _rk4_step_map(a_cl: np.ndarray, b_cl: np.ndarray, h: float):
    """Exact RK4 update matrices for an affine system: z+ = phi z + psi."""
    n = a_cl.shape[0]
    phi = np.eye(n)
    psi_mat = np.zeros((n, n))
    term = np.eye(n)
    for k in range(1, 5):
        term = term @ (h * a_cl) / k
        phi = phi + term
    # psi = (h I + h^2 A / 2 + h^3 A^2 / 6 + h^4 A^3 / 24) b
    term = h * np.eye(n)
    psi_mat = term.copy()
    for k in range(2, 5):
        term = term @ (h * a_cl) / k
        psi_mat = psi_mat + term
    return phi, psi_mat @ b_cl


def _diverged(z: np.ndarray) -> bool:
    return not np.isfinite(z).all() or np.linalg.norm(z) > DIVERGENCE_LIMIT


def integrate_rk4(sys: ClosedLoopSystem, z0, t_end: float, h: float) -> Trajectory:
    """Classical 4th-order fixed-step integration from z0 to t_end.

    Truncates with ``diverged=True`` at the first state that is not finite or
    whose norm passes 1e12.
    """
    if h <= 0:
        raise ValueError("step size must be positive")
    if t_end < h:
        raise ValueError("t_end must be at least one step")
    steps = int(round(t_end / h))
    z = np.asarray(z0, dtype=float).reshape(sys.n_state).copy()
    states = np.empty((steps + 1, sys.n_state))
    states[0] = z
    diverged = False
    last = steps
    if sys.affine is not None:
        phi, psi = _rk4_step_map(*sys.affine, h)
        # A block may run past the divergence step into overflow; those
        # states are discarded, so their floating-point warnings are too.
        with np.errstate(over="ignore", invalid="ignore"):
            for lo in range(0, steps, ROW_BLOCK):
                hi = min(lo + ROW_BLOCK, steps)
                for k in range(lo, hi):
                    z = phi @ z + psi
                    states[k + 1] = z
                block = states[lo + 1: hi + 1]
                # A state _diverged flags has a nan or inf sum of squares, or
                # one above LIMIT**2, four times this bound; a block passing
                # the bound therefore holds none and needs no exact scan.
                if (np.einsum("ij,ij->i", block, block) <= (0.5 * DIVERGENCE_LIMIT) ** 2).all():
                    continue
                hit = next((k for k in range(lo + 1, hi + 1) if _diverged(states[k])), None)
                if hit is not None:
                    diverged, last = True, hit
                    break
    else:
        for k in range(steps):
            k1 = sys.rhs(0.0, z)
            k2 = sys.rhs(0.0, z + 0.5 * h * k1)
            k3 = sys.rhs(0.0, z + 0.5 * h * k2)
            k4 = sys.rhs(0.0, z + h * k3)
            z = z + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            states[k + 1] = z
            if _diverged(z):
                diverged, last = True, k + 1
                break
    states = states[: last + 1]
    times = np.arange(last + 1) * h
    ys, us, epss, costs = sys.outputs(states)
    return Trajectory(times=times, states=states, y=ys, u=us, eps=epss,
                      cost=costs, diverged=diverged)


def equilibrium_solve(sys: ClosedLoopSystem, z_guess, tol: float = 1e-10,
                      max_iter: int = 100) -> tuple[np.ndarray, float]:
    """Damped Newton solve of rhs(z) = 0 near the guess.

    Uses the exact closed-loop matrix as the Jacobian for affine loops and a
    finite-difference Jacobian otherwise.  Raises OssError on a singular
    Jacobian or when 100 iterations do not reach the residual tolerance.
    """
    z = np.asarray(z_guess, dtype=float).reshape(sys.n_state).copy()
    r = sys.rhs(0.0, z)
    for _ in range(max_iter):
        nr = np.linalg.norm(r)
        if nr <= tol:
            return z, float(nr)
        if sys.affine is not None:
            jac = sys.affine[0]
        else:
            jac = np.zeros((sys.n_state, sys.n_state))
            for j in range(sys.n_state):
                step = 1e-7 * (1.0 + abs(z[j]))
                e = np.zeros(sys.n_state)
                e[j] = step
                jac[:, j] = (sys.rhs(0.0, z + e) - sys.rhs(0.0, z - e)) / (2 * step)
        s = np.linalg.svd(jac, compute_uv=False)
        if s[-1] <= 1e-12 * max(1.0, s[0]):
            raise OssError("equilibrium Jacobian is singular at tolerance")
        dz = np.linalg.solve(jac, -r)
        t = 1.0
        for _ in range(40):
            zn = z + t * dz
            rn = sys.rhs(0.0, zn)
            if np.linalg.norm(rn) < nr or np.linalg.norm(rn) <= tol:
                z, r = zn, rn
                break
            t *= 0.5
        else:
            raise OssError("equilibrium Newton line search stalled")
    nr = float(np.linalg.norm(sys.rhs(0.0, z)))
    if nr <= tol:
        return z, nr
    raise OssError(f"equilibrium Newton did not converge in {max_iter} iterations")


def convergence_metrics(traj: Trajectory, y_star, settle_tol: float = 1e-3) -> dict:
    """Quantify convergence of the optimization output to a target.

    extrema_count counts strict local extrema of the cost after a transient
    guard of 5% of the horizon; comparisons use a prominence floor of 1e-9
    of the cost range so floating-point wiggle at a plateau is not counted.
    """
    ys = np.asarray(y_star, dtype=float).ravel()
    err = np.linalg.norm(traj.y - ys, axis=1)
    final_err = float(err[-1])
    below = err < settle_tol
    settling = np.inf
    for i in range(len(below)):
        if below[i:].all():
            settling = float(traj.times[i])
            break
    ise = float(np.trapezoid(err ** 2, traj.times))
    t_end = traj.times[-1] if len(traj.times) else 0.0
    guard = traj.times > 0.05 * t_end
    c = traj.cost[guard]
    extrema = 0
    if c.size >= 3:
        floor = 1e-9 * max(float(c.max() - c.min()), 1e-300)
        rising = c[1:-1] - c[:-2]
        falling = c[1:-1] - c[2:]
        extrema = int(np.count_nonzero(
            ((rising > floor) & (falling > floor)) | ((rising < -floor) & (falling < -floor))
        ))
    return {
        "final_err": final_err,
        "settling_time": settling,
        "ise": ise,
        "extrema_count": extrema,
    }
