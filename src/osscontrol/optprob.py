"""Convex steady-state programs and independent optimizer oracles.

The program minimized over the plant's optimization output y is

    minimize f0(y; w)
    s.t.     y is an achievable equilibrium output     (enforced by the plant)
             H y = L w                                 (engineering equalities)
             f_i(y; w) <= 0                            (engineering inequalities)

The oracle solves directly over equilibrium pairs (x_bar, u_bar), which
eliminates the unknown affine offset of the equilibrium-output set entirely.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import InfeasibleProblem, NonuniqueOptimizer
from .matlib import (_fd_jacobian, _mv, _row_matrix, _vdot, as_matrix, left_null_basis, null_basis,
                     solve_linear)
from .plant import PlantMatrices

ACTIVE_SET_CAP = 12


@dataclass(frozen=True)
class QPData:
    """Quadratic objective 0.5 y'My - y'Nw (+ c'y), M symmetric PSD."""

    m_cost: np.ndarray
    n_cost: np.ndarray
    c: np.ndarray | None = None

    def __post_init__(self):
        m = as_matrix(self.m_cost)
        p = m.shape[0]
        if m.shape != (p, p):
            raise ValueError(f"cost matrix must be square, got {m.shape}")
        if np.abs(m - m.T).max() > 1e-12 * max(1.0, np.abs(m).max()):
            raise ValueError("cost matrix must be symmetric")
        eigs = np.linalg.eigvalsh(0.5 * (m + m.T))
        if eigs.size and eigs.min() < -1e-10 * max(1.0, eigs.max()):
            raise ValueError("cost matrix must be positive semidefinite")
        n = as_matrix(self.n_cost).reshape(p, -1)
        c = np.zeros(p) if self.c is None else np.asarray(self.c, dtype=float).reshape(p)
        object.__setattr__(self, "m_cost", 0.5 * (m + m.T))
        object.__setattr__(self, "n_cost", n)
        object.__setattr__(self, "c", c)

    @property
    def p(self) -> int:
        return self.m_cost.shape[0]


@dataclass(frozen=True)
class KKTPoint:
    """Primal-dual point: output y with equilibrium-constraint, equality, and
    inequality multipliers."""

    y: np.ndarray
    lam: np.ndarray
    mu: np.ndarray
    nu: np.ndarray

    def __post_init__(self):
        for name in ("y", "lam", "mu", "nu"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float).ravel())
        if self.nu.size and self.nu.min() < -1e-10:
            raise ValueError("inequality multipliers must be nonnegative")


@dataclass(frozen=True)
class ConvexProgram:
    """Objective + engineering constraints of the steady-state program.

    ``objective`` is either QPData or a pair of callables ``f0(y, w)`` and
    ``grad_f0(y, w)``.  Both take one output y (p,) or a row stack (..., p)
    in one call, and every row of a stacked result is bit-identical to the
    call on that row alone: ``f0`` returns a float or an array of shape
    ``y.shape[:-1]``, ``grad_f0`` a float array of the gradients in the shape
    of y.
    ``h_eq``/``l_eq`` are the constant matrices of the equality constraints
    ``H y = L w``; the optimality model integrates their violation, so it
    must know them.
    """

    p: int
    n_w: int
    qp: QPData | None = None
    f0: Callable[[np.ndarray, np.ndarray], float] | None = None
    grad_f0: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    h_eq: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    l_eq: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    inequalities: Sequence[tuple[Callable, Callable]] = ()

    def __post_init__(self):
        if (self.qp is None) == (self.f0 is None):
            raise ValueError("supply exactly one of qp data or objective callables")
        if self.qp is not None and self.qp.p != self.p:
            raise ValueError(f"qp dimension {self.qp.p} != p={self.p}")
        if self.f0 is not None and self.grad_f0 is None:
            raise ValueError("callable objectives need a gradient callable")
        h = _row_matrix(self.h_eq, self.p)
        l = (as_matrix(self.l_eq).reshape(h.shape[0], -1) if np.size(self.l_eq)
             else np.zeros((h.shape[0], self.n_w)))
        if h.shape[0] and l.shape != (h.shape[0], self.n_w):
            raise ValueError(f"L must be {h.shape[0]}x{self.n_w}, got {l.shape}")
        object.__setattr__(self, "h_eq", h)
        object.__setattr__(self, "l_eq", l)
        object.__setattr__(self, "inequalities", tuple(self.inequalities))

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def from_qp(m_cost, n_cost, *, n_w: int, h_eq=None, l_eq=None, c=None,
                inequalities=()) -> "ConvexProgram":
        qp = QPData(m_cost=np.asarray(m_cost, dtype=float), n_cost=np.asarray(n_cost, dtype=float), c=c)
        h = np.zeros((0, qp.p)) if h_eq is None else h_eq
        l = np.zeros((0, n_w)) if l_eq is None else l_eq
        return ConvexProgram(p=qp.p, n_w=n_w, qp=qp, h_eq=h, l_eq=l, inequalities=inequalities)

    @staticmethod
    def from_callables(p: int, n_w: int, f0, grad_f0, *, h_eq=None, l_eq=None,
                       inequalities=()) -> "ConvexProgram":
        """A program with a smooth objective: ``f0`` and ``grad_f0`` each
        evaluate one output or a row stack of outputs (see the class)."""
        h = np.zeros((0, p)) if h_eq is None else h_eq
        l = np.zeros((0, n_w)) if l_eq is None else l_eq
        return ConvexProgram(p=p, n_w=n_w, f0=f0, grad_f0=grad_f0, h_eq=h, l_eq=l,
                             inequalities=inequalities)

    # -- basic queries ---------------------------------------------------------

    @property
    def is_qp(self) -> bool:
        return self.qp is not None

    @property
    def n_ic(self) -> int:
        return len(self.inequalities)

    @property
    def n_ec(self) -> int:
        return self.h_eq.shape[0]

    # -- evaluation -------------------------------------------------------------
    # Each takes one output y (p,) or a row stack (..., p); row i of a stacked
    # result is bit-identical to evaluating row i alone.  The objective
    # callables get the stack in one call; the inequalities are applied row
    # by row.

    def objective_value(self, y, w):
        """f0(y; w): a float for one output, an array of ``y.shape[:-1]`` for a stack."""
        y = np.asarray(y, dtype=float)
        w = np.asarray(w, dtype=float).ravel()
        if self.qp is not None:
            qp = self.qp
            val = (_vdot(_mv(qp.m_cost.T, 0.5 * y), y) - _vdot(_mv(qp.n_cost.T, y), w)
                   + _vdot(qp.c, y))
        else:
            val = np.asarray(self.f0(y, w), dtype=float)
        return float(val) if y.ndim == 1 else val

    def objective_grad(self, y, w) -> np.ndarray:
        if self.qp is None:
            return self.grad_f0(y, w)
        y = np.asarray(y, dtype=float)
        w = np.asarray(w, dtype=float).ravel()
        return _mv(self.qp.m_cost, y) - _mv(self.qp.n_cost, w) + self.qp.c

    def ineq_values(self, y, w) -> np.ndarray:
        return _each_row(lambda r, w: [float(f(r, w)) for f, _ in self.inequalities],
                         np.asarray(y, dtype=float), w, (self.n_ic,))

    def ineq_grads(self, y, w) -> np.ndarray:
        return _each_row(lambda r, w: [np.asarray(g(r, w), dtype=float).ravel()
                                       for _, g in self.inequalities],
                         np.asarray(y, dtype=float), w, (self.n_ic, self.p))

    def lagrangian_grad(self, y, w, nu) -> np.ndarray:
        """grad f0 + sum_i nu_i grad f_i, with nu (n_ic,) or (k, n_ic)."""
        g = self.objective_grad(y, w)
        nu = np.asarray(nu, dtype=float)
        if nu.shape[-1]:
            g = g + _mv(np.swapaxes(self.ineq_grads(y, w), -1, -2), nu)
        return g


def tracking_objective(p_m: int, r_idx: np.ndarray, theta, beta):
    """``(f0, grad_f0)`` of ``|y_m - r| + theta (1/beta) sum_i log cosh(beta y_i)``:
    the Euclidean tracking error of the first ``p_m`` outputs plus a smooth
    l1 surrogate on the rest.

    ``theta`` and ``beta`` are numbers, or (S, 1) columns of per-row values
    for outputs stacked (..., S, p); every operation is elementwise or per
    row, so row i equals the objective with row i's numbers.
    """
    log2 = np.log(2.0)

    def f0(y, w):
        """At one output (p,) a float, at a row stack (..., p) an array."""
        y = np.asarray(y, dtype=float)
        v = y[..., :p_m] - np.asarray(w, dtype=float).ravel()[r_idx]
        s = np.abs(beta * y[..., p_m:])
        # log cosh(s) = |s| + log1p(exp(-2|s|)) - log 2, overflow-safe
        l1 = np.sum(s + np.log1p(np.exp(-2.0 * s)) - log2, axis=-1, keepdims=True) / beta
        # sqrt(v @ v) per row is what np.linalg.norm computes for a real vector
        return np.sqrt(_vdot(v, v)) + (theta * l1)[..., 0]

    def grad_f0(y, w):
        """At one output (p,) or a row stack (..., p), gradients of y's shape;
        the tracking part is 0 where y_m = r."""
        y = np.asarray(y, dtype=float)
        v = y[..., :p_m] - np.asarray(w, dtype=float).ravel()[r_idx]
        nv = np.sqrt(_vdot(v, v))[..., None]
        g = np.zeros(y.shape)
        np.divide(v, nv, out=g[..., :p_m], where=nv > 0)
        np.multiply(theta, np.tanh(beta * y[..., p_m:]), out=g[..., p_m:])
        return g

    return f0, grad_f0


def _each_row(fn, y: np.ndarray, w, shape: tuple) -> np.ndarray:
    """``fn(y, w)`` as a float array of ``shape`` for one output y (p,), or
    stacked to (..., *shape) over the rows of y (..., p)."""
    if y.ndim == 1:
        return np.asarray(fn(y, w), dtype=float).reshape(shape)
    rows = y.reshape(-1, y.shape[-1])
    out = np.empty((len(rows),) + shape)
    for i, row in enumerate(rows):
        out[i] = np.asarray(fn(row, w), dtype=float).reshape(shape)
    return out.reshape(y.shape[:-1] + shape)


def check_gradients(prog: ConvexProgram, w, rng: random.Random) -> None:
    """Verify registered gradients against central finite differences at
    five standard-normal points drawn from ``rng``, to a relative 1e-5.

    Raises ValueError on mismatch; used at scenario load and in tests.  The
    points come from the standard library's generator: numpy.random costs
    about 12 ms and 6 MB to import, and nothing else at load needs it.
    """
    w = np.asarray(w, dtype=float).ravel()
    fns = []
    if not prog.is_qp:
        fns.append((prog.objective_value, prog.objective_grad))
    fns.extend(prog.inequalities)
    for f, g in fns:
        for _ in range(5):
            y = np.array([rng.gauss(0.0, 1.0) for _ in range(prog.p)])
            grad = np.asarray(g(y, w), dtype=float).ravel()
            step = 1e-6 * (1.0 + np.linalg.norm(y))
            fd = np.array([(float(f(y + e, w)) - float(f(y - e, w))) / (2 * step)
                           for e in step * np.eye(prog.p)])
            scale = max(1.0, np.linalg.norm(grad))
            if np.linalg.norm(grad - fd) > 1e-5 * scale:
                raise ValueError(
                    f"gradient check failed at y={y}: analytic {grad} vs fd {fd}"
                )


def unique_optimizer_check(m_cost, t0, tol: float = 1e-10) -> tuple[bool, float]:
    """Is t0' M t0 positive definite?  Its minimum eigenvalue is compared with
    ``tol * max(1, max |eig|)``; the margin is lambda_min over that threshold
    when it passes, else the threshold over lambda_min (``inf`` if
    lambda_min <= 0)."""
    m = as_matrix(m_cost)
    t = as_matrix(t0)
    if t.shape[1] == 0:
        return True, np.inf
    red = t.T @ m @ t
    eigs = np.linalg.eigvalsh(0.5 * (red + red.T))
    lam = float(eigs.min())
    thresh = tol * max(1.0, float(np.abs(eigs).max()))
    if lam > thresh:
        return True, lam / thresh
    return False, thresh / lam if lam > 0 else np.inf


# -- optimizer oracle --------------------------------------------------------------


def _lstsq_floor(a: np.ndarray, b: np.ndarray, floor: float) -> np.ndarray:
    """Min-norm least squares with an absolute singular-value floor.

    Plain lstsq truncates relative to the largest singular value, so a matrix
    that is pure cancellation roundoff (entries ~1e-16 of O(1) data) gets
    "solved" with enormous coefficients; the floor, set from the scale of the
    factors that produced ``a``, keeps such directions out.
    """
    if a.size == 0:
        return np.zeros(a.shape[1])
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    inv = np.where(s > floor, 1.0 / np.where(s > floor, s, 1.0), 0.0)
    return vt.T @ (inv * (u.T @ b))


def _newton_kkt(residual, x0, max_iter: int = 60):
    """Damped Newton on a square root-finding problem with FD Jacobian.

    Converged at a residual norm of 1e-12 (1 + its initial norm); exact in
    one or two steps for affine residuals; None when it fails to converge.
    """
    x = np.asarray(x0, dtype=float).copy()
    r = residual(x)
    scale = 1.0 + np.linalg.norm(r)
    done = 1e-12 * scale
    for _ in range(max_iter):
        nr = np.linalg.norm(r)
        if nr <= done:
            return x
        jac = _fd_jacobian(residual, x)
        try:
            dx, *_ = np.linalg.lstsq(jac, -r, rcond=None)
        except np.linalg.LinAlgError:
            return None
        t = 1.0
        for _ in range(30):
            xn = x + t * dx
            rn = residual(xn)
            if np.linalg.norm(rn) < nr * (1 - 1e-4 * t) or np.linalg.norm(rn) <= done:
                x, r = xn, rn
                break
            t *= 0.5
        else:
            return None
    return x if np.linalg.norm(residual(x)) <= 1e-9 * scale else None


def oracle_optimal_output(prog: ConvexProgram, pm: PlantMatrices, w) -> dict:
    """Ground-truth optimizer of the steady-state program for one plant realization.

    Solves over forced equilibria (x_bar, u_bar), so the equilibrium
    constraint holds by construction.  Equality-constrained QPs reduce to one
    linear KKT solve; inequality-constrained problems are handled by
    enumerating active sets (capped at 2**12 subsets) and keeping the
    KKT-consistent ones.  Returns y_star, the multipliers, and the
    equilibrium pair realizing it.

    Raises InfeasibleProblem when no forced equilibrium satisfies the
    constraints and NonuniqueOptimizer when two KKT-consistent optima differ
    by more than 1e-6.
    """
    w = np.asarray(w, dtype=float).ravel()
    if prog.n_ic > ACTIVE_SET_CAP:
        raise ValueError(f"active-set enumeration capped at {ACTIVE_SET_CAP} inequalities")

    ab = np.hstack([pm.a, pm.b])
    rhs = -pm.bw @ w
    z_p = solve_linear(ab, rhs)
    if np.linalg.norm(ab @ z_p - rhs) > 1e-8 * (1.0 + np.linalg.norm(rhs)):
        raise InfeasibleProblem("no forced equilibrium exists for this disturbance")
    nbasis = null_basis(ab)
    cd = np.hstack([pm.c, pm.d])
    y_p = cd @ z_p + pm.q @ w
    gm = cd @ nbasis
    k = gm.shape[1]
    hg = prog.h_eq @ gm
    r_h = prog.l_eq @ w - prog.h_eq @ y_p
    n_ec = prog.n_ec
    hg_floor = 1e-12 * (1.0 + np.linalg.norm(prog.h_eq)) * (1.0 + np.linalg.norm(gm))

    def optimum(v, mu, nu) -> dict:
        """The result at the optimal equilibrium coordinates v and multipliers mu, nu."""
        y_star = y_p + gm @ v
        z = z_p + nbasis @ v
        gperp = left_null_basis(gm).T
        lam = solve_linear(gperp.T, -(prog.lagrangian_grad(y_star, w, nu) + prog.h_eq.T @ mu))
        return {
            "y_star": y_star,
            "multipliers": KKTPoint(y=y_star, lam=lam, mu=mu, nu=nu),
            "x_bar": z[: pm.n],
            "u_bar": z[pm.n:],
            "gperp": gperp,
            "b": gperp @ y_star,
            "cost": prog.objective_value(y_star, w),
        }

    # feasibility of the equality constraints over the equilibrium set
    if n_ec:
        v_feas = _lstsq_floor(hg, r_h, hg_floor)
        if np.linalg.norm(hg @ v_feas - r_h) > 1e-8 * (1.0 + np.linalg.norm(r_h)):
            raise InfeasibleProblem("equality constraints unsatisfiable on the equilibrium set")

    if prog.is_qp and prog.n_ic == 0:
        # one linear KKT solve in (v, mu); classify flat/unbounded cost directly
        kkt_mat = np.block([
            [gm.T @ prog.qp.m_cost @ gm, hg.T],
            [hg, np.zeros((n_ec, n_ec))],
        ])
        rhs_kkt = np.concatenate([
            gm.T @ (prog.qp.n_cost @ w - prog.qp.c - prog.qp.m_cost @ y_p),
            r_h,
        ])
        kkt_floor = (1e-12 * (1.0 + np.linalg.norm(prog.qp.m_cost))
                     * (1.0 + np.linalg.norm(gm)) ** 2 + hg_floor)
        sol = _lstsq_floor(kkt_mat, rhs_kkt, kkt_floor)
        scale = 1.0 + np.linalg.norm(rhs_kkt)
        if np.linalg.norm(kkt_mat @ sol - rhs_kkt) > 1e-8 * scale:
            raise NonuniqueOptimizer(
                "no unique optimizer: the cost is unbounded along a feasible direction"
            )
        null = null_basis(kkt_mat)
        if null.shape[1]:
            moves = gm @ null[:k, :]
            if np.abs(moves).max() > 1e-8 * (1.0 + np.linalg.norm(sol)):
                raise NonuniqueOptimizer("optimizer set is a nontrivial affine set")
        return optimum(sol[:k], sol[k:], np.zeros(0))

    def solve_active_set(active: tuple[int, ...]):
        na = len(active)

        def residual(xvec):
            v = xvec[:k]
            mu = xvec[k:k + n_ec]
            nu_a = xvec[k + n_ec:]
            y = y_p + gm @ v
            nu_full = np.zeros(prog.n_ic)
            for idx, i in enumerate(active):
                nu_full[i] = nu_a[idx]
            stat = gm.T @ prog.lagrangian_grad(y, w, nu_full) + hg.T @ mu
            parts = [stat, hg @ v - r_h]
            if na:
                parts.append(np.array([float(prog.inequalities[i][0](y, w)) for i in active]))
            return np.concatenate(parts)

        sol = _newton_kkt(residual, np.zeros(k + n_ec + na))
        if sol is None:
            return None
        v = sol[:k]
        mu = sol[k:k + n_ec]
        nu_full = np.zeros(prog.n_ic)
        for idx, i in enumerate(active):
            nu_full[i] = sol[k + n_ec + idx]
        y = y_p + gm @ v
        fvals = prog.ineq_values(y, w)
        tol = 1e-8 * (1.0 + np.linalg.norm(y))
        if nu_full.size and nu_full.min() < -tol:
            return None
        inactive_ok = all(fvals[i] <= tol for i in range(prog.n_ic) if i not in active)
        if not inactive_ok:
            return None
        return v, mu, np.maximum(nu_full, 0.0), y

    candidates = []
    for size in range(prog.n_ic + 1):
        for active in itertools.combinations(range(prog.n_ic), size):
            got = solve_active_set(active)
            if got is not None:
                candidates.append(got)
    if not candidates:
        raise InfeasibleProblem("no KKT-consistent point found over the equilibrium set")

    distinct = [candidates[0]]
    for cand in candidates[1:]:
        if all(np.linalg.norm(cand[3] - d[3]) > 1e-6 for d in distinct):
            distinct.append(cand)
    if len(distinct) > 1:
        raise NonuniqueOptimizer(
            f"{len(distinct)} KKT-consistent optima differ by more than 1e-06"
        )

    return optimum(*distinct[0][:3])
