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
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import InfeasibleProblem, NonuniqueOptimizer
from .matlib import _mv, _vdot, as_matrix, left_null_basis, null_basis, rank_decision, solve_linear
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

    ``objective`` is either QPData or a pair of callables
    ``(f0(y, w) -> float, grad_f0(y, w) -> vector)``.  ``h_eq``/``l_eq`` may
    be callables of delta for uncertain equality constraints; resolve them
    with :meth:`at_delta` before numeric use.
    """

    p: int
    n_w: int
    qp: QPData | None = None
    f0: Callable[[np.ndarray, np.ndarray], float] | None = None
    grad_f0: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    h_eq: np.ndarray | Callable[[np.ndarray], np.ndarray] = field(default_factory=lambda: np.zeros((0, 0)))
    l_eq: np.ndarray | Callable[[np.ndarray], np.ndarray] = field(default_factory=lambda: np.zeros((0, 0)))
    inequalities: Sequence[tuple[Callable, Callable]] = ()

    def __post_init__(self):
        if (self.qp is None) == (self.f0 is None):
            raise ValueError("supply exactly one of qp data or objective callables")
        if self.qp is not None and self.qp.p != self.p:
            raise ValueError(f"qp dimension {self.qp.p} != p={self.p}")
        if self.f0 is not None and self.grad_f0 is None:
            raise ValueError("callable objectives need a gradient callable")
        if not callable(self.h_eq):
            h = as_matrix(self.h_eq).reshape(-1, self.p) if np.size(self.h_eq) else np.zeros((0, self.p))
            l = as_matrix(self.l_eq).reshape(h.shape[0], -1) if np.size(self.l_eq) else np.zeros((h.shape[0], self.n_w))
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
        h = np.zeros((0, p)) if h_eq is None else h_eq
        l = np.zeros((0, n_w)) if l_eq is None else l_eq
        return ConvexProgram(p=p, n_w=n_w, f0=f0, grad_f0=grad_f0, h_eq=h, l_eq=l,
                             inequalities=inequalities)

    # -- basic queries ---------------------------------------------------------

    @property
    def is_qp(self) -> bool:
        return self.qp is not None

    @property
    def has_uncertain_equalities(self) -> bool:
        return callable(self.h_eq)

    @property
    def n_ic(self) -> int:
        return len(self.inequalities)

    @property
    def n_ec(self) -> int:
        if self.has_uncertain_equalities:
            raise ValueError("equality constraints are delta-dependent; resolve with at_delta")
        return self.h_eq.shape[0]

    def at_delta(self, delta) -> "ConvexProgram":
        """Resolve delta-dependent equality constraints to concrete matrices."""
        if not self.has_uncertain_equalities:
            return self
        d = np.asarray(delta, dtype=float).ravel()
        return ConvexProgram(p=self.p, n_w=self.n_w, qp=self.qp, f0=self.f0,
                             grad_f0=self.grad_f0, h_eq=np.asarray(self.h_eq(d), dtype=float),
                             l_eq=np.asarray(self.l_eq(d), dtype=float),
                             inequalities=self.inequalities)

    # -- evaluation -------------------------------------------------------------
    # Each takes one output y (p,) or a row stack (k, p); row i of a stacked
    # result is bit-identical to evaluating row i alone.  Callables are
    # applied row by row.

    def objective_value(self, y, w):
        """f0(y; w): a float for one output, a (k,) array for a stack."""
        y = np.asarray(y, dtype=float)
        w = np.asarray(w, dtype=float).ravel()
        if self.qp is not None:
            qp = self.qp
            val = (_vdot(_mv(qp.m_cost.T, 0.5 * y), y) - _vdot(_mv(qp.n_cost.T, y), w)
                   + _vdot(qp.c, y))
        else:
            val = _each_row(self.f0, y, w, ())
        return float(val) if y.ndim == 1 else val

    def objective_grad(self, y, w) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        w = np.asarray(w, dtype=float).ravel()
        if self.qp is not None:
            return _mv(self.qp.m_cost, y) - _mv(self.qp.n_cost, w) + self.qp.c
        return _each_row(self.grad_f0, y, w, (self.p,))

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


def _each_row(fn, y: np.ndarray, w, shape: tuple) -> np.ndarray:
    """``fn(y, w)`` as a float array of ``shape`` for one output y (p,), or
    stacked to (k, *shape) over the rows of y (k, p)."""
    if y.ndim == 1:
        return np.asarray(fn(y, w), dtype=float).reshape(shape)
    out = np.empty((len(y),) + shape)
    for i, row in enumerate(y):
        out[i] = np.asarray(fn(row, w), dtype=float).reshape(shape)
    return out


def check_gradients(prog: ConvexProgram, w, rng: np.random.Generator,
                    n_points: int = 5, rel_tol: float = 1e-5) -> None:
    """Verify registered gradients against central finite differences.

    Raises ValueError on mismatch; used at scenario load and in tests.
    """
    w = np.asarray(w, dtype=float).ravel()
    fns = []
    if not prog.is_qp:
        fns.append((prog.objective_value, prog.objective_grad))
    fns.extend(prog.inequalities)
    for f, g in fns:
        for _ in range(n_points):
            y = rng.standard_normal(prog.p)
            grad = np.asarray(g(y, w), dtype=float).ravel()
            fd = np.zeros(prog.p)
            step = 1e-6 * (1.0 + np.linalg.norm(y))
            for j in range(prog.p):
                e = np.zeros(prog.p)
                e[j] = step
                fd[j] = (float(f(y + e, w)) - float(f(y - e, w))) / (2 * step)
            scale = max(1.0, np.linalg.norm(grad))
            if np.linalg.norm(grad - fd) > rel_tol * scale:
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


def nonredundant_check(gperp, h_eq, tol: float = 1e-10) -> tuple[bool, float]:
    """Does the stacked constraint matrix [gperp; H] have full row rank?
    Returns the decision and its :func:`rank_decision` margin."""
    g = as_matrix(gperp)
    h = as_matrix(h_eq).reshape(-1, g.shape[1]) if np.size(h_eq) else np.zeros((0, g.shape[1]))
    stack = np.vstack([g, h])
    return rank_decision(stack, stack.shape[0], tol)


# -- smooth norms ----------------------------------------------------------------


def smooth_norm(kind: str, y, beta: float = 20.0) -> tuple[float, np.ndarray]:
    """Differentiable norms and norm surrogates: value and gradient at y.

    - "l2": Euclidean norm, gradient guarded to 0 at the origin.
    - "l1_logcosh": (1/beta) sum log cosh(beta y_i), a smooth |.|_1 surrogate.
    - "linf_logsumexp": (1/beta) log sum_i (e^{beta y_i} + e^{-beta y_i})
      - (1/beta) log(2p), a smooth max-abs surrogate (zero at the origin).
    """
    y = np.asarray(y, dtype=float).ravel()
    if kind == "l2":
        nrm = float(np.linalg.norm(y))
        grad = y / nrm if nrm > 0 else np.zeros_like(y)
        return nrm, grad
    if beta <= 0:
        raise ValueError("beta must be positive")
    if kind == "l1_logcosh":
        s = beta * y
        # log cosh(s) = |s| + log1p(exp(-2|s|)) - log 2, overflow-safe
        val = float(np.sum(np.abs(s) + np.log1p(np.exp(-2.0 * np.abs(s))) - np.log(2.0)) / beta)
        return val, np.tanh(s)
    if kind == "linf_logsumexp":
        from scipy.special import logsumexp

        s = beta * y
        z = np.concatenate([s, -s])
        lse = float(logsumexp(z))
        val = (lse - np.log(2.0 * y.size)) / beta
        soft = np.exp(z - lse)
        grad = soft[: y.size] - soft[y.size:]
        return val, grad
    raise ValueError(f"unknown smooth norm kind {kind!r}")


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


def _newton_kkt(residual, x0, max_iter: int = 60, tol: float = 1e-12):
    """Damped Newton on a square root-finding problem with FD Jacobian.

    Exact in one or two steps for affine residuals; returns None when it
    fails to converge.
    """
    x = np.asarray(x0, dtype=float).copy()
    r = residual(x)
    scale = 1.0 + np.linalg.norm(r)
    for _ in range(max_iter):
        nr = np.linalg.norm(r)
        if nr <= tol * scale:
            return x
        n = x.size
        jac = np.zeros((r.size, n))
        for j in range(n):
            step = 1e-7 * (1.0 + abs(x[j]))
            e = np.zeros(n)
            e[j] = step
            jac[:, j] = (residual(x + e) - residual(x - e)) / (2 * step)
        try:
            dx, *_ = np.linalg.lstsq(jac, -r, rcond=None)
        except np.linalg.LinAlgError:
            return None
        t = 1.0
        for _ in range(30):
            xn = x + t * dx
            rn = residual(xn)
            if np.linalg.norm(rn) < nr * (1 - 1e-4 * t) or np.linalg.norm(rn) <= tol * scale:
                x, r = xn, rn
                break
            t *= 0.5
        else:
            return None
    return x if np.linalg.norm(residual(x)) <= 1e-9 * scale else None


def _reduced_solve_scipy(prog, w, y_p, gm, hg, r_h):
    """Robust fallback: minimize over the equality-feasible slice with scipy."""
    from scipy.optimize import minimize

    z_basis = null_basis(hg).basis if hg.shape[0] else np.eye(gm.shape[1])
    v0 = solve_linear(hg, r_h) if hg.shape[0] else np.zeros(gm.shape[1])

    def fun(t):
        v = v0 + z_basis @ t
        return prog.objective_value(y_p + gm @ v, w)

    def jac(t):
        v = v0 + z_basis @ t
        return z_basis.T @ (gm.T @ prog.objective_grad(y_p + gm @ v, w))

    res = minimize(fun, np.zeros(z_basis.shape[1]), jac=jac, method="BFGS",
                   options={"gtol": 1e-12, "maxiter": 2000})
    return v0 + z_basis @ res.x


def oracle_optimal_output(prog: ConvexProgram, pm: PlantMatrices, w,
                          y_tol: float = 1e-6) -> dict:
    """Ground-truth optimizer of the steady-state program for one plant realization.

    Solves over forced equilibria (x_bar, u_bar), so the equilibrium
    constraint holds by construction.  Equality-constrained QPs reduce to one
    linear KKT solve; inequality-constrained problems are handled by
    enumerating active sets (capped at 2**12 subsets) and keeping the
    KKT-consistent ones.  Returns y_star, the multipliers, and the
    equilibrium pair realizing it.

    Raises InfeasibleProblem when no forced equilibrium satisfies the
    constraints and NonuniqueOptimizer when two KKT-consistent optima differ
    by more than ``y_tol``.
    """
    w = np.asarray(w, dtype=float).ravel()
    if callable(prog.h_eq):
        raise ValueError("resolve delta-dependent constraints with at_delta first")
    if prog.n_ic > ACTIVE_SET_CAP:
        raise ValueError(f"active-set enumeration capped at {ACTIVE_SET_CAP} inequalities")

    ab = np.hstack([pm.a, pm.b])
    rhs = -pm.bw @ w
    z_p = solve_linear(ab, rhs)
    if np.linalg.norm(ab @ z_p - rhs) > 1e-8 * (1.0 + np.linalg.norm(rhs)):
        raise InfeasibleProblem("no forced equilibrium exists for this disturbance")
    nbasis = null_basis(ab).basis
    cd = np.hstack([pm.c, pm.d])
    y_p = cd @ z_p + pm.q @ w
    gm = cd @ nbasis
    k = gm.shape[1]
    hg = prog.h_eq @ gm
    r_h = prog.l_eq @ w - prog.h_eq @ y_p
    n_ec = prog.n_ec
    hg_floor = 1e-12 * (1.0 + np.linalg.norm(prog.h_eq)) * (1.0 + np.linalg.norm(gm))

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
        null = null_basis(kkt_mat).basis
        if null.shape[1]:
            moves = gm @ null[:k, :]
            if np.abs(moves).max() > 1e-8 * (1.0 + np.linalg.norm(sol)):
                raise NonuniqueOptimizer("optimizer set is a nontrivial affine set")
        v, mu = sol[:k], sol[k:]
        y_star = y_p + gm @ v
        z = z_p + nbasis @ v
        gperp = left_null_basis(gm).basis.T
        lam = solve_linear(gperp.T, -(prog.lagrangian_grad(y_star, w, np.zeros(0))
                                      + prog.h_eq.T @ mu))
        pt = KKTPoint(y=y_star, lam=lam, mu=mu, nu=np.zeros(0))
        return {
            "y_star": y_star,
            "multipliers": pt,
            "x_bar": z[: pm.n],
            "u_bar": z[pm.n:],
            "gperp": gperp,
            "b": gperp @ y_star,
            "cost": prog.objective_value(y_star, w),
        }

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

        x0 = np.zeros(k + n_ec + na)
        sol = _newton_kkt(residual, x0)
        if sol is None and not prog.is_qp and na == 0:
            v_guess = _reduced_solve_scipy(prog, w, y_p, gm, hg, r_h)
            x0 = np.concatenate([v_guess, np.zeros(n_ec)])
            sol = _newton_kkt(residual, x0)
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
        if all(np.linalg.norm(cand[3] - d[3]) > y_tol for d in distinct):
            distinct.append(cand)
    if len(distinct) > 1:
        raise NonuniqueOptimizer(
            f"{len(distinct)} KKT-consistent optima differ by more than {y_tol}"
        )

    v, mu, nu, y_star = distinct[0]
    z = z_p + nbasis @ v
    gperp = left_null_basis(gm).basis.T
    lam = solve_linear(gperp.T, -(prog.lagrangian_grad(y_star, w, nu) + prog.h_eq.T @ mu))
    pt = KKTPoint(y=y_star, lam=lam, mu=mu, nu=nu)
    return {
        "y_star": y_star,
        "multipliers": pt,
        "x_bar": z[: pm.n],
        "u_bar": z[pm.n:],
        "gperp": gperp,
        "b": gperp @ y_star,
        "cost": prog.objective_value(y_star, w),
    }
