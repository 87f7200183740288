"""Optimality models: dynamic filters whose zeroed output certifies optimality.

Each model watches the optimization output y (through the measurements) and
produces a proxy error eps; holding the filter at equilibrium with eps = 0
forces the plant's steady-state output to the program's optimizer.  Three
variants are provided, differing in which fixed subspace matrix they need:

- "rfs":   needs t0 spanning the feasible directions null [gperp(delta); H];
           eps stacks the equality violation with the projected gradient.
- "ros":   needs g0 spanning the equilibrium-output subspace range G(delta);
           carries an extra integrator state mu for the equality multipliers.
- "rerfs": reduced-error variant of "rfs" with t0 of exactly n_ec columns;
           eps adds the projected gradient onto the equality violation.

Inequality constraints enter through a multiplier state nu driven by a
complementarity function phi(alpha, beta) whose zeros encode
alpha >= 0, beta <= 0, alpha'beta = 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .matlib import as_matrix
from .optprob import ConvexProgram, oracle_optimal_output
from .plant import UncertainPlant, eval_plant


@dataclass(frozen=True)
class PhiNu:
    """Complementarity function for inequality-multiplier dynamics."""

    kind: str
    evaluator: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def __call__(self, alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
        return self.evaluator(np.asarray(alpha, dtype=float), np.asarray(beta, dtype=float))


def phi_projection() -> PhiNu:
    """max(alpha + beta, 0) - alpha: globally Lipschitz, simulation-friendly."""
    return PhiNu("projection_max", lambda a, b: np.maximum(a + b, 0.0) - a)


def phi_saddle() -> PhiNu:
    """beta_i where alpha_i > 0, max(0, beta_i) otherwise (discontinuous)."""

    def f(a, b):
        return np.where(a > 0.0, b, np.maximum(0.0, b))

    return PhiNu("saddle_point", f)


@dataclass(frozen=True)
class OptimalityModel:
    """One of the three filter variants with its constant matrices and state layout.

    State is the flat vector [nu; mu]; mu is present only for "ros".
    """

    variant: str
    basis: np.ndarray
    program: ConvexProgram
    phi: PhiNu = field(default_factory=phi_projection)

    def __post_init__(self):
        if self.variant not in ("rfs", "ros", "rerfs"):
            raise ValueError(f"unknown optimality-model variant {self.variant!r}")
        b = as_matrix(self.basis)
        if b.shape[0] != self.program.p:
            raise ValueError(
                f"subspace matrix must have {self.program.p} rows, got {b.shape[0]}"
            )
        if self.program.has_uncertain_equalities:
            raise ValueError("resolve delta-dependent equality constraints before building")
        if self.variant == "rerfs" and b.shape[1] != self.program.n_ec:
            raise ValueError(
                "reduced-error models need the subspace matrix to have exactly one "
                f"column per equality constraint ({self.program.n_ec}), got {b.shape[1]}"
            )
        object.__setattr__(self, "basis", b)

    @property
    def n_ic(self) -> int:
        return self.program.n_ic

    @property
    def n_ec(self) -> int:
        return self.program.n_ec

    @property
    def n_mu(self) -> int:
        return self.n_ec if self.variant == "ros" else 0

    @property
    def state_dim(self) -> int:
        return self.n_ic + self.n_mu

    @property
    def eps_dim(self) -> int:
        if self.variant == "rfs":
            return self.n_ec + self.basis.shape[1]
        if self.variant == "ros":
            return self.basis.shape[1]
        return self.n_ec

    def split_state(self, state: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        state = np.asarray(state, dtype=float).ravel()
        if state.size != self.state_dim:
            raise ValueError(f"state must have {self.state_dim} entries, got {state.size}")
        return state[: self.n_ic], state[self.n_ic:]


def om_dynamics(om: OptimalityModel, y, w, state) -> tuple[np.ndarray, np.ndarray]:
    """Filter state derivative and proxy error at (y, w, state).

    Returns ``(state_dot, eps)`` with ``state_dot`` in the flat [nu; mu]
    layout of the model.
    """
    y = np.asarray(y, dtype=float).ravel()
    w = np.asarray(w, dtype=float).ravel()
    prog = om.program
    n_ic = len(prog.inequalities)
    state = np.asarray(state, dtype=float).ravel()
    if state.size != n_ic + om.n_mu:
        raise ValueError(f"state must have {n_ic + om.n_mu} entries, got {state.size}")
    nu, mu = state[:n_ic], state[n_ic:]
    if n_ic:
        nu_dot = om.phi(nu, prog.ineq_values(y, w))
        grad = prog.objective_grad(y, w) + prog.ineq_grads(y, w).T @ nu
    else:
        nu_dot = np.zeros(0)
        grad = prog.objective_grad(y, w)
    eq_violation = prog.h_eq @ y - prog.l_eq @ w

    if om.variant == "rfs":
        eps = np.concatenate([eq_violation, om.basis.T @ grad])
        mu_dot = np.zeros(0)
    elif om.variant == "ros":
        eps = om.basis.T @ (grad + prog.h_eq.T @ mu)
        mu_dot = eq_violation
    else:
        eps = eq_violation + om.basis.T @ grad
        mu_dot = np.zeros(0)
    return np.concatenate([nu_dot, mu_dot]), eps


def verify_optimality_model(om: OptimalityModel, up: UncertainPlant, delta, w,
                            eq_point, tol: float = 1e-8) -> bool:
    """Check the defining implication of an optimality model at a concrete point.

    ``eq_point`` is ``(x_bar, om_state, u_bar)``.  True iff the steady-state
    residuals (plant equilibrium, filter stationarity, eps = 0) are all
    within ``tol`` and the resulting output matches the oracle optimizer
    within ``10 * tol``.
    """
    x_bar, state, u_bar = eq_point
    x_bar = np.asarray(x_bar, dtype=float).ravel()
    u_bar = np.asarray(u_bar, dtype=float).ravel()
    w = np.asarray(w, dtype=float).ravel()
    pm = eval_plant(up, delta)
    plant_resid = pm.a @ x_bar + pm.b @ u_bar + pm.bw @ w
    y_bar = pm.output(x_bar, u_bar, w)
    state_dot, eps = om_dynamics(om, y_bar, w, state)
    resid = max(
        np.abs(plant_resid).max() if plant_resid.size else 0.0,
        np.abs(state_dot).max() if state_dot.size else 0.0,
        np.abs(eps).max() if eps.size else 0.0,
    )
    if resid > tol:
        return False
    oracle = oracle_optimal_output(om.program, pm, w)
    return bool(np.linalg.norm(y_bar - oracle["y_star"]) <= 10 * tol)


def gather_broadcast_input(a_coeffs, b_coeffs, eta) -> np.ndarray:
    """Inverse-marginal-cost dispatch map for per-node quadratic costs.

    With node cost 0.5 a_i u_i^2 + b_i u_i (a_i > 0), the input equalizing
    all marginal costs at level ``eta`` is u_i = (eta - b_i) / a_i.  A 1-D
    array of levels gives one input row per level.
    """
    a = np.asarray(a_coeffs, dtype=float).ravel()
    b = np.asarray(b_coeffs, dtype=float).ravel()
    if a.size != b.size:
        raise ValueError("coefficient vectors must have equal length")
    if a.size and a.min() <= 0:
        raise ValueError("quadratic cost coefficients must be positive")
    return (np.asarray(eta, dtype=float)[..., None] - b) / a
