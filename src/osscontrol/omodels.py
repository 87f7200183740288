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

Inequality constraints g(y, w) <= 0 enter through a multiplier state nu
driven by the projection nu_dot = max(nu + g, 0) - nu, which is globally
Lipschitz and vanishes exactly when nu >= 0, g <= 0 and nu'g = 0.
``om_dynamics`` evaluates a model, the one place its formulas are written,
at one point or at a row stack of points; row i of a stacked result is
bit-identical to the call on row i alone.  ``gather_broadcast_input`` is the
static dispatch map of the gather-and-broadcast power controller.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matlib import _mv, as_matrix
from .optprob import ConvexProgram


@dataclass(frozen=True)
class OptimalityModel:
    """One of the three filter variants with its constant matrices and state layout.

    State is the flat vector [nu; mu]; mu is present only for "ros".
    """

    variant: str
    basis: np.ndarray
    program: ConvexProgram

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

    def linear_maps(self, w) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(m_y, m_s, m_0)`` with ``[state_dot; eps] = m_y y + m_s state + m_0``.

        Probed from ``om_dynamics`` on identity rows at disturbance w, so exact
        only for a QP without inequalities; raises ValueError otherwise.
        ``m_y`` and ``m_s`` are C-ordered.
        """
        prog = self.program
        if not prog.is_qp or prog.n_ic:
            raise ValueError("the optimality model is linear only for an equality-constrained QP")
        p, n_s = prog.p, self.state_dim

        def stacked(y, state):
            return np.concatenate(om_dynamics(self, y, w, state), axis=-1)

        m_0 = stacked(np.zeros(p), np.zeros(n_s))
        m_y = (stacked(np.eye(p), np.zeros((p, n_s))) - m_0).T.copy()
        m_s = (stacked(np.zeros((n_s, p)), np.eye(n_s)) - m_0).T.copy()
        return m_y, m_s, m_0


def om_dynamics(om: OptimalityModel, y, w, state) -> tuple[np.ndarray, np.ndarray]:
    """Filter state derivative and proxy error at (y, w, state).

    Takes one point, y (p,) and state (state_dim,), or row stacks (k, p) and
    (k, state_dim).  Returns ``(state_dot, eps)`` with the same leading
    shape, ``state_dot`` in the flat [nu; mu] layout of the model.
    """
    y = np.asarray(y, dtype=float)
    w = np.asarray(w, dtype=float).ravel()
    state = np.asarray(state, dtype=float)
    prog = om.program
    n_ic = prog.n_ic
    if state.shape[-1:] != (om.state_dim,):
        raise ValueError(f"state must have {om.state_dim} entries, got shape {state.shape}")
    # nu is empty without inequalities, and mu except for "ros"
    nu, mu = state[..., :n_ic], state[..., n_ic:]
    grad = prog.lagrangian_grad(y, w, nu)
    nu_dot = np.maximum(nu + prog.ineq_values(y, w), 0.0) - nu if n_ic else nu
    mu_dot = mu
    eq_violation = _mv(prog.h_eq, y) - _mv(prog.l_eq, w)

    if om.variant == "rfs":
        eps = np.concatenate([eq_violation, _mv(om.basis.T, grad)], axis=-1)
    elif om.variant == "ros":
        eps = _mv(om.basis.T, grad + _mv(prog.h_eq.T, mu))
        mu_dot = eq_violation
    else:
        eps = eq_violation + _mv(om.basis.T, grad)
    return np.concatenate([nu_dot, mu_dot], axis=-1), eps


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
