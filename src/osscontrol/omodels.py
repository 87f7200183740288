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
bit-identical to the call on row i alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .matlib import _mv, as_matrix
from .optprob import ConvexProgram


@dataclass(frozen=True)
class OptimalityModel:
    """One of the three filter variants with its constant matrices and state layout.

    State is the flat vector [nu; mu]; mu is present only for "ros".  The
    layout (``n_ic``, ``n_ec``, ``n_mu``, ``state_dim``, ``eps_dim``) and the
    transposed views ``basis_t`` and ``h_eq_t`` that ``om_dynamics`` reads
    are fixed at construction.
    """

    variant: str
    basis: np.ndarray
    program: ConvexProgram
    n_ic: int = field(init=False, repr=False, compare=False)
    n_ec: int = field(init=False, repr=False, compare=False)
    n_mu: int = field(init=False, repr=False, compare=False)
    state_dim: int = field(init=False, repr=False, compare=False)
    eps_dim: int = field(init=False, repr=False, compare=False)
    basis_t: np.ndarray = field(init=False, repr=False, compare=False)
    h_eq_t: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.variant not in ("rfs", "ros", "rerfs"):
            raise ValueError(f"unknown optimality-model variant {self.variant!r}")
        b = as_matrix(self.basis)
        prog = self.program
        if b.shape[0] != prog.p:
            raise ValueError(
                f"subspace matrix must have {prog.p} rows, got {b.shape[0]}"
            )
        n_ic, n_ec = prog.n_ic, prog.n_ec
        if self.variant == "rerfs" and b.shape[1] != n_ec:
            raise ValueError(
                "reduced-error models need the subspace matrix to have exactly one "
                f"column per equality constraint ({n_ec}), got {b.shape[1]}"
            )
        n_mu = n_ec if self.variant == "ros" else 0
        eps_dim = {"rfs": n_ec + b.shape[1], "ros": b.shape[1], "rerfs": n_ec}[self.variant]
        # transposed views, not copies: a copy would change the BLAS call and
        # with it the rounding of every product
        for name, value in (("basis", b), ("n_ic", n_ic), ("n_ec", n_ec), ("n_mu", n_mu),
                            ("state_dim", n_ic + n_mu), ("eps_dim", eps_dim),
                            ("basis_t", b.T), ("h_eq_t", prog.h_eq.T)):
            object.__setattr__(self, name, value)

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

    Takes one point, y (p,) and state (state_dim,), or row stacks (..., p)
    and (..., state_dim).  Returns ``(state_dot, eps)`` with the same leading
    shape, ``state_dot`` in the flat [nu; mu] layout of the model.

    Reads the layout fixed when ``om`` was built and skips empty dimensions
    exactly: without equality rows the violation is an empty slice and
    ``H' mu`` is left out; without inequality or multiplier state nothing is
    concatenated.
    """
    y = np.asarray(y, dtype=float)
    w = np.asarray(w, dtype=float).ravel()
    state = np.asarray(state, dtype=float)
    if state.shape[-1:] != (om.state_dim,):
        raise ValueError(f"state must have {om.state_dim} entries, got shape {state.shape}")
    prog = om.program
    n_ic, n_ec = om.n_ic, om.n_ec
    # nu is empty without inequalities, and mu except for "ros"
    nu = state[..., :n_ic]
    if n_ic:
        grad = prog.lagrangian_grad(y, w, nu)
        nu_dot = np.maximum(nu + prog.ineq_values(y, w), 0.0) - nu
    else:
        grad, nu_dot = prog.objective_grad(y, w), nu
    eq_violation = _mv(prog.h_eq, y) - _mv(prog.l_eq, w) if n_ec else y[..., :0]

    if om.variant == "ros":
        eps = _mv(om.basis_t, (grad + _mv(om.h_eq_t, state[..., n_ic:])) if n_ec else grad)
        mu_dot = eq_violation
        return (np.concatenate([nu_dot, mu_dot], axis=-1) if n_ic else mu_dot), eps
    eps = _mv(om.basis_t, grad)
    if om.variant == "rfs":
        eps = np.concatenate([eq_violation, eps], axis=-1) if n_ec else eps
    else:
        eps = eq_violation + eps
    return nu_dot, eps
