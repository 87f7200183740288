"""The optimality model against its defining formulas, with one affine inequality.

No bundled scenario has inequalities, so the multiplier branch of
``om_dynamics`` is exercised only here.
"""

import numpy as np
import pytest

from osscontrol.omodels import OptimalityModel, om_dynamics
from osscontrol.optprob import ConvexProgram

from helpers import assert_bits_equal, om_dynamics_by_hand

M_COST = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.25], [0.0, 0.25, 3.0]])
N_COST = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, -1.0]])
C_LIN = np.array([0.5, -1.0, 0.25])
H_EQ = np.array([[1.0, 1.0, 1.0]])
L_EQ = np.array([[1.0, 0.5]])
G_INEQ = np.array([1.0, -2.0, 0.5])
OFFSET = 0.75
W = np.array([0.3, -1.2])
# basis per variant: rerfs needs exactly one column per equality constraint
BASES = {
    "rfs": np.array([[1.0, 0.0], [-1.0, 1.0], [0.0, -1.0]]),
    "ros": np.array([[1.0, 0.5], [0.0, 1.0], [2.0, -1.0]]),
    "rerfs": np.array([[1.0], [-2.0], [1.0]]),
}


def affine_inequality(g, offset):
    def f(y, w):
        return float(g @ np.asarray(y, dtype=float).ravel() - offset)

    def grad(y, w):
        return g

    return f, grad


def model(variant):
    prog = ConvexProgram.from_qp(M_COST, N_COST, n_w=2, h_eq=H_EQ, l_eq=L_EQ, c=C_LIN,
                                 inequalities=[affine_inequality(G_INEQ, OFFSET)])
    return OptimalityModel(variant=variant, basis=BASES[variant], program=prog)


def points(om, k=6):
    """``k`` (y, state) pairs; nu straddles zero so both sides of the
    projection's kink are hit."""
    rng = np.random.default_rng(11)
    ys = rng.standard_normal((k, 3))
    states = rng.standard_normal((k, om.state_dim))
    states[::2, 0] = np.abs(states[::2, 0])
    states[1, 0] = 0.0
    return ys, states


@pytest.mark.parametrize("variant", sorted(BASES))
def test_om_dynamics_matches_the_hand_formulas(variant):
    om = model(variant)
    assert om.state_dim == 1 + (1 if variant == "ros" else 0)
    for y, state in zip(*points(om)):
        nu, mu = state[:1], state[1:]
        g = G_INEQ @ y - OFFSET
        nu_dot = np.maximum(nu + g, 0.0) - nu
        grad = M_COST @ y - N_COST @ W + C_LIN + G_INEQ * nu[0]
        violation = H_EQ @ y - L_EQ @ W
        basis = BASES[variant]
        if variant == "rfs":
            want_dot, want_eps = nu_dot, np.concatenate([violation, basis.T @ grad])
        elif variant == "ros":
            want_dot = np.concatenate([nu_dot, violation])
            want_eps = basis.T @ (grad + H_EQ.T @ mu)
        else:
            want_dot, want_eps = nu_dot, violation + basis.T @ grad
        state_dot, eps = om_dynamics(om, y, W, state)
        np.testing.assert_allclose(state_dot, want_dot, rtol=0, atol=1e-14)
        np.testing.assert_allclose(eps, want_eps, rtol=0, atol=1e-13)


@pytest.mark.parametrize("variant", sorted(BASES))
def test_stacked_call_equals_per_row_calls(variant):
    om = model(variant)
    ys, states = points(om)
    stacked = om_dynamics(om, ys, W, states)
    rows = [om_dynamics(om, y, W, s) for y, s in zip(ys, states)]
    for got, want in zip(stacked, zip(*rows)):
        assert got.shape == (len(ys),) + want[0].shape
        np.testing.assert_array_equal(got, np.array(want))
        assert np.array_equal(np.signbit(got), np.signbit(np.array(want)))


def test_stacked_objective_equals_per_row_values():
    prog = model("rfs").program
    ys, _ = points(model("rfs"))
    np.testing.assert_array_equal(prog.objective_value(ys, W),
                                  [prog.objective_value(y, W) for y in ys])
    np.testing.assert_array_equal(prog.objective_grad(ys, W),
                                  [prog.objective_grad(y, W) for y in ys])
    assert isinstance(prog.objective_value(ys[0], W), float)


def empty_dimension_model(variant):
    """A model with no equality rows and no inequalities (n_ec = n_ic = 0),
    whose objective gradient is y itself, negative zeros included."""
    prog = ConvexProgram.from_callables(3, 2, lambda y, w: 0.5 * float(y @ y),
                                        lambda y, w: np.array(y, dtype=float))
    basis = np.zeros((3, 0)) if variant == "rerfs" else BASES[variant]
    return OptimalityModel(variant=variant, basis=basis, program=prog)


@pytest.mark.parametrize("variant", sorted(BASES))
def test_empty_dimensions_match_the_explicit_empty_products(variant):
    om = empty_dimension_model(variant)
    assert (om.n_ec, om.n_ic, om.state_dim) == (0, 0, 0)
    ys = np.array([[-0.0, 1.5, -0.0], [0.0, -0.0, -2.0], [-0.0, -0.0, -0.0], [0.25, 0.0, 3.0]])
    states = np.zeros((len(ys), 0))
    want = [om_dynamics_by_hand(om, y, W, s) for y, s in zip(ys, states)]
    for i, (y, s) in enumerate(zip(ys, states)):
        for got, ref, what in zip(om_dynamics(om, y, W, s), want[i], ("state_dot", "eps")):
            assert_bits_equal(got, ref, f"{variant} point {i} {what}")
    for got, ref, what in zip(om_dynamics(om, ys, W, states), zip(*want), ("state_dot", "eps")):
        assert_bits_equal(got, np.array(ref), f"{variant} stack {what}")


def test_state_of_the_wrong_size_is_rejected():
    om = model("ros")
    with pytest.raises(ValueError, match="2 entries"):
        om_dynamics(om, np.zeros(3), W, np.zeros(3))
