"""Row stacks: a loop of S rows integrated at once against each row alone.

``assemble`` given S stabilizers builds one loop whose rows carry their own
gains, and ``integrate_rk4`` advances a row stack of states.  Every row of
the stacked trajectory must be bit-identical to integrating that row's own
one-row loop, up to the row's own divergence step.
"""

import numpy as np
import pytest

from osscontrol.omodels import OptimalityModel
from osscontrol.optprob import ConvexProgram, tracking_objective
from osscontrol.plant import fixed_plant
from osscontrol.simulate import ROW_BLOCK, assemble, integrate_rk4
from osscontrol.stabilize import Stabilizer

from helpers import assert_bits_equal, random_plant

H = 0.01
STEPS = 3 * ROW_BLOCK + 17
FIELDS = ("states", "y", "u", "eps", "cost")


def destabilizing(pm, rate):
    """kx = -c B' with c putting A + c B B' about ``rate`` past A's spectrum:
    positive state feedback whose row grows until it is truncated."""
    return -(rate / np.linalg.norm(pm.b, 2) ** 2) * pm.b.T


def affine_case(rng):
    """(plant, model, stabilizers, states): an equality-constrained QP with
    an output-subspace model; one row with proxy-error feedthrough (Keps), one
    built to diverge in the second block of steps."""
    pm = random_plant(rng, 3, 2, 3, n_w=1, stable=True)
    prog = ConvexProgram.from_qp(np.diag(rng.uniform(0.5, 2.0, 3)), rng.standard_normal((3, 1)),
                                 n_w=1, h_eq=rng.standard_normal((1, 3)),
                                 l_eq=rng.standard_normal((1, 1)))
    om = OptimalityModel(variant="ros", basis=rng.standard_normal((3, 2)), program=prog)
    small = dict(kmu=0.1 * rng.standard_normal((2, 1)), keta=0.1 * rng.standard_normal((2, 2)))
    stabs = [Stabilizer(**small),
             Stabilizer(kx=destabilizing(pm, 10.0), **small),
             Stabilizer(keps=0.05 * rng.standard_normal((2, 2)), **small)]
    return pm, om, stabs, rng.standard_normal((3, 6))


def inequality_case(rng):
    """(plant, model, stabilizers, states): the QP of ``affine_case`` with one
    affine inequality, whose multiplier state makes the loop nonlinear."""
    pm = random_plant(rng, 3, 2, 3, n_w=1, stable=True)
    g, offset = rng.standard_normal(3), 0.5

    def f(y, w):
        return float(g @ np.asarray(y, dtype=float).ravel() - offset)

    prog = ConvexProgram.from_qp(np.diag(rng.uniform(0.5, 2.0, 3)), rng.standard_normal((3, 1)),
                                 n_w=1, h_eq=rng.standard_normal((1, 3)),
                                 l_eq=rng.standard_normal((1, 1)),
                                 inequalities=[(f, lambda y, w: g)])
    om = OptimalityModel(variant="ros", basis=rng.standard_normal((3, 2)), program=prog)
    small = dict(knu=0.1 * rng.standard_normal((2, 1)), kmu=0.1 * rng.standard_normal((2, 1)),
                 keta=0.1 * rng.standard_normal((2, 2)))
    stabs = [Stabilizer(**small),
             Stabilizer(kx=destabilizing(pm, 10.0), **small),
             Stabilizer(kx=0.2 * rng.standard_normal((2, 3)), **small)]
    return pm, om, stabs, rng.standard_normal((3, 7))


def nonlinear_case(rng):
    """(plant, model, stabilizers, states): the tracking objective with per-row
    theta and beta as (S, 1) columns; the middle row built to diverge."""
    pm = random_plant(rng, 3, 2, 4, n_w=3, stable=True)
    theta, beta = np.array([[0.05], [0.5], [0.2]]), np.array([[20.0], [5.0], [10.0]])
    r_idx = np.array([0, 2])

    def program(theta, beta):
        return ConvexProgram.from_callables(4, 3, *tracking_objective(2, r_idx, theta, beta))

    basis = rng.standard_normal((4, 2))
    stacked = OptimalityModel(variant="ros", basis=basis, program=program(theta, beta))
    rows = [OptimalityModel(variant="ros", basis=basis, program=program(t, b))
            for t, b in zip(theta[:, 0], beta[:, 0])]
    keta = [0.3 * rng.standard_normal((2, 2)) for _ in range(3)]
    stabs = [Stabilizer(keta=keta[0]),
             Stabilizer(kx=destabilizing(pm, 10.0), keta=keta[1]),
             Stabilizer(keta=keta[2])]
    return pm, (stacked, rows), stabs, 0.5 * rng.standard_normal((3, 5))


CASES = {"affine": (affine_case, 61), "inequality": (inequality_case, 65),
         "tracking": (nonlinear_case, 62)}


@pytest.mark.parametrize("case", list(CASES))
def test_stacked_rows_match_one_row_integration(case):
    build, seed = CASES[case]
    rng = np.random.default_rng(seed)
    pm, om, stabs, z0 = build(rng)
    stacked_om, row_oms = om if case == "tracking" else (om, [om] * 3)
    up, w = fixed_plant(pm), rng.standard_normal(pm.n_w)
    loop = assemble(up, up.nominal, w, stacked_om, stabs)
    assert (loop.affine is not None) == (case == "affine")
    stack = integrate_rk4(loop, z0, STEPS * H, H)
    assert stack.states.shape == (STEPS + 1, 3, loop.n_state)
    assert stack.diverged.tolist() == [False, True, False]
    # the diverging row ends after the first block, before the others
    assert ROW_BLOCK + 1 < stack.ends[1] < STEPS + 1 == stack.ends[0] == stack.ends[2]
    for i, (row, stab, om_i) in enumerate(zip(stack.rows(), stabs, row_oms)):
        alone = integrate_rk4(assemble(up, up.nominal, w, om_i, stab), z0[i], STEPS * H, H)
        assert len(row.times) == len(alone.times) == stack.ends[i], i
        assert row.diverged == alone.diverged, i
        assert_bits_equal(row.times, alone.times, f"row {i} times")
        for what in FIELDS:
            assert_bits_equal(getattr(row, what), getattr(alone, what), f"row {i} {what}")


def test_states_of_one_loop_match_one_row_integration():
    # a loop without per-row gains advances a row stack of initial states too
    rng = np.random.default_rng(63)
    pm, om, stabs, z0 = affine_case(rng)
    up, w = fixed_plant(pm), rng.standard_normal(pm.n_w)
    loop = assemble(up, up.nominal, w, om, stabs[1])
    stack = integrate_rk4(loop, z0, STEPS * H, H)
    assert stack.diverged.all()
    for i, row in enumerate(stack.rows()):
        alone = integrate_rk4(loop, z0[i], STEPS * H, H)
        assert len(row.times) == len(alone.times) and row.diverged, i
        for what in FIELDS:
            assert_bits_equal(getattr(row, what), getattr(alone, what), f"row {i} {what}")


def test_stacked_loop_holds_each_rows_closed_loop_matrix():
    rng = np.random.default_rng(64)
    pm, om, stabs, _ = affine_case(rng)
    up, w = fixed_plant(pm), rng.standard_normal(pm.n_w)
    a_stack, b_stack = assemble(up, up.nominal, w, om, stabs).affine
    for i, stab in enumerate(stabs):
        a_cl, b_cl = assemble(up, up.nominal, w, om, stab).affine
        assert_bits_equal(a_stack[i], a_cl, f"row {i} A_cl")
        assert_bits_equal(b_stack[i], b_cl, f"row {i} b_cl")
        assert a_stack[i].flags.c_contiguous
