"""Proposition clause verdicts against direct PBH tests on the augmented
plant, and the rank decision they all rest on."""

import itertools

import numpy as np
import pytest

from helpers import (
    augmented_by_hand,
    bundled_qp_variants,
    feasible_direction_matrix,
    output_subspace_matrix,
    random_qp_instance,
    uncertain_wrapper,
)
from osscontrol.matlib import eigenvalues, rank_decision
from osscontrol.omodels import OptimalityModel
from osscontrol.optprob import ConvexProgram
from osscontrol.plant import PlantMatrices, build_augmented_qp, eval_plant
from osscontrol.simulate import assemble
from osscontrol.stabilize import PBH_TOL, prop4_check, prop5_check, prop6_check, synthesize_lqr


class TestRankDecision:
    def test_empty_matrix(self):
        assert rank_decision(np.zeros((0, 3)), 1) == (False, np.inf)

    def test_zero_matrix(self):
        assert rank_decision(np.zeros((3, 2)), 1) == (False, np.inf)

    def test_want_rank_zero(self):
        assert rank_decision(np.zeros((0, 0)), 0) == (True, np.inf)
        assert rank_decision(np.eye(2), 0) == (True, np.inf)

    def test_want_rank_above_the_smaller_dimension(self):
        assert rank_decision(np.ones((3, 2)), 3) == (False, np.inf)

    def test_complex_pbh_matrix(self):
        # A has eigenvalues +-i; [iI - A, B] keeps full row rank only when B
        # reaches the oscillatory mode
        a = np.array([[0.0, 1.0], [-1.0, 0.0]])
        shifted = 1j * np.eye(2) - a
        full = np.hstack([shifted, np.array([[0.0], [1.0]], dtype=complex)])
        ok, margin = rank_decision(full, 2, PBH_TOL)
        s = np.linalg.svd(full, compute_uv=False)
        assert ok and margin == pytest.approx(s[1] / (PBH_TOL * s[0] * 3))
        ok, margin = rank_decision(np.hstack([shifted, np.zeros((2, 1))]), 2, PBH_TOL)
        assert not ok and margin > 1e3

    @pytest.mark.parametrize("sigma, decision", [(4e-9, True), (1e-9, False)])
    def test_margin_on_both_sides_of_the_threshold(self, sigma, decision):
        # threshold 1e-9 * 1 * 2 = 2e-9; sigma is twice it, or half of it
        ok, margin = rank_decision(np.diag([1.0, sigma]), 2, 1e-9)
        assert ok is decision and margin == pytest.approx(2.0)


def flat_cost(prog: ConvexProgram, geom) -> ConvexProgram:
    """The program with its cost zeroed along one feasible direction, so the
    optimizer is not unique."""
    v = geom.t_basis.basis[:, :1]
    proj = np.eye(prog.p) - v @ v.T
    return ConvexProgram.from_qp(proj @ prog.qp.m_cost @ proj, prog.qp.n_cost, n_w=prog.n_w,
                                 h_eq=prog.h_eq, l_eq=prog.l_eq)


def with_hidden_mode(pm: PlantMatrices, rng) -> PlantMatrices:
    """``pm`` with one more state, an unstable mode at 1 that neither Cm = 0
    nor C sees.  It is driven by u, so (A, B) stays stabilizable on generic
    draws, and it leaves the equilibrium-output geometry unchanged."""
    n = pm.n
    return PlantMatrices(
        a=np.block([[pm.a, np.zeros((n, 1))], [rng.standard_normal((1, n)), np.ones((1, 1))]]),
        b=np.vstack([pm.b, rng.standard_normal((1, pm.m))]),
        bw=np.vstack([pm.bw, np.zeros((1, pm.n_w))]),
        c=np.hstack([pm.c, np.zeros((pm.p, 1))]), d=pm.d, q=pm.q, cm=np.zeros((1, n + 1)))


def draws(rng, reduced_error=False, count=60):
    """``count`` seeded ``(pm, prog, geom, cm, kind)`` draws in three kinds:
    Cm = 0 on the plant with a hidden unstable mode, Cm = 0 passed as the
    ``cm`` override, and a cost that is flat along a feasible direction.
    With ``reduced_error`` the feasible directions have one dimension per
    equality constraint."""
    i = 0
    while i < count:
        n_ec = int(rng.integers(1, 3))
        pm, prog, geom = random_qp_instance(rng, n_ec=n_ec)
        if not geom.t_basis.dim or (reduced_error and geom.t_basis.dim != n_ec):
            continue
        kind = ("hidden", "blind", "flat")[i % 3]
        cm = None
        if kind == "hidden":
            pm = with_hidden_mode(pm, rng)
        elif kind == "blind":
            cm = np.zeros((1, pm.n))
        else:
            prog = flat_cost(prog, geom)
        yield pm, prog, geom, cm, kind
        i += 1


class TestPropositionsAgreeWithDirectPbh:
    """Where the premises hold, the clause verdict equals PBH run on the
    augmented plant; nothing raises on any draw."""

    @pytest.mark.parametrize("check, basis_of", [
        (prop4_check, feasible_direction_matrix),
        (prop5_check, output_subspace_matrix),
    ])
    def test_feasible_and_output_subspace_models(self, check, basis_of):
        rng = np.random.default_rng(31)
        verdicts = {"hidden": set(), "blind": set(), "flat": set()}
        for pm, prog, geom, cm, kind in draws(rng):
            rep = check(uncertain_wrapper(pm), np.zeros(0), prog, basis_of(geom), cm=cm)
            assert rep.premise_ok
            assert rep.overall == rep.direct_pbh
            verdicts[kind].add(rep.overall)
        # a mode hidden from Cm and C fails the detectability clause; the
        # model's y-map sees every other mode, and a flat cost fails the
        # unique-optimizer clause, which is necessary here
        assert verdicts == {"hidden": {False}, "blind": {True}, "flat": {False}}

    def test_reduced_error_model(self):
        # t0 spans the feasible directions with one column per equality
        # constraint; a flat cost breaks the premise of a unique optimizer but
        # not the stabilizability of the augmented plant
        rng = np.random.default_rng(32)
        verdicts = {"hidden": set(), "blind": set(), "flat": set()}
        for pm, prog, geom, cm, kind in draws(rng, reduced_error=True):
            rep = prop6_check(uncertain_wrapper(pm), np.zeros(0), prog,
                              feasible_direction_matrix(geom), cm=cm)
            assert rep.premise_ok == (kind != "flat")
            assert rep.overall == rep.direct_pbh
            verdicts[kind].add(rep.overall)
        assert verdicts["hidden"] == {False} and verdicts["flat"] == {True}


def closed_form_loop_matrix(pm: PlantMatrices, om, stab) -> np.ndarray:
    """A_cl = a - b Ku of the hand-written augmented plant, with the input
    solving u = -(K z) - Keps eps and eps = a_eps z + b_eps u."""
    a, b = augmented_by_hand(pm, om.program, om.variant, om.basis)
    m, n_eta = pm.m, om.eps_dim
    k = np.hstack([stab.block("kx", m, pm.n), stab.block("kmu", m, om.n_mu),
                   stab.block("keta", m, n_eta)])
    keps = stab.block("keps", m, n_eta)
    eps = slice(a.shape[0] - n_eta, None)
    return a - b @ np.linalg.solve(np.eye(m) + keps @ b[eps], k + keps @ a[eps])


def test_loop_spectrum_matches_the_augmented_closed_form():
    # the spectrum the checks read comes from the simulated loop; the closed
    # form is the augmented plant under static feedback, including the Keps
    # feedthrough solve (pd-vs-oss)
    with_keps = 0
    for sc, plan in bundled_qp_variants():
        up, om, stab = sc.plant, plan.om, plan.stabilizer
        deltas = list(up.delta_samples)
        if up.delta_box is not None:
            deltas += [np.array(d) for d in itertools.product(
                *(np.linspace(lo, hi, 9) for lo, hi in up.delta_box))]
        with_keps += bool(np.any(stab.block("keps", eval_plant(up, deltas[0]).m, om.eps_dim)))
        for d in deltas:
            pm = eval_plant(up, d)
            a_cl = assemble(up, d, np.zeros(pm.n_w), om, stab).affine[0]
            want = closed_form_loop_matrix(pm, om, stab)
            assert np.abs(a_cl - want).max() <= 1e-12 * max(1.0, np.abs(want).max())
            top, top_want = eigenvalues(a_cl).real.max(), eigenvalues(want).real.max()
            assert (top < 0) == (top_want < 0) and abs(top - top_want) <= 1e-9, (sc.name, plan.name)
    assert with_keps == 1


# Riccati residual |A'P + PA - PBR^-1B'P + Q| over 1 + |P| that both routes
# stay under (300 draws: 4e-13 hand-rolled, 2e-10 SciPy).  P is ill-conditioned
# on such draws (condition numbers up to about 1e9), so the routes' gains
# differ by far more than their residuals: the residuals are compared.
RICCATI_RESIDUAL = 1e-8


def test_lqr_riccati_agrees_with_scipy():
    linalg = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(77)
    for draw in range(24):
        variant = ("rfs", "ros")[draw % 2]
        pm, prog, geom = random_qp_instance(rng)
        basis = (feasible_direction_matrix(geom) if variant == "rfs"
                 else output_subspace_matrix(geom))
        aug = build_augmented_qp(pm, OptimalityModel(variant, basis, prog))
        a, b, q, r = aug.a, aug.b, np.eye(aug.n_state), np.eye(pm.m)
        stab = synthesize_lqr(aug, q, r)
        k_hand = np.hstack([stab.kx, stab.kmu, stab.keta])
        # the cost-to-go of the hand-rolled gain: the closed loop's Lyapunov equation
        # F'P + PF = -(Q + K'RK), solved as a Kronecker system
        f, n = a - b @ k_hand, aug.n_state
        p_hand = np.linalg.solve(np.kron(np.eye(n), f.T) + np.kron(f.T, np.eye(n)),
                                 -(q + k_hand.T @ r @ k_hand).ravel()).reshape(n, n)
        p_scipy = linalg.solve_continuous_are(a, b, q, r)
        for route, p, k in (("hand-rolled", p_hand, k_hand),
                            ("scipy", p_scipy, np.linalg.solve(r, b.T @ p_scipy))):
            assert eigenvalues(a - b @ k).real.max() < 0, (draw, route)
            residual = a.T @ p + p @ a - p @ b @ np.linalg.solve(r, b.T @ p) + q
            assert np.abs(residual).max() <= RICCATI_RESIDUAL * (1 + np.abs(p).max()), (draw, route)
