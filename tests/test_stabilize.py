"""Proposition and theorem-1 clause verdicts against direct PBH tests, and
the rank decision they all rest on."""

import itertools

import numpy as np
import pytest

from helpers import (
    augmented_by_hand,
    bundled_qp_variants,
    feasible_direction_matrix,
    output_subspace_matrix,
    random_plant,
    random_qp_instance,
    uncertain_wrapper,
)
from osscontrol.matlib import eigenvalues, rank_decision
from osscontrol.optprob import ConvexProgram
from osscontrol.plant import PlantMatrices, eval_plant
from osscontrol.simulate import assemble
from osscontrol.stabilize import (
    PBH_TOL,
    pbh_detectable,
    pbh_stabilizable,
    prop4_check,
    prop5_check,
    prop6_check,
    theorem1_check,
)


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


class TestPropositionsAgreeWithDirectPbh:
    """On instances where the supplied matrix spans the required subspace, the
    clause verdict equals PBH run on the assembled augmented plant."""

    @pytest.mark.parametrize("check, basis_of", [
        (prop4_check, feasible_direction_matrix),
        (prop5_check, output_subspace_matrix),
    ])
    def test_feasible_and_output_subspace_models(self, check, basis_of):
        rng = np.random.default_rng(31)
        verdicts = set()
        for i in range(60):
            pm, prog, geom = random_qp_instance(rng, n_ec=int(rng.integers(1, 3)))
            if i % 2 and geom.t_basis.dim:
                prog = flat_cost(prog, geom)
            rep = check(uncertain_wrapper(pm), np.zeros(0), prog, basis_of(geom))
            assert rep.premise_ok
            assert rep.overall == rep.direct_pbh
            verdicts.add(rep.overall)
        assert verdicts == {True, False}

    def test_reduced_error_model(self):
        # t0 spans the feasible directions with one column per equality
        # constraint; the complement clause once tested the intersection of the
        # ranges instead and disagreed with direct PBH on every such draw
        rng = np.random.default_rng(32)
        checked = 0
        while checked < 60:
            n_ec = int(rng.integers(1, 3))
            pm, prog, geom = random_qp_instance(rng, n_ec=n_ec)
            if geom.t_basis.dim != n_ec:
                continue
            rep = prop6_check(uncertain_wrapper(pm), np.zeros(0), prog,
                              feasible_direction_matrix(geom))
            assert rep.premise_ok
            assert rep.overall == rep.direct_pbh
            checked += 1


def integrator_pair(pm: PlantMatrices):
    """Plant in series with integrators on its output, eta_dot = C x + D u,
    measured through (Cm x, eta)."""
    n, p = pm.n, pm.p
    a = np.block([[pm.a, np.zeros((n, p))], [pm.c, np.zeros((p, p))]])
    b = np.vstack([pm.b, pm.d])
    cm = np.block([[pm.cm, np.zeros((pm.p_m, p))], [np.zeros((p, n)), np.eye(p)]])
    return a, b, cm


class TestTheorem1:
    def test_matches_pbh_on_the_integrator_pair(self):
        # p up to 3 against n + m: the rank clause fails on part of the draws
        rng = np.random.default_rng(33)
        verdicts = set()
        for _ in range(80):
            pm = random_plant(rng, int(rng.integers(1, 5)), int(rng.integers(1, 3)),
                              int(rng.integers(1, 4)))
            a, b, cm = integrator_pair(pm)
            rep = theorem1_check(pm)
            assert rep.overall == (pbh_stabilizable(a, b) and pbh_detectable(cm, a))
            verdicts.add(rep.overall)
        assert verdicts == {True, False}

    def test_stabilizability_clauses_with_blind_measurements(self):
        # Cm = 0 leaves every unstable plant mode undetected by Cm alone; the
        # stabilizability clauses still decide the pair's stabilizability, and
        # a passing detectability clause implies detectability of the pair
        rng = np.random.default_rng(34)
        for _ in range(80):
            base = random_plant(rng, int(rng.integers(1, 5)), int(rng.integers(1, 3)),
                                int(rng.integers(1, 4)))
            pm = PlantMatrices(a=base.a, b=base.b, bw=base.bw, c=base.c, d=base.d,
                               q=base.q, cm=np.zeros((1, base.n)))
            a, b, cm = integrator_pair(pm)
            stab, det, full = (c.passed for c in theorem1_check(pm).clauses)
            assert (stab and full) == pbh_stabilizable(a, b)
            assert not det or pbh_detectable(cm, a)


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
        with_keps += bool(np.any(stab.block("keps", up.evaluate(deltas[0]).m, om.eps_dim)))
        for d in deltas:
            pm = eval_plant(up, d)
            a_cl = assemble(up, d, np.zeros(pm.n_w), om, stab).affine[0]
            want = closed_form_loop_matrix(pm, om, stab)
            assert np.abs(a_cl - want).max() <= 1e-12 * max(1.0, np.abs(want).max())
            top, top_want = eigenvalues(a_cl).real.max(), eigenvalues(want).real.max()
            assert (top < 0) == (top_want < 0) and abs(top - top_want) <= 1e-9, (sc.name, plan.name)
    assert with_keps == 1
