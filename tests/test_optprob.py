import random
import warnings

import numpy as np
import pytest

from osscontrol import optprob
from osscontrol.errors import InfeasibleProblem, NonuniqueOptimizer
from osscontrol.matlib import rank_decision
from osscontrol.optprob import (
    ConvexProgram,
    KKTPoint,
    QPData,
    check_gradients,
    oracle_optimal_output,
    unique_optimizer_check,
)
from osscontrol.plant import PlantMatrices

from helpers import assert_bits_equal, kkt_residual, random_plant, random_qp_instance


def residual_max(res: dict) -> float:
    return max(
        (np.abs(v).max() if np.size(v) else 0.0)
        for v in res.values()
    )


# _newton_kkt's failures, on one-unknown residuals: NaN next to the root
# makes the difference Jacobian NaN, which lstsq refuses (LinAlgError);
# x^2 + 1 has no root and a zero Jacobian at 0, so the step is zero and no
# halving decreases the residual; x^2 converges linearly, so two iterations
# leave it above tolerance
NEWTON_FAILURES = {
    "nan-jacobian": (lambda x: np.where(x > 0, x - 1.0, np.nan), 0.0, 60),
    "line-search": (lambda x: x * x + 1.0, 0.0, 60),
    "iterations": (lambda x: x * x, 1.0, 2),
}


@pytest.mark.parametrize("case", sorted(NEWTON_FAILURES))
def test_newton_kkt_failures_return_none(case):
    residual, x0, max_iter = NEWTON_FAILURES[case]
    assert optprob._newton_kkt(residual, np.array([x0]), max_iter=max_iter) is None


def test_lstsq_floor_of_an_empty_matrix():
    # no rows constrain the three unknowns: the min-norm solution is zero
    got = optprob._lstsq_floor(np.zeros((0, 3)), np.zeros(0), 1.0)
    assert got.shape == (3,) and not got.any()


class TestQPData:
    def test_symmetry_enforced(self):
        with pytest.raises(ValueError):
            QPData(m_cost=np.array([[1.0, 1.0], [0.0, 1.0]]), n_cost=np.zeros((2, 1)))

    def test_indefinite_rejected(self):
        with pytest.raises(ValueError):
            QPData(m_cost=np.diag([1.0, -1.0]), n_cost=np.zeros((2, 1)))

    def test_psd_accepted(self):
        qp = QPData(m_cost=np.diag([1.0, 0.0]), n_cost=np.zeros((2, 1)))
        assert qp.p == 2


class TestKKTResidual:
    def test_two_state_optimum_is_stationary(self, two_state_plant):
        prog = ConvexProgram.from_qp(np.eye(2), np.zeros((2, 1)), n_w=1)
        res = oracle_optimal_output(prog, two_state_plant, [0.0])
        pt = res["multipliers"]
        assert np.allclose(res["y_star"], [0.0, 0.0], atol=1e-12)
        blocks = kkt_residual(prog, {"gperp": res["gperp"], "b": res["b"]}, pt, [0.0])
        assert residual_max(blocks) <= 1e-12

    def test_unconstrained_quadratic_origin(self):
        prog = ConvexProgram.from_qp(np.eye(2), np.zeros((2, 1)), n_w=1)
        pt = KKTPoint(y=[0.0, 0.0], lam=np.zeros(0), mu=np.zeros(0), nu=np.zeros(0))
        blocks = kkt_residual(prog, {"gperp": np.zeros((0, 2)), "b": np.zeros(0)}, pt, [0.0])
        assert np.abs(blocks["stationarity"]).max() == 0.0

    def test_oracle_output_passes_on_random_qps(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            pm, prog, _ = random_qp_instance(rng, n_ec=int(rng.integers(0, 2)))
            w = rng.standard_normal(1)
            res = oracle_optimal_output(prog, pm, w)
            blocks = kkt_residual(prog, {"gperp": res["gperp"], "b": res["b"]},
                                  res["multipliers"], w)
            assert residual_max(blocks) <= 1e-8


class TestOracle:
    def test_two_state_with_disturbance(self, two_state_plant):
        # minimizing y1^2 + y2^2 over equilibria (u + w, u) gives u = -w/2
        prog = ConvexProgram.from_qp(np.eye(2), np.zeros((2, 1)), n_w=1)
        res = oracle_optimal_output(prog, two_state_plant, [1.0])
        assert np.allclose(res["y_star"], [0.5, -0.5], atol=1e-10)

    def test_dc_gain_example_by_elimination(self):
        # static 3-output plant, sum constraint; eliminate u1 = -6w - 2u2 and
        # minimize the scalar quadratic: u2 = -23w/9
        g = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        gw = np.array([[1.0], [2.0], [3.0]])
        pm = PlantMatrices(a=np.zeros((0, 0)), b=np.zeros((0, 2)), bw=np.zeros((0, 1)),
                           c=np.zeros((3, 0)), d=g, q=gw, cm=np.zeros((0, 0)))
        prog = ConvexProgram.from_qp(np.diag([0.1, 0.2, 0.3]), np.zeros((3, 1)),
                                     n_w=1, h_eq=[[1.0, 1.0, 1.0]], l_eq=[[0.0]])
        res = oracle_optimal_output(prog, pm, [1.0])
        u2 = -23.0 / 9.0
        u1 = -6.0 - 2.0 * u2
        expected = (g @ np.array([u1, u2]) + gw.ravel())
        assert np.allclose(res["y_star"], expected, atol=1e-10)
        assert abs(np.array([1.0, 1.0, 1.0]) @ res["y_star"]) < 1e-10

    def test_full_rank_plant_reaches_unconstrained_minimum(self):
        pm = PlantMatrices(a=np.zeros((2, 2)), b=np.eye(2), bw=np.zeros((2, 1)),
                           c=np.eye(2), d=np.zeros((2, 2)), q=np.zeros((2, 1)))
        prog = ConvexProgram.from_qp(np.eye(2), np.zeros((2, 1)), n_w=1)
        res = oracle_optimal_output(prog, pm, [3.0])
        assert np.allclose(res["y_star"], 0.0, atol=1e-12)

    def test_equilibrium_pair_is_consistent(self, two_state_plant):
        prog = ConvexProgram.from_qp(np.eye(2), np.zeros((2, 1)), n_w=1)
        res = oracle_optimal_output(prog, two_state_plant, [2.0])
        resid = (two_state_plant.a @ res["x_bar"] + two_state_plant.b @ res["u_bar"]
                 + two_state_plant.bw @ [2.0])
        assert np.abs(resid).max() < 1e-10

    def test_infeasible_equalities_detected(self, two_state_plant):
        # equilibria satisfy y1 - y2 = w, so demanding y1 - y2 = 0 at w != 0 fails
        prog = ConvexProgram.from_qp(np.eye(2), np.zeros((2, 1)), n_w=1,
                                     h_eq=[[1.0, -1.0]], l_eq=[[0.0]])
        with pytest.raises(InfeasibleProblem):
            oracle_optimal_output(prog, two_state_plant, [1.0])

    def test_no_forced_equilibrium_detected(self):
        # x_dot = w, with no input, has no equilibrium at w != 0
        pm = PlantMatrices(a=np.zeros((1, 1)), b=np.zeros((1, 1)), bw=np.eye(1),
                           c=np.eye(1), d=np.zeros((1, 1)), q=np.zeros((1, 1)))
        prog = ConvexProgram.from_qp(np.eye(1), np.zeros((1, 1)), n_w=1)
        with pytest.raises(InfeasibleProblem,
                           match="^no forced equilibrium exists for this disturbance$"):
            oracle_optimal_output(prog, pm, [1.0])

    def test_flat_objective_reported_nonunique(self, two_state_plant):
        prog = ConvexProgram.from_qp(np.zeros((2, 2)), np.zeros((2, 1)), n_w=1)
        with pytest.raises(NonuniqueOptimizer):
            oracle_optimal_output(prog, two_state_plant, [1.0])

    def test_active_set_enumeration_with_box_constraint(self, two_state_plant):
        # constrain y2 >= -0.2; unconstrained optimum has y2 = -0.5, so the
        # constraint is active and y = (w + u, u) with u = -0.2
        prog = ConvexProgram.from_qp(
            np.eye(2), np.zeros((2, 1)), n_w=1,
            inequalities=[(lambda y, w: -y[1] - 0.2, lambda y, w: np.array([0.0, -1.0]))],
        )
        res = oracle_optimal_output(prog, two_state_plant, [1.0])
        assert np.allclose(res["y_star"], [0.8, -0.2], atol=1e-8)
        assert res["multipliers"].nu[0] > 0

    def test_inactive_constraint_is_ignored(self, two_state_plant):
        prog = ConvexProgram.from_qp(
            np.eye(2), np.zeros((2, 1)), n_w=1,
            inequalities=[(lambda y, w: y[1] - 5.0, lambda y, w: np.array([0.0, 1.0]))],
        )
        res = oracle_optimal_output(prog, two_state_plant, [1.0])
        assert np.allclose(res["y_star"], [0.5, -0.5], atol=1e-8)
        assert np.allclose(res["multipliers"].nu, 0.0)

    def test_smooth_objective_newton_path(self, two_state_plant):
        prog = ConvexProgram.from_callables(
            2, 1,
            lambda y, w: float(np.cosh(y[0]) + 0.5 * y[1] ** 2),
            lambda y, w: np.array([np.sinh(y[0]), y[1]]),
        )
        res = oracle_optimal_output(prog, two_state_plant, [1.0])
        # stationarity along the equilibrium direction (1, 1): sinh(y1) + y2 = 0
        y = res["y_star"]
        assert abs(np.sinh(y[0]) + y[1]) < 1e-9

    def test_reparametrization_invariance(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            pm, prog, _ = random_qp_instance(rng, n_ec=1)
            w = rng.standard_normal(1)
            y1 = oracle_optimal_output(prog, pm, w)["y_star"]
            while True:
                t = rng.standard_normal((pm.n, pm.n))
                if np.linalg.cond(t) < 100:
                    break
            pm2 = PlantMatrices(
                a=t @ pm.a @ np.linalg.inv(t), b=t @ pm.b, bw=t @ pm.bw,
                c=pm.c @ np.linalg.inv(t), d=pm.d, q=pm.q,
            )
            y2 = oracle_optimal_output(prog, pm2, w)["y_star"]
            assert np.linalg.norm(y1 - y2) <= 1e-8 * (1 + np.linalg.norm(y1))


class TestUniqueOptimizerCheck:
    def test_identity_cost(self):
        rng = np.random.default_rng(23)
        t0 = rng.standard_normal((4, 2))
        assert unique_optimizer_check(np.eye(4), t0)[0]

    def test_zero_cost(self):
        assert not unique_optimizer_check(np.zeros((3, 3)), np.eye(3))[0]

    def test_empty_feasible_directions(self):
        assert unique_optimizer_check(np.zeros((3, 3)), np.zeros((3, 0)))[0]

    def test_agrees_with_oracle_verdict(self):
        rng = np.random.default_rng(24)
        agree = 0
        for _ in range(100):
            definite = bool(rng.integers(0, 2))
            pm, prog, geom = random_qp_instance(rng, n_ec=int(rng.integers(0, 2)),
                                                definite=definite)
            predicted = unique_optimizer_check(prog.qp.m_cost, geom.t_basis)[0]
            try:
                oracle_optimal_output(prog, pm, rng.standard_normal(1))
                observed = True
            except NonuniqueOptimizer:
                observed = False
            assert predicted == observed
            agree += 1
        assert agree == 100


class TestNonredundantCheck:
    """The nonredundancy clause of Props. 4 and 5: ``rank_decision`` of the
    stacked constraint matrix [gperp; H] against its row count."""

    def test_independent_rows(self):
        assert rank_decision([[1.0, 0.0], [0.0, 1.0]], 2)[0]

    def test_duplicated_row(self):
        assert not rank_decision([[1.0, 0.0], [1.0, 0.0]], 2)[0]

    def test_swing_network_case(self):
        # with the full frequency constraint the zero-frequency rows overlap the
        # equilibrium constraints, so the stack is redundant; the reduced-error
        # model (which has no nonredundancy clause) is the one that applies there
        from osscontrol.power import build_swing_plant, default_network
        from osscontrol.plant import eval_plant
        from osscontrol.stabilize import prop4_check
        from osscontrol.subspaces import equilibrium_geometry

        net = default_network()
        up = build_swing_plant(net)
        pm = eval_plant(up, [0.0])
        h = np.hstack([np.zeros((net.n, net.n)), np.eye(net.n)])
        geom = equilibrium_geometry(pm, h)
        rows = geom.gperp.shape[0] + net.n
        assert not rank_decision(np.vstack([geom.gperp, h]), rows)[0]
        prog = ConvexProgram.from_qp(np.eye(pm.p), np.zeros((pm.p, pm.n_w)), n_w=pm.n_w,
                                     h_eq=h, l_eq=np.zeros((net.n, pm.n_w)))
        rep = prop4_check(up, [0.0], prog, geom.t_basis)
        (clause,) = [c for c in rep.clauses if c.name == "nonredundant constraints"]
        assert not clause.passed
        assert clause.detail == f"rank of stacked constraints vs {rows} rows"
        assert not rep.overall and rep.direct_pbh is False


def tracking_objective(p_m: int, theta: float = 1.0, beta: float = 20.0):
    """``(f0, grad_f0)`` of the tracking objective with reference ``w = r``:
    ``p_m = 0`` leaves only the l1 surrogate, ``theta = 0`` only the l2 part."""
    return optprob.tracking_objective(p_m, np.arange(p_m), theta, beta)


class TestSmoothNorm:
    """The tracking objective's two parts: the Euclidean norm and the
    log-cosh surrogate of the l1 norm."""

    def test_l1_surrogate_at_origin(self):
        f0, grad_f0 = tracking_objective(0)
        assert f0(np.zeros(3), np.zeros(0)) == 0.0
        assert np.allclose(grad_f0(np.zeros(3), np.zeros(0)), 0.0)

    def test_l1_surrogate_near_unit(self):
        f0, _ = tracking_objective(0)
        val = f0(np.array([1.0]), np.zeros(0))
        assert val == pytest.approx(1.0 - np.log(2.0) / 20.0, abs=1e-12)
        assert abs(val - 1.0) < 0.05

    def test_l2_guarded_at_origin(self):
        f0, grad_f0 = tracking_objective(4, theta=0.0)
        assert f0(np.zeros(4), np.zeros(4)) == 0.0
        assert np.allclose(grad_f0(np.zeros(4), np.zeros(4)), 0.0)

    def test_l2_gradient_is_unit(self):
        _, grad_f0 = tracking_objective(2, theta=0.0)
        assert np.allclose(grad_f0(np.array([3.0, 4.0]), np.zeros(2)), [0.6, 0.8])

    def test_no_overflow_for_large_arguments(self):
        f0, grad_f0 = tracking_objective(0)
        y = np.array([500.0])
        assert f0(y, np.zeros(0)) == pytest.approx(500.0 - np.log(2.0) / 20.0)
        assert np.isfinite(grad_f0(y, np.zeros(0))).all()

    def test_stacked_value_equals_per_row_values(self):
        p_m, theta, beta = 3, 0.05, 20.0
        f0, _ = tracking_objective(p_m, theta=theta, beta=beta)
        rng = np.random.default_rng(31)
        w = rng.standard_normal(p_m)
        ys = rng.standard_normal((50, 8)) * rng.uniform(0.01, 10.0, (50, 1))
        ys[0, :p_m] = w  # v = 0
        ys[1, p_m:] = [500.0, -500.0, 500.0, 0.0, -500.0]  # exp(|beta y|) overflows
        rows = np.array([f0(y, w) for y in ys])
        assert_bits_equal(f0(ys, w), rows, "stacked f0")
        prog = ConvexProgram.from_callables(8, p_m, f0, lambda y, w: np.zeros(8))
        assert_bits_equal(prog.objective_value(ys, w), rows, "objective_value")
        # the per-row form: np.linalg.norm and a sum over one row
        for y, got in zip(ys, rows):
            s = np.abs(beta * y[p_m:])
            l1 = float(np.sum(s + np.log1p(np.exp(-2.0 * s)) - np.log(2.0)) / beta)
            assert got == float(np.linalg.norm(y[:p_m] - w)) + theta * l1

    def test_stacked_gradient_equals_per_row_gradients(self):
        p_m, theta, beta = 3, 0.05, 20.0
        _, grad_f0 = tracking_objective(p_m, theta=theta, beta=beta)
        rng = np.random.default_rng(32)
        w = np.array([0.0, rng.standard_normal(), 0.0])
        ys = rng.standard_normal((50, 8)) * rng.uniform(0.01, 10.0, (50, 1))
        ys[0, :p_m] = w  # v = 0: the tracking entries are 0
        ys[1, p_m:] = [500.0, -500.0, 500.0, 0.0, -500.0]  # tanh saturates
        ys[2, :p_m] = [1e-300, w[1], -1e-300]  # v != 0, but |v|^2 underflows to 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = np.array([grad_f0(y, w) for y in ys])
            assert_bits_equal(grad_f0(ys, w), rows, "stacked grad_f0")
            assert_bits_equal(grad_f0(ys.reshape(5, 10, 8), w), rows.reshape(5, 10, 8),
                              "grad_f0 on a stack of stacks")
        for i in (0, 2):
            assert_bits_equal(rows[i, :p_m], np.zeros(p_m), f"row {i} tracking part")
        # the per-row form: v / np.linalg.norm(v) and theta tanh(beta y)
        for y, got in zip(ys[3:], rows[3:]):
            v = y[:p_m] - w
            assert_bits_equal(got, np.concatenate([v / float(np.linalg.norm(v)),
                                                   theta * np.tanh(beta * y[p_m:])]), "row")

    def test_parameter_columns_equal_per_row_parameters(self):
        # theta and beta as (S, 1) columns give row i the objective of row i's numbers
        theta, beta = np.array([[0.05], [2.0], [1e-9]]), np.array([[20.0], [3.0], [7.0]])
        r_idx = np.array([2, 0])
        f0, grad_f0 = optprob.tracking_objective(2, r_idx, theta, beta)
        rng = np.random.default_rng(33)
        w = rng.standard_normal(3)
        ys = rng.standard_normal((40, 3, 6))
        ys[0, 1, :2] = w[r_idx]
        for i in range(3):
            f_i, g_i = optprob.tracking_objective(2, r_idx, theta[i, 0], beta[i, 0])
            assert_bits_equal(f0(ys, w)[:, i], f_i(ys[:, i], w), f"row {i} f0")
            assert_bits_equal(grad_f0(ys, w)[:, i], g_i(ys[:, i], w), f"row {i} grad_f0")
            assert_bits_equal(grad_f0(ys[0], w)[i], g_i(ys[0, i], w), f"row {i} one point")

    @pytest.mark.parametrize("kind", ["l2", "l1_logcosh"])
    def test_gradients_match_finite_differences(self, kind):
        f0, grad_f0 = tracking_objective(**{"l2": {"p_m": 4, "theta": 0.0},
                                            "l1_logcosh": {"p_m": 0, "beta": 7.0}}[kind])
        rng = np.random.default_rng(25)
        for _ in range(20):
            y, w = rng.standard_normal(4), rng.standard_normal(4)
            grad = grad_f0(y, w)
            fd = np.zeros(4)
            step = 1e-6 * (1 + np.linalg.norm(y))
            for j in range(4):
                e = np.zeros(4)
                e[j] = step
                fd[j] = (f0(y + e, w) - f0(y - e, w)) / (2 * step)
            assert np.linalg.norm(grad - fd) <= 1e-5 * max(1.0, np.linalg.norm(grad))


class TestGradientChecker:
    def test_accepts_correct_gradient(self):
        prog = ConvexProgram.from_callables(
            2, 1,
            lambda y, w: float(y @ y),
            lambda y, w: 2.0 * np.asarray(y, dtype=float),
        )
        check_gradients(prog, [0.0], random.Random(0))

    def test_rejects_wrong_gradient(self):
        prog = ConvexProgram.from_callables(
            2, 1,
            lambda y, w: float(y @ y),
            lambda y, w: 3.0 * np.asarray(y, dtype=float),
        )
        with pytest.raises(ValueError):
            check_gradients(prog, [0.0], random.Random(0))
