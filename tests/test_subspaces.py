import json

import numpy as np
import pytest

from osscontrol import matlib, scenarios, subspaces
from osscontrol.matlib import (
    max_sine,
    null_basis,
    numerical_rank,
    range_basis,
    solve_linear,
    subspace_equal,
)
from osscontrol.plant import PlantMatrices, UncertainPlant, eval_plant, fixed_plant, per_delta
from osscontrol.power import build_swing_plant, default_network
from osscontrol.subspaces import (
    check_rerfs_range_condition,
    check_rfs,
    check_robust_full_rank,
    check_ros,
    equilibrium_geometry,
    reduced_error_complement_condition,
)

from helpers import (
    assert_bits_equal,
    random_plant,
    rerfs_range_condition_by_sample,
    robust_subspace_by_sample,
    scaled_family,
    singular_family,
)


def swing_pieces(delta=0.0):
    net = default_network()
    up = build_swing_plant(net)
    pm = eval_plant(up, [delta])
    return net, up, pm


class TestEquilibriumGeometry:
    def test_perturbed_two_state_direction(self, two_state_family):
        # from the plant equations the equilibrium outputs move along (1, 1+delta)
        for d in (0.0, 0.5, -0.5):
            pm = eval_plant(two_state_family, [d])
            geom = equilibrium_geometry(pm)
            expected = range_basis(np.array([[1.0], [1.0 + d]]))
            assert subspace_equal(geom.g_range, expected)

    def test_invariants(self, two_state_plant):
        geom = equilibrium_geometry(two_state_plant, h_eq=None)
        ab = np.hstack([two_state_plant.a, two_state_plant.b])
        assert np.abs(ab @ geom.ndelta).max() < 1e-8
        assert np.abs(geom.gperp @ geom.g).max() < 1e-8
        assert geom.gperp.shape[0] + geom.g_range.shape[1] == two_state_plant.p

    def test_swing_network_output_span(self):
        net, _, pm = swing_pieces(0.3)
        geom = equilibrium_geometry(pm)
        damping = np.diag(1.3 * net.damping)
        explicit = np.block([
            [damping @ np.ones((net.n, 1)), net.incidence()],
            [np.ones((net.n, 1)), np.zeros((net.n, net.n_lines))],
        ])
        assert subspace_equal(geom.g_range, range_basis(explicit))

    def test_swing_null_space_matches_explicit_basis(self):
        net, _, pm = swing_pieces(0.0)
        ab = np.hstack([pm.a, pm.b])
        explicit = np.block([
            [np.ones((net.n, 1)), np.zeros((net.n, net.n_lines))],
            [np.zeros((net.n_lines, 1)), np.eye(net.n_lines)],
            [np.diag(net.damping) @ np.ones((net.n, 1)), net.incidence()],
        ])
        assert np.abs(ab @ explicit).max() < 1e-12
        nb = null_basis(ab)
        assert subspace_equal(nb, range_basis(explicit))
        # rank from the explicit null dimension: cols(ab) - (1 + n_lines)
        assert numerical_rank(ab) == ab.shape[1] - explicit.shape[1]

    def test_swing_annihilator_row_space(self):
        net, _, pm = swing_pieces(0.0)
        geom = equilibrium_geometry(pm)
        total_damping = float(np.ones(net.n) @ np.diag(net.damping) @ np.ones(net.n))
        explicit = np.hstack([
            np.ones((net.n, net.n)), -total_damping * np.eye(net.n),
        ])
        assert subspace_equal(range_basis(geom.gperp.T), range_basis(explicit.T))

    def test_membership_constancy_across_equilibria(self):
        # every achievable equilibrium output lands on the same affine slice
        rng = np.random.default_rng(31)
        for _ in range(5):
            pm = random_plant(rng, 4, 2, 3)
            geom = equilibrium_geometry(pm)
            w = rng.standard_normal(1)
            ab = np.hstack([pm.a, pm.b])
            z0 = solve_linear(ab, -pm.bw @ w)
            nb = null_basis(ab)
            ref = None
            for _ in range(200):
                z = z0 + nb @ rng.standard_normal(nb.shape[1])
                y = np.hstack([pm.c, pm.d]) @ z + pm.q @ w
                proj = geom.gperp @ y
                if ref is None:
                    ref = proj
                assert np.abs(proj - ref).max() < 1e-8 * (1 + np.abs(ref).max())

    def test_basis_independence_under_state_permutation(self):
        rng = np.random.default_rng(32)
        pm = random_plant(rng, 5, 2, 3)
        perm = np.eye(5)[rng.permutation(5)]
        pm2 = PlantMatrices(a=perm @ pm.a @ perm.T, b=perm @ pm.b, bw=perm @ pm.bw,
                            c=pm.c @ perm.T, d=pm.d, q=pm.q)
        h = rng.standard_normal((1, 3))
        g1 = equilibrium_geometry(pm, h)
        g2 = equilibrium_geometry(pm2, h)
        assert subspace_equal(g1.g_range, g2.g_range)
        assert subspace_equal(g1.t_basis, g2.t_basis)

    def test_empty_null_space_plant(self):
        # x_dot = -x with no inputs: no equilibrium freedom, annihilator is identity
        pm = PlantMatrices(a=[[-1.0]], b=np.zeros((1, 0)), bw=[[1.0]],
                           c=[[1.0]], d=np.zeros((1, 0)), q=np.zeros((1, 1)))
        geom = equilibrium_geometry(pm)
        assert geom.g.shape[1] == 0
        assert np.allclose(geom.gperp, np.eye(1))


class TestCheckRos:
    def test_nominal_two_state_holds(self, nominal_two_state):
        rep = check_ros(nominal_two_state)
        assert rep["holds"]
        assert subspace_equal(range_basis(rep["g0"]),
                              range_basis(np.array([[1.0], [1.0]])))

    def test_perturbed_family_fails_with_witness(self):
        def evaluate(delta):
            d = float(delta[0])
            return PlantMatrices(
                a=[[-1.0 - d, 0.0], [1.0 + d, -1.0]], b=[[1.0], [-1.0]],
                bw=[[1.0], [1.0]], c=[[1.0, 0.0], [0.0, 0.0]], d=[[0.0], [1.0]],
                q=np.zeros((2, 1)),
            )

        up = UncertainPlant(evaluate=per_delta(evaluate), delta_dim=1,
                            delta_samples=[[0.0], [0.5], [-0.5]])
        rep = check_ros(up)
        assert not rep["holds"]
        ref, bad = rep["witness"]
        assert np.allclose(ref, [0.0]) and np.allclose(bad, [0.5])

    def test_single_sample_always_holds(self):
        rng = np.random.default_rng(33)
        up = fixed_plant(random_plant(rng, 3, 2, 3))
        assert check_ros(up)["holds"]


class TestCheckRfs:
    def test_swing_network_holds_with_expected_span(self):
        net = default_network()
        up = build_swing_plant(net)
        h = np.hstack([np.zeros((net.n, net.n)), np.eye(net.n)])
        rep = check_rfs(up, h)
        assert rep["holds"]
        # feasible directions are (v, 0) with the entries of v summing to zero
        vecs = np.vstack([np.eye(net.n - 1), -np.ones((1, net.n - 1)),
                          np.zeros((net.n, net.n - 1))])
        assert subspace_equal(range_basis(rep["t0"]), range_basis(vecs))

    def test_perturbed_family_fails(self, two_state_family):
        assert not check_rfs(two_state_family)["holds"]

    def test_ros_implies_rfs(self):
        rng = np.random.default_rng(34)
        scenarios = []
        base = random_plant(rng, 3, 3, 3)
        scenarios.append(fixed_plant(base))

        def scaled(delta):
            s = 1.0 + 0.5 * float(delta[0])
            return PlantMatrices(a=s * base.a, b=s * base.b, bw=base.bw,
                                 c=base.c, d=base.d, q=base.q)

        scenarios.append(UncertainPlant(evaluate=per_delta(scaled), delta_dim=1,
                                        delta_samples=[[0.0], [1.0]]))
        h = rng.standard_normal((1, 3))
        for up in scenarios:
            if check_ros(up)["holds"]:
                assert check_rfs(up, h)["holds"]


def rfs_violation_family(rng):
    """``rfs-violation``'s plant, whose output subspace rotates with delta, at
    DELTA_BLOCK + 1 seeded draws besides the nominal sample.  Its box is
    dropped so that one draw can be delta = -1, where A is singular: null
    [A B] of that sample comes from the SVD, not from A^-1 B, in a group of
    its own inside the block."""
    doc = json.loads(scenarios.bundled_path("rfs-violation").read_text())
    drawn = rng.uniform(-0.5, 0.5, matlib.DELTA_BLOCK + 1)
    drawn[matlib.DELTA_BLOCK // 2] = -1.0
    del doc["plant"]["delta_box"]
    doc["plant"]["delta_samples"] = [[0.0]] + [[v] for v in drawn]
    sc = scenarios.load_scenario(doc)
    return sc.plant, sc.variants[0].program.h_eq


SHARED_FAMILIES = {
    "rfs-violation": rfs_violation_family,
    # A singular and G losing rank at special samples inside the blocks
    "singular": lambda rng: (singular_family(rng, matlib.DELTA_BLOCK - 4), None),
    # range G fixed: ROS holds, and RFS under a fixed H
    "scaled": lambda rng: (scaled_family(rng, draws=matlib.DELTA_BLOCK + 1), None),
}


def reports_by_sample(up: UncertainPlant, h_eq, tol: float = 1e-8) -> dict:
    """The ROS and RFS reports built one delta at a time: each sample's basis
    from ``equilibrium_geometry``, its sine from ``max_sine`` against the
    nominal basis, 1 when the dimensions differ."""
    geoms = [equilibrium_geometry(eval_plant(up, d), h_eq) for d in up.delta_samples]
    out = {}
    for key, field in (("g0", "g_range"), ("t0", "t_basis")):
        bases = [getattr(geom, field) for geom in geoms]
        ref = bases[0]
        same = [b.shape[1] == ref.shape[1] for b in bases[1:]]
        sines = [float(max_sine(ref, b)) if ok else 1.0 for b, ok in zip(bases[1:], same)]
        matches = [ok and sine <= tol for ok, sine in zip(same, sines)]
        bad = [d for d, ok in zip(up.delta_samples[1:], matches) if not ok]
        out[key] = {"holds": not bad, "ref": ref, "sines": sines, "matches": matches,
                    "witness": (up.delta_samples[0], bad[0]) if bad else None}
    return out


class TestSharedPass:
    @pytest.mark.parametrize("family", sorted(SHARED_FAMILIES))
    @pytest.mark.parametrize("kind", ["own", "two-rows"])
    def test_ros_and_rfs_equal_each_sample_alone(self, family, kind, delta_block):
        rng = np.random.default_rng(50 + sorted(SHARED_FAMILIES).index(family))
        up, h_eq = SHARED_FAMILIES[family](rng)
        assert len(up.delta_samples) == delta_block + 2  # the nominal block and two more
        if kind == "two-rows":
            h_eq = rng.standard_normal((2, eval_plant(up, up.nominal).p))
        rfs = check_rfs(up, h_eq)
        want = reports_by_sample(up, h_eq)
        for key, rep in (("t0", rfs), ("g0", rfs["ros"]), ("g0", check_ros(up, h_eq))):
            ref = want[key]
            assert rep["holds"] is ref["holds"], key
            assert rep["deltas"] == len(up.delta_samples)
            assert rep["matches"][0] and rep["sines"][0] == 0.0  # the nominal sample
            assert rep["matches"][1:].tolist() == ref["matches"], key
            assert_bits_equal(rep["sines"][1:], np.array(ref["sines"]), f"{key} sines")
            assert rep["max_sine"] == max([0.0] + ref["sines"])
            if ref["holds"]:
                assert rep["witness"] is None
                assert_bits_equal(rep[key], ref["ref"], key)
            else:
                assert rep[key] is None
                assert all(np.array_equal(a, b) for a, b in zip(rep["witness"], ref["witness"]))
        if family == "scaled":
            assert rfs["ros"]["holds"]
        if family == "rfs-violation" and kind == "own":
            assert not rfs["holds"]


class TestRobustFullRank:
    def test_single_integrator(self):
        pm = PlantMatrices(a=[[0.0]], b=[[1.0]], bw=[[1.0]], c=[[1.0]], d=[[0.0]],
                           q=[[0.0]])
        assert check_robust_full_rank(fixed_plant(pm))

    def test_more_outputs_than_inputs_fails(self, singular_unstable_plant):
        # n + p exceeds the column count n + m, so full row rank is impossible
        assert not check_robust_full_rank(fixed_plant(singular_unstable_plant))

    def test_swing_fails(self):
        _, up, _ = swing_pieces()
        assert not check_robust_full_rank(up)


class TestReducedErrorRangeCondition:
    def test_empty_equalities_vacuous(self, nominal_two_state):
        rep = check_rerfs_range_condition(nominal_two_state, np.zeros((0, 2)),
                                          np.zeros((2, 0)))
        assert rep["holds"]

    def test_swing_full_frequency_constraint(self):
        # subspace matrix [laplacian'; 0]: its transpose spans the orthogonal
        # complement of the left-null vector of the Laplacian, and F = I pushes
        # the all-ones direction out of it, so the spaces meet only at zero
        net, up, _ = swing_pieces()
        h = np.hstack([np.zeros((net.n, net.n)), np.eye(net.n)])
        t0 = np.vstack([net.laplacian.T, np.zeros((net.n, net.n))])
        assert check_rerfs_range_condition(up, h, t0)["holds"]

    def test_alternating_frequency_weights_fail(self):
        # F 1 nonzero but orthogonal to the Laplacian's left-null vector puts
        # the weighted-frequency direction inside the averaging span
        net, up, _ = swing_pieces()
        f = np.diag([1.0, -1.0, 1.0, -1.0])
        h = np.hstack([np.zeros((net.n, net.n)), f])
        t0 = np.vstack([net.laplacian.T, np.zeros((net.n, net.n))])
        assert not check_rerfs_range_condition(up, h, t0)["holds"]

    def test_square_full_rank_projection_fails(self, nominal_two_state):
        # t0' spans everything, so any nonzero H G direction lands inside it
        h = np.array([[1.0, 0.0]])
        t0 = np.array([[1.0], [0.0]])
        rep = check_rerfs_range_condition(nominal_two_state, h, t0)
        # H G = [1 0] @ (1,1) = 1 != 0 and range t0' = R^1
        assert not rep["holds"]


def rerfs_case(name: str, rng):
    """(family, h_eq, t0, whether the condition holds): seeded families of
    three blocks (the nominal sample, DELTA_BLOCK more and one after them).

    On ``singular_family`` (p = 3, G of rank 2 but rank 1 where its last
    input column vanishes) range(H G) is the plane R^2 for two generic rows
    of H and meets a line range(t0'); two parallel rows keep it a line.  On
    ``scaled_family`` (p = 4, G of rank 2), range(H G) is a plane in R^3: it
    misses a generic line and meets a plane.
    """
    family, h_kind = name.split("-")
    if family == "singular":
        up, p, k = singular_family(rng, matlib.DELTA_BLOCK - 4), 3, 2
    else:
        up, p, k = scaled_family(rng, draws=matlib.DELTA_BLOCK + 1), 4, 3
    h0, _ = rng.standard_normal((2, k, p))
    line = np.outer(rng.standard_normal(p), rng.standard_normal(k))
    plane = rng.standard_normal((p, 2)) @ rng.standard_normal((2, k))
    return {
        "singular-fixed": (up, h0, line, False),
        "singular-parallel": (up, np.outer(np.arange(1.0, k + 1), h0[0]), line, True),
        "scaled-fixed": (up, h0, plane, False),
        "scaled-line": (up, h0, line, True),
    }[name]


RERFS_CASES = ("singular-fixed", "singular-parallel", "scaled-fixed", "scaled-line")


@pytest.mark.parametrize("name", RERFS_CASES)
def test_rerfs_range_condition_equals_each_sample_alone(name, delta_block):
    rng = np.random.default_rng(70 + RERFS_CASES.index(name))
    up, h_eq, t0, holds = rerfs_case(name, rng)
    assert len(up.delta_samples) > delta_block + 1  # the nominal block and two more
    got = check_rerfs_range_condition(up, h_eq, t0)
    want = rerfs_range_condition_by_sample(up, h_eq, t0)
    assert got["holds"] is want["holds"] is holds
    assert got["matches"].tolist() == want["matches"]
    if holds:
        assert got["witness"] is None is want["witness"]
    else:
        assert np.array_equal(got["witness"], want["witness"])
        assert np.array_equal(got["witness"], up.delta_samples[np.argmin(got["matches"])])


@pytest.mark.parametrize("t0, message", [(np.zeros((3, 1)), "t0 must have 2 rows, got 3"),
                                         (np.zeros((2, 2)), "t0 needs 1 columns, got 2")],
                         ids=["rows", "columns"])
def test_rerfs_range_condition_rejects_t0_shapes(two_state_family, t0, message):
    for check in (check_rerfs_range_condition, rerfs_range_condition_by_sample):
        with pytest.raises(ValueError, match=message):
            check(two_state_family, np.array([[1.0, 0.0]]), t0)


def complement_condition(pm, h, t0) -> bool:
    """The reduced-error complement condition at one realization."""
    return reduced_error_complement_condition(h, equilibrium_geometry(pm, h).g, t0)[0]


class TestProp6DetectabilityCondition:
    def test_full_rank_projection_holds(self, two_state_plant):
        h = np.array([[1.0, 0.0]])
        t0 = np.array([[1.0], [0.0]])
        assert complement_condition(two_state_plant, h, t0)

    def test_annihilated_output_with_deficient_projection_fails(self):
        # H G = 0 and t0 = 0: both complements are everything
        pm = PlantMatrices(a=[[-1.0]], b=[[1.0]], bw=[[1.0]],
                           c=[[1.0], [0.0]], d=[[0.0], [1.0]], q=np.zeros((2, 1)))
        h = equilibrium_geometry(pm).gperp[:1, :]
        assert not complement_condition(pm, h, np.zeros((2, 1)))

    def test_swing_dapi_case(self):
        net, up, _ = swing_pieces()
        h = np.hstack([np.zeros((net.n, net.n)), np.eye(net.n)])
        t0 = np.vstack([net.laplacian.T, np.zeros((net.n, net.n))])
        assert all(complement_condition(eval_plant(up, d), h, t0) for d in up.delta_samples)


def test_cond_falls_back_per_matrix_when_an_svd_fails():
    # a plant's matrices are finite, and LAPACK's SVD does not fail on those
    # in practice; a NaN entry fails the stacked SVD, and the retry gives that matrix inf and
    # every other its own condition number
    stack = np.array([np.diag([np.nan, 1.0]), np.diag([2.0, 1.0])])
    got = subspaces._cond(stack)
    assert got[0] == np.inf and got[1] == np.linalg.cond(stack[1]) == 2.0
