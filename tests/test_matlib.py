import numpy as np
import pytest

from osscontrol.matlib import (
    _fd_jacobian,
    eigenvalues,
    left_null_basis,
    null_basis,
    numerical_rank,
    range_basis,
    rank_decision,
    solve_linear,
    subspace_equal,
    subspace_intersection,
)


def basis_of(cols) -> np.ndarray:
    return range_basis(np.asarray(cols, dtype=float))


class TestNumericalRank:
    def test_identity(self):
        assert numerical_rank(np.eye(3)) == 3

    def test_rank_one_outer_product(self):
        assert numerical_rank([[1, 2], [2, 4]]) == 1

    def test_zero_matrix(self):
        assert numerical_rank(np.zeros((4, 2))) == 0

    def test_empty_matrix(self):
        assert numerical_rank(np.zeros((0, 3))) == 0

    def test_rank_decision_margin(self):
        # threshold 1e-10 * 1 * 3: rank 2 is decided with sigma_2 far above it,
        # rank 3 fails exactly because sigma_3 is zero
        ok, margin = rank_decision(np.diag([1.0, 1e-3, 0.0]), 2)
        assert ok and margin == pytest.approx(1e-3 / 3e-10)
        assert rank_decision(np.diag([1.0, 1e-3, 0.0]), 3) == (False, np.inf)
        ok, margin = rank_decision(np.diag([1.0, 1e-4]), 2, tol=1e-6)
        assert ok and margin == pytest.approx(50.0)
        ok, margin = rank_decision(np.diag([1.0, 1e-8]), 2, tol=1e-6)
        assert not ok and margin == pytest.approx(200.0)


class TestNullBasis:
    def test_identity_has_empty_null_space(self):
        nb = null_basis(np.eye(2))
        assert nb.shape == (2, 0)

    def test_row_vector(self):
        nb = null_basis([[1.0, 1.0]])
        expected = np.array([[1.0], [-1.0]]) / np.sqrt(2)
        assert subspace_equal(nb, expected)

    def test_zero_rows_means_everything(self):
        nb = null_basis(np.zeros((0, 3)))
        assert nb.shape == (3, 3)

    def test_annihilation_residual(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((4, 7))
        nb = null_basis(m)
        smax = np.linalg.svd(m, compute_uv=False)[0]
        assert np.abs(m @ nb).max() <= 1e-8 * (1 + smax)


class TestRangeBasis:
    def test_zero_matrix(self):
        assert range_basis(np.zeros((3, 2))).shape == (3, 0)

    def test_ones_column(self):
        rb = range_basis([[1.0], [1.0]])
        assert subspace_equal(rb, basis_of([[1.0], [1.0]]))

    def test_slanted_column(self):
        rb = range_basis([[1.0], [0.5]])
        v = np.array([1.0, 0.5]) / np.linalg.norm([1.0, 0.5])
        assert np.abs(np.abs(rb.ravel() @ v) - 1.0) < 1e-12

    def test_projection_residual(self):
        rng = np.random.default_rng(4)
        m = rng.standard_normal((6, 3))
        rb = range_basis(m)
        resid = m - rb @ (rb.T @ m)
        smax = np.linalg.svd(m, compute_uv=False)[0]
        assert np.abs(resid).max() <= 1e-8 * (1 + smax)


class TestLeftNullBasis:
    def test_identity_empty(self):
        assert left_null_basis(np.eye(3)).shape == (3, 0)

    def test_ones_column(self):
        lb = left_null_basis([[1.0], [1.0]])
        expected = np.array([[1.0], [-1.0]]) / np.sqrt(2)
        assert subspace_equal(lb, expected)

    def test_annihilates_from_left(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((5, 2))
        lb = left_null_basis(m)
        smax = np.linalg.svd(m, compute_uv=False)[0]
        assert np.abs(lb.T @ m).max() <= 1e-8 * (1 + smax)


class TestSubspaceEqual:
    def test_reflexive(self):
        u = basis_of([[1.0, 0.0], [0.0, 1.0], [1.0, -1.0]])
        assert subspace_equal(u, u)

    def test_axis_planes_differ(self):
        e1 = basis_of([[1.0], [0.0]])
        e2 = basis_of([[0.0], [1.0]])
        assert not subspace_equal(e1, e2)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError, match="^ambient dimensions differ: 2 vs 3$"):
            subspace_equal(basis_of([[1.0], [0.0]]), basis_of([[1.0], [0.0], [0.0]]))

    def test_a_line_is_not_a_plane_that_holds_it(self):
        # same ambient space, different dimensions: unequal without comparing angles
        line = basis_of([[1.0], [0.0], [0.0]])
        assert not subspace_equal(line, PLANE) and not subspace_equal(PLANE, line)

    def test_rotated_output_directions_differ(self):
        # equilibrium-output spans of the perturbed two-state plant at two deltas
        g0 = basis_of([[1.0], [1.0]])
        g_half = basis_of([[1.0], [1.5]])
        assert not subspace_equal(g0, g_half)

    def test_invariant_under_orthogonal_remix(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            n, k = 6, 3
            u = range_basis(rng.standard_normal((n, k)))
            q, _ = np.linalg.qr(rng.standard_normal((k, k)))
            v = u @ q
            assert subspace_equal(u, v)
            w = range_basis(rng.standard_normal((n, k)))
            assert subspace_equal(u, w) == subspace_equal(w, u)


class TestSubspaceIntersection:
    def test_self_intersection(self):
        u = basis_of([[1.0], [0.0], [0.0]])
        assert subspace_equal(subspace_intersection(u, u), u)

    def test_orthogonal_lines_meet_trivially(self):
        e1 = basis_of([[1.0], [0.0]])
        e2 = basis_of([[0.0], [1.0]])
        assert subspace_intersection(e1, e2).shape == (2, 0)

    def test_plane_intersection(self):
        u = basis_of([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        v = basis_of([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
        inter = subspace_intersection(u, v)
        assert subspace_equal(inter, basis_of([[1.0], [0.0], [0.0]]))

    @pytest.mark.parametrize("n", [1, 2, 3, 6])
    def test_bases_of_the_whole_space_meet_in_it(self, n):
        # orthonormal bases of R^n other than the identity: I - q q' is
        # roundoff, and used to read as full rank
        rng = np.random.default_rng(70 + n)
        for _ in range(10):
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            r, _ = np.linalg.qr(rng.standard_normal((n, n)))
            for u, v in ((q, q), (q, r), (q, np.eye(n))):
                inter = subspace_intersection(u, v)
                assert inter.shape == (n, n)
                assert subspace_equal(inter, np.eye(n))

    def test_random_subspaces_meet_in_their_shared_columns(self):
        # u spans columns [0, k) of a random orthonormal q and v columns
        # [k - j, k - j + l), each in a rotated basis: they meet in the j
        # shared columns, the whole space and the trivial meet among them
        rng = np.random.default_rng(77)
        for _ in range(40):
            n = int(rng.integers(1, 7))
            k, l = (int(x) for x in rng.integers(0, n + 1, 2))
            j = int(rng.integers(max(0, k + l - n), min(k, l) + 1))
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            u = q[:, :k] @ np.linalg.qr(rng.standard_normal((k, k)))[0]
            v = q[:, k - j: k - j + l] @ np.linalg.qr(rng.standard_normal((l, l)))[0]
            inter = subspace_intersection(u, v)
            assert inter.shape == (n, j), (n, k, l, j)
            assert subspace_equal(inter, q[:, k - j: k]), (n, k, l, j)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError, match="^ambient dimensions differ: 3 vs 2$"):
            subspace_intersection(PLANE, basis_of([[1.0], [0.0]]))


EMPTY = np.zeros((3, 0))
PLANE = basis_of([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])


# numpy's full SVD of a matrix with no rows or no columns still returns square
# factors of the other side, so each basis keeps the ambient dimension of its
# side: the whole space, or zero columns
@pytest.mark.parametrize("make, shape", [
    (lambda: null_basis(np.zeros((0, 3))), (3, 3)),
    (lambda: null_basis(np.zeros((3, 0))), (0, 0)),
    (lambda: range_basis(np.zeros((0, 3))), (0, 0)),
    (lambda: range_basis(np.zeros((3, 0))), (3, 0)),
    (lambda: left_null_basis(np.zeros((0, 3))), (0, 0)),
    (lambda: left_null_basis(np.zeros((3, 0))), (3, 3)),
    (lambda: subspace_intersection(EMPTY, PLANE), (3, 0)),
    (lambda: subspace_intersection(PLANE, EMPTY), (3, 0)),
    (lambda: subspace_intersection(EMPTY, EMPTY), (3, 0)),
], ids=["null-0-rows", "null-0-cols", "range-0-rows", "range-0-cols", "left-null-0-rows",
        "left-null-0-cols", "meet-empty-plane", "meet-plane-empty", "meet-empty-empty"])
def test_zero_dimension_bases(make, shape):
    got = make()
    assert got.shape == shape
    assert np.array_equal(got, np.eye(*shape))


class TestEigenvalues:
    def test_diagonal(self):
        ev = np.sort(eigenvalues(np.diag([1.0, 2.0])).real)
        assert np.allclose(ev, [1.0, 2.0])

    def test_rotation_pair(self):
        ev = eigenvalues([[0.0, 1.0], [-1.0, 0.0]])
        assert np.allclose(np.sort(ev.imag), [-1.0, 1.0])
        assert np.allclose(ev.real, 0.0)

    def test_empty_matrix_and_stack(self):
        # no eigenvalues, complex like every other result that is not all real
        for shape in ((0, 0), (3, 0, 0)):
            ev = eigenvalues(np.zeros(shape))
            assert ev.shape == shape[:-1] and ev.dtype == complex

    def test_nonsquare_rejected(self):
        with pytest.raises(ValueError):
            eigenvalues(np.zeros((2, 3)))

    def test_similarity_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            a = rng.standard_normal((n, n))
            while True:
                p = rng.standard_normal((n, n))
                if np.linalg.cond(p) < 50:
                    break
            ev1 = np.sort_complex(eigenvalues(a))
            ev2 = np.sort_complex(eigenvalues(p @ a @ np.linalg.inv(p)))
            assert np.abs(ev1 - ev2).max() < 1e-8 * (1 + np.abs(ev1).max())


class TestSolveLinear:
    def test_identity(self):
        b = np.array([1.0, 2.0])
        assert np.allclose(solve_linear(np.eye(2), b), b)

    def test_overdetermined_consistent(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((6, 3))
        x = rng.standard_normal(3)
        assert np.allclose(solve_linear(a, a @ x), x)

    def test_min_norm_among_minimizers(self):
        a = np.array([[1.0, 0.0, 0.0]])
        x = solve_linear(a, np.array([2.0]))
        assert np.allclose(x, [2.0, 0.0, 0.0])

    def test_row_mismatch_raises(self):
        with pytest.raises(ValueError):
            solve_linear(np.eye(2), np.zeros(3))


def test_fd_jacobian_of_an_affine_map():
    # central differences of an affine map: each column is A's to roundoff
    # of the step, which is 1e-7 (1 + |x_j|)
    a = np.array([[1.0, 2.0, 0.0], [0.0, -3.0, 0.5]])
    x = np.array([0.5, -2.0, 10.0])
    jac = _fd_jacobian(lambda z: a @ z + 1.0, x)
    assert jac.shape == (2, 3)
    np.testing.assert_allclose(jac, a, rtol=0, atol=1e-7)


def assert_orthonormal(basis: np.ndarray, rows: int) -> None:
    assert basis.shape[0] == rows
    assert np.abs(basis.T @ basis - np.eye(basis.shape[1])).max(initial=0.0) < 1e-10


class TestToolkitInvariants:
    def test_rank_nullity_and_orthonormality(self):
        # every basis the toolkit returns is a plain array of orthonormal
        # columns with the dimension rank-nullity gives it
        rng = np.random.default_rng(9)
        for _ in range(300):
            rows = int(rng.integers(1, 8))
            cols = int(rng.integers(1, 8))
            rank_cap = int(rng.integers(0, min(rows, cols) + 1))
            m = (rng.standard_normal((rows, rank_cap))
                 @ rng.standard_normal((rank_cap, cols))) if rank_cap else np.zeros((rows, cols))
            r = numerical_rank(m)
            nb, rb, lb = null_basis(m), range_basis(m), left_null_basis(m)
            for basis, ambient, dim in ((nb, cols, cols - r), (rb, rows, r), (lb, rows, rows - r)):
                assert basis.shape == (ambient, dim)
                assert_orthonormal(basis, ambient)
            # the range and the left null space split R^rows orthogonally
            assert np.abs(rb.T @ lb).max(initial=0.0) < 1e-10
            sub = range_basis(m[:, : cols // 2])
            meet = subspace_intersection(rb, sub)
            assert_orthonormal(meet, rows)
            assert meet.shape[1] <= sub.shape[1]
            for basis in (rb, sub):  # the meet lies in both subspaces
                assert np.abs(meet - basis @ (basis.T @ meet)).max(initial=0.0) < 1e-8
            assert not subspace_intersection(rb, lb).shape[1]
