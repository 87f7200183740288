import numpy as np
import pytest

from osscontrol.matlib import (
    SubspaceBasis,
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


def basis_of(cols) -> SubspaceBasis:
    return range_basis(np.asarray(cols, dtype=float))


class TestNumericalRank:
    def test_identity(self):
        assert numerical_rank(np.eye(3), 1e-12) == 3

    def test_rank_one_outer_product(self):
        assert numerical_rank([[1, 2], [2, 4]], 1e-12) == 1

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
        assert nb.is_empty and nb.ambient_dim == 2

    def test_row_vector(self):
        nb = null_basis([[1.0, 1.0]])
        expected = np.array([[1.0], [-1.0]]) / np.sqrt(2)
        assert subspace_equal(nb, SubspaceBasis(expected, 2))

    def test_zero_rows_means_everything(self):
        nb = null_basis(np.zeros((0, 3)))
        assert nb.dim == 3

    def test_annihilation_residual(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((4, 7))
        nb = null_basis(m)
        smax = np.linalg.svd(m, compute_uv=False)[0]
        assert np.abs(m @ nb.basis).max() <= 1e-8 * (1 + smax)


class TestRangeBasis:
    def test_zero_matrix(self):
        assert range_basis(np.zeros((3, 2))).is_empty

    def test_ones_column(self):
        rb = range_basis([[1.0], [1.0]])
        assert subspace_equal(rb, basis_of([[1.0], [1.0]]))

    def test_slanted_column(self):
        rb = range_basis([[1.0], [0.5]])
        v = np.array([1.0, 0.5]) / np.linalg.norm([1.0, 0.5])
        assert np.abs(np.abs(rb.basis.ravel() @ v) - 1.0) < 1e-12

    def test_projection_residual(self):
        rng = np.random.default_rng(4)
        m = rng.standard_normal((6, 3))
        rb = range_basis(m)
        resid = m - rb.projector() @ m
        smax = np.linalg.svd(m, compute_uv=False)[0]
        assert np.abs(resid).max() <= 1e-8 * (1 + smax)


class TestLeftNullBasis:
    def test_identity_empty(self):
        assert left_null_basis(np.eye(3)).is_empty

    def test_ones_column(self):
        lb = left_null_basis([[1.0], [1.0]])
        expected = np.array([[1.0], [-1.0]]) / np.sqrt(2)
        assert subspace_equal(lb, SubspaceBasis(expected, 2))

    def test_annihilates_from_left(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((5, 2))
        lb = left_null_basis(m)
        smax = np.linalg.svd(m, compute_uv=False)[0]
        assert np.abs(lb.basis.T @ m).max() <= 1e-8 * (1 + smax)


class TestSubspaceEqual:
    def test_reflexive(self):
        u = basis_of([[1.0, 0.0], [0.0, 1.0], [1.0, -1.0]])
        assert subspace_equal(u, u)

    def test_axis_planes_differ(self):
        e1 = basis_of([[1.0], [0.0]])
        e2 = basis_of([[0.0], [1.0]])
        assert not subspace_equal(e1, e2)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            subspace_equal(basis_of([[1.0], [0.0]]), basis_of([[1.0], [0.0], [0.0]]))

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
            v = SubspaceBasis(u.basis @ q, n)
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
        assert subspace_intersection(e1, e2).is_empty

    def test_plane_intersection(self):
        u = basis_of([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        v = basis_of([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
        inter = subspace_intersection(u, v)
        assert subspace_equal(inter, basis_of([[1.0], [0.0], [0.0]]))


class TestEigenvalues:
    def test_diagonal(self):
        ev = np.sort(eigenvalues(np.diag([1.0, 2.0])).real)
        assert np.allclose(ev, [1.0, 2.0])

    def test_rotation_pair(self):
        ev = eigenvalues([[0.0, 1.0], [-1.0, 0.0]])
        assert np.allclose(np.sort(ev.imag), [-1.0, 1.0])
        assert np.allclose(ev.real, 0.0)

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


class TestToolkitInvariants:
    def test_rank_nullity_and_orthonormality(self):
        rng = np.random.default_rng(9)
        for _ in range(300):
            rows = int(rng.integers(1, 8))
            cols = int(rng.integers(1, 8))
            rank_cap = int(rng.integers(0, min(rows, cols) + 1))
            m = (rng.standard_normal((rows, rank_cap))
                 @ rng.standard_normal((rank_cap, cols))) if rank_cap else np.zeros((rows, cols))
            r = numerical_rank(m)
            nb = null_basis(m)
            assert r + nb.dim == cols
            if nb.dim:
                assert np.abs(nb.basis.T @ nb.basis - np.eye(nb.dim)).max() < 1e-10
            rb = range_basis(m)
            assert rb.dim == r
