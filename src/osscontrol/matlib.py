"""Dense linear algebra and rank-revealing subspace toolkit.

A subspace of R^n is carried as a plain (n, k) array whose columns are an
orthonormal basis of it, so equality and intersection tests are well
conditioned.  The empty subspace is a first-class value: a basis with zero
columns.

A singular value counts toward a rank when it is above ``RANK_TOL *
sigma_max * max(rows, cols)`` (``RANK_TOL`` 1e-10; also an absolute floor in
``subspace_intersection``), and subspaces are equal when their largest
principal-angle sine is at most ``SINE_TOL`` (1e-8).  ``rank_decision`` is
the one yes/no rank test, at a given ``tol``: it also returns its margin,
the deciding singular value over the threshold (or the reciprocal when the
answer is no), so borderline calls are visible to callers.
"""

from __future__ import annotations

import numpy as np

RANK_TOL = 1e-10
SINE_TOL = 1e-8
# Rows per block of a stacked computation: times per block of a trajectory's
# outputs in the convergence metrics, steps per divergence check of the
# integrator and delta samples per block of the subspace and spectrum checks.
# A trajectory stores only its states; its outputs are evaluated where they
# are read, a block at a time, because outputs over a whole trajectory at once
# need temporaries several times its size.
ROW_BLOCK = 256
# Delta samples per block of the subspace and spectrum checks, read when a
# pass starts (``delta_spans``).  A block is one stacked call of each matrix
# function, which spreads numpy's per-call overhead over its samples; past
# that the pass is bound by LAPACK (``eigvals`` and ``svd`` take about half
# its time).  Checking three 1000-draw dense documents (2-CPU guest, one
# BLAS thread, medians of 12 alternating passes, two processes) took
# 106.8/145.4 ms with blocks of 64, 98.0/135.8 ms with 128, 95.4/130.1 ms
# with 256 and 97.4/134.1 ms with 1024, with the same reports.  A sample's
# temporaries (its plant matrices, SVD factors, closed-loop probe) take about
# ten kilobytes, so a block holds a few megabytes at most.
DELTA_BLOCK = ROW_BLOCK


def delta_spans(start: int, stop: int) -> list[tuple[int, int]]:
    """``(lo, hi)`` index spans of at most DELTA_BLOCK samples, in order,
    covering ``start`` to ``stop``."""
    return [(lo, min(lo + DELTA_BLOCK, stop)) for lo in range(start, stop, DELTA_BLOCK)]


def as_matrix(m) -> np.ndarray:
    """Coerce input to a finite 2-D float array."""
    a = np.atleast_2d(np.asarray(m, dtype=float))
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got array of ndim {a.ndim}")
    if a.size and not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def _row_matrix(m, cols: int) -> np.ndarray:
    """``m`` as a matrix of ``cols`` columns (``as_matrix``), such as the rows
    of H; None or an empty ``m`` is (0, cols)."""
    return as_matrix(m).reshape(-1, cols) if m is not None and np.size(m) else np.zeros((0, cols))


def _rank_threshold(s: np.ndarray, shape, tol: float, floor: float = 0.0):
    """Singular values above this count toward the rank (``s`` nonempty,
    descending; (..., k) for a stack of matrices of ``shape``, one threshold
    per matrix)."""
    return np.maximum(tol * s[..., 0] * max(shape), floor)


def _rank_from_singular_values(s: np.ndarray, shape, floor: float = 0.0):
    """Numerical rank from descending singular values; for a stack (..., k),
    one rank per matrix."""
    if s.shape[-1] == 0:
        return np.zeros(s.shape[:-1], dtype=np.intp)
    thresh = _rank_threshold(s, shape, RANK_TOL, floor)
    rank = np.count_nonzero(s > np.expand_dims(thresh, -1), axis=-1)
    return np.where(s[..., 0] <= floor, 0, rank)


def rank_groups(stack: np.ndarray) -> list:
    """Full SVDs of a stack of matrices (S, r, c), grouped by numerical rank.

    One ``(rows, u, vt, rank)`` for each rank that occurs, ``rows`` the
    indices into the stack.  ``np.linalg.svd`` runs the same LAPACK routine on
    each matrix of a stack as on one matrix, so every factor is bit-identical
    to the SVD of its matrix alone.
    """
    u, s, vt = np.linalg.svd(stack, full_matrices=True)
    ranks = _rank_from_singular_values(s, stack.shape[-2:])
    groups = []
    for rank in np.flatnonzero(np.bincount(ranks)):
        rows = np.flatnonzero(ranks == rank)
        groups.append((rows, u[rows], vt[rows], int(rank)))
    return groups


def _factors_and_rank(m, floor: float = 0.0):
    """``u``, ``vt`` of the full SVD of ``m`` (``as_matrix``) and its
    numerical rank."""
    a = as_matrix(m)
    u, s, vt = np.linalg.svd(a, full_matrices=True)
    return u, vt, int(_rank_from_singular_values(s, a.shape, floor))


def numerical_rank(m) -> int:
    """Number of singular values above ``RANK_TOL * sigma_max * max(rows, cols)``."""
    return _factors_and_rank(m)[2]


def rank_decision(m, want_rank: int, tol: float = RANK_TOL) -> tuple[bool, float]:
    """Decide ``rank(m) >= want_rank`` for a real or complex matrix.

    Uses the threshold of :func:`numerical_rank`.  The margin is
    ``sigma_want / threshold`` when the answer is yes and its reciprocal when
    it is no, so a margin near 1 flags a borderline call; it is ``inf`` when
    the call is exact (``want_rank`` 0, an empty or zero matrix, or
    ``sigma_want`` exactly zero).
    """
    if want_rank == 0:
        return True, np.inf
    a = np.asarray(m)
    if a.size == 0:
        return False, np.inf
    s = np.linalg.svd(a, compute_uv=False)
    if s[0] == 0.0:
        return False, np.inf
    thresh = _rank_threshold(s, a.shape, tol)
    sigma = s[want_rank - 1] if want_rank <= s.size else 0.0
    if sigma > thresh:
        return True, float(sigma / thresh)
    return False, np.inf if sigma == 0.0 else float(thresh / sigma)


def null_basis(m, floor: float = 0.0) -> np.ndarray:
    """Orthonormal basis of the right null space of ``m``, (cols, k); ``floor``
    is an absolute cutoff for a product that may cancel to roundoff."""
    _, vt, r = _factors_and_rank(m, floor)
    return vt[r:].T.copy()


def range_basis(m, floor: float = 0.0) -> np.ndarray:
    """Orthonormal basis of the column space of ``m``, (rows, k); ``floor`` as in ``null_basis``."""
    u, _, r = _factors_and_rank(m, floor)
    return u[:, :r].copy()


def left_null_basis(m) -> np.ndarray:
    """Orthonormal basis of the left null space (orthogonal complement of the
    range) of ``m``, (rows, k)."""
    u, _, r = _factors_and_rank(m)
    return u[:, r:].copy()


def _same_ambient(u: np.ndarray, v: np.ndarray) -> None:
    if u.shape[0] != v.shape[0]:
        raise ValueError(f"ambient dimensions differ: {u.shape[0]} vs {v.shape[0]}")


def subspace_equal(u: np.ndarray, v: np.ndarray) -> bool:
    """True iff the subspaces spanned by the orthonormal bases ``u`` and ``v``
    have equal dimension and max principal-angle sine <= SINE_TOL."""
    _same_ambient(u, v)
    if u.shape[1] != v.shape[1]:
        return False
    return float(max_sine(u, v)) <= SINE_TOL


def max_sine(u: np.ndarray, v: np.ndarray):
    """Largest principal-angle sine between range(u) and range(v), for
    orthonormal bases with equal column counts (0 when both are empty); for a
    stack of bases v (..., n, k), one sine per basis.

    The sines come from the complement projection, which resolves small
    angles far better than sqrt(1 - cos^2) of the principal cosines.
    """
    if u.shape[-1] == 0:
        return np.zeros(v.shape[:-2])
    return np.linalg.svd(v - u @ (u.T @ v), compute_uv=False)[..., 0]


def subspace_intersection(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the intersection of the subspaces spanned by the
    orthonormal bases ``u`` and ``v``.

    Computed as the null space of ``[I - u u'; I - v v']``, whose blocks
    map onto the orthogonal complements.  That stack's singular values are
    at most sqrt(2), and zero along the intersection; when both bases span
    the whole space they are all roundoff, which a threshold relative to the
    largest would count toward the rank.  So ``RANK_TOL`` is also an
    absolute floor: a singular value below it counts as zero.
    """
    _same_ambient(u, v)
    n = u.shape[0]
    return null_basis(np.vstack([np.eye(n) - u @ u.T, np.eye(n) - v @ v.T]), floor=RANK_TOL)


# ``_mv(a, z)`` is ``a @ z`` for one vector z (n,) or for each row of a stack
# (..., n), and ``_vdot(x, y)`` is ``x @ y`` for vectors or per row of stacks.
# np.matvec and np.vecdot make the same BLAS call per row as the product of
# one row (gemv, dot), so row i is bit-identical to ``a @ z[i]`` (``z @ a.T``
# is one GEMM with a different summation order, and is not).  ``y @ a`` per
# row is ``_mv(a.T, y)``.  Both are one ufunc call, with no reshaping.
_mv = np.matvec
_vdot = np.vecdot


def eigenvalues(a) -> np.ndarray:
    """All eigenvalues of a square matrix, unordered; for a stack (..., n, n),
    those of each matrix, (..., n).

    ``np.linalg.eigvals`` runs the same LAPACK routine on each matrix of a
    stack as on one matrix, so each row is bit-identical to the eigenvalues
    of its matrix alone.  The result is complex unless every eigenvalue is
    real, so a row of a stack may be complex where its matrix alone gives a
    real array of the same values.
    """
    m = np.asarray(a, dtype=float)
    m = m if m.ndim > 2 else as_matrix(m)
    if m.shape[-1] != m.shape[-2]:
        raise ValueError(f"eigenvalues need a square matrix, got {m.shape}")
    if m.shape[-1] == 0:
        return np.zeros(m.shape[:-1], dtype=complex)
    return np.linalg.eigvals(m)


def solve_linear(a, b) -> np.ndarray:
    """Least-squares solution of ``a x = b`` with minimal norm among minimizers."""
    am = as_matrix(a)
    barr = np.asarray(b, dtype=float)
    vector_rhs = barr.ndim == 1
    bm = barr.reshape(-1, 1) if vector_rhs else as_matrix(barr)
    if am.shape[0] != bm.shape[0]:
        raise ValueError(f"row mismatch: a has {am.shape[0]} rows, b has {bm.shape[0]}")
    x, *_ = np.linalg.lstsq(am, bm, rcond=None)
    return x.ravel() if vector_rhs else x


def _fd_jacobian(f, x: np.ndarray) -> np.ndarray:
    """Central-difference Jacobian of ``f`` at a nonempty vector ``x``, each
    column's step ``1e-7 (1 + |x_j|)``."""
    steps = 1e-7 * (1.0 + np.abs(x))
    return np.stack([(f(x + e) - f(x - e)) / (2 * h) for h, e in zip(steps, np.diag(steps))],
                    axis=1)
