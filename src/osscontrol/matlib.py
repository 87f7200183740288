"""Dense linear algebra and rank-revealing subspace toolkit.

All subspaces are carried as orthonormal column bases (`SubspaceBasis`), so
equality and intersection tests are well conditioned.  The empty subspace is
a first-class value: a basis with zero columns.

Rank decisions use a relative threshold ``tol * sigma_max * max(rows, cols)``.
``rank_decision`` is the one yes/no rank test: it also returns its margin,
the deciding singular value over the threshold (or the reciprocal when the
answer is no), so borderline calls are visible to callers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

DEFAULT_RANK_TOL = 1e-10
_ORTHONORMALITY_TOL = 1e-10


def as_matrix(m) -> np.ndarray:
    """Coerce input to a finite 2-D float array."""
    a = np.atleast_2d(np.asarray(m, dtype=float))
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got array of ndim {a.ndim}")
    if a.size and not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


@dataclass(frozen=True)
class SubspaceBasis:
    """Orthonormal basis of a subspace of R^ambient_dim.

    ``basis`` has shape (ambient_dim, dim); zero columns encode the trivial
    subspace.  ``tol`` records the rank threshold used at construction.
    """

    basis: np.ndarray
    ambient_dim: int
    tol: float = field(default=DEFAULT_RANK_TOL)

    def __post_init__(self):
        b = as_matrix(self.basis) if self.basis.size else np.asarray(self.basis, dtype=float)
        if b.ndim != 2:
            b = b.reshape(self.ambient_dim, -1)
        object.__setattr__(self, "basis", b)
        if b.shape[0] != self.ambient_dim:
            raise ValueError(
                f"basis has {b.shape[0]} rows but ambient dimension is {self.ambient_dim}"
            )
        if self.dim:
            gram = b.T @ b
            if np.abs(gram - np.eye(self.dim)).max() > _ORTHONORMALITY_TOL:
                raise ValueError("basis columns are not orthonormal")

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @property
    def is_empty(self) -> bool:
        return self.dim == 0

    def projector(self) -> np.ndarray:
        """Orthogonal projector onto the subspace."""
        return self.basis @ self.basis.T


def _empty_basis(ambient_dim: int, tol: float) -> SubspaceBasis:
    return SubspaceBasis(np.zeros((ambient_dim, 0)), ambient_dim, tol)


def _svd(m: np.ndarray):
    return np.linalg.svd(m, full_matrices=True)


def _rank_threshold(s: np.ndarray, shape, tol: float, floor: float = 0.0) -> float:
    """Singular values above this count toward the rank (``s`` nonempty, descending)."""
    return max(tol * s[0] * max(shape), floor)


def _rank_from_singular_values(s: np.ndarray, shape, tol: float, floor: float = 0.0) -> int:
    if s.size == 0 or s[0] <= floor:
        return 0
    return int(np.count_nonzero(s > _rank_threshold(s, shape, tol, floor)))


def numerical_rank(m, tol: float = DEFAULT_RANK_TOL, floor: float = 0.0) -> int:
    """Number of singular values above ``tol * sigma_max * max(rows, cols)``.

    ``floor`` is an optional absolute cutoff for matrices built by
    cancellation of larger factors, where sigma_max itself may be roundoff.
    """
    a = as_matrix(m)
    _, s, _ = _svd(a)
    return _rank_from_singular_values(s, a.shape, tol, floor)


def rank_decision(m, want_rank: int, tol: float = DEFAULT_RANK_TOL) -> tuple[bool, float]:
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


def null_basis(m, tol: float = DEFAULT_RANK_TOL, floor: float = 0.0) -> SubspaceBasis:
    """Orthonormal basis of the right null space of ``m``."""
    a = as_matrix(m)
    if a.shape[1] == 0:
        return _empty_basis(0, tol)
    _, s, vt = _svd(a)
    r = _rank_from_singular_values(s, a.shape, tol, floor)
    return SubspaceBasis(vt[r:].T.copy(), a.shape[1], tol)


def range_basis(m, tol: float = DEFAULT_RANK_TOL, floor: float = 0.0) -> SubspaceBasis:
    """Orthonormal basis of the column space of ``m``."""
    a = as_matrix(m)
    if a.shape[0] == 0:
        return _empty_basis(0, tol)
    u, s, _ = _svd(a)
    r = _rank_from_singular_values(s, a.shape, tol, floor)
    return SubspaceBasis(u[:, :r].copy(), a.shape[0], tol)


def left_null_basis(m, tol: float = DEFAULT_RANK_TOL, floor: float = 0.0) -> SubspaceBasis:
    """Orthonormal basis of the left null space (orthogonal complement of the range)."""
    a = as_matrix(m)
    if a.shape[0] == 0:
        return _empty_basis(0, tol)
    u, s, _ = _svd(a)
    r = _rank_from_singular_values(s, a.shape, tol, floor)
    return SubspaceBasis(u[:, r:].copy(), a.shape[0], tol)


def subspace_equal(u: SubspaceBasis, v: SubspaceBasis, tol: float = 1e-8) -> bool:
    """True iff the subspaces have equal dimension and max principal-angle sine <= tol."""
    if u.ambient_dim != v.ambient_dim:
        raise ValueError(
            f"ambient dimensions differ: {u.ambient_dim} vs {v.ambient_dim}"
        )
    if u.dim != v.dim:
        return False
    if u.dim == 0:
        return True
    # sines via the complement projection: resolves small angles far better
    # than sqrt(1 - cos^2) of the principal cosines
    resid = v.basis - u.basis @ (u.basis.T @ v.basis)
    max_sine = float(np.linalg.svd(resid, compute_uv=False)[0])
    return max_sine <= tol


def subspace_intersection(u: SubspaceBasis, v: SubspaceBasis, tol: float = DEFAULT_RANK_TOL) -> SubspaceBasis:
    """Orthonormal basis of the intersection of two subspaces.

    Computed as the null space of the stacked orthogonal-complement
    projectors ``[I - P_u; I - P_v]``.
    """
    if u.ambient_dim != v.ambient_dim:
        raise ValueError(
            f"ambient dimensions differ: {u.ambient_dim} vs {v.ambient_dim}"
        )
    n = u.ambient_dim
    if u.is_empty or v.is_empty:
        return _empty_basis(n, tol)
    stack = np.vstack([np.eye(n) - u.projector(), np.eye(n) - v.projector()])
    return null_basis(stack, tol)


def _mv(a: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``a @ z`` for one vector z (n,) or for each row of a stack (k, n).

    matmul makes the same BLAS call per row as for a single vector, so row i
    is bit-identical to ``a @ z[i]`` (``z @ a.T`` is one GEMM with a different
    summation order, and is not).  ``y @ a`` per row is ``_mv(a.T, y)``.  One
    vector skips the reshaping, which costs a third of a small product.
    """
    if z.ndim == 1:
        return a @ z
    return np.matmul(a, z[..., None])[..., 0]


def _vdot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``x @ y`` for vectors, per row for stacks, bit-identical to the single dot."""
    return np.matmul(x[..., None, :], y[..., None])[..., 0, 0]


def eigenvalues(a) -> np.ndarray:
    """All eigenvalues of a square matrix, unordered, as a complex array."""
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"eigenvalues need a square matrix, got {m.shape}")
    if m.shape[0] == 0:
        return np.zeros(0, dtype=complex)
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
