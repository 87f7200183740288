"""Equilibrium-output geometry and subspace-robustness checks.

For each plant realization the achievable equilibrium outputs form an affine
set; its direction subspace is spanned by G = [C D] N with N a basis of
null [A B].  The checks here decide whether that geometry (or the slice of
it cut out by the engineering equality constraints) is invariant over the
uncertainty samples, which is what lets a controller be built without
knowing delta.  Computing the feasible slice computes range G on the way,
so one pass over the samples decides both: ``check_rfs`` returns the
robust-feasible-subspace report with the robust-output-subspace report
under ``"ros"``, and ``check_ros`` is that part.

All "for every delta" verdicts are decided over the plant's finite
``delta_samples``; reports carry the match and the principal-angle sine of
every sample as arrays, the number of samples covered and the worst sine, so
coverage is visible.  The samples are taken in blocks: the nominal sample
alone, whose geometry is the reference, then the others
``matlib.DELTA_BLOCK`` (``ROW_BLOCK``, 256) at a time
(``plant.sample_blocks``).  The plant family is evaluated once per
block, its realizations stacked along a leading axis (``plant.eval_plant``);
every matrix function then runs once per block.  numpy's ``linalg`` gufuncs
(``cond``, ``solve``, ``svd``) and ``matmul`` run the same LAPACK or BLAS
call on each matrix of a stack as on one matrix, so every basis, sine and
verdict is bit-identical to computing the sample alone;
``equilibrium_geometry`` of one realization is row 0 of the block of one.
Every basis is a plain array with orthonormal columns (``matlib``), in a
block as in one realization.

Ranks can differ across a block: A may be singular at some deltas (A is
inverted for the DC-gain basis only when its reciprocal condition number is
above ``_INVERTIBILITY_RCOND``, 1e-8), and the dimension of range G or of
the feasible slice may change.  Each SVD's rows are therefore grouped by
numerical rank, decided at ``matlib.RANK_TOL`` (``matlib.rank_groups``), and
each group carries on with bases of one shape.  H is the program's constant
matrix, the same for every realization of a block.  A sample matches the
nominal one when its subspace has the same dimension and a largest
principal-angle sine at most ``matlib.SINE_TOL`` from it; a change of
dimension is how the bundled RFS violation shows up.

The reduced-error model's complement condition is decided at one
realization (``reduced_error_complement_condition``), as a clause of
``stabilize.prop6_check``; its range condition is checked at every sample
(``check_rerfs_range_condition``), the plant and G evaluated on the same
blocks and geometry groups as ``check_rfs``.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .matlib import (
    RANK_TOL,
    SINE_TOL,
    _rank_from_singular_values,
    _row_matrix,
    as_matrix,
    max_sine,
    range_basis,
    rank_groups,
    rank_decision,
    subspace_intersection,
)
from .plant import PlantMatrices, PlantStack, UncertainPlant, eval_plant, sample_blocks

_INVERTIBILITY_RCOND = 1e-8


class EquilibriumGeometry(NamedTuple):
    """Geometry of the equilibrium-output set for one plant realization, or
    each field a stack over the realizations of a group (``_geometry_groups``).

    ndelta spans null [A B]; g = [C D] ndelta spans the output direction
    subspace, with orthonormal basis g_range, (p, k); gperp has orthonormal
    rows annihilating it; t_basis, (p, k), is an orthonormal basis of the
    feasible directions null [gperp; H].
    """

    ndelta: np.ndarray
    g: np.ndarray
    gperp: np.ndarray
    g_range: np.ndarray
    t_basis: np.ndarray


def _swap(mats: np.ndarray) -> np.ndarray:
    """The transpose of each matrix of a stack, C-ordered like ``m.T.copy()``."""
    return np.ascontiguousarray(np.swapaxes(mats, -1, -2))


def _null_ab(a: np.ndarray, b: np.ndarray) -> list:
    """Bases of null [A B] of a stack, as (rows, basis stack) groups.

    Where A is invertible (well conditioned) the basis [-A^-1 B; I] is used,
    which makes g literally the DC gain -C A^-1 B + D; otherwise an
    orthonormal SVD basis, grouped by rank.
    """
    count, m = len(a), b.shape[-1]
    if a.shape[-1] == 0:
        return [(np.arange(count), np.broadcast_to(np.eye(m), (count, m, m)))]
    cond = _cond(a)
    invertible = np.isfinite(cond) & (cond < 1.0 / _INVERTIBILITY_RCOND)
    groups = []
    rows = np.flatnonzero(invertible)
    if rows.size:
        x = np.linalg.solve(a[rows], b[rows])
        groups.append((rows, np.concatenate(
            [-x, np.broadcast_to(np.eye(m), (rows.size, m, m))], axis=-2)))
    rows = np.flatnonzero(~invertible)
    if rows.size:
        ab = np.concatenate([a[rows], b[rows]], axis=-1)
        groups += [(rows[sub], _swap(vt[:, rank:])) for sub, _, vt, rank in rank_groups(ab)]
    return groups


def _cond(a: np.ndarray):
    """2-norm condition number of a matrix, or of each matrix of a stack;
    inf where its SVD fails, which a NaN entry makes it do; a plant's
    matrices are finite, and LAPACK does not fail on those in practice."""
    try:
        return np.linalg.cond(a)
    except np.linalg.LinAlgError:
        return np.array([_cond(m) for m in a]) if a.ndim > 2 else np.inf


def _geometry_groups(ps: PlantStack, h_eq) -> list:
    """Equilibrium geometry of every realization of a stack, as ``(rows,
    geometry)`` pairs: the rows are split by rank, and each field of the
    ``EquilibriumGeometry`` is a stack over the realizations ``rows``, whose
    bases share their shapes.

    An empty null space yields an empty g and gperp equal to the identity
    row basis of the output space.
    """
    h = _row_matrix(h_eq, ps.p)
    cd = np.concatenate([ps.c, ps.d], axis=-1)
    out = []
    for rows, nd in _null_ab(ps.a, ps.b):
        g = cd[rows] @ nd
        if g.shape[-1]:
            split = [(sub, u[..., :rank].copy(), np.swapaxes(u[..., rank:].copy(), -1, -2))
                     for sub, u, _, rank in rank_groups(g)]
        else:
            split = [(np.arange(rows.size), np.zeros((rows.size, ps.p, 0)),
                      np.broadcast_to(np.eye(ps.p), (rows.size, ps.p, ps.p)))]
        for sub, g_range, gperp in split:
            hs = np.broadcast_to(h, (sub.size,) + h.shape)
            for part, _, vt, rank in rank_groups(np.concatenate([gperp, hs], axis=-2)):
                out.append((rows[sub][part], EquilibriumGeometry(
                    nd[sub][part], g[sub][part], gperp[part], g_range[part], _swap(vt[:, rank:]))))
    return out


def equilibrium_geometry(pm: PlantMatrices, h_eq=None) -> EquilibriumGeometry:
    """Build the equilibrium-output geometry for a plant realization: row 0
    of the block of one realization."""
    ((_, geom),) = _geometry_groups(pm.broadcast(1), h_eq)
    return EquilibriumGeometry._make(field[0] for field in geom)


def check_ros(up: UncertainPlant, h_eq=None) -> dict:
    """Robust-output-subspace check: is range G(delta) the same at every sample?

    The nominal basis, when it holds, is returned as ``g0``.  This is the
    ``"ros"`` part of :func:`check_rfs`; range G does not depend on ``h_eq``.
    """
    return check_rfs(up, h_eq)["ros"]


def check_rfs(up: UncertainPlant, h_eq=None) -> dict:
    """Robust-feasible-subspace check: is null [gperp(delta); H] fixed?

    Returns holds, the nominal orthonormal basis ``t0`` when it holds, the
    first violating (reference, delta) pair otherwise, the ``matches`` and
    principal-angle ``sines`` of every sample against the nominal one (arrays
    in sample order, the nominal sample first), the largest sine, the number
    of samples covered, and under ``"ros"`` the same report of range G (with
    ``g0``).
    """
    samples = up.delta_samples
    blocks = sample_blocks(up)
    _, nominal = next(blocks)
    ps = eval_plant(up, nominal)
    ((_, geom),) = _geometry_groups(ps, h_eq)
    refs = (geom.g_range[0], geom.t_basis[0])
    # row 0 compares range G, row 1 the feasible directions
    matches = np.ones((2, len(samples)), dtype=bool)
    sines = np.zeros((2, len(samples)))
    for lo, deltas in blocks:
        ps = eval_plant(up, deltas)
        for rows, geom in _geometry_groups(ps, h_eq):
            for k, (ref, bases) in enumerate(zip(refs, (geom.g_range, geom.t_basis))):
                # a subspace of another dimension is at a right angle to the nominal
                same = bases.shape[-1] == ref.shape[-1]
                sine = max_sine(ref, bases) if same else 1.0
                matches[k, lo + rows] = same & (sine <= SINE_TOL)
                sines[k, lo + rows] = sine

    def report(k: int, key: str) -> dict:
        bad = np.flatnonzero(~matches[k])
        holds = bad.size == 0
        return {
            "holds": holds,
            key: refs[k] if holds else None,
            "witness": None if holds else (samples[0], samples[bad[0]]),
            "matches": matches[k],
            "sines": sines[k],
            "max_sine": float(sines[k].max()),
            "deltas": len(samples),
        }

    return report(1, "t0") | {"ros": report(0, "g0")}


def check_robust_full_rank(up: UncertainPlant) -> bool:
    """True iff [A B; C D] has rank n + p at every delta sample; decided block
    by block, stopping at the first block with a sample that fails."""
    for _, deltas in sample_blocks(up):
        ps = eval_plant(up, deltas)
        block = np.concatenate([np.concatenate([ps.a, ps.b], axis=-1),
                                np.concatenate([ps.c, ps.d], axis=-1)], axis=-2)
        s = np.linalg.svd(block, compute_uv=False)
        if (_rank_from_singular_values(s, block.shape[-2:]) < ps.n + ps.p).any():
            return False
    return True


def _reduced_error_ranges(h: np.ndarray, g: np.ndarray, t0: np.ndarray):
    """range(H G) and range(t0'), with absolute rank floors: H G is a product
    that may cancel to roundoff."""
    floor = 1e-12 * (1.0 + np.linalg.norm(h)) * (1.0 + np.linalg.norm(g))
    return (range_basis(h @ g, floor=floor),
            range_basis(t0.T, floor=1e-12 * (1.0 + np.linalg.norm(t0))))


def reduced_error_complement_condition(h, g, t0, tol: float = RANK_TOL) -> tuple[bool, float]:
    """Complement condition of the reduced-error model at one realization.

    The orthogonal complements of range(H G) and range(t0') meet only at
    zero, that is, the two ranges together span the equality-constraint
    space.  Returns the decision and its :func:`rank_decision` margin.
    """
    hg, t0t = _reduced_error_ranges(h, g, t0)
    return rank_decision(np.hstack([hg, t0t]), h.shape[0], tol)


def check_rerfs_range_condition(up: UncertainPlant, h_eq, t0) -> dict:
    """Range condition for the reduced-error model:
    range(H G(delta)) and range(t0') intersect only at zero, at every sample.

    Without equality constraints the condition holds vacuously.  The plant
    and G are evaluated block by block like :func:`check_rfs` (G read off
    ``_geometry_groups``), the two ranges compared per sample.  Returns
    holds, the first failing delta as ``witness`` (None when it holds) and
    the ``matches`` of every sample, an array in sample order.
    """
    t0 = as_matrix(t0)
    samples = up.delta_samples
    matches = np.ones(len(samples), dtype=bool)
    p = eval_plant(up, up.nominal).p
    if t0.shape[0] != p:
        raise ValueError(f"t0 must have {p} rows, got {t0.shape[0]}")
    h = _row_matrix(h_eq, p)
    if h.shape[0] and t0.shape[1] != h.shape[0]:
        raise ValueError(
            "the reduced-error range condition compares subspaces of the "
            f"equality-constraint space: t0 needs {h.shape[0]} columns, got {t0.shape[1]}"
        )
    for lo, deltas in sample_blocks(up) if len(h) else ():  # no rows: holds vacuously
        for rows, geom in _geometry_groups(eval_plant(up, deltas), h):
            for i, g in zip(rows, geom.g):
                hg, t0t = _reduced_error_ranges(h, g, t0)
                matches[lo + i] = not subspace_intersection(hg, t0t).shape[1]
    bad = np.flatnonzero(~matches)
    return {"holds": not bad.size, "witness": samples[bad[0]] if bad.size else None,
            "matches": matches}
