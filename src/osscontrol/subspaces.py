"""Equilibrium-output geometry and subspace-robustness checks.

For each plant realization the achievable equilibrium outputs form an affine
set; its direction subspace is spanned by G = [C D] N with N a basis of
null [A B].  The checks here decide whether that geometry (or the slice of
it cut out by the engineering equality constraints) is invariant over the
uncertainty samples, which is what lets a controller be built without
knowing delta.

All "for every delta" verdicts are decided over the plant's finite
``delta_samples``; reports carry per-sample results so coverage is visible.
The reduced-error model's complement condition is decided at one
realization (``reduced_error_complement_condition``), as a clause of
``stabilize.prop6_check``; its range condition is checked at every sample
(``check_rerfs_range_condition``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matlib import (
    DEFAULT_RANK_TOL,
    SubspaceBasis,
    as_matrix,
    left_null_basis,
    null_basis,
    range_basis,
    rank_decision,
    subspace_equal,
    subspace_intersection,
)
from .plant import PlantMatrices, UncertainPlant, eval_plant

_INVERTIBILITY_RCOND = 1e-8


@dataclass(frozen=True)
class EquilibriumGeometry:
    """Geometry of the equilibrium-output set for one plant realization.

    ndelta spans null [A B]; g = [C D] ndelta spans the output direction
    subspace; gperp has orthonormal rows annihilating it; t_basis spans the
    feasible directions null [gperp; H].
    """

    ndelta: np.ndarray
    g: np.ndarray
    gperp: np.ndarray
    t_basis: SubspaceBasis

    @property
    def g_range(self) -> SubspaceBasis:
        return range_basis(self.g)


def _null_ab(pm: PlantMatrices) -> np.ndarray:
    """Basis of null [A B].

    When A is invertible (well conditioned) the basis [-A^-1 B; I] is used,
    which makes g literally the DC gain -C A^-1 B + D; otherwise an
    orthonormal SVD basis is used.
    """
    if pm.n == 0:
        return np.eye(pm.m)
    try:
        cond = np.linalg.cond(pm.a)
    except np.linalg.LinAlgError:
        cond = np.inf
    if np.isfinite(cond) and cond < 1.0 / _INVERTIBILITY_RCOND:
        return np.vstack([-np.linalg.solve(pm.a, pm.b), np.eye(pm.m)])
    return null_basis(np.hstack([pm.a, pm.b])).basis


def equilibrium_geometry(pm: PlantMatrices, h_eq=None) -> EquilibriumGeometry:
    """Build the equilibrium-output geometry for a plant realization.

    An empty null space yields an empty g and gperp equal to the identity
    row basis of the output space.
    """
    h = as_matrix(h_eq).reshape(-1, pm.p) if h_eq is not None and np.size(h_eq) else np.zeros((0, pm.p))
    nd = _null_ab(pm)
    g = np.hstack([pm.c, pm.d]) @ nd
    gperp = left_null_basis(g).basis.T if g.shape[1] else np.eye(pm.p)
    t_basis = null_basis(np.vstack([gperp, h]))
    return EquilibriumGeometry(ndelta=nd, g=g, gperp=gperp, t_basis=t_basis)


def _per_sample_geometry(up: UncertainPlant, h_eq):
    """Evaluate geometry at every delta sample, resolving callable H/L."""
    out = []
    for delta in up.delta_samples:
        h = h_eq(delta) if callable(h_eq) else h_eq
        pm = eval_plant(up, delta)
        out.append((delta, equilibrium_geometry(pm, h)))
    return out


def _robust_subspace(up: UncertainPlant, h_eq, tol: float, key: str, subspace) -> dict:
    """Compare ``subspace(geometry)`` at every sample with its nominal value.

    Returns holds, the nominal orthonormal basis under ``key`` when it holds,
    the first violating (reference, delta) pair otherwise, and per-sample
    verdicts.
    """
    geoms = _per_sample_geometry(up, h_eq)
    ref_delta, ref_geom = geoms[0]
    ref = subspace(ref_geom)
    per_sample = []
    witness = None
    for delta, geom in geoms[1:]:
        same = subspace_equal(ref, subspace(geom), tol)
        per_sample.append({"delta": delta, "matches_nominal": same})
        if not same and witness is None:
            witness = (ref_delta, delta)
    holds = witness is None
    return {
        "holds": holds,
        key: ref.basis if holds else None,
        "witness": witness,
        "per_sample": per_sample,
    }


def check_ros(up: UncertainPlant, h_eq=None, tol: float = 1e-8) -> dict:
    """Robust-output-subspace check: is range G(delta) the same at every sample?

    The nominal basis, when it holds, is returned as ``g0``.
    """
    return _robust_subspace(up, h_eq, tol, "g0", lambda geom: geom.g_range)


def check_rfs(up: UncertainPlant, h_eq=None, tol: float = 1e-8) -> dict:
    """Robust-feasible-subspace check: is null [gperp(delta); H(delta)] fixed?

    ``h_eq`` may be a callable of delta for uncertain equality constraints;
    the same comparison runs with H evaluated per sample.  The nominal basis,
    when it holds, is returned as ``t0``.
    """
    return _robust_subspace(up, h_eq, tol, "t0", lambda geom: geom.t_basis)


def check_robust_full_rank(up: UncertainPlant, tol: float = 1e-10) -> bool:
    """True iff [A B; C D] has rank n + p at every delta sample."""
    for delta in up.delta_samples:
        pm = eval_plant(up, delta)
        block = np.block([[pm.a, pm.b], [pm.c, pm.d]])
        if not rank_decision(block, pm.n + pm.p, tol)[0]:
            return False
    return True


def _reduced_error_ranges(h: np.ndarray, g: np.ndarray, t0: np.ndarray):
    """range(H G) and range(t0'), with absolute rank floors: H G is a product
    that may cancel to roundoff."""
    floor = 1e-12 * (1.0 + np.linalg.norm(h)) * (1.0 + np.linalg.norm(g))
    return (range_basis(h @ g, floor=floor),
            range_basis(t0.T, floor=1e-12 * (1.0 + np.linalg.norm(t0))))


def reduced_error_complement_condition(h, g, t0, tol: float = DEFAULT_RANK_TOL) -> tuple[bool, float]:
    """Complement condition of the reduced-error model at one realization.

    The orthogonal complements of range(H G) and range(t0') meet only at
    zero, that is, the two ranges together span the equality-constraint
    space.  Returns the decision and its :func:`rank_decision` margin.
    """
    hg, t0t = _reduced_error_ranges(h, g, t0)
    return rank_decision(np.hstack([hg.basis, t0t.basis]), h.shape[0], tol)


def check_rerfs_range_condition(up: UncertainPlant, h_eq, t0, tol: float = DEFAULT_RANK_TOL) -> dict:
    """Range condition for the reduced-error model:
    range(H G(delta)) and range(t0') intersect only at zero, at every sample.

    ``h_eq`` may be a callable of delta; a sample without equality
    constraints holds vacuously.
    """
    t0 = as_matrix(t0)
    per_sample = []
    witness = None
    for delta in up.delta_samples:
        h = h_eq(delta) if callable(h_eq) else h_eq
        pm = eval_plant(up, delta)
        h = as_matrix(h).reshape(-1, pm.p) if h is not None and np.size(h) else np.zeros((0, pm.p))
        if t0.shape[0] != pm.p:
            raise ValueError(f"t0 must have {pm.p} rows, got {t0.shape[0]}")
        ok = True
        if h.shape[0]:
            if t0.shape[1] != h.shape[0]:
                raise ValueError(
                    "the reduced-error range condition compares subspaces of the "
                    f"equality-constraint space: t0 needs {h.shape[0]} columns, got {t0.shape[1]}"
                )
            g = equilibrium_geometry(pm, h).g
            ok = subspace_intersection(*_reduced_error_ranges(h, g, t0), tol).is_empty
        per_sample.append({"delta": delta, "holds": ok})
        if not ok and witness is None:
            witness = delta
    return {"holds": witness is None, "witness": witness, "per_sample": per_sample}
