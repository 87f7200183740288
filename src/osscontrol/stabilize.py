"""Stabilizability/detectability tests and stabilizer synthesis.

PBH tests decide stabilizability and detectability eigenvalue by eigenvalue;
``_pbh_margin`` is the one PBH primitive.  ``augmented_pbh`` runs both tests
on the augmented plant (``plant.build_augmented_qp``, probed from the model's
``om_dynamics``) measured through ``(Cm x, mu, eta)``; it is the one
augmented-plant verdict, read by the proposition checks and by the
scenario engine's ``stabilizable`` check.

The proposition checkers evaluate the clause lists of Props. 4-6 for the
three optimality-model variants.  Each clause set is exact: when the premises
hold (the supplied matrix spans the required subspace and, for Prop. 6, the
optimizer is unique), its verdict equals ``augmented_pbh``.  A disagreement
beyond tolerance raises, because it means a numerics bug.  The closed-loop
spectrum of a stabilizer is not computed here: it is read from the loop
``simulate.assemble`` builds, the one the simulation integrates.

Every PBH test and clause is decided at ``PBH_TOL`` (1e-9): an eigenvalue
with real part >= -PBH_TOL is tested, and each rank-style decision carries a
margin (decision value over threshold, or its reciprocal when the decision
is negative), so borderline instances can be excluded from equivalence checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotStabilizable, NumericsDisagreement, RiccatiFailure
from .matlib import as_matrix, eigenvalues, range_basis, rank_decision, subspace_equal
from .omodels import OptimalityModel
from .optprob import ConvexProgram, unique_optimizer_check
from .plant import AugmentedPlant, PlantMatrices, UncertainPlant, build_augmented_qp, eval_plant
from .subspaces import equilibrium_geometry, reduced_error_complement_condition

PBH_TOL = 1e-9


def _pbh_margin(a: np.ndarray, b: np.ndarray) -> tuple[bool, float]:
    """PBH stabilizability with the worst decision margin over tested eigenvalues."""
    n = a.shape[0]
    if n == 0:
        return True, np.inf
    ok = True
    margin = np.inf
    for lam in eigenvalues(a):
        if lam.real < -PBH_TOL:
            continue
        mat = np.hstack([lam * np.eye(n) - a, b.astype(complex)])
        full, m = rank_decision(mat, n, PBH_TOL)
        margin = min(margin, m)
        ok = ok and full
    return ok, margin


def pbh_stabilizable(a, b) -> bool:
    """True iff [lam I - A, B] has full row rank at every eigenvalue with
    real part >= -PBH_TOL."""
    a = as_matrix(a)
    b = as_matrix(b).reshape(a.shape[0], -1)
    return _pbh_margin(a, b)[0]


@dataclass(frozen=True)
class ClauseResult:
    name: str
    passed: bool
    detail: str = ""
    margin: float = np.inf


@dataclass(frozen=True)
class ConditionReport:
    """Clause-by-clause verdicts with the overall conjunction.

    ``premise_ok`` records whether the premises of the proposition hold: the
    supplied subspace matrix spans the required subspace and, for Prop. 6,
    the cost is positive definite on the feasible directions.
    ``direct_pbh`` is the independent verdict from PBH tests on the
    assembled augmented plant, when computed.
    """

    clauses: tuple[ClauseResult, ...]
    premise_ok: bool | None = None
    direct_pbh: bool | None = None

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.clauses)

    @property
    def min_margin(self) -> float:
        return min((c.margin for c in self.clauses), default=np.inf)


def augmented_pbh(pm: PlantMatrices, om: OptimalityModel) -> tuple[bool, float]:
    """PBH stabilizability and detectability of the augmented plant of ``pm``
    and ``om``, measured through ``(Cm x, mu, eta)`` with ``Cm = pm.cm``.
    Returns the decision and the worse of the two margins."""
    aug = build_augmented_qp(pm, om)
    stab, m1 = _pbh_margin(aug.a, aug.b)
    det, m2 = _pbh_margin(aug.a.T, aug.measurement_matrix(pm.cm).T)
    return stab and det, min(m1, m2)


def _prop_check(up: UncertainPlant, delta, prog: ConvexProgram, basis,
                variant: str) -> ConditionReport:
    pm = eval_plant(up, delta)
    # builds only for an equality-constrained QP, which the clauses assume
    om = OptimalityModel(variant, basis, prog)
    basis = om.basis
    geom = equilibrium_geometry(pm, prog.h_eq)

    # the model reads y = C x + D u through its y-map E, so a plant mode
    # hidden from Cm is still seen through E C
    e_y = om.linear_maps(np.zeros(pm.n_w))[0]
    stab, m1 = _pbh_margin(pm.a, pm.b)
    det, m2 = _pbh_margin(pm.a.T, np.vstack([pm.cm, e_y @ pm.c]).T)
    clauses = [
        ClauseResult("(A, B) stabilizable and ([Cm; E C], A) detectable", stab and det,
                     margin=min(m1, m2)),
    ]

    if variant in ("rfs", "ros"):
        rows = geom.gperp.shape[0] + prog.n_ec
        nonred, m3 = rank_decision(np.vstack([geom.gperp, prog.h_eq]), rows, PBH_TOL)
        clauses.append(ClauseResult(
            "nonredundant constraints", nonred,
            detail=f"rank of stacked constraints vs {rows} rows", margin=m3))

    unique, m4 = unique_optimizer_check(prog.qp.m_cost, geom.t_basis, PBH_TOL)
    premise = subspace_equal(range_basis(basis),
                             geom.g_range if variant == "ros" else geom.t_basis)
    if variant == "rerfs":
        # a premise of Prop. 6, not a clause: with the cost flat along a
        # feasible direction the H rows still keep (H + t0' M) G full rank,
        # and the augmented plant can stay stabilizable
        premise = premise and unique
        cond_ok, m5 = reduced_error_complement_condition(prog.h_eq, geom.g, basis, PBH_TOL)
        clauses.append(ClauseResult(
            "complements of range(H G) and range(t0') meet only at zero",
            cond_ok, margin=m5))
    else:
        clauses.append(ClauseResult(
            "unique optimizer (cost positive definite on feasible directions)",
            unique, margin=m4))
        fcr, m5 = rank_decision(basis, basis.shape[1], PBH_TOL)
        clauses.append(ClauseResult(
            f"{'g0' if variant == 'ros' else 't0'} full column rank", fcr, margin=m5))

    direct, m_direct = augmented_pbh(pm, om)
    report = ConditionReport(
        clauses=tuple(clauses),
        premise_ok=bool(premise),
        direct_pbh=direct,
    )
    borderline = min(report.min_margin, m_direct) < 1e3
    if premise and report.overall != direct and not borderline:
        raise NumericsDisagreement(
            f"clause verdict {report.overall} disagrees with direct PBH {direct} "
            f"for the {variant} augmented plant (margins are not borderline)"
        )
    return report


def prop4_check(up: UncertainPlant, delta, prog: ConvexProgram, t0) -> ConditionReport:
    """Clause checks for the feasible-subspace model on an equality-constrained QP."""
    return _prop_check(up, delta, prog, t0, "rfs")


def prop5_check(up: UncertainPlant, delta, prog: ConvexProgram, g0) -> ConditionReport:
    """Clause checks for the output-subspace model on an equality-constrained QP."""
    return _prop_check(up, delta, prog, g0, "ros")


def prop6_check(up: UncertainPlant, delta, prog: ConvexProgram, t0) -> ConditionReport:
    """Clause checks for the reduced-error model on an equality-constrained QP."""
    return _prop_check(up, delta, prog, t0, "rerfs")


@dataclass(frozen=True)
class Stabilizer:
    """Static feedback u = -(Kx x + Knu nu + Kmu mu + Keta eta) - Keps eps.

    Any block may be None (treated as zero).  The negative-feedback sign
    convention is fixed package-wide; gains quoted elsewhere with the
    opposite sign must be negated on entry.
    """

    kx: np.ndarray | None = None
    knu: np.ndarray | None = None
    kmu: np.ndarray | None = None
    keta: np.ndarray | None = None
    keps: np.ndarray | None = None

    def block(self, name: str, m: int, size: int) -> np.ndarray:
        val = getattr(self, name)
        if val is None:
            return np.zeros((m, size))
        arr = as_matrix(val).reshape(m, -1)
        if arr.shape[1] != size:
            raise ValueError(f"gain {name} has {arr.shape[1]} columns, expected {size}")
        return arr


def synthesize_lqr(aug: AugmentedPlant, q_cost, r_cost) -> Stabilizer:
    """State-feedback gain from the continuous Riccati equation.

    Solves via ordered Hamiltonian eigendecomposition; enforces symmetry of
    the solution to 1e-9 and rejects defective cases instead of
    regularizing.  The closed loop A - B K is verified Hurwitz.
    """
    a, b = aug.a, aug.b
    n = a.shape[0]
    q = as_matrix(q_cost).reshape(n, n)
    r = as_matrix(r_cost)
    r_eigs = np.linalg.eigvalsh(0.5 * (r + r.T))
    if r_eigs.min() <= 0:
        raise ValueError("input cost must be positive definite")
    if not pbh_stabilizable(a, b):
        raise NotStabilizable("augmented plant pair (A, B) is not stabilizable")

    rinv_bt = np.linalg.solve(r, b.T)
    ham = np.block([[a, -b @ rinv_bt], [-q, -a.T]])
    evals, evecs = np.linalg.eig(ham)
    stable = evals.real < 0
    if int(stable.sum()) != n:
        raise RiccatiFailure(
            f"Hamiltonian has {int(stable.sum())} strictly stable eigenvalues, expected {n}"
        )
    x = evecs[:, stable]
    x1, x2 = x[:n, :], x[n:, :]
    cond = np.linalg.cond(x1)
    if not np.isfinite(cond) or cond > 1e12:
        raise RiccatiFailure("stable invariant subspace is defective at tolerance")
    p = np.linalg.solve(x1.T, x2.T).T
    if np.abs(p.imag).max() > 1e-8 * max(1.0, np.abs(p.real).max()):
        raise RiccatiFailure("Riccati solution has a nonreal component")
    p = p.real
    scale = max(1.0, np.abs(p).max())
    if np.abs(p - p.T).max() > 1e-9 * scale:
        raise RiccatiFailure("Riccati solution asymmetry exceeds 1e-9")
    p = 0.5 * (p + p.T)
    k = rinv_bt @ p
    spectrum = eigenvalues(a - b @ k)
    if spectrum.size and spectrum.real.max() >= 0:
        raise RiccatiFailure("closed-loop spectrum is not strictly stable")
    kx = k[:, : aug.n]
    kmu = k[:, aug.n: aug.n + aug.n_mu]
    keta = k[:, aug.n + aug.n_mu:]
    return Stabilizer(kx=kx, kmu=kmu, keta=keta)
