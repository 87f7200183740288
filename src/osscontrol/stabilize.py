"""Stabilizability/detectability tests and stabilizer synthesis.

PBH tests decide stabilizability and detectability eigenvalue by eigenvalue.
The proposition checkers evaluate clause lists for the three optimality-model
variants and cross-validate each verdict by running the PBH tests directly on
the augmented plant (``plant.build_augmented_qp``, probed from the model's
``om_dynamics``); disagreement beyond tolerance raises, because the two
routes are provably equivalent and a mismatch means a numerics bug.  The
closed-loop spectrum of a stabilizer is not computed here: it is read from
the loop ``simulate.assemble`` builds, the one the simulation integrates.

Every rank-style decision carries a margin (decision value over threshold, or
its reciprocal when the decision is negative), so borderline instances can be
excluded from equivalence checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotStabilizable, NumericsDisagreement, RiccatiFailure
from .matlib import as_matrix, eigenvalues, range_basis, rank_decision, subspace_equal
from .omodels import OptimalityModel
from .optprob import ConvexProgram, nonredundant_check, unique_optimizer_check
from .plant import AugmentedPlant, PlantMatrices, UncertainPlant, build_augmented_qp, eval_plant
from .subspaces import equilibrium_geometry, reduced_error_complement_condition

PBH_TOL = 1e-9


def _pbh_margin(a: np.ndarray, b: np.ndarray, tol: float) -> tuple[bool, float]:
    """PBH stabilizability with the worst decision margin over tested eigenvalues."""
    n = a.shape[0]
    if n == 0:
        return True, np.inf
    ok = True
    margin = np.inf
    for lam in eigenvalues(a):
        if lam.real < -tol:
            continue
        mat = np.hstack([lam * np.eye(n) - a, b.astype(complex)])
        full, m = rank_decision(mat, n, tol)
        margin = min(margin, m)
        ok = ok and full
    return ok, margin


def pbh_stabilizable(a, b, tol: float = PBH_TOL) -> bool:
    """True iff [lam I - A, B] has full row rank at every eigenvalue with
    real part >= -tol."""
    a = as_matrix(a)
    b = as_matrix(b).reshape(a.shape[0], -1)
    return _pbh_margin(a, b, tol)[0]


def pbh_detectable(c, a, tol: float = PBH_TOL) -> bool:
    """Dual PBH test on (A', C')."""
    a = as_matrix(a)
    c = as_matrix(c).reshape(-1, a.shape[0])
    return _pbh_margin(a.T, c.T, tol)[0]


@dataclass(frozen=True)
class ClauseResult:
    name: str
    passed: bool
    detail: str = ""
    margin: float = np.inf


@dataclass(frozen=True)
class ConditionReport:
    """Clause-by-clause verdicts with the overall conjunction.

    ``premise_ok`` records whether the supplied subspace matrix actually
    spans the required subspace (the propositions assume it does).
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


def theorem1_check(pm: PlantMatrices, tol: float = PBH_TOL) -> ConditionReport:
    """Conditions for plant-plus-integrator stabilizability and detectability:
    (i) (Cm, A, B) stabilizable and detectable, (ii) [A B; C D] full row rank."""
    stab, m1 = _pbh_margin(pm.a, pm.b, tol)
    det, m2 = _pbh_margin(pm.a.T, pm.cm.T, tol)
    block = np.block([[pm.a, pm.b], [pm.c, pm.d]])
    full, m3 = rank_decision(block, pm.n + pm.p, tol)
    clauses = (
        ClauseResult("(A, B) stabilizable", stab, margin=m1),
        ClauseResult("(Cm, A) detectable", det, margin=m2),
        ClauseResult(
            "[A B; C D] full row rank", full,
            detail=f"need rank {pm.n + pm.p}, matrix is {block.shape[0]}x{block.shape[1]}",
            margin=m3,
        ),
    )
    return ConditionReport(clauses=clauses)


def _augmented_pbh(aug: AugmentedPlant, cm: np.ndarray, tol: float) -> tuple[bool, float]:
    stab, m1 = _pbh_margin(aug.a, aug.b, tol)
    caug = aug.measurement_matrix(cm)
    det, m2 = _pbh_margin(aug.a.T, caug.T, tol)
    return stab and det, min(m1, m2)


def _prop_check(up: UncertainPlant, delta, prog: ConvexProgram, basis, cm,
                variant: str, tol: float) -> ConditionReport:
    pm = eval_plant(up, delta)
    prog = prog.at_delta(delta)
    # builds only for an equality-constrained QP, which the clauses assume
    aug = build_augmented_qp(pm, OptimalityModel(variant, basis, prog))
    basis = as_matrix(basis)
    cm = np.eye(pm.n) if cm is None else as_matrix(cm).reshape(-1, pm.n)
    geom = equilibrium_geometry(pm, prog.h_eq)

    stab, m1 = _pbh_margin(pm.a, pm.b, tol)
    det, m2 = _pbh_margin(pm.a.T, cm.T, tol)
    clauses = [
        ClauseResult("(Cm, A, B) stabilizable and detectable", stab and det,
                     margin=min(m1, m2)),
    ]

    if variant in ("rfs", "ros"):
        nonred, m3 = nonredundant_check(geom.gperp, prog.h_eq, tol)
        clauses.append(ClauseResult(
            "nonredundant constraints", nonred,
            detail=f"rank of stacked constraints vs {geom.gperp.shape[0] + prog.n_ec} rows",
            margin=m3))

    unique, m4 = unique_optimizer_check(prog.qp.m_cost, geom.t_basis.basis, tol)
    clauses.append(ClauseResult(
        "unique optimizer (cost positive definite on feasible directions)",
        unique, margin=m4))

    if variant == "rerfs":
        cond_ok, m5 = reduced_error_complement_condition(prog.h_eq, geom.g, basis, tol)
        clauses.append(ClauseResult(
            "complements of range(H G) and range(t0') meet only at zero",
            cond_ok, margin=m5))
    else:
        fcr, m5 = rank_decision(basis, basis.shape[1], tol)
        clauses.append(ClauseResult(
            f"{'g0' if variant == 'ros' else 't0'} full column rank", fcr, margin=m5))
    premise = subspace_equal(range_basis(basis),
                             geom.g_range if variant == "ros" else geom.t_basis)

    direct, m_direct = _augmented_pbh(aug, cm, tol)
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


def prop4_check(up: UncertainPlant, delta, prog: ConvexProgram, t0, cm=None,
                tol: float = PBH_TOL) -> ConditionReport:
    """Clause checks for the feasible-subspace model on an equality-constrained QP."""
    return _prop_check(up, delta, prog, t0, cm, "rfs", tol)


def prop5_check(up: UncertainPlant, delta, prog: ConvexProgram, g0, cm=None,
                tol: float = PBH_TOL) -> ConditionReport:
    """Clause checks for the output-subspace model on an equality-constrained QP."""
    return _prop_check(up, delta, prog, g0, cm, "ros", tol)


def prop6_check(up: UncertainPlant, delta, prog: ConvexProgram, t0, cm=None,
                tol: float = PBH_TOL) -> ConditionReport:
    """Clause checks for the reduced-error model on an equality-constrained QP."""
    return _prop_check(up, delta, prog, t0, cm, "rerfs", tol)


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


def synthesize_lqr(aug: AugmentedPlant, q_cost, r_cost, tol: float = PBH_TOL) -> Stabilizer:
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
    if not pbh_stabilizable(a, b, tol):
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
