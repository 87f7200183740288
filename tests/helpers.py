"""Shared random-instance generators and reference formulas for tests.

Everything is driven by an explicit numpy Generator so test runs are
reproducible; "generate until valid" loops are bounded.  The reference
formulas (DC gain, KKT residual, the hand-written augmented plant of each
optimality-model variant) are independent routes that tests compare the
package against.
"""

from __future__ import annotations

import numpy as np

from osscontrol.matlib import as_matrix, numerical_rank, range_basis
from osscontrol.optprob import ConvexProgram, KKTPoint
from osscontrol.plant import PlantMatrices, UncertainPlant, fixed_plant
from osscontrol.stabilize import pbh_stabilizable
from osscontrol.subspaces import equilibrium_geometry


def random_plant(rng: np.random.Generator, n: int, m: int, p: int, n_w: int = 1,
                 stable: bool = False) -> PlantMatrices:
    """Random plant with (A, B) stabilizable (retries until the PBH test passes)."""
    for _ in range(50):
        a = rng.standard_normal((n, n))
        if stable:
            a = a - (np.linalg.eigvals(a).real.max() + 0.5) * np.eye(n)
        b = rng.standard_normal((n, m))
        if pbh_stabilizable(a, b):
            break
    else:
        raise RuntimeError("failed to generate a stabilizable pair")
    return PlantMatrices(
        a=a, b=b, bw=rng.standard_normal((n, n_w)),
        c=rng.standard_normal((p, n)), d=rng.standard_normal((p, m)),
        q=rng.standard_normal((p, n_w)),
    )


def random_qp_instance(rng: np.random.Generator, n_ec: int = 1, *, n=None, m=None,
                       p=None, n_w: int = 1, definite: bool = True):
    """Random equality-constrained QP over a random plant, with a nonredundant
    constraint stack.  Returns (plant, program, geometry)."""
    for _ in range(80):
        nn = int(n if n is not None else rng.integers(1, 7))
        mm = int(m if m is not None else rng.integers(1, 4))
        pp = int(p if p is not None else rng.integers(max(1, n_ec), 5))
        pm = random_plant(rng, nn, mm, pp, n_w)
        h = rng.standard_normal((n_ec, pp)) if n_ec else np.zeros((0, pp))
        geom = equilibrium_geometry(pm, h)
        stack = np.vstack([geom.gperp, h])
        if numerical_rank(stack) != stack.shape[0]:
            continue
        if definite:
            root = rng.standard_normal((pp, pp))
            m_cost = root.T @ root + 0.1 * np.eye(pp)
        else:
            root = rng.standard_normal((max(pp - 1, 1), pp))
            m_cost = root.T @ root
        prog = ConvexProgram.from_qp(m_cost, rng.standard_normal((pp, n_w)),
                                     n_w=n_w, h_eq=h,
                                     l_eq=rng.standard_normal((n_ec, n_w)))
        return pm, prog, geom
    raise RuntimeError("failed to generate a nonredundant QP instance")


def feasible_direction_matrix(geom, rng=None, columns=None) -> np.ndarray:
    """Matrix spanning the feasible directions; optionally re-mixed to a given
    column count (keeping the range)."""
    tb = geom.t_basis.basis
    if columns is None:
        return tb
    if columns < tb.shape[1]:
        raise ValueError("cannot span the subspace with fewer columns")
    for _ in range(20):
        mix = rng.standard_normal((tb.shape[1], columns))
        if numerical_rank(mix) == tb.shape[1]:
            return tb @ mix
    raise RuntimeError("failed to draw a full-row-rank mixing matrix")


def uncertain_wrapper(pm: PlantMatrices) -> UncertainPlant:
    return fixed_plant(pm)


def output_subspace_matrix(geom) -> np.ndarray:
    """Full-column-rank matrix spanning the equilibrium-output subspace."""
    return range_basis(geom.g).basis


def dc_gain(pm: PlantMatrices) -> np.ndarray:
    """-C A^-1 B + D, defined when A is invertible."""
    return -pm.c @ np.linalg.solve(pm.a, pm.b) + pm.d


def kkt_residual(prog: ConvexProgram, plant_eq: dict, pt: KKTPoint, w) -> dict:
    """Residual blocks of the first-order optimality system at a candidate point.

    ``plant_eq`` supplies the equilibrium-constraint data: ``gperp`` (full row
    rank, annihilating the equilibrium-output subspace) and offset ``b``.
    """
    w = np.asarray(w, dtype=float).ravel()
    gperp = as_matrix(plant_eq["gperp"]).reshape(-1, prog.p)
    b = np.asarray(plant_eq["b"], dtype=float).ravel()
    y = pt.y
    stationarity = prog.lagrangian_grad(y, w, pt.nu) + gperp.T @ pt.lam + prog.h_eq.T @ pt.mu
    fvals = prog.ineq_values(y, w)
    primal = np.concatenate([
        gperp @ y - b,
        prog.h_eq @ y - prog.l_eq @ w,
        np.maximum(fvals, 0.0),
    ])
    complementarity = pt.nu * fvals
    return {"stationarity": stationarity, "primal": primal, "complementarity": complementarity}


def augmented_by_hand(pm: PlantMatrices, prog: ConvexProgram, variant: str,
                      basis) -> tuple[np.ndarray, np.ndarray]:
    """``(a, b)`` of the augmented plant, written out per optimality-model
    variant for an equality-constrained QP:

    - "rfs":   eta_dot = [H; T0' M] y - ...
    - "ros":   mu_dot = H y - ..., eta_dot = G0' (M y + H' mu) - ...
    - "rerfs": eta_dot = (H + T0' M) y - ...
    """
    mc, h, t, n = prog.qp.m_cost, prog.h_eq, as_matrix(basis), pm.n
    if variant == "ros":
        n_mu, n_eta = h.shape[0], t.shape[1]
        a = np.block([
            [pm.a, np.zeros((n, n_mu + n_eta))],
            [h @ pm.c, np.zeros((n_mu, n_mu + n_eta))],
            [t.T @ mc @ pm.c, t.T @ h.T, np.zeros((n_eta, n_eta))],
        ])
        return a, np.vstack([pm.b, h @ pm.d, t.T @ mc @ pm.d])
    if variant == "rfs":
        ce, de = np.vstack([h @ pm.c, t.T @ mc @ pm.c]), np.vstack([h @ pm.d, t.T @ mc @ pm.d])
    else:
        ce, de = (h + t.T @ mc) @ pm.c, (h + t.T @ mc) @ pm.d
    n_eta = ce.shape[0]
    a = np.block([[pm.a, np.zeros((n, n_eta))], [ce, np.zeros((n_eta, n_eta))]])
    return a, np.vstack([pm.b, de])


def bundled_qp_variants():
    """(scenario, variant plan) for every bundled variant whose optimality
    model is one of an equality-constrained QP."""
    from osscontrol import scenarios

    for name in scenarios.BUNDLED_NAMES:
        sc = scenarios.load_scenario(name)
        for plan in sc.variants:
            om = plan.om
            if om is not None and om.program.is_qp and not om.program.n_ic:
                yield sc, plan
