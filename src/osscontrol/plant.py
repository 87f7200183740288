"""Uncertain LTI plant families and augmented-plant construction.

A plant is

    x_dot = A x + B u + Bw w
    y     = C x + D u + Q w        (optimization output)
    y_m   = Cm x                   (measurements)

with every matrix a function of an uncertainty vector delta.  Uncertainty is
represented by an evaluation callable plus a finite sample set of delta
values; all "for every delta" checks run over the samples.

``build_augmented_qp`` puts a plant in series with an optimality model and
the proxy-error integrators.  It writes none of the model's formulas: the
model's linear maps are probed from ``omodels.om_dynamics``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .matlib import as_matrix


@dataclass(frozen=True)
class PlantMatrices:
    """One realization of the plant family at a fixed delta."""

    a: np.ndarray
    b: np.ndarray
    bw: np.ndarray
    c: np.ndarray
    d: np.ndarray
    q: np.ndarray
    cm: np.ndarray | None = None

    def __post_init__(self):
        def rows(mat, r, what):
            m = as_matrix(mat)
            if m.shape[0] != r:
                if m.size == 0 and r == 0:
                    return m.reshape(0, m.shape[1] if m.ndim == 2 else 0)
                m = m.reshape(r, -1)
            return m

        a = as_matrix(self.a)
        n = a.shape[0]
        if a.shape != (n, n):
            raise ValueError(f"A must be square, got {a.shape}")
        b = rows(self.b, n, "B")
        bw = rows(self.bw, n, "Bw")
        c = as_matrix(self.c)
        if c.shape[1] != n:
            raise ValueError(f"C has {c.shape[1]} columns, expected {n}")
        p = c.shape[0]
        d = rows(self.d, p, "D")
        if d.shape[1] != b.shape[1]:
            raise ValueError(f"D has {d.shape[1]} columns, expected {b.shape[1]}")
        q = rows(self.q, p, "Q")
        if q.shape[1] != bw.shape[1]:
            raise ValueError(f"Q has {q.shape[1]} columns, expected {bw.shape[1]}")
        cm = as_matrix(self.cm) if self.cm is not None else np.eye(n)
        if cm.shape[1] != n:
            raise ValueError(f"Cm has {cm.shape[1]} columns, expected {n}")
        for name, val in (("a", a), ("b", b), ("bw", bw), ("c", c), ("d", d),
                          ("q", q), ("cm", cm)):
            object.__setattr__(self, name, val)

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def m(self) -> int:
        return self.b.shape[1]

    @property
    def p(self) -> int:
        return self.c.shape[0]

    @property
    def n_w(self) -> int:
        return self.bw.shape[1]

    @property
    def p_m(self) -> int:
        return self.cm.shape[0]


@dataclass(frozen=True)
class UncertainPlant:
    """Plant family delta -> PlantMatrices with a finite sample set of deltas."""

    evaluate: Callable[[np.ndarray], PlantMatrices]
    delta_dim: int
    delta_samples: Sequence[np.ndarray] = field(default_factory=lambda: [np.zeros(0)])
    delta_box: Sequence[tuple[float, float]] | None = None

    def __post_init__(self):
        samples = [np.asarray(s, dtype=float).reshape(self.delta_dim) for s in self.delta_samples]
        if not samples:
            raise ValueError("delta_samples must contain at least one sample")
        object.__setattr__(self, "delta_samples", samples)
        shapes = {self.evaluate(s).a.shape for s in samples}
        dims = {(pm.n, pm.m, pm.p, pm.n_w) for pm in (self.evaluate(s) for s in samples)}
        if len(shapes) != 1 or len(dims) != 1:
            raise ValueError("plant family yields inconsistent dimensions across delta samples")

    @property
    def nominal(self) -> np.ndarray:
        return self.delta_samples[0]


def fixed_plant(pm: PlantMatrices) -> UncertainPlant:
    """Wrap a single known plant as the nominal-only family (delta = {0})."""
    return UncertainPlant(evaluate=lambda _d: pm, delta_dim=0, delta_samples=[np.zeros(0)])


def eval_plant(up: UncertainPlant, delta) -> PlantMatrices:
    """Evaluate the family at a delta, enforcing the delta box when present."""
    d = np.asarray(delta, dtype=float).reshape(up.delta_dim)
    if up.delta_box is not None:
        for i, (lo, hi) in enumerate(up.delta_box):
            if not (lo - 1e-12 <= d[i] <= hi + 1e-12):
                raise ValueError(f"delta[{i}]={d[i]} outside box [{lo}, {hi}]")
    return up.evaluate(d)


@dataclass(frozen=True)
class AugmentedPlant:
    """Plant in series with an optimality model and integrators on the proxy error.

    State is partitioned as (x, mu, eta) where the mu block is present only
    for the ROS variant.  The eta rows of ``a``/``b`` are the proxy-error
    output maps, since eta_dot = eps.
    """

    a: np.ndarray
    b: np.ndarray
    n: int
    n_mu: int
    n_eta: int

    @property
    def n_state(self) -> int:
        return self.n + self.n_mu + self.n_eta

    def measurement_matrix(self, cm: np.ndarray) -> np.ndarray:
        """Stacked output map for (y_m, mu, eta): plant measurements plus
        controller-visible integrator states."""
        cm = as_matrix(cm)
        n_aux = self.n_mu + self.n_eta
        top = np.hstack([cm, np.zeros((cm.shape[0], n_aux))])
        bottom = np.hstack([np.zeros((n_aux, self.n)), np.eye(n_aux)])
        return np.vstack([top, bottom])


def build_augmented_qp(pm: PlantMatrices, om) -> AugmentedPlant:
    """The LTI augmented plant of ``pm`` and an optimality model of a QP
    without inequalities.  ``om`` is an ``omodels.OptimalityModel``, not
    imported here because omodels depends on this module.

    With the model's linear maps ``[mu_dot; eps] = m_y y + m_s mu`` at
    w = 0 (``OptimalityModel.linear_maps``) and y = C x + D u:

        a = [[A, 0], [m_y C, m_s, 0]],   b = [B; m_y D]
    """
    m_y, m_s, _ = om.linear_maps(np.zeros(pm.n_w))
    n_mu, n_eta = om.n_mu, om.eps_dim
    a = np.block([[pm.a, np.zeros((pm.n, n_mu + n_eta))],
                  [m_y @ pm.c, m_s, np.zeros((n_mu + n_eta, n_eta))]])
    b = np.vstack([pm.b, m_y @ pm.d])
    return AugmentedPlant(a=a, b=b, n=pm.n, n_mu=n_mu, n_eta=n_eta)
