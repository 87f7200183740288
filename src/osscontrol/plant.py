"""Uncertain LTI plant families and augmented-plant construction.

A plant is

    x_dot = A x + B u + Bw w
    y     = C x + D u + Q w        (optimization output)
    y_m   = Cm x                   (measurements)

with every matrix a function of an uncertainty vector delta.  Uncertainty is
represented by an evaluation callable plus a finite sample set of delta
values; all "for every delta" checks run over the samples.
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

    def dc_gain(self) -> np.ndarray:
        """-C A^-1 B + D, defined when A is invertible."""
        return -self.c @ np.linalg.solve(self.a, self.b) + self.d


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
    for the ROS variant.  The eta rows of ``a``/``b``/``bw`` are exactly the
    proxy-error output maps, since eta_dot = eps.
    """

    a: np.ndarray
    b: np.ndarray
    bw: np.ndarray
    n: int
    n_mu: int
    n_eta: int
    variant: str

    @property
    def n_state(self) -> int:
        return self.n + self.n_mu + self.n_eta

    def eps_output(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(C_eps, D_eps, Q_eps) such that eps = C_eps z + D_eps u + Q_eps w."""
        rows = slice(self.n + self.n_mu, self.n_state)
        return self.a[rows, :], self.b[rows, :], self.bw[rows, :]

    def measurement_matrix(self, cm: np.ndarray) -> np.ndarray:
        """Stacked output map for (y_m, mu, eta): plant measurements plus
        controller-visible integrator states."""
        cm = as_matrix(cm)
        n_aux = self.n_mu + self.n_eta
        top = np.hstack([cm, np.zeros((cm.shape[0], n_aux))])
        bottom = np.hstack([np.zeros((n_aux, self.n)), np.eye(n_aux)])
        return np.vstack([top, bottom])


def build_augmented_qp(pm: PlantMatrices, m_cost: np.ndarray, n_cost: np.ndarray,
                       h_eq: np.ndarray, l_eq: np.ndarray, variant: str,
                       basis: np.ndarray) -> AugmentedPlant:
    """Assemble the LTI augmented plant for an equality-constrained QP.

    ``basis`` is the fixed subspace matrix of the optimality model: the
    feasible-direction matrix for the "rfs"/"rerfs" variants, the
    equilibrium-output matrix for "ros".  Supported variants:

    - "rfs":   eta_dot = [H; T0' M] y - [L; T0' N] w
    - "ros":   extra mu state, mu_dot = H y - L w,
               eta_dot = G0' (M y + H' mu - N w)
    - "rerfs": eta_dot = (H + T0' M) y - (L + T0' N) w
    """
    mc = as_matrix(m_cost)
    p = pm.p
    if mc.shape != (p, p):
        raise ValueError(f"cost matrix must be {p}x{p}, got {mc.shape}")
    nc = as_matrix(n_cost).reshape(p, -1)
    if nc.shape[1] != pm.n_w:
        raise ValueError(f"linear-cost matrix must have {pm.n_w} columns, got {nc.shape[1]}")
    h = as_matrix(h_eq).reshape(-1, p)
    n_ec = h.shape[0]
    l = as_matrix(l_eq).reshape(n_ec, -1) if n_ec else np.zeros((0, pm.n_w))
    if n_ec and l.shape[1] != pm.n_w:
        raise ValueError(f"L must have {pm.n_w} columns, got {l.shape[1]}")
    t = as_matrix(basis)
    if t.shape[0] != p:
        raise ValueError(f"subspace matrix must have {p} rows, got {t.shape[0]}")
    n = pm.n

    if variant == "rfs":
        ce = np.vstack([h @ pm.c, t.T @ mc @ pm.c])
        de = np.vstack([h @ pm.d, t.T @ mc @ pm.d])
        qe = np.vstack([h @ pm.q - l, t.T @ (mc @ pm.q - nc)])
        n_mu, n_eta = 0, n_ec + t.shape[1]
        a = np.block([[pm.a, np.zeros((n, n_eta))],
                      [ce, np.zeros((n_eta, n_eta))]])
        b = np.vstack([pm.b, de])
        bw = np.vstack([pm.bw, qe])
    elif variant == "rerfs":
        if t.shape[1] != n_ec:
            raise ValueError(
                f"reduced-error variant needs a subspace matrix with exactly "
                f"{n_ec} columns (one per equality constraint), got {t.shape[1]}"
            )
        ce = (h + t.T @ mc) @ pm.c
        de = (h + t.T @ mc) @ pm.d
        qe = h @ pm.q - l + t.T @ (mc @ pm.q - nc)
        n_mu, n_eta = 0, n_ec
        a = np.block([[pm.a, np.zeros((n, n_eta))],
                      [ce, np.zeros((n_eta, n_eta))]])
        b = np.vstack([pm.b, de])
        bw = np.vstack([pm.bw, qe])
    elif variant == "ros":
        n_mu, n_eta = n_ec, t.shape[1]
        a = np.block([
            [pm.a, np.zeros((n, n_mu + n_eta))],
            [h @ pm.c, np.zeros((n_mu, n_mu + n_eta))],
            [t.T @ mc @ pm.c, t.T @ h.T, np.zeros((n_eta, n_eta))],
        ])
        b = np.vstack([pm.b, h @ pm.d, t.T @ mc @ pm.d])
        bw = np.vstack([pm.bw, h @ pm.q - l, t.T @ (mc @ pm.q - nc)])
    else:
        raise ValueError(f"unknown optimality-model variant {variant!r}")

    return AugmentedPlant(a=a, b=b, bw=bw, n=n, n_mu=n_mu, n_eta=n_eta, variant=variant)
