"""Uncertain LTI plant families and augmented-plant construction.

A plant is

    x_dot = A x + B u + Bw w
    y     = C x + D u + Q w        (optimization output)
    y_m   = Cm x                   (measurements)

with every matrix a function of an uncertainty vector delta.  Uncertainty is
represented by an evaluation callable plus a finite sample set of delta
values; all "for every delta" checks run over the samples.  A family is
evaluated on a whole block of deltas at once: its callable writes its
formula over the block and returns the realizations as one ``PlantStack``,
each matrix stacked along a leading axis, and ``eval_plant`` takes one delta
or a block.  ``per_delta`` adapts a callable written for one delta.
Building a family evaluates its nominal sample only: a pass that evaluates
another block of samples checks its shapes against that realization.

``build_augmented_qp`` puts a plant in series with an optimality model and
the proxy-error integrators.  It writes none of the model's formulas: the
model's linear maps are probed from ``omodels.om_dynamics``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from .matlib import as_matrix, delta_spans


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
            # a matrix must have r rows; a vector or a scalar is read as r rows
            m = as_matrix(mat)
            if m.shape[0] == r:
                return m
            if np.ndim(mat) == 2:
                raise ValueError(f"plant.{what} has {m.shape[0]} rows, expected {r}")
            return m.reshape(r, -1) if m.size or r else m.reshape(0, 0)

        a = as_matrix(self.a)
        n = a.shape[0]
        if a.shape != (n, n):
            raise ValueError(f"plant.a must be square, got {a.shape}")
        b = rows(self.b, n, "b")
        bw = rows(self.bw, n, "bw")
        c = as_matrix(self.c)
        if c.shape[1] != n:
            raise ValueError(f"plant.c has {c.shape[1]} columns, expected {n}")
        p = c.shape[0]
        d = rows(self.d, p, "d")
        if d.shape[1] != b.shape[1]:
            raise ValueError(f"plant.d has {d.shape[1]} columns, expected {b.shape[1]}")
        q = rows(self.q, p, "q")
        if q.shape[1] != bw.shape[1]:
            raise ValueError(f"plant.q has {q.shape[1]} columns, expected {bw.shape[1]}")
        cm = as_matrix(self.cm) if self.cm is not None else np.eye(n)
        if cm.shape[1] != n:
            raise ValueError(f"plant.cm has {cm.shape[1]} columns, expected {n}")
        for name, val in (("a", a), ("b", b), ("bw", bw), ("c", c), ("d", d),
                          ("q", q), ("cm", cm)):
            object.__setattr__(self, name, val)

    @property
    def n(self) -> int:
        return self.a.shape[-1]

    @property
    def m(self) -> int:
        return self.b.shape[-1]

    @property
    def p(self) -> int:
        return self.c.shape[-2]

    @property
    def n_w(self) -> int:
        return self.bw.shape[-1]

    def broadcast(self, count: int) -> PlantStack:
        """This realization at ``count`` deltas: each matrix a read-only
        broadcast view, (count, rows, cols)."""
        return PlantStack(*(np.broadcast_to(m, (count,) + m.shape)
                            for m in (getattr(self, k) for k in _PLANT_FIELDS)))


@dataclass(frozen=True)
class PlantStack(PlantMatrices):
    """Realizations of a plant family at a block of S deltas: each matrix
    stacked along a leading axis, (S, rows, cols), where a matrix that does
    not depend on delta may be a read-only broadcast view.  Not validated
    matrix by matrix: ``eval_plant`` checks the entries finite and the
    shapes against the family's validated nominal realization."""

    def __post_init__(self):
        pass


_PLANT_FIELDS = ("a", "b", "bw", "c", "d", "q", "cm")
_INCONSISTENT = "plant family yields inconsistent dimensions across delta samples"


def per_delta(fn: Callable[[np.ndarray], PlantMatrices]) -> Callable[[np.ndarray], PlantStack]:
    """The block evaluator of a family written for one delta: ``fn`` runs at
    each delta of the block in turn, and each realization is copied into the
    stacks as it is returned, so a block's realizations are never held
    whole.  Realizations of different shapes are a ValueError."""

    def evaluate(block: np.ndarray) -> PlantStack:
        stacks = None
        for i, pm in enumerate(map(fn, block)):
            mats = [getattr(pm, k) for k in _PLANT_FIELDS]
            if stacks is None:
                stacks = [np.empty((len(block),) + m.shape) for m in mats]
            if any(st.shape[1:] != m.shape for st, m in zip(stacks, mats)):
                raise ValueError(_INCONSISTENT)
            for st, m in zip(stacks, mats):
                st[i] = m
        return PlantStack(*stacks)

    return evaluate


@dataclass(frozen=True)
class UncertainPlant:
    """Plant family delta -> PlantMatrices with a finite sample set of deltas.

    ``evaluate`` maps a block of deltas (S, delta_dim) to the PlantStack of
    their realizations (``per_delta`` makes one from a callable of one
    delta); ``eval_plant`` is the checked way to call it, and rejects a
    realization whose shapes differ from the nominal one.  The samples are
    kept as one (S, delta_dim) array, the nominal first.  Construction
    rejects a sample of another length than ``delta_dim`` or outside
    ``delta_box`` (``checked_delta``) and evaluates the nominal sample only,
    rejecting a family whose nominal realization is not a valid PlantMatrices.
    """

    evaluate: Callable[[np.ndarray], PlantStack]
    delta_dim: int
    delta_samples: np.ndarray = field(default_factory=lambda: np.zeros((1, 0)))
    delta_box: Sequence[tuple[float, float]] | None = None
    # the nominal realization's matrix shapes, once construction evaluated it
    _shapes: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        samples = self.delta_samples
        if not (isinstance(samples, np.ndarray) and samples.ndim == 2):
            # a list, one sample at a time, to name the first bad one
            samples = np.reshape([checked_delta(s, self.delta_dim, None, f"plant.delta_samples[{i}]")
                                  for i, s in enumerate(samples)], (len(samples), self.delta_dim))
        if not len(samples):
            raise ValueError("delta_samples must contain at least one sample")
        samples = checked_delta(samples, self.delta_dim, self.delta_box, "plant.delta_samples[{}]")
        object.__setattr__(self, "delta_samples", samples)
        nominal = eval_plant(self, self.nominal)
        object.__setattr__(self, "_shapes", tuple(getattr(nominal, k).shape for k in _PLANT_FIELDS))

    @property
    def nominal(self) -> np.ndarray:
        return self.delta_samples[0]


def sample_blocks(up: UncertainPlant) -> Iterator[tuple[int, np.ndarray]]:
    """``(first index, deltas (S, delta_dim))`` over the samples: the nominal
    sample alone, then the others ``matlib.DELTA_BLOCK`` at a time."""
    samples = up.delta_samples
    for lo, hi in [(0, 1)] + delta_spans(1, len(samples)):
        yield lo, samples[lo:hi]


def fixed_plant(pm: PlantMatrices) -> UncertainPlant:
    """Wrap a single known plant as the nominal-only family (delta = {0})."""
    return UncertainPlant(evaluate=lambda block: pm.broadcast(len(block)), delta_dim=0)


def checked_delta(delta, dim: int, box, where: str = "delta") -> np.ndarray:
    """``delta`` as a (dim,) vector, or a block (S, dim) of deltas as it is;
    another length, or a coordinate more than 1e-12 outside ``box`` (if not
    None), is a ValueError naming ``where``.  A block is checked with one
    comparison and raises the error of its first offending sample, whose
    index fills a ``{}`` in ``where``."""
    d = np.asarray(delta, dtype=float)
    if d.ndim != 2:
        d = d.ravel()
    if d.shape[-1] != dim:
        raise ValueError(f"{where.format(0)} has {d.shape[-1]} entries, the plant has delta_dim {dim}")
    if box is not None:
        lo, hi = np.asarray(box, dtype=float).reshape(dim, 2).T
        outside = ~((lo - 1e-12 <= d) & (d <= hi + 1e-12))
        if outside.any():
            s, i = divmod(int(np.argmax(outside)), dim)
            raise ValueError(f"{where.format(s)}[{i}]={d.reshape(-1, dim)[s, i]} "
                             f"outside box [{box[i][0]}, {box[i][1]}]")
    return d


def eval_plant(up: UncertainPlant, delta) -> PlantMatrices:
    """The family at one delta (delta_dim,), as a validated PlantMatrices, or
    at a block of deltas (S, delta_dim), as a PlantStack whose matrices are
    checked finite; one call of ``up.evaluate`` either way, the delta box
    enforced when present.  A realization whose matrix shapes differ from
    the nominal one's is a ValueError."""
    d = checked_delta(delta, up.delta_dim, up.delta_box)
    ps = up.evaluate(np.atleast_2d(d))
    if d.ndim == 1:
        ps = PlantMatrices(*(getattr(ps, k)[0] for k in _PLANT_FIELDS))
    elif not all(np.isfinite(getattr(ps, k)).all() for k in _PLANT_FIELDS):
        raise ValueError("matrix entries must be finite")
    # _shapes is unset while construction evaluates the nominal sample
    if up._shapes is not None and any(getattr(ps, k).shape != d.shape[:-1] + shape
                                      for k, shape in zip(_PLANT_FIELDS, up._shapes)):
        raise ValueError(_INCONSISTENT)
    return ps


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
