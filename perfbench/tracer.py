"""Traced runs: spans around the layer functions of ``osscontrol``, set from outside.

A layer is a module of ``src/osscontrol``.  ``Tracer.installed()`` replaces
each public function of a layer in the namespace of every package module
that imports it, so a span covers exactly one call across a layer boundary;
calls inside a module are not split.  Besides the public functions it wraps:

- the three entry points in ``scenarios`` itself, which the benchmark calls;
- ``scenarios._sweep`` (the ``--sweep`` thread pool) and
  ``stabilize._pbh_margin`` (every PBH test goes through it);
- ``Trajectory.to_csv``, on the class;
- ``rhs`` and ``outputs`` of every ``ClosedLoopSystem`` that ``assemble`` or
  ``power.build_gather_broadcast`` returns, via ``dataclasses.replace``.
  Both are named ``simulate.rhs``/``simulate.outputs`` whichever function
  built the loop.

A span is ``(id, name, start, end, parent, thread)``, kept in memory.  Each
thread has its own stack; a worker thread's outermost span takes the main
thread's open span (the sweep) as its parent.  Self time is a span's
duration less the part of it that its children cover.
"""

from __future__ import annotations

import dataclasses
import functools
import gzip
import importlib
import inspect
import itertools
import os
import sys
import threading
import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

LAYERS = ("scenarios", "plant", "subspaces", "stabilize", "optprob", "omodels",
          "simulate", "power", "matlib")
ENTRY_POINTS = ("load_scenario", "check_scenario", "run_scenario")
PRIVATE = (("scenarios", "_sweep"), ("stabilize", "_pbh_margin"))
# Input coercion on every matrix, not a rank/basis primitive.
UNWRAPPED = {("matlib", "as_matrix")}
SUBSPACE_CHECKS = ("check_ros", "check_rfs", "check_robust_full_rank")

SPAN_FIELDS = 6  # id, name index, start, end, parent id (0: none), thread ident


class Tracer:
    """Collects spans and counters while installed; computes per-layer metrics."""

    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.spans = array("d")
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._local.stack = []
        self.main_thread = threading.get_ident()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------------

    def _name_index(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def _count(self, key: str, amount: int) -> None:
        with self._lock:
            self.counts[key] += amount

    def wrap(self, name: str, fn, after=None):
        """``fn`` recording one span per call; ``after(args, result)`` may
        replace the result once the span is closed."""
        index = self._name_index(name)
        local, ids, spans, main_stack = self._local, self._ids, self.spans, self._main_stack
        clock, get_ident = time.perf_counter, threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            if stack:
                parent = stack[-1]
            else:
                parent = main_stack[-1] if main_stack else 0
            sid = next(ids)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.extend((sid, index, start, end, parent, get_ident()))
            return result if after is None else after(args, result)

        return traced

    # -- hooks that add counters or wrap returned loops -------------------------------

    def _wrap_loop(self, _args, sys_):
        return dataclasses.replace(sys_, rhs=self.wrap("simulate.rhs", sys_.rhs),
                                   outputs=self.wrap("simulate.outputs", sys_.outputs))

    def _count_steps(self, _args, traj):
        self._count("simulate.rk4_steps", len(traj.times) - 1)
        return traj

    def _count_bytes(self, args, result):
        target = args[1]
        if not hasattr(target, "write"):
            self._count("simulate.to_csv.bytes", os.path.getsize(target))
        return result

    def _count_samples(self, args, result):
        self._count("subspaces.samples", len(args[0].delta_samples))
        return result

    def _hook(self, layer: str, name: str):
        if (layer, name) in (("simulate", "assemble"), ("power", "build_gather_broadcast")):
            return self._wrap_loop
        if (layer, name) == ("simulate", "integrate_rk4"):
            return self._count_steps
        if layer == "subspaces" and name in SUBSPACE_CHECKS:
            return self._count_samples
        return None

    # -- installing -------------------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        # Loops are wrapped as they are built, possibly on sweep threads, so
        # their span names are registered here, on the installing thread.
        self._name_index("simulate.rhs")
        self._name_index("simulate.outputs")
        layers = {name: importlib.import_module(f"osscontrol.{name}") for name in LAYERS}
        modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("osscontrol.")]
        for layer, mod in layers.items():
            # A module imported whole (``from . import power``) is called
            # through its own namespace.
            called_as_module = any(vars(m).get(layer) is mod for m in modules if m is not mod)
            for name, fn in list(vars(mod).items()):
                if (name.startswith("_") or (layer, name) in UNWRAPPED
                        or not inspect.isfunction(fn) or fn.__module__ != mod.__name__):
                    continue
                traced = self.wrap(f"{layer}.{name}", fn, self._hook(layer, name))
                for other in modules:
                    if other is not mod and vars(other).get(name) is fn:
                        self._patch(other, name, traced)
                if called_as_module or (layer == "scenarios" and name in ENTRY_POINTS):
                    self._patch(mod, name, traced)
        for layer, name in PRIVATE:
            mod = layers[layer]
            self._patch(mod, name, self.wrap(f"{layer}.{name}", getattr(mod, name)))
        trajectory = layers["simulate"].Trajectory
        self._patch(trajectory, "to_csv",
                    self.wrap("simulate.to_csv", trajectory.to_csv, self._count_bytes))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- analysis ---------------------------------------------------------------------

    def table(self) -> np.ndarray:
        """The spans as an (n, 6) view; spans cannot be added while it is alive."""
        return np.frombuffer(self.spans, dtype=float).reshape(-1, SPAN_FIELDS)

    def by_name(self) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds, self seconds, and seconds
        spent on threads other than the one that installed the tracer."""
        rows = self.table()
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0, "worker_s": 0.0}
               for name in self.names}
        if not len(rows):
            return out
        sid = rows[:, 0].astype(np.int64)
        name = rows[:, 1].astype(np.int64)
        start, end = rows[:, 2], rows[:, 3]
        parent = rows[:, 4].astype(np.int64)
        thread = rows[:, 5]
        dur = end - start
        row_of = np.full(int(sid.max()) + 1, -1, dtype=np.int64)
        row_of[sid] = np.arange(len(rows))
        child = np.flatnonzero(parent > 0)
        prow = row_of[parent[child]]
        covered = np.bincount(prow, weights=dur[child], minlength=len(rows))
        # Children on other threads may overlap: cover their parent by the union.
        crossing = thread[child] != thread[prow]
        for p in np.unique(prow[crossing]):
            kids = child[prow == p]
            covered[p] = _union_length(start[kids], end[kids], start[p], end[p])
        self_t = dur - covered
        worker = thread != self.main_thread
        calls = np.bincount(name, minlength=len(self.names))
        incl = np.bincount(name, weights=dur, minlength=len(self.names))
        selfs = np.bincount(name, weights=self_t, minlength=len(self.names))
        wrk = np.bincount(name[worker], weights=dur[worker], minlength=len(self.names))
        for i, n in enumerate(self.names):
            out[n] = {"calls": int(calls[i]), "s": float(incl[i]),
                      "self_s": float(selfs[i]), "worker_s": float(wrk[i])}
        return out

    def write_spans(self, path, label: str) -> None:
        """Append the spans to a gzipped CSV file, one row per span, with
        ``label`` in the first column."""
        new = not os.path.exists(path)
        with gzip.open(path, "at", compresslevel=1) as f:
            if new:
                f.write("pass,id,name,start,end,parent,thread\n")
            rows = self.table()
            for first in range(0, len(rows), 65536):  # bounded memory for Python floats
                for sid, index, start, end, parent, thread in rows[first:first + 65536].tolist():
                    f.write(f"{label},{sid:.0f},{self.names[int(index)]},{start:.9f},"
                            f"{end:.9f},{parent:.0f},{thread:.0f}\n")


def _union_length(starts, ends, lo: float, hi: float) -> float:
    total, reach = 0.0, lo
    for s, e in sorted(zip(np.clip(starts, lo, hi), np.clip(ends, lo, hi))):
        if e > reach:
            total += e - max(s, reach)
            reach = e
    return total


# -- per-layer metrics --------------------------------------------------------------

_UNITS = {"simulate.to_csv.bytes": "B", "plant.evals_per_sample": "1/sample",
          "scenarios.sweep.concurrency": "ratio", "trace.overhead_frac": "ratio"}
_HIGHER = {"scenarios.sweep.concurrency", "subspaces.samples"}


def layer_metrics(tracer: Tracer, samples: int, overhead_frac: float) -> dict[str, float]:
    """Every per-layer metric of one traced pass, in report order.

    ``samples`` is the number of delta samples the pass covered (each
    scenario's samples counted once), the base of ``plant.evals_per_sample``.
    A layer the workload never reaches reads 0.
    """
    stats = tracer.by_name()

    def total(key, *names):
        return sum(stats[n][key] for n in names if n in stats)

    def prefixed(prefix):
        return [n for n in stats if n.startswith(prefix)]

    values = {}
    for fn in ("simulate.outputs", "simulate.rhs", "omodels.om_dynamics"):
        values[f"{fn}.calls"] = total("calls", fn)
        values[f"{fn}.s"] = total("s", fn)
    values["simulate.integrate_rk4.s"] = total("s", "simulate.integrate_rk4")
    values["simulate.integrate_rk4.self_s"] = total("self_s", "simulate.integrate_rk4")
    values["simulate.rk4_steps"] = tracer.counts["simulate.rk4_steps"]
    values["simulate.assemble.calls"] = total("calls", "simulate.assemble")
    values["simulate.assemble.s"] = total("s", "simulate.assemble")
    values["simulate.to_csv.s"] = total("s", "simulate.to_csv")
    values["simulate.to_csv.bytes"] = tracer.counts["simulate.to_csv.bytes"]
    values["simulate.convergence_metrics.s"] = total("s", "simulate.convergence_metrics")
    values["simulate.equilibrium_solve.s"] = total("s", "simulate.equilibrium_solve")
    for fn in ENTRY_POINTS:
        values[f"scenarios.{fn}.s"] = total("s", f"scenarios.{fn}")
    sweep_wall = total("s", "scenarios._sweep")
    sweep_busy = total("worker_s", "simulate.integrate_rk4")
    values["scenarios.sweep.wall_s"] = sweep_wall
    values["scenarios.sweep.busy_s"] = sweep_busy
    values["scenarios.sweep.concurrency"] = sweep_busy / sweep_wall if sweep_wall else 0.0
    evals = total("calls", "plant.eval_plant")
    values["plant.eval_plant.calls"] = evals
    values["plant.eval_plant.s"] = total("s", "plant.eval_plant")
    values["plant.evals_per_sample"] = evals / samples if samples else 0.0
    values["plant.build_augmented_qp.calls"] = total("calls", "plant.build_augmented_qp")
    values["plant.build_augmented_qp.s"] = total("s", "plant.build_augmented_qp")
    for fn in SUBSPACE_CHECKS:
        values[f"subspaces.{fn}.s"] = total("s", f"subspaces.{fn}")
    values["subspaces.samples"] = tracer.counts["subspaces.samples"]
    values["stabilize.prop_check.s"] = total(
        "s", "stabilize.prop4_check", "stabilize.prop5_check", "stabilize.prop6_check")
    values["stabilize.closed_loop_matrix.calls"] = total("calls", "stabilize.closed_loop_matrix")
    values["stabilize.closed_loop_matrix.s"] = total("s", "stabilize.closed_loop_matrix")
    values["stabilize.synthesize_lqr.s"] = total("s", "stabilize.synthesize_lqr")
    values["stabilize.pbh.s"] = total("s", "stabilize._pbh_margin")
    values["matlib.calls"] = total("calls", *prefixed("matlib."))
    values["matlib.s"] = total("s", *prefixed("matlib."))
    values["optprob.oracle_optimal_output.calls"] = total("calls", "optprob.oracle_optimal_output")
    values["optprob.oracle_optimal_output.s"] = total("s", "optprob.oracle_optimal_output")
    values["power.dispatch_oracle.s"] = total("s", "power.dispatch_oracle")
    values["power.build_gather_broadcast.s"] = total("s", "power.build_gather_broadcast")
    for layer in LAYERS:
        values[f"{layer}.self_s"] = total("self_s", *prefixed(f"{layer}."))
    values["trace.overhead_frac"] = overhead_frac
    return values


def _unit(name: str) -> str:
    if name in _UNITS:
        return _UNITS[name]
    return "s" if name.endswith((".s", "_s")) else "count"


# (metric, unit, better) for every per-layer metric, in report order.
PER_LAYER = tuple((name, _unit(name), "higher" if name in _HIGHER else "lower")
                  for name in layer_metrics(Tracer(), 0, 0.0))
