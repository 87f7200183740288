"""Scenario definitions: JSON loading, bundled library, and the check/run engine.

A scenario file is a JSON document describing plant, program, controller
(an optimality model with its stabilizer, or the gather-and-broadcast loop),
simulation parameters, and an ``expect`` block of machine-checkable
expectations.  ``_SCHEMA`` is the one reference for the document format: for
each dotted path it gives the JSON type, the shape (matrix rows and columns
against the plant's sizes or the network's, a list's length), the range and
the default.  Matrices are given row-major with explicit ``rows``/``cols``
so shape typos fail at load time.  ``load_scenario`` walks the table once
before it builds any object, and every error names the path of the bad
field.  Variants override top-level keys (deep merge) to express paired runs
such as two controller tunings; each is checked after the merge, against
the same table.

Expectations come in two flavors: analysis checks (subspace robustness,
proposition clause lists, spectra, equilibrium comparisons) and simulation
checks (convergence metrics on an integrated trajectory).  ``check`` runs
only the former; ``run`` runs both.  ``CHECK_KINDS`` holds one record per
expectation kind: its check, its flavor, the fields it takes and their defaults.
"""

from __future__ import annotations

import copy
import json
import random
import shutil
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from importlib import resources
from itertools import chain
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import power
from .errors import OssError
from .matlib import delta_spans, eigenvalues, numerical_rank, range_basis, subspace_equal
from .omodels import OptimalityModel
from .optprob import ConvexProgram, check_gradients, oracle_optimal_output, tracking_objective
from .plant import (_PLANT_FIELDS, PlantMatrices, PlantStack, UncertainPlant, build_augmented_qp,
                    checked_delta, eval_plant)
from .simulate import (ClosedLoopSystem, Trajectory, assemble, convergence_metrics, equilibrium_solve,
                       integrate_rk4, output_error)
from .stabilize import Stabilizer, augmented_pbh, prop4_check, prop5_check, prop6_check, synthesize_lqr
from .subspaces import check_rfs, check_robust_full_rank, check_ros, equilibrium_geometry

BUNDLED_NAMES = (
    "tracking-sparse",
    "equilibrium-necessity",
    "rfs-violation",
    "no-hurwitz",
    "pd-vs-oss",
    "power-dapi",
    "power-novel",
    "power-gb",
)


# -- building from a checked document ------------------------------------------------


@contextmanager
def _named(where: str):
    """Prefix the document path ``where`` to the ValueError of a constructor
    that rejects a checked block (a precondition the table does not state)."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from exc


def _deep_merge(base: dict, override: dict) -> dict:
    """``base`` with ``override`` merged in; an explicit null removes the key."""
    out = copy.deepcopy(base)
    for key, val in override.items():
        if val is None:
            out.pop(key, None)
        elif isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], val)
        else:
            out[key] = copy.deepcopy(val)
    return out


def _build_plant(spec: dict, network: power.PowerNetwork | None) -> UncertainPlant:
    """The family of a checked ``plant`` block: the network's swing plant, or
    the matrices plus delta_i times their ``_delta`` terms."""
    samples = spec["delta_samples"]
    if "builder" in spec:  # "swing", the one builder
        return power.build_swing_plant(network, samples)
    mats = spec["matrices"]
    base = PlantMatrices(**{k: mats[k] for k in _PLANT_FIELDS if k in mats})
    addends = {k: mats[f"{k}_delta"] for k in _PLANT_FIELDS if f"{k}_delta" in mats}

    def evaluate(block: np.ndarray) -> PlantStack:
        # base + (0 + delta_1 M_1 + delta_2 M_2 ...), summed in that order
        stack = base.broadcast(len(block))
        vals = {}
        for k, terms in addends.items():
            acc = np.zeros((len(block), 1, 1))
            for i, t in enumerate(terms):
                acc = acc + block[:, i, None, None] * t
            vals[k] = getattr(base, k) + acc
        return replace(stack, **vals)

    return UncertainPlant(evaluate=evaluate, delta_dim=spec["delta_dim"], delta_samples=samples,
                          delta_box=spec.get("delta_box"))


def _build_program(spec: dict, network: power.PowerNetwork | None,
                   dims: dict) -> tuple[ConvexProgram, dict | None]:
    """The program of a checked ``program`` block, with the params of its
    tracking objective, or None for other objectives."""
    if "builder" in spec:  # "frequency", the one builder
        return power.frequency_program(network, spec.get("f")), None
    ineqs = []
    for item in spec["inequalities"]:  # each "affine"
        g, offset = item["params"]["g"], item["params"]["offset"]

        def f(y, w, g=g, offset=offset):
            return float(g @ np.asarray(y, dtype=float).ravel() - offset)

        def gr(y, w, g=g):
            return g

        ineqs.append((f, gr))
    if "qp" in spec:
        qp = spec["qp"]
        return ConvexProgram.from_qp(qp["m"], qp["n"], n_w=dims["n_w"], h_eq=spec["h"],
                                     l_eq=spec.get("l"), c=qp.get("c"), inequalities=ineqs), None
    params = spec["objective"]["params"]  # of "l2_tracking_plus_smooth_l1", the one objective
    prog = ConvexProgram.from_callables(
        dims["p"], dims["n_w"],
        *tracking_objective(params["p_m"], params["r_indices"], params["theta"], params["beta"]),
        h_eq=spec["h"], l_eq=spec.get("l"), inequalities=ineqs)
    check_gradients(prog, np.zeros(dims["n_w"]), random.Random(0))
    return prog, params


def _resolve_basis(spec, up: UncertainPlant, prog: ConvexProgram, variant: str) -> np.ndarray:
    if not isinstance(spec, str):  # a matrix, else "auto"
        return spec
    if variant == "ros":
        # range G does not depend on the equality rows
        report = check_ros(up)
        if not report["holds"]:
            raise ValueError("auto basis: the output-subspace property fails across samples")
        g = equilibrium_geometry(eval_plant(up, up.nominal)).g
        return g if numerical_rank(g) == g.shape[1] else report["g0"]
    report = check_rfs(up, prog.h_eq)
    if not report["holds"]:
        raise ValueError("auto basis: the feasible-subspace property fails across samples")
    basis = report["t0"]
    if variant == "rerfs" and basis.shape[1] != prog.n_ec:
        raise ValueError(
            "auto basis cannot produce the reduced-error shape "
            f"({prog.n_ec} columns); supply the matrix explicitly"
        )
    return basis


@dataclass
class VariantPlan:
    """One resolved run: an optimality model and its stabilizer, or (``om``
    None) the gather-and-broadcast loop of ``gb_weights``, and a sim block."""

    name: str
    om: OptimalityModel | None
    stabilizer: Stabilizer | None
    gb_weights: np.ndarray | None
    sim: dict | None
    program: ConvexProgram | None = None
    expect: list[dict] = field(default_factory=list)
    # the params block of a tracking objective, else None
    objective: dict | None = None


@dataclass
class Scenario:
    name: str
    plant: UncertainPlant
    network: power.PowerNetwork | None
    variants: list[VariantPlan]
    expect: list[dict] = field(default_factory=list)

    def variant(self, name: str) -> VariantPlan:
        for v in self.variants:
            if v.name == name:
                return v
        raise ValueError(f"scenario {self.name} has no variant {name!r}")


def _lqr(up: UncertainPlant, om: OptimalityModel, spec: dict) -> Stabilizer:
    """LQR gains for the augmented plant at the nominal delta, weights q I and
    r I from a checked ``stabilizer.lqr`` block."""
    pm = eval_plant(up, up.nominal)
    aug = build_augmented_qp(pm, om)
    return synthesize_lqr(aug, spec["q"] * np.eye(aug.n_state), spec["r"] * np.eye(pm.m))


def _build_controller(doc: dict, up: UncertainPlant, prog: ConvexProgram,
                      network: power.PowerNetwork | None, where):
    """Resolve (om, stabilizer, gb_weights, program) for one checked variant;
    ``where(block)`` is the document path of a block.  An ``om`` block is the
    optimality model over the variant's program with explicit or LQR gains; a
    ``controller`` block is the hand-built gather-and-broadcast loop."""
    if "controller" in doc:  # "gather_broadcast", the one controller
        with _named(where("controller")):
            weights = power._validate_weights(network, doc["controller"]["c"])
            return None, None, weights, power.frequency_program(network, weights.reshape(1, -1))

    om_spec, stab_spec = doc["om"], doc["stabilizer"]
    with _named(where("om")):
        basis = _resolve_basis(om_spec["basis"], up, prog, om_spec["variant"])
        om = OptimalityModel(variant=om_spec["variant"], basis=basis, program=prog)
    if "gains" in stab_spec:
        return om, Stabilizer(**stab_spec["gains"]), None, prog
    with _named(where("stabilizer")):
        return om, _lqr(up, om, stab_spec["lqr"]), None, prog


# -- expectation engine --------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    kind: str
    passed: bool
    detail: str
    variant: str = ""

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        where = f" [{self.variant}]" if self.variant else ""
        return f"  [{tag}] {self.kind}{where}: {self.detail}"


@dataclass
class RunReport:
    scenario: str
    results: list[CheckResult] = field(default_factory=list)
    info: list[str] = field(default_factory=list)
    diverged: bool = False

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    @property
    def exit_code(self) -> int:
        if self.diverged:
            return 3
        return 0 if self.passed else 1

    def render(self) -> str:
        lines = [f"scenario: {self.scenario}"]
        lines += [f"  {s}" for s in self.info]
        lines += [r.line() for r in self.results]
        lines.append(f"result: {'PASS' if self.passed else 'FAIL'}"
                     + (" (diverged)" if self.diverged else ""))
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "scenario": self.scenario,
            "passed": self.passed,
            "exit_code": self.exit_code,
            "diverged": self.diverged,
            "info": list(self.info),
            "checks": [
                {"kind": r.kind, "variant": r.variant, "passed": r.passed, "detail": r.detail}
                for r in self.results
            ],
        }


class _Context:
    """Lazy artifact cache shared by the expectation checks of one variant.

    Every per-delta artifact (oracle, trajectory, spectrum) is computed once
    per delta, and the subspace reports once (``subspaces``); ``delta=None``
    means the variant's simulation delta.  The spectra of the delta samples
    are read once, as arrays (``sample_spectra``), in blocks of
    ``matlib.DELTA_BLOCK`` samples (``ROW_BLOCK``, 256).  Trajectories are
    integrated before any check runs (``_integrate``).
    """

    def __init__(self, sc: Scenario, plan: VariantPlan, h=None, t_end=None):
        self.sc = sc
        self.plan = plan
        sim = dict(plan.sim or {})
        if h is not None:
            sim["h"] = h
        if t_end is not None:
            sim["t_end"] = t_end
        self.sim = sim
        self._cache: dict = {}

    @property
    def delta(self) -> np.ndarray:
        d = self.sim.get("delta")
        return np.asarray(d, dtype=float) if d is not None else self.sc.plant.nominal

    @property
    def w(self) -> np.ndarray:
        if "w" in self.sim:
            return self.sim["w"]
        if self.sc.network is not None:
            return self.sc.network.p_star
        raise ValueError("sim.w is missing: a plant without a network needs a disturbance vector")

    def _per_delta(self, what: str, delta, make):
        # keyed by the exact bits of delta
        d = self.delta if delta is None else np.asarray(delta, dtype=float)
        key = (what, d.tobytes())
        if key not in self._cache:
            self._cache[key] = make(d)
        return self._cache[key]

    @property
    def om(self) -> OptimalityModel:
        if self.plan.om is None:
            raise ValueError("this check needs an optimality-model controller")
        return self.plan.om

    def pm(self, delta=None) -> PlantMatrices:
        return eval_plant(self.sc.plant, self.delta if delta is None else delta)

    def oracle(self, delta=None) -> dict:
        prog = self.plan.program
        return self._per_delta("oracle", delta,
                               lambda d: oracle_optimal_output(prog, self.pm(d), self.w))

    def loop(self, delta=None) -> ClosedLoopSystem:
        """The variant's loop at one delta, or at a stack of deltas."""
        d = self.delta if delta is None else np.asarray(delta, dtype=float)
        if self.plan.om is not None:
            return assemble(self.sc.plant, d, self.w, self.plan.om, self.plan.stabilizer)
        if d.ndim > 1 or not np.allclose(d, self.sc.plant.nominal):
            raise ValueError("gather-broadcast loop is built at nominal delta only")
        return power.build_gather_broadcast(self.sc.network, self.plan.gb_weights, self.w)

    def z0(self, n_state: int) -> np.ndarray:
        return self.sim["z0"] if "z0" in self.sim else np.zeros(n_state)

    def trajectory(self, delta=None) -> Trajectory:
        """The trajectory at one delta, integrated by ``_integrate``."""
        d = self.delta if delta is None else np.asarray(delta, dtype=float)
        traj = self._cache.get(("trajectory", d.tobytes()))
        if traj is None:  # built in code: load_scenario refuses a simulated check without sim
            raise ValueError(f"variant {self.plan.name!r} has no sim block to integrate")
        return traj

    @cached_property
    def subspaces(self) -> dict:
        """The ``check_rfs`` report, its ``check_ros`` report under ``"ros"``:
        the ``ros`` and ``rfs`` checks share one pass over the samples."""
        return check_rfs(self.sc.plant, self.plan.program.h_eq)

    def spectrum(self, delta=None) -> np.ndarray:
        """Eigenvalues of the affine loop's A_cl at one delta; raises what
        building the loop at that delta raised."""
        return self._per_delta("spectrum", delta, lambda d: self._spectra(d[None])[0])

    def _spectra(self, deltas: np.ndarray) -> np.ndarray:
        """Eigenvalues of the affine loop at each delta of a block (S, dim),
        (S, n_state): one loop of the delta stack (``assemble``) and one
        stacked eigenvalue call; a block of one is the loop at its delta."""
        sys = self.loop(deltas if len(deltas) > 1 else deltas[0])
        if sys.affine is None:
            raise ValueError("the closed-loop spectrum needs an affine loop")
        return eigenvalues(sys.affine[0]).reshape(len(deltas), sys.n_state)

    def spectrum_tops(self, deltas) -> tuple[np.ndarray, dict]:
        """``(tops, errors)``: the largest real part of the loop's spectrum at
        each delta (NaN where the loop cannot be built), and ``{index:
        error}`` for each delta whose loop cannot be built, in delta order.

        Only the tops are kept: a loop per delta of a dense sample set would
        hold its closures and matrices.  The deltas are taken
        ``matlib.DELTA_BLOCK`` at a time.  A span that cannot be built is built
        again as its two halves, so one bad delta in a block of 256 costs 16
        more loops; a delta's eigenvalues are bit-identical in any block, so
        the tops and errors are those of each delta alone.
        """
        deltas = np.asarray(deltas, dtype=float)
        tops = np.full(len(deltas), np.nan)
        errors = {}
        spans = delta_spans(0, len(deltas))
        while spans:
            lo, hi = spans.pop(0)
            try:
                tops[lo:hi] = self._spectra(deltas[lo:hi]).real.max(axis=-1)
            except (ValueError, OssError) as exc:
                if hi - lo > 1:
                    mid = (lo + hi) // 2
                    spans[:0] = [(lo, mid), (mid, hi)]
                    continue
                # kept to be formatted: without the tracebacks (its own and its
                # cause's), whose frames hold this context
                exc.__cause__ = exc.__context__ = None
                errors[lo] = exc.with_traceback(None)
        return tops, errors

    @cached_property
    def sample_spectra(self) -> tuple[np.ndarray, dict]:
        """``spectrum_tops`` of the delta samples, shared by the spectrum info
        lines and the ``hurwitz_at_samples`` check."""
        return self.spectrum_tops(self.sc.plant.delta_samples)

    def metrics(self, settle_tol: float = 1e-3) -> dict:
        """``convergence_metrics`` of the variant's trajectory: one pass over
        its outputs per tolerance."""
        key = ("metrics", settle_tol)
        if key not in self._cache:
            self._cache[key] = convergence_metrics(self.trajectory(), self.oracle()["y_star"],
                                                   settle_tol)
        return self._cache[key]


# Each check takes (ctx, spec) and returns (passed, detail).


def _within(value, spec: dict, lo: str, hi: str) -> bool:
    """``spec[lo] <= value <= spec[hi]``, each bound only when present."""
    return (lo not in spec or value >= spec[lo]) and (hi not in spec or value <= spec[hi])


def _witness_detail(rep: dict) -> str:
    detail = f"holds={rep['holds']}"
    if rep["witness"] is not None:
        detail += f", witness deltas {rep['witness'][0].tolist()} vs {rep['witness'][1].tolist()}"
    return detail + f", max sine {rep['max_sine']:.3g} over {rep['deltas']} deltas"


def _check_ros(ctx, spec):
    rep = ctx.subspaces["ros"]
    return rep["holds"] == spec["holds"], _witness_detail(rep)


def _check_rfs(ctx, spec):
    rep = ctx.subspaces
    ok = rep["holds"] == spec["holds"]
    detail = _witness_detail(rep)
    if "witness" in spec:  # a witness given beside a report without one fails
        ok = ok and rep["witness"] is not None and all(
            np.allclose(a, b) for a, b in zip(spec["witness"], rep["witness"]))
    if spec["matches_om_basis"]:
        same = rep["holds"] and subspace_equal(range_basis(ctx.om.basis), range_basis(rep["t0"]))
        ok = ok and same
        detail += f", om basis spans it: {same}"
    return ok, detail


def _check_robust_full_rank(ctx, spec):
    got = check_robust_full_rank(ctx.sc.plant)
    return got == spec["holds"], f"holds={got}"


def _check_prop(ctx, spec):
    om = ctx.om
    # resolved per call, so a wrapper put on the module name is the one called
    check = {4: prop4_check, 5: prop5_check, 6: prop6_check}[spec["which"]]
    rep = check(ctx.sc.plant, ctx.delta, om.program, om.basis)
    return (rep.overall == spec["overall"],
            f"prop{spec['which']} overall={rep.overall}, direct PBH={rep.direct_pbh}")


def _check_stabilizable(ctx, spec):
    got = augmented_pbh(ctx.pm(), ctx.om)[0]
    return got == spec["value"], f"augmented plant stabilizable+detectable={got}"


def _check_spectrum(ctx, spec):
    got = np.sort_complex(ctx.spectrum())
    want = np.sort_complex(spec["values"])
    ok = got.size == want.size and np.abs(got - want).max() <= spec["tol"]
    return ok, f"spectrum={np.round(got, 6).tolist()}"


def _check_hurwitz_at_samples(ctx, spec):
    tops, errors = ctx.sample_spectra
    if errors:
        raise copy.copy(next(iter(errors.values())))  # the kept error stays without a traceback
    worst = float(tops.max())
    return ((worst < 0) == spec["value"],
            f"max Re over samples = {worst:.3g} ({len(tops)} deltas)")


def _check_oracle_y(ctx, spec):
    err = float(np.linalg.norm(ctx.oracle()["y_star"] - spec["values"]))
    return err <= spec["tol"], f"|y* - target| = {err:.3g}"


def _check_oracle_matches_dispatch(ctx, spec):
    y_star = ctx.oracle()["y_star"]
    err = float(np.linalg.norm(y_star - power.dispatch_oracle(ctx.sc.network, ctx.w)["y_star"]))
    return err <= spec["tol"], f"|oracle - dispatch| = {err:.3g}"


def _check_equilibrium_mismatch(ctx, spec):
    sys = ctx.loop(spec["delta"])
    zbar, resid = equilibrium_solve(sys, np.zeros(sys.n_state), tol=spec["newton_tol"])
    ybar = sys.outputs(zbar[None])[0][0]
    gap = float(np.linalg.norm(ybar - ctx.oracle(spec["delta"])["y_star"]))
    ok = gap >= spec["at_least"]
    if "equals" in spec:
        ok = ok and abs(gap - spec["equals"]) <= spec["equals_tol"]
    return ok, f"|ybar - y*| = {gap:.6g} (newton residual {resid:.1e})"


def _check_final_err(ctx, spec):
    err = float(output_error(ctx.trajectory().final()[0], ctx.oracle()["y_star"]))
    return _within(err, spec, "min", "tol"), f"final err = {err:.3g}"


def _check_settling(ctx, spec):
    settling = ctx.metrics(spec["tol"])["settling_time"]
    return settling <= spec["by"], f"settling time = {settling:.3g}"


def _check_final_cost(ctx, spec):
    gap = abs(float(ctx.trajectory().final()[3]) - ctx.oracle()["cost"])
    return gap <= spec["tol"], f"|final cost - optimal cost| = {gap:.3g}"


def _check_extrema(ctx, spec):
    count = ctx.metrics()["extrema_count"]
    return _within(count, spec, "min", "max"), f"cost extrema after transient = {count}"


def _check_dispatch(ctx, spec):
    net = ctx.sc.network
    y_end = ctx.trajectory().final()[0]
    disp = power.dispatch_oracle(net, ctx.w)
    u_end, omega_end = y_end[:net.n], y_end[net.n:]
    marg = net.marginal_cost(u_end)
    u_err = float(np.abs(u_end - disp["u_star"]).max())
    w_err = float(np.abs(omega_end).max())
    spread = float(marg.max() - marg.min())
    ok = u_err <= spec["u_tol"] and w_err <= spec["omega_tol"] and spread <= spec["marginal_spread_tol"]
    return ok, (f"max|u-u*|={u_err:.2e}, max|omega|={w_err:.2e}, "
                f"marginal spread={spread:.2e}")


def _check_final_input_abs(ctx, spec):
    index = spec["index"]
    val = abs(float(ctx.trajectory().final()[1][index]))
    return _within(val, spec, "min", "max"), f"|u_{index + 1}(t_end)| = {val:.4g}"


def _row_program(plans: list[VariantPlan]) -> ConvexProgram | None:
    """One program for a row stack of the plans' outputs, row i with plan i's
    objective: their shared program, or their tracking objectives with theta
    and beta as (S, 1) columns; None when they differ in anything else."""
    progs = [plan.om.program for plan in plans]
    first, nums = progs[0], [plan.objective for plan in plans]
    if all(prog is first for prog in progs):
        return first
    if any(n is None for n in nums):
        return None
    p_m, r_idx = nums[0]["p_m"], nums[0]["r_indices"]
    if any(n["p_m"] != p_m or not np.array_equal(n["r_indices"], r_idx) for n in nums):
        return None
    if any(prog.inequalities or not np.array_equal(prog.h_eq, first.h_eq)
           or not np.array_equal(prog.l_eq, first.l_eq) for prog in progs):
        return None
    theta, beta = (np.array([[n[key]] for n in nums]) for key in ("theta", "beta"))
    return ConvexProgram.from_callables(first.p, first.n_w,
                                        *tracking_objective(p_m, r_idx, theta, beta),
                                        h_eq=first.h_eq, l_eq=first.l_eq)


def _integrate(requests: list[tuple[_Context, np.ndarray]]) -> None:
    """Integrate the trajectory of every (context, delta) request and cache it.

    A request asked twice is integrated once.  Requests that share w, h,
    t_end and the optimality model's variant and basis are one row stack:
    row i is request i's delta with its variant's stabilizer, and
    ``_row_program`` joins the rows' objectives; rows whose objectives do
    not join are stacked per variant.  A gather-and-broadcast request (no
    optimality model) is integrated alone, on ``ctx.loop``.  Each row is
    bit-identical to integrating its request alone, and a row of a stack of
    several reads its outputs from its request's own loop, which gives the
    stacked loop's bits without evaluating the other rows.
    """
    groups: dict = {}
    for ctx, d in requests:
        om = ctx.plan.om
        group = ((id(ctx),) if om is None else
                 (ctx.w.tobytes(), float(ctx.sim["h"]), float(ctx.sim["t_end"]), om.variant,
                  om.basis.shape, om.basis.tobytes()))
        groups.setdefault(group, {})[id(ctx), d.tobytes()] = ctx, d
    stacks = [list(group.values()) for group in groups.values()]
    for rows in stacks:  # grows by the per-variant stacks of a split group
        ctx, d = rows[0]
        om = ctx.plan.om
        if om is None:
            sys = ctx.loop(d)
            z0 = ctx.z0(sys.n_state)
        else:
            prog = _row_program([c.plan for c, _ in rows])
            if prog is None:
                variants = dict.fromkeys(c for c, _ in rows)
                stacks += [[row for row in rows if row[0] is c] for c in variants]
                continue
            if prog is not om.program:
                om = OptimalityModel(variant=om.variant, basis=om.basis, program=prog)
            sys = assemble(ctx.sc.plant, np.stack([d for _, d in rows]), ctx.w, om,
                           [c.plan.stabilizer for c, _ in rows])
            z0 = np.stack([c.z0(sys.n_state) for c, _ in rows])
        with _named("sim"):  # its h and t_end, or the ones that override them
            traj = integrate_rk4(sys, z0, float(ctx.sim["t_end"]), float(ctx.sim["h"]))
        if z0.ndim == 1:
            made = [traj]
        else:
            made = traj.rows([c.loop(d).outputs for c, d in rows] if len(rows) > 1 else None)
        for (c, d), row in zip(rows, made):
            c._cache["trajectory", d.tobytes()] = row


def _run_check(ctx: _Context, spec: dict, where: str) -> CheckResult:
    """The result of the expectation at document path ``where``; a ValueError
    it raises names that path."""
    with _named(where):
        passed, detail = CHECK_KINDS[spec["kind"]].check(ctx, spec)
    return CheckResult(spec["kind"], bool(passed), detail, ctx.plan.name)


def _spectrum_info(ctx: _Context) -> list[str]:
    plan = ctx.plan
    if (plan.om is None or plan.sim is None or not plan.om.program.is_qp
            or plan.om.program.n_ic):
        return []
    tops, errors = ctx.sample_spectra
    out = []
    for i, (d, top) in enumerate(zip(ctx.sc.plant.delta_samples.tolist(), tops.tolist())):
        where = f"[{plan.name}] delta={d}"
        if i in errors:
            out.append(f"{where}: spectrum unavailable ({errors[i]})")
        else:
            out.append(f"{where}: max Re(closed-loop spectrum) = {top:.4g}"
                       + ("  ** unstable **" if top >= 0 else ""))
    return out


def _evaluate(sc: Scenario, variant: str | None, simulate: bool, h=None, t_end=None,
              sweep: bool = False) -> tuple[RunReport, dict]:
    """Evaluate the expectations of ``sc`` (analysis only unless ``simulate``).

    Scenario-level expectations run against the scenario's first variant,
    whichever variant is selected, then each selected variant's own.  Returns
    the report and the trajectories by variant name.
    """
    report = RunReport(scenario=sc.name)
    plans = [sc.variant(variant)] if variant else sc.variants
    contexts = [_Context(sc, plan, h=h, t_end=t_end) for plan in plans]
    first = (contexts[0] if plans[0] is sc.variants[0]
             else _Context(sc, sc.variants[0], h=h, t_end=t_end))
    trajectories: dict[str, Trajectory] = {}

    def run_checks(ctx, specs, where):
        report.results.extend(_run_check(ctx, spec, f"{where}[{j}]") for j, spec in enumerate(specs)
                              if simulate or not CHECK_KINDS[spec["kind"]].simulated)

    if simulate:
        requests = []
        for ctx in contexts:
            if ctx.plan.sim is not None:
                requests.append((ctx, ctx.delta))
                if sweep and ctx.plan.om is not None:
                    requests += [(ctx, d) for d in sc.plant.delta_samples]
        # scenario-level checks read the first variant, selected or not
        if first.plan.sim is not None and any(CHECK_KINDS[s["kind"]].simulated for s in sc.expect):
            requests.append((first, first.delta))
        _integrate(requests)
    run_checks(first, sc.expect, "expect")
    for ctx in contexts:
        plan = ctx.plan
        report.info.extend(_spectrum_info(ctx))
        if simulate and plan.sim is not None:
            traj = ctx.trajectory()
            trajectories[plan.name] = traj
            if traj.diverged:
                report.diverged = True
                report.info.append(f"[{plan.name}] trajectory diverged and was truncated")
        index = next(i for i, v in enumerate(sc.variants) if v is plan)
        run_checks(ctx, plan.expect, f"variants[{index}].expect")
        if sweep and plan.sim is not None and plan.om is not None:
            trajectories.update(_sweep(ctx, report))
    return report, trajectories


def check_scenario(sc: Scenario, variant: str | None = None) -> RunReport:
    """Run the analysis expectations (no trajectory integration)."""
    return _evaluate(sc, variant, simulate=False)[0]


def run_scenario(sc: Scenario, variant: str | None = None, out_dir=None,
                 h: float | None = None, t_end: float | None = None,
                 sweep: bool = False) -> tuple[RunReport, dict]:
    """Run all expectations, integrating each variant's closed loop.

    Every trajectory is integrated before the checks run (``_integrate``):
    the variants, and with ``sweep`` each variant at every delta sample,
    stacked as rows wherever they share w, h, t_end and the optimality
    model, each row bit-identical to integrating it alone.  Returns the
    report plus the trajectories, keyed by variant name; the sweep's are
    keyed ``<variant>--delta<i>`` and written as extra traces.
    """
    if out_dir is not None:  # before the integration: a path that is a file fails at once
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
    report, trajectories = _evaluate(sc, variant, simulate=True, h=h, t_end=t_end,
                                     sweep=sweep)
    if out_dir is not None:
        multi = len(trajectories) > 1
        # a sweep sample at the variant's own delta is the variant's trajectory:
        # format it once, copy the file for the alias
        written: dict[int, Path] = {}
        for vname, traj in trajectories.items():
            fname = f"{sc.name}--{vname}.csv" if multi or vname != "main" else f"{sc.name}.csv"
            if id(traj) in written:
                shutil.copyfile(written[id(traj)], out / fname)
            else:
                traj.to_csv(out / fname)
                written[id(traj)] = out / fname
            report.info.append(f"wrote {fname}")
    return report, trajectories


def _sweep(ctx: _Context, report: RunReport) -> dict:
    """The variant's trajectories at every delta sample (``_integrate``), one
    info line each; a sample at the variant's own delta is its trajectory."""
    out = {}
    for idx, d in enumerate(ctx.sc.plant.delta_samples):
        traj = ctx.trajectory(d)
        out[f"{ctx.plan.name}--delta{idx}"] = traj
        eps = traj.final()[2]
        tail = float(np.linalg.norm(eps)) if eps.size else 0.0
        report.info.append(
            f"[{ctx.plan.name}] sweep delta={np.atleast_1d(d).tolist()}: "
            f"final |eps| = {tail:.3g}" + (" (diverged)" if traj.diverged else "")
        )
        report.diverged = report.diverged or traj.diverged
    return out


# -- the document schema -------------------------------------------------------------


def _swing(dims: dict, where: str) -> None:
    """Bind the sizes of the network's swing plant (the plant builder), or
    check them (a network program or controller)."""
    if "net" not in dims:
        raise ValueError(f"{where} needs a network block")
    n = dims["net"]
    swing = dict(n=n + dims["lines"], m=n, n_w=n, p=2 * n, delta_dim=1, box=power.SWING_DELTA_BOX)
    if any(dims.setdefault(size, want) != want for size, want in swing.items()):
        raise ValueError(f"{where} needs the swing plant of plant.builder")


class CheckKind(NamedTuple):
    """An expectation kind: its check, whether the check reads the integrated
    trajectory, the fields it requires, its optional ones mapped to their
    defaults (None: none), a group of which it needs one, its kind's hook,
    and the fields it reads only beside another, mapped to that one."""

    check: Callable
    simulated: bool = False
    required: tuple = ()
    optional: dict = {}
    one_of: tuple = ()
    hook: Callable | None = None
    needs: dict = {}


# The hooks: a spectrum's values have any length, bound afresh by each list; oracle_y's
# are the p outputs; the dispatch kinds compare with a swing plant's economic dispatch.
CHECK_KINDS = {
    "ros": CheckKind(_check_ros, False, ("holds",)),
    "rfs": CheckKind(_check_rfs, False, ("holds",), {"witness": None, "matches_om_basis": False}),
    "robust_full_rank": CheckKind(_check_robust_full_rank, False, ("holds",)),
    "prop": CheckKind(_check_prop, False, ("which", "overall")),
    "stabilizable": CheckKind(_check_stabilizable, False, ("value",)),
    "spectrum": CheckKind(_check_spectrum, False, ("values",), {"tol": 1e-9},
                          hook=lambda dims, where: dims.pop("values", None)),
    "hurwitz_at_samples": CheckKind(_check_hurwitz_at_samples, False, ("value",)),
    "oracle_y": CheckKind(_check_oracle_y, False, ("values",), {"tol": 1e-9},
                          hook=lambda dims, where: dims.update(values=dims["p"])),
    "oracle_matches_dispatch": CheckKind(_check_oracle_matches_dispatch, False, (), {"tol": 1e-8},
                                         hook=_swing),
    "equilibrium_mismatch": CheckKind(_check_equilibrium_mismatch, False, ("delta",), {
        "newton_tol": 1e-10, "at_least": 0.0, "equals": None, "equals_tol": 1e-6},
        needs={"equals_tol": "equals"}),
    "final_err": CheckKind(_check_final_err, True, one_of=("min", "tol")),
    "settling": CheckKind(_check_settling, True, ("by",), {"tol": 1e-3}),
    "final_cost": CheckKind(_check_final_cost, True, ("tol",)),
    "extrema": CheckKind(_check_extrema, True, one_of=("min", "max")),
    "dispatch": CheckKind(_check_dispatch, True, (), {
        "u_tol": 1e-3, "omega_tol": 1e-5, "marginal_spread_tol": 1e-4}, hook=_swing),
    "final_input_abs": CheckKind(_check_final_input_abs, True, ("index",), one_of=("min", "max")),
}


# path: (JSON type, shape, range, default), in the order of the walk.  The
# types are object, list (its items at "path[]"), str, bool, number and int
# (finite), numbers (a list of numbers, or of number lists for a 2-D shape),
# matrix ({rows, cols, data}), matrices (a list of them) and box.  An object's
# shape is the keys it requires, its range the keys of which it needs one and
# the message if it has none.  Other shapes name sizes: the plant's n, m, n_w
# and p, the network's net buses and lines, and others, each bound where first
# seen and checked everywhere after.  A range is a set of values (a dict maps a
# value to a hook on the sizes), "positive", "box" (inside plant.delta_box),
# "file name" (a string without a path separator or NUL, as it names a trace
# file) or ("<" or "<=", size) for an integer from 0.  A default is given as the
# document would give it, or as a function of the sizes.  A null object is an
# absent one.  The ``expect[]`` rows type the fields of every kind; an
# expectation takes those of its kind's record in CHECK_KINDS, with its defaults.
# ``description`` and ``notes`` are checked and not kept.
_SCHEMA = {
    "": ("object", ("name", "plant", "program"), None, None),
    "name": ("str", None, "file name", None),
    "description": ("str", None, None, None),
    "notes": ("str", None, None, None),
    "network": ("object", tuple(f.name for f in fields(power.PowerNetwork)), None, None),
    "network.n": ("int", "net", None, None),
    "network.edges": ("numbers", ("lines", 2), ("<", "net"), None),
    **{f"network.{k}": ("numbers", (size,), rng, None) for k, size, rng in (
        ("inertia", "net", "positive"), ("damping", "net", "positive"), ("p_star", "net", None),
        ("susceptance", "lines", "positive"), ("cost_a", "net", "positive"),
        ("cost_b", "net", None))},
    "network.laplacian": ("numbers", ("net", "net"), None, None),
    "plant": ("object", (), (("builder", "matrices"), "{} needs a builder or a matrices object"),
              None),
    "plant.builder": ("str", None, {"swing": _swing}, None),
    "plant.matrices": ("object", ("a", "b", "bw", "c", "d", "q"), None, None),
    **{f"plant.matrices.{k}": ("matrix", shape, None, None) for k, shape in (
        ("a", ("n", "n")), ("b", ("n", "m")), ("bw", ("n", "n_w")), ("c", ("p", "n")),
        ("d", ("p", "m")), ("q", ("p", "n_w")), ("cm", (None, "n")))},
    # one term per delta coordinate, each of its matrix's shape
    **{f"plant.matrices.{k}_delta": ("matrices", ("delta_dim", f"plant.matrices.{k}"), None, None)
       for k in _PLANT_FIELDS},
    "plant.delta_dim": ("int", "delta_dim", ("<=", None), lambda dims: dims.get("delta_dim", 0)),
    "plant.delta_box": ("box", None, None, None),
    "plant.delta_samples": ("numbers", (None, "delta_dim"), "box",
                            lambda dims: [[0.0] * dims["delta_dim"]]),
    "program": ("object", (), (("builder", "qp", "objective"), "{}.objective is missing"), None),
    "program.builder": ("str", None, {"frequency": _swing}, None),
    "program.f": ("matrix", (None, "net"), None, None),
    "program.h": ("matrix", ("n_ec", "p"), None,
                  lambda dims: {"rows": 0, "cols": dims["p"], "data": []}),
    "program.l": ("matrix", ("n_ec", "n_w"), None, None),
    "program.qp": ("object", ("m", "n"), None, None),
    "program.qp.m": ("matrix", ("p", "p"), None, None),
    "program.qp.n": ("matrix", ("p", "n_w"), None, None),
    "program.qp.c": ("numbers", ("p",), None, None),
    "program.inequalities": ("list", None, None, []),
    "program.inequalities[]": ("object", ("name", "params"), None, None),
    "program.inequalities[].name": ("str", None, {"affine"}, None),
    "program.inequalities[].params": ("object", ("g",), None, None),
    "program.inequalities[].params.offset": ("number", None, None, 0.0),
    "program.inequalities[].params.g": ("numbers", ("p",), None, None),
    "program.objective": ("object", ("name", "params"), None, None),
    "program.objective.name": ("str", None, {"l2_tracking_plus_smooth_l1"}, None),
    "program.objective.params": ("object", ("p_m", "theta", "r_indices"), None, None),
    "program.objective.params.p_m": ("int", "p_m", ("<=", "p"), None),
    "program.objective.params.theta": ("number", None, None, None),
    "program.objective.params.beta": ("number", None, "positive", 20.0),
    "program.objective.params.r_indices": ("numbers", ("p_m",), ("<", "n_w"), None),
    "om": ("object", ("variant",), None, None),
    "om.variant": ("str", None, {"rfs", "ros", "rerfs"}, None),
    "om.basis": ("matrix", ("p", None), {"auto"}, "auto"),
    "stabilizer": ("object", (), (("gains", "lqr"), "{} block needs 'gains' or 'lqr'"),
                   {"gains": {}}),
    "stabilizer.gains": ("object", (), None, None),
    **{f"stabilizer.gains.{k}": ("matrix", ("m", size), None, None) for k, size in (
        ("kx", "n"), ("knu", "nu"), ("kmu", "mu"), ("keta", "eps"), ("keps", "eps"))},
    "stabilizer.lqr": ("object", (), None, None),
    **{f"stabilizer.lqr.{k}": ("number", None, None, 1.0) for k in "qr"},
    "controller": ("object", ("name",), None, None),
    "controller.name": ("str", None, {"gather_broadcast": _swing}, None),
    "controller.c": ("numbers", ("net",), None, lambda dims: [1.0 / dims["net"]] * dims["net"]),
    "sim": ("object", ("h", "t_end"), None, None),
    "sim.h": ("number", None, "positive", None),
    "sim.t_end": ("number", None, "positive", None),
    "sim.w": ("numbers", ("n_w",), None, None),
    "sim.z0": ("numbers", ("state",), None, None),
    "sim.delta": ("numbers", ("delta_dim",), "box", None),
    "expect": ("list", None, None, []),
    "expect[]": ("object", ("kind",), None, None),
    # the kind, walked first, binds the length of the expectation's values
    "expect[].kind": ("str", None, {kind: rec.hook for kind, rec in CHECK_KINDS.items()}, None),
    **{f"expect[].{k}": ("bool", None, None, None)
       for k in ("holds", "overall", "value", "matches_om_basis")},
    **{f"expect[].{k}": ("number", None, None, None)
       for k in ("tol", "by", "equals", "equals_tol", "at_least", "newton_tol", "u_tol",
                 "omega_tol", "marginal_spread_tol", "min", "max")},
    "expect[].which": ("int", None, {4, 5, 6}, None),
    "expect[].index": ("int", None, ("<", "m"), None),
    "expect[].values": ("numbers", ("values",), None, None),
    "expect[].delta": ("numbers", ("delta_dim",), "box", None),
    "expect[].witness": ("numbers", (2, "delta_dim"), None, None),
    # objects here, each checked after its deep merge as a "variant"
    "variants": ("list", None, None, None),
    "variants[]": ("object", (), None, None),
    "variant": ("object", (), (("om", "controller"), "{} needs an om block or a controller block"),
                None),
    "variant.name": ("str", None, "file name", "main"),
}
# The blocks a variant may override, and the sizes its own program binds again.
_VARIED = ("program", "om", "stabilizer", "controller", "sim")
_PROGRAM_SIZES = ("n_ec", "p_m")
# Sizes of the built model (nu, mu and eps lengths, the loop's state): a
# shape that names one is checked once the model is built.
_MODEL_SIZES = frozenset(("nu", "mu", "eps", "state"))


def _children() -> dict:
    """``{object path: {key: (path, row)}}``, in table order; a key mapped
    to None is taken, and checked after the merge of each variant."""
    out: dict = {}
    for path, row in _SCHEMA.items():
        parent, _, key = path.rpartition(".")
        if path and not path.endswith("[]"):
            out.setdefault(parent, {})[key] = path, row
    out[""].update(dict.fromkeys(("om", "stabilizer", "controller", "sim")))
    out["variants[]"] = dict.fromkeys(("name", "expect", *_VARIED))
    out["variant"].update({key: (key, _SCHEMA[key]) for key in (*_VARIED, "expect")})
    return out


_CHILDREN = _children()


def _fit(got: int, size, dims: dict, where: str, what: str = "") -> None:
    """Check ``got`` against ``size``: a number, None (any), or the name of a
    size, bound to ``got`` where first seen (a model size is not)."""
    if size is None or (size in _MODEL_SIZES and size not in dims):
        return
    want = size if isinstance(size, int) else dims.setdefault(size, got)
    if got != want:
        raise ValueError(f"{where} has {got} {what}, expected {want}" if what
                         else f"{where} is {got}, expected {want}")


def _check_shape(arr: np.ndarray, shape, dims: dict, where: str) -> None:
    for axis, size in enumerate(shape or ()):
        if size is not None:
            _fit(arr.shape[axis], size, dims, where,
                 "entries" if arr.ndim == 1 else ("rows", "columns")[axis])


def _scalar(value, kind: str, rng, where: str, dims: dict):
    """``value`` checked to be a JSON ``kind`` ("str", "bool", or a finite
    "number" or "int") in the range ``rng``; an "int" fits an array index."""
    if kind in ("str", "bool"):
        ok = isinstance(value, str if kind == "str" else bool)
    else:
        ok = (isinstance(value, (int, float)) and not isinstance(value, bool)
              and abs(value) <= sys.float_info.max)
        if kind == "int":
            ok = ok and value == int(value) and abs(value) <= sys.maxsize
    if rng == "positive":
        ok = ok and value > 0
    elif rng == "file name":  # a trace file name: it may not leave --out
        ok = ok and not any(c in value for c in "/\\\0")
    elif isinstance(rng, tuple):
        bound = dims[rng[1]] if rng[1] else sys.maxsize
        ok = ok and 0 <= value and (value < bound if rng[0] == "<" else value <= bound)
    elif rng is not None:
        ok = ok and value in rng
    if not ok:
        raise ValueError(f"{where} must be {_expected(kind, rng, dims)}, got {value!r}")
    return float(value) if kind == "number" else int(value) if kind == "int" else value


def _expected(kind: str, rng, dims: dict) -> str:
    """What a scalar of JSON type ``kind`` in the range ``rng`` is, in words."""
    if isinstance(rng, (set, dict)):
        return "one of " + ", ".join(map(repr, rng))
    if isinstance(rng, tuple):
        return (f"an integer in [0, {dims[rng[1]]}{')' if rng[0] == '<' else ']'}" if rng[1]
                else "a non-negative integer")
    if rng == "file name":
        return "a string without '/', '\\' or NUL"
    return {"str": "a string", "bool": "true or false", "int": "an integer",
            "number": "a positive number" if rng == "positive" else "a finite number"}[kind]


def _numbers(value, shape: tuple, rng, where: str, dims: dict) -> np.ndarray:
    """A list of numbers (of number lists, for a 2-D ``shape``) as a float
    array, an int array for an integer ``rng``: one ``np.asarray``, one
    finiteness test and one pass over the entries' types (``np.asarray``
    reads a boolean among numbers as 0 or 1), the entries looked at one by
    one only to name a bad one."""
    try:
        arr = np.asarray(value) if isinstance(value, list) else None
    except ValueError:  # rows of different lengths
        arr = None
    if (arr is not None and arr.ndim == len(shape) and arr.dtype.kind in "iuf"
            and bool not in map(type, value if arr.ndim == 1 else chain.from_iterable(value))):
        arr = arr.astype(float, copy=False)
        ok = np.isfinite(arr)
        if rng == "positive":
            ok &= arr > 0
        elif rng:  # ("<", size): integers from 0
            ok = (arr == np.floor(arr)) & (arr >= 0) & (arr < dims[rng[1]])
        if np.count_nonzero(ok) == arr.size:  # faster than ok.all() on short lists
            _check_shape(arr, shape, dims, where)
            return arr.astype(np.intp) if isinstance(rng, tuple) else arr
    if not isinstance(value, list):
        what = "number lists" if len(shape) == 2 else "numbers"
        raise ValueError(f"{where} must be a list of {what}, got {type(value).__name__}")
    for i, item in enumerate(value):
        if len(shape) == 2:
            _numbers(item, shape[1:], rng, f"{where}[{i}]", dims)
        else:
            _scalar(item, "int" if isinstance(rng, tuple) else "number", rng, f"{where}[{i}]", dims)
    raise ValueError(f"{where} must hold numbers that fit an array, got {value!r}")


def _matrix(value, where: str, dims: dict) -> np.ndarray:
    if not isinstance(value, dict) or value.keys() != {"rows", "cols", "data"}:
        raise ValueError(f"{where} must be a matrix object with rows, cols and data, "
                         f"got {type(value).__name__}")
    rows, cols = value["rows"], value["cols"]
    if not (type(rows) is type(cols) is int and 0 <= min(rows, cols)
            and max(rows, cols) <= sys.maxsize):
        rows, cols = (_scalar(value[k], "int", ("<=", None), f"{where}.{k}", dims)
                      for k in ("rows", "cols"))
    return _numbers(value["data"], (rows * cols,), None, f"{where}.data", dims).reshape(rows, cols)


def _walk(value, path: str, where: str, dims: dict, origin: dict | None = None):
    """``value``, the document entry at ``where``, checked against the row of
    ``_SCHEMA`` at ``path`` and decoded: objects with their defaults filled
    in, number lists and matrices as arrays.  ``dims`` holds the sizes bound
    so far and the shapes of the matrices seen.  A key of ``origin`` (the
    document of a merged variant) is named under ``where``, another key at
    the top level, where it came from."""
    kind, shape, rng, default = _SCHEMA[path]
    if kind == "object":
        if not isinstance(value, dict):
            raise ValueError(f"{where or 'a scenario'} must be an object, "
                             f"got {type(value).__name__}")
        children, prefix, label = _CHILDREN[path], f"{where}." if where else "", where or "a scenario"
        if path == "expect[]" and isinstance(value.get("kind"), str) and value["kind"] in CHECK_KINDS:
            # the fields of the kind's record, with its defaults
            label, rec = value["kind"], CHECK_KINDS[value["kind"]]
            for key, other in rec.needs.items():
                if key in value and other not in value:
                    raise ValueError(f"{prefix}{key}: {label} reads it only beside {other}")
            declared = {"kind", *rec.required, *rec.optional, *rec.one_of}
            children = {key: (p, (*row[:3], rec.optional.get(key)))
                        for key, (p, row) in children.items() if key in declared}
            shape = ("kind", *rec.required)
            rng = rec.one_of and (rec.one_of, f"{{}}: {label} needs {' or '.join(rec.one_of)}")
        present = set()
        for key, given in value.items():
            if key not in children:
                raise ValueError(f"{prefix}{key}: unknown field; {label} takes {', '.join(children)}")
            if given is not None or not children[key] or children[key][1][0] != "object":
                present.add(key)  # a null object is an absent one
        for key in shape:
            if key not in present:
                raise ValueError(f"{prefix}{key} is missing")
        if rng and present.isdisjoint(rng[0]):
            raise ValueError(rng[1].format(where))
        out = {}
        for key, child in children.items():
            if key in present:
                given = value[key]
            elif child and child[1][3] is not None:
                given = child[1][3](dims) if callable(child[1][3]) else child[1][3]
            else:
                continue
            if child:
                name = (key if origin is not None and key not in origin
                        # a plant matrix is named plant.<k>, as PlantMatrices names it
                        else f"plant.{key}" if path == "plant.matrices" else prefix + key)
                out[key] = _walk(given, child[0], name, dims)
        return out
    if kind in ("list", "matrices") and not isinstance(value, list):
        raise ValueError(f"{where} must be a list, got {type(value).__name__}")
    if kind == "list":
        return [_walk(item, path + "[]", f"{where}[{i}]", dims) for i, item in enumerate(value)]
    if kind == "matrix":
        if isinstance(value, str) and rng and value in rng:
            return value
        arr = _matrix(value, where, dims)
        _check_shape(arr, shape, dims, where)
        dims[path] = arr.shape
        return arr
    if kind == "matrices":
        (size, base), name = shape, where.removesuffix("_delta")
        if base not in dims:
            raise ValueError(f"{where} needs {name}")
        _fit(len(value), size, dims, where, "entries")
        terms = [_matrix(item, f"{where}[{i}]", dims) for i, item in enumerate(value)]
        for i, (rows, cols) in enumerate(term.shape for term in terms):
            if (rows, cols) != dims[base]:
                raise ValueError(f"{where}[{i}] is {rows}x{cols}, "
                                 f"{name} is {dims[base][0]}x{dims[base][1]}")
        return terms
    if kind == "box":
        if not isinstance(value, list) or len(value) != dims["delta_dim"]:
            raise ValueError(f"{where} must list one [lo, hi] pair per delta coordinate "
                             f"({dims['delta_dim']}), got {value!r}")
        for i, pair in enumerate(value):
            if not isinstance(pair, list) or len(pair) != 2:
                raise ValueError(f"{where}[{i}] must be a pair [lo, hi], got {pair!r}")
            lo, hi = _numbers(pair, (2,), None, f"{where}[{i}]", dims)
            if lo > hi:
                raise ValueError(f"{where}[{i}] is empty: lo {pair[0]} exceeds hi {pair[1]}")
        return dims.setdefault("box", [tuple(pair) for pair in value] or None)
    if kind == "numbers":
        arr = _numbers(value, shape, None if rng == "box" else rng, where, dims)
        if rng == "box":
            checked_delta(arr, dims["delta_dim"], dims.get("box"), where + "[{}]" * (arr.ndim - 1))
        return arr
    value = _scalar(value, kind, rng, where, dims)
    if isinstance(rng, dict) and callable(rng.get(value)):
        rng[value](dims, where)
    _fit(value, shape, dims, where)
    return value


def load_scenario(source) -> Scenario:
    """Load a scenario from a path, a bundled name, or an already-parsed dict.

    The whole document is checked against ``_SCHEMA`` before any object is
    built: the top level, then each variant after its deep merge.  A bad
    field is a ValueError that names its path.
    """
    if isinstance(source, dict):
        doc = source
    else:
        path = Path(source)
        if not path.exists() and str(source) in BUNDLED_NAMES:
            path = bundled_path(str(source))
        if not path.exists():
            raise FileNotFoundError(f"no scenario file or bundled name {source!r}")
        try:
            doc = json.loads(path.read_bytes().decode("utf-8"))
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8 text at byte offset {exc.start}") from exc
    dims: dict = {}
    top = _walk(doc, "", "", dims)
    variant_docs = doc.get("variants") or [{}]
    checked = []
    for i, vdoc in enumerate(variant_docs):
        # the top-level program is checked already: merged only into a variant that changes it
        blocks = {k: doc[k] for k in _VARIED if k in doc and (k != "program" or k in vdoc)}
        sizes = {k: v for k, v in dims.items() if k not in _PROGRAM_SIZES}
        checked.append(_walk(_deep_merge(blocks, vdoc), "variant", f"variants[{i}]", sizes,
                             origin=vdoc))
        # a variant's name keys its trace and --variant: two of one name would share them
        if any(v["name"] == checked[-1]["name"] for v in checked[:-1]):
            raise ValueError(f"variants[{i}].name: another variant is named "
                             f"{checked[-1]['name']!r}; variant names must be unique")
    # a simulated expectation reads its variant's trajectory; one at the top level, the first's
    for at, specs, v in (("expect", top["expect"], checked[0]),
                         *((f"variants[{i}].expect", v["expect"], v) for i, v in enumerate(checked))):
        for j, spec in enumerate(specs):
            if "sim" not in v and CHECK_KINDS[spec["kind"]].simulated:
                raise ValueError(f"{at}[{j}]: {spec['kind']} reads the trajectory of variant "
                                 f"{v['name']!r}, which has no sim block")

    network = None
    if "network" in top:
        with _named("network"):
            network = power.PowerNetwork(**top["network"])
    with _named("plant"):
        up = _build_plant(top["plant"], network)
    with _named("program"):
        program, objective = _build_program(top["program"], network, dims)
    plans = []
    for i, (v, vdoc) in enumerate(zip(checked, variant_docs)):
        def where(block, vdoc=vdoc, i=i):
            return f"variants[{i}].{block}" if block in vdoc else block

        vprog, vobjective = program, objective
        if "program" in v:
            with _named(where("program")):
                vprog, vobjective = _build_program(v["program"], network, dims)
        om, stab, gb_w, vprog = _build_controller(v, up, vprog, network, where)
        # the shapes that name a size of the built model (_MODEL_SIZES)
        model = (dict(nu=om.n_ic, mu=om.n_mu, eps=om.eps_dim, state=om.n_ic + om.n_mu + om.eps_dim)
                 if om is not None else {"state": 1})
        model["state"] += dims["n"]
        for k, gain in v["stabilizer"].get("gains", {}).items():
            _check_shape(gain, _SCHEMA[f"stabilizer.gains.{k}"][1], dims | model,
                         f"{where('stabilizer')}.gains.{k}")
        if "z0" in v.get("sim", {}):
            _check_shape(v["sim"]["z0"], ("state",), model, f"{where('sim')}.z0")
        plans.append(VariantPlan(name=v["name"], om=om, stabilizer=stab, gb_weights=gb_w,
                                 sim=v.get("sim"), program=vprog, expect=v["expect"],
                                 objective=vobjective))
    return Scenario(name=top["name"], plant=up, network=network, variants=plans,
                    expect=top["expect"])


def bundled_scenarios() -> list[str]:
    """Names of the scenarios shipped with the package."""
    return list(BUNDLED_NAMES)


def bundled_path(name: str) -> Path:
    if name not in BUNDLED_NAMES:
        raise KeyError(f"unknown bundled scenario {name!r}")
    return Path(str(resources.files("osscontrol.scenario_files") / f"{name}.json"))
