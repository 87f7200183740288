"""Scenario definitions: JSON loading, bundled library, and the check/run engine.

A scenario file is a JSON document describing plant, program, controller,
simulation parameters, and an ``expect`` block of machine-checkable
expectations.  Matrices are given row-major with explicit ``rows``/``cols``
so shape typos fail at load time.  Variants override top-level keys (deep
merge) to express paired runs such as two controller tunings.

Expectations come in two flavors: analysis checks (subspace robustness,
proposition clause lists, spectra, equilibrium comparisons) and simulation
checks (convergence metrics on an integrated trajectory).  ``check`` runs
only the former; ``run`` runs both.  ``CHECKS`` maps each expectation kind to
its check function, and loading rejects a kind that is not in it.
"""

from __future__ import annotations

import copy
import json
import math
import shutil
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from importlib import resources
from pathlib import Path

import numpy as np

from . import power
from .errors import OssError
from .matlib import DELTA_BLOCK, _map_blocks, eigenvalues, numerical_rank, range_basis, subspace_equal
from .omodels import OptimalityModel
from .optprob import ConvexProgram, check_gradients, oracle_optimal_output, tracking_objective
from .plant import PlantMatrices, PlantStack, UncertainPlant, build_augmented_qp, checked_delta, eval_plant
from .simulate import ClosedLoopSystem, Trajectory, assemble, convergence_metrics, equilibrium_solve, integrate_rk4
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


# -- JSON decoding -----------------------------------------------------------------


def _decode_matrix(obj, what: str) -> np.ndarray:
    if not isinstance(obj, dict) or not {"rows", "cols", "data"} <= set(obj):
        raise ValueError(f"{what}: matrices need explicit rows/cols/data")
    rows, cols, data = obj["rows"], obj["cols"], obj["data"]
    if not (isinstance(rows, int) and isinstance(cols, int) and isinstance(data, list)
            and all(isinstance(v, (int, float)) for v in data)):
        raise ValueError(f"{what}: rows and cols must be integers and data a flat list of numbers")
    if len(data) != rows * cols:
        raise ValueError(f"{what}: expected {rows * cols} entries, got {len(data)}")
    return np.asarray(data, dtype=float).reshape(rows, cols)


def _decode_vector(obj, what: str) -> np.ndarray:
    arr = np.asarray(obj, dtype=float).ravel()
    if arr.size and not np.isfinite(arr).all():
        raise ValueError(f"{what}: entries must be finite")
    return arr


def _field(block, key: str, where: str):
    """``block[key]`` of the JSON object at dotted path ``where``; a missing
    field or a block that is not an object is a ValueError naming the path."""
    if not isinstance(block, dict):
        raise ValueError(f"{where} must be an object, got {type(block).__name__}")
    if key not in block:
        raise ValueError(f"{where}.{key} is missing")
    return block[key]


def _number(value, where: str, positive: bool = False, integer: bool = False):
    """``value`` as a float, or with ``integer`` as an int; anything but a
    finite number (with ``positive`` a positive one, with ``integer`` an
    integral one) is a ValueError naming ``where``."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value) or (positive and value <= 0)
            or (integer and value != int(value))):
        what = "an integer" if integer else f"a {'positive' if positive else 'finite'} number"
        raise ValueError(f"{where} must be {what}, got {value!r}")
    return int(value) if integer else float(value)


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
    if "builder" in spec:
        name = spec["builder"]
        if name == "swing":
            if network is None:
                raise ValueError("swing plant builder needs a network block")
            # the swing plant's delta box rejects a non-finite sample
            return power.build_swing_plant(network, spec.get("delta_samples",
                                                             [[0.0], [0.3], [-0.3]]))
        raise ValueError(f"unknown plant builder {name!r}")
    mats = spec.get("matrices")
    if not isinstance(mats, dict):
        raise ValueError("plant needs a builder or a matrices object")
    missing = [f"plant.matrices.{k}" for k in ("a", "b", "bw", "c", "d", "q") if k not in mats]
    if missing:
        raise ValueError(f"missing required matrices: {', '.join(missing)}")
    names = ("a", "b", "bw", "c", "d", "q", "cm")
    unknown = sorted(set(mats) - set(names) - {f"{k}_delta" for k in names})
    if unknown:
        raise ValueError(f"plant.matrices.{unknown[0]}: unknown matrix; the plant takes "
                         f"{', '.join(names)} and their _delta lists")
    raw = {k: _decode_matrix(mats[k], f"plant.{k}") for k in names if k in mats}
    base = PlantMatrices(**raw)
    addends = {}
    for k in names:
        if f"{k}_delta" not in mats:
            continue
        if k not in raw:
            raise ValueError(f"plant.{k}_delta needs plant.{k}")
        terms = [_decode_matrix(mm, f"plant.{k}_delta[{i}]")
                 for i, mm in enumerate(mats[f"{k}_delta"])]
        for i, t in enumerate(terms):
            if t.shape != raw[k].shape:
                raise ValueError(f"plant.{k}_delta[{i}] is {t.shape[0]}x{t.shape[1]}, "
                                 f"plant.{k} is {raw[k].shape[0]}x{raw[k].shape[1]}")
        addends[k] = [t.reshape(getattr(base, k).shape) for t in terms]
    delta_dim = _number(spec.get("delta_dim", max((len(v) for v in addends.values()), default=0)),
                        "plant.delta_dim", integer=True)
    for k, v in addends.items():
        if len(v) != delta_dim:
            raise ValueError(f"plant.{k}_delta must list one matrix per delta coordinate")

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

    samples = [_decode_vector(s, "plant.delta_samples")
               for s in spec.get("delta_samples", [[0.0] * delta_dim])]
    return UncertainPlant(evaluate=evaluate, delta_dim=delta_dim, delta_samples=samples,
                          delta_box=_delta_box(spec.get("delta_box"), delta_dim))


def _delta_box(box, delta_dim: int):
    """The ``plant.delta_box`` entry, checked: exactly ``delta_dim`` pairs
    [lo, hi] of finite numbers with lo <= hi; None when absent or empty."""
    if box is None:
        return None
    if not isinstance(box, list) or len(box) != delta_dim:
        raise ValueError(f"plant.delta_box must list one [lo, hi] pair per delta coordinate "
                         f"({delta_dim}), got {box!r}")
    for i, pair in enumerate(box):
        where = f"plant.delta_box[{i}]"
        if not isinstance(pair, list) or len(pair) != 2:
            raise ValueError(f"{where} must be a pair [lo, hi], got {pair!r}")
        lo, hi = (_number(v, f"{where}[{j}]") for j, v in enumerate(pair))
        if lo > hi:
            raise ValueError(f"{where} is empty: lo {pair[0]} exceeds hi {pair[1]}")
    return [tuple(pair) for pair in box] or None


def _tracking_numbers(params: dict) -> dict:
    """``p_m``, ``r_idx``, ``theta`` and ``beta`` of a tracking objective's
    ``params`` block, each checked."""
    where = "program.objective.params"
    p_m = _number(_field(params, "p_m", where), f"{where}.p_m", integer=True)
    theta = _number(_field(params, "theta", where), f"{where}.theta")
    beta = _number(params.get("beta", 20.0), f"{where}.beta", positive=True)
    r_indices = _field(params, "r_indices", where)
    if not isinstance(r_indices, list):
        raise ValueError(f"{where}.r_indices must be a list, got {r_indices!r}")
    r_idx = np.asarray([_number(i, f"{where}.r_indices[{j}]", integer=True)
                        for j, i in enumerate(r_indices)], dtype=np.intp)
    return {"p_m": p_m, "r_idx": r_idx, "theta": theta, "beta": beta}


def _build_program(spec: dict, network: power.PowerNetwork | None, p_hint: int,
                   n_w: int) -> tuple[ConvexProgram, dict | None]:
    """The program of a ``program`` block, with the numbers of its tracking
    objective (``_tracking_numbers``), or None for other objectives."""
    if spec.get("builder") == "frequency":
        if network is None:
            raise ValueError("frequency program builder needs a network block")
        f = _decode_matrix(spec["f"], "program.f") if "f" in spec else None
        return power.frequency_program(network, f), None
    h = _decode_matrix(spec["h"], "program.h") if "h" in spec else None
    l = _decode_matrix(spec["l"], "program.l") if "l" in spec else None
    ineqs = []
    for i, item in enumerate(spec.get("inequalities", [])):
        where = f"program.inequalities[{i}]"
        if _field(item, "name", where) != "affine":
            raise ValueError(f"{where}.name: unknown inequality kind {item['name']!r}")
        params = _field(item, "params", where)
        g = _decode_vector(_field(params, "g", f"{where}.params"), f"{where}.params.g")
        offset = _number(params.get("offset", 0.0), f"{where}.params.offset")

        def f(y, w, g=g, offset=offset):
            return float(g @ np.asarray(y, dtype=float).ravel() - offset)

        def gr(y, w, g=g):
            return g

        ineqs.append((f, gr))
    if "qp" in spec:
        qp = spec["qp"]
        return ConvexProgram.from_qp(
            _decode_matrix(_field(qp, "m", "program.qp"), "program.qp.m"),
            _decode_matrix(_field(qp, "n", "program.qp"), "program.qp.n"),
            n_w=n_w, h_eq=h, l_eq=l,
            c=_decode_vector(qp["c"], "program.qp.c") if "c" in qp else None,
            inequalities=ineqs,
        ), None
    obj = _field(spec, "objective", "program")
    name = _field(obj, "name", "program.objective")
    if name != "l2_tracking_plus_smooth_l1":
        raise ValueError(f"program.objective.name: unknown objective {name!r}")
    numbers = _tracking_numbers(_field(obj, "params", "program.objective"))
    prog = ConvexProgram.from_callables(p_hint, n_w, *tracking_objective(**numbers),
                                        h_eq=h, l_eq=l, inequalities=ineqs)
    check_gradients(prog, np.zeros(n_w), np.random.default_rng(0))
    return prog, numbers


def _resolve_basis(spec, up: UncertainPlant, prog: ConvexProgram, variant: str) -> np.ndarray:
    if spec != "auto":
        return _decode_matrix(spec, "om.basis")
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
    """One resolved run: an optimality model (or custom loop), stabilizer, sim block."""

    name: str
    om: OptimalityModel | None
    stabilizer: Stabilizer | None
    controller_kind: str
    gb_weights: np.ndarray | None
    sim: dict | None
    program: ConvexProgram | None = None
    expect: list[dict] = field(default_factory=list)
    # the numbers of a tracking objective (``_tracking_numbers``), else None
    objective: dict | None = None


@dataclass
class Scenario:
    name: str
    description: str
    plant: UncertainPlant
    program: ConvexProgram
    network: power.PowerNetwork | None
    variants: list[VariantPlan]
    expect: list[dict] = field(default_factory=list)
    notes: str = ""

    def variant(self, name: str) -> VariantPlan:
        for v in self.variants:
            if v.name == name:
                return v
        raise KeyError(f"scenario {self.name} has no variant {name!r}")


def _lqr(up: UncertainPlant, om: OptimalityModel, spec, where: str) -> Stabilizer:
    """LQR gains for the augmented plant at the nominal delta, weights q I and
    r I from the ``lqr`` block ``spec`` at dotted path ``where``."""
    if not isinstance(spec, dict):
        raise ValueError(f"{where} must be an object, got {type(spec).__name__}")
    pm = eval_plant(up, up.nominal)
    aug = build_augmented_qp(pm, om)
    q = _number(spec.get("q", 1.0), f"{where}.q") * np.eye(aug.n_state)
    r = _number(spec.get("r", 1.0), f"{where}.r") * np.eye(pm.m)
    return synthesize_lqr(aug, q, r)


def _build_controller(doc: dict, up: UncertainPlant, prog: ConvexProgram,
                      network: power.PowerNetwork | None):
    """Resolve (om, stabilizer, controller_kind, gb_weights, program) for one variant."""
    if "controller" in doc:
        ctrl = doc["controller"]
        name = _field(ctrl, "name", "controller")
        if network is None:
            raise ValueError("named controllers need a network block")
        if name == "dapi":
            om, stab = power.build_dapi(network, _number(ctrl.get("k", 1.0), "controller.k"))
            return om, stab, "standard", None, om.program
        if name == "novel":
            weights = ctrl.get("c", [1.0 / network.n] * network.n)
            gains = ctrl.get("gains")
            if gains is not None:
                for key in ("k1", "k2", "k3"):
                    _field(gains, key, "controller.gains")
            om, stab = power.build_novel_freq_controller(network, weights, gains)
            if stab is None:
                stab = _lqr(up, om, ctrl.get("lqr", {}), "controller.lqr")
            return om, stab, "standard", None, om.program
        if name == "gather_broadcast":
            weights = np.asarray(ctrl.get("c", [1.0 / network.n] * network.n), dtype=float)
            gb_prog = power.frequency_program(network, weights.reshape(1, -1))
            return None, None, "gather_broadcast", weights, gb_prog
        raise ValueError(f"unknown controller {name!r}")

    om_spec = doc.get("om")
    if om_spec is None:
        raise ValueError("scenario needs an om block or a controller block")
    variant = _field(om_spec, "variant", "om")
    basis = _resolve_basis(om_spec.get("basis", "auto"), up, prog, variant)
    om = OptimalityModel(variant=variant, basis=basis, program=prog)

    stab_spec = doc.get("stabilizer", {"gains": {}})
    if "gains" in stab_spec:
        g = stab_spec["gains"]
        if not isinstance(g, dict):
            raise ValueError(f"stabilizer.gains must be an object, got {type(g).__name__}")
        blocks = {k: _decode_matrix(g[k], f"stabilizer.{k}") for k in
                  ("kx", "knu", "kmu", "keta", "keps") if k in g}
        stab = Stabilizer(**blocks)
    elif "lqr" in stab_spec:
        stab = _lqr(up, om, stab_spec["lqr"], "stabilizer.lqr")
    else:
        raise ValueError("stabilizer block needs 'gains' or 'lqr'")
    return om, stab, "standard", None, prog


# Numeric fields an expectation may carry, whatever its kind: numbers (the
# input ``index`` an integer), and lists of numbers.
_NUMBER_FIELDS = ("tol", "by", "equals", "equals_tol", "at_least", "newton_tol", "u_tol",
                  "omega_tol", "marginal_spread_tol", "min", "max", "index")
_VECTOR_FIELDS = ("values", "delta")


def _expectations(specs, where: str) -> list[dict]:
    """The ``expect`` list at ``where``, each entry checked for a known kind,
    the fields its check requires and the type of its numeric fields."""
    if not isinstance(specs, list):
        raise ValueError(f"{where} must be a list of expectation objects")
    for i, spec in enumerate(specs):
        if not isinstance(spec, dict):
            raise ValueError(f"{where}[{i}] must be an object with a kind, "
                             f"got {type(spec).__name__}")
        kind = spec.get("kind")
        if not isinstance(kind, str) or kind not in CHECKS:
            raise ValueError(f"{where}[{i}].kind: unknown expectation kind {kind!r}")
        missing = [name for name in CHECKS[kind][2] if name not in spec]
        if missing:
            raise ValueError(f"{where}[{i}].{missing[0]} is missing: a {kind} check needs it")
        if kind == "prop" and spec.get("which") not in (4, 5, 6):
            raise ValueError(f"{where}[{i}].which must be 4, 5 or 6, got {spec.get('which')!r}")
        for key in _NUMBER_FIELDS:
            if key in spec:
                _number(spec[key], f"{where}[{i}].{key}", integer=key == "index")
        for key in _VECTOR_FIELDS:
            if key in spec:
                if not isinstance(spec[key], list):
                    raise ValueError(f"{where}[{i}].{key} must be a list of numbers, "
                                     f"got {spec[key]!r}")
                for j, value in enumerate(spec[key]):
                    _number(value, f"{where}[{i}].{key}[{j}]")
    return list(specs)


def _require_objects(doc: dict, where: str) -> None:
    """Reject a block of ``doc`` that is not a JSON object (``sim`` may be null)."""
    for key in ("plant", "program", "network", "om", "stabilizer", "controller", "sim"):
        val = doc.get(key)
        if key in doc and not isinstance(val, dict) and not (key == "sim" and val is None):
            raise ValueError(f"{where}{key} must be an object, got {type(val).__name__}")


def load_scenario(source) -> Scenario:
    """Load a scenario from a path, a bundled name, or an already-parsed dict."""
    if isinstance(source, dict):
        doc = source
    else:
        path = Path(source)
        if not path.exists() and str(source) in BUNDLED_NAMES:
            path = bundled_path(str(source))
        if not path.exists():
            raise FileNotFoundError(f"no scenario file or bundled name {source!r}")
        with open(path) as f:
            try:
                doc = json.load(f)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"a scenario must be a JSON object, got {type(doc).__name__}")
    for key in ("name", "plant", "program", "sim"):
        if key not in doc:
            raise ValueError(f"scenario is missing required key {key!r}")
    _require_objects(doc, "")

    network = None
    if "network" in doc:
        net = {f.name: _field(doc["network"], f.name, "network")
               for f in fields(power.PowerNetwork)}
        net["n"] = _number(net["n"], "network.n", integer=True)
        network = power.PowerNetwork(**net)

    up = _build_plant(doc["plant"], network)
    pm0 = eval_plant(up, up.nominal)
    program, objective = _build_program(doc["program"], network, pm0.p, pm0.n_w)

    variant_docs = doc.get("variants") or [{}]
    if not isinstance(variant_docs, list):
        raise ValueError("variants must be a list of objects")
    plans = []
    for i, vdoc in enumerate(variant_docs):
        if not isinstance(vdoc, dict):
            raise ValueError(f"variants[{i}] must be an object, got {type(vdoc).__name__}")
        _require_objects(vdoc, f"variants[{i}].")
        merged = _deep_merge(
            {k: doc[k] for k in ("om", "stabilizer", "controller", "sim", "program") if k in doc},
            {k: vdoc[k] for k in ("om", "stabilizer", "controller", "sim", "program") if k in vdoc},
        )
        vprog, vobjective = program, objective
        if "program" in vdoc:
            vprog, vobjective = _build_program(merged["program"], network, pm0.p, pm0.n_w)
        om, stab, kind, gb_w, vprog = _build_controller(merged, up, vprog, network)
        sim = merged.get("sim")
        if sim is not None:
            for key in ("h", "t_end"):
                _number(_field(sim, key, "sim"), f"sim.{key}", positive=True)
            if sim.get("delta") is not None:
                where = ("sim.delta" if "delta" not in (vdoc.get("sim") or {})
                         else f"variants[{i}].sim.delta")
                checked_delta(_decode_vector(sim["delta"], where), up.delta_dim, up.delta_box,
                              where)
        plans.append(VariantPlan(
            name=vdoc.get("name", "main"),
            om=om, stabilizer=stab, controller_kind=kind, gb_weights=gb_w,
            sim=sim, program=vprog,
            expect=_expectations(vdoc.get("expect", []), f"variants[{i}].expect"),
            objective=vobjective,
        ))
    return Scenario(
        name=doc["name"], description=doc.get("description", ""),
        plant=up, program=program, network=network, variants=plans,
        expect=_expectations(doc.get("expect", []), "expect"), notes=doc.get("notes", ""),
    )


def bundled_scenarios() -> list[str]:
    """Names of the scenarios shipped with the package."""
    return list(BUNDLED_NAMES)


def bundled_path(name: str) -> Path:
    if name not in BUNDLED_NAMES:
        raise KeyError(f"unknown bundled scenario {name!r}")
    return Path(str(resources.files("osscontrol.scenario_files") / f"{name}.json"))


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
    are read once, as arrays (``sample_spectra``): DELTA_BLOCK samples at a
    time, the blocks mapped over threads.  Trajectories are integrated
    before any check runs (``_integrate``).
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
            return _decode_vector(self.sim["w"], "sim.w")
        if self.sc.network is not None:
            return self.sc.network.p_star
        raise ValueError("sim block needs a disturbance vector w")

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
            raise ValueError("this check needs a standard optimality-model controller")
        return self.plan.om

    def pm(self, delta=None) -> PlantMatrices:
        return eval_plant(self.sc.plant, self.delta if delta is None else delta)

    def oracle(self, delta=None) -> dict:
        prog = self.plan.program if self.plan.program is not None else self.sc.program
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
        return (_decode_vector(self.sim["z0"], "sim.z0") if "z0" in self.sim
                else np.zeros(n_state))

    def trajectory(self, delta=None) -> Trajectory:
        """The trajectory at one delta, integrated by ``_integrate``."""
        d = self.delta if delta is None else np.asarray(delta, dtype=float)
        traj = self._cache.get(("trajectory", d.tobytes()))
        if traj is None:
            raise ValueError(f"variant {self.plan.name!r} has no sim block to integrate")
        return traj

    @cached_property
    def subspaces(self) -> dict:
        """The ``check_rfs`` report, its ``check_ros`` report under ``"ros"``:
        the ``ros`` and ``rfs`` checks share one pass over the samples."""
        return check_rfs(self.sc.plant, self.sc.program.h_eq)

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
        hold its closures and matrices.  Blocks of DELTA_BLOCK deltas are
        mapped over threads (``_map_blocks``); a block that cannot be built
        is built again one delta at a time, on this thread.
        """
        deltas = np.asarray(deltas, dtype=float)
        tops = np.full(len(deltas), np.nan)
        errors = {}

        def block_tops(span):
            # on a pool thread: returns values, caches nothing
            try:
                return self._spectra(deltas[span[0]: span[1]]).real.max(axis=-1)
            except (ValueError, OssError) as exc:
                return exc

        spans = [(lo, min(lo + DELTA_BLOCK, len(deltas)))
                 for lo in range(0, len(deltas), DELTA_BLOCK)]
        for (lo, hi), got in zip(spans, _map_blocks(block_tops, spans)):
            parts = [(lo, got)]
            if isinstance(got, Exception) and hi - lo > 1:
                parts = [(i, block_tops((i, i + 1))) for i in range(lo, hi)]
            for i, got in parts:
                if isinstance(got, Exception):
                    errors[i] = got
                else:
                    tops[i: i + len(got)] = got
        return tops, errors

    @cached_property
    def sample_spectra(self) -> tuple[np.ndarray, dict]:
        """``spectrum_tops`` of the delta samples, shared by the spectrum info
        lines and the ``hurwitz_at_samples`` check."""
        return self.spectrum_tops(self.sc.plant.delta_samples)

    def metrics(self, settle_tol: float = 1e-3) -> dict:
        return convergence_metrics(self.trajectory(), self.oracle()["y_star"], settle_tol)


# Each check takes (ctx, spec) and returns (passed, detail).


def _within(value, spec: dict, lo: str, hi: str, cast=float) -> bool:
    """``spec[lo] <= value <= spec[hi]``, each bound only when present."""
    return ((lo not in spec or value >= cast(spec[lo]))
            and (hi not in spec or value <= cast(spec[hi])))


def _witness_detail(rep: dict) -> str:
    detail = f"holds={rep['holds']}"
    if rep["witness"] is not None:
        detail += f", witness deltas {rep['witness'][0].tolist()} vs {rep['witness'][1].tolist()}"
    return detail + f", max sine {rep['max_sine']:.3g} over {rep['deltas']} deltas"


def _check_ros(ctx, spec):
    rep = ctx.subspaces["ros"]
    return rep["holds"] == bool(spec["holds"]), _witness_detail(rep)


def _check_rfs(ctx, spec):
    rep = ctx.subspaces
    ok = rep["holds"] == bool(spec["holds"])
    detail = _witness_detail(rep)
    if spec.get("witness") is not None and rep["witness"] is not None:
        want_w = [np.asarray(x, dtype=float) for x in spec["witness"]]
        ok = ok and all(np.allclose(a, b) for a, b in zip(want_w, rep["witness"]))
    om = ctx.plan.om
    if spec.get("matches_om_basis") and om is not None:
        same = subspace_equal(range_basis(om.basis),
                              range_basis(rep["t0"])) if rep["holds"] else False
        ok = ok and same
        detail += f", om basis spans it: {same}"
    return ok, detail


def _check_robust_full_rank(ctx, spec):
    got = check_robust_full_rank(ctx.sc.plant)
    return got == bool(spec["holds"]), f"holds={got}"


def _check_prop(ctx, spec):
    which = int(spec["which"])
    om = ctx.om
    # resolved per call, so a wrapper put on the module name is the one called
    check = {4: prop4_check, 5: prop5_check, 6: prop6_check}[which]
    rep = check(ctx.sc.plant, ctx.delta, om.program, om.basis)
    return (rep.overall == bool(spec["overall"]),
            f"prop{which} overall={rep.overall}, direct PBH={rep.direct_pbh}")


def _check_stabilizable(ctx, spec):
    got = augmented_pbh(ctx.pm(), ctx.om)[0]
    return got == bool(spec["value"]), f"augmented plant stabilizable+detectable={got}"


def _check_spectrum(ctx, spec):
    got = np.sort_complex(ctx.spectrum())
    want = np.sort_complex(np.asarray(spec["values"], dtype=complex))
    ok = got.size == want.size and np.abs(got - want).max() <= float(spec.get("tol", 1e-9))
    return ok, f"spectrum={np.round(got, 6).tolist()}"


def _check_hurwitz_at_samples(ctx, spec):
    tops, errors = ctx.sample_spectra
    if errors:
        raise next(iter(errors.values()))
    worst = float(tops.max())
    return ((worst < 0) == bool(spec["value"]),
            f"max Re over samples = {worst:.3g} ({len(tops)} deltas)")


def _check_oracle_y(ctx, spec):
    err = float(np.linalg.norm(ctx.oracle()["y_star"] - np.asarray(spec["values"], dtype=float)))
    return err <= float(spec.get("tol", 1e-9)), f"|y* - target| = {err:.3g}"


def _check_oracle_matches_dispatch(ctx, spec):
    y_star = ctx.oracle()["y_star"]
    err = float(np.linalg.norm(y_star - power.dispatch_oracle(ctx.sc.network, ctx.w)["y_star"]))
    return err <= float(spec.get("tol", 1e-8)), f"|oracle - dispatch| = {err:.3g}"


def _check_equilibrium_mismatch(ctx, spec):
    d = np.asarray(spec["delta"], dtype=float)
    sys = ctx.loop(d)
    zbar, resid = equilibrium_solve(sys, np.zeros(sys.n_state),
                                    tol=float(spec.get("newton_tol", 1e-10)))
    ybar = sys.outputs(zbar[None])[0][0]
    gap = float(np.linalg.norm(ybar - ctx.oracle(d)["y_star"]))
    ok = gap >= float(spec.get("at_least", 0.0))
    if "equals" in spec:
        ok = ok and abs(gap - float(spec["equals"])) <= float(spec.get("equals_tol", 1e-6))
    return ok, f"|ybar - y*| = {gap:.6g} (newton residual {resid:.1e})"


def _check_final_err(ctx, spec):
    err = ctx.metrics()["final_err"]
    return _within(err, spec, "min", "tol"), f"final err = {err:.3g}"


def _check_settling(ctx, spec):
    settling = ctx.metrics(float(spec.get("tol", 1e-3)))["settling_time"]
    return settling <= float(spec["by"]), f"settling time = {settling:.3g}"


def _check_final_cost(ctx, spec):
    gap = abs(float(ctx.trajectory().cost[-1]) - ctx.oracle()["cost"])
    return gap <= float(spec["tol"]), f"|final cost - optimal cost| = {gap:.3g}"


def _check_extrema(ctx, spec):
    count = ctx.metrics()["extrema_count"]
    return _within(count, spec, "min", "max", int), f"cost extrema after transient = {count}"


def _check_dispatch(ctx, spec):
    net = ctx.sc.network
    y_end = ctx.trajectory().y[-1]
    disp = power.dispatch_oracle(net, ctx.w)
    u_end, omega_end = y_end[:net.n], y_end[net.n:]
    marg = net.marginal_cost(u_end)
    u_err = float(np.abs(u_end - disp["u_star"]).max())
    w_err = float(np.abs(omega_end).max())
    spread = float(marg.max() - marg.min())
    ok = (u_err <= float(spec.get("u_tol", 1e-3))
          and w_err <= float(spec.get("omega_tol", 1e-5))
          and spread <= float(spec.get("marginal_spread_tol", 1e-4)))
    return ok, (f"max|u-u*|={u_err:.2e}, max|omega|={w_err:.2e}, "
                f"marginal spread={spread:.2e}")


def _check_final_input_abs(ctx, spec):
    index = int(spec["index"])
    u_end = ctx.trajectory().u[-1]
    if not 0 <= index < u_end.size:
        raise ValueError(f"final_input_abs index {index} is not one of the {u_end.size} inputs")
    val = abs(float(u_end[index]))
    return _within(val, spec, "min", "max"), f"|u_{index + 1}(t_end)| = {val:.4g}"


# kind -> (check, whether it reads the integrated trajectory, required fields)
CHECKS = {
    "ros": (_check_ros, False, ("holds",)),
    "rfs": (_check_rfs, False, ("holds",)),
    "robust_full_rank": (_check_robust_full_rank, False, ("holds",)),
    "prop": (_check_prop, False, ("which", "overall")),
    "stabilizable": (_check_stabilizable, False, ("value",)),
    "spectrum": (_check_spectrum, False, ("values",)),
    "hurwitz_at_samples": (_check_hurwitz_at_samples, False, ("value",)),
    "oracle_y": (_check_oracle_y, False, ("values",)),
    "oracle_matches_dispatch": (_check_oracle_matches_dispatch, False, ()),
    "equilibrium_mismatch": (_check_equilibrium_mismatch, False, ("delta",)),
    "final_err": (_check_final_err, True, ()),
    "settling": (_check_settling, True, ("by",)),
    "final_cost": (_check_final_cost, True, ("tol",)),
    "extrema": (_check_extrema, True, ()),
    "dispatch": (_check_dispatch, True, ()),
    "final_input_abs": (_check_final_input_abs, True, ("index",)),
}
SIM_CHECK_KINDS = frozenset(kind for kind, (_, simulated, _) in CHECKS.items() if simulated)


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
    p_m, r_idx = nums[0]["p_m"], nums[0]["r_idx"]
    if any(n["p_m"] != p_m or not np.array_equal(n["r_idx"], r_idx) for n in nums):
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
    bit-identical to integrating its request alone.
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
        traj = integrate_rk4(sys, z0, float(ctx.sim["t_end"]), float(ctx.sim["h"]))
        for (c, d), row in zip(rows, traj.rows() if z0.ndim == 2 else [traj]):
            c._cache["trajectory", d.tobytes()] = row


def _run_check(ctx: _Context, spec: dict) -> CheckResult:
    check = CHECKS[spec["kind"]][0]
    passed, detail = check(ctx, spec)
    return CheckResult(spec["kind"], bool(passed), detail, ctx.plan.name)


def _spectrum_info(ctx: _Context) -> list[str]:
    plan = ctx.plan
    if (plan.om is None or plan.sim is None or not plan.om.program.is_qp
            or plan.om.program.n_ic):
        return []
    tops, errors = ctx.sample_spectra
    out = []
    for i, (d, top) in enumerate(zip(np.stack(ctx.sc.plant.delta_samples).tolist(),
                                     tops.tolist())):
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

    def run_checks(ctx, specs):
        report.results.extend(_run_check(ctx, spec) for spec in specs
                              if simulate or spec["kind"] not in SIM_CHECK_KINDS)

    if simulate:
        requests = []
        for ctx in contexts:
            if ctx.plan.sim is not None:
                requests.append((ctx, ctx.delta))
                if sweep and ctx.plan.controller_kind == "standard":
                    requests += [(ctx, d) for d in sc.plant.delta_samples]
        # scenario-level checks read the first variant, selected or not
        if first.plan.sim is not None and any(s["kind"] in SIM_CHECK_KINDS for s in sc.expect):
            requests.append((first, first.delta))
        _integrate(requests)
    run_checks(first, sc.expect)
    for ctx in contexts:
        plan = ctx.plan
        report.info.extend(_spectrum_info(ctx))
        if simulate and plan.sim is not None:
            traj = ctx.trajectory()
            trajectories[plan.name] = traj
            if traj.diverged:
                report.diverged = True
                report.info.append(f"[{plan.name}] trajectory diverged and was truncated")
        run_checks(ctx, plan.expect)
        if sweep and plan.sim is not None and plan.controller_kind == "standard":
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
    report, trajectories = _evaluate(sc, variant, simulate=True, h=h, t_end=t_end,
                                     sweep=sweep)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
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
        tail = float(np.linalg.norm(traj.eps[-1])) if traj.eps.size else 0.0
        report.info.append(
            f"[{ctx.plan.name}] sweep delta={np.atleast_1d(d).tolist()}: "
            f"final |eps| = {tail:.3g}" + (" (diverged)" if traj.diverged else "")
        )
        report.diverged = report.diverged or traj.diverged
    return out
