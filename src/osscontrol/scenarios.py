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
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from . import power
from .errors import OssError
from .matlib import eigenvalues, numerical_rank, range_basis, subspace_equal
from .omodels import OptimalityModel
from .optprob import ConvexProgram, check_gradients, oracle_optimal_output, smooth_norm
from .plant import PlantMatrices, UncertainPlant, build_augmented_qp, eval_plant
from .simulate import ClosedLoopSystem, Trajectory, assemble, convergence_metrics, equilibrium_solve, integrate_rk4
from .stabilize import Stabilizer, pbh_detectable, pbh_stabilizable, prop4_check, prop5_check, prop6_check, synthesize_lqr
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
            samples = spec.get("delta_samples", [[0.0], [0.3], [-0.3]])
            return power.build_swing_plant(network, tuple(tuple(s) for s in samples))
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
    base = {k: _decode_matrix(mats[k], f"plant.{k}") for k in names if k in mats}
    addends = {
        k: [_decode_matrix(mm, f"plant.{k}_delta") for mm in mats[f"{k}_delta"]]
        for k in names if f"{k}_delta" in mats
    }
    delta_dim = int(spec.get("delta_dim", max((len(v) for v in addends.values()), default=0)))
    for k, v in addends.items():
        if len(v) != delta_dim:
            raise ValueError(f"plant.{k}_delta must list one matrix per delta coordinate")

    def evaluate(delta: np.ndarray) -> PlantMatrices:
        vals = {}
        for k, m0 in base.items():
            m = m0
            if k in addends:
                m = m0 + sum(float(delta[i]) * addends[k][i] for i in range(delta_dim))
            vals[k] = m
        return PlantMatrices(**vals)

    samples = [
        _decode_vector(s, "plant.delta_samples").reshape(delta_dim)
        for s in spec.get("delta_samples", [[0.0] * delta_dim if delta_dim else []])
    ]
    box = spec.get("delta_box")
    box = [tuple(b) for b in box] if box else None
    return UncertainPlant(evaluate=evaluate, delta_dim=delta_dim, delta_samples=samples,
                          delta_box=box)


def _tracking_objective(params: dict):
    p_m = int(params["p_m"])
    theta = float(params["theta"])
    beta = float(params.get("beta", 20.0))
    r_idx = [int(i) for i in params["r_indices"]]

    def f0(y, w):
        y = np.asarray(y, dtype=float).ravel()
        rm = np.asarray(w, dtype=float).ravel()[r_idx]
        val_l2, _ = smooth_norm("l2", y[:p_m] - rm)
        val_l1, _ = smooth_norm("l1_logcosh", y[p_m:], beta)
        return val_l2 + theta * val_l1

    def grad_f0(y, w):
        y = np.asarray(y, dtype=float).ravel()
        v = y[:p_m] - np.asarray(w, dtype=float).ravel()[r_idx]
        nv = np.linalg.norm(v)
        g = np.empty_like(y)
        g[:p_m] = v / nv if nv > 0 else 0.0
        g[p_m:] = theta * np.tanh(beta * y[p_m:])
        return g

    return f0, grad_f0


def _build_program(spec: dict, network: power.PowerNetwork | None, p_hint: int,
                   n_w: int) -> ConvexProgram:
    if spec.get("builder") == "frequency":
        if network is None:
            raise ValueError("frequency program builder needs a network block")
        f = _decode_matrix(spec["f"], "program.f") if "f" in spec else None
        return power.frequency_program(network, f)
    h = _decode_matrix(spec["h"], "program.h") if "h" in spec else None
    l = _decode_matrix(spec["l"], "program.l") if "l" in spec else None
    ineqs = []
    for item in spec.get("inequalities", []):
        if item.get("name") != "affine":
            raise ValueError(f"unknown inequality kind {item.get('name')!r}")
        g = _decode_vector(item["params"]["g"], "inequality.g")
        offset = float(item["params"].get("offset", 0.0))

        def f(y, w, g=g, offset=offset):
            return float(g @ np.asarray(y, dtype=float).ravel() - offset)

        def gr(y, w, g=g):
            return g

        ineqs.append((f, gr))
    if "qp" in spec:
        qp = spec["qp"]
        return ConvexProgram.from_qp(
            _decode_matrix(qp["m"], "program.qp.m"),
            _decode_matrix(qp["n"], "program.qp.n"),
            n_w=n_w, h_eq=h, l_eq=l,
            c=_decode_vector(qp["c"], "program.qp.c") if "c" in qp else None,
            inequalities=ineqs,
        )
    obj = spec["objective"]
    if obj["name"] == "l2_tracking_plus_smooth_l1":
        f0, grad_f0 = _tracking_objective(obj["params"])
    else:
        raise ValueError(f"unknown objective {obj['name']!r}")
    prog = ConvexProgram.from_callables(p_hint, n_w, f0, grad_f0, h_eq=h, l_eq=l,
                                        inequalities=ineqs)
    check_gradients(prog, np.zeros(n_w), np.random.default_rng(0))
    return prog


def _resolve_basis(spec, up: UncertainPlant, prog: ConvexProgram, variant: str) -> np.ndarray:
    if spec != "auto":
        return _decode_matrix(spec, "om.basis")
    if variant == "ros":
        report = check_ros(up, prog.h_eq if not callable(prog.h_eq) else None)
        if not report["holds"]:
            raise ValueError("auto basis: the output-subspace property fails across samples")
        geom = equilibrium_geometry(eval_plant(up, up.nominal),
                                    prog.h_eq if not callable(prog.h_eq) else prog.h_eq(up.nominal))
        g = geom.g
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


def _lqr(up: UncertainPlant, om: OptimalityModel, spec: dict) -> Stabilizer:
    """LQR gains for the augmented plant at the nominal delta, weights q I and r I."""
    pm = eval_plant(up, up.nominal)
    aug = build_augmented_qp(pm, om)
    q = float(spec.get("q", 1.0)) * np.eye(aug.n_state)
    r = float(spec.get("r", 1.0)) * np.eye(pm.m)
    return synthesize_lqr(aug, q, r)


def _build_controller(doc: dict, up: UncertainPlant, prog: ConvexProgram,
                      network: power.PowerNetwork | None):
    """Resolve (om, stabilizer, controller_kind, gb_weights, program) for one variant."""
    if "controller" in doc:
        ctrl = doc["controller"]
        name = ctrl["name"]
        if network is None:
            raise ValueError("named controllers need a network block")
        if name == "dapi":
            om, stab = power.build_dapi(network, float(ctrl.get("k", 1.0)))
            return om, stab, "standard", None, om.program
        if name == "novel":
            weights = ctrl.get("c", [1.0 / network.n] * network.n)
            gains = ctrl.get("gains")
            om, stab = power.build_novel_freq_controller(network, weights, gains)
            if stab is None:
                stab = _lqr(up, om, ctrl.get("lqr", {}))
            return om, stab, "standard", None, om.program
        if name == "gather_broadcast":
            weights = np.asarray(ctrl.get("c", [1.0 / network.n] * network.n), dtype=float)
            gb_prog = power.frequency_program(network, weights.reshape(1, -1))
            return None, None, "gather_broadcast", weights, gb_prog
        raise ValueError(f"unknown controller {name!r}")

    om_spec = doc.get("om")
    if om_spec is None:
        raise ValueError("scenario needs an om block or a controller block")
    variant = om_spec["variant"]
    basis = _resolve_basis(om_spec.get("basis", "auto"), up, prog, variant)
    om = OptimalityModel(variant=variant, basis=basis, program=prog)

    stab_spec = doc.get("stabilizer", {"gains": {}})
    if "gains" in stab_spec:
        g = stab_spec["gains"]
        blocks = {k: _decode_matrix(g[k], f"stabilizer.{k}") for k in
                  ("kx", "knu", "kmu", "keta", "keps") if k in g}
        stab = Stabilizer(**blocks)
    elif "lqr" in stab_spec:
        stab = _lqr(up, om, stab_spec["lqr"])
    else:
        raise ValueError("stabilizer block needs 'gains' or 'lqr'")
    return om, stab, "standard", None, prog


def _expectations(specs, where: str) -> list[dict]:
    """The ``expect`` list at ``where``, each entry checked for a known kind
    and the fields its check requires."""
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
        net = doc["network"]
        network = power.PowerNetwork(
            n=int(net["n"]),
            edges=tuple(tuple(e) for e in net["edges"]),
            inertia=net["inertia"], damping=net["damping"],
            susceptance=net["susceptance"], p_star=net["p_star"],
            cost_a=net["cost_a"], cost_b=net["cost_b"],
            laplacian=np.asarray(net["laplacian"], dtype=float),
        )

    up = _build_plant(doc["plant"], network)
    pm0 = eval_plant(up, up.nominal)
    program = _build_program(doc["program"], network, pm0.p, pm0.n_w)

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
        vprog = program
        if "program" in vdoc:
            vprog = _build_program(merged["program"], network, pm0.p, pm0.n_w)
        om, stab, kind, gb_w, vprog = _build_controller(merged, up, vprog, network)
        sim = merged.get("sim")
        plans.append(VariantPlan(
            name=vdoc.get("name", "main"),
            om=om, stabilizer=stab, controller_kind=kind, gb_weights=gb_w,
            sim=sim, program=vprog,
            expect=_expectations(vdoc.get("expect", []), f"variants[{i}].expect"),
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

    Every per-delta artifact (oracle, loop, trajectory, spectrum) is computed
    once per delta; ``delta=None`` means the variant's simulation delta.
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
        # Keyed by the exact bits of delta.  Sweep threads share the cache:
        # setdefault is atomic, so threads racing on one delta all get the
        # first result stored.
        d = self.delta if delta is None else np.asarray(delta, dtype=float)
        key = (what, d.tobytes())
        if key not in self._cache:
            self._cache.setdefault(key, make(d))
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

    def _build_loop(self, d) -> ClosedLoopSystem:
        if self.plan.controller_kind != "gather_broadcast":
            return assemble(self.sc.plant, d, self.w, self.plan.om, self.plan.stabilizer)
        if not np.allclose(d, self.sc.plant.nominal):
            raise ValueError("gather-broadcast loop is built at nominal delta only")
        return power.build_gather_broadcast(self.sc.network, self.plan.gb_weights, self.w)

    def loop(self, delta=None) -> ClosedLoopSystem:
        return self._per_delta("loop", delta, self._build_loop)

    def trajectory(self, delta=None) -> Trajectory:
        def integrate(d):
            sys = self.loop(d)
            z0 = (_decode_vector(self.sim["z0"], "sim.z0") if "z0" in self.sim
                  else np.zeros(sys.n_state))
            return integrate_rk4(sys, z0, float(self.sim["t_end"]), float(self.sim["h"]))

        return self._per_delta("trajectory", delta, integrate)

    def spectrum(self, delta=None) -> np.ndarray:
        """Eigenvalues of the affine loop's A_cl.  Only they are kept: a loop
        per delta of a dense sample set would hold its closures and matrices."""
        def eigs(d):
            sys = self._build_loop(d)
            if sys.affine is None:
                raise ValueError("the closed-loop spectrum needs an affine loop")
            return eigenvalues(sys.affine[0])

        return self._per_delta("spectrum", delta, eigs)

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
    return detail


def _check_ros(ctx, spec):
    h_eq = ctx.sc.program.h_eq
    rep = check_ros(ctx.sc.plant, None if callable(h_eq) else h_eq)
    return rep["holds"] == bool(spec["holds"]), _witness_detail(rep)


def _check_rfs(ctx, spec):
    rep = check_rfs(ctx.sc.plant, ctx.sc.program.h_eq)
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


_PROP_CHECKS = {4: prop4_check, 5: prop5_check, 6: prop6_check}


def _check_prop(ctx, spec):
    which = int(spec["which"])
    om = ctx.om
    rep = _PROP_CHECKS[which](ctx.sc.plant, ctx.delta, om.program, om.basis)
    return (rep.overall == bool(spec["overall"]),
            f"prop{which} overall={rep.overall}, direct PBH={rep.direct_pbh}")


def _check_stabilizable(ctx, spec):
    pm = ctx.pm()
    aug = build_augmented_qp(pm, ctx.om)
    got = (pbh_stabilizable(aug.a, aug.b)
           and pbh_detectable(aug.measurement_matrix(pm.cm), aug.a))
    return got == bool(spec["value"]), f"augmented plant stabilizable+detectable={got}"


def _check_spectrum(ctx, spec):
    got = np.sort_complex(ctx.spectrum())
    want = np.sort_complex(np.asarray(spec["values"], dtype=complex))
    ok = got.size == want.size and np.abs(got - want).max() <= float(spec.get("tol", 1e-9))
    return ok, f"spectrum={np.round(got, 6).tolist()}"


def _check_hurwitz_at_samples(ctx, spec):
    worst = max(float(ctx.spectrum(d).real.max()) for d in ctx.sc.plant.delta_samples)
    return (worst < 0) == bool(spec["value"]), f"max Re over samples = {worst:.3g}"


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
    val = abs(float(ctx.trajectory().u[-1, index]))
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


def _run_check(ctx: _Context, spec: dict) -> CheckResult:
    check = CHECKS[spec["kind"]][0]
    passed, detail = check(ctx, spec)
    return CheckResult(spec["kind"], bool(passed), detail, ctx.plan.name)


def _spectrum_info(ctx: _Context) -> list[str]:
    plan = ctx.plan
    if (plan.om is None or plan.sim is None or not plan.om.program.is_qp
            or plan.om.program.n_ic):
        return []
    out = []
    for d in ctx.sc.plant.delta_samples:
        where = f"[{plan.name}] delta={np.atleast_1d(d).tolist()}"
        try:
            top = ctx.spectrum(d).real.max()
        except (ValueError, OssError) as exc:
            out.append(f"{where}: spectrum unavailable ({exc})")
            continue
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

    Returns the report plus the trajectories, keyed by variant name.  With
    ``sweep`` the variant loops are also integrated at every delta sample
    (thread pool, deterministic merge order) and written as extra traces.
    """
    report, trajectories = _evaluate(sc, variant, simulate=True, h=h, t_end=t_end,
                                     sweep=sweep)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        multi = len(trajectories) > 1
        for vname, traj in trajectories.items():
            fname = f"{sc.name}--{vname}.csv" if multi or vname != "main" else f"{sc.name}.csv"
            traj.to_csv(out / fname)
            report.info.append(f"wrote {fname}")
    return report, trajectories


def _sweep(ctx: _Context, report: RunReport) -> dict:
    """Integrate the variant at every delta sample in worker threads.

    A sample equal to the variant's own delta reuses its trajectory.
    """
    from concurrent.futures import ThreadPoolExecutor  # check-only runs never load it

    samples = ctx.sc.plant.delta_samples
    with ThreadPoolExecutor() as pool:
        trajs = list(pool.map(ctx.trajectory, samples))
    out = {}
    for idx, (d, traj) in enumerate(zip(samples, trajs)):
        out[f"{ctx.plan.name}--delta{idx}"] = traj
        tail = float(np.linalg.norm(traj.eps[-1])) if traj.eps.size else 0.0
        report.info.append(
            f"[{ctx.plan.name}] sweep delta={np.atleast_1d(d).tolist()}: "
            f"final |eps| = {tail:.3g}" + (" (diverged)" if traj.diverged else "")
        )
        report.diverged = report.diverged or traj.diverged
    return out
