"""Scenario definitions: JSON loading, bundled library, and the check/run engine.

A scenario file is a JSON document describing plant, program, controller,
simulation parameters, and an ``expect`` block of machine-checkable
expectations.  Matrices are given row-major with explicit ``rows``/``cols``
so shape typos fail at load time.  Variants override top-level keys (deep
merge) to express paired runs such as two controller tunings.

Expectations come in two flavors: analysis checks (subspace robustness,
proposition clause lists, spectra, equilibrium comparisons) and simulation
checks (convergence metrics on an integrated trajectory).  ``check`` runs
only the former; ``run`` runs both.
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
from .matlib import range_basis, subspace_equal
from .omodels import OptimalityModel
from .optprob import ConvexProgram, check_gradients, oracle_optimal_output, smooth_norm
from .plant import PlantMatrices, UncertainPlant, build_augmented_qp, eval_plant
from .simulate import ClosedLoopSystem, Trajectory, assemble, convergence_metrics, equilibrium_solve, integrate_rk4
from .stabilize import Stabilizer, closed_loop_matrix, pbh_detectable, pbh_stabilizable, prop4_check, prop5_check, prop6_check, synthesize_lqr
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

SIM_CHECK_KINDS = frozenset({
    "final_err", "settling", "final_cost", "extrema", "dispatch", "final_input_abs",
})


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
    out = copy.deepcopy(base)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
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
    mats = spec["matrices"]
    names = ("a", "b", "bw", "c", "d", "q", "cm", "dm", "qm")
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
        from .matlib import numerical_rank

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
                lqr = ctrl.get("lqr", {"q": 1.0, "r": 1.0})
                pm = eval_plant(up, up.nominal)
                aug = build_augmented_qp(pm, om.program.qp.m_cost, om.program.qp.n_cost,
                                         om.program.h_eq, om.program.l_eq, om.variant,
                                         om.basis)
                q = float(lqr.get("q", 1.0)) * np.eye(aug.n_state)
                r = float(lqr.get("r", 1.0)) * np.eye(pm.m)
                stab = synthesize_lqr(aug, q, r)
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
        pm = eval_plant(up, up.nominal)
        aug = build_augmented_qp(pm, prog.qp.m_cost, prog.qp.n_cost, prog.h_eq,
                                 prog.l_eq, om.variant, om.basis)
        q = float(stab_spec["lqr"].get("q", 1.0)) * np.eye(aug.n_state)
        r = float(stab_spec["lqr"].get("r", 1.0)) * np.eye(pm.m)
        stab = synthesize_lqr(aug, q, r)
    else:
        raise ValueError("stabilizer block needs 'gains' or 'lqr'")
    return om, stab, "standard", None, prog


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
    for key in ("name", "plant", "program", "sim"):
        if key not in doc:
            raise ValueError(f"scenario is missing required key {key!r}")

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
    plans = []
    for vdoc in variant_docs:
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
            sim=sim, program=vprog, expect=list(vdoc.get("expect", [])),
        ))
    return Scenario(
        name=doc["name"], description=doc.get("description", ""),
        plant=up, program=program, network=network, variants=plans,
        expect=list(doc.get("expect", [])), notes=doc.get("notes", ""),
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
    """Lazy artifact cache shared by the expectation checks of one variant."""

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

    def pm(self, delta=None) -> PlantMatrices:
        return eval_plant(self.sc.plant, self.delta if delta is None else delta)

    def oracle(self, delta=None) -> dict:
        key = ("oracle", tuple(np.atleast_1d(self.delta if delta is None else delta)))
        if key not in self._cache:
            prog = self.plan.program if self.plan.program is not None else self.sc.program
            self._cache[key] = oracle_optimal_output(prog, self.pm(delta), self.w)
        return self._cache[key]

    def loop(self, delta=None) -> ClosedLoopSystem:
        d = self.delta if delta is None else np.asarray(delta, dtype=float)
        key = ("loop", tuple(np.atleast_1d(d)))
        if key not in self._cache:
            if self.plan.controller_kind == "gather_broadcast":
                if not np.allclose(d, self.sc.plant.nominal):
                    raise ValueError("gather-broadcast loop is built at nominal delta only")
                self._cache[key] = power.build_gather_broadcast(
                    self.sc.network, self.plan.gb_weights, self.w)
            else:
                self._cache[key] = assemble(self.sc.plant, d, self.w, self.plan.om,
                                            self.plan.stabilizer)
        return self._cache[key]

    def trajectory(self) -> Trajectory:
        if "traj" not in self._cache:
            sys = self.loop()
            z0 = (_decode_vector(self.sim["z0"], "sim.z0") if "z0" in self.sim
                  else np.zeros(sys.n_state))
            self._cache["traj"] = integrate_rk4(sys, z0, float(self.sim["t_end"]),
                                                float(self.sim["h"]))
        return self._cache["traj"]

    def metrics(self, settle_tol: float = 1e-3) -> dict:
        return convergence_metrics(self.trajectory(), self.oracle()["y_star"], settle_tol)

    def augmented(self, delta=None):
        plan = self.plan
        if plan.om is None:
            raise ValueError("this check needs a standard optimality-model controller")
        prog = plan.om.program
        if not prog.is_qp or prog.n_ic:
            raise ValueError("this check applies to equality-constrained QP scenarios")
        pm = self.pm(delta)
        return build_augmented_qp(pm, prog.qp.m_cost, prog.qp.n_cost, prog.h_eq,
                                  prog.l_eq, plan.om.variant, plan.om.basis)


def _num(x) -> float:
    return float(x)


def _run_check(ctx: _Context, spec: dict) -> CheckResult:
    sc, plan = ctx.sc, ctx.plan
    kind = spec["kind"]
    name = plan.name if plan is not None else ""

    if kind == "ros":
        rep = check_ros(sc.plant, None if callable(sc.program.h_eq) else sc.program.h_eq)
        want = bool(spec["holds"])
        detail = f"holds={rep['holds']}"
        if rep["witness"] is not None:
            detail += f", witness deltas {rep['witness'][0].tolist()} vs {rep['witness'][1].tolist()}"
        return CheckResult(kind, rep["holds"] == want, detail, name)

    if kind == "rfs":
        rep = check_rfs(sc.plant, sc.program.h_eq)
        ok = rep["holds"] == bool(spec["holds"])
        detail = f"holds={rep['holds']}"
        if rep["witness"] is not None:
            detail += f", witness deltas {rep['witness'][0].tolist()} vs {rep['witness'][1].tolist()}"
        if spec.get("witness") is not None and rep["witness"] is not None:
            want_w = [np.asarray(x, dtype=float) for x in spec["witness"]]
            ok = ok and all(np.allclose(a, b) for a, b in zip(want_w, rep["witness"]))
        if spec.get("matches_om_basis") and plan is not None and plan.om is not None:
            same = subspace_equal(range_basis(plan.om.basis),
                                  range_basis(rep["t0"])) if rep["holds"] else False
            ok = ok and same
            detail += f", om basis spans it: {same}"
        return CheckResult(kind, ok, detail, name)

    if kind == "robust_full_rank":
        got = check_robust_full_rank(sc.plant)
        return CheckResult(kind, got == bool(spec["holds"]), f"holds={got}", name)

    if kind == "prop":
        which = int(spec["which"])
        checker = {4: prop4_check, 5: prop5_check, 6: prop6_check}[which]
        rep = checker(sc.plant, ctx.delta, plan.om.program, plan.om.basis)
        ok = rep.overall == bool(spec["overall"])
        return CheckResult(kind, ok,
                           f"prop{which} overall={rep.overall}, direct PBH={rep.direct_pbh}",
                           name)

    if kind == "stabilizable":
        aug = ctx.augmented()
        pm = ctx.pm()
        got = (pbh_stabilizable(aug.a, aug.b)
               and pbh_detectable(aug.measurement_matrix(pm.cm), aug.a))
        return CheckResult(kind, got == bool(spec["value"]),
                           f"augmented plant stabilizable+detectable={got}", name)

    if kind == "spectrum":
        aug = ctx.augmented()
        out = closed_loop_matrix(aug, plan.stabilizer)
        got = np.sort_complex(out["spectrum"])
        want = np.sort_complex(np.asarray(spec["values"], dtype=complex))
        tol = _num(spec.get("tol", 1e-9))
        ok = got.size == want.size and np.abs(got - want).max() <= tol
        return CheckResult(kind, ok, f"spectrum={np.round(got, 6).tolist()}", name)

    if kind == "hurwitz_at_samples":
        worst = -np.inf
        for d in sc.plant.delta_samples:
            aug = ctx.augmented(d)
            out = closed_loop_matrix(aug, plan.stabilizer)
            worst = max(worst, float(out["spectrum"].real.max()))
        got = worst < 0
        return CheckResult(kind, got == bool(spec["value"]),
                           f"max Re over samples = {worst:.3g}", name)

    if kind == "oracle_y":
        res = ctx.oracle()
        want = np.asarray(spec["values"], dtype=float)
        err = float(np.linalg.norm(res["y_star"] - want))
        return CheckResult(kind, err <= _num(spec.get("tol", 1e-9)),
                           f"|y* - target| = {err:.3g}", name)

    if kind == "oracle_matches_dispatch":
        res = ctx.oracle()
        disp = power.dispatch_oracle(sc.network, ctx.w)
        err = float(np.linalg.norm(res["y_star"] - disp["y_star"]))
        return CheckResult(kind, err <= _num(spec.get("tol", 1e-8)),
                           f"|oracle - dispatch| = {err:.3g}", name)

    if kind == "equilibrium_mismatch":
        d = np.asarray(spec["delta"], dtype=float)
        sys = assemble(sc.plant, d, ctx.w, plan.om, plan.stabilizer)
        zbar, resid = equilibrium_solve(sys, np.zeros(sys.n_state),
                                        tol=_num(spec.get("newton_tol", 1e-10)))
        ybar = sys.outputs(zbar[None])[0][0]
        res = ctx.oracle(d)
        gap = float(np.linalg.norm(ybar - res["y_star"]))
        ok = gap >= _num(spec.get("at_least", 0.0))
        if "equals" in spec:
            ok = ok and abs(gap - _num(spec["equals"])) <= _num(spec.get("equals_tol", 1e-6))
        return CheckResult(kind, ok,
                           f"|ybar - y*| = {gap:.6g} (newton residual {resid:.1e})", name)

    if kind == "final_err":
        mets = ctx.metrics()
        ok = True
        if "tol" in spec:
            ok = ok and mets["final_err"] <= _num(spec["tol"])
        if "min" in spec:
            ok = ok and mets["final_err"] >= _num(spec["min"])
        return CheckResult(kind, ok, f"final err = {mets['final_err']:.3g}", name)

    if kind == "settling":
        mets = ctx.metrics(_num(spec.get("tol", 1e-3)))
        ok = mets["settling_time"] <= _num(spec["by"])
        return CheckResult(kind, ok, f"settling time = {mets['settling_time']:.3g}", name)

    if kind == "final_cost":
        traj = ctx.trajectory()
        res = ctx.oracle()
        gap = abs(float(traj.cost[-1]) - res["cost"])
        return CheckResult(kind, gap <= _num(spec["tol"]),
                           f"|final cost - optimal cost| = {gap:.3g}", name)

    if kind == "extrema":
        mets = ctx.metrics()
        count = mets["extrema_count"]
        ok = True
        if "min" in spec:
            ok = ok and count >= int(spec["min"])
        if "max" in spec:
            ok = ok and count <= int(spec["max"])
        return CheckResult(kind, ok, f"cost extrema after transient = {count}", name)

    if kind == "dispatch":
        traj = ctx.trajectory()
        disp = power.dispatch_oracle(sc.network, ctx.w)
        n = sc.network.n
        y_end = traj.y[-1]
        u_end, omega_end = y_end[:n], y_end[n:]
        marg = sc.network.marginal_cost(u_end)
        u_err = float(np.abs(u_end - disp["u_star"]).max())
        w_err = float(np.abs(omega_end).max())
        spread = float(marg.max() - marg.min())
        ok = (u_err <= _num(spec.get("u_tol", 1e-3))
              and w_err <= _num(spec.get("omega_tol", 1e-5))
              and spread <= _num(spec.get("marginal_spread_tol", 1e-4)))
        return CheckResult(kind, ok,
                           f"max|u-u*|={u_err:.2e}, max|omega|={w_err:.2e}, "
                           f"marginal spread={spread:.2e}", name)

    if kind == "final_input_abs":
        traj = ctx.trajectory()
        val = abs(float(traj.u[-1, int(spec["index"])]))
        ok = True
        if "max" in spec:
            ok = ok and val <= _num(spec["max"])
        if "min" in spec:
            ok = ok and val >= _num(spec["min"])
        return CheckResult(kind, ok, f"|u_{int(spec['index']) + 1}(t_end)| = {val:.4g}", name)

    raise ValueError(f"unknown expectation kind {kind!r}")


def _spectrum_info(sc: Scenario, plan: VariantPlan) -> list[str]:
    if plan.om is None or not plan.om.program.is_qp or plan.om.program.n_ic:
        return []
    out = []
    for d in sc.plant.delta_samples:
        try:
            pm = eval_plant(sc.plant, d)
            prog = plan.om.program
            aug = build_augmented_qp(pm, prog.qp.m_cost, prog.qp.n_cost, prog.h_eq,
                                     prog.l_eq, plan.om.variant, plan.om.basis)
            if plan.stabilizer is None:
                continue
            spec = closed_loop_matrix(aug, plan.stabilizer)["spectrum"]
            out.append(
                f"[{plan.name}] delta={np.atleast_1d(d).tolist()}: "
                f"max Re(closed-loop spectrum) = {spec.real.max():.4g}"
                + ("  ** unstable **" if spec.real.max() >= 0 else "")
            )
        except (ValueError, OssError) as exc:
            out.append(f"[{plan.name}] delta={np.atleast_1d(d).tolist()}: spectrum unavailable ({exc})")
    return out


def check_scenario(sc: Scenario, variant: str | None = None) -> RunReport:
    """Run the analysis expectations (no trajectory integration)."""
    report = RunReport(scenario=sc.name)
    plans = [sc.variant(variant)] if variant else sc.variants
    first_ctx = _Context(sc, plans[0])
    for spec in sc.expect:
        if spec["kind"] in SIM_CHECK_KINDS:
            continue
        report.results.append(_run_check(first_ctx, spec))
    for plan in plans:
        ctx = _Context(sc, plan)
        report.info.extend(_spectrum_info(sc, plan))
        for spec in plan.expect:
            if spec["kind"] in SIM_CHECK_KINDS:
                continue
            report.results.append(_run_check(ctx, spec))
    return report


def run_scenario(sc: Scenario, variant: str | None = None, out_dir=None,
                 h: float | None = None, t_end: float | None = None,
                 sweep: bool = False) -> tuple[RunReport, dict]:
    """Run all expectations, integrating each variant's closed loop.

    Returns the report plus the trajectories, keyed by variant name.  With
    ``sweep`` the variant loops are also integrated at every delta sample
    (thread pool, deterministic merge order) and written as extra traces.
    """
    report = RunReport(scenario=sc.name)
    plans = [sc.variant(variant)] if variant else sc.variants
    trajectories: dict[str, Trajectory] = {}
    first_ctx = _Context(sc, plans[0], h=h, t_end=t_end)
    for spec in sc.expect:
        report.results.append(_run_check(first_ctx, spec))
    for plan in plans:
        ctx = _Context(sc, plan, h=h, t_end=t_end)
        report.info.extend(_spectrum_info(sc, plan))
        if plan.sim is not None:
            traj = ctx.trajectory()
            trajectories[plan.name] = traj
            if traj.diverged:
                report.diverged = True
                report.info.append(f"[{plan.name}] trajectory diverged and was truncated")
        for spec in plan.expect:
            report.results.append(_run_check(ctx, spec))
        if sweep and plan.sim is not None and plan.controller_kind == "standard":
            trajectories.update(_sweep(sc, plan, ctx, report))
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        multi = len(trajectories) > 1
        for vname, traj in trajectories.items():
            fname = f"{sc.name}--{vname}.csv" if multi or vname != "main" else f"{sc.name}.csv"
            traj.to_csv(out / fname)
            report.info.append(f"wrote {fname}")
    return report, trajectories


def _sweep(sc: Scenario, plan: VariantPlan, ctx: _Context, report: RunReport) -> dict:
    """Integrate the variant at every delta sample in worker threads."""
    from concurrent.futures import ThreadPoolExecutor

    def one(idx_delta):
        idx, d = idx_delta
        sys = assemble(sc.plant, d, ctx.w, plan.om, plan.stabilizer)
        z0 = (_decode_vector(ctx.sim["z0"], "sim.z0") if "z0" in ctx.sim
              else np.zeros(sys.n_state))
        traj = integrate_rk4(sys, z0, float(ctx.sim["t_end"]), float(ctx.sim["h"]))
        return idx, d, traj

    with ThreadPoolExecutor() as pool:
        results = list(pool.map(one, enumerate(sc.plant.delta_samples)))
    out = {}
    for idx, d, traj in sorted(results, key=lambda r: r[0]):
        key = f"{plan.name}--delta{idx}"
        out[key] = traj
        tail = float(np.linalg.norm(traj.eps[-1])) if traj.eps.size else 0.0
        report.info.append(
            f"[{plan.name}] sweep delta={np.atleast_1d(d).tolist()}: "
            f"final |eps| = {tail:.3g}" + (" (diverged)" if traj.diverged else "")
        )
        report.diverged = report.diverged or traj.diverged
    return out
