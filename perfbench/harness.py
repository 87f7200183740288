"""Workloads, the seeded delta generator, and output checks against the seed reference.

Every workload calls the library entry points ``oss`` uses:
``scenarios.load_scenario``, ``scenarios.check_scenario`` and
``scenarios.run_scenario``.  One call of ``check_scenario`` or
``run_scenario`` on one scenario is an *invocation*.  Each invocation is
checked against ``reference.json``, recorded by ``record_reference.py``
from the unoptimized program: exit code, the list of
``(kind, variant, passed)`` verdicts, and the SHA-256 of every CSV trace it
wrote.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

from osscontrol import scenarios

from bootstrap import WORK_DIR

REFERENCE_PATH = Path(__file__).with_name("reference.json")
OUT_DIR = WORK_DIR / "out"

# Seeded uniform draws appended to each scenario's bundled delta samples on
# the analysis-dense workload.
DENSE_DRAWS = 1000


@dataclass(frozen=True)
class Workload:
    name: str
    # (mode, bundled scenario): mode is "run", "sweep" (run with --sweep) or "check".
    invocations: tuple[tuple[str, str], ...]
    dense: bool = False


WORKLOADS = {w.name: w for w in (
    Workload("run-all", (
        ("run", "equilibrium-necessity"), ("run", "no-hurwitz"), ("run", "pd-vs-oss"),
        ("run", "power-gb"), ("run", "tracking-sparse"), ("sweep", "rfs-violation"),
        ("sweep", "power-dapi"), ("sweep", "power-novel"))),
    Workload("analysis-dense", (
        ("check", "power-dapi"), ("check", "power-novel"), ("check", "rfs-violation")),
        dense=True),
)}


def dense_doc(name: str, rng: random.Random, draws: int) -> dict:
    """The bundled scenario document with ``draws`` uniform samples from its
    ``delta_box`` appended after the bundled samples.

    The bundled samples stay first, so a witness pair found among them (such
    as ``(0, 0.5)`` in ``rfs-violation``) is still the first one reported.
    """
    with open(scenarios.bundled_path(name)) as f:
        doc = json.load(f)
    plant = scenarios.load_scenario(name).plant
    if plant.delta_box is None:
        raise ValueError(f"scenario {name} has no delta_box to draw from")
    bundled = [[float(v) for v in d] for d in plant.delta_samples]
    drawn = [[rng.uniform(lo, hi) for lo, hi in plant.delta_box] for _ in range(draws)]
    doc["plant"]["delta_samples"] = bundled + drawn
    return doc


def scenario_sources(workload: Workload, seed: int, draws: int = DENSE_DRAWS) -> list:
    """What the workload passes to ``load_scenario``: bundled names, or the
    generated documents of the dense workload (the only use of ``seed``)."""
    names = [name for _, name in workload.invocations]
    if not workload.dense:
        return names
    rng = random.Random(seed)
    return [dense_doc(name, rng, draws) for name in names]


@dataclass
class Outcome:
    """What one invocation produced, and how long the library call took."""

    key: str
    seconds: float
    work: int
    exit_code: int
    verdicts: list = field(default_factory=list)
    traces: dict = field(default_factory=dict)

    def record(self) -> dict:
        """The part an invocation must reproduce."""
        return {"exit_code": self.exit_code, "verdicts": self.verdicts, "traces": self.traces}


def execute(mode: str, sc, t_end: float | None = None) -> Outcome:
    """One invocation.  Only the ``check_scenario``/``run_scenario`` call is timed.

    Work is counted in RK4 steps over all returned trajectories for runs, and
    in delta samples checked for ``check``.
    """
    out_dir = OUT_DIR / sc.name
    shutil.rmtree(out_dir, ignore_errors=True)
    if mode == "check":
        start = time.perf_counter()
        report = scenarios.check_scenario(sc)
        seconds = time.perf_counter() - start
        work = len(sc.plant.delta_samples)
    else:
        start = time.perf_counter()
        report, trajectories = scenarios.run_scenario(sc, out_dir=out_dir, t_end=t_end,
                                                      sweep=mode == "sweep")
        seconds = time.perf_counter() - start
        work = sum(len(t.times) - 1 for t in trajectories.values())
    traces = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
              for p in sorted(out_dir.glob("*.csv"))}
    verdicts = [[r.kind, r.variant, bool(r.passed)] for r in report.results]
    return Outcome(f"{mode}:{sc.name}", seconds, work, report.exit_code, verdicts, traces)


def load_reference() -> dict:
    with open(REFERENCE_PATH) as f:
        return json.load(f)


def differences(outcome: Outcome, expected: dict | None) -> list[str]:
    """Human-readable differences between an outcome and what was expected."""
    if expected is None:
        return [f"{outcome.key}: no reference recorded"]
    problems = []
    if outcome.exit_code != expected["exit_code"]:
        problems.append(f"{outcome.key}: exit code {outcome.exit_code}, "
                        f"expected {expected['exit_code']}")
    if outcome.verdicts != expected["verdicts"]:
        flipped = [got for got, want in zip(outcome.verdicts, expected["verdicts"])
                   if got != want]
        problems.append(f"{outcome.key}: verdicts differ: got {flipped or outcome.verdicts}")
        if outcome.key.startswith("check:"):
            problems.append(f"{outcome.key}: counterexample to a 'for every delta' claim "
                            "among the generated samples")
    if outcome.traces != expected["traces"]:
        changed = sorted(set(outcome.traces.items()) ^ set(expected["traces"].items()))
        problems.append(f"{outcome.key}: CSV traces differ: {sorted({n for n, _ in changed})}")
    return problems
