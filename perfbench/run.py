"""The osscontrol benchmark: one workload, timed end to end or traced by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; it measures the checkout's ``src``.  An
invocation is one ``check_scenario`` or ``run_scenario`` call; a pass runs
each invocation of the workload once.

``--trace 0`` cycles through the invocations for about ``--seconds`` and
reports the end-to-end metrics: ``wall_s`` (the sum of each invocation's
median seconds, i.e. one pass), ``work_per_s`` (work units of a pass per
second of ``wall_s``), ``setup_s`` (median over fresh processes of
``import osscontrol`` plus loading the workload's scenarios) and
``peak_rss_mb`` (peak resident memory of this process).  ``--trace 1``
alternates plain and traced passes while the next pair is expected to end
within ``--seconds`` (at least one pair runs), and reports the per-layer
metrics of ``tracer.py``, medians over the traced passes; the spans are
written to ``.perfbench/spans-<workload>.csv.gz``.

Every invocation is checked against ``reference.json``.  The last line of
standard output is one JSON object; the exit code is 1 if any invocation
raised or differed from the reference.
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback

import bootstrap

bootstrap.prepare()
import osscontrol  # noqa: E402

bootstrap.check_imported(osscontrol)
import harness  # noqa: E402
import tracer  # noqa: E402
from osscontrol import scenarios  # noqa: E402

SETUP_REPEATS = 5
END_TO_END = (("wall_s", "s"), ("work_per_s", "1/s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


class Tally:
    """Counts invocations, and those that raised or differed from what was expected."""

    def __init__(self, reference: dict):
        self.reference = reference
        self.attempted = 0
        self.failed = 0

    def run(self, mode: str, sc, expected: dict | None = None) -> harness.Outcome | None:
        """One invocation, checked against the reference and, when given,
        against ``expected``; None if it raised or differed."""
        self.attempted += 1
        try:
            outcome = harness.execute(mode, sc)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        problems = harness.differences(outcome, self.reference.get(outcome.key))
        if expected is not None:
            problems += [f"traced run: {p}" for p in harness.differences(outcome, expected)]
        for p in problems:
            print(f"MISMATCH {p}", file=sys.stderr)
        if problems:
            self.failed += 1
            return None
        return outcome


def run_pass(tally: Tally, workload: harness.Workload, loaded, expected=None):
    """(wall seconds, records by invocation key) of one pass."""
    wall, records = 0.0, {}
    for (mode, _), sc in zip(workload.invocations, loaded):
        key = f"{mode}:{sc.name}"
        outcome = tally.run(mode, sc, None if expected is None else expected.get(key))
        if outcome is not None:
            wall += outcome.seconds
            records[key] = outcome.record()
    return wall, records


def plain_run(tally: Tally, workload: harness.Workload, loaded, seconds: float) -> dict:
    """Cycle through the invocations until the next one is expected to end
    after ``seconds``, each running at least once.

    ``wall_s`` sums each invocation's median time, so it is the time of one
    pass; cycling rather than stopping at a pass boundary keeps every run
    measuring for close to ``seconds`` however long a pass is.
    """
    times: list[list[float]] = [[] for _ in loaded]
    work = [0] * len(loaded)
    attempted = [0] * len(loaded)
    begin = time.perf_counter()
    for i in itertools.cycle(range(len(loaded))):
        expect = times[i][-1] if times[i] else 0.0
        if min(attempted) and time.perf_counter() - begin + expect > seconds:
            break
        attempted[i] += 1
        outcome = tally.run(workload.invocations[i][0], loaded[i])
        if outcome is not None:
            times[i].append(outcome.seconds)
            work[i] = outcome.work
    for (mode, name), t in zip(workload.invocations, times):
        print(f"{mode}:{name}: {len(t)} runs, median "
              f"{statistics.median(t) if t else float('nan'):.4f} s")
    wall = sum(statistics.median(t) for t in times if t)
    return {"wall_s": wall, "work_per_s": sum(work) / wall if wall else 0.0}


def measure_setup(workload: str, seed: int) -> float:
    """Median over fresh processes of importing osscontrol and loading the workload."""
    probe = bootstrap.ROOT / "perfbench" / "setup_probe.py"
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, str(probe), workload, str(seed)],
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def traced_run(tally, workload, sources, loaded, seconds: float) -> dict:
    """Alternate plain and traced passes; medians of the traced passes' metrics.

    A traced pass loads its scenarios under the tracer too, and must give
    the plain pass's exit codes, verdicts and trace hashes.
    """
    samples = sum(len(sc.plant.delta_samples) for sc in loaded)
    plain_walls, traced_walls, tracers = [], [], []
    begin = time.perf_counter()
    while True:
        started = time.perf_counter()
        wall, plain = run_pass(tally, workload, loaded)
        plain_walls.append(wall)
        t = tracer.Tracer()
        with t.installed():
            traced_loaded = [scenarios.load_scenario(s) for s in sources]
            wall, _ = run_pass(tally, workload, traced_loaded, expected=plain)
        traced_walls.append(wall)
        tracers.append(t)
        now = time.perf_counter()
        print(f"pair {len(tracers)}: plain {plain_walls[-1]:.4f} s, traced {wall:.4f} s, "
              f"{len(t.spans) // tracer.SPAN_FIELDS} spans")
        if now - begin + (now - started) > seconds:
            break
    overhead = statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0
    spans = bootstrap.WORK_DIR / f"spans-{workload.name}.csv.gz"
    spans.unlink(missing_ok=True)
    for i, t in enumerate(tracers, start=1):
        t.write_spans(spans, label=str(i))
    per_pass = [tracer.layer_metrics(t, samples, overhead) for t in tracers]
    return {name: statistics.median_low(p[name] for p in per_pass) for name in per_pass[0]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = harness.WORKLOADS[args.workload]
    bootstrap.WORK_DIR.mkdir(exist_ok=True)
    tally = Tally(harness.load_reference())
    sources = harness.scenario_sources(workload, args.seed)
    loaded = [scenarios.load_scenario(s) for s in sources]
    if args.trace:
        values = traced_run(tally, workload, sources, loaded, args.seconds)
        units = {name: unit for name, unit, _ in tracer.PER_LAYER}
    else:
        values = plain_run(tally, workload, loaded, args.seconds)
        values["setup_s"] = measure_setup(workload.name, args.seed)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = dict(END_TO_END)
    print(f"failed_frac: {tally.failed / tally.attempted:.4f} "
          f"({tally.failed} of {tally.attempted} invocations)")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
