"""Tests of the benchmark itself.

    python3 -m pytest perfbench/selftest.py -q

The file name keeps these tests out of the repository's default pytest run:
they integrate closed loops and take about a minute.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bootstrap  # noqa: E402

bootstrap.prepare()

import harness  # noqa: E402
import tracer  # noqa: E402
from osscontrol import scenarios  # noqa: E402

import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
COUNTS = ("simulate.rk4_steps", "simulate.rhs.calls", "simulate.outputs.calls",
          "omodels.om_dynamics.calls", "plant.eval_plant.calls")
# Short invocations covering the affine, nonlinear, gather-and-broadcast,
# sweep and check paths: (mode, scenario, horizon override).
SHORT = (("run", "equilibrium-necessity", 2.0), ("run", "tracking-sparse", 1.0),
         ("run", "power-gb", None), ("sweep", "rfs-violation", 0.5),
         ("check", "power-dapi", None))


def _short_pass(traced: bool):
    """Outcomes and, when traced, the tracer of one pass over ``SHORT``."""
    t = tracer.Tracer()
    outcomes = {}
    if traced:
        t.install()
    try:
        for mode, name, t_end in SHORT:
            sc = scenarios.load_scenario(name)
            out = harness.execute(mode, sc, t_end=t_end)
            outcomes[out.key] = out.record()
    finally:
        t.uninstall()
    return outcomes, t


def test_generator_is_a_function_of_the_seed():
    dense = harness.WORKLOADS["analysis-dense"]
    first = harness.scenario_sources(dense, 7, draws=50)
    assert first == harness.scenario_sources(dense, 7, draws=50)
    assert first != harness.scenario_sources(dense, 8, draws=50)
    for doc, (_, name) in zip(first, dense.invocations):
        bundled = scenarios.load_scenario(name).plant
        samples = doc["plant"]["delta_samples"]
        assert len(samples) == len(bundled.delta_samples) + 50
        assert samples[:len(bundled.delta_samples)] == [list(d) for d in bundled.delta_samples]
        for d in samples:
            assert all(lo <= v <= hi for v, (lo, hi) in zip(d, bundled.delta_box))


def test_generated_documents_keep_the_rfs_witness():
    dense = harness.WORKLOADS["analysis-dense"]
    doc = harness.scenario_sources(dense, 0, draws=20)[2]
    report = scenarios.check_scenario(scenarios.load_scenario(doc))
    rfs = next(r for r in report.results if r.kind == "rfs")
    assert rfs.passed and "[0.0] vs [0.5]" in rfs.detail


def test_wrappers_are_transparent():
    plain, _ = _short_pass(traced=False)
    traced, t = _short_pass(traced=True)
    assert traced == plain
    assert any(out["traces"] for out in plain.values())
    reference = harness.load_reference()
    for key in ("run:power-gb", "check:power-dapi"):
        assert plain[key] == reference[key]
    # Uninstalling restores every original function.
    assert scenarios.run_scenario.__module__ == "osscontrol.scenarios"
    assert not hasattr(scenarios.run_scenario, "__wrapped__")
    assert t.spans


def test_counts_repeat_exactly():
    _, first = _short_pass(traced=True)
    _, second = _short_pass(traced=True)
    a = tracer.layer_metrics(first, samples=1, overhead_frac=0.0)
    b = tracer.layer_metrics(second, samples=1, overhead_frac=0.0)
    for name in COUNTS:
        assert a[name] == b[name] > 0, name
    assert a["scenarios.sweep.wall_s"] > 0 and a["scenarios.sweep.busy_s"] > 0
    assert a["power.dispatch_oracle.s"] > 0 and a["matlib.calls"] > 0


def test_self_time_never_exceeds_duration():
    _, t = _short_pass(traced=True)
    for name, stat in t.by_name().items():
        assert -1e-9 <= stat["self_s"] <= stat["s"] + 1e-9, name


def test_metric_names_and_benchmark_file_agree():
    spec = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text())
    per_layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert per_layer == list(tracer.PER_LAYER)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(bootstrap.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "run-all", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line(trace):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "analysis-dense", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=bootstrap.ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = ([name for name, _, _ in tracer.PER_LAYER] if trace
            else [name for name, _ in run.END_TO_END])
    assert list(result["metrics"]) == want
