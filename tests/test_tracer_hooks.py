"""The benchmark tracer (``perfbench/tracer.py``) hooks package functions by
name; a renamed hook target must fail here, not only in a traced benchmark run."""

import importlib
import math
import random
import sys
from pathlib import Path

import numpy as np

from osscontrol.matlib import ROW_BLOCK
from osscontrol.plant import fixed_plant

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def package_namespaces():
    return {name: dict(vars(mod)) for name, mod in sys.modules.items()
            if name == "osscontrol" or name.startswith("osscontrol.")}


def test_install_hooks_and_uninstall_restores(monkeypatch, two_state_plant):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    monkeypatch.delitem(sys.modules, "tracer", raising=False)
    tracer = importlib.import_module("tracer")
    from osscontrol import scenarios, stabilize

    before = package_namespaces()
    tr = tracer.Tracer()
    tr.install()
    try:
        # spans sit where a layer calls another: the scenario engine's names
        for name in tracer.SUBSPACE_CHECKS:
            getattr(scenarios, name)(fixed_plant(two_state_plant))
        stabilize.pbh_stabilizable(np.eye(1), np.ones((1, 1)))
    finally:
        tr.uninstall()
    assert package_namespaces() == before
    calls = {name: stat["calls"] for name, stat in tr.by_name().items()}
    for layer, name in tracer.PRIVATE:
        assert f"{layer}.{name}" in calls
    assert calls["stabilize._pbh_margin"] == 1
    for name in tracer.SUBSPACE_CHECKS:
        assert calls[f"subspaces.{name}"] == 1
    assert tr.counts["subspaces.samples"] == len(tracer.SUBSPACE_CHECKS)


def test_traced_check_records_the_proposition_checks(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.delitem(sys.modules, "tracer", raising=False)
    tracer = importlib.import_module("tracer")
    from osscontrol import scenarios

    sc = scenarios.load_scenario("power-dapi")
    props = [spec["which"] for spec in sc.expect if spec["kind"] == "prop"]
    assert props
    tr = tracer.Tracer()
    with tr.installed():
        scenarios.check_scenario(sc)
    calls = {name: stat["calls"] for name, stat in tr.by_name().items()}
    for which in set(props):
        assert calls.get(f"stabilize.prop{which}_check", 0) >= props.count(which)


def test_traced_runs_record_the_stacked_loops(monkeypatch):
    # both scenarios integrate their two variants as one row stack: one
    # integrate_rk4 call each, counted once per stacked step, and four rhs
    # spans per step of tracking-sparse's nonlinear loop; power-dapi --sweep
    # integrates its three delta samples, its own delta among them, as one;
    # no CSV is written
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.delitem(sys.modules, "tracer", raising=False)
    tracer = importlib.import_module("tracer")
    from osscontrol import scenarios

    steps = {"tracking-sparse": 100, "pd-vs-oss": 200}
    tr = tracer.Tracer()
    with tr.installed():
        for name, n in steps.items():
            sc = scenarios.load_scenario(name)
            h = float(sc.variants[0].sim["h"])
            report, trajectories = scenarios.run_scenario(sc, t_end=n * h)
            assert not report.diverged, name
            assert [len(t.times) for t in trajectories.values()] == [n + 1, n + 1], name
        sc = scenarios.load_scenario("power-dapi")
        h = float(sc.variants[0].sim["h"])
        report, trajectories = scenarios.run_scenario(sc, t_end=50 * h, sweep=True)
        assert not report.diverged
        assert len(trajectories) == 1 + len(sc.plant.delta_samples) == 4
    calls = {name: stat["calls"] for name, stat in tr.by_name().items()}
    assert calls["simulate.integrate_rk4"] == 3
    assert calls["scenarios._sweep"] == 1
    assert tr.counts["simulate.rk4_steps"] == sum(steps.values()) + 50
    assert calls["simulate.rhs"] == 4 * steps["tracking-sparse"]
    # outputs are evaluated where they are read, never by integrate_rk4: one
    # call per check of a final state (tracking-sparse's final_err and
    # final_input_abs in two variants, pd-vs-oss's final_cost in two,
    # power-dapi's dispatch and its three sweep lines), and one per block of
    # ROW_BLOCK states in the metrics pass of pd-vs-oss's extrema checks
    blocks = math.ceil((steps["pd-vs-oss"] + 1) / ROW_BLOCK)
    assert calls["simulate.outputs"] == 4 + 2 + 4 + 2 * blocks


def test_traced_dense_check_counts_blocks_and_samples(monkeypatch):
    # the per-layer metrics of a dense check stay meaningful: the subspace
    # checks count every sample they cover, loops are assembled once per
    # block of delta samples, and the plant is evaluated once per block: the
    # nominal alone and then DELTA_BLOCK samples at a time in the one pass
    # that decides both ROS and RFS (check_rfs), DELTA_BLOCK at a time in the
    # spectrum pass, besides the nominal-only evaluations of the full-rank,
    # proposition and oracle checks
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    for name in ("tracer", "harness", "bootstrap"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    tracer = importlib.import_module("tracer")
    harness = importlib.import_module("harness")
    from osscontrol import scenarios
    from osscontrol.matlib import DELTA_BLOCK

    sc = scenarios.load_scenario(harness.dense_doc("power-dapi", random.Random(0), 100))
    samples = len(sc.plant.delta_samples)
    tr = tracer.Tracer()
    with tr.installed():
        report = scenarios.check_scenario(sc)
    assert report.exit_code == 0
    metrics = tracer.layer_metrics(tr, samples, 0.0)
    assert metrics["subspaces.samples"] == 2 * samples
    assert metrics["simulate.assemble.calls"] == math.ceil(samples / DELTA_BLOCK)
    blocks = (1 + math.ceil((samples - 1) / DELTA_BLOCK)) + math.ceil(samples / DELTA_BLOCK)
    assert blocks <= metrics["plant.eval_plant.calls"] <= blocks + 3
    assert metrics["subspaces.check_ros.s"] == 0
    for key in ("subspaces.check_rfs.s", "matlib.calls"):
        assert metrics[key] > 0, key
