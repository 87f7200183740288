"""The ``oss`` command line: exit codes on malformed scenario files."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from osscontrol import cli, scenarios

DELETE = object()


def edit(doc, path, value):
    """Set (or, with ``DELETE``, remove) the entry at ``path`` inside ``doc``."""
    *parents, last = path
    for key in parents:
        doc = doc[key]
    if value is DELETE:
        del doc[last]
    else:
        doc[last] = value


@pytest.mark.parametrize("name, path, value, field", [
    pytest.param("no-hurwitz", ("plant", "matrices", "a", "rows"), None, "plant.a",
                 id="rows-None"),
    pytest.param("no-hurwitz", ("plant", "matrices", "a", "data"), 1.0, "plant.a",
                 id="data-1.0"),
    pytest.param("no-hurwitz", ("expect", 0), "robust_full_rank", "expect[0]",
                 id="expect-entry-string"),
    pytest.param("no-hurwitz", ("variants", 0), "main", "variants[0]", id="variant-string"),
    pytest.param("no-hurwitz", ("plant",), [], "plant", id="plant-list"),
    pytest.param("no-hurwitz", ("plant", "matrices", "a"), DELETE, "plant.matrices.a",
                 id="missing-a"),
    pytest.param("no-hurwitz", ("expect", 1, "which"), 7, "expect[1].which",
                 id="prop-which-7"),
    pytest.param("no-hurwitz", ("variants", 0, "stabilizer"), "lqr", "variants[0].stabilizer",
                 id="stabilizer-string"),
    pytest.param("power-gb", ("expect", 0), {"kind": "prop", "which": 4, "overall": True},
                 "optimality-model controller", id="prop-without-model"),
    pytest.param("no-hurwitz", ("plant", "matrices", "dm"),
                 {"rows": 5, "cols": 1, "data": [0.0] * 5}, "plant.matrices.dm", id="dm-given"),
    pytest.param("no-hurwitz", ("plant", "matrices", "qm"),
                 {"rows": 5, "cols": 1, "data": [0.0] * 5}, "plant.matrices.qm", id="qm-given"),
    # each field a check reads unconditionally, missing
    pytest.param("no-hurwitz", ("expect", 0, "holds"), DELETE, "expect[0].holds",
                 id="missing-holds"),
    pytest.param("no-hurwitz", ("expect", 1, "overall"), DELETE, "expect[1].overall",
                 id="missing-overall"),
    pytest.param("equilibrium-necessity", ("variants", 0, "expect", 0, "value"), DELETE,
                 "variants[0].expect[0].value", id="missing-value"),
    pytest.param("no-hurwitz", ("expect", 2, "values"), DELETE, "expect[2].values",
                 id="missing-values"),
    pytest.param("rfs-violation", ("expect", 3, "delta"), DELETE, "expect[3].delta",
                 id="missing-delta"),
    pytest.param("equilibrium-necessity", ("variants", 0, "expect", 2, "by"), DELETE,
                 "variants[0].expect[2].by", id="missing-by"),
    pytest.param("pd-vs-oss", ("variants", 0, "expect", 0, "tol"), DELETE,
                 "variants[0].expect[0].tol", id="missing-tol"),
    pytest.param("tracking-sparse", ("variants", 0, "expect", 1, "index"), DELETE,
                 "variants[0].expect[1].index", id="missing-index"),
    # each field a block builder reads unconditionally, missing
    pytest.param("tracking-sparse", ("sim", "h"), DELETE, "sim.h is missing", id="missing-sim-h"),
    pytest.param("no-hurwitz", ("sim", "t_end"), DELETE, "sim.t_end is missing",
                 id="missing-sim-t_end"),
    pytest.param("tracking-sparse", ("program", "objective", "params", "theta"), DELETE,
                 "program.objective.params.theta is missing", id="missing-theta"),
    pytest.param("tracking-sparse", ("program", "objective", "name"), DELETE,
                 "program.objective.name is missing", id="missing-objective-name"),
    pytest.param("tracking-sparse", ("program", "objective"), DELETE,
                 "program.objective is missing", id="missing-objective"),
    pytest.param("no-hurwitz", ("program", "qp", "m"), DELETE, "program.qp.m is missing",
                 id="missing-qp-m"),
    pytest.param("no-hurwitz", ("program", "inequalities"), [{"name": "affine"}],
                 "program.inequalities[0].params is missing", id="missing-inequality-params"),
    pytest.param("tracking-sparse", ("om", "variant"), DELETE, "om.variant is missing",
                 id="missing-om-variant"),
    pytest.param("no-hurwitz", ("stabilizer", "gains"), DELETE, "stabilizer block needs",
                 id="missing-stabilizer-gains"),
    pytest.param("power-dapi", ("controller", "name"), DELETE, "controller.name is missing",
                 id="missing-controller-name"),
    pytest.param("power-novel", ("controller", "gains"), {"k1": [1.0]},
                 "controller.gains.k2 is missing", id="missing-controller-gain"),
    pytest.param("power-dapi", ("network", "p_star"), DELETE, "network.p_star is missing",
                 id="missing-network-field"),
    pytest.param("no-hurwitz", ("plant", "matrices"), DELETE, "plant needs a builder",
                 id="missing-plant-matrices"),
    # each block field of the wrong type
    pytest.param("no-hurwitz", ("stabilizer",), {"lqr": 5}, "stabilizer.lqr must be an object",
                 id="lqr-not-object"),
    pytest.param("rfs-violation", ("stabilizer", "gains"), 3,
                 "stabilizer.gains must be an object, got int", id="gains-number"),
    pytest.param("rfs-violation", ("stabilizer", "gains"), [1.0],
                 "stabilizer.gains must be an object, got list", id="gains-list"),
    pytest.param("rfs-violation", ("stabilizer", "gains"), "x",
                 "stabilizer.gains must be an object, got str", id="gains-string"),
    pytest.param("no-hurwitz", ("stabilizer",), {"lqr": {"q": "big"}},
                 "stabilizer.lqr.q must be a finite number", id="lqr-q-string"),
    pytest.param("no-hurwitz", ("stabilizer",), {"lqr": {"r": None}},
                 "stabilizer.lqr.r must be a finite number", id="lqr-r-null"),
    pytest.param("power-novel", ("controller", "lqr", "q"), [1.0],
                 "controller.lqr.q must be a finite number", id="controller-lqr-q-list"),
    pytest.param("no-hurwitz", ("sim", "h"), None, "sim.h must be a positive number",
                 id="sim-h-null"),
    pytest.param("no-hurwitz", ("sim", "h"), 0.0, "sim.h must be a positive number",
                 id="sim-h-zero"),
    pytest.param("no-hurwitz", ("sim", "t_end"), "10", "sim.t_end must be a positive number",
                 id="sim-t_end-string"),
    pytest.param("tracking-sparse", ("program", "objective", "params", "beta"), -1.0,
                 "program.objective.params.beta must be a positive number", id="beta-negative"),
    # numeric fields read deeper inside a block
    pytest.param("tracking-sparse", ("program", "objective", "params", "theta"), None,
                 "program.objective.params.theta must be a finite number", id="theta-null"),
    pytest.param("tracking-sparse", ("program", "objective", "params", "p_m"), 1.5,
                 "program.objective.params.p_m must be an integer", id="p_m-fraction"),
    pytest.param("tracking-sparse", ("program", "objective", "params", "r_indices"), [1, None, 3],
                 "program.objective.params.r_indices[1] must be an integer",
                 id="r_indices-entry-null"),
    pytest.param("no-hurwitz", ("program", "inequalities"),
                 [{"name": "affine", "params": {"g": [1.0, 0.0], "offset": None}}],
                 "program.inequalities[0].params.offset must be a finite number",
                 id="inequality-offset-null"),
    pytest.param("power-dapi", ("controller", "k"), None, "controller.k must be a finite number",
                 id="controller-k-null"),
    pytest.param("power-dapi", ("network", "n"), None, "network.n must be an integer",
                 id="network-n-null"),
    # numeric fields of an expectation, read only when its check runs
    pytest.param("no-hurwitz", ("expect", 2, "tol"), None,
                 "expect[2].tol must be a finite number", id="expect-tol-null"),
    pytest.param("equilibrium-necessity", ("variants", 0, "expect", 2, "by"), "soon",
                 "variants[0].expect[2].by must be a finite number", id="expect-by-string"),
    pytest.param("rfs-violation", ("expect", 3, "at_least"), None,
                 "expect[3].at_least must be a finite number", id="expect-at_least-null"),
    pytest.param("tracking-sparse", ("variants", 0, "expect", 1, "index"), 0.5,
                 "variants[0].expect[1].index must be an integer", id="expect-index-fraction"),
    pytest.param("no-hurwitz", ("expect", 2, "values", 1), None,
                 "expect[2].values[1] must be a finite number", id="expect-values-entry-null"),
    pytest.param("rfs-violation", ("expect", 3, "delta"), 0.5,
                 "expect[3].delta must be a list of numbers", id="expect-delta-number"),
    # delta samples and the simulation delta: length and box, at load
    pytest.param("rfs-violation", ("plant", "delta_samples", 2), [0.75],
                 "plant.delta_samples[2][0]=0.75 outside box [-0.5, 0.5]",
                 id="sample-outside-box"),
    pytest.param("rfs-violation", ("plant", "delta_samples", 1), [0.1, 0.2],
                 "plant.delta_samples[1] has 2 entries", id="sample-length"),
    pytest.param("power-dapi", ("plant", "delta_samples", 2), [-0.75],
                 "plant.delta_samples[2][0]=-0.75 outside box [-0.5, 0.5]",
                 id="swing-sample-outside-box"),
    pytest.param("power-dapi", ("plant", "delta_samples", 1), [0.1, 0.2],
                 "plant.delta_samples[1] has 2 entries", id="swing-sample-length"),
    pytest.param("rfs-violation", ("sim", "delta"), [0.1, 0.2], "sim.delta has 2 entries",
                 id="sim-delta-length"),
    pytest.param("rfs-violation", ("variants", 0, "sim"), {"delta": [0.75]},
                 "variants[0].sim.delta[0]=0.75 outside box [-0.5, 0.5]",
                 id="variant-sim-delta-outside-box"),
    # a delta term of another shape than its matrix, or without the matrix
    pytest.param("rfs-violation", ("plant", "matrices", "a_delta", 0),
                 {"rows": 1, "cols": 1, "data": [-1.0]}, "plant.a_delta[0] is 1x1, plant.a is 2x2",
                 id="a_delta-1x1"),
    pytest.param("rfs-violation", ("plant", "matrices", "a_delta", 0),
                 {"rows": 3, "cols": 3, "data": [0.0] * 9}, "plant.a_delta[0] is 3x3",
                 id="a_delta-3x3"),
    # a matrix given with explicit rows and cols is not reshaped: B is 2x1
    pytest.param("rfs-violation", ("plant", "matrices", "b"),
                 {"rows": 1, "cols": 2, "data": [1.0, -1.0]}, "plant.b has 1 rows, expected 2",
                 id="b-1x2"),
    pytest.param("rfs-violation", ("plant", "matrices", "cm_delta"),
                 [{"rows": 2, "cols": 2, "data": [0.0] * 4}], "plant.cm_delta needs plant.cm",
                 id="cm_delta-without-cm"),
    # the delta box: one finite [lo, hi] pair per coordinate, lo <= hi
    pytest.param("rfs-violation", ("plant", "delta_box"), [[-0.5, 0.5], [-0.5, 0.5]],
                 "plant.delta_box must list one [lo, hi] pair per delta coordinate (1)",
                 id="box-two-pairs"),
    pytest.param("rfs-violation", ("plant", "delta_box", 0), [0.5],
                 "plant.delta_box[0] must be a pair [lo, hi]", id="box-one-number"),
    pytest.param("rfs-violation", ("plant", "delta_box", 0), [0.5, -0.5],
                 "plant.delta_box[0] is empty: lo 0.5 exceeds hi -0.5", id="box-inverted"),
    pytest.param("rfs-violation", ("plant", "delta_box", 0), [-0.5, None],
                 "plant.delta_box[0][1] must be a finite number", id="box-hi-null"),
    pytest.param("rfs-violation", ("plant", "delta_box"), 0.5,
                 "plant.delta_box must list one [lo, hi] pair", id="box-number"),
])
def test_malformed_scenario_exits_2(tmp_path, capsys, name, path, value, field):
    doc = json.loads(scenarios.bundled_path(name).read_text())
    edit(doc, path, value)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert cli.main(["check", str(bad)]) == 2
    assert field in capsys.readouterr().err


def test_input_index_out_of_range_exits_2(tmp_path, capsys):
    # the index is checked against the inputs when the run has them
    doc = json.loads(scenarios.bundled_path("tracking-sparse").read_text())
    edit(doc, ("variants", 0, "expect", 1, "index"), 7)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert cli.main(["run", str(bad), "--t-end", "0.01"]) == 2
    assert "index 7 is not one of the 2 inputs" in capsys.readouterr().err


def test_check_json_report_is_json(capsys):
    # a numpy boolean verdict (the spectrum check) must not reach the encoder
    assert cli.main(["check", "no-hurwitz", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [c["passed"] for c in report["checks"]] == [True, True, True]


def test_scenario_checks_run_in_the_first_variant_with_another_selected(capsys):
    # equilibrium-necessity's oracle_y check needs the sim block of its first
    # variant; the kkt-controller variant has none
    assert cli.main(["check", "equilibrium-necessity", "--variant", "kkt-controller",
                     "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [(c["kind"], c["variant"]) for c in report["checks"]] == [
        ("oracle_y", "oss"), ("stabilizable", "kkt-controller")]


def test_variant_null_clears_an_inherited_block(capsys):
    # kkt-controller sets keta to null: it inherits no one-column integrator
    # gain, so no spectrum line reports a shape mismatch
    plan = scenarios.load_scenario("equilibrium-necessity").variant("kkt-controller")
    assert plan.stabilizer.keta is None and plan.sim is None
    assert cli.main(["check", "equilibrium-necessity"]) == 0
    out = capsys.readouterr().out
    assert "spectrum unavailable" not in out
    assert "[oss] delta=[]: max Re(closed-loop spectrum)" in out



def test_module_entry_point_exit_codes():
    # ``python -m osscontrol`` from a checkout, with the sources on the path
    env = dict(os.environ, PYTHONPATH=str(Path(scenarios.__file__).parents[1]))

    def oss(*args):
        return subprocess.run([sys.executable, "-m", "osscontrol", *args], env=env,
                              capture_output=True, text=True)

    listed = oss("list")
    assert listed.returncode == 0
    assert listed.stdout.split() == list(scenarios.BUNDLED_NAMES)
    unknown = oss("check", "no-such-scenario")
    assert unknown.returncode == 2
    assert unknown.stderr.startswith("error: ")
