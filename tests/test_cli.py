"""The ``oss`` command line: exit codes on malformed scenario files."""

import copy
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from osscontrol import cli, scenarios
from osscontrol.errors import OssError

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
    pytest.param("power-gb", ("expect", 0),
                 {"kind": "rfs", "holds": True, "matches_om_basis": True},
                 "expect[0]: this check needs an optimality-model controller",
                 id="rfs-om-basis-without-model"),
    # the dispatch checks compare with the economic dispatch of a network's swing plant
    pytest.param("no-hurwitz", ("expect", 0), {"kind": "oracle_matches_dispatch"},
                 "expect[0].kind needs a network block", id="oracle-dispatch-without-network"),
    pytest.param("no-hurwitz", ("variants", 0, "expect"), [{"kind": "dispatch"}],
                 "variants[0].expect[0].kind needs a network block", id="dispatch-without-network"),
    # a plant without a network, whose disturbance the spectrum check needs
    pytest.param("no-hurwitz", ("sim", "w"), DELETE,
                 "expect[2]: sim.w is missing: a plant without a network needs a disturbance vector",
                 id="missing-sim-w"),
    pytest.param("no-hurwitz", ("plant", "matrices", "a"), 1.0,
                 "plant.a must be a matrix object with rows, cols and data, got float",
                 id="matrix-number"),
    pytest.param("no-hurwitz", ("expect",), {}, "expect must be a list, got dict",
                 id="expect-object"),
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
    pytest.param("power-gb", ("controller", "name"), DELETE, "controller.name is missing",
                 id="missing-controller-name"),
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
    # values that raised a TypeError or IndexError past the command line
    pytest.param("power-dapi", ("network", "edges", 0), 2.5,
                 "network.edges[0] must be a list of numbers", id="edge-number"),
    pytest.param("power-dapi", ("network", "inertia"), {},
                 "network.inertia must be a list of numbers", id="inertia-object"),
    pytest.param("power-dapi", ("network", "edges", 0, 0), 10 ** 6,
                 "network.edges[0][0] must be an integer in [0, 4)", id="edge-bus-out-of-range"),
    pytest.param("power-dapi", ("plant", "delta_samples"), 2.5,
                 "plant.delta_samples must be a list of number lists", id="swing-samples-number"),
    pytest.param("power-dapi", ("network", "laplacian"), {},
                 "network.laplacian must be a list of number lists", id="laplacian-object"),
    pytest.param("pd-vs-oss", ("plant", "matrices", "a", "cols"), False,
                 "plant.a.cols must be a non-negative integer", id="cols-false"),
    pytest.param("no-hurwitz", ("sim", "w"), {}, "sim.w must be a list of numbers",
                 id="sim-w-object"),
    pytest.param("rfs-violation", ("plant", "delta_samples"), 2.5,
                 "plant.delta_samples must be a list of number lists", id="samples-number"),
    pytest.param("power-gb", ("controller", "c"), {}, "controller.c must be a list of numbers",
                 id="gb-weights-object"),
    pytest.param("power-gb", ("controller", "c"), [0.5, 0.5, 0.5, -0.5],
                 "controller: weights must be nonnegative", id="gb-weights-negative"),
    pytest.param("power-dapi", ("plant", "delta_samples"), [],
                 "plant.delta_samples must hold numbers that fit an array, got []",
                 id="swing-samples-empty"),
    pytest.param("rfs-violation", ("expect", 0, "witness"), 2.5,
                 "expect[0].witness must be a list of number lists", id="witness-number"),
    # the distributed power controllers are om documents: gather_broadcast is
    # the one controller name, and a feasible-direction basis has one row per output
    pytest.param("power-gb", ("controller", "name"), "dapi",
                 "controller.name must be one of 'gather_broadcast', got 'dapi'",
                 id="controller-name-dapi"),
    pytest.param("power-dapi", ("om", "basis"), {"rows": 7, "cols": 4, "data": [0.0] * 28},
                 "om.basis has 7 rows, expected 8", id="om-basis-7-rows"),
    # shapes against the plant's inputs, and against the built model
    pytest.param("no-hurwitz", ("stabilizer", "gains", "kx"),
                 {"rows": 1, "cols": 3, "data": [0.0] * 3}, "stabilizer.gains.kx has 1 rows, expected 2",
                 id="gain-rows"),
    pytest.param("no-hurwitz", ("stabilizer", "gains", "keta"),
                 {"rows": 2, "cols": 1, "data": [1.0, 1.0]},
                 "stabilizer.gains.keta has 1 columns, expected 2", id="gain-columns"),
    pytest.param("equilibrium-necessity", ("sim", "z0"), [0.0], "sim.z0 has 1 entries, expected 3",
                 id="z0-length"),
    # a boolean among numbers, which numpy would read as 1
    pytest.param("no-hurwitz", ("plant", "matrices", "a", "data", 0), True,
                 "plant.a.data[0] must be a finite number, got True", id="data-entry-true"),
    # the values of an oracle_y check are the plant's outputs
    pytest.param("equilibrium-necessity", ("expect", 0, "values"), [1.0],
                 "expect[0].values has 1 entries, expected 2", id="oracle_y-values-length"),
    # an unknown field, and a null block, which is an absent one
    pytest.param("no-hurwitz", ("sim", "hh"), 0.1, "sim.hh: unknown field", id="unknown-field"),
    pytest.param("no-hurwitz", ("om",), None, "variants[0] needs an om block or a controller block",
                 id="om-null"),
    # a variant's name keys its trace and --variant: two unnamed variants are both "main"
    pytest.param("no-hurwitz", ("variants",), [{}, {}],
                 "variants[1].name: another variant is named 'main'", id="variants-unnamed-twice"),
    pytest.param("pd-vs-oss", ("variants", 1, "name"), "primal-dual",
                 "variants[1].name: another variant is named 'primal-dual'",
                 id="variant-name-repeated"),
    # an expectation takes only the fields of its kind's record: a threshold
    # of another kind would be ignored
    pytest.param("no-hurwitz", ("expect", 2, "omega_tol"), 1e-5,
                 "expect[2].omega_tol: unknown field; spectrum takes kind, tol, values",
                 id="spectrum-omega_tol"),
    pytest.param("no-hurwitz", ("expect", 1, "newton_tol"), 1e-10,
                 "expect[1].newton_tol: unknown field; prop takes kind, overall, which",
                 id="prop-newton_tol"),
    pytest.param("no-hurwitz", ("expect", 0, "tol"), 5.0,
                 "expect[0].tol: unknown field; robust_full_rank takes kind, holds",
                 id="robust_full_rank-tol"),
    pytest.param("power-dapi", ("variants", 0, "expect", 1, "tol"), 1.0,
                 "variants[0].expect[1].tol: unknown field; dispatch takes kind, u_tol, omega_tol, "
                 "marginal_spread_tol", id="dispatch-tol"),
    # a bound-less expectation would pass whatever the loop does
    pytest.param("rfs-violation", ("variants", 0, "expect", 1), {"kind": "final_err"},
                 "variants[0].expect[1]: final_err needs min or tol", id="final_err-unbounded"),
    pytest.param("rfs-violation", ("variants", 0, "expect", 1), {"kind": "extrema"},
                 "variants[0].expect[1]: extrema needs min or max", id="extrema-unbounded"),
    pytest.param("rfs-violation", ("variants", 0, "expect", 1), {"kind": "final_input_abs", "index": 0},
                 "variants[0].expect[1]: final_input_abs needs min or max",
                 id="final_input_abs-unbounded"),
    # a field the check reads only beside another would be ignored alone
    pytest.param("rfs-violation", ("expect", 3, "equals"), DELETE,
                 "expect[3].equals_tol: equilibrium_mismatch reads it only beside equals",
                 id="equals_tol-without-equals"),
])
def test_malformed_scenario_exits_2(tmp_path, capsys, name, path, value, field):
    doc = json.loads(scenarios.bundled_path(name).read_text())
    edit(doc, path, value)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert cli.main(["check", str(bad)]) == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("path, field, name", [
    (("name",), "name", "../escaped"),
    (("name",), "name", "ABS"),
    (("name",), "name", "nul\0byte"),
    (("variants", 0, "name"), "variants[0].name", "..\\escaped"),
], ids=["parent-dir", "absolute", "nul", "variant-backslash"])
def test_a_name_that_would_leave_out_exits_2(tmp_path, capsys, path, field, name):
    # a name is part of its trace file names: a separator in it would put the
    # trace outside --out, or anywhere for an absolute one
    name = name.replace("ABS", str(tmp_path / "abs" / "absolute"))
    doc = json.loads(scenarios.bundled_path("no-hurwitz").read_text())
    edit(doc, path, name)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert cli.main(["run", str(bad), "--out", str(tmp_path / "esc" / "out")]) == 2
    assert capsys.readouterr().err == (
        f"error: {field} must be a string without '/', '\\' or NUL, got {name!r}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json"]


def test_dispatch_check_needs_the_swing_plant(tmp_path, capsys):
    # a network block beside a plant of its own matrices: no swing plant to dispatch
    doc = json.loads(scenarios.bundled_path("no-hurwitz").read_text())
    doc["network"] = json.loads(scenarios.bundled_path("power-dapi").read_text())["network"]
    doc["expect"][0] = {"kind": "dispatch"}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert cli.main(["check", str(bad)]) == 2
    assert capsys.readouterr().err == "error: expect[0].kind needs the swing plant of plant.builder\n"


def test_rfs_witness_beside_a_holding_report_fails(tmp_path, capsys):
    # power-dapi's feasible subspace holds, so its report has no witness to
    # compare a given one with: the check fails instead of ignoring it
    doc = json.loads(scenarios.bundled_path("power-dapi").read_text())
    doc["expect"][0]["witness"] = [[0.0], [0.3]]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["check", str(path)]) == 1
    line = next(x for x in capsys.readouterr().out.splitlines() if " rfs [main]" in x)
    assert line.startswith("  [FAIL] rfs [main]: holds=True, max sine ")


@pytest.mark.parametrize("command", ["check", "run"])
@pytest.mark.parametrize("scenario_level", [False, True], ids=["variant", "scenario-level"])
def test_simulated_check_without_sim_exits_2(tmp_path, capsys, command, scenario_level):
    # a dispatch check reads a trajectory: its variant's, or the first variant's
    # for a scenario-level one; refused at load by both commands
    doc = json.loads(scenarios.bundled_path("power-dapi").read_text())
    if scenario_level:  # a first variant that nulls the top-level sim, a second that keeps it
        doc["variants"] = [{"name": "main", "sim": None}, {"name": "second"}]
        doc["expect"].append({"kind": "dispatch"})
        where = f"expect[{len(doc['expect']) - 1}]"
    else:
        del doc["sim"]
        where = "variants[0].expect[1]"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert cli.main([command, str(bad)]) == 2
    assert capsys.readouterr().err == (
        f"error: {where}: dispatch reads the trajectory of variant 'main', which has no sim block\n")


def test_spectrum_of_a_nonlinear_loop_exits_2(tmp_path, capsys):
    doc = json.loads(scenarios.bundled_path("tracking-sparse").read_text())
    doc["expect"].append({"kind": "spectrum", "values": [0.0]})
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert cli.main(["check", str(bad)]) == 2
    assert capsys.readouterr().err == (
        "error: expect[1]: the closed-loop spectrum needs an affine loop\n")


def test_scenario_level_simulated_check_reads_the_first_variant(tmp_path, capsys):
    doc = json.loads(scenarios.bundled_path("rfs-violation").read_text())
    doc["expect"].append({"kind": "final_err", "tol": 1.0})
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["run", str(path)]) == 0
    checks = [line for line in capsys.readouterr().out.splitlines() if line.startswith("  [PASS]")]
    # the scenario-level checks, then the variant's: both final_err read its trajectory
    assert [line.split(" [main]")[0] for line in checks] == [
        f"  [PASS] {kind}" for kind in ("rfs", "ros", "robust_full_rank", "equilibrium_mismatch",
                                        "final_err", "hurwitz_at_samples", "final_err")]
    assert checks[4] == checks[6] == "  [PASS] final_err [main]: final err = 0.111"


def test_diverged_variant_exits_3(tmp_path, capsys):
    # no-hurwitz's gains with their signs flipped put closed-loop poles at 4.8
    # and 9.6: the state passes the divergence limit long before t_end
    doc = json.loads(scenarios.bundled_path("no-hurwitz").read_text())
    for gain in doc["stabilizer"]["gains"].values():
        gain["data"] = [-x for x in gain["data"]]
    doc["sim"].update(h=0.01, t_end=100.0)
    bad = tmp_path / "diverges.json"
    bad.write_text(json.dumps(doc))
    assert cli.main(["run", str(bad)]) == 3
    out = capsys.readouterr().out
    assert "  [main] trajectory diverged and was truncated\n" in out
    assert out.endswith("result: FAIL (diverged)\n")


def test_input_index_out_of_range_exits_2(tmp_path, capsys):
    # the index is checked against the plant's inputs at load
    doc = json.loads(scenarios.bundled_path("tracking-sparse").read_text())
    edit(doc, ("variants", 0, "expect", 1, "index"), 7)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert cli.main(["run", str(bad), "--t-end", "0.01"]) == 2
    err = capsys.readouterr().err
    assert "variants[0].expect[1].index must be an integer in [0, 2), got 7" in err


@pytest.mark.parametrize("sim", [{"t_end": 1e308}, {"h": 1.0, "t_end": 0.5}],
                         ids=["steps-infinite", "no-step"])
def test_step_count_exits_2(tmp_path, capsys, sim):
    doc = json.loads(scenarios.bundled_path("rfs-violation").read_text())
    doc["sim"].update(sim)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert cli.main(["run", str(bad)]) == 2
    assert "sim: t_end must be a finite number of steps, at least one" in capsys.readouterr().err


def test_unreadable_paths_exit_2(tmp_path, capsys, monkeypatch):
    # a directory as the document, a file where the trace directory goes and
    # a document that is not UTF-8 text: one error line each, no traceback
    assert cli.main(["check", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and str(tmp_path) in err
    taken = tmp_path / "taken"
    taken.write_text("")
    integrated = []
    monkeypatch.setattr(scenarios, "_evaluate", lambda *a, **k: integrated.append(a))
    assert cli.main(["run", "no-hurwitz", "--out", str(taken)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and str(taken) in err
    assert not integrated  # refused before the integration
    latin = tmp_path / "latin.json"
    latin.write_bytes(b'{"name": "caf\xe9"}')
    assert cli.main(["check", str(latin)]) == 2
    assert capsys.readouterr().err == f"error: {latin}: not UTF-8 text at byte offset 13\n"


def test_invalid_json_exits_2(tmp_path, capsys):
    # a document cut short after its first field
    cut = tmp_path / "cut.json"
    cut.write_text('{"name": "x",\n')
    assert cli.main(["check", str(cut)]) == 2
    assert capsys.readouterr().err == (
        f"error: {cut}: invalid JSON at line 2: Expecting property name enclosed in double quotes\n")


def test_list_and_an_unknown_name_in_process(capsys):
    assert cli.main(["list"]) == 0
    assert capsys.readouterr().out.split() == list(scenarios.BUNDLED_NAMES)
    assert cli.main(["check", "no-such-scenario"]) == 2
    assert capsys.readouterr().err == (
        "error: no scenario file or bundled name 'no-such-scenario'\n")


def test_step_override_sets_the_trace_times(tmp_path, capsys):
    # --h replaces the document's sim.h (0.01): 0.2 s is four steps of 0.05
    assert cli.main(["run", "rfs-violation", "--h", "0.05", "--t-end", "0.2",
                     "--out", str(tmp_path)]) == 0
    assert "[PASS] final_err [main]" in capsys.readouterr().out
    lines = (tmp_path / "rfs-violation.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in lines] == ["t", "0", "0.05", "0.1", "0.15", "0.2"]


def matrix(rows) -> dict:
    """A scenario-file matrix from its rows."""
    return {"rows": len(rows), "cols": len(rows[0]), "data": [v for row in rows for v in row]}


def test_variant_subspace_checks_read_the_variant_program(tmp_path, capsys):
    # the top-level program has no H; the variant's has one row, which cuts
    # range G = R^2 down to the line (0, 1), and its auto basis is that line
    eye, zero = [[1.0, 0.0], [0.0, 1.0]], [[0.0], [0.0]]
    doc = {"name": "variant-h",
           "plant": {"matrices": {"a": matrix([[-1.0, 0.0], [0.0, -1.0]]), "b": matrix(eye),
                                  "bw": matrix(zero), "c": matrix(eye),
                                  "d": matrix([[0.0, 0.0], [0.0, 0.0]]), "q": matrix(zero)}},
           "program": {"qp": {"m": matrix(eye), "n": matrix(zero)}},
           "om": {"variant": "rfs"},
           "variants": [{"program": {"h": matrix([[1.0, 0.0]])},
                         "expect": [{"kind": "rfs", "holds": True, "matches_om_basis": True}]}]}
    path = tmp_path / "variant-h.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["check", str(path)]) == 0
    assert "[PASS] rfs [main]: holds=True, max sine 0 over 1 deltas, om basis spans it: True" in (
        capsys.readouterr().out)


def test_unknown_variant_exits_2(capsys):
    assert cli.main(["check", "power-dapi", "--variant", "nosuch"]) == 2
    assert capsys.readouterr().err == "error: scenario power-dapi has no variant 'nosuch'\n"


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


def test_checks_leave_numpy_ma_unimported():
    # numpy.ma takes about 10 ms and a megabyte to import (np.unique imports
    # it), numpy.random about 12 ms and 6 MB (the gradient check of a
    # tracking objective drew its probe points from it); loading and checking
    # every bundled scenario needs neither
    code = ("import sys\n"
            "from osscontrol import scenarios\n"
            "for name in scenarios.BUNDLED_NAMES:\n"
            "    scenarios.check_scenario(scenarios.load_scenario(name))\n"
            "print('numpy.ma' in sys.modules, 'numpy.random' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(scenarios.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False False\n"


# What a mutation puts in place of a value: nulls, booleans, extreme and
# signed numbers, a string, empty and one-entry lists and objects, a 1x1 matrix.
REPLACEMENTS = [None, True, False, 0, -1, 1e308, float("nan"), "x", [], {}, [1.0], [[1.0]],
                {"rows": 1, "cols": 1, "data": [1.0]}, 2.5, -0.0, 10 ** 6]
# an error message opens with the dotted document path of the bad field
DOCUMENT_PATH = re.compile(r"(variants\[\d+\]\.)?(name|description|notes|network|plant|program|om"
                           r"|stabilizer|controller|sim|expect|variants)\b")


def slots(node):
    """Every (container, key) of a JSON document."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield node, key
        yield from slots(child)


def mutate(doc: dict, rng: random.Random) -> list:
    """One or two edits of ``doc`` in place, each deleting a key or a list
    entry or replacing a value, or one edit that copies a field of another
    kind's record into an expectation; returns the edits."""
    expectations = [(f"expect[{j}]", spec) for j, spec in enumerate(doc.get("expect", []))]
    expectations += [(f"variants[{i}].expect[{j}]", spec) for i, v in enumerate(doc.get("variants", []))
                     for j, spec in enumerate(v.get("expect", []))]
    if expectations and rng.random() < 0.1:
        where, spec = rng.choice(expectations)
        own = scenarios.CHECK_KINDS[spec["kind"]]
        foreign = sorted({key for rec in scenarios.CHECK_KINDS.values()
                          for key in (*rec.required, *rec.optional, *rec.one_of)}
                         - {*own.required, *own.optional, *own.one_of})
        key = rng.choice(foreign)
        spec[key] = copy.deepcopy(rng.choice(REPLACEMENTS))
        return [("foreign", f"{where}.{key}", spec[key])]
    edits = []
    for _ in range(rng.randint(1, 2)):
        node, key = rng.choice(list(slots(doc)))
        if rng.random() < 0.3:
            del node[key]
            edits.append(("delete", key))
        else:
            node[key] = copy.deepcopy(rng.choice(REPLACEMENTS))
            edits.append(("replace", key, node[key]))
    return edits


# entries of 1e308 overflow by design: ``oss`` prints such a warning, and the
# test must not raise it as the tier-1 settings do
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_mutated_documents_exit_cleanly(tmp_path, capsys, monkeypatch):
    # every mutation ends with exit code 0, 1, 2 or 3; an exit 2 from a
    # ValueError names the document path of the bad field (the OssError
    # subclasses are numerical verdicts on a well-formed document)
    raised = []

    def recording(fn):
        def call(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                raised.append(exc)
                raise
        return call

    for name in ("load_scenario", "check_scenario", "run_scenario"):
        monkeypatch.setattr(cli, name, recording(getattr(scenarios, name)))
    docs = {name: json.loads(scenarios.bundled_path(name).read_text())
            for name in scenarios.BUNDLED_NAMES}
    bad = tmp_path / "mutated.json"
    # (command, its options after the document, mutations, seed) of each leg
    legs = (("check", [], 500, 18),
            ("run", ["--t-end", "0.05", "--sweep", "--out", str(tmp_path / "traces")], 100, 19))
    for command, options, mutations, seed in legs:
        argv = [command, str(bad), *options]
        rng = random.Random(seed)
        mutated = set()
        for trial in range(mutations):
            name = rng.choice(scenarios.BUNDLED_NAMES)
            mutated.add(name)
            doc = copy.deepcopy(docs[name])
            edits = mutate(doc, rng)
            bad.write_text(json.dumps(doc))
            where = f"{command} seed {seed}, mutation {trial}: {name} with {edits}\n{json.dumps(doc)}"
            raised.clear()
            try:
                code = cli.main(argv)
            except Exception as exc:
                pytest.fail(f"{where}\nraised {exc!r}")
            err = capsys.readouterr().err
            assert code in (0, 1, 2, 3), where
            if edits[0][0] == "foreign":  # refused at load, naming the field
                assert code == 2 and err.startswith(f"error: {edits[0][1]}: unknown field"), where
            if code == 2 and not isinstance(raised[-1], OssError):
                assert DOCUMENT_PATH.match(err.removeprefix("error: ")), f"{where}\n{err}"
        assert mutated == set(scenarios.BUNDLED_NAMES), command
