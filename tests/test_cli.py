"""The ``oss`` command line: exit codes on malformed scenario files."""

import json

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
])
def test_malformed_scenario_exits_2(tmp_path, capsys, name, path, value, field):
    doc = json.loads(scenarios.bundled_path(name).read_text())
    edit(doc, path, value)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert cli.main(["check", str(bad)]) == 2
    assert field in capsys.readouterr().err


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

