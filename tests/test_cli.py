"""The ``oss`` command line: exit codes on malformed scenario files."""

import json
from pathlib import Path

import pytest

from osscontrol import cli, scenarios

NO_HURWITZ = Path(scenarios.__file__).parent / "scenario_files" / "no-hurwitz.json"


@pytest.mark.parametrize("key, value", [("rows", None), ("data", 1.0)])
def test_malformed_matrix_block_exits_2(tmp_path, capsys, key, value):
    doc = json.loads(NO_HURWITZ.read_text())
    doc["plant"]["matrices"]["a"][key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["check", str(path)]) == 2
    assert "plant.a" in capsys.readouterr().err
