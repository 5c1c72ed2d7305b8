"""perfbench/traced_cli.py still installs its wrappers on pcekit.

It wraps every public function and a list of class attributes by name; a
name it expects that pcekit no longer has makes it exit with an
AttributeError before the command runs.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("mode", ["time", "memory"])
def test_traced_grid_command_writes_its_record(tmp_path, mode):
    record = tmp_path / "record.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "traced_cli.py"), "--mode", mode,
         "--out", str(record), "--", "grid", "--dim", "2", "--sparse", "2"],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "x1,x2,weight"
    result = json.loads(record.read_text())
    assert result["exit_code"] == 0
    spans = {span["name"] for span in result["spans"]}
    if mode == "time":
        assert {"cli.cmd_grid", "quadrature.sparse_grid"} <= spans
    else:
        assert spans == set()
