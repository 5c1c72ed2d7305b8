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


def run_traced(tmp_path, mode, *argv):
    """The process and the record of one traced_cli.py run of `pcekit ARGV`."""
    record = tmp_path / "record.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "traced_cli.py"), "--mode", mode,
         "--out", str(record), "--", *argv],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc, json.loads(record.read_text())


@pytest.mark.parametrize("mode", ["time", "memory"])
def test_traced_grid_command_writes_its_record(tmp_path, mode):
    proc, result = run_traced(tmp_path, mode, "grid", "--dim", "2", "--sparse", "2")
    assert proc.stdout.splitlines()[0] == "x1,x2,weight"
    assert result["exit_code"] == 0
    spans = {span["name"] for span in result["spans"]}
    if mode == "time":
        assert {"cli.cmd_grid", "quadrature.sparse_grid"} <= spans
    else:
        assert spans == set()


def test_traced_build_times_the_cache_lookup_and_store(tmp_path):
    # The cache methods a build calls are the ones the tracer wraps, so the
    # benchmark's cache_lookup_s and cache_store_s measure the build.
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "model": {"kind": "builtin", "name": "sobol-example-1"},
        "inputs": [{"name": "x1", "min": -1.0, "max": 1.0},
                   {"name": "x2", "min": -1.0, "max": 1.0}],
        "outputs": ["y"],
        "method": {"type": "full-grid", "order": 2},
        "paths": {"cache": "cache.jsonl", "model_file": "model.json", "report_dir": "report"},
    }))
    _, result = run_traced(tmp_path, "time", "build", "--config", str(config))
    assert result["exit_code"] == 0
    assert (tmp_path / "cache.jsonl").read_text().count("\n") == 9
    durations = {}
    for span in result["spans"]:
        durations.setdefault(span["name"], []).append(span["duration_s"])
    for name in ("blackbox.EvaluationCache.lookup", "blackbox.EvaluationCache.store"):
        assert durations.get(name) and all(d > 0 for d in durations[name]), name
