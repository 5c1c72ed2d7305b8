import atexit
import csv
import importlib
import io
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pcekit import blackbox, cli, sampling, surrogate
from pcekit.blackbox import BlackBoxModel, EvaluationCache
from pcekit.cli import main
from pcekit.config import load_config
from pcekit.errors import ConfigurationError, EvaluationError
from pcekit.quadrature import POINT_COUNT_CAP
from pcekit.sampling import latin_hypercube
from pcekit.surrogate import unscale_points

from test_blackbox import thread_echo, usable_cores


def base_doc():
    """A small builtin run: csg-proxy on a full grid of order 2 (81 points)."""
    return {
        "model": {"kind": "builtin", "name": "csg-proxy"},
        "inputs": [
            {"name": "fracture_porosity", "min": 0.005, "max": 0.05},
            {"name": "fracture_permeability", "min": 10.0, "max": 1000.0},
            {"name": "langmuir_pressure_reciprocal", "min": 0.00017, "max": 0.0003},
            {"name": "langmuir_volume", "min": 0.2, "max": 1.0},
        ],
        "outputs": ["cumulative_gas", "peak_gas"],
        "method": {"type": "full-grid", "order": 2},
        "validation": {"lhs_strata": 10, "lhs_repeats": 3, "seed": 11},
        "report": {"histogram_bins": 8, "uq_samples": 40},
        "paths": {"cache": "cache.jsonl", "model_file": "model.json", "report_dir": "report"},
    }


def write_config(tmp_path, **overrides):
    doc = base_doc()
    doc.update(overrides)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc, indent=1))
    return path


def read_data_lines(path):
    return [line for line in path.read_text().splitlines() if not line.startswith("#")]


class TestBuild:
    def test_writes_model_and_log(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["build", "--config", str(config)]) == 0
        assert (tmp_path / "model.json").exists()
        log = (tmp_path / "report" / "run.log").read_text()
        assert "evaluations=81" in log
        assert "cache_misses=81" in log
        assert "built full-grid" in capsys.readouterr().out

    def test_sparse_evaluation_count(self, tmp_path):
        config = write_config(tmp_path, method={"type": "sparse-grid", "level": 4})
        assert main(["build", "--config", str(config)]) == 0
        assert "evaluations=401" in (tmp_path / "report" / "run.log").read_text()

    def test_second_build_hits_cache(self, tmp_path):
        config = write_config(tmp_path)
        main(["build", "--config", str(config)])
        main(["build", "--config", str(config)])
        log_lines = (tmp_path / "report" / "run.log").read_text().splitlines()
        assert "cache_hits=0" in log_lines[0]
        assert "cache_hits=81" in log_lines[1]

    def test_invalid_range_names_variable(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            inputs=[
                {"name": "fracture_porosity", "min": 0.05, "max": 0.05},
                {"name": "fracture_permeability", "min": 10.0, "max": 1000.0},
                {"name": "langmuir_pressure_reciprocal", "min": 0.00017, "max": 0.0003},
                {"name": "langmuir_volume", "min": 0.2, "max": 1.0},
            ],
        )
        assert main(["build", "--config", str(config)]) == 2
        assert "fracture_porosity" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        config = write_config(tmp_path, extra_knob=1)
        assert main(["build", "--config", str(config)]) == 2
        assert "extra_knob" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["build"], ["validate"], ["uq"], ["sobol"], ["cache", "stats"],
    ])
    def test_unknown_builtin_exits_2_at_config_load(self, tmp_path, capsys, command):
        config = write_config(tmp_path, model={"kind": "builtin", "name": "no-such-model"})
        assert main(command + ["--config", str(config)]) == 2
        assert "unknown builtin model 'no-such-model'" in capsys.readouterr().err

    def test_builtin_names_are_the_registry(self):
        from pcekit import config

        assert config.BUILTIN_NAMES == tuple(blackbox.BUILTIN_MODELS)
        assert blackbox.ModelSpec is config.ModelSpec

    def test_missing_config_is_io_error(self, tmp_path):
        assert main(["build", "--config", str(tmp_path / "nope.json")]) == 4

    @pytest.mark.parametrize(
        "overrides, key",
        [
            ({"validation": {"seed": "abc"}}, "seed"),
            (
                {"model": {"kind": "external", "command": ["true"], "timeout_seconds": "x"}},
                "timeout_seconds",
            ),
            # A launch of "true" would run and fail (exit 3): these stop at load.
            (
                {"model": {"kind": "external", "command": ["true"], "timeout_seconds": 0}},
                "timeout_seconds must be > 0",
            ),
            (
                {"model": {"kind": "external", "command": ["true"], "timeout_seconds": -5}},
                "timeout_seconds must be > 0",
            ),
            (
                {"model": {"kind": "external", "command": ["true"],
                           "working_dir": ["not", "a", "string"]}},
                "working_dir must be a string",
            ),
            ({"method": {"type": "full-grid", "order": True}}, "order"),
            ({"validation": {"lhs_strata": True}}, "lhs_strata"),
            ({"report": {"histogram_bins": 2.5}}, "histogram_bins"),
            ({"model": {"kind": "builtin", "name": "csg-proxy", "parameters": [1]}}, "parameters"),
        ],
    )
    def test_mistyped_value_is_config_error(self, tmp_path, capsys, overrides, key):
        config = write_config(tmp_path, **overrides)
        assert main(["build", "--config", str(config)]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("model_file", None), ("model_file", ""), ("report_dir", 7), ("cache", ""),
    ])
    def test_path_that_is_not_a_non_empty_string_is_config_error(
        self, tmp_path, capsys, key, value
    ):
        # Refused at config load: nothing is evaluated, cached or written.
        config = write_config(tmp_path, paths={**base_doc()["paths"], key: value})
        assert main(["build", "--config", str(config)]) == 2
        assert f"paths.{key} must be a non-empty string" in capsys.readouterr().err
        assert [path.name for path in tmp_path.iterdir()] == ["run.json"]

    @pytest.mark.parametrize(
        "overrides, key",
        [
            ({"report": {"uq_samples": POINT_COUNT_CAP + 1}}, "uq_samples"),
            ({"report": {"histogram_bins": POINT_COUNT_CAP + 1}}, "histogram_bins"),
            (
                {"validation": {"lhs_strata": 10, "lhs_repeats": POINT_COUNT_CAP // 10 + 1}},
                "lhs_strata x lhs_repeats",
            ),
        ],
    )
    def test_array_size_above_the_cap_is_config_error(self, tmp_path, capsys, overrides, key):
        # refused at config load, before the build, validation or uq allocates
        config = write_config(tmp_path, **overrides)
        for command in ("build", "validate", "uq"):
            assert main([command, "--config", str(config)]) == 2
            assert key in capsys.readouterr().err

    @pytest.mark.parametrize("command, workers", [("build", "0"), ("validate", "-3")])
    def test_workers_below_one_is_config_error(self, tmp_path, capsys, command, workers):
        config = write_config(tmp_path)
        main(["build", "--config", str(config)])
        assert main([command, "--config", str(config), "--workers", workers]) == 2
        assert "--workers" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "term",
        [
            5,
            {"coefficients": [1.0, 2.0]},
            {"orders": [0, 0, 0, 0]},
            {"orders": ["a", 0, 0, 0], "coefficients": [1.0, 2.0]},
            {"orders": [0, 0, 0, 0], "coefficients": ["x", 2.0]},
        ],
        ids=["not-an-object", "no-orders", "no-coefficients", "text-order", "text-coefficient"],
    )
    def test_malformed_polynomial_term_is_config_error(self, tmp_path, capsys, term):
        model = {"kind": "builtin", "name": "polynomial", "parameters": {"terms": [term]}}
        config = write_config(tmp_path, model=model)
        assert main(["build", "--config", str(config)]) == 2
        assert "polynomial term" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "model",
        [
            {"name": "constant", "parameters": {"values": ["x", 1.0]}},
            {"name": "constant", "parameters": {"values": [None, 1.0]}},
            {"name": "constant", "parameters": {"values": {"a": 1, "b": 2}}},
            {"name": "polynomial", "parameters": {
                "terms": [{"orders": [0, 0, 0, 0], "coefficients": [1.0, 2.0]}],
                "variables": [1, 2, 3, 4]}},
            {"name": "polynomial", "parameters": {
                "terms": [{"orders": [0, 0, 0, 0], "coefficients": [1.0, 2.0]}],
                "variables": "abcd"}},
            {"name": "polynomial", "parameters": {
                "terms": [{"orders": [1e30, 0, 0, 0], "coefficients": [1.0, 2.0]}]}},
            {"name": "polynomial", "parameters": {
                "terms": [{"orders": [65, 0, 0, 0], "coefficients": [1.0, 2.0]}]}},
            {"name": "polynomial", "parameters": {
                "terms": [{"orders": [1, 0, 0, 0], "coefficients": [float("inf"), 2.0]}]}},
            {"name": "constant", "parameters": {"values": [float("nan"), 1.0]}},
            {"name": "constant", "parameters": {"values": [1.0, float("inf")]}},
            {"name": "constant", "parameters": {"values": [True, 1.0]}},
            {"name": "polynomial", "parameters": {
                "terms": [{"orders": [0, 0, 0, 0], "coefficients": [1.0, 2.0]}],
                "variables": [[0, 1], [0, float("inf")], [0, 1], [0, 1]]}},
        ],
        ids=[
            "constant-text", "constant-null", "constant-object", "variables-not-pairs",
            "variables-text", "order-1e30", "order-above-cap", "coefficient-infinite",
            "constant-nan", "constant-infinite", "constant-true", "variables-infinite",
        ],
    )
    def test_malformed_builtin_parameters_are_config_errors(self, tmp_path, capsys, model):
        # Rejected before any evaluation, so no cache is written.
        config = write_config(tmp_path, model={"kind": "builtin", **model})
        assert main(["build", "--config", str(config)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "cache.jsonl").exists()

    def test_failed_chunk_resumes(self, tmp_path):
        # Grid points of the first of four chunks make the solver fail until
        # it is fixed; the other chunks' results must survive in the cache.
        fixed = tmp_path / "fixed"
        solver = tmp_path / "solver.py"
        solver.write_text(
            "import csv, os, sys\n"
            "rows = list(csv.reader(open(sys.argv[1])))[1:]\n"
            f"if not os.path.exists({str(fixed)!r}) and any(float(r[0]) < 0.2 and float(r[1]) < 0.2 for r in rows):\n"
            "    sys.exit('diverged')\n"
            "print('y1,y2')\n"
            "for r in rows:\n"
            "    print(f'{float(r[0]) + float(r[1])!r},{float(r[0]) * float(r[1])!r}')\n"
        )
        config = write_config(
            tmp_path,
            model={"kind": "external", "command": [sys.executable, str(solver)]},
            inputs=[{"name": "a", "min": 0.0, "max": 1.0}, {"name": "b", "min": 0.0, "max": 1.0}],
            outputs=["y1", "y2"],
        )
        argv = ["build", "--config", str(config), "--workers", "4"]
        assert main(argv) == 3
        assert len((tmp_path / "cache.jsonl").read_text().splitlines()) == 6
        fixed.touch()
        assert main(argv) == 0
        log = (tmp_path / "report" / "run.log").read_text()
        assert "cache_hits=6 cache_misses=3" in log

    @pytest.mark.parametrize("model", [
        {"kind": "builtin", "name": "csg-proxy", "points_per_launch": 1},
        *({"kind": "external", "command": ["true"], "points_per_launch": value}
          for value in [0, -1, 1.5, True, "2", None]),
    ], ids=["builtin", "zero", "negative", "fraction", "true", "text", "null"])
    def test_points_per_launch_of_an_external_model_is_an_integer_of_at_least_1(
        self, tmp_path, capsys, model
    ):
        config = write_config(tmp_path, model=model)
        assert main(["build", "--config", str(config)]) == 2
        assert "points_per_launch" in capsys.readouterr().err
        assert not (tmp_path / "cache.jsonl").exists()

    def test_a_queue_logs_its_launches_and_resumes(self, tmp_path, capsys):
        # The first of nine grid points makes the solver fail until it is
        # fixed: of five launches of at most two points, the first fails
        # after its retry, and the others' four are committed.
        fixed = tmp_path / "fixed"
        solver = tmp_path / "solver.py"
        solver.write_text(
            "import csv, os, sys\n"
            "rows = list(csv.reader(open(sys.argv[1])))[1:]\n"
            f"if not os.path.exists({str(fixed)!r}) and float(rows[0][0]) + float(rows[0][1]) < 0.3:\n"
            "    sys.exit('diverged')\n" + SUM_AND_PRODUCT.split("\n", 2)[2]
        )
        model = {"kind": "external", "command": [sys.executable, str(solver)],
                 "points_per_launch": 2}
        config = write_config(
            tmp_path, model=model, outputs=["y1", "y2"],
            inputs=[{"name": "a", "min": 0.0, "max": 1.0}, {"name": "b", "min": 0.0, "max": 1.0}],
        )
        log = tmp_path / "report" / "run.log"
        argv = ["build", "--config", str(config), "--workers", "2"]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "error: 1 of 5 launches failed, the first at point [0.1127" in err
        assert "diverged" in err
        assert log.read_text().startswith("build failed config_hash=")
        assert log.read_text().endswith(" launches_done=4 launches_failed=1\n")
        assert len((tmp_path / "cache.jsonl").read_text().splitlines()) == 7

        fixed.touch()
        assert main(argv + ["--reproducible"]) == 0
        assert log.read_text().splitlines()[-1].endswith("terms=9 " + " ".join(
            cli._stamp(load_config(config))))
        (tmp_path / "cache.jsonl").unlink()
        assert main(argv) == 0
        assert " cache_hits=0 cache_misses=9 " in log.read_text().splitlines()[-1]
        assert log.read_text().endswith(" launches_done=5 launches_failed=0\n")

    @pytest.mark.parametrize("write, code", [
        ("sys.stderr.buffer.write(b'gr\\xf6\\xdfe')", 0),
        ("sys.stderr.buffer.write(b'gr\\xf6\\xdfe'); sys.exit(5)", 3),
        ("sys.stdout.buffer.write(b'\\xff'); sys.stdout.flush()", 3),
    ], ids=["stderr", "stderr-failing", "stdout"])
    def test_solver_bytes_that_are_not_utf8_exit_by_contract(self, tmp_path, write, code):
        # A succeeding solver's stderr is not read, and a failing one's is
        # quoted with replacement characters; its output must be UTF-8.
        solver = tmp_path / "solver.py"
        solver.write_text(SUM_AND_PRODUCT + f"sys.stdout.flush(); {write}\n")
        config = write_config(
            tmp_path, model={"kind": "external", "command": [sys.executable, str(solver)]},
            inputs=[{"name": "a", "min": 0.0, "max": 1.0}, {"name": "b", "min": 0.0, "max": 1.0}],
            outputs=["y1", "y2"],
        )
        proc = subprocess.run(
            [sys.executable, "-m", "pcekit.cli", "build", "--config", str(config)],
            env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == code and "Traceback" not in proc.stderr, proc.stderr
        cache = tmp_path / "cache.jsonl"
        lines = cache.read_text().splitlines() if cache.exists() else []
        assert len(lines) == (9 if code == 0 else 0)
        if "exit" in write:
            assert "stderr: 'gr\ufffd\ufffde'" in proc.stderr
        elif "stdout" in write:
            assert "external model wrote output that is not UTF-8" in proc.stderr

    @pytest.mark.parametrize("working_dir", [None, "sub"])
    def test_relative_working_dir_resolves_against_the_config(
        self, tmp_path, monkeypatch, working_dir
    ):
        # The solver is named relative to its working directory and reads a
        # file there; the build runs from the config's parent directory.
        solver_dir = tmp_path / "cfg" / (working_dir or "")
        solver_dir.mkdir(parents=True)
        (solver_dir / "offset.txt").write_text("2.5\n")
        (solver_dir / "solver.py").write_text(
            "import csv, sys\n"
            "offset = float(open('offset.txt').read())\n"
            "rows = list(csv.reader(open(sys.argv[1])))[1:]\n"
            "print('y')\n"
            "for r in rows:\n"
            "    print(repr(float(r[0]) + offset))\n"
        )
        model = {"kind": "external", "command": [sys.executable, "solver.py"]}
        if working_dir:
            model["working_dir"] = working_dir
        write_config(
            tmp_path / "cfg",
            model=model,
            inputs=[{"name": "a", "min": 0.0, "max": 1.0}],
            outputs=["y"],
        )
        monkeypatch.chdir(tmp_path)
        assert main(["build", "--config", "cfg/run.json"]) == 0
        built = surrogate.load(tmp_path / "cfg" / "model.json")
        assert built.mean() == pytest.approx([3.0])

    @pytest.mark.parametrize("body, row", [
        ("1.5,2.5", 1),  # two cells in every row, for one declared output
        ("1.5\n2.5,3.5", 2),  # ragged rows
    ], ids=["wide", "ragged"])
    def test_malformed_solver_output_exits_3_naming_the_row(self, tmp_path, body, row):
        # The solver writes the header, then the body's lines, its last one
        # repeated to one row per input row.
        script = tmp_path / "solver.py"
        script.write_text(
            "import sys\n"
            "rows = open(sys.argv[1]).read().splitlines()[1:]\n"
            f"body = {body!r}.splitlines()\n"
            "print('y')\n"
            "for i in range(len(rows)):\n"
            "    print(body[min(i, len(body) - 1)])\n"
        )
        config = write_config(
            tmp_path,
            model={"kind": "external", "command": [sys.executable, str(script)]},
            inputs=[{"name": "a", "min": 0.0, "max": 1.0}],
            outputs=["y"],
            method={"type": "full-grid", "order": 2},
        )
        proc = subprocess.run(
            [sys.executable, "-m", "pcekit.cli", "build", "--config", str(config)],
            env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 3 and "Traceback" not in proc.stderr
        message = f"external model wrote 2 values in output row {row} for 1 declared outputs"
        assert proc.stderr.count(message) == 2  # the retry's warning, then the error
        assert not (tmp_path / "cache.jsonl").exists() or not (tmp_path / "cache.jsonl").read_text()


class TestValidate:
    def test_writes_metrics_and_scatter(self, tmp_path):
        config = write_config(tmp_path)
        main(["build", "--config", str(config)])
        assert main(["validate", "--config", str(config)]) == 0
        table = read_data_lines(tmp_path / "report" / "validate.csv")
        header = table[0].split(",")
        assert header == [
            "method", "parameter",
            "rmse_cumulative_gas", "rrmse_cumulative_gas",
            "rmse_peak_gas", "rrmse_peak_gas",
            "evaluations",
        ]
        row = table[1].split(",")
        assert row[0] == "full-grid" and row[-1] == "81"
        assert float(row[3]) > 0.0
        scatter = read_data_lines(tmp_path / "report" / "scatter.csv")
        assert scatter[0].split(",") == [
            "cumulative_gas_model", "cumulative_gas_surrogate",
            "peak_gas_model", "peak_gas_surrogate",
        ]
        assert len(scatter) == 1 + 30  # strata * repeats

    def test_zero_true_value_is_numerical_error(self, tmp_path, capsys):
        # rrmse is undefined where the black box returns 0: exit 3, no traceback
        config = write_config(
            tmp_path,
            model={"kind": "builtin", "name": "constant", "parameters": {"values": [0.0, 2.5]}},
        )
        main(["build", "--config", str(config)])
        capsys.readouterr()
        assert main(["validate", "--config", str(config)]) == 3
        assert "truth value at index 0 is zero" in capsys.readouterr().err

    def test_scatter_matches_per_cell_rendering(self, tmp_path, monkeypatch):
        # Small blocks, so the rows cross several of them.
        monkeypatch.setattr(sampling, "CSV_BLOCK_ROWS", 7)
        config = write_config(tmp_path)
        main(["build", "--config", str(config)])
        assert main(["validate", "--config", str(config)]) == 0
        cfg = load_config(config)
        model = surrogate.load(cfg.paths.model_file)
        design = latin_hypercube(
            cfg.validation.lhs_strata, model.dim, cfg.validation.lhs_repeats, cfg.validation.seed
        )
        physical = unscale_points(design.points, model.inputs)
        truths = BlackBoxModel(cfg.model)(physical)
        predictions = model.evaluate_batch(physical)
        rows = [
            ",".join(
                cell
                for t, p in zip(truth, prediction)
                for cell in (format(t, ".17g"), format(p, ".17g"))
            )
            for truth, prediction in zip(truths, predictions)
        ]
        text = (tmp_path / "report" / "scatter.csv").read_bytes().decode("utf-8")
        assert text.split("\n")[3:] == rows + [""]

    def test_embeds_config_hash(self, tmp_path):
        config = write_config(tmp_path)
        main(["build", "--config", str(config)])
        main(["validate", "--config", str(config)])
        first = (tmp_path / "report" / "validate.csv").read_text().splitlines()[0]
        assert first.startswith("# config_hash=")

    def test_missing_model_file(self, tmp_path):
        config = write_config(tmp_path)
        assert main(["validate", "--config", str(config)]) == 4

    def test_model_with_other_outputs_is_config_error(self, tmp_path, capsys):
        config = write_config(tmp_path)
        main(["build", "--config", str(config)])
        other = write_config(
            tmp_path / "report",
            model={"kind": "builtin", "name": "constant", "parameters": {"values": [1.0]}},
            outputs=["level"],
        )
        argv = ["validate", "--config", str(other), "--model", str(tmp_path / "model.json")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "['cumulative_gas', 'peak_gas']" in err and "['level']" in err
        # The same inputs in reverse order: the solver would read the design's
        # columns under the wrong names.
        names = [entry["name"] for entry in base_doc()["inputs"]]
        reverse = write_config(tmp_path / "report", inputs=base_doc()["inputs"][::-1])
        argv = ["validate", "--config", str(reverse), "--model", str(tmp_path / "model.json")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(names) in err and str(names[::-1]) in err

    @pytest.mark.parametrize("command", ["validate", "uq"])
    def test_model_with_repeated_outputs_is_format_error(self, tmp_path, capsys, command):
        config = write_config(tmp_path)
        main(["build", "--config", str(config)])
        model = tmp_path / "model.json"
        doc = json.loads(model.read_text())
        doc["output_names"] = ["cumulative_gas", "cumulative_gas"]
        model.write_text(json.dumps(doc))
        assert main([command, "--config", str(config)]) == 4
        assert "unique" in capsys.readouterr().err


class TestCsvArtifacts:
    def test_every_row_is_as_wide_as_its_header(self, tmp_path):
        name = 'gas, "cumulative" 5%s'
        config = write_config(tmp_path, outputs=[name, "peak_gas"])
        for command in ("build", "validate", "uq"):
            assert main([command, "--config", str(config)]) == 0
        for artifact in ("validate.csv", "scatter.csv", "cdf.csv", "hist.csv"):
            with open(tmp_path / "report" / artifact, encoding="utf-8", newline="") as handle:
                rows = list(csv.reader(line for line in handle if not line.startswith("#")))
            assert len(rows) > 1, artifact
            assert {len(row) for row in rows} == {len(rows[0])}, artifact
            assert any(name in cell for cell in rows[0] + rows[1]), artifact


class TestUq:
    def test_summary_and_distributions(self, tmp_path):
        config = write_config(tmp_path)
        main(["build", "--config", str(config)])
        assert main(["uq", "--config", str(config)]) == 0
        summary = (tmp_path / "report" / "uq_summary.txt").read_text()
        assert "Mean" in summary and "Analytic" in summary
        assert "50th percentile" in summary and "Empirical" in summary
        assert "Sample maximum" in summary
        cdf = read_data_lines(tmp_path / "report" / "cdf.csv")
        assert len(cdf) == 1 + 40
        hist = read_data_lines(tmp_path / "report" / "hist.csv")
        assert len(hist) == 1 + 8 * 2

    def test_cdf_holds_the_design_evaluated_where_drawn(self, tmp_path):
        config = write_config(tmp_path)
        main(["build", "--config", str(config)])
        assert main(["uq", "--config", str(config)]) == 0
        model = surrogate.load(tmp_path / "model.json")
        design = latin_hypercube(40, 4, 1, 11).points
        values = np.sort(model.evaluate_scaled(design), axis=0)
        rows = read_data_lines(tmp_path / "report" / "cdf.csv")[1:]
        cdf = np.array([[float(cell) for cell in row.split(",")] for row in rows])
        assert cdf[:, [0, 2]].tobytes() == values.tobytes()
        # within 1e-12 of the values through physical units and back
        round_trip = np.sort(model.evaluate_batch(unscale_points(design, model.inputs)), axis=0)
        assert np.all(np.abs(values - round_trip) <= 1e-12 * np.abs(round_trip))

    def test_sample_override(self, tmp_path):
        config = write_config(tmp_path)
        main(["build", "--config", str(config)])
        assert main(["uq", "--config", str(config), "--samples", "64"]) == 0
        cdf = read_data_lines(tmp_path / "report" / "cdf.csv")
        assert len(cdf) == 1 + 64

    def test_failed_row_formatting_process_is_io_error(self, tmp_path, capsys, monkeypatch):
        # A forked process formatting part of cdf.csv fails: exit 4, no
        # traceback, and no child left behind.
        config = write_config(tmp_path)
        main(["build", "--config", str(config)])
        monkeypatch.setattr(sampling, "CSV_BLOCK_ROWS", 8)
        monkeypatch.setattr(sampling, "SHARE_MIN_BLOCKS", 2)
        monkeypatch.setattr(sampling, "_usable_cpus", lambda: 2)
        parent, write_blocks = os.getpid(), sampling._write_blocks

        def failing_in_children(handle, count, format_block):
            def format_or_fail(start, stop):
                if os.getpid() != parent:
                    raise RuntimeError("formatting failed in a child")
                return format_block(start, stop)
            write_blocks(handle, count, format_or_fail)

        monkeypatch.setattr(sampling, "_write_blocks", failing_in_children)
        capsys.readouterr()
        assert main(["uq", "--config", str(config)]) == 4
        err = capsys.readouterr().err
        assert "formatting process failed" in err and "Traceback" not in err
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("group", [False, True], ids=["process", "group"])
    def test_interrupt_exits_130_and_leaves_no_partial_file(self, tmp_path, group):
        # SIGINT, to the process or (as Ctrl-C sends it) its whole group,
        # once cdf.csv is being written: exit 130, no traceback, no partial
        # or temporary file, no child left.
        config = write_config(tmp_path)
        main(["build", "--config", str(config)])
        report = tmp_path / "report"
        proc = subprocess.Popen(
            [sys.executable, "-m", "pcekit.cli", "uq", "--config", str(config),
             "--samples", "1000000"],
            env={**os.environ, "PYTHONPATH": SRC}, stderr=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        try:
            deadline = time.monotonic() + 60
            while not any(report.glob(".cdf.csv.*")) and time.monotonic() < deadline:
                assert proc.poll() is None
                time.sleep(0.01)
            (os.killpg if group else os.kill)(proc.pid, signal.SIGINT)
            err = proc.communicate(timeout=60)[1]
        finally:
            proc.kill()
        assert proc.returncode == 130
        assert "error: interrupted" in err and "Traceback" not in err
        assert {path.name for path in report.iterdir()} == {"run.log", "uq_summary.txt"}
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)

    def test_sample_override_above_the_point_cap_is_config_error(self, tmp_path, capsys):
        config = write_config(tmp_path)
        main(["build", "--config", str(config)])
        argv = ["uq", "--config", str(config), "--samples", str(POINT_COUNT_CAP + 1)]
        assert main(argv) == 2
        assert "samples" in capsys.readouterr().err
        assert not (tmp_path / "report" / "cdf.csv").exists()

    def test_constant_model_degenerates_gracefully(self, tmp_path):
        config = write_config(
            tmp_path,
            model={"kind": "builtin", "name": "constant", "parameters": {"values": [2.5, 2.5]}},
        )
        main(["build", "--config", str(config)])
        assert main(["uq", "--config", str(config)]) == 0
        summary = (tmp_path / "report" / "uq_summary.txt").read_text()
        assert "Standard deviation" in summary


class TestSobolCommand:
    def test_report_files(self, tmp_path):
        config = write_config(tmp_path)
        main(["build", "--config", str(config)])
        assert main(["sobol", "--config", str(config)]) == 0
        doc = json.loads((tmp_path / "report" / "sobol.json").read_text())
        assert doc["schema"] == "pcekit/sobol-report"
        assert len(doc["indices"]) == 4 + 6
        assert len(doc["totals"]) == 4
        assert "config_hash" in doc
        text = (tmp_path / "report" / "sobol.txt").read_text()
        assert "Main effect indices" in text

    def test_max_subset_size_flag(self, tmp_path):
        config = write_config(tmp_path)
        main(["build", "--config", str(config)])
        main(["sobol", "--config", str(config), "--max-subset-size", "1"])
        doc = json.loads((tmp_path / "report" / "sobol.json").read_text())
        assert len(doc["indices"]) == 4

    def test_zero_variance_exit_code(self, tmp_path):
        config = write_config(
            tmp_path,
            model={"kind": "builtin", "name": "constant", "parameters": {"values": [1.0, 1.0]}},
        )
        main(["build", "--config", str(config)])
        assert main(["sobol", "--config", str(config)]) == 3

    @pytest.mark.parametrize("edit", ["zero-key-last", "repeated-index"])
    def test_out_of_order_model_file_exit_code(self, tmp_path, capsys, edit):
        config = write_config(tmp_path)
        main(["build", "--config", str(config)])
        path = tmp_path / "model.json"
        doc = json.loads(path.read_text())
        keys = list(doc["coefficients"])
        if edit == "zero-key-last":
            keys.append(keys.pop(0))
            doc["coefficients"] = {key: doc["coefficients"][key] for key in keys}
        else:
            # "0,0,0,01" parses to (0, 0, 0, 1), already present as "0,0,0,1"
            doc["coefficients"] = {
                ("0,0,0,01" if key == "0,0,0,2" else key): values
                for key, values in doc["coefficients"].items()
            }
        path.write_text(json.dumps(doc, indent=2))
        capsys.readouterr()
        assert main(["sobol", "--config", str(config)]) == 4
        assert "graded-lex order" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["1e300", "1e308"])
    @pytest.mark.parametrize("command", ["validate", "uq", "sobol"])
    def test_model_past_the_float_range_exits_3(self, tmp_path, command, value):
        # A coefficient row of 1e300 squares past the float range in the
        # variance and the metrics; at 1e308 the samples span past it too.  A
        # subprocess, so that a numpy warning would show on stderr.
        config = write_config(tmp_path, validation={"lhs_strata": 10, "lhs_repeats": 5, "seed": 1})
        assert main(["build", "--config", str(config)]) == 0
        path = tmp_path / "model.json"
        doc = json.loads(path.read_text())
        doc["coefficients"][list(doc["coefficients"])[1]] = [value, value]
        path.write_text(json.dumps(doc, indent=2))
        proc = subprocess.run(
            [sys.executable, "-m", "pcekit.cli", command, "--config", str(config)],
            env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 3
        assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: ")
        assert [p.name for p in (tmp_path / "report").iterdir()] == ["run.log"]  # the build's


    @pytest.mark.parametrize("value", ['"1e400"', '"inf"', '"nan"', "1e999"])
    def test_model_with_a_non_finite_coefficient_exits_4(self, tmp_path, capsys, value):
        # Refused when the model loads, naming the entry, before any command runs.
        config = write_config(tmp_path)
        assert main(["build", "--config", str(config)]) == 0
        path = tmp_path / "model.json"
        doc = json.loads(path.read_text())
        key = list(doc["coefficients"])[1]
        doc["coefficients"][key][0] = "VALUE"
        path.write_text(json.dumps(doc, indent=2).replace('"VALUE"', value))
        capsys.readouterr()
        for command in ("validate", "uq", "sobol"):
            assert main([command, "--config", str(config)]) == 4
            err = capsys.readouterr().err
            assert err.splitlines() == [
                f"error: malformed model coefficients: entry {key!r} holds a value that is not finite"
            ]


class TestGridCommand:
    def test_sparse_export_row_count(self, tmp_path):
        out = tmp_path / "grid.csv"
        assert main(["grid", "--dim", "4", "--sparse", "5", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 1105

    def test_trivial_grid_to_stdout(self, capsys):
        assert main(["grid", "--dim", "1", "--full", "0"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == ["x1,weight", "0,2"]

    def test_bad_level_is_config_error(self, capsys):
        assert main(["grid", "--dim", "2", "--sparse", "9"]) == 2

    def test_wide_order_zero_grid(self, capsys):
        # one point with 33 coordinates (np.meshgrid takes at most 32 arrays)
        assert main(["grid", "--dim", "33", "--full", "0"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1:] == [",".join(["0"] * 33 + [str(2**33)])]

    @pytest.mark.parametrize("family, size", [("sparse", "1"), ("full", "0")])
    def test_weights_past_the_float_range_exit_2(self, family, size):
        # in 1100 dimensions the tensor weights reach 2^1100; a subprocess,
        # so that a numpy warning would show on stderr
        proc = subprocess.run(
            [sys.executable, "-m", "pcekit.cli", "grid", "--dim", "1100", f"--{family}", size],
            env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.splitlines() == [
            f"error: {family} grid weights pass the float range in dimension 1100"
        ]

    def test_wide_order_zero_build(self, tmp_path):
        names = [f"x{j}" for j in range(33)]
        config = write_config(
            tmp_path,
            model={"kind": "builtin", "name": "constant", "parameters": {"values": [1.5]}},
            inputs=[{"name": name, "min": 0.0, "max": 1.0} for name in names],
            outputs=["y"], method={"type": "full-grid", "order": 0},
        )
        assert main(["build", "--config", str(config)]) == 0
        assert "evaluations=1" in (tmp_path / "report" / "run.log").read_text()
        assert surrogate.load(tmp_path / "model.json").coefficients.tolist() == [[1.5]]


def without_thread_vars(**extra):
    """This process's environment without the thread variables, with extra
    and with the package on the path."""
    env = {k: v for k, v in os.environ.items() if k not in cli.THREAD_ENV_VARS}
    return {**env, "PYTHONPATH": SRC, **extra}


class TestThreads:
    def test_importing_the_cli_sets_one_blas_thread_until_main_loads_numpy(self, tmp_path):
        code = (
            "import json, os, sys, pcekit.cli as cli\n"
            "seen = lambda: [os.environ.get(name) for name in cli.THREAD_ENV_VARS]\n"
            "before = seen()\n"
            "cli.main(['grid', '--dim', '1', '--full', '1', '--out', sys.argv[1]])\n"
            "print(json.dumps([before, seen()]))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path / "grid.csv")],
            env=without_thread_vars(MKL_NUM_THREADS="3"), check=True, capture_output=True,
            text=True,
        ).stdout
        # set where unset before numpy loads; as it was once main has loaded it
        assert json.loads(out.splitlines()[-1]) == [["1", "1", "3"], [None, None, "3"]]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_solver_launches_get_the_environment_as_given(self, tmp_path, workers):
        # The solver echoes the thread variables it sees; -1 for unset.
        spec = thread_echo(tmp_path)
        config = write_config(
            tmp_path,
            model={"kind": "external", "command": list(spec.command)},
            inputs=[{"name": name, "min": 0.0, "max": 1.0} for name in spec.input_names],
            outputs=list(spec.output_names),
        )
        subprocess.run(
            [sys.executable, "-m", "pcekit.cli", "build", "--config", str(config),
             "--workers", str(workers)],
            env=without_thread_vars(), check=True, capture_output=True,
        )
        share = -1.0 if workers == 1 else float(max(1, usable_cores() // 2))
        seen = EvaluationCache(tmp_path / "cache.jsonl")._index.values()
        assert {tuple(row) for _, values in seen for row in values.tolist()} == {(share,) * 3}


# Calls cli.run() with stdout's flush wrapped to send SIGINT to this very
# process first: a Ctrl-C that lands once the command's work is done.
SIGINT_AT_FLUSH = """
import os, signal, sys
import pcekit.cli as cli
flush = sys.stdout.flush
def interrupting_flush():
    os.kill(os.getpid(), signal.SIGINT)
    flush()
sys.stdout.flush = interrupting_flush
cli.run()
"""

# uq whose evaluation is interrupted by a SIGINT to the whole process group,
# as Ctrl-C sends it, while the helper formats cdf.csv's probability column.
SIGINT_WHILE_EVALUATING = """
import os, signal, time
import pcekit.cli as cli
from pcekit import surrogate
def evaluate(self, points):
    os.killpg(0, signal.SIGINT)
    time.sleep(60)
surrogate.PceModel.evaluate_scaled = evaluate
cli.run()
"""


class BrokenPipe(io.TextIOBase):
    """A stream whose reader has gone: every write raises."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


# An external solver of two inputs: their sum and their product.
SUM_AND_PRODUCT = (
    "import csv, sys\n"
    "rows = list(csv.reader(open(sys.argv[1])))[1:]\n"
    "print('y1,y2')\n"
    "for r in rows:\n"
    "    print(f'{float(r[0]) + float(r[1])!r},{float(r[0]) * float(r[1])!r}')\n"
)


class TestProcessEnd:
    """run() ends the process without interpreter teardown, which is only
    safe while teardown would have nothing left to do."""

    @pytest.mark.parametrize("command, unbuffered", [
        ("sobol", False), ("sobol", True), ("grid", False), ("grid", True), ("help", False),
        ("help", True), ("version", False), ("version", True), ("build-help", False),
        ("build-help", True),
    ])
    def test_closed_stdout_exits_4(self, tmp_path, command, unbuffered):
        # sobol's few lines and argparse's texts fail only at run()'s flush
        # when stdout is buffered, and inside main when it is not; grid's
        # many rows fail inside main either way.
        config = write_config(tmp_path)
        main(["build", "--config", str(config)])
        argv = {"sobol": ["sobol", "--config", str(config)],
                "grid": ["grid", "--dim", "4", "--full", "10"], "help": ["--help"],
                "version": ["--version"], "build-help": ["build", "--help"]}[command]
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pcekit.cli", *argv], env={**env, "PYTHONPATH": SRC},
                stdout=write, stderr=subprocess.PIPE, text=True, timeout=120,
            )
        finally:
            os.close(write)
        assert proc.returncode == 4
        assert proc.stderr.splitlines() == ["error: [Errno 32] Broken pipe"]

    def test_usage_error_with_closed_stderr_exits_2(self):
        # only stdout writes raise: a usage error has nowhere to go, and keeps 2
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pcekit.cli", "build"], stdout=subprocess.PIPE,
                stderr=write, env={**os.environ, "PYTHONPATH": SRC}, timeout=120,
            )
        finally:
            os.close(write)
        assert proc.returncode == 2 and proc.stdout == b""

    @pytest.mark.parametrize("argv, code", [
        (["grid", "--dim", "0", "--full", "1"], 2), (["build", "--config", "missing.json"], 4),
    ], ids=["config-error", "io-error"])
    def test_error_with_closed_stderr_keeps_the_exit_code(self, tmp_path, argv, code):
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pcekit.cli", *argv], stdout=subprocess.PIPE,
                stderr=write, env={**os.environ, "PYTHONPATH": SRC}, cwd=tmp_path, timeout=120,
            )
        finally:
            os.close(write)
        assert proc.returncode == code and proc.stdout == b""

    @pytest.mark.parametrize("error, code", [
        (ConfigurationError("bad"), 2), (EvaluationError("bad"), 3), (OSError("bad"), 4),
        (KeyboardInterrupt(), 130),
    ], ids=["config", "evaluation", "io", "interrupt"])
    def test_every_error_line_that_stderr_refuses_keeps_the_exit_code(
        self, monkeypatch, error, code
    ):
        def fail(args):
            raise error

        monkeypatch.setattr(cli, "cmd_grid", fail)
        monkeypatch.setattr(sys, "stderr", BrokenPipe())
        assert main(["grid", "--dim", "1", "--full", "1"]) == code

    @pytest.mark.parametrize("error, code", [(None, 0), (EvaluationError("diverged"), 3),
                                             (KeyboardInterrupt(), 130)],
                             ids=["success", "evaluation-error", "interrupt"])
    def test_large_uq_leaves_no_process_thread_or_spool(self, tmp_path, monkeypatch, error, code):
        # The helper that formats cdf.csv's probability column is forked
        # before the model is loaded, and one share child once the samples
        # are sorted; a failure in between kills and reaps the helper.
        config = write_config(tmp_path)
        main(["build", "--config", str(config)])
        temp = tmp_path / "tmp"
        temp.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(temp))
        monkeypatch.setattr(sampling, "_usable_cpus", lambda: 2)
        forks, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        if error is not None:
            def evaluate(self, points):
                time.sleep(0.05)  # the helper is still formatting
                raise error

            monkeypatch.setattr(surrogate.PceModel, "evaluate_scaled", evaluate)
        assert main(["uq", "--config", str(config), "--samples", "200000"]) == code
        assert len(forks) == (2 if error is None else 1)
        assert threading.active_count() == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert list(temp.iterdir()) == []
        reports = {path.name for path in (tmp_path / "report").iterdir()}
        written = {"uq_summary.txt", "cdf.csv", "hist.csv"} if error is None else set()
        assert reports == {"run.log"} | written

    def test_sigint_to_the_group_while_evaluating_leaves_no_process(self, tmp_path):
        config = write_config(tmp_path)
        main(["build", "--config", str(config)])
        proc = subprocess.Popen(
            [sys.executable, "-c", SIGINT_WHILE_EVALUATING, "uq", "--config", str(config),
             "--samples", "200000"],
            env={**os.environ, "PYTHONPATH": SRC}, stderr=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        try:
            err = proc.communicate(timeout=60)[1]
        finally:
            proc.kill()
        assert proc.returncode == 130
        assert err.splitlines() == ["error: interrupted"]
        assert {path.name for path in (tmp_path / "report").iterdir()} == {"run.log"}
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)

    def test_interrupt_after_main_returns_keeps_the_exit_code(self, tmp_path):
        config = write_config(tmp_path)
        main(["build", "--config", str(config)])
        proc = subprocess.run(
            [sys.executable, "-c", SIGINT_AT_FLUSH, "uq", "--config", str(config),
             "--samples", "5000"],
            env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == "" and "uq summary over 5000" in proc.stdout
        report = tmp_path / "report"
        names = {"run.log", "uq_summary.txt", "cdf.csv", "hist.csv"}
        assert {path.name for path in report.iterdir()} == names
        assert len(read_data_lines(report / "cdf.csv")) == 1 + 5000
        assert read_data_lines(report / "run.log")[-1].startswith("uq samples=5000 ")

    def test_teardown_would_have_nothing_to_do(self, tmp_path, monkeypatch):
        # After main returns from each command: no thread but this one, no
        # child left to reap, no batch or temporary file, no atexit handler.
        solver = tmp_path / "solver.py"
        solver.write_text(SUM_AND_PRODUCT)
        config = write_config(
            tmp_path,
            model={"kind": "external", "command": [sys.executable, str(solver)]},
            inputs=[{"name": "a", "min": 0.0, "max": 1.0}, {"name": "b", "min": 0.0, "max": 1.0}],
            outputs=["y1", "y2"],
        )
        temp = tmp_path / "tmp"
        temp.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(temp))
        monkeypatch.setattr(atexit, "register", mock.Mock(side_effect=AssertionError))
        # uq's 200000-row tables are formatted by forked writers on any CPU count
        monkeypatch.setattr(sampling, "_usable_cpus", lambda: 2)
        forks, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        for argv in (["build", "--workers", "2"], ["validate", "--workers", "2"],
                     ["uq", "--samples", "200000"]):
            code = main([*argv, "--config", str(config)])
            assert type(code) is int and code == 0  # and this process goes on
            assert threading.active_count() == 1
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)
            assert list(temp.iterdir()) == []
            assert list(tmp_path.rglob(".*.tmp")) == []
        assert forks and atexit.register.call_count == 0

    def test_console_script_is_run(self):
        pyproject = Path(SRC).parent / "pyproject.toml"
        targets = re.findall(r'^pcekit\s*=\s*"([\w.]+):(\w+)"', pyproject.read_text(), re.M)
        assert targets == [("pcekit.cli", "run")]
        assert callable(cli.run)


class TestCacheCommand:
    def test_verify_pristine(self, tmp_path, capsys):
        config = write_config(tmp_path)
        main(["build", "--config", str(config)])
        assert main(["cache", "verify", "--config", str(config)]) == 0
        out = capsys.readouterr().out
        assert "81 valid lines, 0 corrupt lines" in out

    @pytest.mark.parametrize("where", ["appended", "middle"])
    def test_line_that_is_not_utf8_is_one_corrupt_line(self, tmp_path, capsys, where):
        config = write_config(tmp_path)
        assert main(["build", "--config", str(config)]) == 0
        cache = tmp_path / "cache.jsonl"
        lines = cache.read_bytes().splitlines(keepends=True)
        if where == "appended":
            lines.append(b"\xff\xfe")
        else:
            lines.insert(40, b'{"fingerprint":"\xff\xfe"}\n')
        cache.write_bytes(b"".join(lines))
        assert main(["build", "--config", str(config)]) == 0
        log = (tmp_path / "report" / "run.log").read_text().splitlines()
        assert "cache_hits=81 cache_misses=0" in log[-1]
        capsys.readouterr()
        assert main(["cache", "verify", "--config", str(config)]) == 0
        assert "81 valid lines, 1 corrupt lines" in capsys.readouterr().out

    def test_stats(self, tmp_path, capsys):
        config = write_config(tmp_path)
        main(["build", "--config", str(config)])
        assert main(["cache", "stats", "--path", str(tmp_path / "cache.jsonl")]) == 0
        assert "81 entries" in capsys.readouterr().out

    def test_needs_a_path(self, capsys):
        assert main(["cache", "stats"]) == 2

    @pytest.mark.parametrize("action, path", [("verify", "."), ("stats", "/")])
    def test_a_path_without_a_file_name_is_a_config_error(self, capsys, action, path):
        assert main(["cache", action, "--path", path]) == 2
        assert capsys.readouterr().err.strip().endswith(f"cache path {path!r} names no file")

    def test_an_environment_path_without_a_file_name_is_a_config_error(
        self, tmp_path, capsys, monkeypatch
    ):
        config = write_config(tmp_path)
        monkeypatch.setenv("PCEKIT_CACHE", "/")
        assert main(["build", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "cache path '/' names no file" in err
        assert not (tmp_path / "model.json").exists()


class TestReproducibility:
    def test_repeated_runs_are_byte_identical(self, tmp_path):
        config = write_config(tmp_path)
        artifacts = [
            tmp_path / "model.json",
            tmp_path / "report" / "run.log",
            tmp_path / "report" / "validate.csv",
            tmp_path / "report" / "scatter.csv",
            tmp_path / "report" / "sobol.json",
            tmp_path / "report" / "sobol.txt",
        ]

        def run_triple():
            assert main(["build", "--config", str(config), "--reproducible"]) == 0
            assert main(["validate", "--config", str(config), "--reproducible"]) == 0
            assert main(["sobol", "--config", str(config)]) == 0
            snapshot = {p: p.read_bytes() for p in artifacts}
            for p in artifacts:
                p.unlink()
            return snapshot

        first = run_triple()   # cold cache
        second = run_triple()  # warm cache
        assert first == second

    def test_parallel_external_build_is_byte_identical_but_cache_order(self, tmp_path):
        # Each launch's chunk is committed as it returns, so the cache holds
        # the same lines in either order; the model file is byte-identical.
        solver = tmp_path / "solver.py"
        solver.write_text(SUM_AND_PRODUCT)
        config = write_config(
            tmp_path,
            model={"kind": "external", "command": [sys.executable, str(solver)]},
            inputs=[{"name": "a", "min": 0.0, "max": 1.0}, {"name": "b", "min": 0.0, "max": 1.0}],
            outputs=["y1", "y2"],
        )

        def cold_build():
            argv = ["build", "--config", str(config), "--workers", "2", "--reproducible"]
            assert main(argv) == 0
            model, cache = tmp_path / "model.json", tmp_path / "cache.jsonl"
            snapshot = model.read_bytes(), sorted(cache.read_text().splitlines())
            model.unlink()
            cache.unlink()
            return snapshot

        first = cold_build()
        assert len(first[1]) == 9
        assert cold_build() == first


SRC = str(Path(blackbox.__file__).resolve().parents[1])

# Runs one command in a fresh interpreter and writes the modules it loaded
# beyond numpy and argparse to the file named by argv[1].
LOADED_MODULES = """
import json, sys
import argparse, numpy
baseline = set(sys.modules)
from pcekit.cli import main
code = main(sys.argv[2:])
with open(sys.argv[1], "w") as handle:
    json.dump({"code": code, "loaded": sorted(set(sys.modules) - baseline)}, handle)
"""

LAUNCH_ONLY = {"subprocess", "concurrent.futures", "signal", "csv", "logging"}


def loaded_modules(tmp_path, *argv):
    record = tmp_path / "modules.json"
    env = {**os.environ, "PYTHONPATH": SRC}
    subprocess.run(
        [sys.executable, "-c", LOADED_MODULES, str(record), *argv],
        env=env, check=True, capture_output=True, timeout=120,
    )
    result = json.loads(record.read_text())
    assert result["code"] == 0
    return set(result["loaded"])


class TestStartup:
    def test_commands_on_a_builtin_model_load_only_what_they_run(self, tmp_path):
        config = str(write_config(tmp_path))
        build = loaded_modules(tmp_path, "build", "--config", config)
        uq = loaded_modules(tmp_path, "uq", "--config", config)
        sobol = loaded_modules(tmp_path, "sobol", "--config", config)
        for loaded in (build, uq, sobol):
            assert loaded & LAUNCH_ONLY == set()
        assert "pcekit.surrogate" in sobol and "pcekit.sobol" in sobol
        assert {"pcekit.sampling", "pcekit.quadrature"} & sobol == set()
        assert "pcekit.sobol" not in build and "pcekit.sampling" not in build
        # the config checks builtin names without the module that evaluates models
        assert "pcekit.blackbox" not in uq and "pcekit.blackbox" not in sobol
        # below the size whose tables are split into shares, uq forks no
        # helper and loads nothing for one: only forking adds a module
        shared = loaded_modules(tmp_path, "uq", "--config", config, "--samples", "70000")
        assert shared - uq <= {"signal"}
        assert "pcekit.blackbox" in build
        # np.percentile loads numpy.ma on numpy 2; numpy 1 loads it with numpy
        code = "import sys, numpy; print('numpy.ma' in sys.modules)"
        bare = subprocess.run(
            [sys.executable, "-c", code], check=True, capture_output=True, text=True
        )
        if bare.stdout.strip() == "False":
            assert "numpy.ma" not in uq

    def test_package_import_loads_no_submodule(self, tmp_path):
        code = "import sys, pcekit; print(sorted(m for m in sys.modules if 'pcekit' in m))"
        env = {**os.environ, "PYTHONPATH": SRC}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True
        ).stdout
        assert out.strip() == "['pcekit']"

    def test_every_public_name_resolves(self):
        import pcekit

        namespace = {}
        exec("from pcekit import *", namespace)
        assert sorted(set(namespace) - {"__builtins__"}) == pcekit.__all__
        for name in pcekit.__all__:
            module = importlib.import_module(f"pcekit.{pcekit._EXPORTS[name]}")
            assert namespace[name] is getattr(module, name) is getattr(pcekit, name)
        with pytest.raises(AttributeError):
            pcekit.evaluate_batch

    def test_dir_lists_the_public_names_and_submodules(self):
        # The public names, the submodules and the module attributes, before
        # anything but the package itself is imported.
        expected = {
            "__all__", "__builtins__", "__cached__", "__doc__", "__file__", "__loader__",
            "__name__", "__package__", "__path__", "__spec__", "__version__",
            "blackbox", "errors", "multiindex", "polybasis", "quadrature", "sampling",
            "sobol", "surrogate",
        }
        code = "import json, pcekit; print(json.dumps(dir(pcekit)))"
        env = {**os.environ, "PYTHONPATH": SRC}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True
        ).stdout
        import pcekit

        assert json.loads(out) == sorted(expected | set(pcekit.__all__))


def node_paths(node, path=()):
    """Key paths of every value in a JSON document below its root."""
    if path:
        yield path
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from node_paths(child, path + (key,))


def full_doc():
    """base_doc with the optional values it leaves out written in."""
    doc = base_doc()
    doc["report"]["percentiles"] = [10, 50, 90]
    doc["model"]["parameters"] = {}
    return doc


def saved_model_doc():
    """base_doc's model built on a sparse grid of level 1 (five terms), as saved."""
    with tempfile.TemporaryDirectory() as tmp:
        config = write_config(Path(tmp), method={"type": "sparse-grid", "level": 1})
        assert main(["build", "--config", str(config), "--reproducible"]) == 0
        return json.loads((Path(tmp) / "model.json").read_text())


def assert_mutation_exits_by_contract(name, doc, path, value, *commands):
    """Write base_doc's config and, beside it as `name`, `doc` with the node at
    `path` replaced by `value`; each command on that config exits 0, 2, 3 or
    4, never raises, and launches no external solver."""
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
        blackbox, "_launch_external", side_effect=AssertionError("external launch")
    ):
        config = write_config(Path(tmp))
        (Path(tmp) / name).write_text(json.dumps(doc))
        for command in commands:
            assert main([command, "--config", str(config)]) in {0, 2, 3, 4}, command


MUTATION_PATHS = list(node_paths(full_doc()))
MODEL_DOC = saved_model_doc()
MODEL_MUTATION_PATHS = list(node_paths(MODEL_DOC))
# The strings include other valid values of the enumerated fields of both
# documents; with the builtin's keys in place, "external" cannot reach a launch.
MUTATION_VALUES = st.one_of(
    st.booleans(),
    st.sampled_from(
        ["", "x", "external", "builtin", "sparse-grid", "stdin", "constant", "tensor-product"]
    ),
    st.none(),
    st.lists(st.integers(-2, 3), max_size=2),
    st.just([True]),
    st.integers(-(10**6), -1),
    st.floats(-1e6, 1e6).filter(lambda v: not v.is_integer()),
)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(MUTATION_PATHS), MUTATION_VALUES)
def test_mutated_config_exits_by_contract(path, value):
    # One value of a valid config (a leaf or a whole section) replaced by a
    # value of another type or out of range: build finishes or exits 2, 3
    # or 4, and never raises.
    assert_mutation_exits_by_contract("run.json", full_doc(), path, value, "build")


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(MODEL_MUTATION_PATHS), MUTATION_VALUES)
def test_mutated_model_exits_by_contract(path, value):
    # The same for one value of a saved model, read by every command that
    # loads a model.
    assert_mutation_exits_by_contract(
        "model.json", MODEL_DOC, path, value, "sobol", "uq", "validate"
    )
