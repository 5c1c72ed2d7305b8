"""pcekit benchmark: the CLI study sequence on three workloads.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A single-process, closed-loop driver runs one CLI command at a time as a
subprocess, each in a fresh interpreter with PYTHONPATH=src.  One pass of
the sequence is

    build (empty cache), build (warm cache), validate, uq, sobol,
    uq --samples LARGE, build (warm cache), uq, sobol

and passes repeat, each from an empty cache, until --seconds have been
spent.  The warm build, uq and sobol run twice: the first two are the
noisiest commands and the warm build has few samples on sparse8d-external.
Each repeat does identical work: the warm build finds every point cached
and writes the same model file, uq overwrites its own report and sobol
only reads the model.  External solver launches use --workers 2, so at most
two solver processes run at once (the machine has two cores).

After every command the driver runs perfbench/reference_task.py, a fixed
task of the same kind (a fresh interpreter, the numpy import, a Python
formatting loop, a small GEMM) that does not touch pcekit.  On a shared
host the speed of a core drifts by 20-40% for minutes at a time, and every
command of a run moves with it; the reference moves the same way.  Every
time is therefore scaled to one fixed machine speed:

    reported = measured * REFERENCE_S / (mean reference wall time of the run)

The raw wall times and the reference times are in the details line.

Workloads (the seed goes into validation.seed of each generated config,
and the program sees only that config):

* csg-full6: configs/csg_proxy.json as shipped.  The csg-proxy builtin,
  4 inputs, 2 outputs, full grid of order 6: 2401 evaluations and terms.
  This is the paper's study as a user runs it; surrogate evaluation takes
  the tensor GEMM path.  LARGE is 200,000 samples.
* csg-sparse5: the same config with a sparse grid of level 5: 1105
  evaluations, 126 terms.  The Smolyak grid and the gather evaluation path,
  with a tiny projection; the pair with csg-full6 is the paper's cost
  versus accuracy comparison.  LARGE is 200,000 samples.  BENCHMARK.json
  lists only the other two workloads, which between them cover every
  layer; this one runs when named.
* sparse8d-external: the 8-input borehole function served by
  perfbench/borehole_solver.py through the external argfile protocol,
  sparse grid of level 5: 15713 evaluations, 1287 terms, 92 Sobol'
  subsets.  Solver launches, cache appends and lookups, the dense
  projection basis and sparse-grid construction dominate.  LARGE is 20,000
  samples, because one million take over a minute on this surrogate.

LARGE is well below the paper's million points so that the large uq runs
in every pass: one 10-15 s run per run of the benchmark moved by 20-30%
from run to run.  CDF writing still dominates it on the csg workloads.

End-to-end metrics (--trace 0; times are the mean over passes, scaled as
above): setup_s (median of seven set-ups: run directory, config copy, solver
fixture, warm-up), build_cold_s, build_warm_s, validate_s, uq_s,
uq_large_s, sobol_s, peak_rss_mb (largest peak RSS of any command, from
os.wait4 of that command), model_evals (fresh evaluations in the cold
build, counted as cache records appended), rrmse_max (largest validation
rRMSE over outputs) and passed_share (commands that exit 0 and pass their
output checks, over commands attempted).

Per-layer metrics (--trace 1) come from perfbench/traced_cli.py, which
runs each command in-process, once untraced and, right after it in a
second run directory, once with spans around the public functions of every
pcekit module, plus one tracemalloc pass for allocation peaks.  Times are self times summed over one pass of the
sequence; counts are totals over one pass unless the name ends in a
command label.  Each is the median over traced passes.  The end-to-end
metric each should move, and where it is large:

    cli.import_s, config.load_s        every command; sobol_s, uq_s
    cli.self_s                         validate_s, uq_s (scatter.csv, uq_summary)
    cli.rss_mb.<command>               peak_rss_mb
    quadrature.grid_s, .points         build_*; large on sparse8d-external
    multiindex.enumerate_s, .terms     build_*; small everywhere (regression guard)
    polybasis.table_s                  build_*, uq_large_s
    blackbox.model_s, .launches        build_cold_s, validate_s
    blackbox.fresh/cached_evals,
      .cache_hit_ratio[.build_warm]    model_evals, build_warm_s (warm reads 1.0)
    blackbox.cache_load_s, _records    build_warm_s, validate_s; sparse8d-external
    blackbox.cache_store_s/_stores,
      .cache_lookup_s/_lookups         build_cold_s; sparse8d-external, csg-full6
    surrogate.project_s, _peak_mb      build_*, peak_rss_mb; ~0 on csg-sparse5
    surrogate.eval_s, _points(_per_s),
      _peak_mb                         uq_large_s, peak_rss_mb; tensor path on
                                       csg-full6, gather path elsewhere
    surrogate.save_s, .load_s          every command
    sampling.lhs_s, .distribution_s    validate_s, uq_large_s; csg workloads
    sampling.write_cdf_s, .cdf_bytes,
      .write_hist_s                    uq_large_s
    sobol.report_s, .subsets           sobol_s; 92 subsets on sparse8d-external
    trace.overhead_s/_share            traced minus untraced wall time
    trace.self_coverage                smallest sum of span self times over a
                                       command's traced wall time (about 1.0)

Output checks, each failing the command it belongs to: every command exits
0; the cold build makes exactly the grid's number of fresh evaluations and
appends that many cache records (and, for the external solver, evaluates
that many rows); the warm build makes none and writes a model file
byte-identical to the cold one (both --reproducible); rrmse_max is at or
below the workload's ceiling; the uq cdf.csv has one row per sample; the
Sobol' report has the expected subsets, every index in [0, 1] and every
total index at least its main effect.

The last line of standard output is the JSON result
{"correct", "attempted", "failed", "metrics"}; the line before it records
the workload, the per-command samples and the machine.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CSG_CONFIG = ROOT / "configs" / "csg_proxy.json"
RUNS_DIR = ROOT / ".bench_runs"
SOLVER = BENCH_DIR / "borehole_solver.py"
TRACED_CLI = BENCH_DIR / "traced_cli.py"
REFERENCE = BENCH_DIR / "reference_task.py"

STARTED = time.perf_counter()
# A run must end within 180 s: a command still running at RUN_BUDGET_S
# after start is killed and counts as failed.
RUN_BUDGET_S = 170.0
SETUPS = 7
# Mean wall time of reference_task.py on the 2-vCPU VM the bounds were tuned
# on (Python 3.11.7, numpy 2.4.6, OpenBLAS 0.3.31): the machine speed every
# reported time is scaled to.
REFERENCE_S = 0.16
# Tolerance for "index in [0, 1]" and "total >= main": the indices are
# ratios of sums of the same non-negative terms, computed in floating point.
SOBOL_TOLERANCE = 1e-12

BOREHOLE_INPUTS = [
    ("rw", 0.05, 0.15),
    ("r", 100.0, 50000.0),
    ("Tu", 63070.0, 115600.0),
    ("Hu", 990.0, 1110.0),
    ("Tl", 63.1, 116.0),
    ("Hl", 700.0, 820.0),
    ("L", 1120.0, 1680.0),
    ("Kw", 9855.0, 12045.0),
]


@dataclass(frozen=True)
class Workload:
    name: str
    grid_points: int
    subsets: int
    large_samples: int
    # Twice the seed code's rrmse_max at seed 2024 (1.16e-3, 8.43e-3 and
    # 7.5e-4): room for other validation designs, whose largest values over
    # 50 seeds stayed within 1.4x, not for a surrogate that lost accuracy.
    rrmse_ceiling: float
    # rRMSE over one 3000-point design moves by 8-20% (quartile spread over
    # median) from seed to seed, so rrmse_max averages the first `designs`
    # passes, each validated on its own design derived from the seed.
    designs: int
    external: bool = False
    sparse_level: int | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("csg-full6", grid_points=2401, subsets=10, large_samples=200_000,
                 rrmse_ceiling=2.32e-3, designs=6),
        Workload("csg-sparse5", grid_points=1105, subsets=10, large_samples=200_000,
                 rrmse_ceiling=1.686e-2, designs=6, sparse_level=5),
        Workload("sparse8d-external", grid_points=15713, subsets=92, large_samples=20_000,
                 rrmse_ceiling=1.5e-3, designs=3, external=True),
    )
}

COMMANDS = ("build_cold", "build_warm", "validate", "uq", "uq_large", "sobol")


class BenchError(Exception):
    """The checkout cannot be benchmarked; no result is printed."""


# ---------------------------------------------------------------- set-up


def make_config(workload: Workload, seed: int, run_dir: Path) -> dict:
    if workload.external:
        config = {
            "model": {
                "kind": "external",
                "command": [sys.executable, str(SOLVER), str(run_dir / "launches.txt")],
                "io_format": "argfile",
            },
            "inputs": [{"name": n, "min": lo, "max": hi} for n, lo, hi in BOREHOLE_INPUTS],
            "outputs": ["flow"],
            "method": {"type": "sparse-grid", "level": 5},
            "validation": {"lhs_strata": 10, "lhs_repeats": 300},
            "report": {"sobol_max_subset_size": 3, "uq_samples": 3000},
        }
    else:
        config = json.loads(CSG_CONFIG.read_text(encoding="utf-8"))
        if workload.sparse_level is not None:
            config["method"] = {"type": "sparse-grid", "level": workload.sparse_level}
    config["validation"]["seed"] = seed
    config["paths"] = {
        "cache": "cache.jsonl",
        "model_file": "model.json",
        "report_dir": "report",
    }
    return config


def design_seed(seed: int, pass_index: int) -> int:
    """Validation seed of a pass: the workload seed itself, then derived ones."""
    if pass_index == 0:
        return seed
    return int(hashlib.sha256(f"{seed}:{pass_index}".encode()).hexdigest()[:8], 16)


def write_config(workload: Workload, seed: int, run_dir: Path) -> None:
    (run_dir / "config.json").write_text(
        json.dumps(make_config(workload, seed, run_dir), indent=2), encoding="utf-8"
    )


def child_env(run_dir: Path) -> dict:
    env = dict(os.environ)
    # A shared cache would turn every cold build warm.
    env.pop("PCEKIT_CACHE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["TMPDIR"] = str(run_dir / "tmp")
    return env


@dataclass
class Child:
    wall_s: float
    exit_code: int
    rss_mb: float
    stdout: str


def kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_child(argv: list[str], run_dir: Path, env: dict) -> Child:
    """Run one process to completion; its own peak RSS comes from os.wait4."""
    out_path = run_dir / "stdout.txt"
    with open(out_path, "wb") as out, open(run_dir / "stderr.txt", "ab") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=run_dir, env=env, stdout=out, stderr=err, start_new_session=True
        )
        budget = max(0.0, RUN_BUDGET_S - (time.perf_counter() - STARTED))
        timer = threading.Timer(budget, kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall_s = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        wall_s, proc.returncode, usage.ru_maxrss / 1024.0, out_path.read_text(encoding="utf-8")
    )


def set_up(workload: Workload, seed: int, run_dir: Path) -> dict:
    """Run directory, config copy, solver fixture and warm-up."""
    (run_dir / "tmp").mkdir(parents=True)
    write_config(workload, seed, run_dir)
    env = child_env(run_dir)
    warm = run_child(
        [sys.executable, "-m", "pcekit.cli", "grid", "--dim", "2", "--sparse", "2",
         "--out", str(run_dir / "tmp" / "grid.csv")],
        run_dir, env,
    )
    if warm.exit_code != 0:
        raise BenchError(f"warm-up command failed with exit code {warm.exit_code}")
    if workload.external:
        (run_dir / "launches.txt").write_text("", encoding="utf-8")
        probe = run_dir / "tmp" / "probe.csv"
        probe.write_text(
            ",".join(n for n, _, _ in BOREHOLE_INPUTS) + "\n"
            + ",".join(repr(lo) for _, lo, _ in BOREHOLE_INPUTS) + "\n",
            encoding="utf-8",
        )
        solved = run_child(
            [sys.executable, str(SOLVER), str(run_dir / "tmp" / "probe_count.txt"), str(probe)],
            run_dir, env,
        )
        if solved.exit_code != 0 or not solved.stdout.startswith("flow\n"):
            raise BenchError("borehole solver fixture failed its warm-up launch")
    return env


def measure_set_up(workload: Workload, seed: int) -> tuple[Path, dict, list[float]]:
    """Set up SETUPS times; keep the last run directory."""
    times = []
    run_dir = env = None
    for i in range(SETUPS):
        if run_dir is not None:
            shutil.rmtree(run_dir)
        run_dir = RUNS_DIR / f"{workload.name}-{seed}-{os.getpid()}-{i}"
        started = time.perf_counter()
        env = set_up(workload, seed, run_dir)
        times.append(time.perf_counter() - started)
    return run_dir, env, times


# ---------------------------------------------------------------- commands


def command_args(workload: Workload, label: str) -> list[str]:
    workers = ["--workers", "2"] if workload.external else []
    return {
        "build_cold": ["build", *workers, "--reproducible"],
        "build_warm": ["build", *workers, "--reproducible"],
        "validate": ["validate", *workers, "--reproducible"],
        "uq": ["uq", "--reproducible"],
        "uq_large": ["uq", "--reproducible", "--samples", str(workload.large_samples)],
        "sobol": ["sobol"],
    }[label]


SEQUENCE = (
    "build_cold", "build_warm", "validate", "uq", "sobol", "uq_large", "build_warm", "uq", "sobol",
)


def reset_state(run_dir: Path) -> None:
    """Empty cache, no model, no report: the next build is cold."""
    for name in ("cache.jsonl", "model.json"):
        (run_dir / name).unlink(missing_ok=True)
    shutil.rmtree(run_dir / "report", ignore_errors=True)


def count_lines(path: Path) -> int:
    if not path.exists():
        return 0
    with open(path, "rb") as handle:
        return sum(chunk.count(b"\n") for chunk in iter(lambda: handle.read(1 << 20), b""))


def launched_rows(run_dir: Path) -> tuple[int, int]:
    """(launches, rows) recorded by the solver fixture so far."""
    path = run_dir / "launches.txt"
    if not path.exists():
        return 0, 0
    counts = [int(line) for line in path.read_text(encoding="utf-8").split()]
    return len(counts), sum(counts)


BUILD_LINE = re.compile(r"with (\d+) model evaluations \((\d+) cached\)")


class Checker:
    """Output checks of one pass; state carries from the cold build on."""

    def __init__(self, workload: Workload, run_dir: Path):
        self.workload = workload
        self.run_dir = run_dir
        self.cold_model: bytes | None = None
        self.model_evals: int | None = None
        self.rrmse_max: float | None = None

    def before(self) -> tuple[int, tuple[int, int]]:
        return count_lines(self.run_dir / "cache.jsonl"), launched_rows(self.run_dir)

    def check(self, label: str, child: Child, before) -> list[str]:
        if child.exit_code != 0:
            return [f"exit code {child.exit_code}"]
        check = getattr(self, f"_check_{label}")
        return check(child, before)

    def _build_counts(self, child: Child, before):
        match = BUILD_LINE.search(child.stdout)
        if match is None:
            return None
        evaluations, cached = int(match.group(1)), int(match.group(2))
        records = count_lines(self.run_dir / "cache.jsonl") - before[0]
        rows = launched_rows(self.run_dir)[1] - before[1][1]
        return evaluations, cached, records, rows

    def _check_build_cold(self, child: Child, before) -> list[str]:
        counts = self._build_counts(child, before)
        if counts is None:
            return ["build printed no evaluation count"]
        evaluations, cached, records, rows = counts
        expected = self.workload.grid_points
        errors = []
        if evaluations != expected or cached != 0 or records != expected:
            errors.append(
                f"cold build: {evaluations} evaluations, {cached} cached, "
                f"{records} cache records; wanted {expected} fresh"
            )
        if self.workload.external and rows != expected:
            errors.append(f"cold build: solver evaluated {rows} rows, wanted {expected}")
        self.model_evals = records
        self.cold_model = (self.run_dir / "model.json").read_bytes()
        return errors

    def _check_build_warm(self, child: Child, before) -> list[str]:
        counts = self._build_counts(child, before)
        if counts is None:
            return ["build printed no evaluation count"]
        evaluations, cached, records, rows = counts
        errors = []
        if cached != evaluations or records != 0 or rows != 0:
            errors.append(
                f"warm build: {evaluations - cached} fresh evaluations, {records} "
                f"cache records and {rows} solver rows, wanted none"
            )
        if (self.run_dir / "model.json").read_bytes() != self.cold_model:
            errors.append("warm build model file differs from the cold build's")
        return errors

    def _check_validate(self, child: Child, before) -> list[str]:
        lines = [
            line for line in
            (self.run_dir / "report" / "validate.csv").read_text(encoding="utf-8").splitlines()
            if not line.startswith("#")
        ]
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        values = [float(v) for k, v in row.items() if k.startswith("rrmse_")]
        self.rrmse_max = max(values)
        errors = []
        if not self.rrmse_max <= self.workload.rrmse_ceiling:
            errors.append(
                f"rrmse_max {self.rrmse_max} is above the ceiling {self.workload.rrmse_ceiling}"
            )
        if int(row["evaluations"]) != self.workload.grid_points:
            errors.append(f"validate.csv reports {row['evaluations']} evaluations")
        return errors

    def _check_cdf(self, samples: int) -> list[str]:
        path = self.run_dir / "report" / "cdf.csv"
        with open(path, "rb") as handle:
            comments = sum(1 for line in handle if line.startswith(b"#"))
        rows = count_lines(path) - comments - 1
        if rows != samples:
            return [f"cdf.csv has {rows} rows for {samples} samples"]
        return []

    def _check_uq(self, child: Child, before) -> list[str]:
        return self._check_cdf(3000)

    def _check_uq_large(self, child: Child, before) -> list[str]:
        return self._check_cdf(self.workload.large_samples)

    def _check_sobol(self, child: Child, before) -> list[str]:
        report = json.loads((self.run_dir / "report" / "sobol.json").read_text(encoding="utf-8"))
        errors = []
        if len(report["indices"]) != self.workload.subsets:
            errors.append(f"sobol: {len(report['indices'])} subsets, wanted {self.workload.subsets}")
        main = {}
        for entry in report["indices"]:
            for value in entry["values"].values():
                if not -SOBOL_TOLERANCE <= value <= 1.0 + SOBOL_TOLERANCE:
                    errors.append(f"sobol index {value} of {entry['variables']} is outside [0, 1]")
            if len(entry["variables"]) == 1:
                main[entry["variables"][0]] = entry["values"]
        for entry in report["totals"]:
            for output, value in entry["values"].items():
                if not -SOBOL_TOLERANCE <= value <= 1.0 + SOBOL_TOLERANCE:
                    errors.append(f"total index {value} of {entry['variable']} is outside [0, 1]")
                if value < main[entry["variable"]][output] - SOBOL_TOLERANCE:
                    errors.append(f"total index of {entry['variable']} is below its main effect")
        return errors


@dataclass
class Outcome:
    label: str
    child: Child
    errors: list[str]
    launches: int


def run_command(
    workload: Workload, label: str, argv_prefix: list[str], run_dir: Path, env: dict,
    checker: Checker,
) -> Outcome:
    argv = argv_prefix + command_args(workload, label) + ["--config", str(run_dir / "config.json")]
    before = checker.before()
    child = run_child(argv, run_dir, env)
    try:
        errors = checker.check(label, child, before)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        errors = [f"output check could not read the artifacts: {exc}"]
    return Outcome(label, child, errors, launched_rows(run_dir)[0] - before[1][0])


def run_reference(run_dir: Path, env: dict) -> float:
    """Wall time of one run of the reference task."""
    reference = run_child([sys.executable, str(REFERENCE)], run_dir, env)
    if reference.exit_code != 0:
        raise BenchError(f"reference task failed with exit code {reference.exit_code}")
    return reference.wall_s


def run_pass(
    workload, labels, argv_prefix, run_dir, env, references: list[float] | None = None,
) -> tuple[list[Outcome], Checker]:
    """One pass from an empty cache; with `references`, the reference task
    runs after every command and its wall times are appended there."""
    reset_state(run_dir)
    checker = Checker(workload, run_dir)
    outcomes = []
    for label in labels:
        outcomes.append(run_command(workload, label, argv_prefix, run_dir, env, checker))
        if references is not None:
            references.append(run_reference(run_dir, env))
    return outcomes, checker


def keep_going(started: float, seconds: float, pass_times: list[float]) -> bool:
    """Start another pass only if a typical pass still fits in --seconds."""
    elapsed = time.perf_counter() - started
    return elapsed + statistics.median(pass_times) <= seconds


def within_budget() -> bool:
    return time.perf_counter() - STARTED < RUN_BUDGET_S


# ---------------------------------------------------------------- end to end


def end_to_end(
    workload: Workload, seed: int, run_dir: Path, env: dict, seconds: float,
    setup_times: list[float],
):
    cli = [sys.executable, "-m", "pcekit.cli"]
    started = time.perf_counter()
    passes = []
    pass_times = []
    references = []
    while within_budget() and (
        len(passes) < workload.designs or keep_going(started, seconds, pass_times)
    ):
        write_config(workload, design_seed(seed, len(passes)), run_dir)
        pass_started = time.perf_counter()
        passes.append(run_pass(workload, SEQUENCE, cli, run_dir, env, references))
        pass_times.append(time.perf_counter() - pass_started)

    walls = {label: [] for label in COMMANDS}
    outcomes = [o for pass_outcomes, _ in passes for o in pass_outcomes]
    for o in outcomes:
        walls[o.label].append(o.child.wall_s)
    failed = sum(1 for o in outcomes if o.errors)
    checkers = [c for _, c in passes]
    # The mean, not the median: on a shared host a core can run at two speeds
    # for seconds at a time, and a median over a run jumps between the two
    # where the mean follows the share of time spent at each.
    speed = REFERENCE_S / statistics.fmean(references)
    metrics = {f"{label}_s": (statistics.fmean(v) * speed, "s") for label, v in walls.items()}
    metrics["setup_s"] = (statistics.median(setup_times) * speed, "s")
    metrics["peak_rss_mb"] = (max(o.child.rss_mb for o in outcomes), "MB")
    metrics["model_evals"] = (recorded(c.model_evals for c in checkers)[0], "count")
    metrics["rrmse_max"] = (
        statistics.fmean(recorded(c.rrmse_max for c in checkers[:workload.designs])), "1"
    )
    metrics["passed_share"] = ((len(outcomes) - failed) / len(outcomes), "1")
    details = {
        "passes": len(passes),
        "wall_s": walls,
        "reference_s": references,
        "speed": speed,
        "rss_mb": {label: [o.child.rss_mb for o in outcomes if o.label == label]
                   for label in COMMANDS},
        "errors": [f"{o.label}: {e}" for o in outcomes for e in o.errors],
    }
    return metrics, len(outcomes), failed, details


def recorded(values) -> list:
    """Values the passes recorded; a pass whose command failed records none.
    When no pass recorded one, [-1]: the run is failed already."""
    return [v for v in values if v is not None] or [-1]


# ---------------------------------------------------------------- traced

# Span name -> per-layer time metric; otherwise the module's default below.
SPAN_METRIC = {
    "config.load_config": "config.load_s",
    "blackbox.EvaluationCache.__init__": "blackbox.cache_load_s",
    "blackbox.EvaluationCache.lookup": "blackbox.cache_lookup_s",
    "blackbox.EvaluationCache.store": "blackbox.cache_store_s",
    "surrogate.build_pce": "surrogate.project_s",
    "surrogate.PceModel.evaluate_batch": "surrogate.eval_s",
    "surrogate.save": "surrogate.save_s",
    "surrogate.load": "surrogate.load_s",
    "sampling.latin_hypercube": "sampling.lhs_s",
    "sampling.write_cdf_csv": "sampling.write_cdf_s",
    "sampling.write_histogram_csv": "sampling.write_hist_s",
}
MODULE_METRIC = {
    "cli": "cli.self_s",
    "config": "config.load_s",
    "quadrature": "quadrature.grid_s",
    "multiindex": "multiindex.enumerate_s",
    "polybasis": "polybasis.table_s",
    "blackbox": "blackbox.model_s",
    "surrogate": "surrogate.other_s",
    "sampling": "sampling.distribution_s",
    "sobol": "sobol.report_s",
}
TIME_METRICS = sorted(set(SPAN_METRIC.values()) | set(MODULE_METRIC.values()))


def span_metric(name: str) -> str:
    return SPAN_METRIC.get(name) or MODULE_METRIC[name.split(".")[0]]


def traced_command(workload, label, mode, run_dir, env, checker) -> tuple[Outcome, dict]:
    """One command through traced_cli.py; returns its outcome and record."""
    record_path = run_dir / f"record-{mode}-{label}.json"
    prefix = [sys.executable, str(TRACED_CLI), "--mode", mode, "--out", str(record_path), "--"]
    outcome = run_command(workload, label, prefix, run_dir, env, checker)
    try:
        record = json.loads(record_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        outcome.errors.append("traced run wrote no record")
        record = {"import_s": 0.0, "wall_s": 0.0, "spans": [], "peaks_bytes": {}}
    return outcome, record


def traced_pair(workload, plain_dir, spans_dir, env):
    """An untraced and a traced pass, command by command in step, each in its
    own run directory, so that the overhead compares runs seconds apart."""
    checkers = {}
    for run_dir in (plain_dir, spans_dir):
        reset_state(run_dir)
        checkers[run_dir] = Checker(workload, run_dir)
    plain, spanned = [], []
    for label in COMMANDS:
        plain.append(traced_command(workload, label, "off", plain_dir, env, checkers[plain_dir]))
        spanned.append(traced_command(workload, label, "time", spans_dir, env, checkers[spans_dir]))
    return [o for o, _ in plain], [r for _, r in plain], [o for o, _ in spanned], [r for _, r in spanned]


# Count recorded on a span (see traced_cli.POST) -> per-layer metric.
COUNT_METRIC = {
    "grid_points": "quadrature.points",
    "terms": "multiindex.terms",
    "records": "blackbox.cache_records",
    "fresh": "blackbox.fresh_evals",
    "cached": "blackbox.cached_evals",
    "eval_points": "surrogate.eval_points",
    "subsets": "sobol.subsets",
}
# Spans whose number of calls is the count.
CALL_METRIC = {
    "blackbox.EvaluationCache.lookup": "blackbox.cache_lookups",
    "blackbox.EvaluationCache.store": "blackbox.cache_stores",
}


def ratio(part: float, whole: float) -> float:
    """part / whole; 0 when a failed command left nothing to divide by."""
    return part / whole if whole else 0.0


def layer_metrics(outcomes: list[Outcome], untraced: list[dict], traced: list[dict]) -> dict:
    """Per-layer values of one untraced + traced pair of passes."""
    m = dict.fromkeys(
        TIME_METRICS + list(COUNT_METRIC.values()) + list(CALL_METRIC.values())
        + ["blackbox.launches"],
        0.0,
    )
    eval_total_s = 0.0
    coverage = []
    for outcome, record in zip(outcomes, traced):
        command = dict.fromkeys(COUNT_METRIC, 0)
        for span in record["spans"]:
            m[span_metric(span["name"])] += span["self_s"]
            for key, value in span["counts"].items():
                command[key] += value
            if span["name"] in CALL_METRIC:
                m[CALL_METRIC[span["name"]]] += 1
            if span["name"] == "surrogate.PceModel.evaluate_batch":
                eval_total_s += span["duration_s"]
        for key, value in command.items():
            m[COUNT_METRIC[key]] += value
        coverage.append(ratio(sum(span["self_s"] for span in record["spans"]), record["wall_s"]))
        if outcome.label == "build_warm":
            m["blackbox.cache_hit_ratio.build_warm"] = ratio(
                command["cached"], command["fresh"] + command["cached"]
            )
        m["blackbox.launches"] += outcome.launches

    m["cli.import_s"] = statistics.median(r["import_s"] for r in traced + untraced)
    traced_wall = sum(r["wall_s"] for r in traced)
    untraced_wall = sum(r["wall_s"] for r in untraced)
    m["cli.wall_s"] = traced_wall
    m["trace.overhead_s"] = traced_wall - untraced_wall
    m["trace.overhead_share"] = ratio(traced_wall - untraced_wall, untraced_wall)
    m["trace.self_coverage"] = min(coverage)
    m["surrogate.eval_points_per_s"] = ratio(m["surrogate.eval_points"], eval_total_s)
    m["blackbox.cache_hit_ratio"] = ratio(
        m["blackbox.cached_evals"], m["blackbox.fresh_evals"] + m["blackbox.cached_evals"]
    )
    return m


def layer_unit(name: str) -> str:
    if "rss_mb" in name or name.endswith("_mb"):
        return "MB"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if "ratio" in name or name.endswith(("_share", "_coverage")):
        return "1"
    return "count"


def traced(workload: Workload, seed: int, run_dir: Path, env: dict, seconds: float):
    spans_dir = run_dir / "traced"
    spans_dir.mkdir()
    write_config(workload, seed, spans_dir)
    started = time.perf_counter()
    pairs = []
    pair_times = []
    while within_budget() and (not pairs or keep_going(started, seconds, pair_times)):
        pair_started = time.perf_counter()
        plain, untraced_records, spanned, traced_records = traced_pair(
            workload, run_dir, spans_dir, env
        )
        cdf = run_dir / "report" / "cdf.csv"
        cdf_bytes = cdf.stat().st_size if cdf.exists() else 0
        pairs.append((plain, untraced_records, spanned, traced_records, cdf_bytes))
        pair_times.append(time.perf_counter() - pair_started)

    # Allocation peaks: a warm build and the large uq under tracemalloc.
    checker = Checker(workload, run_dir)
    model = run_dir / "model.json"
    checker.cold_model = model.read_bytes() if model.exists() else None
    memory_outcomes = []
    peaks = {}
    for label in ("build_warm", "uq_large"):
        outcome, record = traced_command(workload, label, "memory", run_dir, env, checker)
        memory_outcomes.append(outcome)
        peaks.update(record["peaks_bytes"])

    per_pair = []
    outcomes = list(memory_outcomes)
    for plain, untraced_records, spanned, traced_records, cdf_bytes in pairs:
        values = layer_metrics(spanned, untraced_records, traced_records)
        for o in plain:
            values[f"cli.rss_mb.{o.label}"] = o.child.rss_mb
        # cdf.csv of the large uq; the 3000-sample one is a fixed small size.
        values["sampling.cdf_bytes"] = float(cdf_bytes)
        per_pair.append(values)
        outcomes += plain + spanned
    metrics = {
        name: (statistics.median(p[name] for p in per_pair), layer_unit(name))
        for name in per_pair[0]
    }
    metrics["surrogate.project_peak_mb"] = (peaks.get("surrogate.build_pce", 0) / 2**20, "MB")
    metrics["surrogate.eval_peak_mb"] = (
        peaks.get("surrogate.PceModel.evaluate_batch", 0) / 2**20, "MB"
    )
    failed = sum(1 for o in outcomes if o.errors)
    details = {
        "pairs": len(pairs),
        "errors": [f"{o.label}: {e}" for o in outcomes for e in o.errors],
    }
    return metrics, len(outcomes), failed, details


# ---------------------------------------------------------------- machine


def machine_record() -> dict:
    import numpy

    def read(path: str) -> str:
        try:
            return Path(path).read_text(encoding="utf-8")
        except OSError:
            return ""

    cpu = re.search(r"^model name\s*:\s*(.+)$", read("/proc/cpuinfo"), re.M)
    memory = re.search(r"^MemTotal:\s*(\d+) kB", read("/proc/meminfo"), re.M)
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = read(str(index / "level")).strip()
        kind = read(str(index / "type")).strip()
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = read(str(index / "size")).strip()
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except OSError:
        commit = None
    source = hashlib.sha256()
    for path in sorted((SRC / "pcekit").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu.group(1) if cpu else platform.processor(),
        "caches": caches,
        "memory_mb": int(memory.group(1)) // 1024 if memory else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
    }


# ---------------------------------------------------------------- main


def main() -> int:
    parser = argparse.ArgumentParser(description="pcekit CLI benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not (SRC / "pcekit" / "cli.py").is_file() or not CSG_CONFIG.is_file():
        print(f"error: no pcekit checkout at {ROOT} (need src/pcekit and configs/)",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    run_dir = None
    try:
        run_dir, env, setup_times = measure_set_up(workload, args.seed)
        if args.trace:
            metrics, attempted, failed, details = traced(
                workload, args.seed, run_dir, env, args.seconds
            )
        else:
            metrics, attempted, failed, details = end_to_end(
                workload, args.seed, run_dir, env, args.seconds, setup_times
            )
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if run_dir is not None:
            shutil.rmtree(run_dir, ignore_errors=True)
        try:
            RUNS_DIR.rmdir()
        except OSError:
            pass

    details.update(workload=workload.name, seed=args.seed, trace=args.trace,
                   setup_s=setup_times, machine=machine_record())
    print(json.dumps(details))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
