"""Command-line entry point: build, validate, uq, sobol, grid, cache.

Every command reads one JSON config (see config.py) and writes its
artifacts under the configured report directory, embedding the config hash
and seed in each.  Exit codes: 0 success, 2 configuration error,
3 numerical/model error, 4 I/O or file-format error, 130 interrupted.

With --reproducible, volatile content (timestamps, wall times, cache
hit/miss counts) is kept out of the written artifacts, so repeated runs of
the same config and seed produce byte-identical files; the volatile values
still go to stdout.

Each command imports the modules it runs when it runs, so that sobol, for
one, loads neither the quadrature nor the sampling module.

The process entry point, run(), ends the process with os._exit once main()
returns, skipping the interpreter's teardown.  Nothing is left for it to
do: every file is written inside `with` or surrogate._replacing, solver
threads are joined, solver and formatting processes are reaped, and pcekit
registers no atexit handler.  Keep it so.  main(argv) only returns its
exit code.
"""
from __future__ import annotations

import argparse
import contextlib
import os
import sys
import time
from pathlib import Path
from typing import IO, Iterator, NoReturn

from . import __version__
from .errors import EXIT_INTERRUPTED, EXIT_IO, EXIT_OK, THREAD_ENV_VARS
from .errors import ConfigurationError, EvaluationError, PcekitError

# A BLAS thread count moves the last bits of the surrogate's sums.  So each
# of these that the environment leaves unset is set to 1 on import, before
# a command, or a harness that imports this module first, loads numpy; main
# loads numpy and unsets them again, so solver launches get the environment
# as given.
_PINNED = [name for name in THREAD_ENV_VARS if name not in os.environ]
os.environ.update(dict.fromkeys(_PINNED, "1"))


def _append_log(cfg, line: str, volatile: str = "") -> None:
    """Append `line`, the config hash and seed, then `volatile` to run.log."""
    report_dir = cfg.paths.report_dir
    report_dir.mkdir(parents=True, exist_ok=True)
    with open(report_dir / "run.log", "a", encoding="utf-8") as handle:
        handle.write(" ".join([line, *_stamp(cfg)]) + volatile + "\n")


@contextlib.contextmanager
def _report_file(cfg, name: str, *comments: str) -> Iterator[IO[str]]:
    """Report file `name`, open for writing in the config's report directory,
    made if missing, and written whole or not at all (see
    surrogate._replacing): the comments first as `# ...` lines."""
    from .surrogate import _replacing

    report_dir = cfg.paths.report_dir
    report_dir.mkdir(parents=True, exist_ok=True)
    with _replacing(report_dir / name) as handle:
        handle.writelines(f"# {comment}\n" for comment in comments)
        yield handle


def _stamp(cfg) -> tuple[str, str]:
    """The config hash and seed, as every report records them."""
    return f"config_hash={cfg.config_hash}", f"seed={cfg.validation.seed}"


def _black_box(cfg, workers: int):
    """The config's model behind its evaluation cache, if one is configured."""
    if workers < 1:
        raise ConfigurationError(f"--workers must be >= 1, got {workers}")
    from .blackbox import BlackBoxModel, EvaluationCache, resolve_cache_path

    path = resolve_cache_path(cfg.paths.cache)
    cache = None
    if path is not None:
        path.parent.mkdir(parents=True, exist_ok=True)
        cache = EvaluationCache(path)
    return BlackBoxModel(cfg.model, cache=cache, workers=workers)


def _load_model(cfg, override: str | None):
    from . import surrogate

    return surrogate.load(Path(override) if override else cfg.paths.model_file)


def _ordinal(q: float) -> str:
    n = int(q)
    if q != n:
        return f"{q:g}th"
    if 10 <= n % 100 <= 20:
        suffix = "th"
    else:
        suffix = {1: "st", 2: "nd", 3: "rd"}.get(n % 10, "th")
    return f"{n}{suffix}"


def cmd_build(args: argparse.Namespace) -> int:
    from . import config, surrogate

    cfg = config.load_config(args.config)
    box = _black_box(cfg, args.workers)
    started = time.perf_counter()
    model = surrogate.build_pce(
        box,
        cfg.inputs,
        cfg.outputs,
        cfg.method,
        record_timestamp=not args.reproducible,
    )
    elapsed = time.perf_counter() - started
    model.build_meta["config_hash"] = cfg.config_hash
    model.build_meta["seed"] = cfg.validation.seed

    cfg.paths.model_file.parent.mkdir(parents=True, exist_ok=True)
    surrogate.save(model, cfg.paths.model_file)

    meta = model.build_meta
    volatile = (
        f" cache_hits={box.cached_count} cache_misses={box.fresh_count}"
        f" wall_seconds={elapsed:.3f}"
    )
    _append_log(
        cfg,
        f"build method={meta['method']} parameter={meta['parameter']} "
        f"evaluations={meta['evaluation_count']} terms={len(model.indices)}",
        "" if args.reproducible else volatile,
    )
    print(
        f"built {meta['method']} (parameter {meta['parameter']}) surrogate with "
        f"{meta['evaluation_count']} model evaluations "
        f"({box.cached_count} cached) in {elapsed:.2f} s -> {cfg.paths.model_file}"
    )
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    import numpy as np

    from . import config, sampling, surrogate

    cfg = config.load_config(args.config)
    model = _load_model(cfg, args.model)
    model_names = [var.name for var in model.inputs], list(model.output_names)
    config_names = [var.name for var in cfg.inputs], list(cfg.outputs)
    if model_names != config_names:
        raise ConfigurationError(
            "the model's inputs %s and outputs %s are not the config's inputs %s "
            "and outputs %s" % (*model_names, *config_names)
        )
    box = _black_box(cfg, args.workers)

    design = sampling.latin_hypercube(
        cfg.validation.lhs_strata, model.dim, cfg.validation.lhs_repeats, cfg.validation.seed
    )
    physical = surrogate.unscale_points(design.points, model.inputs)
    truths = box(physical)
    predictions = model.evaluate_batch(physical)

    names = model.output_names
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            metrics = [
                (sampling.rmse(p, t), sampling.rrmse(p, t)) for p, t in zip(predictions.T, truths.T)
            ]
    except ValueError as exc:  # a true value of zero leaves the relative error undefined
        raise EvaluationError(f"validation metrics: {exc}") from exc
    if not np.isfinite(metrics).all():
        raise EvaluationError("validation metrics pass the float range")
    meta = model.build_meta
    header = ["method", "parameter"] + [f"{m}_{n}" for n in names for m in ("rmse", "rrmse")]
    cells = [format(value, ".17g") for pair in metrics for value in pair]
    row = [meta.get("method"), meta.get("parameter"), *cells, meta.get("evaluation_count")]
    with _report_file(cfg, "validate.csv", *_stamp(cfg)) as handle:
        handle.write(sampling._csv_row(header + ["evaluations"], "\n"))
        handle.write(sampling._csv_row([str(cell) for cell in row], "\n"))

    with _report_file(cfg, "scatter.csv", *_stamp(cfg)) as handle:
        cols = [f"{n}_{kind}" for n in names for kind in ("model", "surrogate")]
        handle.write(sampling._csv_row(cols, "\n"))
        columns = [column for pair in zip(truths.T, predictions.T) for column in pair]
        sampling.write_rows(handle, ",".join(["%.17g"] * len(columns)) + "\n", columns)

    summary = " ".join(
        f"rmse_{name}={m[0]:.6g} rrmse_{name}={m[1]:.6g}" for name, m in zip(names, metrics)
    )
    _append_log(cfg, f"validate points={len(design.points)} {summary}")
    print(f"validated at {len(design.points)} LHS points: {summary}")
    return EXIT_OK


def cmd_uq(args: argparse.Namespace) -> int:
    import numpy as np

    from . import config, sampling

    cfg = config.load_config(args.config)
    count = args.samples if args.samples is not None else cfg.report.uq_samples
    if not 2 <= count <= config.POINT_COUNT_CAP:
        raise ConfigurationError(f"uq needs 2 to {config.POINT_COUNT_CAP} samples, got {count}")
    with sampling.rank_column(count) as ranks:  # forks a helper for a large table
        model = _load_model(cfg, args.model)

        design = sampling.latin_hypercube(count, model.dim, 1, cfg.validation.seed)
        started = time.perf_counter()
        ordered = model.evaluate_scaled(design.points)
        elapsed = time.perf_counter() - started
        ordered.sort(axis=0)  # in place: each output's samples, sorted
        with np.errstate(over="ignore", invalid="ignore"):  # percentiles and bins lie within it
            spread = ordered[-1] - ordered[0]
        if not np.isfinite(spread).all():
            raise EvaluationError("the surrogate's samples span past the float range")

        qs = cfg.report.percentiles
        labels = ["Sample minimum", *(f"{_ordinal(q)} percentile" for q in qs), "Sample maximum"]
        empirical = [ordered[0], *sampling._sorted_percentiles(ordered, qs), ordered[-1]]
        rows = [("Mean", model.mean(), "Analytic"),
                ("Standard deviation", model.std_dev(), "Analytic")]
        rows += [(label, values, "Empirical") for label, values in zip(labels, empirical)]

        names = list(model.output_names)
        cells = [["Statistic"] + names + ["Derivation"]]
        for label, numbers, derivation in rows:
            cells.append([label] + [f"{v:.6g}" for v in numbers] + [derivation])
        widths = [max(len(row[c]) for row in cells) for c in range(len(cells[0]))]
        comments = (*_stamp(cfg), f"samples={count} generator=PCG64")
        with _report_file(cfg, "uq_summary.txt", *comments) as handle:
            for row in cells:
                line = "  ".join(cell.ljust(w) for cell, w in zip(row, widths))
                handle.write(line.rstrip() + "\n")
        with _report_file(cfg, "cdf.csv", *comments) as handle:
            sampling.write_cdf_csv(handle, names, ordered, ranks)
    with _report_file(cfg, "hist.csv", *comments) as handle:
        sampling.write_histogram_csv(handle, names, ordered, cfg.report.histogram_bins)

    _append_log(cfg, f"uq samples={count}")
    print(
        f"uq summary over {count} surrogate evaluations ({elapsed:.2f} s) "
        f"-> {cfg.paths.report_dir / 'uq_summary.txt'}"
    )
    return EXIT_OK


def cmd_sobol(args: argparse.Namespace) -> int:
    from . import config, sobol

    cfg = config.load_config(args.config)
    model = _load_model(cfg, args.model)
    size = (
        args.max_subset_size
        if args.max_subset_size is not None
        else cfg.report.sobol_max_subset_size
    )
    report = sobol.full_report(model, size)

    with _report_file(cfg, "sobol.json") as handle:
        stamp = {"config_hash": cfg.config_hash, "seed": cfg.validation.seed}
        report.write_json(handle, extra=stamp)
    text = report.to_text()
    with _report_file(cfg, "sobol.txt", *_stamp(cfg)) as handle:
        handle.write(text)

    _append_log(cfg, f"sobol max_subset_size={size}")
    print(text, end="")
    return EXIT_OK


def cmd_grid(args: argparse.Namespace) -> int:
    from .quadrature import full_grid, sparse_grid, write_grid_csv

    if args.full is not None:
        grid = full_grid(args.dim, args.full)
    else:
        grid = sparse_grid(args.dim, args.sparse)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            write_grid_csv(grid, handle)
        print(f"wrote {len(grid)} points -> {args.out}")
    else:
        write_grid_csv(grid, sys.stdout)
    return EXIT_OK


def cmd_cache(args: argparse.Namespace) -> int:
    from . import config
    from .blackbox import EvaluationCache, resolve_cache_path

    if args.path:
        path = resolve_cache_path(args.path)
    elif args.config:
        path = resolve_cache_path(config.load_config(args.config).paths.cache)
    else:
        raise ConfigurationError("cache command needs --path or --config")
    if path is None:
        raise ConfigurationError("no cache path is configured")
    cache = EvaluationCache(path)
    if args.action == "stats":
        size = path.stat().st_size if path.exists() else 0
        print(f"cache {path}: {len(cache)} entries, {size} bytes, "
              f"{cache.corrupt_lines} corrupt lines skipped at load")
    else:
        print(f"cache {path}: {cache.valid_lines} valid lines, {cache.corrupt_lines} corrupt lines")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Help and version text that cannot be written to stdout raises its
    OSError, which argparse drops, to exit 4 as a command's output does."""

    def _print_message(self, message, file=None):
        if message and file is sys.stdout:
            file.write(message)
        else:  # usage errors keep exit 2 with stderr gone
            super()._print_message(message, file)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pcekit",
        description="Polynomial chaos surrogates for black-box models: "
        "build, validate, quantify uncertainty, rank sensitivities.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, model_flag: bool = True) -> None:
        p.add_argument("--config", required=True, help="path to the run config JSON")
        if model_flag:
            p.add_argument("--model", help="surrogate file (default: config paths.model_file)")

    p_build = sub.add_parser("build", help="evaluate the black box on a grid and fit the surrogate")
    add_common(p_build, model_flag=False)
    p_build.add_argument("--workers", type=int, default=1, help="concurrent evaluation workers")
    p_build.add_argument("--reproducible", action="store_true",
                         help="omit timestamps/timings so artifacts are byte-stable")
    p_build.set_defaults(func=cmd_build)

    p_val = sub.add_parser("validate", help="compare surrogate and black box at LHS test points")
    add_common(p_val)
    p_val.add_argument("--workers", type=int, default=1)
    p_val.add_argument("--reproducible", action="store_true")
    p_val.set_defaults(func=cmd_validate)

    p_uq = sub.add_parser("uq", help="summary statistics and empirical distributions")
    add_common(p_uq)
    p_uq.add_argument("--samples", type=int, help="override report.uq_samples")
    p_uq.add_argument("--reproducible", action="store_true")
    p_uq.set_defaults(func=cmd_uq)

    p_sobol = sub.add_parser("sobol", help="variance-based sensitivity indices")
    add_common(p_sobol)
    p_sobol.add_argument("--max-subset-size", type=int,
                         help="override report.sobol_max_subset_size")
    p_sobol.set_defaults(func=cmd_sobol)

    p_grid = sub.add_parser("grid", help="export a quadrature grid as CSV")
    p_grid.add_argument("--dim", type=int, required=True)
    group = p_grid.add_mutually_exclusive_group(required=True)
    group.add_argument("--full", type=int, metavar="ORDER")
    group.add_argument("--sparse", type=int, metavar="LEVEL")
    p_grid.add_argument("--out", help="output path (default: stdout)")
    p_grid.set_defaults(func=cmd_grid)

    p_cache = sub.add_parser("cache", help="inspect or verify the evaluation cache")
    p_cache.add_argument("action", choices=["stats", "verify"])
    p_cache.add_argument("--path", help="cache file path")
    p_cache.add_argument("--config", help="read the cache path from a run config")
    p_cache.set_defaults(func=cmd_cache)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        import numpy  # noqa: F401  (BLAS reads its thread count as it loads)

        while _PINNED:  # a name set again since the import is left as set
            name = _PINNED.pop()
            if os.environ.get(name) == "1":
                del os.environ[name]
        return args.func(args)
    except PcekitError as exc:
        message, code = exc, exc.exit_code
    except OSError as exc:
        message, code = exc, EXIT_IO
    except KeyboardInterrupt:  # solver groups are killed and writers reaped on the way
        message, code = "interrupted", EXIT_INTERRUPTED
    with contextlib.suppress(OSError):  # a stderr that cannot take it: the code tells
        print(f"error: {message}", file=sys.stderr)
    return code


def run() -> NoReturn:
    """Run main() on the command line and end the process with its exit
    code, without interpreter teardown (see the module docstring).  SIGINT
    is blocked once main returns, so a Ctrl-C after the work is done keeps
    the exit code; a stdout or stderr that cannot be flushed turns a
    success into exit 4."""
    import signal

    try:
        code = main()
    except SystemExit as exc:  # argparse's --help, --version and usage errors
        code = exc.code
    while True:  # a SIGINT that landed as main returned raises here; the next pass masks
        try:
            signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
            break
        except KeyboardInterrupt:
            pass
    for stream in filter(None, (sys.stdout, sys.stderr)):  # None: no such descriptor
        try:
            stream.flush()
        except OSError as exc:  # a reader that closed the pipe, a full disk
            if code == EXIT_OK:
                code = EXIT_IO
                with contextlib.suppress(OSError):
                    print(f"error: {exc}", file=sys.stderr)
    os._exit(code)


if __name__ == "__main__":
    run()
