"""Run one pcekit CLI command in-process, optionally traced, and dump the record.

Usage: python3 traced_cli.py --mode off|time|memory --out RECORD.json -- ARGV...

The process times `import pcekit.cli` in its fresh interpreter, then calls
`pcekit.cli.main(ARGV)` and writes one JSON record to RECORD.json:
{"import_s", "wall_s", "exit_code", "spans", "peaks_bytes"}.

Modes:

* off: no wrappers; the untraced baseline for the tracing overhead.
* time: every public function of each pcekit module, the names other
  modules bind with `from ... import`, and a few class attributes are
  wrapped in spans.  Spans are kept in memory and written when main returns.
* memory: only `build_pce` and `PceModel.evaluate_batch` are wrapped, each
  running under tracemalloc; their allocation peaks are recorded.  This is
  a separate pass so that tracemalloc does not inflate the span times.

The wrappers live here, so the program under test is not edited.
"""
from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import json
import sys
import threading
import time
import tracemalloc

MODULES = (
    "cli", "config", "quadrature", "multiindex", "polybasis",
    "blackbox", "surrogate", "sampling", "sobol",
)

# Called once per number or per index inside loops: a span each would cost
# more than the work it measures.  Their time stays in the caller's self time.
PER_VALUE = {
    "blackbox.render_value",
    "multiindex.contains",
    "surrogate.rescale",
    "surrogate.unscale",
}

NAME, START, END, CHILD_S, PARENT, COUNTS = range(6)


class Tracer:
    """Span recorder: one record per call, nested by a per-thread stack."""

    def __init__(self) -> None:
        self.records: list[list] = []
        self._local = threading.local()

    def wrap(self, name, fn, pre=None, post=None):
        """Return fn wrapped in a span; pre(args) and post(args, result, before)
        supply the span's counts from public attributes."""
        records = self.records
        local = self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            record = [name, 0.0, 0.0, 0.0, parent[NAME] if parent else None, None]
            records.append(record)
            before = pre(args) if pre else None
            stack.append(record)
            record[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent[CHILD_S] += record[END] - record[START]
            if post:
                record[COUNTS] = post(args, result, before)
            return result

        return traced

    def dump(self) -> list[dict]:
        return [
            {
                "name": r[NAME],
                "start": r[START],
                "duration_s": r[END] - r[START],
                "self_s": r[END] - r[START] - r[CHILD_S],
                "parent": r[PARENT],
                "counts": r[COUNTS] or {},
            }
            for r in self.records
        ]


def _box_counts(args):
    box = args[0]
    return box.fresh_count, box.cached_count


def _box_post(args, result, before):
    box = args[0]
    return {
        "fresh": box.fresh_count - before[0],
        "cached": box.cached_count - before[1],
    }


# Counts recorded on particular spans, read from public attributes.
POST = {
    "quadrature.full_grid": lambda a, r, b: {"grid_points": len(r)},
    "quadrature.sparse_grid": lambda a, r, b: {"grid_points": len(r)},
    "multiindex.enumerate_indices": lambda a, r, b: {"terms": len(r)},
    "blackbox.EvaluationCache.__init__": lambda a, r, b: {"records": len(a[0])},
    "surrogate.PceModel.evaluate_batch": lambda a, r, b: {"eval_points": len(r)},
    "sobol.full_report": lambda a, r, b: {"subsets": len(r.indices)},
}


def _class_attributes():
    from pcekit.blackbox import BlackBoxModel, EvaluationCache
    from pcekit.sobol import SobolReport
    from pcekit.surrogate import PceModel

    return [
        ("surrogate", PceModel, "evaluate_batch"),
        ("blackbox", EvaluationCache, "__init__"),
        ("blackbox", EvaluationCache, "lookup"),
        ("blackbox", EvaluationCache, "store"),
        ("blackbox", BlackBoxModel, "__call__"),
        ("sobol", SobolReport, "to_text"),
        ("sobol", SobolReport, "write_json"),
    ]


def install_spans(tracer: Tracer) -> None:
    """Wrap the public functions and listed class attributes of pcekit.

    Every pcekit module namespace is then scanned, and any name still bound
    to an original function (such as cli's `from .quadrature import
    full_grid`) is rebound to its wrapper.
    """
    wrappers = {}
    for short in MODULES:
        module = importlib.import_module(f"pcekit.{short}")
        for attr, obj in list(vars(module).items()):
            name = f"{short}.{attr}"
            if (
                inspect.isfunction(obj)
                and obj.__module__ == module.__name__
                and not attr.startswith("_")
                and name not in PER_VALUE
            ):
                wrappers[obj] = tracer.wrap(name, obj, post=POST.get(name))
    for module in [m for key, m in sys.modules.items() if key.split(".")[0] == "pcekit"]:
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(module, attr, wrappers[obj])
    for short, cls, attr in _class_attributes():
        name = f"{short}.{cls.__name__}.{attr}"
        box = attr == "__call__"
        setattr(
            cls,
            attr,
            tracer.wrap(
                name,
                getattr(cls, attr),
                pre=_box_counts if box else None,
                post=_box_post if box else POST.get(name),
            ),
        )


def install_memory(peaks: dict[str, int]) -> None:
    """Record the tracemalloc peak of the projection and of surrogate evaluation."""
    from pcekit import surrogate

    def measured(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                peaks[name] = max(peaks.get(name, 0), peak)

        return wrapper

    build = measured("surrogate.build_pce", surrogate.build_pce)
    for module in [m for key, m in sys.modules.items() if key.split(".")[0] == "pcekit"]:
        if getattr(module, "build_pce", None) is surrogate.build_pce:
            module.build_pce = build
    surrogate.PceModel.evaluate_batch = measured(
        "surrogate.PceModel.evaluate_batch", surrogate.PceModel.evaluate_batch
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=["off", "time", "memory"], required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    started = time.perf_counter()
    import pcekit.cli

    import_s = time.perf_counter() - started
    tracer = Tracer()
    peaks: dict[str, int] = {}
    if args.mode == "time":
        install_spans(tracer)
    elif args.mode == "memory":
        install_memory(peaks)

    started = time.perf_counter()
    code = pcekit.cli.main(argv)
    wall_s = time.perf_counter() - started
    sys.stdout.flush()

    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "import_s": import_s,
                "wall_s": wall_s,
                "exit_code": code,
                "spans": tracer.dump(),
                "peaks_bytes": peaks,
            },
            handle,
        )
    return code


if __name__ == "__main__":
    sys.exit(main())
