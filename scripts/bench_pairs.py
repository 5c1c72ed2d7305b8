"""Alternating parent/change pairs of the benchmark, written to BENCH_<n>.json.

Usage (from the root of a checkout):

    python3 scripts/bench_pairs.py --base REF --out BENCH_7.json \
        --workload csg-full6 --pairs 10 --seed 701 [--workload ... --pairs ... --seed ...]

Both sides run from sibling directories under one temporary parent, so
neither tree's place on disk favours it: the base side is the commit REF,
extracted with `git archive`; the change side is a copy of this checkout
as it stands (its tracked files and the untracked ones git does not
ignore).  Each side runs its own perfbench/run.py (--trace 0) with the same
--seconds and seed, so the benchmark code is the one each tree ships.
Pair i uses seed SEED + i and runs the base first when i is even, the
change first when it is odd.  Pairs run one after another, never
concurrently.

The output file keeps both sides of every pair: the result line (correct,
attempted, failed, metrics) and the details line (per-command samples and
the machine record) of each run, plus a summary per workload and metric:
each side's median and quartiles, the median difference, and how many
pairs the change won by the direction BENCHMARK.json gives the metric.
Beside it, a summary of the details lines gives each side's medians of
what the metrics are made from: the raw set-up time (before perfbench's
`speed` factor scales it into setup_s) and `speed` itself, and per command
the raw wall time and the peak RSS (peak_rss_mb is the largest of these).

The script ends with a verdict, printed and kept in the file.  With
--claim METRIC@WORKLOAD (repeatable) it starts with one line per claim
saying whether it holds (at least 10 pairs, of which the change wins at
least 9 in 10, and its median is better than the base's by more than the
base's quartile distance) and, when it does not, which of these
conditions failed.  With or without claims, it then lists every other
metric and workload whose change median is worse than the base's by more
than the metric's relative `bound` in BENCHMARK.json.  The exit status is
1 when a claim fails or a bound is broken.
"""
from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def extract(ref: str, dest: Path) -> str:
    """Write the tree of `ref` under dest; return its full commit id."""
    commit = subprocess.run(
        ["git", "rev-parse", "--verify", f"{ref}^{{commit}}"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout.strip()
    archive = dest.parent / "base.tar"
    with open(archive, "wb") as handle:
        subprocess.run(["git", "archive", commit], cwd=ROOT, check=True, stdout=handle)
    with tarfile.open(archive) as tar:
        tar.extractall(dest)
    archive.unlink()
    return commit


def copy_checkout(dest: Path) -> None:
    """Copy the checkout's tracked files and its untracked, unignored ones to dest."""
    names = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout.split("\0")
    for name in filter(None, names):
        source = ROOT / name
        if source.exists() or source.is_symlink():  # not a tracked file deleted since
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name, follow_symlinks=False)


def run_side(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run of a tree: its result and details lines, and wall time."""
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"benchmark failed in {tree} (exit {proc.returncode}):\n{proc.stderr}")
    return {
        "result": json.loads(lines[-1]),
        "details": json.loads(lines[-2]),
        "wall_s": time.perf_counter() - started,
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, median, high = statistics.quantiles(values, n=4, method="inclusive")
    return low, median, high


def summarize(pairs: list[dict], directions: dict[str, str]) -> dict:
    summary = {}
    for name, better in sorted(directions.items()):
        base = [p["base"]["result"]["metrics"].get(name, {}).get("value") for p in pairs]
        change = [p["change"]["result"]["metrics"].get(name, {}).get("value") for p in pairs]
        if None in base or None in change:
            continue
        sign = 1.0 if better == "lower" else -1.0
        wins = sum(sign * (b - c) > 0 for b, c in zip(base, change))
        losses = sum(sign * (b - c) < 0 for b, c in zip(base, change))
        q_base, q_change = quartiles(base), quartiles(change)
        summary[name] = {
            "better": better,
            "base_quartiles": q_base,
            "change_quartiles": q_change,
            "median_change": q_change[1] - q_base[1],
            "relative_change": (q_change[1] - q_base[1]) / q_base[1] if q_base[1] else None,
            "base_quartile_distance": q_base[2] - q_base[0],
            "change_wins": wins,
            "change_losses": losses,
            "pairs": len(pairs),
        }
    return summary


def summarize_details(pairs: list[dict]) -> dict:
    """Each side's median, over its runs, of the raw set-up time (a run's
    median set-up), of `speed`, and per command of the raw wall time (a run's
    mean) and the peak RSS (a run's largest sample)."""
    def medians(per_run) -> dict[str, float]:
        return {side: statistics.median(per_run(p[side]["details"]) for p in pairs)
                for side in ("base", "change")}

    commands = sorted({label for p in pairs for side in ("base", "change")
                       for label in p[side]["details"]["wall_s"]})
    return {
        "setup_raw_s": medians(lambda d: statistics.median(d["setup_s"])),
        "speed": medians(lambda d: d["speed"]),
        "commands": {
            label: {
                "wall_raw_s": medians(lambda d: statistics.fmean(d["wall_s"][label])),
                "peak_rss_mb": medians(lambda d: max(d["rss_mb"][label])),
            }
            for label in commands
        },
    }


def verdict(record: dict, claims: list[str], bounds: dict[str, float]) -> tuple[list[str], bool]:
    """The verdict lines on a record's summaries, and whether all is well."""
    lines, ok = [], True
    for claim in claims:
        name, _, workload = claim.partition("@")
        s = record["workloads"].get(workload, {}).get("summary", {}).get(name)
        if s is None:
            lines.append(f"claim {claim}: no pairs recorded")
            ok = False
            continue
        sign = 1.0 if s["better"] == "lower" else -1.0
        gain = -sign * s["median_change"]
        failed = [reason for reason, broken in (
            ("fewer than 10 pairs", s["pairs"] < 10),
            ("fewer than 9 in 10 wins", s["change_wins"] * 10 < 9 * s["pairs"]),
            ("gain within the base quartile distance", gain <= s["base_quartile_distance"]),
        ) if broken]
        ok &= not failed
        status = f"does not hold ({'; '.join(failed)})" if failed else "holds"
        lines.append(
            f"claim {claim} {status}: change wins "
            f"{s['change_wins']}/{s['pairs']} pairs; median {s['base_quartiles'][1]:.4g} -> "
            f"{s['change_quartiles'][1]:.4g}, better by {gain:.4g} against a base "
            f"quartile distance of {s['base_quartile_distance']:.4g}"
        )
    worse = []
    for workload, data in record["workloads"].items():
        for name, s in data["summary"].items():
            base = s["base_quartiles"][1]
            excess = (s["median_change"] if s["better"] == "lower" else -s["median_change"])
            if f"{name}@{workload}" not in claims and excess > bounds[name] * abs(base):
                worse.append(
                    f"  {name}@{workload}: median {base:.4g} -> {s['change_quartiles'][1]:.4g}, "
                    f"worse by more than the bound {bounds[name]:g} (relative)"
                )
    ok &= not worse
    lines.append("worse than the base beyond the bound:" if worse
                 else f"no {'other ' if claims else ''}metric is worse than the base "
                 "beyond its bound")
    return lines + worse, ok


def finish(record: dict, claims: list[str], bounds: dict[str, float], out: Path) -> int:
    """Print the verdict, keep it in the record at out, and return the exit status."""
    lines, ok = verdict(record, claims, bounds)
    record["verdict"] = lines
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print("\n".join(lines))
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git ref of the parent commit")
    parser.add_argument("--out", required=True, help="output file, BENCH_<n>.json")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, action="append", required=True,
                        help="pairs to run, one per --workload")
    parser.add_argument("--seed", type=int, action="append", required=True,
                        help="seed of the first pair, one per --workload")
    parser.add_argument("--seconds", type=float, default=55.0,
                        help="run length of every run (BENCHMARK.json's run_seconds)")
    parser.add_argument("--claim", action="append", default=[], metavar="METRIC@WORKLOAD",
                        help="a claimed gain to give a verdict on")
    args = parser.parse_args()

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    directions = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    for claim in args.claim:
        if claim.partition("@")[0] not in directions or "@" not in claim:
            parser.error(f"--claim {claim!r} is not METRIC@WORKLOAD with a metric "
                         "of BENCHMARK.json")
    if not len(args.workload) == len(args.pairs) == len(args.seed):
        parser.error("give --pairs and --seed once per --workload")

    record = {"base": args.base, "change": "working tree", "seconds": args.seconds,
              "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {side: Path(tmp) / side for side in ("base", "change")}
        for tree in trees.values():
            tree.mkdir()
        record["base_commit"] = extract(args.base, trees["base"])
        copy_checkout(trees["change"])
        for workload, count, first_seed in zip(args.workload, args.pairs, args.seed):
            pairs = []
            for i in range(count):
                seed = first_seed + i
                order = ["base", "change"] if i % 2 == 0 else ["change", "base"]
                pair = {"pair": i, "seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_side(trees[side], workload, seed, args.seconds)
                pairs.append(pair)
                record.setdefault("machine", pair["change"]["details"].get("machine"))
                print(f"{workload} pair {i} seed {seed}: "
                      + "  ".join(f"{side} correct={pair[side]['result']['correct']}"
                                  for side in ("base", "change")), flush=True)
                record["workloads"][workload] = {
                    "pairs": pairs, "summary": summarize(pairs, directions),
                    "details_summary": summarize_details(pairs),
                }
                # Written after each pair, so a cut run keeps what finished.
                Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for workload, data in record["workloads"].items():
        for name, s in data["summary"].items():
            print(f"{workload:18s} {name:14s} base {s['base_quartiles'][1]:.4g} "
                  f"change {s['change_quartiles'][1]:.4g} "
                  f"wins {s['change_wins']}/{s['pairs']} "
                  f"(base quartile distance {s['base_quartile_distance']:.3g})")
        d = data["details_summary"]
        print(f"{workload:18s} raw set-up base {d['setup_raw_s']['base']:.4g} "
              f"change {d['setup_raw_s']['change']:.4g} s, "
              f"speed base {d['speed']['base']:.4g} change {d['speed']['change']:.4g}")
        for label, c in d["commands"].items():
            print(f"{workload:18s} {label:14s} raw wall base {c['wall_raw_s']['base']:.4g} "
                  f"change {c['wall_raw_s']['change']:.4g} s, peak RSS base "
                  f"{c['peak_rss_mb']['base']:.4g} change {c['peak_rss_mb']['change']:.4g} MB")
    return finish(record, args.claim, bounds, Path(args.out))


if __name__ == "__main__":
    sys.exit(main())
