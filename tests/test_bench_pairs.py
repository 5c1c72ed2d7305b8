import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
DIRECTIONS = {m["name"]: m["better"] for m in BENCHMARK["end_to_end"]}
BOUNDS = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}


def record(workload, base, change):
    """A record whose pairs carry the given per-metric values of each side."""
    pairs = [
        {side: {"result": {"metrics": {name: {"value": values[name][i]}
                                       for name in values}}}
         for side, values in (("base", base), ("change", change))}
        for i in range(len(next(iter(base.values()))))
    ]
    return {"workloads": {workload: {"summary": bench_pairs.summarize(pairs, DIRECTIONS)}}}


def test_claim_holds_on_nine_wins_and_a_clear_median():
    base = {"build_cold_s": [1.0] * 5 + [1.02] * 5, "sobol_s": [0.3] * 10}
    change = {"build_cold_s": [0.8] * 9 + [1.1], "sobol_s": [0.3] * 10}
    lines, ok = bench_pairs.verdict(record("w", base, change), ["build_cold_s@w"], BOUNDS)
    assert ok and lines[0].startswith("claim build_cold_s@w holds: change wins 9/10")
    assert lines[1] == "no other metric is worse than the base beyond its bound"


def failed_claim(base, change):
    """The verdict line of a failed build_cold_s claim, without the prefix."""
    lines, ok = bench_pairs.verdict(
        record("w", {"build_cold_s": base}, {"build_cold_s": change}), ["build_cold_s@w"], BOUNDS
    )
    assert not ok and lines[0].startswith("claim build_cold_s@w does not hold (")
    return lines[0].removeprefix("claim build_cold_s@w does not hold ")


def test_claim_fails_on_eight_wins_or_a_median_inside_the_base_spread():
    base = [1.0, 1.2] * 5
    assert failed_claim(base, [0.5] * 8 + [1.3] * 2).startswith("(fewer than 9 in 10 wins): ")
    assert failed_claim(base, [0.99, 1.19] * 5).startswith(
        "(gain within the base quartile distance): "
    )


def test_a_failed_claim_names_every_condition_it_missed():
    # 4 of 4 pairs won by 40 times the base quartile distance
    assert failed_claim([1.0, 1.01, 1.0, 1.01], [0.6] * 4).startswith(
        "(fewer than 10 pairs): change wins 4/4 pairs"
    )
    assert failed_claim([1.0] * 4, [1.1] * 4).startswith(
        "(fewer than 10 pairs; fewer than 9 in 10 wins; "
        "gain within the base quartile distance): "
    )


def test_metrics_worse_beyond_their_bound_are_listed():
    base = {"build_cold_s": [1.0] * 10, "validate_s": [1.0] * 10, "passed_share": [1.0] * 10}
    change = {"build_cold_s": [0.5] * 10, "validate_s": [1.3] * 10, "passed_share": [0.98] * 10}
    lines, ok = bench_pairs.verdict(record("w", base, change), ["build_cold_s@w"], BOUNDS)
    assert not ok
    assert lines[1] == "worse than the base beyond the bound:"
    assert [line.split(":")[0].strip() for line in lines[2:]] == [
        "passed_share@w", "validate_s@w"
    ]


def test_without_a_claim_the_bounds_are_still_checked(tmp_path, capsys):
    out = tmp_path / "BENCH.json"
    base = {"build_cold_s": [1.0] * 5, "peak_rss_mb": [60.0] * 5}
    within = {"build_cold_s": [1.2] * 5, "peak_rss_mb": [62.9] * 5}
    assert bench_pairs.finish(record("w", base, within), [], BOUNDS, out) == 0
    assert capsys.readouterr().out == "no metric is worse than the base beyond its bound\n"
    assert json.loads(out.read_text())["verdict"] == [
        "no metric is worse than the base beyond its bound"
    ]
    beyond = {"build_cold_s": [1.2] * 5, "peak_rss_mb": [63.1] * 5}
    assert bench_pairs.finish(record("w", base, beyond), [], BOUNDS, out) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "worse than the base beyond the bound:"
    assert [line.split(":")[0].strip() for line in lines[1:]] == ["peak_rss_mb@w"]
    assert json.loads(out.read_text())["verdict"] == lines


def details(setup_s, speed, walls, rss):
    """A details line with these raw set-up times, speed, and per-command samples."""
    return {"details": {"setup_s": setup_s, "speed": speed, "wall_s": walls, "rss_mb": rss}}


def test_details_summary_keeps_the_raw_times_and_the_rss_of_each_command():
    # The base's setup_s median, scaled by speed, is below the change's (0.2
    # against 0.3); its raw set-up median is above it (0.4 against 0.3).
    pairs = [
        {"base": details([0.4, 0.5, 0.1], 0.5, {"uq": [1.0, 3.0]}, {"uq": [50.0, 58.0]}),
         "change": details([0.3, 0.3, 0.2], 1.0, {"uq": [1.0, 1.0]}, {"uq": [57.0, 55.0]})},
        {"base": details([0.6], 0.7, {"uq": [4.0]}, {"uq": [60.0]}),
         "change": details([0.35], 0.9, {"uq": [2.0]}, {"uq": [59.0]})},
        {"base": details([0.2], 0.6, {"uq": [1.0]}, {"uq": [61.0]}),
         "change": details([0.1], 0.8, {"uq": [3.0]}, {"uq": [56.0]})},
    ]
    assert bench_pairs.summarize_details(pairs) == {
        "setup_raw_s": {"base": 0.4, "change": 0.3},
        "speed": {"base": 0.6, "change": 0.9},
        "commands": {"uq": {"wall_raw_s": {"base": 2.0, "change": 2.0},
                            "peak_rss_mb": {"base": 60.0, "change": 57.0}}},
    }
