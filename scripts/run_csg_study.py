#!/usr/bin/env python3
"""End-to-end surrogate study on the csg-proxy builtin.

Builds surrogates with the four grid settings (sparse levels 4 and 5, full
orders 5 and 6), validates each against the proxy at a shared set of LHS
test points, and prints an error/cost comparison plus summary statistics
and sensitivity indices for the best surrogate.  Everything here is cheap:
the proxy is analytic, so the whole study runs in seconds.

Usage: python scripts/run_csg_study.py [--test-points 3000] [--seed 2024]
"""
from __future__ import annotations

import argparse
import time

import pcekit as pk
from pcekit.blackbox import CSG_PROXY_INPUTS, CSG_PROXY_OUTPUTS
from pcekit.sampling import percentile_values
from pcekit.surrogate import unscale_points


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--test-points", type=int, default=3000)
    parser.add_argument("--seed", type=int, default=2024)
    args = parser.parse_args()

    inputs = [pk.InputVariable(name, lo, hi) for name, lo, hi in CSG_PROXY_INPUTS]
    outputs = list(CSG_PROXY_OUTPUTS)
    spec = pk.ModelSpec(
        kind="builtin",
        name="csg-proxy",
        input_names=tuple(v.name for v in inputs),
        output_names=tuple(outputs),
    )

    strata = 10
    repeats = max(1, args.test_points // strata)
    design = pk.latin_hypercube(strata, len(inputs), repeats, args.seed)
    physical = unscale_points(design.points, inputs)
    truths = pk.BlackBoxModel(spec)(physical)

    methods = [
        ("sparse", pk.SparseGrid(4)),
        ("sparse", pk.SparseGrid(5)),
        ("full", pk.FullGrid(5)),
        ("full", pk.FullGrid(6)),
    ]
    print(f"validation at {len(physical)} LHS points (seed {args.seed})\n")
    header = f"{'method':>8} {'param':>5} {'evals':>6}"
    for name in outputs:
        header += f"  {'rmse_' + name:>18} {'rrmse_' + name:>19}"
    print(header)

    best = None
    for label, method in methods:
        model = pk.build_pce(pk.BlackBoxModel(spec), inputs, outputs, method)
        predictions = model.evaluate_batch(physical)
        row = (
            f"{label:>8} {model.build_meta['parameter']:>5} "
            f"{model.build_meta['evaluation_count']:>6}"
        )
        for j, name in enumerate(outputs):
            row += (
                f"  {pk.rmse(predictions[:, j], truths[:, j]):>18.6e}"
                f" {pk.rrmse(predictions[:, j], truths[:, j]):>19.6e}"
            )
        print(row)
        best = model

    print("\nsummary statistics (full grid, order 6)")
    started = time.perf_counter()
    values = best.evaluate_batch(physical)
    elapsed = time.perf_counter() - started
    mean, std = best.mean(), best.std_dev()
    for j, name in enumerate(outputs):
        p10, p50, p90 = percentile_values(values[:, j], [10, 50, 90])
        print(
            f"  {name}: mean={mean[j]:.4e} (analytic) sd={std[j]:.4e} (analytic) "
            f"p10={p10:.4e} p50={p50:.4e} p90={p90:.4e}"
        )
    print(f"  ({len(values)} surrogate evaluations took {elapsed:.3f} s)")

    print("\nsensitivity indices, main effects and totals per output")
    report = pk.full_report(best, max_subset_size=2)
    print(report.to_text())


if __name__ == "__main__":
    main()
