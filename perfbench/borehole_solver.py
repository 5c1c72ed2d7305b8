"""Borehole water-flow function as an external pcekit solver.

Harper & Gupta (1983), eight uniform inputs:

    flow = 2*pi*Tu*(Hu - Hl)
           / (ln(r/rw) * (1 + 2*L*Tu / (ln(r/rw)*rw^2*Kw) + Tu/Tl))

Usage: python3 borehole_solver.py COUNTER_FILE ARGFILE

Reads the pcekit argfile CSV (header = input names), writes a `flow`
column with 17 significant digits to stdout, and appends one line holding
the number of rows evaluated to COUNTER_FILE, so launches can be counted
from outside the program.
"""
import sys

import numpy as np

INPUTS = ("rw", "r", "Tu", "Hu", "Tl", "Hl", "L", "Kw")


def borehole(x: np.ndarray) -> np.ndarray:
    rw, r, tu, hu, tl, hl, length, kw = x.T
    log_ratio = np.log(r / rw)
    return (2.0 * np.pi * tu * (hu - hl)) / (
        log_ratio * (1.0 + 2.0 * length * tu / (log_ratio * rw**2 * kw) + tu / tl)
    )


def main(argv: list[str]) -> int:
    counter_path, argfile = argv
    with open(argfile, encoding="utf-8") as handle:
        header = handle.readline().strip().split(",")
        if tuple(header) != INPUTS:
            print(f"unexpected input header {header}", file=sys.stderr)
            return 1
        points = np.loadtxt(handle, delimiter=",", ndmin=2)
    flow = borehole(points)
    lines = ["flow"] + [format(v, ".17g") for v in flow]
    sys.stdout.write("\n".join(lines) + "\n")
    with open(counter_path, "a", encoding="utf-8") as handle:
        handle.write(f"{len(flow)}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
