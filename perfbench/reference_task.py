"""Fixed reference task: the benchmark's gauge of the machine's current speed.

Usage: python3 reference_task.py

Every pcekit CLI command is a fresh interpreter that imports numpy, runs
Python loops and calls BLAS.  This task does the same kinds of work in a
fixed amount and does not touch pcekit, so its wall time moves only with
the speed of the machine.  run.py runs it after every timed command and
scales the command times by it.
"""
import sys

import numpy as np


def main() -> int:
    cells = [format(i * 1.5, ".17g") for i in range(20000)]
    matrix = np.full((300, 300), 1.0 / 300.0)
    total = float((matrix @ matrix).sum())
    # A wrong answer means the task did not do its work.
    if len(",".join(cells)) != 132591 or abs(total - 300.0) > 1e-6:
        print(f"reference task computed a wrong result ({total})", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
