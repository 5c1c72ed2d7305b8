"""Direct, one-value-at-a-time implementations the tests use as oracles."""
import csv

import numpy as np

from pcekit.errors import ConfigurationError, EvaluationError
from pcekit.polybasis import DEGREE_CAP


def legendre_eval(n, x, *, degree_cap=DEGREE_CAP):
    """The Legendre polynomial L_n at x (a scalar or an ndarray), by the
    upward three-term recurrence."""
    if n < 0:
        raise ConfigurationError(f"polynomial degree must be >= 0, got {n}")
    if n > degree_cap:
        raise ConfigurationError(f"polynomial degree {n} exceeds the cap of {degree_cap}")
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)

    prev = np.ones_like(arr)
    if n == 0:
        return float(prev[0]) if scalar else prev
    cur = arr.copy()
    for k in range(1, n):
        prev, cur = cur, ((2 * k + 1) * arr * cur - k * prev) / (k + 1)
    return float(cur[0]) if scalar else cur


def integrate(grid, f):
    """Weighted sum of f over the grid points, f called once per point;
    a failure is re-raised with the offending point attached."""
    values = np.empty(len(grid))
    for idx, point in enumerate(grid.points):
        try:
            values[idx] = f(point)
        except Exception as exc:
            raise EvaluationError(
                f"integrand evaluation failed at point {point.tolist()}: {exc}"
            ) from exc
    return float(values @ grid.weights)


def write_cdf_csv(handle, distributions, *, comments=None):
    """cdf.csv as sampling.write_cdf_csv wrote it before outputs of equal
    sample count shared one formatted k/n column: every cell of a row goes
    through one %.17g template, segment by segment."""
    for line in comments or ():
        handle.write(f"# {line}\n")
    names = list(distributions)
    header = sum(([f"{n}_value", f"{n}_cumulative_probability"] for n in names), [])
    csv.writer(handle).writerow(header)
    start = 0
    for stop in sorted({d.values.size for d in distributions.values()}):
        present = [distributions[n].values.size >= stop for n in names]
        template = ",".join("%.17g,%.17g" if p else "," for p in present) + "\r\n"
        columns = []
        for name, p in zip(names, present):
            if p:
                dist = distributions[name]
                ranks = np.arange(1, dist.values.size + 1) / dist.values.size
                columns += [dist.values[start:stop], ranks[start:stop]]
        handle.write("".join([template % row for row in zip(*[c.tolist() for c in columns])]))
        start = stop
