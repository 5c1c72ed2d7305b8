"""Direct, one-value-at-a-time implementations the tests use as oracles."""
import csv

import numpy as np

from pcekit.errors import ConfigurationError, EvaluationError
from pcekit.polybasis import DEGREE_CAP
from pcekit.quadrature import cc_node_count, gauss_legendre_1d


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


def rescale(v, var):
    """One input's physical value (or values) on [-1, 1]: 2 (v - min) / (max - min) - 1."""
    return 2.0 * (v - var.v_min) / (var.v_max - var.v_min) - 1.0


def unscale(xi, var):
    """Inverse of rescale: -1 maps to the input's min, +1 to its max."""
    return var.v_min + 0.5 * (xi + 1.0) * (var.v_max - var.v_min)


def meshgrid_full_grid(dim, order):
    """Points and weights of the full Gauss-Legendre grid through np.meshgrid:
    one array per axis, raveled with the last axis fastest."""
    rule = gauss_legendre_1d(order + 1)
    coord_grids = np.meshgrid(*([rule.nodes] * dim), indexing="ij")
    points = np.stack([g.ravel() for g in coord_grids], axis=1)
    weights = np.ones((order + 1) ** dim)
    for g in np.meshgrid(*([rule.weights] * dim), indexing="ij"):
        weights *= g.ravel()
    return points, weights


def tensor_point_count(dim, level):
    """Points summed over the Smolyak tensor terms before merging: the
    coefficients of (sum_k n_k x^k)^dim on the shells level+1..level+dim,
    every power of the product kept."""
    per_level = [0] + [cc_node_count(k) for k in range(1, level + 2)]
    ways = [1]
    for _ in range(dim):
        ways = [
            sum(ways[s - k] * n for k, n in enumerate(per_level) if 0 <= s - k < len(ways))
            for s in range(len(ways) + level + 1)
        ]
    return sum(ways[level + 1:level + dim + 1])


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


def latin_hypercube(strata, dim, repeats, seed):
    """Latin hypercube points, each column formed and scaled on its own as
    the draws come: per design and dimension a permutation of the strata,
    then an offset in each."""
    rng = np.random.Generator(np.random.PCG64(seed))
    points = np.empty((strata * repeats, dim))
    for r in range(repeats):
        for j in range(dim):
            cells = rng.permutation(strata)
            offsets = rng.random(strata)
            points[r * strata:(r + 1) * strata, j] = -1.0 + 2.0 * (cells + offsets) / strata
    return points


def write_cdf_csv(handle, names, ordered):
    """cdf.csv cell by cell through csv.writer: per output its sorted values
    and their cumulative probabilities k/n, each formatted on its own."""
    writer = csv.writer(handle)
    writer.writerow(sum(([f"{n}_value", f"{n}_cumulative_probability"] for n in names), []))
    count = len(ordered)
    for k, row in enumerate(ordered.tolist(), 1):
        writer.writerow(sum(([format(v, ".17g"), format(k / count, ".17g")] for v in row), []))


def write_rows(handle, template, columns):
    """Rows of equal-length columns through a %-template, one row at a
    time, each cell taken from its array on its own."""
    for k in range(len(columns[0])):
        handle.write(template % tuple(column[k].item() for column in columns))


def write_histogram_csv(handle, names, ordered, bins):
    """hist.csv cell by cell through csv.writer, each output's histogram
    spanning the least to the greatest of its samples."""
    writer = csv.writer(handle)
    writer.writerow(["output", "bin_left", "bin_right", "count"])
    for name, column in zip(names, ordered.T):
        counts, edges = np.histogram(column, bins=bins, range=(column.min(), column.max()))
        for left, right, count in zip(edges[:-1], edges[1:], counts):
            writer.writerow([name, format(left, ".17g"), format(right, ".17g"), int(count)])
