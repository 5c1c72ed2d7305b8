"""Quadrature rules on [-1, 1] and their full and sparse N-dimensional grids.

Two 1D families are provided:

* Gauss-Legendre with n nodes, exact for polynomials of degree 2n - 1.
  Nodes are the roots of L_n, found by Newton iteration on the basis's own
  recurrence (no tabulated nodes), then mirrored so the rule is exactly
  symmetric.
* Clenshaw-Curtis at level k with n_k nodes, where n_1 = 1 and
  n_k = 2^(k-1) + 1 for k >= 2.  Nodes are cosine-spaced, so the rules are
  nested: every node of level k reappears, bit-identically, at level k + 1.

Multi-dimensional grids are either full tensor products of Gauss-Legendre
rules or Smolyak sparse combinations of the nested Clenshaw-Curtis rules.
The sparse combination at level l sums signed tensor rules of levels e + 1
over the excess rows e >= 0 whose gap g = l - |e|_1 lies in [0, N), with
coefficient (-1)^g * C(N-1, g); it integrates every polynomial whose term
orders lie in the total-order neighbourhood of order 2l + 1 exactly.
Nesting puts every node it uses on the level-(l+1) rule, so the grid lives
on that rule's integer lattice (Gerstner & Griebel 1998): tensor points are
expanded as mixed-radix lattice keys, merged by key, never by comparing
floats, and decoded to lattice rows as a full grid's points are.  Weights
can be negative; one past the float range (tensor weights reach 2^N) is a
configuration error.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO

import numpy as np

from . import multiindex, polybasis
from .errors import ConfigurationError

MAX_GAUSS_NODES = 64
MAX_CC_LEVEL = 12

# Ceiling on grid sizes; protects against misconfigured builds.
POINT_COUNT_CAP = multiindex.POINT_COUNT_CAP


@dataclass(frozen=True)
class QuadratureRule1D:
    """A one-dimensional rule: strictly increasing nodes with matching weights."""

    nodes: np.ndarray
    weights: np.ndarray

    def __len__(self) -> int:
        return self.nodes.size


@dataclass(frozen=True)
class GridQuadrature:
    """An N-dimensional rule on a lattice over one 1D node table: point q is
    at nodes[lattice[q]], a row of node positions, and has a signed weight."""

    dim: int
    lattice: np.ndarray
    nodes: np.ndarray
    weights: np.ndarray

    @property
    def points(self) -> np.ndarray:
        """The (points, dim) coordinates, made afresh at each access."""
        return self.nodes[self.lattice]

    def __len__(self) -> int:
        return self.weights.size


def gauss_legendre_1d(n: int) -> QuadratureRule1D:
    """The n-node Gauss-Legendre rule on [-1, 1].

    Roots of L_n are found by Newton iteration from the Chebyshev-like
    initial guesses cos(pi (i - 1/4) / (n + 1/2)) to a tolerance of 1e-15,
    and weights are 2 / ((1 - x^2) L_n'(x)^2).  Only the non-negative half
    is iterated; the rule is assembled by exact mirroring, so symmetric
    monomials integrate to exactly zero.
    """
    if not 1 <= n <= MAX_GAUSS_NODES:
        raise ConfigurationError(
            f"Gauss-Legendre node count must be in [1, {MAX_GAUSS_NODES}], got {n}"
        )
    half = (n + 1) // 2
    i = np.arange(1, half + 1, dtype=float)
    x = np.cos(np.pi * (i - 0.25) / (n + 0.5))  # descending, all > 0 except a center ~0
    step = np.inf
    # Each pass takes L_{n-1} and L_n from the one recurrence and L_n' from
    # n (x L_n - L_{n-1}) / (x^2 - 1); the pass after the last Newton step
    # gives L_n' at the roots, for the weights.
    for _ in range(101):
        prev, value = polybasis.legendre_table(n, x)[n - 1:]
        deriv = n * (x * value - prev) / (x * x - 1.0)
        if np.max(np.abs(step)) < 1e-15:
            break
        step = value / deriv
        x -= step
    else:  # pragma: no cover - Newton on Legendre roots converges in < 10 steps
        raise ConfigurationError(f"Gauss-Legendre iteration failed to converge for n={n}")
    w = 2.0 / ((1.0 - x * x) * deriv * deriv)
    pairs = n // 2  # x descends, so -x[:pairs] ascends below 0
    return _mirrored(-x[:pairs], w[:pairs], w[pairs:half])


def cc_node_count(level: int) -> int:
    """Node count of the Clenshaw-Curtis rule at a level: 1, 3, 5, 9, 17, ...

    The single-node convention at level 1 is what makes the nested sparse
    grids below as small as they are.
    """
    if not 1 <= level <= MAX_CC_LEVEL:
        raise ConfigurationError(
            f"Clenshaw-Curtis level must be in [1, {MAX_CC_LEVEL}], got {level}"
        )
    return 1 if level == 1 else 2 ** (level - 1) + 1


def clenshaw_curtis_1d(level: int) -> QuadratureRule1D:
    """The nested Clenshaw-Curtis rule at a level.

    Nodes are -cos(j pi / m) for j = 0..m with m = n_k - 1, computed for
    the lower half only and mirrored, with the center forced to exactly
    0.0.  Mirroring keeps levels nested bit-for-bit: the arguments j pi / m
    halve exactly when the level increases, so shared nodes are identical
    floats, and point merging in sparse grids can use exact equality.
    Weights come from the standard cosine-sum formula.
    """
    count = cc_node_count(level)
    if count == 1:
        return QuadratureRule1D(np.array([0.0]), np.array([2.0]))

    m = count - 1  # number of intervals, a power of two
    j = np.arange(m // 2 + 1)

    # w_j = (c_j / m) (1 - sum_i b_i cos(2 i j pi / m) / (4 i^2 - 1)),
    # b_i = 1 at i = m/2 else 2, c_j = 1 at the endpoints else 2.
    i = np.arange(1, m // 2 + 1, dtype=float)
    b = np.where(i == m / 2, 1.0, 2.0)
    cosine_sum = np.cos(2.0 * np.outer(j, i) * np.pi / m) @ (b / (4.0 * i * i - 1.0))
    half_weights = (2.0 / m) * (1.0 - cosine_sum)
    half_weights[0] /= 2.0  # endpoint
    return _mirrored(-np.cos(j * np.pi / m)[:-1], half_weights[:-1], half_weights[-1:])


def _mirrored(below: np.ndarray, weights: np.ndarray, centre: np.ndarray) -> QuadratureRule1D:
    """The rule of ascending nodes `below` 0 and their weights, mirrored about
    a node at exactly 0.0 of weight `centre` (one value, or none)."""
    nodes = np.concatenate([below, np.zeros(len(centre)), -below[::-1]])
    return QuadratureRule1D(nodes, np.concatenate([weights, centre, weights[::-1]]))


@np.errstate(over="ignore")  # an overflowing weight is rejected below
def full_grid(dim: int, order: int) -> GridQuadrature:
    """Tensor product of (order + 1)-node Gauss-Legendre rules in each dimension.

    Has exactly (order + 1)^dim points and integrates every polynomial whose
    term orders lie in the tensor-product neighbourhood of order
    2 * order + 1 exactly.  Points ascend in lex order: point i is at i's base-(order + 1) digits.
    """
    if dim < 1:
        raise ConfigurationError(f"grid dimension must be >= 1, got {dim}")
    n1 = order + 1
    count = n1**dim
    if count > POINT_COUNT_CAP:
        raise ConfigurationError(
            f"full grid with order {order} in dimension {dim} has {count} points, "
            f"above the cap of {POINT_COUNT_CAP}"
        )
    rule = gauss_legendre_1d(n1)
    lattice = _decode(np.arange(count), n1, dim)
    weights = np.ones(count)
    for column in lattice.T:
        weights *= rule.weights[column]
    return _grid("full", dim, rule.nodes, lattice, weights)


def _tensor_point_count(dim: int, level: int) -> int:
    """Points summed over the Smolyak tensor terms, before merging, in exact
    integers: the coefficients of x^s, level - dim < s <= level, in
    (sum_e n_(e+1) x^e)^dim, the powers above level dropped as they come."""
    per_excess = [cc_node_count(e + 1) for e in range(level + 1)]
    ways = [1] + [0] * level
    for _ in range(dim):
        ways = [sum(ways[s - e] * per_excess[e] for e in range(s + 1)) for s in range(level + 1)]
    return sum(ways[max(level - dim + 1, 0):])


def _decode(keys: np.ndarray, radix: int, width: int, rankings=()) -> np.ndarray:
    """Lattice rows, `width` wide, of keys of base-radix digits over a rank.
    Keys hold the digits from the column of the last (table, column) pair of
    `rankings` on, and their rank indexes its table, whose keys are decoded
    the same way against the pair before; below the first, the rank is 0.
    Columns are decoded into contiguous rows, then transposed once, in the
    narrowest unsigned type that holds a digit."""
    columns = np.empty((width, len(keys)), dtype=np.min_scalar_type(radix - 1))
    for table, start in [*reversed(rankings), (None, 0)]:
        for column in range(width - 1, start - 1, -1):
            keys, columns[column] = np.divmod(keys, radix)
        if table is not None:
            keys, width = table[keys], start
    return np.ascontiguousarray(columns.T)


def _grid(family: str, dim: int, nodes: np.ndarray, lattice: np.ndarray, weights) -> GridQuadrature:
    """A family's grid of lattice rows over 1D nodes; its weights must be finite."""
    if not np.isfinite(weights).all():
        raise ConfigurationError(f"{family} grid weights pass the float range in dimension {dim}")
    return GridQuadrature(dim, lattice, nodes, weights)


@np.errstate(over="ignore", invalid="ignore")  # as in full_grid
def sparse_grid(dim: int, level: int) -> GridQuadrature:
    """Smolyak sparse grid over nested Clenshaw-Curtis rules, on an integer lattice.

    Every rule up to level + 1 has its nodes on the finest rule's, so a
    point is a row of lattice positions with a mixed-radix int64 key.  The
    tensor terms are expanded all at once, one dimension at a time, into
    keys and weights coeff * w_0 * w_1 * ...; weights of equal keys are
    summed in term order.  Points and weights equal, bit for bit, merging
    the float points one term at a time, and come out in ascending
    lexicographic order.  The cap bounds the points before merging, which
    size every array here, and is checked before any is allocated.
    """
    if dim < 1:
        raise ConfigurationError(f"grid dimension must be >= 1, got {dim}")
    if not 1 <= level <= 3 * dim:
        raise ConfigurationError(
            f"sparse level must be in [1, {3 * dim}] for dimension {dim} (the "
            f"regime where total-order exactness 2*level+1 holds), got {level}"
        )
    if level + 1 > MAX_CC_LEVEL:
        raise ConfigurationError(
            f"sparse level {level} needs 1D Clenshaw-Curtis level {level + 1}, "
            f"above the cap of {MAX_CC_LEVEL}"
        )
    count = _tensor_point_count(dim, level)
    if count > POINT_COUNT_CAP:
        raise ConfigurationError(
            f"sparse grid at level {level} in dimension {dim} has {count} tensor "
            f"points before merging, above the cap of {POINT_COUNT_CAP}"
        )

    # Row e: the level-(e + 1) rule's node count, lattice positions and weights.
    rules = [clenshaw_curtis_1d(e + 1) for e in range(level + 1)]
    radix = len(rules[-1])
    counts = np.array([len(rule) for rule in rules])
    lattice = np.zeros((level + 1, radix), dtype=np.int64)
    weight_table = np.zeros((level + 1, radix))
    for e, rule in enumerate(rules):
        lattice[e, :len(rule)] = np.searchsorted(rules[-1].nodes, rule.nodes)
        weight_table[e, :len(rule)] = rule.weights

    # The tensor terms' excess rows e (rule levels e + 1), shell by shell
    # and lexicographic within one: the total-order rows of order `level`
    # whose gap level - |e| is below dim.
    excess = multiindex.index_array(multiindex.Neighborhood(multiindex.TOTAL_ORDER, level, dim))
    gap = level - excess.sum(axis=1)
    excess, gap = excess[gap < dim], gap[gap < dim]
    coefficients = np.array([(-1.0) ** g * math.comb(dim - 1, g) for g in range(gap.max() + 1)])

    # Each row splits into one per node of its term's rule in the next
    # dimension, the last dimension fastest, as in a product over the axes.
    term, weight = np.arange(len(excess)), coefficients[gap]
    keys = np.zeros(len(excess), dtype=np.int64)
    rankings = []  # (ranked keys, j): later keys, digits from j on over a rank into them
    bound = 1  # every key is below it
    for j in range(dim):
        if bound * radix > np.iinfo(np.int64).max:
            # Another digit would overflow: rank the keys, keeping order.
            unique, keys = np.unique(keys, return_inverse=True)
            rankings.append((unique, j))
            keys, bound = keys.ravel(), len(unique)
        n = counts[excess[term, j]]
        parent = np.repeat(np.arange(len(term)), n)
        local = np.arange(len(parent)) - np.repeat(np.cumsum(n) - n, n)
        term = term[parent]
        e = excess[term, j]
        weight = weight[parent] * weight_table[e, local]
        keys = keys[parent] * radix + lattice[e, local]
        bound *= radix
    del term, parent, local, e  # only keys and weights go on to the merge

    unique, inverse = np.unique(keys, return_inverse=True)
    merged = np.zeros(len(unique))
    np.add.at(merged, inverse.ravel(), weight)
    return _grid("sparse", dim, rules[-1].nodes, _decode(unique, radix, dim, rankings), merged)


def write_grid_csv(grid: GridQuadrature, dest: IO[str]) -> None:
    """Write one row per point: the coordinates, then the weight.

    All values use 17 significant digits, which round-trips doubles exactly.
    """
    from .sampling import write_rows  # only the grid command writes a grid

    dest.write(",".join([f"x{j + 1}" for j in range(grid.dim)] + ["weight"]) + "\n")
    template = ",".join(["%.17g"] * (grid.dim + 1)) + "\n"
    write_rows(dest, template, list(grid.points.T) + [grid.weights])
