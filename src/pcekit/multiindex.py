"""Multi-index neighbourhoods: enumeration and cardinality.

A multi-index is a row of per-dimension polynomial degrees, and a
neighbourhood's members form one (terms, dim) int64 array.  Two families of
neighbourhoods are supported:

* total-order:    all indices whose component sum is at most p;
* tensor-product: all indices whose every component is at most p.

Enumeration is in graded-lexicographic order (sorted by component sum,
ties broken lexicographically) so that coefficient vectors, serialized
models, and test goldens are reproducible, with the all-zero index always
first.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

TOTAL_ORDER = "total-order"
TENSOR_PRODUCT = "tensor-product"

# Reject configurations that would enumerate absurdly many indices before
# any memory is committed.
INDEX_COUNT_CAP = 10_000_000
# The same for grid points, and for every other array size a config or the
# command line sets (quadrature and config read it from here).
POINT_COUNT_CAP = 10_000_000


@dataclass(frozen=True)
class Neighborhood:
    """A family of multi-indices of a given kind, order, and dimension."""

    kind: str
    order: int
    dim: int

    def __post_init__(self) -> None:
        if self.kind not in (TOTAL_ORDER, TENSOR_PRODUCT):
            raise ConfigurationError(
                f"unknown neighbourhood kind {self.kind!r}; "
                f"expected {TOTAL_ORDER!r} or {TENSOR_PRODUCT!r}"
            )
        if self.order < 0:
            raise ConfigurationError(f"neighbourhood order must be >= 0, got {self.order}")
        if self.dim < 1:
            raise ConfigurationError(f"neighbourhood dim must be >= 1, got {self.dim}")


def cardinality(nbhd: Neighborhood) -> int:
    """Number of members, from the closed forms C(p+N, N) and (p+1)^N.

    Python integers do not overflow, so the count is exact; counts above
    INDEX_COUNT_CAP are rejected to catch runaway configurations early.
    """
    if nbhd.kind == TOTAL_ORDER:
        count = math.comb(nbhd.order + nbhd.dim, nbhd.dim)
    else:
        count = (nbhd.order + 1) ** nbhd.dim
    if count > INDEX_COUNT_CAP:
        raise ConfigurationError(
            f"{nbhd.kind} neighbourhood with order {nbhd.order} in dimension "
            f"{nbhd.dim} has {count} members, above the cap of {INDEX_COUNT_CAP}"
        )
    return count


def index_array(nbhd: Neighborhood) -> np.ndarray:
    """All members of the neighbourhood as a (terms, dim) int64 array, each
    exactly once, in graded-lex order.

    The count is checked against the cap before anything is allocated.
    Members grow one dimension at a time: each prefix gets one child per
    degree it still allows in the next dimension (order + 1 for a tensor
    product, order - sum + 1 for total order).  Keeping only each child's
    parent and degree makes the work linear in dim; the rows are read back
    from the last children up and put in order by one stable lexsort.
    """
    count = cardinality(nbhd)
    sums = np.zeros(1, dtype=np.int64)
    steps = []  # per dimension: each child's parent and its degree there
    for _ in range(nbhd.dim):
        room = nbhd.order + 1 - sums * (nbhd.kind == TOTAL_ORDER)
        parent = np.repeat(np.arange(len(sums)), room)
        degrees = np.arange(len(parent)) - (np.cumsum(room) - room)[parent]
        steps.append((parent, degrees))
        sums = sums[parent] + degrees
    assert len(sums) == count
    rows = np.empty((count, nbhd.dim), dtype=np.int64)
    member = np.arange(count)  # each row's ancestor in the set being read
    for j, (parent, degrees) in reversed(list(enumerate(steps))):
        rows[:, j] = degrees[member]
        member = parent[member]
    return rows[np.lexsort(tuple(rows.T[::-1]) + (sums,))]


def enumerate_indices(nbhd: Neighborhood) -> list[tuple[int, ...]]:
    """The rows of index_array as tuples of Python ints, in the same order."""
    return list(map(tuple, index_array(nbhd).tolist()))
