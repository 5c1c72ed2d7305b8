import itertools
import tracemalloc

import numpy as np
import pytest

from pcekit import multiindex
from pcekit.errors import ConfigurationError
from pcekit.multiindex import (
    TENSOR_PRODUCT,
    TOTAL_ORDER,
    Neighborhood,
    cardinality,
    enumerate_indices,
    index_array,
)


def brute_force(nbhd):
    """Oracle: filter the full integer box."""
    box = itertools.product(range(nbhd.order + 1), repeat=nbhd.dim)
    if nbhd.kind == TOTAL_ORDER:
        return {idx for idx in box if sum(idx) <= nbhd.order}
    return set(box)


def compositions(total, parts):
    """All tuples of `parts` non-negative integers summing to `total`, in
    ascending lexicographic order."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def reference_enumeration(nbhd):
    """Oracle for the graded-lex order: compositions shell by shell for total
    order, a sorted integer box for the tensor product."""
    if nbhd.kind == TOTAL_ORDER:
        return [idx for total in range(nbhd.order + 1) for idx in compositions(total, nbhd.dim)]
    return sorted(
        itertools.product(range(nbhd.order + 1), repeat=nbhd.dim),
        key=lambda idx: (sum(idx), idx),
    )


@pytest.mark.parametrize("kind", [TOTAL_ORDER, TENSOR_PRODUCT])
@pytest.mark.parametrize("dim", range(1, 7))
def test_index_array_matches_reference_enumeration(kind, dim):
    for order in range(0, 7):
        nbhd = Neighborhood(kind, order, dim)
        members = index_array(nbhd)
        reference = reference_enumeration(nbhd)
        assert members.dtype == np.int64 and members.shape == (len(reference), dim)
        assert members.tolist() == [list(idx) for idx in reference]
        assert enumerate_indices(nbhd) == reference


def test_index_array_peak_memory_is_a_small_multiple_of_the_result():
    nbhd = Neighborhood(TOTAL_ORDER, 10, 10)
    tracemalloc.start()
    try:
        members = index_array(nbhd)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert members.shape == (184_756, 10)
    assert peak < 4 * members.nbytes


def test_total_order_small():
    members = enumerate_indices(Neighborhood(TOTAL_ORDER, 1, 2))
    assert set(members) == {(0, 0), (1, 0), (0, 1)}
    assert len(members) == 3


def test_tensor_product_small():
    members = enumerate_indices(Neighborhood(TENSOR_PRODUCT, 1, 2))
    assert set(members) == {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_total_order_count_matches_binomial_and_brute_force():
    nbhd = Neighborhood(TOTAL_ORDER, 6, 4)
    members = enumerate_indices(nbhd)
    assert len(members) == 210  # C(10, 4)
    assert set(members) == brute_force(nbhd)


@pytest.mark.parametrize("kind", [TOTAL_ORDER, TENSOR_PRODUCT])
@pytest.mark.parametrize("order", range(0, 5))
@pytest.mark.parametrize("dim", range(1, 5))
def test_cardinality_matches_enumeration(kind, order, dim):
    nbhd = Neighborhood(kind, order, dim)
    members = enumerate_indices(nbhd)
    assert cardinality(nbhd) == len(members)
    assert len(set(members)) == len(members)
    assert set(members) == brute_force(nbhd)


def test_known_cardinalities():
    assert cardinality(Neighborhood(TENSOR_PRODUCT, 5, 4)) == 1296
    assert cardinality(Neighborhood(TENSOR_PRODUCT, 0, 7)) == 1
    assert cardinality(Neighborhood(TOTAL_ORDER, 2, 3)) == 10


def test_graded_lex_order():
    members = enumerate_indices(Neighborhood(TOTAL_ORDER, 3, 3))
    assert members[0] == (0, 0, 0)
    assert members == sorted(members, key=lambda idx: (sum(idx), idx))
    assert members == enumerate_indices(Neighborhood(TOTAL_ORDER, 3, 3))  # stable


def test_total_order_is_subset_of_tensor_product():
    for order, dim in [(2, 2), (3, 3), (5, 2), (4, 4)]:
        total = set(enumerate_indices(Neighborhood(TOTAL_ORDER, order, dim)))
        tensor = set(enumerate_indices(Neighborhood(TENSOR_PRODUCT, order, dim)))
        assert total <= tensor


def test_count_cap_rejected(monkeypatch):
    with pytest.raises(ConfigurationError, match="cap"):
        cardinality(Neighborhood(TENSOR_PRODUCT, 30, 6))
    with pytest.raises(ConfigurationError, match="cap"):
        enumerate_indices(Neighborhood(TOTAL_ORDER, 40, 10))
    monkeypatch.setattr(multiindex, "INDEX_COUNT_CAP", 184_755)
    with pytest.raises(ConfigurationError, match="184756 members, above the cap of 184755"):
        index_array(Neighborhood(TOTAL_ORDER, 10, 10))


def test_invalid_construction():
    with pytest.raises(ConfigurationError):
        Neighborhood("diamond", 2, 2)
    with pytest.raises(ConfigurationError):
        Neighborhood(TOTAL_ORDER, -1, 2)
    with pytest.raises(ConfigurationError):
        Neighborhood(TOTAL_ORDER, 2, 0)
