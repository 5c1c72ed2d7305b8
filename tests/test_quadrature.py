import io
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from pcekit import quadrature, sampling
from pcekit.errors import ConfigurationError, EvaluationError
from pcekit.quadrature import (
    clenshaw_curtis_1d,
    cc_node_count,
    full_grid,
    gauss_legendre_1d,
    sparse_grid,
    GridQuadrature,
    write_grid_csv,
)
from references import integrate, meshgrid_full_grid, tensor_point_count


def monomial_integral(degree):
    """Exact value of the integral of x^degree over [-1, 1]."""
    return 0.0 if degree % 2 else 2.0 / (degree + 1)


class TestGaussLegendre:
    def test_single_node(self):
        rule = gauss_legendre_1d(1)
        assert rule.nodes.tolist() == [0.0]
        assert rule.weights.tolist() == [2.0]

    def test_two_nodes(self):
        # roots of (3x^2 - 1)/2 are +-1/sqrt(3); weights follow from
        # exactness on 1 and x^2
        rule = gauss_legendre_1d(2)
        assert rule.nodes == pytest.approx([-1 / math.sqrt(3), 1 / math.sqrt(3)], abs=1e-15)
        assert rule.weights == pytest.approx([1.0, 1.0], abs=1e-15)

    def test_degree_eight_monomial_with_five_nodes(self):
        rule = gauss_legendre_1d(5)
        value = np.sum(rule.nodes**8 * rule.weights)
        assert value == pytest.approx(2.0 / 9.0, abs=1e-13)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_exactness_up_to_2n_minus_1(self, n):
        rule = gauss_legendre_1d(n)
        for degree in range(2 * n):
            value = np.sum(rule.nodes**degree * rule.weights)
            exact = monomial_integral(degree)
            assert value == pytest.approx(exact, rel=1e-12, abs=1e-12), (n, degree)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 20, 33, 64])
    def test_against_numpy_rule(self, n):
        rule = gauss_legendre_1d(n)
        nodes, weights = np.polynomial.legendre.leggauss(n)
        assert np.max(np.abs(rule.nodes - nodes)) < 1e-14
        assert np.max(np.abs(rule.weights - weights)) < 1e-13

    @pytest.mark.parametrize("n", range(1, 21))
    def test_structure(self, n):
        rule = gauss_legendre_1d(n)
        assert np.all(np.diff(rule.nodes) > 0)
        assert np.all(rule.weights > 0)
        assert abs(rule.weights.sum() - 2.0) < 1e-13

    def test_range_guard(self):
        with pytest.raises(ConfigurationError):
            gauss_legendre_1d(0)
        with pytest.raises(ConfigurationError):
            gauss_legendre_1d(65)


class TestClenshawCurtis:
    def test_level_one(self):
        rule = clenshaw_curtis_1d(1)
        assert rule.nodes.tolist() == [0.0]
        assert rule.weights.tolist() == [2.0]

    def test_level_two_nodes_and_weights(self):
        rule = clenshaw_curtis_1d(2)
        assert rule.nodes.tolist() == [-1.0, 0.0, 1.0]
        # hand evaluation of the cosine-sum formula (Simpson-like rule)
        assert rule.weights == pytest.approx([1 / 3, 4 / 3, 1 / 3], abs=1e-15)

    def test_level_three_nodes(self):
        rule = clenshaw_curtis_1d(3)
        r = math.sqrt(0.5)
        assert rule.nodes == pytest.approx([-1.0, -r, 0.0, r, 1.0], abs=1e-16)
        assert abs(rule.weights.sum() - 2.0) < 1e-14

    def test_node_counts(self):
        assert [cc_node_count(k) for k in range(1, 7)] == [1, 3, 5, 9, 17, 33]

    @pytest.mark.parametrize("level", range(1, 11))
    def test_nested_bit_exact(self, level):
        coarse = clenshaw_curtis_1d(level).nodes
        fine = set(clenshaw_curtis_1d(level + 1).nodes.tolist())
        assert set(coarse.tolist()) <= fine

    @pytest.mark.parametrize("level", range(1, 8))
    def test_exactness_at_declared_degree(self, level):
        # An odd node count and a symmetric rule integrate degree len(rule) too.
        rule = clenshaw_curtis_1d(level)
        for degree in range(len(rule) + 1):
            value = np.sum(rule.nodes**degree * rule.weights)
            assert value == pytest.approx(
                monomial_integral(degree), rel=1e-12, abs=1e-12
            ), (level, degree)

    def test_symmetry_is_exact(self):
        rule = clenshaw_curtis_1d(5)
        assert np.array_equal(rule.nodes, -rule.nodes[::-1])
        assert np.array_equal(rule.weights, rule.weights[::-1])

    def test_range_guard(self):
        with pytest.raises(ConfigurationError):
            clenshaw_curtis_1d(0)
        with pytest.raises(ConfigurationError):
            clenshaw_curtis_1d(13)


class TestFullGrid:
    def test_point_counts(self):
        assert len(full_grid(4, 5)) == 1296
        assert len(full_grid(4, 6)) == 2401

    @pytest.mark.parametrize("dim", range(1, 6))
    @pytest.mark.parametrize("order", range(0, 7))
    def test_point_count_closed_form(self, dim, order):
        if (order + 1) ** dim > 20000:
            pytest.skip("covered by the smaller cases")
        grid = full_grid(dim, order)
        assert len(grid) == (order + 1) ** dim
        assert len({tuple(p) for p in grid.points}) == len(grid)

    def test_trivial_grid(self):
        grid = full_grid(1, 0)
        assert grid.points.tolist() == [[0.0]]
        assert grid.weights.tolist() == [2.0]

    def test_weight_sum_is_volume(self):
        for dim, order in [(1, 3), (2, 2), (3, 4), (4, 5)]:
            grid = full_grid(dim, order)
            assert abs(grid.weights.sum() - 2.0**dim) < 1e-10

    def test_points_are_lexicographically_sorted(self):
        grid = full_grid(2, 2)
        rows = [tuple(row) for row in grid.points]
        assert rows == sorted(rows)

    def test_mixed_monomial(self):
        grid = full_grid(2, 2)
        value = np.sum(grid.points[:, 0] ** 2 * grid.points[:, 1] ** 2 * grid.weights)
        assert value == pytest.approx(4.0 / 9.0, abs=1e-13)

    def test_tensor_exactness(self):
        # every monomial with per-dimension degree <= 2p+1 is exact
        order = 2
        grid = full_grid(2, order)
        for dx in range(2 * order + 2):
            for dy in range(2 * order + 2):
                value = np.sum(
                    grid.points[:, 0] ** dx * grid.points[:, 1] ** dy * grid.weights
                )
                exact = monomial_integral(dx) * monomial_integral(dy)
                assert value == pytest.approx(exact, abs=1e-12), (dx, dy)

    def test_cap(self):
        with pytest.raises(ConfigurationError, match="cap"):
            full_grid(6, 30)

    @pytest.mark.parametrize("dim", range(1, 7))
    def test_bit_identical_to_meshgrid(self, dim):
        for order in range(0, 7):
            points, weights = meshgrid_full_grid(dim, order)
            grid = full_grid(dim, order)
            assert grid.points.flags.c_contiguous
            assert grid.points.shape == points.shape
            assert grid.points.tobytes() == points.tobytes()
            assert grid.weights.tobytes() == weights.tobytes()

    def test_weights_past_the_float_range(self):
        # one point with weight 2^dim: finite at 1023 inputs, not at 1024
        assert full_grid(1023, 0).weights.tolist() == [2.0**1023]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigurationError, match="float range in dimension 1024"):
                full_grid(1024, 0)


class TestSparseGrid:
    def test_known_point_counts(self):
        assert len(sparse_grid(4, 4)) == 401
        assert len(sparse_grid(4, 5)) == 1105

    def test_nested_grids(self):
        coarse = {tuple(p) for p in sparse_grid(4, 4).points}
        fine = {tuple(p) for p in sparse_grid(4, 5).points}
        assert coarse <= fine

    @pytest.mark.parametrize("dim,level", [(1, 1), (1, 2), (1, 3)])
    def test_one_dimensional_collapse(self, dim, level):
        grid = sparse_grid(dim, level)
        rule = clenshaw_curtis_1d(level + 1)
        assert np.array_equal(grid.points[:, 0], rule.nodes)
        assert np.allclose(grid.weights, rule.weights, atol=1e-14)

    @pytest.mark.parametrize(
        "dim,level",
        [(d, l) for d in range(1, 6) for l in range(1, 6) if l <= 3 * d],
    )
    def test_point_count_matches_union_oracle(self, dim, level):
        # oracle: the distinct points are the union of the tensor grids of
        # all rule-level combinations in the combination range
        union = set()
        for shell in range(level + 1, level + dim + 1):
            for k in itertools.product(range(1, shell + 1), repeat=dim):
                if sum(k) != shell:
                    continue
                axes = [clenshaw_curtis_1d(kj).nodes for kj in k]
                union.update(itertools.product(*(axis.tolist() for axis in axes)))
        assert len(sparse_grid(dim, level)) == len(union)

    def test_weight_sum_is_volume(self):
        for dim, level in [(2, 2), (3, 3), (4, 4)]:
            grid = sparse_grid(dim, level)
            assert abs(grid.weights.sum() - 2.0**dim) < 1e-10

    def test_total_order_exactness(self):
        level = 2
        grid = sparse_grid(3, level)
        for degrees in itertools.product(range(2 * level + 2), repeat=3):
            if sum(degrees) > 2 * level + 1:
                continue
            value = np.sum(np.prod(grid.points ** np.array(degrees), axis=1) * grid.weights)
            exact = math.prod(monomial_integral(d) for d in degrees)
            assert value == pytest.approx(exact, abs=1e-10), degrees

    def test_level_guards(self):
        with pytest.raises(ConfigurationError):
            sparse_grid(2, 0)
        with pytest.raises(ConfigurationError, match="exactness"):
            sparse_grid(2, 7)


def compositions(total, parts):
    """Tuples of `parts` integers >= 1 summing to `total`, lexicographically."""
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def dict_merge_sparse_grid(dim, level):
    """Reference: the Smolyak grid merged point by point through a dict of
    float tuples, weights summed in term order, points sorted at the end."""
    rules = {k: clenshaw_curtis_1d(k) for k in range(1, level + 2)}
    merged = {}
    for shell in range(level + 1, level + dim + 1):
        coeff = (-1.0) ** (level + dim - shell) * math.comb(dim - 1, level + dim - shell)
        for k in compositions(shell, dim):
            for combo in itertools.product(*(range(len(rules[kj])) for kj in k)):
                point = tuple(rules[kj].nodes[c] for kj, c in zip(k, combo))
                w = coeff
                for kj, c in zip(k, combo):
                    w *= rules[kj].weights[c]
                merged[point] = merged.get(point, 0.0) + w
    ordered = sorted(merged.items())
    return np.array([p for p, _ in ordered]), np.array([w for _, w in ordered])


def tensor_points_oracle(dim, level):
    return sum(
        math.prod(cc_node_count(kj) for kj in k)
        for shell in range(level + 1, level + dim + 1)
        for k in compositions(shell, dim)
    )


class TestLatticeSparseGrid:
    @pytest.mark.parametrize(
        "dim,level",
        [(d, l) for d in range(1, 7) for l in range(1, min(3 * d, 6) + 1)]
        # wide grids whose lattice keys outgrow one int64 and get ranked,
        # once and (80, 1) and (60, 2) twice
        + [(40, 1), (28, 2), (80, 1), (60, 2)],
    )
    def test_bit_identical_to_dict_merge(self, dim, level):
        points, weights = dict_merge_sparse_grid(dim, level)
        grid = sparse_grid(dim, level)
        assert np.array_equal(grid.points, points)
        assert np.array_equal(grid.weights, weights)

    @pytest.mark.parametrize("dim,level", [(1, 3), (2, 4), (3, 5), (4, 3)])
    def test_tensor_point_count(self, dim, level, monkeypatch):
        count = tensor_points_oracle(dim, level)
        monkeypatch.setattr(quadrature, "POINT_COUNT_CAP", count)
        assert len(sparse_grid(dim, level)) <= count
        monkeypatch.setattr(quadrature, "POINT_COUNT_CAP", count - 1)
        with pytest.raises(ConfigurationError, match="before merging"):
            sparse_grid(dim, level)

    def test_cap_counts_points_before_merging(self, monkeypatch):
        # 15713 merged points come from 101575 tensor points
        monkeypatch.setattr(quadrature, "POINT_COUNT_CAP", 101_575)
        assert len(sparse_grid(8, 5)) == 15713
        monkeypatch.setattr(quadrature, "POINT_COUNT_CAP", 101_574)
        with pytest.raises(ConfigurationError, match="101575 tensor points .* cap of 101574"):
            sparse_grid(8, 5)

    @pytest.mark.parametrize("dim", range(1, 31))
    def test_tensor_point_count_equals_whole_polynomial_count(self, dim):
        for level in range(1, 12):
            assert quadrature._tensor_point_count(dim, level) == tensor_point_count(dim, level)

    def test_level_one_count_in_many_dimensions(self):
        # the centre term and one three-point term per axis: 3 * dim + 1
        assert quadrature._tensor_point_count(5000, 1) == 15_001

    def test_cap_is_checked_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(ConfigurationError, match="cap"):
                sparse_grid(12, 11)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestIntegrate:
    def test_constant_over_cube(self):
        assert integrate(full_grid(3, 1), lambda p: 1.0) == pytest.approx(8.0)

    def test_odd_function_vanishes(self):
        for grid in [full_grid(2, 3), sparse_grid(2, 3)]:
            assert abs(integrate(grid, lambda p: p[0] ** 3)) < 1e-13

    def test_mixed_polynomial(self):
        value = integrate(full_grid(2, 2), lambda p: p[0] ** 2 * p[1] ** 2)
        assert value == pytest.approx(4.0 / 9.0, abs=1e-13)

    def test_failure_reports_point(self):
        def bad(point):
            if point[0] > 0.5:
                raise ValueError("boom")
            return 1.0

        with pytest.raises(EvaluationError, match="point"):
            integrate(full_grid(1, 4), bad)


def test_csv_export_round_trips():
    grid = sparse_grid(2, 2)
    buffer = io.StringIO()
    write_grid_csv(grid, buffer)
    lines = buffer.getvalue().strip().splitlines()
    assert lines[0] == "x1,x2,weight"
    assert len(lines) == len(grid) + 1
    parsed = np.array([[float(cell) for cell in line.split(",")] for line in lines[1:]])
    assert np.array_equal(parsed[:, :2], grid.points)
    assert np.array_equal(parsed[:, 2], grid.weights)


def per_cell_grid_csv(grid):
    """The grid CSV with every cell formatted on its own."""
    lines = [",".join([f"x{j + 1}" for j in range(grid.dim)] + ["weight"])]
    for point, weight in zip(grid.points, grid.weights):
        lines.append(",".join([format(c, ".17g") for c in point] + [format(weight, ".17g")]))
    return "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("block_rows", [3, 4096])
def test_csv_export_matches_per_cell_rendering(monkeypatch, block_rows):
    monkeypatch.setattr(sampling, "CSV_BLOCK_ROWS", block_rows)
    odd = np.array([
        [-0.0, 5e-324, 1.0 / 3.0],
        [1e300, -2.0 / 3.0, 0.1],
        [np.inf, -np.inf, np.nan],
        [1.0, -1.0, 123456789.125],
    ])
    # odd's points on a lattice with a node of their own per coordinate
    odd_grid = GridQuadrature(2, np.arange(8).reshape(4, 2), odd[:, :2].ravel(), odd[:, 2])
    grids = [sparse_grid(3, 3), full_grid(2, 4), odd_grid]
    for grid in grids:
        buffer = io.StringIO(newline="")
        write_grid_csv(grid, buffer)
        assert buffer.getvalue() == per_cell_grid_csv(grid)
