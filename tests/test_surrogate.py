import io
import json
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

import pcekit.surrogate as surrogate
from pcekit.blackbox import CSG_PROXY_INPUTS, CSG_PROXY_OUTPUTS, BlackBoxModel, ModelSpec
from pcekit.errors import ConfigurationError, EvaluationError, ModelFormatError
from pcekit.multiindex import (
    TENSOR_PRODUCT,
    TOTAL_ORDER,
    Neighborhood,
    enumerate_indices,
    index_array,
)
from pcekit.quadrature import full_grid, sparse_grid
from pcekit.sampling import latin_hypercube
from pcekit.surrogate import (
    FullGrid,
    InputVariable,
    PceModel,
    SparseGrid,
    build_pce,
    load,
    save,
    unscale_points,
)
import references
from references import integrate, legendre_eval

UNIT_SQUARE = [InputVariable("x1", -1.0, 1.0), InputVariable("x2", -1.0, 1.0)]


def example_model_1():
    spec = ModelSpec(
        kind="builtin", name="sobol-example-1",
        input_names=("x1", "x2"), output_names=("value",),
    )
    return BlackBoxModel(spec)


def example_model_2():
    spec = ModelSpec(
        kind="builtin", name="sobol-example-2",
        input_names=("x1", "x2"), output_names=("value",),
    )
    return BlackBoxModel(spec)


def projection_oracle(func, index, nodes=24):
    """Dense-quadrature projection of a 2D callable onto one basis term."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    total = 0.0
    for xi1, w1 in zip(x, w):
        for xi2, w2 in zip(x, w):
            basis = legendre_eval(index[0], xi1) * legendre_eval(index[1], xi2)
            total += func(xi1, xi2) * basis * w1 * w2
    return (2 * index[0] + 1) * (2 * index[1] + 1) / 4.0 * total


def rescale(values, var):
    """The physical values of one input on [-1, 1], through the array map."""
    return surrogate._unit_columns(np.reshape(values, (-1, 1)), [var])[0]


def unscale(values, var):
    """Values of one input on [-1, 1] in physical units, through the array map."""
    return unscale_points(np.reshape(values, (-1, 1)), [var])[:, 0]


class TestRescaling:
    def test_endpoints(self):
        var = InputVariable("k", 10.0, 1000.0)
        assert rescale([10.0, 1000.0], var).tolist() == [-1.0, 1.0]
        assert unscale([-1.0, 1.0], var).tolist() == [10.0, 1000.0]

    def test_midpoints(self):
        assert rescale(505.0, InputVariable("k", 10.0, 1000.0)).tolist() == [0.0]
        assert unscale(0.0, InputVariable("phi", 0.005, 0.05))[0] == pytest.approx(0.0275)

    @given(st.floats(min_value=0.005, max_value=0.05, allow_nan=False))
    def test_round_trip(self, v):
        var = InputVariable("phi", 0.005, 0.05)
        assert unscale(rescale(v, var), var)[0] == pytest.approx(v, rel=1e-12)

    def test_out_of_range_maps_outside(self):
        low, high = rescale([-5.0, 20.0], InputVariable("k", 0.0, 10.0))
        assert low < -1.0 and high > 1.0

    def test_maps_match_the_per_variable_formulas_bit_for_bit(self):
        # references.rescale and unscale are the per-variable maps the array
        # maps replaced; per value, at the range ends, inside, outside and at
        # -0.0, in each direction.
        inputs = [InputVariable(n, lo, hi) for n, lo, hi in CSG_PROXY_INPUTS]
        inputs += [InputVariable("s", -3.0, 7.5), InputVariable("z", -0.0, 1e-300)]
        rng = np.random.Generator(np.random.PCG64(5))
        unit = np.concatenate([[-1.0, 1.0, -0.0, 0.0, -1.5, 2.0, -1e300], rng.uniform(-1, 1, 60)])
        xi = np.column_stack([np.roll(unit, j) for j in range(len(inputs))])
        physical = unscale_points(xi, inputs)
        expected = [
            [references.unscale(x, var) for x in column] for column, var in zip(xi.T, inputs)
        ]
        assert physical.flags.c_contiguous and physical.shape == xi.shape
        assert physical.tobytes() == np.array(expected).T.tobytes()

        ends = np.array([[var.v_min, var.v_max] for var in inputs])
        values = np.column_stack([ends, -ends, -0.0 * ends, 0.5 * ends]).T.copy()
        values = np.vstack([values, physical])
        columns = surrogate._unit_columns(values, inputs)
        expected = [
            [references.rescale(v, var) for v in column] for column, var in zip(values.T, inputs)
        ]
        assert columns.flags.c_contiguous and columns.shape == values.T.shape
        assert columns.tobytes() == np.array(expected).tobytes()

    def test_points_must_match_the_declared_inputs(self):
        for points in (np.zeros((4, 3)), np.zeros(3)):
            for scale in (unscale_points, surrogate._unit_columns):
                with pytest.raises(ConfigurationError, match="3 columns but 2 inputs"):
                    scale(points, UNIT_SQUARE)

    def test_degenerate_range_rejected(self):
        with pytest.raises(ConfigurationError, match="strictly below"):
            InputVariable("flat", 3.0, 3.0)
        with pytest.raises(ConfigurationError):
            InputVariable("swapped", 2.0, 1.0)


class TestBuild:
    def test_sum_of_squares_coefficients(self):
        # x^2 = (2 L_2(x) + 1) / 3, so x1^2 + x2^2 has coefficients
        # 2/3 at (0,0), (2,0), (0,2) and nothing else
        model = build_pce(example_model_1(), UNIT_SQUARE, ["value"], FullGrid(2))
        assert model.neighborhood == Neighborhood(TENSOR_PRODUCT, 2, 2)
        coeffs = dict(zip(map(tuple, model.indices.tolist()), model.coefficients))
        for index, expected in [((0, 0), 2 / 3), ((2, 0), 2 / 3), ((0, 2), 2 / 3)]:
            assert coeffs[index][0] == pytest.approx(expected, abs=1e-12)
        for index, values in coeffs.items():
            if index not in {(0, 0), (2, 0), (0, 2)}:
                assert values[0] == 0.0

    def test_constant_model(self):
        spec = ModelSpec(
            kind="builtin", name="constant",
            input_names=("a", "b", "c"), output_names=("y",),
            parameters={"values": [7.5]},
        )
        inputs = [InputVariable(n, 0.0, 1.0) for n in "abc"]
        model = build_pce(BlackBoxModel(spec), inputs, ["y"], FullGrid(2))
        assert model.coefficients[0, 0] == pytest.approx(7.5)
        assert np.all(model.coefficients[1:] == 0.0)
        assert model.variance()[0] == pytest.approx(0.0, abs=1e-20)

    def test_cubic_plus_linear_on_sparse_grid(self):
        # oracle first: project x1^3 + x2 by dense quadrature, then compare
        # with the hand expansion x^3 = (2 L_3 + 3 L_1) / 5
        func = lambda x1, x2: x1**3 + x2
        oracle = {
            (1, 0): projection_oracle(func, (1, 0)),
            (3, 0): projection_oracle(func, (3, 0)),
            (0, 1): projection_oracle(func, (0, 1)),
        }
        assert oracle[(1, 0)] == pytest.approx(3 / 5, abs=1e-12)
        assert oracle[(3, 0)] == pytest.approx(2 / 5, abs=1e-12)
        assert oracle[(0, 1)] == pytest.approx(1.0, abs=1e-12)

        model = build_pce(example_model_2(), UNIT_SQUARE, ["value"], SparseGrid(3))
        assert model.neighborhood == Neighborhood(TOTAL_ORDER, 3, 2)
        coeffs = dict(zip(map(tuple, model.indices.tolist()), model.coefficients))
        for index, expected in oracle.items():
            assert coeffs[index][0] == pytest.approx(expected, abs=1e-12)
        untouched = set(coeffs) - set(oracle)
        assert all(coeffs[index][0] == 0.0 for index in untouched)

    def test_sparse_evaluation_count(self):
        inputs = [InputVariable(f"v{j}", -1.0, 1.0) for j in range(4)]
        spec = ModelSpec(
            kind="builtin", name="constant",
            input_names=tuple(v.name for v in inputs), output_names=("y",),
            parameters={"values": [1.0]},
        )
        box = BlackBoxModel(spec)
        model = build_pce(box, inputs, ["y"], SparseGrid(4))
        assert model.build_meta["evaluation_count"] == 401
        assert box.fresh_count == 401

    def test_physical_units_reach_the_model(self):
        seen = []

        def record(points):
            seen.append(points.copy())
            return points[:, :1] * 0.0 + 1.0

        inputs = [InputVariable("k", 100.0, 200.0), InputVariable("phi", 0.1, 0.2)]
        build_pce(record, inputs, ["y"], FullGrid(1))
        points = seen[0]
        assert points[:, 0].min() >= 100.0 and points[:, 0].max() <= 200.0
        assert points[:, 1].min() >= 0.1 and points[:, 1].max() <= 0.2

    def test_bad_output_shape_rejected(self):
        with pytest.raises(ConfigurationError, match="shape"):
            build_pce(
                lambda pts: np.ones((len(pts), 3)), UNIT_SQUARE, ["value"], FullGrid(1)
            )

    def test_non_finite_output_names_the_point(self):
        def blows_up(points):
            values = points[:, :1] * 1.0
            values[points[:, 0] > 0.5] = np.nan
            return values

        inputs = [InputVariable("k", 0.0, 1.0), InputVariable("phi", 0.0, 1.0)]
        with pytest.raises(EvaluationError, match=r"non-finite value at point \[0\.[5-9]"):
            build_pce(blows_up, inputs, ["y"], FullGrid(2))

    def test_duplicate_names_rejected(self):
        with pytest.raises(ConfigurationError, match="unique"):
            build_pce(
                lambda pts: np.ones((len(pts), 1)),
                [InputVariable("x", -1, 1), InputVariable("x", 0, 2)],
                ["value"],
                FullGrid(1),
            )


class TestMoments:
    def test_sum_of_squares(self):
        model = build_pce(example_model_1(), UNIT_SQUARE, ["value"], FullGrid(3))
        assert model.mean()[0] == pytest.approx(2 / 3, abs=1e-12)
        assert model.variance()[0] == pytest.approx(8 / 45, abs=1e-12)

    def test_cubic_plus_linear(self):
        model = build_pce(example_model_2(), UNIT_SQUARE, ["value"], FullGrid(3))
        assert model.mean()[0] == pytest.approx(0.0, abs=1e-13)
        assert model.variance()[0] == pytest.approx(10 / 21, abs=1e-12)

    def test_mean_matches_direct_quadrature(self):
        box = example_model_1()
        model = build_pce(box, UNIT_SQUARE, ["value"], FullGrid(3))
        grid = full_grid(2, 3)
        direct = integrate(grid, lambda p: float(box(p[None, :])[0, 0]) / 4.0)
        assert abs(model.mean()[0] - direct) < 1e-10


class TestEvaluate:
    def test_constant_everywhere(self):
        spec = ModelSpec(
            kind="builtin", name="constant",
            input_names=("a", "b"), output_names=("y",), parameters={"values": [3.25]},
        )
        model = build_pce(BlackBoxModel(spec), UNIT_SQUARE, ["y"], FullGrid(2))
        for point in [(-1.0, -1.0), (0.0, 0.4), (0.9, -0.2)]:
            assert model.evaluate(point)[0] == pytest.approx(3.25, abs=1e-12)

    def test_corner_value(self):
        model = build_pce(example_model_1(), UNIT_SQUARE, ["value"], FullGrid(3))
        assert model.evaluate((1.0, 1.0))[0] == pytest.approx(2.0, abs=1e-10)

    def test_batch_matches_single_point(self):
        model = build_pce(example_model_2(), UNIT_SQUARE, ["value"], FullGrid(4))
        rng = np.random.Generator(np.random.PCG64(11))
        points = rng.uniform(-1, 1, size=(50, 2))
        batch = model.evaluate_batch(points)
        singles = np.array([model.evaluate(p) for p in points])
        assert np.allclose(batch, singles, rtol=1e-12, atol=1e-14)

    def test_scaled_points_skip_the_unit_round_trip(self):
        inputs = [InputVariable(n, lo, hi) for n, lo, hi in CSG_PROXY_INPUTS]
        spec = ModelSpec(
            kind="builtin", name="csg-proxy",
            input_names=tuple(var.name for var in inputs), output_names=CSG_PROXY_OUTPUTS,
        )
        model = build_pce(BlackBoxModel(spec), inputs, CSG_PROXY_OUTPUTS, FullGrid(3))
        design = latin_hypercube(500, 4, 1, 7).points
        scaled = model.evaluate_scaled(design)
        round_trip = model.evaluate_batch(surrogate.unscale_points(design, inputs))
        assert np.all(np.abs(scaled - round_trip) <= 1e-12 * np.abs(round_trip))
        # evaluate_batch is evaluate_scaled after the per-variable rescale, bit for bit
        physical = surrogate.unscale_points(design, inputs)
        xi = np.column_stack(
            [references.rescale(column, var) for column, var in zip(physical.T, inputs)]
        )
        assert model.evaluate_scaled(xi).tobytes() == model.evaluate_batch(physical).tobytes()
        with pytest.raises(ConfigurationError, match="columns"):
            model.evaluate_scaled(design[:, :3])

    def test_dimension_mismatch(self):
        model = build_pce(example_model_1(), UNIT_SQUARE, ["value"], FullGrid(1))
        with pytest.raises(ConfigurationError):
            model.evaluate((0.0, 0.0, 0.0))

    def test_polynomial_reproduction_quick(self):
        rng = np.random.Generator(np.random.PCG64(3))
        inputs = [InputVariable("a", 2.0, 5.0), InputVariable("b", -3.0, -1.0)]
        nbhd = Neighborhood(TENSOR_PRODUCT, 3, 2)
        terms = [
            {"orders": list(idx), "coefficients": [float(c)]}
            for idx, c in zip(enumerate_indices(nbhd), rng.normal(size=16))
        ]
        spec = ModelSpec(
            kind="builtin", name="polynomial",
            input_names=("a", "b"), output_names=("y",),
            parameters={
                "terms": terms,
                "variables": [[2.0, 5.0], [-3.0, -1.0]],
            },
        )
        box = BlackBoxModel(spec)
        model = build_pce(box, inputs, ["y"], FullGrid(3))
        points = np.column_stack([rng.uniform(2, 5, 100), rng.uniform(-3, -1, 100)])
        truth = BlackBoxModel(spec)(points)
        prediction = model.evaluate_batch(points)
        scale = np.max(np.abs(truth))
        assert np.max(np.abs(prediction - truth)) <= 1e-10 * scale


def dense_basis(indices, xi):
    """Reference (points, terms) basis matrix, one legendre_eval per factor."""
    basis = np.ones((len(xi), len(indices)))
    for t, index in enumerate(indices):
        for j, degree in enumerate(index):
            basis[:, t] *= legendre_eval(degree, xi[:, j])
    return basis


def smooth_outputs(points, n_outputs):
    shifts = np.arange(n_outputs)[None, :]
    return np.exp(0.4 * points.sum(axis=1))[:, None] * np.cos(points[:, :1] + shifts)


def dense_cases(dim, kind):
    """(method, grid, indices) per order of the dense-basis comparisons."""
    # sparse levels above 3 * dim are rejected by the grid
    top = 5 if kind == TENSOR_PRODUCT else min(5, 3 * dim)
    for order in range(1, top + 1):
        if kind == TENSOR_PRODUCT:
            method, grid = FullGrid(order), full_grid(dim, order)
        else:
            method, grid = SparseGrid(order), sparse_grid(dim, order)
        yield method, grid, enumerate_indices(Neighborhood(kind, order, dim))


def assert_matches_dense(method, grid, indices, probe, n_outputs):
    """Projection and evaluation through the kernel agree with the dense basis."""
    inputs = [InputVariable(f"v{j}", -1.0, 1.0) for j in range(probe.shape[1])]
    names = [f"y{o}" for o in range(n_outputs)]
    model = build_pce(lambda pts: smooth_outputs(pts, n_outputs), inputs, names, method)
    outputs = smooth_outputs(grid.points, n_outputs)
    prefactor = np.prod((2.0 * np.array(indices) + 1.0) / 2.0, axis=1)
    basis = dense_basis(indices, grid.points)
    expected = prefactor[:, None] * (basis.T @ (grid.weights[:, None] * outputs))
    scale = np.max(np.abs(expected), axis=0)
    assert np.all(np.abs(model.coefficients - expected) <= 1e-13 * scale)
    values = model.evaluate_batch(probe)
    reference = dense_basis(indices, probe) @ model.coefficients
    scale = np.max(np.abs(model.coefficients), axis=0)
    assert np.all(np.abs(values - reference) <= 1e-13 * scale)


class TestSplitKroneckerKernel:
    @pytest.mark.parametrize("kind", [TENSOR_PRODUCT, TOTAL_ORDER])
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_matches_dense_basis(self, dim, kind):
        rng = np.random.Generator(np.random.PCG64(dim))
        probe = rng.uniform(-1, 1, size=(257, dim))
        for method, grid, indices in dense_cases(dim, kind):
            for n_outputs in range(1, 4):
                assert_matches_dense(method, grid, indices, probe, n_outputs)

    @pytest.mark.parametrize("kind", [TENSOR_PRODUCT, TOTAL_ORDER])
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_matches_dense_basis_across_ragged_chunks(self, dim, kind, monkeypatch):
        # Per call, the byte budget whose step splits both the grid and the
        # probe into three or more chunks, the last one short.
        rng = np.random.Generator(np.random.PCG64(dim))
        probe = rng.uniform(-1, 1, size=(257, dim))
        chunk_sizes = []
        chunks = surrogate._SplitKronecker._chunks

        def recorded(kernel, xi, n_outputs, reserved=0):
            held = kernel._widths(n_outputs)[-1]
            monkeypatch.setattr(surrogate, "CHUNK_BYTES", 2**16 + reserved + 8 * held * step)
            chunk_sizes.append([])
            for chunk in chunks(kernel, xi, n_outputs, reserved):
                chunk_sizes[-1].append(chunk[0].stop - chunk[0].start)
                yield chunk

        monkeypatch.setattr(surrogate._SplitKronecker, "_chunks", recorded)
        checked = 0
        for method, grid, indices in dense_cases(dim, kind):
            sizes = (len(grid), len(probe))
            steps = [s for s in range(2, len(grid)) if all(n % s and n > 2 * s for n in sizes)]
            if not steps:
                continue
            step = max(steps)
            for n_outputs in range(1, 4):
                chunk_sizes.clear()
                assert_matches_dense(method, grid, indices, probe, n_outputs)
                assert [sum(c) for c in chunk_sizes] == list(sizes)
                for c in chunk_sizes:
                    assert len(c) >= 3 and set(c[:-1]) == {step} and c[-1] < step
                checked += 1
        assert checked >= 3

    @pytest.mark.parametrize("n_outputs", [1, 2, 3])
    @pytest.mark.parametrize(
        "kind, dim, order",
        [
            (TENSOR_PRODUCT, 1, 12), (TENSOR_PRODUCT, 2, 8),
            (TENSOR_PRODUCT, 4, 6), (TENSOR_PRODUCT, 8, 2),
            (TOTAL_ORDER, 1, 20), (TOTAL_ORDER, 2, 10),
            (TOTAL_ORDER, 4, 5), (TOTAL_ORDER, 8, 5),
        ],
    )
    def test_chunk_transients_stay_within_the_budget(self, kind, dim, order, n_outputs):
        # Peak minus inputs and output, over points enough for several chunks
        indices = index_array(Neighborhood(kind, order, dim))
        kernel = surrogate._SplitKronecker(indices)
        rng = np.random.Generator(np.random.PCG64(dim))
        xi = rng.uniform(-1, 1, size=(dim, 50_000))
        weighted = rng.uniform(-1, 1, size=(n_outputs, 50_000))
        block = kernel.block(rng.uniform(-1, 1, size=(len(indices), n_outputs)))
        for call in (lambda: kernel.project(xi, weighted), lambda: kernel.evaluate(xi, block)):
            tracemalloc.start()
            try:
                result = call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak - result.nbytes <= surrogate.CHUNK_BYTES

    def test_projection_memory_is_bounded(self):
        # 16807 points and terms: a dense basis matrix alone would be 2.26 GB.
        # Beyond the kernel's budget, the build holds the grid, its physical
        # copy, the index array, outputs and coefficients: each at most the
        # size of the (16807, 5) grid.
        inputs = [InputVariable(f"v{j}", -1.0, 1.0) for j in range(5)]
        tracemalloc.start()
        try:
            model = build_pce(
                lambda pts: smooth_outputs(pts, 2), inputs, ["a", "b"], FullGrid(6)
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert model.coefficients.shape == (16807, 2)
        assert peak < surrogate.CHUNK_BYTES + 6 * 16807 * 5 * 8

    def test_evaluation_memory_is_bounded(self):
        # 2401 terms at 200k points: the output, the rescaled points and one
        # chunk's transients, so one more full-size copy of the points fails
        inputs = [InputVariable(f"v{j}", 0.0, 1.0 + j) for j in range(4)]
        model = build_pce(lambda pts: smooth_outputs(pts, 2), inputs, ["a", "b"], FullGrid(6))
        points = np.random.Generator(np.random.PCG64(5)).uniform(0.0, 1.0, size=(200_000, 4))
        tracemalloc.start()
        try:
            values = model.evaluate_batch(points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert values.shape == (200_000, 2)
        assert peak < values.nbytes + points.nbytes + surrogate.CHUNK_BYTES

    def test_one_build_lays_out_one_kernel(self, monkeypatch):
        layouts = []
        original = surrogate._SplitKronecker.__init__

        def counted(kernel, index_array):
            layouts.append(len(index_array))
            original(kernel, index_array)

        monkeypatch.setattr(surrogate._SplitKronecker, "__init__", counted)
        inputs = [InputVariable(f"v{j}", -1.0, 1.0) for j in range(3)]
        model = build_pce(lambda pts: smooth_outputs(pts, 2), inputs, ["a", "b"], SparseGrid(3))
        model.evaluate_batch(np.zeros((4, 3)))
        assert layouts == [len(model.indices)]


class TestConvergence:
    def test_error_shrinks_with_order_on_smooth_model(self):
        from pcekit.blackbox import CSG_PROXY_INPUTS, CSG_PROXY_OUTPUTS
        from pcekit.sampling import latin_hypercube, rrmse

        inputs = [InputVariable(n, lo, hi) for n, lo, hi in CSG_PROXY_INPUTS]
        spec = ModelSpec(
            kind="builtin", name="csg-proxy",
            input_names=tuple(v.name for v in inputs),
            output_names=CSG_PROXY_OUTPUTS,
        )
        design = latin_hypercube(10, 4, 50, seed=77)
        physical = surrogate.unscale_points(design.points, inputs)
        truths = BlackBoxModel(spec)(physical)
        errors = []
        for order in [2, 3, 4]:
            model = build_pce(
                BlackBoxModel(spec), inputs, list(CSG_PROXY_OUTPUTS), FullGrid(order)
            )
            predictions = model.evaluate_batch(physical)
            errors.append(
                [rrmse(predictions[:, j], truths[:, j]) for j in range(2)]
            )
        for j in range(2):
            sequence = [e[j] for e in errors]
            assert sequence == sorted(sequence, reverse=True)


class TestPersistence:
    def build_small(self):
        return build_pce(example_model_1(), UNIT_SQUARE, ["value"], FullGrid(2))

    def test_round_trip_identity(self, tmp_path):
        model = self.build_small()
        path = tmp_path / "model.json"
        save(model, path)
        assert load(path) == model

    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.Generator(np.random.PCG64(1))
        base = self.build_small()
        base.coefficients[:] = rng.normal(size=base.coefficients.shape)
        path = tmp_path / "model.json"
        save(base, path)
        restored = load(path)
        assert np.array_equal(restored.coefficients, base.coefficients)

    def test_a_failed_write_leaves_the_file_it_replaces(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("old")
        with pytest.raises(KeyboardInterrupt):
            with surrogate._replacing(path) as handle:
                handle.write("partial")
                raise KeyboardInterrupt
        assert path.read_text() == "old" and [p.name for p in tmp_path.iterdir()] == [path.name]
        model = self.build_small()
        save(model, path)
        assert load(path) == model
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_truncated_file(self, tmp_path):
        model = self.build_small()
        path = tmp_path / "model.json"
        save(model, path)
        path.write_text(path.read_text()[: 60])
        with pytest.raises(ModelFormatError, match="JSON"):
            load(path)

    def test_future_schema_version(self, tmp_path):
        model = self.build_small()
        buffer = io.StringIO()
        save(model, buffer)
        doc = json.loads(buffer.getvalue())
        doc["schema_version"] = 99
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="schema_version 99"):
            load(path)

    def test_missing_field_named(self, tmp_path):
        model = self.build_small()
        buffer = io.StringIO()
        save(model, buffer)
        doc = json.loads(buffer.getvalue())
        del doc["coefficients"]
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="coefficients"):
            load(path)

    def saved_doc(self):
        buffer = io.StringIO()
        save(self.build_small(), buffer)
        return json.loads(buffer.getvalue())

    def test_indices_are_one_int64_array(self, tmp_path):
        model = self.build_small()
        path = tmp_path / "model.json"
        save(model, path)
        for candidate in (model, load(path)):
            assert candidate.indices.dtype == np.int64
            assert candidate.indices.shape == (9, 2)

    def test_reordered_coefficients_rejected(self, tmp_path):
        doc = self.saved_doc()
        coefficients = doc["coefficients"]
        zero = coefficients.pop("0,0")
        coefficients["0,0"] = zero  # the zero index last: mean() would read row 0
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc, indent=2))
        with pytest.raises(ModelFormatError, match="graded-lex order"):
            load(path)

    @pytest.mark.parametrize("field", ["inputs", "output_names"])
    def test_repeated_names_rejected(self, tmp_path, field):
        doc = self.saved_doc()
        if field == "inputs":
            doc["inputs"][1]["name"] = doc["inputs"][0]["name"]
        else:
            doc["output_names"] = ["value", "value"]
            doc["coefficients"] = {key: values * 2 for key, values in doc["coefficients"].items()}
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc, indent=2))
        with pytest.raises(ModelFormatError, match="names must be unique"):
            load(path)

    def test_repeated_index_rejected(self, tmp_path):
        doc = self.saved_doc()
        # "0,01" parses to (0, 1), which is already present; (0, 2) goes missing
        doc["coefficients"] = {
            ("0,01" if key == "0,2" else key): values
            for key, values in doc["coefficients"].items()
        }
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc, indent=2))
        with pytest.raises(ModelFormatError, match="graded-lex order"):
            load(path)

    @pytest.mark.parametrize("keys", [["0,0", "1"], ["0,x"], ["99999999999999999999,0"]])
    def test_malformed_keys_rejected(self, tmp_path, keys):
        doc = self.saved_doc()
        doc["coefficients"] = {key: ["1"] for key in keys}
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc, indent=2))
        with pytest.raises(ModelFormatError, match="coefficients"):
            load(path)

    def test_wrong_schema_id(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"schema": "something-else", "schema_version": 1}))
        with pytest.raises(ModelFormatError, match="schema"):
            load(path)


def json_dumps_text(model):
    """The model document as save rendered it record by record: the
    reference for the block-formatted text."""
    doc = {
        "schema": surrogate.MODEL_SCHEMA,
        "schema_version": surrogate.MODEL_SCHEMA_VERSION,
        "inputs": [
            {"name": var.name, "min": "%.17g" % var.v_min, "max": "%.17g" % var.v_max,
             "distribution": "uniform"}
            for var in model.inputs
        ],
        "output_names": list(model.output_names),
        "neighborhood": {"kind": model.neighborhood.kind, "order": model.neighborhood.order,
                         "dim": model.neighborhood.dim},
        "coefficients": {
            ",".join(map(str, index)): ["%.17g" % c for c in row]
            for index, row in zip(model.indices.tolist(), model.coefficients.tolist())
        },
        "build_meta": model.build_meta,
    }
    return json.dumps(doc, indent=2)


def saved_text(model):
    buffer = io.StringIO()
    save(model, buffer)
    return buffer.getvalue()


def per_value_table(text):
    """The coefficient table of a model text read cell by cell: json.loads,
    then int() and float() per cell."""
    raw = json.loads(text)["coefficients"]
    return (
        np.array([key.split(",") for key in raw], dtype=np.int64),
        np.array([[float(v) for v in values] for values in raw.values()]),
    )


def odd_models():
    """Models whose names, metadata and coefficients stress the renderer."""
    rng = np.random.default_rng(3)
    square = [InputVariable('x "1"\\é', -1.0, 1e-300), InputVariable("x,2", 5e-324, 2.0 / 3.0)]
    tensor = Neighborhood(TENSOR_PRODUCT, 3, 2)
    total = Neighborhood(TOTAL_ORDER, 4, 3)
    largest = np.finfo(float).max
    special = np.array([0.0, -0.0, largest, -largest, 5e-324, 1e300, -1.0 / 3.0, 1e-5, 123456789.0])
    return [
        PceModel(square, ["y"], tensor, surrogate.multiindex.index_array(tensor),
                 np.resize(special, (16, 1)), {"meta": ["-Infinity", None, {"coefficients": {}}]}),
        PceModel([InputVariable(f"v{j}", 0.0, 1.0) for j in range(3)], ["a", 'b"', "c\n"],
                 total, surrogate.multiindex.index_array(total), rng.normal(size=(35, 3)),
                 {"method": "sparse-grid", "parameter": 4, "timestamp": None}),
    ]


class TestBlockPersistence:
    @pytest.mark.parametrize("case", range(2))
    def test_save_is_json_dumps_byte_for_byte(self, case):
        model = odd_models()[case]
        text = saved_text(model)
        assert text == json_dumps_text(model)
        loaded = load(io.StringIO(text))
        assert loaded == model
        indices, coefficients = per_value_table(text)
        assert np.array_equal(loaded.indices, indices)
        assert loaded.coefficients.tobytes() == coefficients.tobytes()

    def test_any_json_layout_loads(self):
        model = odd_models()[1]
        doc = json.loads(saved_text(model))
        for text in [json.dumps(doc), json.dumps(doc, indent=4)]:
            assert load(io.StringIO(text)) == model
        doc["coefficients"] = {key: [float(v) for v in row] for key, row in doc["coefficients"].items()}
        assert load(io.StringIO(json.dumps(doc))) == model

    def test_unknown_distribution_is_a_format_error(self):
        doc = json.loads(saved_text(odd_models()[1]))
        doc["inputs"][0]["distribution"] = "normal"
        with pytest.raises(ModelFormatError, match="inputs"):
            load(io.StringIO(json.dumps(doc)))

    @pytest.mark.parametrize("edit", [
        {"0,0,1": ["1", "2"]},              # a row one value short
        {"0,0,1": None},
        {"0,0,1": ["1", None, "2"]},
        {"0,0,1": ["1", True, "2"]},        # True == 1, but not a number
        {"0,0,1": [False, "2", "3"]},
        {"0,0,1": ["1", [2], "3"]},
        {"0,0,1": ["1", "x", "3"]},
        {"0,1": ["1", "2", "3"]},           # a key one field short
        {"0,,1": ["1", "2", "3"]},
        {"0, 0,1": ["1", "2", "3"]},
        {"0,0,+1": ["1", "2", "3"]},
        {"0,0,١": ["1", "2", "3"]},
        {"0,0,99999999999999999999": ["1", "2", "3"]},
        {"0,0,1": "123"},                   # a row that is not a list
        {"0,0,1": {"1": 0, "2": 0, "3": 0}},
    ])
    def test_malformed_tables_are_format_errors(self, edit):
        doc = json.loads(saved_text(odd_models()[1]))
        del doc["coefficients"]["0,0,1"]
        doc["coefficients"].update(edit)
        with pytest.raises(ModelFormatError, match="coefficients"):
            load(io.StringIO(json.dumps(doc)))

    @pytest.mark.parametrize("path, value, field", [
        (("inputs", 0, "name"), 7, r"'name' in inputs\[0\]"),
        (("inputs", 0, "name"), "", "non-empty name"),
        (("inputs", 0, "min"), True, r"inputs\[0\]\.min"),
        (("inputs", 0, "max"), None, r"inputs\[0\]\.max"),
        (("inputs", 0, "max"), "x", "inputs"),
        (("inputs", 0), 5, r"inputs\[0\] must be an object"),
        (("schema_version",), 0, "schema_version"),
        (("schema_version",), -3, "schema_version"),
        (("schema_version",), True, "schema_version"),
        (("output_names", 0), None, "output_names"),
        (("neighborhood", "order"), 2.7, r"neighborhood\.order"),
        (("neighborhood", "dim"), "3", r"neighborhood\.dim"),
        (("build_meta",), None, "build_meta"),
    ], ids=[
        "name-number", "name-empty", "min-true", "max-null", "max-text", "input-not-object",
        "version-0", "version-negative", "version-true", "output-name-null", "order-fraction",
        "dim-text", "build-meta-null",
    ])
    def test_malformed_fields_are_format_errors(self, path, value, field):
        # Read with the config's checks: the message names the field.
        doc = json.loads(saved_text(odd_models()[1]))
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        with pytest.raises(ModelFormatError, match=field):
            load(io.StringIO(json.dumps(doc)))

    @pytest.mark.parametrize("value", ['"1e400"', '"-inf"', '"nan"', "1e999", "NaN"])
    def test_non_finite_coefficients_are_format_errors(self, value):
        doc = json.loads(saved_text(odd_models()[1]))
        doc["coefficients"]["0,1,0"][1] = "VALUE"
        text = json.dumps(doc).replace('"VALUE"', value)
        with pytest.raises(ModelFormatError, match="coefficients: entry '0,1,0' holds a value that is not finite"):
            load(io.StringIO(text))

    def test_undecodable_file_is_a_format_error(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_bytes(b"\xff\xfe{}")
        with pytest.raises(ModelFormatError, match="utf-8"):
            load(path)


def full6_model():
    """The tensor neighbourhood of order 6 in 6-D (117,649 terms), two outputs
    of decaying coefficients of which about 40% are snapped to zero."""
    nbhd = Neighborhood(TENSOR_PRODUCT, 6, 6)
    indices = surrogate.multiindex.index_array(nbhd)
    rng = np.random.default_rng(6)
    coefficients = rng.normal(size=(len(indices), 2)) * 0.4 ** indices.sum(axis=1)[:, None]
    coefficients[rng.random(coefficients.shape) < 0.4] = 0.0
    inputs = [InputVariable(f"x{j}", -1.0 - j, 1.0 + j) for j in range(6)]
    return PceModel(inputs, ["a", "b"], nbhd, indices, coefficients, {"method": "full-grid"})


def best_time(function, repeats=3):
    best, result = float("inf"), None
    for _ in range(repeats):
        started = time.perf_counter()
        result = function()
        best = min(best, time.perf_counter() - started)
    return best, result


def test_full6_model_saves_and_loads_fast():
    model = full6_model()
    save_s, text = best_time(lambda: saved_text(model))
    load_s, loaded = best_time(lambda: load(io.StringIO(text)))
    assert text == json_dumps_text(model)
    assert loaded == model and loaded.coefficients.tobytes() == model.coefficients.tobytes()

    def per_value_load():
        indices, coefficients = per_value_table(text)
        return PceModel(model.inputs, model.output_names, model.neighborhood, indices,
                        coefficients, model.build_meta)

    # Under 0.2 s each, or else faster than the per-value code on the same
    # machine: "%.17g" itself (about 1 us per value) and json.loads (about
    # half of load) keep a busy 2-vCPU VM above 0.2 s.
    if save_s >= 0.2:
        assert save_s < 0.6 * best_time(lambda: json_dumps_text(model), 1)[0]
    if load_s >= 0.2:
        assert load_s < 0.85 * best_time(per_value_load, 1)[0]


def test_model_invariants_enforced():
    nbhd = Neighborhood(TENSOR_PRODUCT, 1, 2)
    with pytest.raises(ConfigurationError, match="cover"):
        PceModel(UNIT_SQUARE, ["y"], nbhd, [(0, 0)], np.zeros((1, 1)))
    with pytest.raises(ConfigurationError, match="outside"):
        PceModel(
            UNIT_SQUARE, ["y"], nbhd,
            [(0, 0), (0, 1), (1, 0), (5, 5)], np.zeros((4, 1)),
        )
