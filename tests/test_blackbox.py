import contextlib
import errno
import hashlib
import io
import json
import logging
import math
import os
import shlex
import signal
import struct
import sys
import tempfile
import threading
import time
import tracemalloc
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pcekit import blackbox, surrogate
from pcekit.blackbox import (
    CSG_PROXY_INPUTS,
    CSG_PROXY_OUTPUTS,
    BlackBoxModel,
    EvaluationCache,
    BUILTIN_MODELS,
    ModelSpec,
    resolve_cache_path,
)
from pcekit.errors import ConfigurationError, EvaluationError
from pcekit.multiindex import TOTAL_ORDER, Neighborhood, enumerate_indices
from pcekit.polybasis import legendre_table
from pcekit.quadrature import full_grid, sparse_grid
from pcekit.sampling import latin_hypercube


def builtin(spec):
    """The array function of a builtin spec, as BlackBoxModel resolves it."""
    return BUILTIN_MODELS[spec.name](spec)


def builtin_spec(name, inputs=("x1", "x2"), outputs=("value",), parameters=None):
    return ModelSpec(
        kind="builtin", name=name, input_names=inputs, output_names=outputs,
        parameters=parameters or {},
    )


class TestBuiltins:
    def test_sum_of_squares_at_corner(self):
        func = builtin(builtin_spec("sobol-example-1"))
        assert func(np.array([[1.0, 1.0]])).tolist() == [[2.0]]

    def test_cubic_at_origin(self):
        func = builtin(builtin_spec("sobol-example-2"))
        assert func(np.array([[0.0, 0.0]])).tolist() == [[0.0]]

    def test_constant_everywhere(self):
        func = builtin(builtin_spec("constant", inputs=("a",), parameters={"values": [5.0]}))
        assert func(np.array([[-3.0], [0.0], [42.0]])).tolist() == [[5.0]] * 3

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown builtin"):
            builtin_spec("not-a-model")

    def test_polynomial_requires_consistent_terms(self):
        with pytest.raises(ConfigurationError):
            builtin(builtin_spec("polynomial", parameters={"terms": []}))
        with pytest.raises(ConfigurationError, match="inputs"):
            builtin(
                builtin_spec(
                    "polynomial",
                    parameters={"terms": [{"orders": [1], "coefficients": [1.0]}]},
                )
            )

    def test_builtin_determinism(self):
        func = builtin(
            builtin_spec(
                "csg-proxy",
                inputs=tuple(n for n, _, _ in CSG_PROXY_INPUTS),
                outputs=CSG_PROXY_OUTPUTS,
            )
        )
        point = np.array([[0.02, 400.0, 0.0002, 0.6]])
        first = func(point)
        for _ in range(1000):
            assert np.array_equal(func(point), first)


class TestCsgProxy:
    def proxy(self):
        return builtin(
            builtin_spec(
                "csg-proxy",
                inputs=tuple(n for n, _, _ in CSG_PROXY_INPUTS),
                outputs=CSG_PROXY_OUTPUTS,
            )
        )

    def test_outputs_are_positive_across_the_box(self):
        func = self.proxy()
        grids = [np.linspace(lo, hi, 5) for _, lo, hi in CSG_PROXY_INPUTS]
        for phi in grids[0]:
            for k in grids[1]:
                for b in grids[2]:
                    for v in grids[3]:
                        out = func(np.array([[phi, k, b, v]]))
                        assert np.all(out > 0.0)

    def test_monotone_in_adsorption_volume(self):
        # grid-scan oracle over the whole box: outputs never decrease as
        # the volume input grows with everything else fixed
        func = self.proxy()
        volumes = np.linspace(0.2, 1.0, 9)
        for phi in np.linspace(0.005, 0.05, 4):
            for k in np.linspace(10, 1000, 4):
                for b in np.linspace(0.00017, 0.0003, 4):
                    outs = func(np.array([[phi, k, b, v] for v in volumes]))
                    assert np.all(np.diff(outs[:, 0]) >= 0.0)
                    assert np.all(np.diff(outs[:, 1]) >= 0.0)

    def test_arity_guard(self):
        with pytest.raises(ConfigurationError):
            builtin(builtin_spec("csg-proxy"))


def per_point_reference(spec):
    """Each builtin written point by point: one point in, one row of outputs
    out, with math.exp and numpy scalar powers."""
    params = spec.parameters
    if spec.name == "constant":
        out = np.array([float(v) for v in params["values"]])
        return lambda point: out.copy()
    if spec.name == "sobol-example-1":
        return lambda point: np.array([point[0] ** 2 + point[1] ** 2])
    if spec.name == "sobol-example-2":
        return lambda point: np.array([point[0] ** 3 + point[1]])
    if spec.name == "polynomial":
        index_array = np.array([term["orders"] for term in params["terms"]], dtype=int)
        coeff_array = np.array([term["coefficients"] for term in params["terms"]], dtype=float)
        lo, hi = np.array(params["variables"], dtype=float).T
        max_degrees = index_array.max(axis=0)

        def polynomial(point):
            xi = 2.0 * (point - lo) / (hi - lo) - 1.0
            basis = np.ones(index_array.shape[0])
            for j in range(len(point)):
                table = legendre_table(int(max_degrees[j]), xi[j])[:, 0]
                basis *= table[index_array[:, j]]
            return basis @ coeff_array

        return polynomial

    def csg_proxy(point):
        porosity, permeability, inv_pressure, volume = point
        release = (
            inv_pressure * 2750.0 / (1.0 + inv_pressure * 2750.0)
            - inv_pressure * 101.3 / (1.0 + inv_pressure * 101.3)
        )
        cumulative = (
            1.6e8 * volume * release
            * (0.3 + 0.7 * (1.0 - math.exp(-permeability / 250.0)))
            * math.exp(-3.0 * porosity)
        )
        peak = (
            3.2e5
            * (1.0 - math.exp(-permeability / 180.0))
            * (0.35 + 0.65 * (1.0 - math.exp(-40.0 * porosity)))
            * (0.55 + 0.45 * volume)
            * (1.0 + 0.1 * inv_pressure * 2750.0)
        )
        return np.array([cumulative, peak])

    return csg_proxy


def differential_specs():
    """One spec per builtin with its input box (lo, hi)."""
    rng = np.random.default_rng(17)
    nbhd = Neighborhood(TOTAL_ORDER, 5, 4)
    terms = [
        {"orders": list(index), "coefficients": rng.normal(size=2).tolist()}
        for index in enumerate_indices(nbhd)
    ]
    box4 = np.array([[0.5, 2.0], [-3.0, 1.0], [10.0, 11.0], [0.0, 1e-3]])
    csg_box = np.array([[lo, hi] for _, lo, hi in CSG_PROXY_INPUTS])
    square = np.array([[-1.0, 1.0], [-1.0, 1.0]])
    names4 = ("a", "b", "c", "d")
    return [
        (builtin_spec("csg-proxy", tuple(n for n, _, _ in CSG_PROXY_INPUTS), CSG_PROXY_OUTPUTS),
         csg_box),
        (builtin_spec("sobol-example-1"), square),
        (builtin_spec("sobol-example-2"), square),
        (builtin_spec("constant", ("a", "b"), ("y", "z"), {"values": [1.5, -2.0]}), square),
        (builtin_spec("polynomial", names4, ("y", "z"),
                      {"terms": terms, "variables": box4.tolist()}), box4),
    ]


def unit_point_sets(dim):
    """The full-6 grid, the sparse level-5 grid and 10k random points with
    the range ends, on [-1, 1]^dim."""
    rng = np.random.default_rng(dim)
    random = rng.uniform(-1.0, 1.0, (10_000, dim))
    random[:3] = [[-1.0], [0.0], [1.0]]
    random[3:3 + dim] = np.where(np.eye(dim, dtype=bool), 1.0, -1.0)
    return {
        "full-6": full_grid(dim, 6).points,
        "sparse-5": sparse_grid(dim, 5).points,
        "random": random,
    }


class TestArrayBuiltins:
    @pytest.mark.parametrize("case", range(5), ids=[
        "csg-proxy", "sobol-example-1", "sobol-example-2", "constant", "polynomial"])
    def test_matches_the_per_point_code_bit_for_bit(self, case):
        spec, box = differential_specs()[case]
        reference = per_point_reference(spec)
        function = builtin(spec)
        for name, unit in unit_point_sets(len(box)).items():
            points = box[:, 0] + 0.5 * (unit + 1.0) * (box[:, 1] - box[:, 0])
            expected = np.array([reference(point) for point in points])
            values = function(points)
            assert values.shape == expected.shape, name
            assert values.tobytes() == expected.tobytes(), name
            assert function(points[7:8]).tobytes() == expected[7:8].tobytes()

    @pytest.mark.parametrize("budget", ["shipped", "three-points"])
    def test_polynomial_bits_hold_across_its_chunk_step(self, monkeypatch, budget):
        # Chunks take CHUNK_BYTES / (16 bytes x terms) points: batches of one
        # point short of a chunk, a whole chunk, and a chunk and a point.
        spec, box = differential_specs()[4]
        terms = len(spec.parameters["terms"])
        if budget == "three-points":
            monkeypatch.setattr(surrogate, "CHUNK_BYTES", 16 * terms * 3)
        step = surrogate.CHUNK_BYTES // (16 * terms)
        unit = np.random.default_rng(9).uniform(-1.0, 1.0, (step + 1, len(box)))
        points = box[:, 0] + 0.5 * (unit + 1.0) * (box[:, 1] - box[:, 0])
        reference = per_point_reference(spec)
        expected = np.array([reference(point) for point in points])
        function = builtin(spec)
        for count in (step - 1, step, step + 1):
            assert function(points[:count]).tobytes() == expected[:count].tobytes()

    @pytest.mark.parametrize("where", [0, 5, 10])
    @pytest.mark.parametrize("bad, message", [
        ([0.02, -1e6, 0.0002, 0.6], "failed at point"),  # exp overflows
        ([0.02, 400.0, 0.0002, np.inf], "invalid value at point"),
    ], ids=["exception", "non-finite"])
    def test_failure_commits_exactly_the_rows_before(self, tmp_path, where, bad, message):
        spec = builtin_spec(
            "csg-proxy", tuple(n for n, _, _ in CSG_PROXY_INPUTS), CSG_PROXY_OUTPUTS
        )
        lo = np.array([lo for _, lo, _ in CSG_PROXY_INPUTS])
        hi = np.array([hi for _, _, hi in CSG_PROXY_INPUTS])
        points = lo + (hi - lo) * np.random.default_rng(where).random((11, 4))
        points[where] = bad
        path = tmp_path / "cache.jsonl"
        with np.errstate(all="ignore"), pytest.raises(EvaluationError, match=message) as info:
            BlackBoxModel(spec, cache=EvaluationCache(path))(points)
        assert str(points[where].tolist()) in str(info.value)
        hits, values = EvaluationCache(path).lookup(spec.fingerprint(), points, 2)
        assert hits.tolist() == [i < where for i in range(11)]
        expected = BlackBoxModel(spec)(points[:where]) if where else np.empty((0, 2))
        assert values.tolist() == expected.tolist()


class TestFingerprint:
    def test_depends_on_parameters(self):
        a = builtin_spec("constant", inputs=("a",), parameters={"values": [1.0]})
        b = builtin_spec("constant", inputs=("a",), parameters={"values": [2.0]})
        assert a.fingerprint() != b.fingerprint()
        assert a.fingerprint() == builtin_spec(
            "constant", inputs=("a",), parameters={"values": [1.0]}
        ).fingerprint()


class TestCache:
    def test_round_trip_hits(self, tmp_path):
        cache = EvaluationCache(tmp_path / "cache.jsonl")
        spec = builtin_spec("sobol-example-1")
        points = np.array([[0.5, 0.5], [0.1, -0.2], [1.0, 1.0]])
        box = BlackBoxModel(spec, cache=cache)
        first = box(points)
        assert (box.fresh_count, box.cached_count) == (3, 0)
        second = box(points)
        assert (box.fresh_count, box.cached_count) == (3, 3)
        assert second.tolist() == first.tolist()

    def test_hits_survive_reload(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        spec = builtin_spec("sobol-example-2")
        points = np.array([[0.25, -0.75]])
        original = BlackBoxModel(spec, cache=EvaluationCache(path))(points)
        box = BlackBoxModel(spec, cache=EvaluationCache(path))
        reloaded = box(points)
        assert box.cached_count == 1
        assert reloaded.tolist() == original.tolist()

    def test_corrupt_line_is_a_miss_with_warning(self, tmp_path, caplog):
        path = tmp_path / "cache.jsonl"
        cache = EvaluationCache(path)
        spec = builtin_spec("sobol-example-1")
        BlackBoxModel(spec, cache=cache)(np.array([[0.5, 0.5]]))
        text = path.read_text()
        path.write_text(text.replace('"outputs":["0.5', '"outputs":["9.9', 1))
        with caplog.at_level(logging.WARNING, logger="pcekit.blackbox"):
            fresh_cache = EvaluationCache(path)
        assert fresh_cache.corrupt_lines == 1
        assert any("corrupt" in record.message for record in caplog.records)
        box = BlackBoxModel(spec, cache=fresh_cache)
        assert box(np.array([[0.5, 0.5]])).tolist() == [[0.5]]
        assert box.fresh_count == 1

    def test_verify_counts(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = EvaluationCache(path)
        assert (cache.valid_lines, cache.corrupt_lines) == (0, 0)
        spec = builtin_spec("sobol-example-1")
        BlackBoxModel(spec, cache=cache)(np.array([[0.0, 0.0], [0.5, -0.5]]))
        fresh = EvaluationCache(path)
        assert (fresh.valid_lines, fresh.corrupt_lines) == (2, 0)
        with open(path, "a") as handle:
            handle.write("this is not json\n")
        fresh = EvaluationCache(path)
        assert (fresh.valid_lines, fresh.corrupt_lines) == (2, 1)

    def test_distinct_models_do_not_collide(self, tmp_path):
        cache = EvaluationCache(tmp_path / "cache.jsonl")
        point = np.array([[0.5, 0.5]])
        first = BlackBoxModel(builtin_spec("sobol-example-1"), cache=cache)(point)
        box = BlackBoxModel(builtin_spec("sobol-example-2"), cache=cache)
        second = box(point)
        assert box.fresh_count == 1
        assert first[0] != second[0]
        reloaded = EvaluationCache(tmp_path / "cache.jsonl")
        assert len(cache) == len(reloaded) == 2
        for name, expected in (("sobol-example-1", first), ("sobol-example-2", second)):
            box = BlackBoxModel(builtin_spec(name), cache=reloaded)
            assert box(point).tolist() == expected.tolist()
            assert (box.fresh_count, box.cached_count) == (0, 1)

    def test_unknown_model_misses_every_row(self, tmp_path):
        cache = EvaluationCache(tmp_path / "cache.jsonl")
        spec = builtin_spec("sobol-example-1")
        points = np.array([[0.5, 0.5], [0.1, -0.2]])
        BlackBoxModel(spec, cache=cache)(points)
        hits, values = cache.lookup("no such model", points, 1)
        assert hits.tolist() == [False, False] and values.shape == (0, 1)
        assert len(cache) == 2 and list(cache._index) == [(spec.fingerprint(), 2, 1)]

    def test_a_line_of_another_output_count_is_a_miss(self, tmp_path):
        # Another program's line: pcekit's fingerprint names the outputs.
        spec = builtin_spec("constant", inputs=("x",), outputs=("a", "b"),
                            parameters={"values": [1.0, 2.0]})
        path = tmp_path / "cache.jsonl"
        line = fields(spec.fingerprint(), inputs=("0.5",), outputs=["7"])
        write_lines(path, [record_line(line, **COMPACT)])
        box = BlackBoxModel(spec, cache=EvaluationCache(path))
        assert box(np.array([[0.5]])).tolist() == [[1.0, 2.0]]
        assert (box.fresh_count, box.cached_count) == (1, 0)
        # The later line, of two outputs, replaces it.
        reloaded = EvaluationCache(path)
        assert len(reloaded) == 1
        assert reloaded.lookup(spec.fingerprint(), [[0.5]], 1)[0].tolist() == [False]
        assert reloaded.lookup(spec.fingerprint(), [[0.5]], 2)[1].tolist() == [[1.0, 2.0]]

    def test_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PCEKIT_CACHE", str(tmp_path / "forced.jsonl"))
        assert resolve_cache_path("elsewhere.jsonl") == tmp_path / "forced.jsonl"
        monkeypatch.delenv("PCEKIT_CACHE")
        assert resolve_cache_path(None) is None


def json_dumps_record(fingerprint, values, outputs):
    """A cache line rendered record by record with json.dumps."""
    inputs = [format(float(v), ".17g") for v in values]
    rendered = [format(float(v), ".17g") for v in outputs]
    payload = json.dumps(
        {"fingerprint": fingerprint, "inputs": inputs, "outputs": rendered},
        sort_keys=True,
        separators=(",", ":"),
    )
    record = {
        "fingerprint": fingerprint,
        "inputs": inputs,
        "outputs": rendered,
        "checksum": hashlib.sha256(payload.encode()).hexdigest(),
    }
    return json.dumps(record, separators=(",", ":")) + "\n"


def template_rows(points):
    """Rows as one "%.17g" template per row rendered them before each
    column's distinct values were formatted once."""
    points = np.asarray(points, dtype=float)
    template = ",".join(["%.17g"] * points.shape[1])
    return [template % tuple(row) for row in points.tolist()]


def template_input_csv(names, points):
    """The solver's argfile as it was rendered from the points, row by row."""
    return ",".join(names) + "\r\n" + "".join(row + "\r\n" for row in template_rows(points))


def odd_values():
    """Signed zeros, subnormals, huge values, infinities and NaNs whose
    payloads and signs differ, each in a column next to repeats of itself."""
    nans = np.array(
        [0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000000, 0x7FF0000000000001],
        dtype=np.uint64,
    ).view(float)
    column = np.concatenate([
        [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300,
         np.inf, -np.inf, 1.0, -1.0, 0.1],
        nans,
    ])
    return np.column_stack([column, column[::-1], np.roll(column, 3)])


def rendering_cases():
    rng = np.random.default_rng(8)
    repeats = rng.choice(rng.normal(size=7) * 1e3, size=(500, 3))
    return {
        "full-6 4-D": full_grid(4, 6).points,
        "sparse-5 8-D": 1e4 + 50.0 * sparse_grid(8, 5).points,
        "lhs": latin_hypercube(30, 4, 10, 2).points,
        "random with repeats": repeats,
        "odd values": odd_values(),
        "no rows": np.empty((0, 3)),
        "one row": np.array([[-0.0, 1.0 / 3.0, np.nan]]),
    }


class TestRowRendering:
    @pytest.mark.parametrize("case", list(rendering_cases()))
    def test_rows_match_the_per_row_template(self, case):
        points = rendering_cases()[case]
        assert blackbox._render_rows(points) == template_rows(points)
        # a strided view renders as its copy does
        assert blackbox._render_rows(points[:, ::-1]) == template_rows(
            np.ascontiguousarray(points[:, ::-1])
        )

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("cached", [False, True], ids=["cold", "partly-cached"])
    def test_argfiles_match_the_template_rendering(self, tmp_path, workers, cached):
        copies = tmp_path / "argfiles"
        copies.mkdir()
        script = tmp_path / "copier.py"
        script.write_text(ARGFILE_COPIER.format(copies=str(copies)))
        spec = external_spec(script)
        points = np.vstack([odd_values()[:9, :2], 3.0 + sparse_grid(2, 3).points])
        cache = EvaluationCache(tmp_path / "cache.jsonl") if cached else None
        if cached:
            BlackBoxModel(spec, cache=cache)(points[::3])
            for path in copies.iterdir():
                path.unlink()
        box = BlackBoxModel(spec, cache=cache, workers=workers)
        np.testing.assert_array_equal(box(points), np.where(np.isfinite(points), points, 0.0))
        misses = np.arange(len(points))
        if cached:
            misses = misses[misses % 3 != 0]
        expected = sorted(
            template_input_csv(("a", "b"), points[chunk]).encode()
            for chunk in np.array_split(misses, workers)
        )
        assert sorted(path.read_bytes() for path in copies.iterdir()) == expected

    def test_cache_written_by_the_template_renderer_hits_fully(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        path.write_bytes((DATA / "template_rendered_cache.jsonl").read_bytes())
        cache = EvaluationCache(path)
        assert cache.corrupt_lines == 0 and len(cache) == 147
        for spec, points in template_cache_cases():
            box = BlackBoxModel(spec, cache=cache)
            box(points)
            assert (box.fresh_count, box.cached_count) == (0, len(points))
        assert path.read_bytes() == (DATA / "template_rendered_cache.jsonl").read_bytes()


DATA = Path(__file__).parent / "data"

# Copies its argfile into a directory, then echoes the inputs as outputs
# (NaN and infinite inputs become 0, which the protocol accepts).
ARGFILE_COPIER = """\
import csv, math, os, shutil, sys
shutil.copy(sys.argv[1], os.path.join({copies!r}, str(os.getpid()) + ".csv"))
rows = list(csv.reader(open(sys.argv[1], newline="")))
print("y1,y2")
for row in rows[1:]:
    print(",".join(cell if math.isfinite(float(cell)) else "0" for cell in row))
"""


def template_cache_cases():
    """The specs and points of tests/data/template_rendered_cache.jsonl,
    written by the per-row template renderer: csg-proxy at the full order-2
    and sparse level-2 grids and two LHS designs, and a constant model at
    signed zeros, subnormals, huge values, infinities and a NaN."""
    lo = np.array([lo for _, lo, _ in CSG_PROXY_INPUTS])
    hi = np.array([hi for _, _, hi in CSG_PROXY_INPUTS])
    unit = np.vstack([
        full_grid(4, 2).points, sparse_grid(4, 2).points, latin_hypercube(10, 4, 2, 3).points
    ])
    csg = builtin_spec("csg-proxy", tuple(n for n, _, _ in CSG_PROXY_INPUTS), CSG_PROXY_OUTPUTS)
    const = builtin_spec("constant", ("a", "b"), ("y",), {"values": [1.5]})
    odd = np.array([[0.0, -0.0], [-0.0, 0.0], [5e-324, -2.2250738585072014e-308],
                    [1e300, -1e300], [np.inf, -np.inf], [np.nan, 1.0]])
    return [(csg, lo + 0.5 * (unit + 1.0) * (hi - lo)), (const, odd)]


def store(cache, fingerprint, points, outputs):
    """cache.store with the rows BlackBoxModel renders for the solver."""
    points = np.asarray(points, dtype=float)
    cache.store(fingerprint, points, outputs, blackbox._render_rows(points))


class TestBatchedCache:
    VALUES = np.array([
        [0.5, -0.0, 1e-300, -2.0],
        [1e300, 3.0, -0.1, 2.0 / 3.0],
        [7.0, 1.0 / 3.0, 5e-324, -1e-5],
    ])

    @pytest.mark.parametrize("fingerprint", ["f" * 64, "odd fp with |, %s, [, ] and ~", ""])
    def test_store_lines_match_json_dumps(self, tmp_path, fingerprint):
        cache = EvaluationCache(tmp_path / "cache.jsonl")
        points, outputs = self.VALUES[:, :3], self.VALUES[:, 1:]
        store(cache, fingerprint, points, outputs)
        store(cache, fingerprint, points[:1] + 1.0, outputs[:1])
        expected = [json_dumps_record(fingerprint, p, o) for p, o in zip(points, outputs)]
        expected.append(json_dumps_record(fingerprint, points[0] + 1.0, outputs[0]))
        assert (tmp_path / "cache.jsonl").read_text(encoding="utf-8") == "".join(expected)
        reloaded = EvaluationCache(tmp_path / "cache.jsonl")
        assert reloaded.corrupt_lines == 0
        for hits, values in (reloaded.lookup(fingerprint, points, 3),
                             cache.lookup(fingerprint, points, 3)):
            assert hits.all() and values.tobytes() == outputs.tobytes()

    @pytest.mark.parametrize(
        "fingerprint", ['a "quote"', "back\\slash", "é", "tab\there", "del\x7f"]
    )
    def test_store_refuses_a_fingerprint_its_lines_cannot_hold(self, tmp_path, fingerprint):
        cache = EvaluationCache(tmp_path / "cache.jsonl")
        with pytest.raises(ValueError, match="not printable ASCII"):
            store(cache, fingerprint, [[1.0]], [[2.0]])
        assert not cache.path.exists()
        assert cache.lookup(fingerprint, [[1.0]], 1)[0].tolist() == [False]

    def test_rows_are_17_digit_renderings(self):
        rows = blackbox._render_rows(self.VALUES)
        assert rows == [",".join(format(float(v), ".17g") for v in row) for row in self.VALUES]
        assert blackbox._render_rows(self.VALUES[1:2]) == rows[1:2]

    def test_large_batch_is_written_in_blocks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(blackbox, "STORE_BLOCK_CHARS", 500)
        cache = EvaluationCache(tmp_path / "cache.jsonl")
        points = np.arange(60.0).reshape(20, 3) / 7.0
        store(cache, "fp", points, points[:, :1])
        lines = (tmp_path / "cache.jsonl").read_text(encoding="utf-8")
        assert lines == "".join(json_dumps_record("fp", p, p[:1]) for p in points)

    def test_store_after_torn_last_line_keeps_every_record(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        points = np.arange(9.0).reshape(3, 3)
        store(EvaluationCache(path), "fp", points[:1], points[:1, :1])
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"fingerprint":"fp","inputs":["1')  # a write cut short
        store(EvaluationCache(path), "fp", points[1:], points[1:, :1])
        reloaded = EvaluationCache(path)
        assert len(reloaded) == 3 and reloaded.corrupt_lines == 1
        hits, values = reloaded.lookup("fp", points, 1)
        assert hits.all() and values.tolist() == [[0.0], [3.0], [6.0]]

    def test_concurrent_store_loses_no_record(self, tmp_path):
        cache = EvaluationCache(tmp_path / "cache.jsonl")
        batches = [np.column_stack([np.full(200, t), np.arange(200.0)]) for t in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [
                    pool.submit(store, cache, "fp", b, b)
                    for b in batches
                ]
                for future in futures:
                    future.result(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        reloaded = EvaluationCache(tmp_path / "cache.jsonl")
        assert len(cache) == len(reloaded) == 1600 and reloaded.corrupt_lines == 0

    def test_cache_written_record_by_record_loads_bit_identically(self, tmp_path):
        spec = builtin_spec(
            "csg-proxy",
            inputs=tuple(n for n, _, _ in CSG_PROXY_INPUTS),
            outputs=CSG_PROXY_OUTPUTS,
        )
        lo = np.array([lo for _, lo, _ in CSG_PROXY_INPUTS])
        hi = np.array([hi for _, _, hi in CSG_PROXY_INPUTS])
        points = lo + (hi - lo) * np.random.default_rng(5).random((50, 4))
        fresh = BlackBoxModel(spec)(points)
        path = tmp_path / "old.jsonl"
        path.write_text(
            "".join(json_dumps_record(spec.fingerprint(), p, o) for p, o in zip(points, fresh)),
            encoding="utf-8",
        )
        cache = EvaluationCache(path)
        assert cache.corrupt_lines == 0 and len(cache) == 50
        box = BlackBoxModel(spec, cache=cache)
        assert np.array_equal(box(points), fresh)
        assert box.cached_count == 50 and box.fresh_count == 0

    def test_builtin_failure_keeps_earlier_points(self, tmp_path):
        spec = builtin_spec(
            "csg-proxy",
            inputs=tuple(n for n, _, _ in CSG_PROXY_INPUTS),
            outputs=CSG_PROXY_OUTPUTS,
        )
        good = np.array([[0.01, 100.0, 0.0002, 0.5], [0.02, 400.0, 0.0002, 0.6]])
        bad = np.array([[0.02, -1e6, 0.0002, 0.6]])  # exp overflows
        path = tmp_path / "cache.jsonl"
        with pytest.raises(EvaluationError, match="point"):
            BlackBoxModel(spec, cache=EvaluationCache(path))(np.vstack([good, bad, good + 0.001]))
        cache = EvaluationCache(path)
        assert len(cache) == 2
        box = BlackBoxModel(spec, cache=cache)
        box(good)
        assert (box.fresh_count, box.cached_count) == (0, 2)


NOT_IN_FORM = "not in the form the cache writes"
STORE_KEYS = ["fingerprint", "inputs", "outputs", "checksum"]


def plain(text):
    """Whether text is a string of printable ASCII with no quote and no backslash."""
    return isinstance(text, str) and all(" " <= c <= "~" and c not in '"\\' for c in text)


def in_store_form(line):
    """The record of a stripped line in the form EvaluationCache.store
    writes, or None: the compact JSON rendering of an object with the four
    keys in store's order, whose inputs and outputs are non-empty lists of
    strings and whose every string is plain."""
    try:
        record = json.loads(line)
    except ValueError:
        return None
    if not isinstance(record, dict) or list(record) != STORE_KEYS:
        return None
    if json.dumps(record, separators=(",", ":")) != line:
        return None
    lists = record["inputs"], record["outputs"]
    if not all(isinstance(values, list) and values for values in lists):
        return None
    if not all(map(plain, [record["fingerprint"], record["checksum"], *lists[0], *lists[1]])):
        return None
    return record


def reference_scan(path):
    """The loader stated through json: (index {fingerprint: {row: outputs}},
    valid line count, [(line number, error)]).

    A stripped line is valid when it is in store's form (in_store_form),
    its checksum is the sha256 of the compact sorted-key JSON of its other
    three fields, and float() reads its input cells (the comma-split row)
    and its outputs.  It keys the "%.17g" row of the point float() reads,
    and the last line of a point wins, whatever its output count.  Blank
    lines are skipped."""
    index, valid, corrupt = {}, 0, []
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = in_store_form(line)
                if record is None:
                    raise ValueError(NOT_IN_FORM)
                fingerprint, inputs, outputs = (record[key] for key in STORE_KEYS[:3])
                payload = json.dumps(
                    {"fingerprint": fingerprint, "inputs": inputs, "outputs": outputs},
                    sort_keys=True,
                    separators=(",", ":"),
                )
                if hashlib.sha256(payload.encode()).hexdigest() != record["checksum"]:
                    raise ValueError("checksum mismatch")
                point = [float(cell) for cell in ",".join(inputs).split(",")]
                values = tuple(float(v) for v in outputs)
                index.setdefault(fingerprint, {})[template_rows([point])[0]] = values
                valid += 1
            except ValueError as exc:
                corrupt.append((lineno, str(exc)))
    return index, valid, corrupt


def record_line(fields, **dumps):
    """A cache line holding `fields` and the checksum of their canonical payload."""
    payload = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    checksum = hashlib.sha256(payload.encode()).hexdigest()
    return json.dumps({**fields, "checksum": checksum}, **dumps)


def rehashed(line):
    """The line with its final checksum recomputed over its own text."""
    checksum = hashlib.sha256((line[:-79] + "}").encode()).hexdigest()
    return line[:-66] + checksum + line[-2:]


def store_lines(fingerprint, points, outputs):
    """The lines EvaluationCache.store writes for these records."""
    with tempfile.TemporaryDirectory() as tmp:
        cache = EvaluationCache(Path(tmp) / "cache.jsonl")
        store(cache, fingerprint, points, outputs)
        return cache.path.read_text(encoding="utf-8").splitlines()


def split_reference(index):
    """A reference index as the cache holds it: {(fingerprint, inputs,
    outputs): {row: outputs as raw doubles}}."""
    tables = {}
    for fingerprint, rows in index.items():
        for row, values in rows.items():
            table = tables.setdefault((fingerprint, row.count(",") + 1, len(values)), {})
            table[row] = struct.pack(f"<{len(values)}d", *values)
    return tables


def cache_tables(cache):
    """An EvaluationCache's index in split_reference's form."""
    tables = {}
    for (fingerprint, inputs, outputs), (keys, values) in cache._index.items():
        rows = template_rows(keys.view("<f8").reshape(-1, inputs))
        tables[fingerprint, inputs, outputs] = dict(zip(rows, map(bytes, values)))
    return tables


def assert_indexes_like_reference(cache, expected_index):
    assert cache_tables(cache) == split_reference(expected_index)
    assert len(cache) == sum(map(len, expected_index.values()))


def assert_loads_like_reference(path, caplog):
    expected_index, expected_valid, expected_corrupt = reference_scan(path)
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="pcekit.blackbox"):
        cache = EvaluationCache(path)
    assert_indexes_like_reference(cache, expected_index)
    assert cache.corrupt_lines == len(expected_corrupt)
    assert [r.getMessage() for r in caplog.records] == [
        f"cache {path} line {lineno} is corrupt ({error}); treating as a miss"
        for lineno, error in expected_corrupt
    ]
    assert cache.valid_lines == expected_valid


COMPACT = {"separators": (",", ":")}
FP = "9e9c2975fbb7fe9220986e0155224dc43b8583175902edeb955442c35c95a95f"


def fields(fingerprint=FP, inputs=("1",), outputs=("2",)):
    return {"fingerprint": fingerprint, "inputs": list(inputs), "outputs": outputs}


def corpus_lines(ragged=True):
    """Cache lines of every kind the loader meets: as store writes them, in
    store's form but written otherwise, and corrupt.  Unless ragged, the
    valid lines with one or three outputs, where their model's other rows
    have two, are filed under models of their own."""
    points = np.array([[0.05, 100.0, 1.0 / 3.0], [-0.0, 5e-324, 1e300], [7.0, 8.0, 9.0]])
    outputs = np.array([[14.112115600976798, -2.5], [np.inf, 0.1], [1.0, 2.0]])
    lines = []
    for fingerprint in (FP, "fp", ""):
        lines += store_lines(fingerprint, points, outputs)
    canonical = lines[0]
    pair = fields(inputs=("1", "2.5"), outputs=["3", "-4e-05"])
    one, three = (FP, FP) if ragged else ("one output", "three outputs")
    lines += [
        # valid: store's form, written by json.dumps
        record_line(pair, **COMPACT),
        record_line(fields(one, inputs=("1,2",)), **COMPACT),
        record_line(fields(three, outputs=[" 1.5", "inf", "NaN"]), **COMPACT),
        "   " + canonical + "\t",
        # a repeated key: the later line wins
        record_line(fields(inputs=("1", "2.5"), outputs=["5", "6"]), **COMPACT),
        # corrupt: JSON whose checksum is that of its re-rendered fields, but
        # not in store's form (the loader read these before it read only
        # that form; store never wrote them)
        record_line(pair),  # default separators, with spaces
        json.dumps({"checksum": json.loads(record_line(pair))["checksum"], **pair}, **COMPACT),
        json.dumps({**json.loads(record_line(pair)), "extra": 1}, **COMPACT),
        record_line(fields("é"), ensure_ascii=False, **COMPACT),
        record_line(fields("é"), **COMPACT),  # escaped as \u00e9
        record_line(fields('odd "fp" with \\'), **COMPACT),
        record_line(fields(inputs=()), **COMPACT),
        record_line(fields(outputs=[2.5, 3]), **COMPACT),
        # an escaped backslash, whose own text is its re-rendering
        rehashed(canonical.replace(FP, "\\\\", 1)),
        # corrupt: checksums of the line's own text where that differs
        # from the re-rendered fields
        rehashed(json.dumps({"inputs": ["1"], "fingerprint": FP, "outputs": ["2"],
                             "checksum": "0" * 64}, **COMPACT)),
        rehashed(canonical.replace(FP, "é", 1)),
        rehashed(canonical.replace(FP, "\x7f", 1)),
        rehashed(canonical.replace(FP, "\t", 1)),
        rehashed(canonical.replace('"inputs":["', '"inputs": ["', 1)),
        # corrupt: a single-digit flip in the inputs, the outputs or the checksum
        canonical.replace('"inputs":["0.05', '"inputs":["0.06', 1),
        canonical.replace('"outputs":["14', '"outputs":["15', 1),
        canonical[:-3] + ("0" if canonical[-3] != "0" else "1") + canonical[-2:],
        # corrupt in other ways
        canonical[:-40],
        canonical.replace("checksum", "Checksum"),
        canonical.upper(),
        record_line(fields(outputs=["abc"]), **COMPACT),
        # corrupt: an input cell that float() cannot read
        record_line(fields(one, inputs=("",)), **COMPACT),
        record_line(fields(inputs=("1", "abc")), **COMPACT),
        record_line(fields(inputs=(1,)), **COMPACT),
        record_line(fields(outputs=None), **COMPACT),
        record_line(fields(5), **COMPACT),
        '["not", "an", "object"]',
        "this is not json",
        "",
        "   ",
    ]
    return lines


class TestLoaderDifferential:
    def test_corpus_loads_like_the_json_rerender(self, tmp_path, caplog):
        lines = corpus_lines()
        path = tmp_path / "cache.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert_loads_like_reference(path, caplog)
        index, valid, corrupt = reference_scan(path)
        assert valid == 14 and len(corrupt) == 28  # the corpus holds both kinds
        # CRLF endings, a stray carriage return and no final newline
        path.write_text("\r\n".join(lines) + "\r" + lines[0], encoding="utf-8", newline="")
        assert_loads_like_reference(path, caplog)

    def test_lines_that_are_not_utf8_are_corrupt(self, tmp_path, caplog):
        lines = [line.encode() for line in corpus_lines()[:12]]
        lines[3:3] = [
            b'{"fingerprint":"\xff"}',  # an undecodable line in the middle
            lines[0].replace(FP.encode(), b"\xc3", 1),  # a truncated sequence
            lines[1].replace(FP.encode(), b"\xed\xa0\x80", 1),  # an encoded surrogate
            b"\xff\xfe" + lines[2],
        ]
        path = tmp_path / "cache.jsonl"
        path.write_bytes(b"\n".join(lines) + b"\n\xff\xfe")  # and a torn tail
        assert_loads_like_reference(path, caplog)
        index, valid, corrupt = reference_scan(path)
        assert valid == 12 and [lineno for lineno, _ in corrupt] == [4, 5, 6, 7, 17]
        assert all(error == NOT_IN_FORM for _, error in corrupt)

    def test_lines_that_alternate_output_counts_are_filed_once_per_count(
        self, tmp_path, caplog, monkeypatch
    ):
        # Merging a batch into a model's table copies the table, so filing
        # each run of one output count apart would take time quadratic in
        # the lines.
        path = tmp_path / "cache.jsonl"
        write_lines(path, [record_line(fields(inputs=(str(i % 300),), outputs=["1"] * (1 + i % 2)),
                                       **COMPACT) for i in range(1000)])
        filed = []
        file = EvaluationCache._file
        monkeypatch.setattr(EvaluationCache, "_file",
                            lambda self, *batch: filed.append(batch) or file(self, *batch))
        assert_loads_like_reference(path, caplog)
        assert sorted(outputs.shape for _, _, outputs in filed) == [(150, 1), (150, 2)]

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 10**6),
        st.sampled_from(['"', "\\", "\t", "\x7f", "\u00e9", " ", ",", "[", "]", "x", "0", "9"]),
        st.sampled_from(["replace", "insert", "delete"]),
        st.booleans(),
    )
    def test_edited_lines_load_like_the_json_rerender(self, position, char, edit, rehash):
        # One edit anywhere in a canonical line; with rehash, the checksum is
        # then recomputed over the edited line's own text.
        line = store_lines(FP, np.array([[0.05, 100.0, 7.0]]), np.array([[14.1, -2.5]]))[0]
        at = position % len(line)
        if edit == "replace":
            line = line[:at] + char + line[at + 1:]
        elif edit == "insert":
            line = line[:at] + char + line[at:]
        else:
            line = line[:at] + line[at + 1:]
        if rehash:
            line = rehashed(line)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cache.jsonl"
            path.write_text(line + "\n", encoding="utf-8")
            expected_index, expected_valid, expected_corrupt = reference_scan(path)
            cache = EvaluationCache(path)
            assert_indexes_like_reference(cache, expected_index)
            assert (cache.valid_lines, cache.corrupt_lines) == (
                expected_valid, len(expected_corrupt)
            )


NAN_PAYLOADS = np.array([0x7FF8000000000000, 0xFFF0000000000123], dtype=np.uint64).view(float)
# Rows float() reads as 1.0 that are not its "%.17g" rendering, and rows it cannot read.
OTHER_TEXTS_OF_1 = ["1.0", " 1", "+1", "1e0"]
UNREADABLE_ROWS = ["", "abc"]


def lookup_cases():
    """Points the index is asked for: sparse-grid and LHS points, special
    values (signed zeros, a subnormal, 1e300 and two NaN payloads) and the
    points that the corpus's rows and OTHER_TEXTS_OF_1 read as."""
    special = np.array([
        [-0.0, 0.0], [0.0, -0.0], [5e-324, 1e300], [NAN_PAYLOADS[0], 1.0],
        [NAN_PAYLOADS[1], 1.0], [1.0, NAN_PAYLOADS[1]], [1.0, 2.0], [1.0, 2.5],
    ])
    return {
        "sparse": 3.0 + sparse_grid(2, 4).points,
        "lhs": latin_hypercube(6, 3, 2, 4).points,
        "special": special,
        "corpus": np.array([[0.05, 100.0, 1.0 / 3.0], [-0.0, 5e-324, 1e300], [7.0, 8.0, 9.0]]),
        "one input": np.array([[1.0], [0.0], [np.nan]]),
    }


def assert_looks_up_like_the_reference(cache, path):
    """Every case's hits and values, under every fingerprint and width, are
    those of the reference index looked up by the "%.17g" row of the point;
    and the counts agree."""
    index, valid, corrupt = reference_scan(path)
    assert (cache.valid_lines, cache.corrupt_lines) == (valid, len(corrupt))
    assert len(cache) == sum(map(len, index.values()))
    for fingerprint in [*index, "no such model"]:
        for points in lookup_cases().values():
            found = [index.get(fingerprint, {}).get(row) for row in template_rows(points)]
            for width in (1, 2, 3):
                hits, values = cache.lookup(fingerprint, points, width)
                expected = [value is not None and len(value) == width for value in found]
                assert hits.tolist() == expected, (fingerprint, width)
                rows = [value for value, hit in zip(found, expected) if hit]
                assert values.shape == (len(rows), width)
                assert values.tobytes() == struct.pack(f"<{len(rows) * width}d", *sum(rows, ()))


class TestLookupDifferential:
    def test_the_index_hits_where_the_row_text_does(self, tmp_path, monkeypatch):
        path = tmp_path / "cache.jsonl"
        cases = lookup_cases()
        lines = []
        for name, points in cases.items():
            with np.errstate(invalid="ignore"):
                outputs = np.column_stack([points.sum(axis=1), -points[:, 0]])
            lines += store_lines(FP, points, outputs) + store_lines(name, points, outputs[:, :1])
        # Rows that float() reads as 1.0 but that are not its rendering (the
        # last of them wins), and rows that float() cannot read.
        for row in OTHER_TEXTS_OF_1 + UNREADABLE_ROWS:
            lines.append(record_line(fields("fp", inputs=(row,)), **COMPACT))
        lines.append(record_line(fields("fp", inputs=("1,2",), outputs=["5"]), **COMPACT))
        # Texts of one point with one output, then two, then one: the last line wins.
        for row, outputs in [("1e0", ["6"]), ("1", ["3", "4"]), ("1.0", ["5"])]:
            lines.append(record_line(fields("two texts", (row,), outputs), **COMPACT))
        write_lines(path, lines + corpus_lines() + lines[:5])
        seen = scans(monkeypatch)
        assert_looks_up_like_the_reference(EvaluationCache(path), path)  # every line checked
        assert_looks_up_like_the_reference(EvaluationCache(path), path)  # from the checkpoint
        assert seen == [(0, line_count(path)), (line_count(path), 0)]
        cache = EvaluationCache(path)
        assert cache.lookup("fp", [[1.0]], 1)[1].tolist() == [[2.0]]
        assert cache.lookup("two texts", [[1.0]], 2)[0].tolist() == [False]
        assert cache.lookup("two texts", [[1.0]], 1)[1].tolist() == [[5.0]]
        # Points stored through an open instance, the NaNs among them with
        # other payloads, and looked up before and after the next open.  (An
        # output NaN's payload is kept until then; pcekit stores none.)
        cache = EvaluationCache(path)
        special = cases["special"]
        outputs = np.arange(2.0 * len(special)).reshape(-1, 2)
        store(cache, "fp", special[::-1], outputs)
        store(cache, "fp", special[:, ::-1], outputs[::-1])
        store(cache, "fp", [[1.0]], [[3.0]])  # over the rows that read as 1.0
        cache.save_checkpoint()
        assert_looks_up_like_the_reference(cache, path)
        assert_looks_up_like_the_reference(EvaluationCache(path), path)


TEXTS = {"repr": repr, "%.17g": "%.17g".__mod__, "%.25e": "%.25e".__mod__}
SPECIAL_DOUBLES = [0.0, -0.0, 5e-324, 1e300, *NAN_PAYLOADS.tolist()]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(
    st.sampled_from(["fp", "other"]),
    st.lists(st.floats(allow_nan=False, allow_infinity=False)
             | st.sampled_from(SPECIAL_DOUBLES), min_size=2, max_size=2),
    st.sampled_from(list(TEXTS)),
    st.floats(allow_nan=False),
), min_size=1, max_size=12))
def test_every_text_of_a_point_hits_it(records):
    """Lines whose inputs are written as repr(), "%.17g" or "%.25e" hit the
    point float() reads, with the last line's outputs bit for bit, from a
    full check and from the checkpoint; len() counts the distinct points."""
    expected = {}
    lines = []
    for fingerprint, point, text, output in records:
        inputs = [TEXTS[text](value) for value in point]
        lines.append(record_line(fields(fingerprint, inputs, [repr(output)]), **COMPACT))
        bits = struct.pack("<2d", *(math.nan if math.isnan(v) else v for v in point))
        expected[fingerprint, bits] = point, output
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        path = Path(tmp) / "cache.jsonl"
        write_lines(path, lines)
        seen = scans(patch)
        for cache in (EvaluationCache(path), EvaluationCache(path)):
            assert len(cache) == len(expected) and cache.corrupt_lines == 0
            for (fingerprint, _), (point, output) in expected.items():
                hits, values = cache.lookup(fingerprint, [point], 1)
                assert hits.tolist() == [True] and values.tobytes() == struct.pack("<d", output)
        assert seen == [(0, len(lines)), (len(lines), 0)]


def scans(monkeypatch):
    """The (line number it carries on from, lines checked) of each scan an
    EvaluationCache makes from now on."""
    seen = []
    scan = EvaluationCache._scan

    def recording(self, lines, lineno, corrupt):
        lines = list(lines)
        seen.append((lineno, len(lines)))
        return scan(self, lines, lineno, corrupt)

    monkeypatch.setattr(EvaluationCache, "_scan", recording)
    return seen


def write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def line_count(path):
    with open(path, encoding="utf-8", errors="surrogateescape") as handle:
        return sum(1 for _ in handle)


def checkpoint_of(path):
    return path.with_name(path.name + ".checkpoint")


def resealed(data):
    """A checkpoint's bytes with the seal line computed anew over its body."""
    body = data[:-70]
    return body + b"seal " + hashlib.sha256(body).hexdigest().encode() + b"\n"


def flipped(data, at):
    return data[:at] + bytes([data[at] ^ 1]) + data[at + 1:]


def reheaded(checkpoint, edit):
    """Rewrite the checkpoint with edit applied to its parsed JSON head, resealed."""
    head, newline, rest = checkpoint.read_bytes().partition(b"\n")
    head = json.loads(head)
    edit(head)
    checkpoint.write_bytes(resealed(json.dumps(head).encode() + newline + rest))


# Ways a checkpoint stops matching its cache, each applied to (cache, checkpoint).
DAMAGES = {
    "missing": lambda cache, checkpoint: checkpoint.unlink(),
    "empty": lambda cache, checkpoint: checkpoint.write_bytes(b""),
    "truncated": lambda cache, checkpoint: checkpoint.write_bytes(checkpoint.read_bytes()[:-100]),
    "byte-flipped": lambda cache, checkpoint: checkpoint.write_bytes(
        flipped(checkpoint.read_bytes(), checkpoint.stat().st_size // 2)),
    "seal-flipped": lambda cache, checkpoint: checkpoint.write_bytes(
        flipped(checkpoint.read_bytes(), checkpoint.stat().st_size - 2)),
    "foreign-version": lambda cache, checkpoint: checkpoint.write_bytes(resealed(
        checkpoint.read_bytes().replace(b"pcekit-cache-checkpoint/4", b"pcekit-cache-checkpoint/5"))),
    # Resealed heads that do not describe the body they seal.
    "rows-2**47": lambda cache, checkpoint: reheaded(
        checkpoint, lambda head: head["tables"][0].__setitem__(3, 2**47)),
    "negative-width": lambda cache, checkpoint: reheaded(
        checkpoint, lambda head: head["tables"][0].__setitem__(1, -head["tables"][0][1])),
    "width-as-string": lambda cache, checkpoint: reheaded(
        checkpoint, lambda head: head["tables"][0].__setitem__(1, str(head["tables"][0][1]))),
    "zero-width-table": lambda cache, checkpoint: reheaded(
        checkpoint, lambda head: head["tables"].append(["fp", 0, 0, 2**47])),
    "one-row-short": lambda cache, checkpoint: reheaded(
        checkpoint, lambda head: head["tables"][0].__setitem__(3, head["tables"][0][3] - 1)),
    "corrupt-entry-not-a-list": lambda cache, checkpoint: reheaded(
        checkpoint, lambda head: head["corrupt"].__setitem__(0, "%d %s" % tuple(head["corrupt"][0]))),
    "head-nested-too-deep": lambda cache, checkpoint: checkpoint.write_bytes(resealed(
        b"[" * 10**5 + b"]" * 10**5 + b"\n" + checkpoint.read_bytes().partition(b"\n")[2])),
    "stale": lambda cache, checkpoint: write_lines(cache, corpus_lines(ragged=False)[::-1]),
    "cache-shortened": lambda cache, checkpoint: write_lines(cache, corpus_lines(ragged=False)[:-5]),
    "cache-byte-flipped": lambda cache, checkpoint: cache.write_bytes(
        flipped(cache.read_bytes(), 100)),
}


class TestCheckpoint:
    def test_corpus_loads_like_the_reference_through_its_checkpoint(
        self, tmp_path, caplog, monkeypatch
    ):
        path = tmp_path / "cache.jsonl"
        lines = corpus_lines(ragged=False)
        write_lines(path, lines)
        seen = scans(monkeypatch)
        assert_loads_like_reference(path, caplog)  # opened fresh, which writes the checkpoint
        assert checkpoint_of(path).exists()
        assert_loads_like_reference(path, caplog)  # from the checkpoint
        # One valid line, which replaces the first record's outputs, and one corrupt line.
        points = np.array([[0.05, 100.0, 1.0 / 3.0]])
        appended = store_lines(FP, points, np.array([[-0.0, 5e-324]])) + ["this is not json"]
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("".join(line + "\n" for line in appended))
        assert_loads_like_reference(path, caplog)  # the checkpoint, then the two lines
        assert_loads_like_reference(path, caplog)  # from the checkpoint that open wrote
        count = len(lines)
        assert seen == [(0, count), (count, 0), (count, 2), (count + 2, 0)]

    @pytest.mark.parametrize("damage", list(DAMAGES))
    def test_a_checkpoint_that_does_not_match_is_not_used(
        self, tmp_path, caplog, monkeypatch, damage
    ):
        path = tmp_path / "cache.jsonl"
        write_lines(path, corpus_lines(ragged=False))
        EvaluationCache(path)
        DAMAGES[damage](path, checkpoint_of(path))
        seen = scans(monkeypatch)
        assert_loads_like_reference(path, caplog)  # a full scan, which writes a new checkpoint
        assert_loads_like_reference(path, caplog)
        count = line_count(path)
        assert seen == [(0, count), (count, 0)]

    def test_a_ragged_model_is_checkpointed(self, tmp_path, caplog, monkeypatch):
        # The corpus as it stands files rows of one, two and three outputs
        # under one model, each output count in a table of its own.
        path = tmp_path / "cache.jsonl"
        write_lines(path, corpus_lines())
        seen = scans(monkeypatch)
        assert_loads_like_reference(path, caplog)
        assert_loads_like_reference(path, caplog)
        count = line_count(path)
        assert seen == [(0, count), (count, 0)]
        # A row of another output count replaces its key's row in the
        # model's other tables, through the checkpoint as in a full check.
        written = checkpoint_of(path).read_bytes()
        with open(path, "a", encoding="utf-8") as handle:
            for outputs in (["1"], ["7", "8", "9"]):
                handle.write(record_line(fields(inputs=("1", "2.5"), outputs=outputs), **COMPACT))
                handle.write("\n")
        del seen[:]
        assert_loads_like_reference(path, caplog)
        assert_loads_like_reference(path, caplog)
        assert seen == [(count, 2), (count + 2, 0)]
        assert checkpoint_of(path).read_bytes() != written
        rewritten = checkpoint_of(path).read_bytes()
        checkpoint_of(path).unlink()
        assert_loads_like_reference(path, caplog)
        assert checkpoint_of(path).read_bytes() == rewritten

    def test_a_last_line_without_its_newline_is_not_covered(self, tmp_path, caplog, monkeypatch):
        path = tmp_path / "cache.jsonl"
        lines = corpus_lines(ragged=False)
        # CRLF endings, a stray carriage return and a valid last line without its newline.
        path.write_text("\r\n".join(lines) + "\r" + lines[0], encoding="utf-8", newline="")
        assert_loads_like_reference(path, caplog)
        assert not checkpoint_of(path).exists()
        write_lines(path, lines)
        EvaluationCache(path)
        written = checkpoint_of(path).read_bytes()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(lines[0][:-40])  # a write cut short
        seen = scans(monkeypatch)
        assert_loads_like_reference(path, caplog)
        assert checkpoint_of(path).read_bytes() == written
        # store ends the torn line before it appends; that line is then covered.
        store(EvaluationCache(path), "another model", [[1.0]], [[2.0]])
        assert_loads_like_reference(path, caplog)
        assert_loads_like_reference(path, caplog)
        count = len(lines)
        assert seen == [(count, 1), (count, 1), (count, 2), (count + 2, 0)]

    def test_a_checkpoint_that_cannot_be_written_changes_nothing(self, tmp_path, caplog):
        path = tmp_path / "cache.jsonl"
        write_lines(path, corpus_lines(ragged=False))
        checkpoint_of(path).mkdir()  # no file can be moved onto a directory
        assert_loads_like_reference(path, caplog)
        assert sorted(os.listdir(tmp_path)) == ["cache.jsonl", "cache.jsonl.checkpoint"]
        assert not os.listdir(checkpoint_of(path))

    def test_a_read_only_directory_still_opens(self, tmp_path, caplog):
        directory = tmp_path / "read-only"
        directory.mkdir()
        path = directory / "cache.jsonl"
        write_lines(path, corpus_lines(ragged=False))
        directory.chmod(0o555)
        try:
            assert_loads_like_reference(path, caplog)
            names = sorted(os.listdir(directory))
        finally:
            directory.chmod(0o755)
        # File modes do not bind root, whose checkpoint is written.
        written = ["cache.jsonl.checkpoint"] if os.geteuid() == 0 else []
        assert names == ["cache.jsonl", *written]

    def test_an_interrupt_during_the_write_leaves_no_temporary_file(self, tmp_path, monkeypatch):
        path = tmp_path / "cache.jsonl"
        lines = corpus_lines(ragged=False)
        write_lines(path, lines[:10])
        EvaluationCache(path)
        written = checkpoint_of(path).read_bytes()
        write_lines(path, lines)
        replacing = surrogate._replacing

        @contextlib.contextmanager
        def interrupted(target):
            with replacing(target) as handle:
                def write(data):
                    handle.buffer.write(data)
                    raise KeyboardInterrupt
                yield types.SimpleNamespace(buffer=types.SimpleNamespace(write=write))

        monkeypatch.setattr(surrogate, "_replacing", interrupted)
        with pytest.raises(KeyboardInterrupt):
            EvaluationCache(path)
        assert sorted(os.listdir(tmp_path)) == ["cache.jsonl", "cache.jsonl.checkpoint"]
        assert checkpoint_of(path).read_bytes() == written

    def test_hits_through_the_checkpoint_are_bit_identical(self, tmp_path, monkeypatch):
        spec = builtin_spec(
            "csg-proxy",
            inputs=tuple(n for n, _, _ in CSG_PROXY_INPUTS),
            outputs=CSG_PROXY_OUTPUTS,
        )
        lo, hi = np.array([(lo, hi) for _, lo, hi in CSG_PROXY_INPUTS]).T
        points = lo + (hi - lo) * np.random.default_rng(8).random((200, 4))
        path = tmp_path / "cache.jsonl"
        fresh = BlackBoxModel(spec, cache=EvaluationCache(path))(points)
        special = np.array([[-0.0, 5e-324], [np.nan, -np.inf], [1e300, 1.0 / 3.0]])
        store(EvaluationCache(path), "special", special, special)
        seen = scans(monkeypatch)
        caches = [EvaluationCache(path), EvaluationCache(path)]
        assert seen == [(200, 3), (203, 0)]
        for cache in caches:
            box = BlackBoxModel(spec, cache=cache)
            assert box(points).tobytes() == fresh.tobytes()
            assert (box.fresh_count, box.cached_count) == (0, 200)
            hits, values = cache.lookup("special", special, 2)
            assert hits.all() and values.tobytes() == special.tobytes()

    @pytest.mark.parametrize("start", ["no file", "corpus"])
    @pytest.mark.parametrize("kind", ["builtin", "external"])
    def test_a_batch_leaves_a_checkpoint_of_the_whole_file(
        self, tmp_path, caplog, monkeypatch, kind, start
    ):
        path = tmp_path / "cache.jsonl"
        if start == "corpus":
            write_lines(path, corpus_lines(ragged=False))
        points = np.column_stack([np.arange(6.0), np.arange(6.0) / 7.0])
        if kind == "builtin":
            box = BlackBoxModel(builtin_spec("sobol-example-1"), cache=EvaluationCache(path))
        else:
            script = tmp_path / "double.py"
            script.write_text(ECHO_DOUBLER)
            box = BlackBoxModel(external_spec(script), cache=EvaluationCache(path), workers=2)
        box(points)
        written = checkpoint_of(path).read_bytes()
        seen = scans(monkeypatch)
        assert_loads_like_reference(path, caplog)
        assert seen == [(line_count(path), 0)]
        # The same bytes as the checkpoint a full check of the file writes.
        checkpoint_of(path).unlink()
        assert_loads_like_reference(path, caplog)
        assert checkpoint_of(path).read_bytes() == written

    def test_lines_another_writer_appends_are_checked(self, tmp_path, caplog, monkeypatch):
        path = tmp_path / "cache.jsonl"
        lines = corpus_lines(ragged=False)
        write_lines(path, lines)
        cache = EvaluationCache(path)
        # One valid line, which replaces a record's outputs, and one corrupt line.
        points = np.array([[0.05, 100.0, 1.0 / 3.0]])
        appended = store_lines(FP, points, np.array([[-0.0, 5e-324]])) + ["this is not json"]
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("".join(line + "\n" for line in appended))
        store(cache, "another model", [[1.0], [2.0]], [[1.0], [2.0]])
        store(cache, "another model", [[3.0]], [[3.0]])
        cache.save_checkpoint()  # writes none: the file is not the one it opened
        seen = scans(monkeypatch)
        assert_loads_like_reference(path, caplog)
        assert_loads_like_reference(path, caplog)
        count = len(lines)
        assert seen == [(count, 5), (count + 5, 0)]

    def test_two_instances_storing_in_turn(self, tmp_path, caplog, monkeypatch):
        path = tmp_path / "cache.jsonl"
        first, second = EvaluationCache(path), EvaluationCache(path)
        for cache, fingerprint, value in [(first, "a", 1.0), (second, "b", 2.0), (first, "a", 3.0)]:
            store(cache, fingerprint, [[value]], [[value]])
            cache.save_checkpoint()
        seen = scans(monkeypatch)
        assert_loads_like_reference(path, caplog)
        assert_loads_like_reference(path, caplog)
        assert seen == [(1, 2), (3, 0)]

    def test_a_checkpoint_that_cannot_be_written_keeps_the_lines(self, tmp_path, caplog):
        path = tmp_path / "cache.jsonl"
        checkpoint_of(path).mkdir()  # no file can be moved onto a directory
        spec = builtin_spec("sobol-example-1")
        points = np.array([[0.5, 0.5], [0.1, -0.2]])
        fresh = BlackBoxModel(spec, cache=EvaluationCache(path))(points)
        cache = EvaluationCache(path)
        store(cache, "another model", [[1.0]], [[2.0]])
        cache.save_checkpoint()
        assert not os.listdir(checkpoint_of(path))
        assert_loads_like_reference(path, caplog)
        box = BlackBoxModel(spec, cache=EvaluationCache(path))
        assert box(points).tobytes() == fresh.tobytes() and box.cached_count == 2

    def test_a_failing_chunk_leaves_the_others_checkpointed(self, tmp_path, caplog, monkeypatch):
        script = tmp_path / "solver.py"
        script.write_text(FAILS_ON_MARKED_ROW.format(fixed=str(tmp_path / "fixed")))
        spec = external_spec(script)
        points = np.array([[2.0, 0.5], [3.0, 0.5], [1.0, 0.5], [4.0, 0.5]])  # chunk 1 holds 1
        path = tmp_path / "cache.jsonl"
        with pytest.raises(EvaluationError, match="diverged"):
            BlackBoxModel(spec, cache=EvaluationCache(path), workers=2)(points)
        seen = scans(monkeypatch)
        assert_loads_like_reference(path, caplog)
        assert seen == [(2, 0)]
        hits, _ = EvaluationCache(path).lookup(spec.fingerprint(), points, 2)
        assert hits.tolist() == [True, True, False, False]

    def assert_store_refuses(self, tmp_path, points, outputs, rows):
        path = tmp_path / "cache.jsonl"
        cache = EvaluationCache(path)
        store(cache, "fp", [[0.0]], [[0.0]])
        cache.save_checkpoint()
        before = path.read_bytes(), checkpoint_of(path).read_bytes()
        with pytest.raises(ValueError, match="not printable ASCII|rows and points of shape"):
            cache.store("fp", points, outputs, rows)
        assert (path.read_bytes(), checkpoint_of(path).read_bytes()) == before
        hits, _ = cache.lookup("fp", [[1.0], [2.0]], 1)
        assert hits.tolist() == [False, False] and cache.valid_lines == len(cache) == 1

    @pytest.mark.parametrize("rows, outputs", [
        (['a"b'], [[1.0]]),
        (["back\\slash"], [[1.0]]),
        (["two\nlines"], [[1.0]]),
        (["1", "tab\there"], [[1.0], [2.0]]),
        (["é"], [[1.0]]),
        (["1", "2"], [[1.0]]),
        (["1"], [[1.0], [2.0]]),
    ])
    def test_store_refuses_rows_its_lines_cannot_hold(self, tmp_path, rows, outputs):
        points = np.arange(1.0, len(outputs) + 1.0)[:, None]
        self.assert_store_refuses(tmp_path, points, outputs, rows)

    @pytest.mark.parametrize("points, outputs", [
        ([[1.0], [2.0]], [[1.0]]),
        ([[1.0]], [[1.0], [2.0]]),
        ([1.0], [[1.0]]),
        ([[1.0]], [1.0]),
        ([[[1.0]]], [[1.0]]),
    ])
    def test_store_refuses_points_and_outputs_that_do_not_pair(self, tmp_path, points, outputs):
        self.assert_store_refuses(tmp_path, points, outputs, ["1"] * len(points))

    def test_a_failed_flush_leaves_the_lines_to_be_checked(self, tmp_path, caplog, monkeypatch):
        class FlushFails(io.BufferedRandom):
            def flush(self):
                raise OSError(errno.ENOSPC, "No space left on device")

        path = tmp_path / "cache.jsonl"
        cache = EvaluationCache(path)
        store(cache, "fp", [[0.0]], [[0.0]])
        assert not checkpoint_of(path).exists()  # store itself writes none
        cache.save_checkpoint()
        before = checkpoint_of(path).read_bytes()
        with monkeypatch.context() as patch:
            patch.setattr(blackbox, "open", lambda file, mode: FlushFails(io.FileIO(file, "a+")),
                          raising=False)
            with pytest.raises(OSError, match="No space left"):
                store(cache, "fp", [[1.0]], [[1.0]])
        assert cache.lookup("fp", [[1.0]], 1)[0].tolist() == [False]
        # Writes none: the instance no longer knows the file, then or later.
        cache.save_checkpoint()
        assert checkpoint_of(path).read_bytes() == before
        store(cache, "fp", [[2.0]], [[2.0]])
        cache.save_checkpoint()
        assert checkpoint_of(path).read_bytes() == before
        seen = scans(monkeypatch)
        assert_loads_like_reference(path, caplog)
        assert seen == [(1, 1)]

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_a_version_1_checkpoint_is_replaced_once(self, tmp_path, caplog, monkeypatch, version):
        # The cache and the checkpoint an earlier format's code wrote for it.
        path = tmp_path / "cache.jsonl"
        path.write_bytes((DATA / "v1_checkpoint_cache.jsonl").read_bytes())
        checkpoint_of(path).write_bytes(
            (DATA / f"v1_checkpoint_cache.checkpoint-v{version}").read_bytes())
        json_head = b'{"format": "pcekit-cache-checkpoint/%d", "size": 7916, "lines": 43, '
        assert checkpoint_of(path).read_bytes().startswith(
            b"pcekit-cache-checkpoint/%d 7916 43 " % version if version < 3 else json_head % 3)
        seen = scans(monkeypatch)
        assert_loads_like_reference(path, caplog)  # a full check, which writes version 4
        assert checkpoint_of(path).read_bytes().startswith(json_head % 4)
        assert_loads_like_reference(path, caplog)
        count = line_count(path)
        assert seen == [(0, count), (count, 0)]

    def test_the_checkpoint_and_the_index_allocate_little_beyond_the_arrays(self, tmp_path):
        # The 18,713 points of the sparse8d-external cache after validate:
        # a level-5 8-D sparse grid and 3000 LHS points, one output each.
        points = np.vstack([sparse_grid(8, 5).points, latin_hypercube(10, 8, 300, 1).points])
        path = tmp_path / "cache.jsonl"
        cache = EvaluationCache(path)
        store(cache, "fp", points, points[:, :1] ** 2)
        cache.save_checkpoint()
        tracemalloc.start()
        try:
            cache = EvaluationCache(path)
            before, opened = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            cache._saved = 0  # written anew, as after a batch
            cache._save()
            _, saved = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        keys, values = cache._index["fp", 8, 1]
        assert len(cache) == len(keys) == 18713
        arrays = keys.nbytes + values.nbytes
        assert opened - arrays <= 2**20 and saved - before <= 2**20


ECHO_DOUBLER = """\
import csv, sys

def rows(path):
    with open(path) as handle:
        return list(csv.reader(handle))

if len(sys.argv) > 1:
    data = rows(sys.argv[1])
else:
    data = list(csv.reader(sys.stdin))
writer = csv.writer(sys.stdout)
writer.writerow(["y1", "y2"])
for row in data[1:]:
    writer.writerow([2.0 * float(row[0]), 2.0 * float(row[1])])
"""


def running(pid):
    """Whether the process is alive; a zombie awaiting its reaper is not."""
    try:
        os.kill(pid, 0)
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rpartition(")")[2].split()[0] != "Z"
    except ProcessLookupError:
        return False
    except FileNotFoundError:
        return not os.path.isdir("/proc")


def external_spec(script_path, io_format="argfile", timeout=30.0):
    return ModelSpec(
        kind="external",
        input_names=("a", "b"),
        output_names=("y1", "y2"),
        command=(sys.executable, str(script_path)),
        io_format=io_format,
        timeout_seconds=timeout,
    )


class TestExternalProtocol:
    @pytest.mark.parametrize("io_format", ["argfile", "stdin"])
    def test_row_alignment(self, tmp_path, io_format):
        script = tmp_path / "double.py"
        script.write_text(ECHO_DOUBLER)
        spec = external_spec(script, io_format=io_format)
        points = np.array([[1.0, 10.0], [2.0, 20.0], [3.0, 30.0]])
        assert BlackBoxModel(spec)(points).tolist() == (2.0 * points).tolist()

    def test_fewer_rows_is_malformed(self, tmp_path):
        script = tmp_path / "short.py"
        script.write_text(
            "print('y1,y2')\nprint('1.0,2.0')\n"
        )
        spec = external_spec(script)
        with pytest.raises(EvaluationError, match="rows"):
            BlackBoxModel(spec)(np.array([[1.0, 2.0], [3.0, 4.0]]))

    def test_wrong_header_is_malformed(self, tmp_path):
        script = tmp_path / "badheader.py"
        script.write_text("print('funny,labels')\nprint('1.0,2.0')\n")
        spec = external_spec(script)
        with pytest.raises(EvaluationError, match="header"):
            BlackBoxModel(spec)(np.array([[1.0, 2.0]]))

    def test_nonzero_exit_reports_stderr(self, tmp_path):
        script = tmp_path / "fail.py"
        script.write_text("import sys; sys.stderr.write('solver exploded'); sys.exit(3)")
        spec = external_spec(script)
        with pytest.raises(EvaluationError, match="solver exploded"):
            BlackBoxModel(spec)(np.array([[1.0, 2.0]]))

    def test_timeout_kills_the_process(self, tmp_path):
        script = tmp_path / "sleepy.py"
        script.write_text("import time; time.sleep(60)")
        spec = external_spec(script, timeout=0.5)
        with pytest.raises(EvaluationError, match="timed out"):
            BlackBoxModel(spec)(np.array([[1.0, 2.0]]))

    def test_timeout_kills_the_whole_process_tree(self, tmp_path):
        # The solver shell starts two sleeps and records their pids; both
        # attempts (the launch and its retry) must leave none of them alive.
        pid_file = tmp_path / "pids"
        record = f"echo $! >> {shlex.quote(str(pid_file))}"
        spec = ModelSpec(
            kind="external",
            input_names=("a", "b"),
            output_names=("y1", "y2"),
            command=("sh", "-c", f"sleep 30 & {record}; sleep 30 & {record}; wait"),
            io_format="stdin",
            timeout_seconds=1.0,
        )
        pids = []
        try:
            with pytest.raises(EvaluationError, match="timed out"):
                BlackBoxModel(spec)(np.array([[1.0, 2.0]]))
            pids = [int(pid) for pid in pid_file.read_text().split()]
            assert len(pids) == 4
            deadline = time.monotonic() + 5.0
            while any(map(running, pids)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert [pid for pid in pids if running(pid)] == []
        finally:
            if pid_file.exists():
                pids = [int(pid) for pid in pid_file.read_text().split()]
            for pid in pids:
                if running(pid):
                    os.kill(pid, signal.SIGKILL)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_interrupt_kills_every_running_launch(self, tmp_path, workers):
        # Each launch starts a 30 s sleep and records its pid; an interrupt
        # 1 s in must end the call within 3 s and leave no sleep alive.
        pid_file = tmp_path / "pids"
        spec = ModelSpec(
            kind="external",
            input_names=("a", "b"),
            output_names=("y1", "y2"),
            command=("sh", "-c", f"sleep 30 & echo $! >> {shlex.quote(str(pid_file))}; wait"),
            io_format="stdin",
            timeout_seconds=60.0,
        )
        interrupt = threading.Timer(
            1.0, signal.pthread_kill, (threading.main_thread().ident, signal.SIGINT)
        )
        pids = []
        try:
            started = time.monotonic()
            interrupt.start()
            with pytest.raises(KeyboardInterrupt):
                BlackBoxModel(spec, workers=workers)(np.array([[1.0, 2.0], [3.0, 4.0]]))
            assert time.monotonic() - started < 3.0
            pids = [int(pid) for pid in pid_file.read_text().split()]
            assert len(pids) == workers
            deadline = time.monotonic() + 5.0
            while any(map(running, pids)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert [pid for pid in pids if running(pid)] == []
        finally:
            interrupt.cancel()
            if pid_file.exists():
                pids = [int(pid) for pid in pid_file.read_text().split()]
            for pid in pids:
                if running(pid):
                    os.kill(pid, signal.SIGKILL)

    def test_transient_failure_is_retried_once(self, tmp_path):
        marker = tmp_path / "attempted"
        script = tmp_path / "flaky.py"
        script.write_text(
            f"""\
import csv, os, sys
marker = {str(marker)!r}
if not os.path.exists(marker):
    open(marker, "w").close()
    sys.stderr.write("transient")
    sys.exit(1)
data = list(csv.reader(open(sys.argv[1])))
writer = csv.writer(sys.stdout)
writer.writerow(["y1", "y2"])
for row in data[1:]:
    writer.writerow(row)
"""
        )
        spec = external_spec(script)
        assert BlackBoxModel(spec)(np.array([[4.0, 5.0]])).tolist() == [[4.0, 5.0]]
        assert marker.exists()

    def test_worker_chunks_preserve_order(self, tmp_path):
        script = tmp_path / "double.py"
        script.write_text(ECHO_DOUBLER)
        spec = external_spec(script)
        points = np.arange(20.0).reshape(10, 2)
        assert BlackBoxModel(spec, workers=3)(points).tolist() == (2.0 * points).tolist()


FAILS_ON_MARKED_ROW = """\
import csv, os, sys
data = list(csv.reader(open(sys.argv[1])))
if any(row[0] == "1" for row in data[1:]) and not os.path.exists({fixed!r}):
    sys.exit("solver diverged")
writer = csv.writer(sys.stdout)
writer.writerow(["y1", "y2"])
for row in data[1:]:
    writer.writerow([2.0 * float(row[0]), 2.0 * float(row[1])])
"""


class TestResume:
    def test_failing_chunk_keeps_the_others(self, tmp_path):
        fixed = tmp_path / "fixed"
        script = tmp_path / "solver.py"
        script.write_text(FAILS_ON_MARKED_ROW.format(fixed=str(fixed)))
        spec = external_spec(script)
        points = np.column_stack([np.arange(8.0), np.arange(8.0) + 0.5])  # chunk 0 holds 1
        path = tmp_path / "cache.jsonl"
        with pytest.raises(EvaluationError, match="diverged"):
            BlackBoxModel(spec, cache=EvaluationCache(path), workers=4)(points)
        cache = EvaluationCache(path)
        assert len(cache) == 6
        hits, _ = cache.lookup(spec.fingerprint(), points, 2)
        assert hits.tolist() == [False] * 2 + [True] * 6

        fixed.touch()
        box = BlackBoxModel(spec, cache=cache, workers=4)
        assert np.array_equal(box(points), 2.0 * points)
        assert box.fresh_count == 2 and box.cached_count == 6


# Writes, as each row's outputs, the thread-pool variables it was launched
# with (-1 where unset).  With a directory given, the first launch of a
# chunk (named by its first row's first value) writes them to a file there
# instead and fails, so that the chunk is retried.
THREAD_ECHO = """\
import csv, os, sys
names = {names!r}
seen = [os.environ.get(name, "-1") for name in names]
data = list(csv.reader(open(sys.argv[1])))
if {fail_dir!r}:
    marker = os.path.join({fail_dir!r}, data[1][0])
    if not os.path.exists(marker):
        with open(marker, "w") as handle:
            handle.write(" ".join(seen))
        sys.exit("transient")
writer = csv.writer(sys.stdout)
writer.writerow(names)
for row in data[1:]:
    writer.writerow(seen)
"""


def thread_echo(tmp_path, fail_dir=""):
    """A model whose outputs are the thread variables its solver launch saw."""
    script = tmp_path / "threads.py"
    script.write_text(THREAD_ECHO.format(names=blackbox.THREAD_ENV_VARS, fail_dir=str(fail_dir)))
    return ModelSpec(
        kind="external",
        input_names=("a", "b"),
        output_names=blackbox.THREAD_ENV_VARS,
        command=(sys.executable, str(script)),
    )


def usable_cores():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@pytest.fixture
def unset_thread_vars(monkeypatch):
    for name in blackbox.THREAD_ENV_VARS:
        monkeypatch.delenv(name, raising=False)
    return monkeypatch


class TestThreadShare:
    def test_concurrent_launches_get_their_share_of_the_cores(self, tmp_path, unset_thread_vars):
        points = np.arange(8.0).reshape(4, 2)
        seen = BlackBoxModel(thread_echo(tmp_path), workers=2)(points)
        assert (seen == max(1, usable_cores() // 2)).all()

    @pytest.mark.parametrize(
        "affinity, cpu_count, workers, rows, share",
        [
            (8, None, 2, 4, 4),
            (8, None, 3, 2, 4),  # two rows make two launches, not three
            (8, None, 3, 9, 2),
            (1, None, 2, 2, 1),
            (None, 6, 2, 2, 3),  # no sched_getaffinity: os.cpu_count()
            (None, None, 4, 4, 1),  # and no count either
        ],
    )
    def test_share_divides_the_usable_cores_among_the_launches(
        self, tmp_path, unset_thread_vars, affinity, cpu_count, workers, rows, share
    ):
        if affinity is None:
            unset_thread_vars.delattr(os, "sched_getaffinity", raising=False)
        else:
            unset_thread_vars.setattr(
                os, "sched_getaffinity", lambda pid: set(range(affinity)), raising=False
            )
        unset_thread_vars.setattr(os, "cpu_count", lambda: cpu_count)
        points = np.arange(2.0 * rows).reshape(rows, 2)
        seen = BlackBoxModel(thread_echo(tmp_path), workers=workers)(points)
        assert (seen == share).all()

    @pytest.mark.parametrize("workers, rows", [(1, 4), (2, 1)])
    def test_a_single_launch_inherits_the_environment(
        self, tmp_path, unset_thread_vars, workers, rows
    ):
        unset_thread_vars.setenv("OMP_NUM_THREADS", "3")
        points = np.arange(2.0 * rows).reshape(rows, 2)
        seen = BlackBoxModel(thread_echo(tmp_path), workers=workers)(points)
        assert seen.tolist() == [[3.0, -1.0, -1.0]] * rows

    def test_a_variable_the_user_set_is_kept(self, tmp_path, unset_thread_vars):
        unset_thread_vars.setenv("OMP_NUM_THREADS", "3")
        points = np.arange(8.0).reshape(4, 2)
        seen = BlackBoxModel(thread_echo(tmp_path), workers=2)(points)
        share = max(1, usable_cores() // 2)
        assert seen.tolist() == [[3.0, share, share]] * 4

    def test_a_retried_launch_gets_the_same_environment(self, tmp_path, unset_thread_vars):
        unset_thread_vars.setenv("MKL_NUM_THREADS", "5")
        fail_dir = tmp_path / "failed"
        fail_dir.mkdir()
        points = np.arange(8.0).reshape(4, 2)
        seen = BlackBoxModel(thread_echo(tmp_path, fail_dir), workers=2)(points)
        share = str(max(1, usable_cores() // 2))
        first_attempts = {path.name: path.read_text() for path in fail_dir.iterdir()}
        assert first_attempts == {"0": f"{share} {share} 5", "4": f"{share} {share} 5"}
        assert seen.tolist() == [[float(share), float(share), 5.0]] * 4


class TestBatchSemantics:
    def test_outputs_follow_input_order_with_mixed_sources(self, tmp_path):
        cache = EvaluationCache(tmp_path / "cache.jsonl")
        spec = builtin_spec("sobol-example-2")
        BlackBoxModel(spec, cache=cache)(np.array([[0.5, 0.5]]))
        points = np.array([[0.1, 0.1], [0.5, 0.5], [0.9, 0.9]])
        hits, values = cache.lookup(spec.fingerprint(), points, 1)
        assert hits.tolist() == [False, True, False] and values.tolist() == [[0.625]]
        box = BlackBoxModel(spec, cache=cache)
        outputs = box(points)
        assert (box.fresh_count, box.cached_count) == (2, 1)
        expected = points[:, 0] ** 3 + points[:, 1]
        assert np.allclose(outputs[:, 0], expected)

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ConfigurationError, match="columns"):
            BlackBoxModel(builtin_spec("sobol-example-1"))(np.zeros((2, 3)))

    def test_builtin_failure_names_the_point(self):
        # deterministic failure: csg-proxy's exp overflows at this permeability
        spec = builtin_spec(
            "csg-proxy", tuple(n for n, _, _ in CSG_PROXY_INPUTS), CSG_PROXY_OUTPUTS
        )
        bad = [0.02, -1e6, 0.0002, 0.6]
        with pytest.raises(EvaluationError, match="point") as info:
            BlackBoxModel(spec)(np.array([[0.02, 400.0, 0.0002, 0.6], bad]))
        assert str(bad) in str(info.value)

    def test_adapter_counts_and_shape(self, tmp_path):
        cache = EvaluationCache(tmp_path / "cache.jsonl")
        box = BlackBoxModel(builtin_spec("sobol-example-1"), cache=cache)
        points = np.array([[0.0, 0.0], [0.5, 0.5]])
        out = box(points)
        assert out.shape == (2, 1)
        assert box.fresh_count == 2 and box.cached_count == 0
        box(points)
        assert box.fresh_count == 2 and box.cached_count == 2
