"""Polynomial chaos surrogates: build, evaluate, moments, persistence.

A surrogate approximates a black-box model as a sum of coefficient vectors
times tensor-product Legendre polynomials over a multi-index neighbourhood.
Coefficients are computed non-intrusively, by quadrature projection:

    c_i = prod_j((2 i_j + 1) / 2) * sum_q  M(x_q) * prod_j L_{i_j}(xi_q_j) * w_q

with one model evaluation per grid point, shared by every coefficient and
every output.  The grid and the neighbourhood are linked: a full
Gauss-Legendre grid of order p serves a tensor-product neighbourhood of
order p, a sparse Clenshaw-Curtis grid of level l serves a total-order
neighbourhood of order l; in both cases the quadrature integrates the
projection integrand exactly when the model itself is a polynomial over the
neighbourhood.

Projection and evaluation share one sum-factorised kernel for both kinds of
neighbourhood; no (points x terms) basis matrix is formed.  Points go
through it in chunks, and CHUNK_BYTES bounds every byte one chunk
allocates: the basis rows, the block made from them (both in buffers that
every chunk reuses), the temporaries that build them and a projection's
accumulator.  The kernel is points-last: it takes points as a (dim, M)
array, builds each half's basis rows as a (prefixes, points) block from
degree-major Legendre tables, and so gathers whole contiguous rows rather
than strided columns.

Physical inputs live on [min, max] ranges and are rescaled to [-1, 1]
internally; the black box is always called in physical units.
"""
from __future__ import annotations

import contextlib
import datetime as _dt
import functools
import itertools
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Callable, ClassVar, Iterator, Sequence

import numpy as np

from . import multiindex, polybasis
from .errors import ConfigurationError, EvaluationError, ModelFormatError

MODEL_SCHEMA = "pcekit/pce-model"
MODEL_SCHEMA_VERSION = 1

# Coefficients below this relative threshold are quadrature noise; storing
# exact zeros keeps serialized models stable.
COEFFICIENT_SNAP = 1e-14

# Bound on the bytes one projection or evaluation chunk allocates; it sets
# how many points each chunk takes.  At 8 MiB a chunk's basis rows stay
# near a 2 MiB L2 cache.  Timed in fresh processes on a 2-vCPU Xeon (2 MiB
# L2 per core), 8-16 MiB were fastest or near it; at 32 MiB the 8-D cases
# ran 11-20% slower, and at 2 MiB a 4-D evaluation 20% slower.
CHUNK_BYTES = 8 * 2**20
# Coefficient rows formatted per join by save.
SAVE_BLOCK_ROWS = 4096


@dataclass(frozen=True)
class FullGrid:
    """Build method: full Gauss-Legendre grid serving order-p tensor neighbourhood."""

    order: int
    type: ClassVar[str] = "full-grid"
    key: ClassVar[str] = "order"

    def fit(self, evaluate: Callable[[np.ndarray], np.ndarray], dim: int) -> tuple:
        from . import quadrature  # only a build needs grids

        nbhd = multiindex.Neighborhood(multiindex.TENSOR_PRODUCT, self.order, dim)
        return _project(nbhd, quadrature.full_grid(dim, self.order), evaluate)


@dataclass(frozen=True)
class SparseGrid:
    """Build method: sparse Clenshaw-Curtis grid serving level-l total-order neighbourhood."""

    level: int
    type: ClassVar[str] = "sparse-grid"
    key: ClassVar[str] = "level"

    def fit(self, evaluate: Callable[[np.ndarray], np.ndarray], dim: int) -> tuple:
        from . import quadrature

        nbhd = multiindex.Neighborhood(multiindex.TOTAL_ORDER, self.level, dim)
        return _project(nbhd, quadrature.sparse_grid(dim, self.level), evaluate)


# The build methods by config "type".  Each holds its one parameter under
# `key`; fit(evaluate, dim) calls evaluate at points in [-1, 1]^dim and
# returns (kernel, coefficients, neighbourhood, meta), the kernel holding
# the index array and meta the method's build_meta entries.
METHODS = {method.type: method for method in (FullGrid, SparseGrid)}


@dataclass(frozen=True)
class InputVariable:
    """An uncertain input, uniform over [v_min, v_max]."""

    name: str
    v_min: float
    v_max: float

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("input variable needs a non-empty name")
        if not (np.isfinite(self.v_min) and np.isfinite(self.v_max)):
            raise ConfigurationError(f"variable {self.name!r}: range must be finite")
        if not self.v_min < self.v_max:
            raise ConfigurationError(
                f"variable {self.name!r}: range minimum {self.v_min} must be "
                f"strictly below maximum {self.v_max}"
            )


def rescale(v: float, var: InputVariable) -> float:
    """Map a physical value onto [-1, 1]: (2v - max - min) / (max - min).

    Exactly -1 at v_min and +1 at v_max; values outside the range map
    outside [-1, 1] (caller's policy).
    """
    return 2.0 * (v - var.v_min) / (var.v_max - var.v_min) - 1.0


def unscale(xi: float, var: InputVariable) -> float:
    """Inverse of rescale: -1 maps to v_min, +1 to v_max."""
    return var.v_min + 0.5 * (xi + 1.0) * (var.v_max - var.v_min)


def _columns(points: np.ndarray, inputs: Sequence[InputVariable]) -> np.ndarray:
    """The columns of an (M, N) point array, checked against N declared inputs."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[1] != len(inputs):
        raise ConfigurationError(
            f"points have {points.shape[1]} columns but {len(inputs)} inputs are declared"
        )
    return points.T


def unscale_points(xi: np.ndarray, inputs: Sequence[InputVariable]) -> np.ndarray:
    """Columnwise map of an (M, N) array on [-1, 1]^N to physical units."""
    return np.column_stack([unscale(x, var) for x, var in zip(_columns(xi, inputs), inputs)])


def _unique_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted unique rows, and each input row's position among them.

    A zero-width array has one (empty) unique row.  That case and the
    inverse's shape, which differs across numpy releases, are settled here.
    """
    if rows.shape[1] == 0:
        return rows[:1], np.zeros(len(rows), dtype=np.intp)
    unique, inverse = np.unique(rows, axis=0, return_inverse=True)
    return unique, inverse.ravel()


class _Half:
    """The unique index prefixes over a run of dimensions, and their basis rows.

    The unique prefixes of length k each extend one prefix of length k - 1
    by one degree, so the rows are built one dimension at a time, with one
    gather and one product per dimension whatever the set's shape.
    """

    def __init__(self, prefixes: np.ndarray) -> None:
        self.size = len(prefixes)
        self.steps: list[tuple[np.ndarray, np.ndarray]] = []
        for k in range(prefixes.shape[1], 0, -1):
            degrees = prefixes[:, k - 1]
            prefixes, parent = _unique_rows(prefixes[:, :k - 1])
            self.steps.insert(0, (parent, degrees))
        # Rows per point of the spare level (every other one below the last),
        # and that rows() allocates: two Legendre tables, three recurrence
        # temporaries and the first row of ones.
        self.spare = max([len(parent) for parent, _ in self.steps][-2::-2], default=0)
        self.transient = 2 * max((int(d.max()) + 1 for _, d in self.steps), default=0) + 4

    def rows(self, xi: np.ndarray, out: np.ndarray, work: np.ndarray) -> np.ndarray:
        """(size, points) from (dims, points): per prefix, prod_j L_{prefix_j}(xi_j).

        The levels alternate between the flat buffers out and work, so that
        the last one, returned, is a view of out; each level's Legendre rows
        are gathered into work after its first spare * points values.
        """
        m = xi.shape[1]
        targets = (out, work) if len(self.steps) % 2 else (work, out)
        rows = np.ones((1, m))
        for k, (coordinates, (parent, degrees)) in enumerate(zip(xi, self.steps)):
            table = polybasis.legendre_table(int(degrees.max()), coordinates)
            level, gathered = (
                buffer[:len(parent) * m].reshape(-1, m)
                for buffer in (targets[k % 2], work[self.spare * m:])
            )
            rows = np.take(rows, parent, axis=0, out=level, mode="clip")
            rows *= np.take(table, degrees, axis=0, out=gathered, mode="clip")
        return rows


class _SplitKronecker:
    """Sum-factorised contraction over a multi-index set (Orszag 1980).

    The dimensions split at s = (dim + 1) // 2.  Each term is the pair of
    its unique A-prefix (dimensions < s) and unique B-suffix, so a point's
    basis value for the term is W_A[a_t] * W_B[b_t], and sums over terms
    become two small matrix products.  Points come as a (dim, M) array and
    W_A, W_B are (prefixes, points) blocks.
    """

    def __init__(self, index_array: np.ndarray) -> None:
        self.indices = index_array
        self.split = (index_array.shape[1] + 1) // 2
        prefixes, self.term_a = _unique_rows(index_array[:, :self.split])
        suffixes, self.term_b = _unique_rows(index_array[:, self.split:])
        self.half_a, self.half_b = _Half(prefixes), _Half(suffixes)

    def _widths(self, n_outputs: int) -> tuple[int, int, int, int]:
        """Rows per point of W_A, W_B and the work buffer, and all a chunk holds.

        The work buffer serves each half's build, then the caller's (outputs
        x B) block; rows() allocates beyond it, and so does evaluation's result.
        """
        a, b = self.half_a, self.half_b
        work = max(a.spare + a.size, b.spare + b.size, n_outputs * b.size)
        held = a.size + b.size + work + max(a.transient, b.transient, n_outputs)
        return a.size, b.size, work, held

    def _chunks(self, xi: np.ndarray, n_outputs: int, reserved: int = 0):
        """Per chunk of the (dim, M) points: its slice, W_A, W_B and the work buffer.

        They are views of buffers allocated once, so no chunk maps fresh
        pages.  Chunks take as many points as fit in CHUNK_BYTES with the
        caller's `reserved` bytes and 64 KiB of Python objects.  A reservation
        beyond half the budget is the model's own size; chunks then keep half.
        """
        *widths, held = self._widths(n_outputs)
        free = CHUNK_BYTES - 2**16 - min(reserved, CHUNK_BYTES // 2)
        step = max(1, min(xi.shape[1], free // (8 * held)))
        buffers = [np.empty(width * step) for width in widths]
        for start in range(0, xi.shape[1], step):
            chunk = xi[:, start:start + step]
            m = chunk.shape[1]
            w_a, w_b, work = (buffer[:width * m] for buffer, width in zip(buffers, widths))
            yield (
                slice(start, start + m),
                self.half_a.rows(chunk[:self.split], w_a, work),
                self.half_b.rows(chunk[self.split:], w_b, work),
                work,
            )

    def project(self, xi: np.ndarray, weighted: np.ndarray) -> np.ndarray:
        """Per term t and output o, sum_q weighted[o, q] * basis_t(xi_q): (terms, outputs).

        Accumulates W_A diag(weighted[o]) W_B^T over the points, then reads
        each term's (a_t, b_t) entry.
        """
        n_outputs = len(weighted)
        gram = np.zeros((self.half_a.size, n_outputs * self.half_b.size))
        # reserved: the accumulator and the product added to it per chunk
        for rows, w_a, w_b, work in self._chunks(xi, n_outputs, reserved=2 * gram.nbytes):
            right = work[:n_outputs * w_b.size].reshape(-1, w_b.shape[1])
            np.multiply(weighted[:, None, rows], w_b, out=right.reshape(n_outputs, *w_b.shape))
            gram += w_a @ right.T
        gram = gram.reshape(self.half_a.size, n_outputs, self.half_b.size)
        return gram[self.term_a, :, self.term_b]

    def block(self, coefficients: np.ndarray) -> np.ndarray:
        """Coefficients scattered into a zero-padded (A, outputs * B) block."""
        block = np.zeros((self.half_a.size, coefficients.shape[1], self.half_b.size))
        block[self.term_a, :, self.term_b] = coefficients
        return block.reshape(self.half_a.size, -1)

    def evaluate(self, xi: np.ndarray, block: np.ndarray) -> np.ndarray:
        """sum_t c_t * basis_t(xi) per point, (points, outputs), as W_B . (block^T @ W_A)."""
        n_outputs = block.shape[1] // self.half_b.size
        out = np.empty((xi.shape[1], n_outputs))
        for rows, w_a, w_b, work in self._chunks(xi, n_outputs):
            partial = work[:n_outputs * w_b.size].reshape(-1, w_b.shape[1])
            np.matmul(block.T, w_a, out=partial)
            out[rows] = np.einsum("obm,bm->mo", partial.reshape(n_outputs, *w_b.shape), w_b)
        return out


def _require_unique_names(inputs: Sequence[InputVariable], output_names: Sequence[str]) -> None:
    for kind, names in ("input variable", [var.name for var in inputs]), ("output", output_names):
        if len(set(names)) != len(names):
            raise ConfigurationError(f"{kind} names must be unique, got {list(names)}")


@dataclass
class PceModel:
    """A built surrogate: inputs, outputs, neighbourhood, and coefficients.

    `indices` is the neighbourhood as a (terms, dim) int64 array in
    graded-lex order (the all-zero index first), exactly as
    multiindex.index_array builds it, and `coefficients` the matching
    (terms, outputs) array.  Instances are treated as immutable after
    construction.
    """

    inputs: list[InputVariable]
    output_names: list[str]
    neighborhood: multiindex.Neighborhood
    indices: np.ndarray
    coefficients: np.ndarray
    build_meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.coefficients = np.asarray(self.coefficients, dtype=float)
        self.indices = np.asarray(self.indices, dtype=np.int64)
        _require_unique_names(self.inputs, self.output_names)
        n = len(self.inputs)
        if self.neighborhood.dim != n:
            raise ConfigurationError(
                f"neighbourhood dimension {self.neighborhood.dim} does not match "
                f"{n} declared inputs"
            )
        members = multiindex.index_array(self.neighborhood)
        if len(self.indices) != len(members):
            raise ConfigurationError(
                "coefficient table does not cover the neighbourhood: "
                f"{len(self.indices)} entries for {len(members)} members"
            )
        if not np.array_equal(self.indices, members):
            raise ConfigurationError(
                "coefficient table has an index outside the neighbourhood "
                "or out of graded-lex order"
            )
        if self.coefficients.shape != (len(self.indices), len(self.output_names)):
            raise ConfigurationError(
                f"coefficient array shape {self.coefficients.shape} does not match "
                f"{len(self.indices)} indices x {len(self.output_names)} outputs"
            )

    @functools.cached_property
    def _kernel(self) -> _SplitKronecker:
        # Laid out on first evaluation; build_pce hands over its own.
        return _SplitKronecker(self.indices)

    @functools.cached_property
    def _block(self) -> np.ndarray:
        return self._kernel.block(self.coefficients)

    @property
    def dim(self) -> int:
        return len(self.inputs)

    def basis_norms(self) -> np.ndarray:
        """Per-term squared norms: prod_j 1 / (2 i_j + 1)."""
        return np.prod(1.0 / (2.0 * self.indices + 1.0), axis=1)

    def evaluate(self, v: Sequence[float]) -> np.ndarray:
        """Evaluate the surrogate at one physical point: one value per output."""
        v = np.asarray(v, dtype=float)
        if v.ndim != 1 or v.size != self.dim:
            raise ConfigurationError(
                f"expected a point with {self.dim} coordinates, got shape {v.shape}"
            )
        return self.evaluate_batch(v[None, :])[0]

    def evaluate_batch(self, points: np.ndarray) -> np.ndarray:
        """Evaluate the surrogate at many physical points, (M, outputs): they
        are rescaled into a (dim, M) array whose transpose evaluate_scaled reads."""
        columns = _columns(points, self.inputs)
        xi = np.empty(columns.shape)
        for row, column, var in zip(xi, columns, self.inputs):
            row[:] = rescale(column, var)
        return self.evaluate_scaled(xi.T)

    def evaluate_scaled(self, xi: np.ndarray) -> np.ndarray:
        """Evaluate the surrogate at many points on [-1, 1]^dim, (M, outputs).

        One split-Kronecker kernel serves every neighbourhood kind.  It reads
        xi's (dim, M) transpose, a view, in chunks, so transient memory stays
        within CHUNK_BYTES whatever M is.
        """
        return self._kernel.evaluate(_columns(xi, self.inputs), self._block)

    def mean(self) -> np.ndarray:
        """Analytic mean per output: the constant-term coefficient."""
        return self.coefficients[0].copy()

    def variance(self) -> np.ndarray:
        """Analytic variance per output: sum of squared coefficients times norms,
        minus the squared mean."""
        norms = self.basis_norms()
        return norms @ (self.coefficients**2) - self.coefficients[0] ** 2

    def std_dev(self) -> np.ndarray:
        return np.sqrt(np.maximum(self.variance(), 0.0))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PceModel):
            return NotImplemented
        return (
            self.inputs == other.inputs
            and self.output_names == other.output_names
            and self.neighborhood == other.neighborhood
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.coefficients, other.coefficients)
            and self.build_meta == other.build_meta
        )


def _project(nbhd: multiindex.Neighborhood, grid: quadrature.GridQuadrature, evaluate) -> tuple:
    """Quadrature projection onto nbhd of the values evaluate returns at the
    grid's points: (kernel, coefficients, nbhd, meta), as METHODS' fit."""
    indices = multiindex.index_array(nbhd)
    outputs = evaluate(grid.points)
    kernel = _SplitKronecker(indices)
    projected = kernel.project(grid.points.T, grid.weights * outputs.T)
    prefactor = np.prod((2.0 * indices + 1.0) / 2.0, axis=1)
    return kernel, prefactor[:, None] * projected, nbhd, {"evaluation_count": len(grid)}


def build_pce(
    model: Callable[[np.ndarray], np.ndarray],
    inputs: Sequence[InputVariable],
    output_names: Sequence[str],
    method: FullGrid | SparseGrid,
    *,
    record_timestamp: bool = True,
) -> PceModel:
    """Build a surrogate with a build method (see METHODS) against a black box.

    `model` is called once, with the full (points, dim) array of the
    method's points in physical units, and must return a (points, outputs)
    array (a 1D array is accepted for a single output).  Evaluation failures
    raised by the model propagate and abort the build; a non-finite output
    raises EvaluationError naming the first point that produced one.  The
    grid size is bounded by quadrature.POINT_COUNT_CAP.  The model's
    `fingerprint` attribute, if it has one, is recorded as its identity.
    """
    inputs = list(inputs)
    output_names = list(output_names)
    if not inputs:
        raise ConfigurationError("at least one input variable is required")
    if not output_names:
        raise ConfigurationError("at least one output name is required")
    _require_unique_names(inputs, output_names)

    def evaluate(xi: np.ndarray) -> np.ndarray:
        physical = unscale_points(xi, inputs)
        outputs = np.asarray(model(physical), dtype=float)
        if outputs.ndim == 1:
            outputs = outputs[:, None]
        if outputs.shape != (len(xi), len(output_names)):
            raise ConfigurationError(
                f"model returned shape {outputs.shape}, expected "
                f"({len(xi)}, {len(output_names)})"
            )
        finite = np.isfinite(outputs).all(axis=1)
        if not finite.all():
            raise EvaluationError(
                "model returned a non-finite value at point "
                f"{physical[np.argmin(finite)].tolist()}"
            )
        return outputs

    kernel, coefficients, nbhd, meta = method.fit(evaluate, len(inputs))
    scale = np.max(np.abs(coefficients), axis=0)
    coefficients[np.abs(coefficients) < COEFFICIENT_SNAP * scale] = 0.0

    build_meta = {
        "method": method.type,
        "parameter": getattr(method, method.key),
        **meta,
        "model_identity": getattr(model, "fingerprint", None),
        "timestamp": (
            _dt.datetime.now(_dt.timezone.utc).isoformat() if record_timestamp else None
        ),
    }
    model = PceModel(inputs, output_names, nbhd, kernel.indices, coefficients, build_meta)
    model._kernel = kernel
    return model


def save(model: PceModel, dest) -> None:
    """Write the model as a versioned JSON document.

    All floating-point values are serialized as decimal strings with 17
    significant digits, which reproduce the doubles bit-for-bit on load.
    The text is json.dumps(document, indent=2) byte for byte; the
    coefficient table is formatted in blocks rather than through json.
    `dest` is a path (written as _replacing writes) or an open text file.
    """
    head = {
        "schema": MODEL_SCHEMA,
        "schema_version": MODEL_SCHEMA_VERSION,
        "inputs": [
            {"name": var.name, "min": "%.17g" % var.v_min, "max": "%.17g" % var.v_max,
             "distribution": "uniform"}
            for var in model.inputs
        ],
        "output_names": list(model.output_names),
        "neighborhood": {key: getattr(model.neighborhood, key) for key in ("kind", "order", "dim")},
    }
    # One %-template per coefficient entry, as json.dumps(indent=2) lays it
    # out inside the document, formatted SAVE_BLOCK_ROWS rows at a time.
    n_out = model.coefficients.shape[1]
    values = "[\n      " + ",\n      ".join(['"%.17g"'] * n_out) + "\n    ]" if n_out else "[]"
    template = '    "' + ",".join(["%d"] * model.dim) + '": ' + values
    table = np.hstack([model.indices, model.coefficients])
    entries = ",\n".join(
        ",\n".join([template % tuple(row) for row in table[start:start + SAVE_BLOCK_ROWS].tolist()])
        for start in range(0, len(table), SAVE_BLOCK_ROWS)
    )
    # The head without its closing "\n}", the table, then build_meta without
    # the opening "{\n" of its own one-member document.
    text = (
        json.dumps(head, indent=2)[:-2]
        + ',\n  "coefficients": {\n' + entries + "\n  },\n"
        + json.dumps({"build_meta": model.build_meta}, indent=2)[2:]
    )
    if hasattr(dest, "write"):
        dest.write(text)
    else:
        with _replacing(dest) as handle:
            handle.write(text)


@contextlib.contextmanager
def _replacing(path) -> Iterator[IO[str]]:
    """A text file (utf-8, line ends as written) open at a temporary name in
    path's directory: moved onto path once the block completes, removed if
    it fails, so that path never holds a partial file."""
    temp = Path(path).with_name(f".{Path(path).name}.{os.getpid()}.tmp")
    try:
        with open(temp, "w", encoding="utf-8", newline="") as handle:
            yield handle
        os.replace(temp, path)
    finally:
        temp.unlink(missing_ok=True)


def _coefficient_table(raw: dict) -> tuple[np.ndarray, np.ndarray]:
    """The "coefficients" object as a (terms, dim) int64 array of its keys and
    a (terms, outputs) array of its values, each converted in one call.

    Keys must be ASCII decimal integers, as many in each key, separated by
    commas; the values, lists of one length, are converted as float()
    converts them, but booleans and nulls are rejected.
    """
    keys = ",".join(raw)
    rows = list(raw.values())
    values = list(itertools.chain.from_iterable(rows))
    fields = set(map(str.count, raw, [","] * len(raw)))
    if keys.lstrip("0123456789,") or len(fields) != 1:
        raise ValueError("keys must be comma-separated decimal integers, as many in each")
    bad_kinds = {bool, type(None)} & set(map(type, values))  # by type, since True == 1
    if set(map(type, rows)) != {list} or len(set(map(len, rows))) != 1 or bad_kinds:
        raise ValueError("values must be lists of numbers, all of one length")
    indices = np.fromstring(keys, dtype=np.int64, sep=",")
    if indices.size != len(rows) * (fields.pop() + 1) or indices.max() == np.iinfo(np.int64).max:
        raise ValueError("keys hold an empty field or an integer beyond int64")
    return indices.reshape(len(rows), -1), np.array(values, dtype=float).reshape(len(rows), -1)


def load(source) -> PceModel:
    """Read a model written by save(); the round trip compares equal.

    Fields are checked by the run config's checks (_expect, _int, _float),
    ranges and coefficients may also be decimal strings, and unknown keys
    are ignored.  A missing, malformed or inconsistent field, such as a
    coefficient table out of graded-lex order or a schema_version newer
    than this one, raises ModelFormatError naming it.
    """
    # config imports this module, so its checks are imported here.
    from .config import _expect, _float, _int, _names

    part = "document"  # what an error names: float() and numpy do not name the field
    try:
        text = source.read() if hasattr(source, "read") else Path(source).read_text("utf-8")
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ConfigurationError("it must be a JSON object")
        schema = _expect(doc, "schema", str, "model")
        if schema != MODEL_SCHEMA:
            raise ConfigurationError(f"unexpected schema id {schema!r}, wanted {MODEL_SCHEMA!r}")
        version = _int(_expect(doc, "schema_version", object, "model"), "schema_version", low=1)
        if version > MODEL_SCHEMA_VERSION:
            raise ConfigurationError(
                f"schema_version {version} is newer than the supported "
                f"version {MODEL_SCHEMA_VERSION}"
            )
        nb = _expect(doc, "neighborhood", dict, "model")
        order, dim = (
            _int(_expect(nb, key, object, "neighborhood"), f"neighborhood.{key}")
            for key in ("order", "dim")
        )
        neighborhood = multiindex.Neighborhood(_expect(nb, "kind", str, "neighborhood"), order, dim)
        output_names = list(_names(doc, "output_names", "model"))
        build_meta = _expect(doc, "build_meta", dict, "model")
        part = "inputs"
        inputs = []
        for i, entry in enumerate(_expect(doc, "inputs", list, "model")):
            where = f"inputs[{i}]"
            if not isinstance(entry, dict):
                raise ConfigurationError(f"{where} must be an object")
            distribution = entry.get("distribution", "uniform")
            if distribution != "uniform":
                raise ConfigurationError(
                    f"{where}: only the uniform distribution is supported, got {distribution!r}"
                )
            bounds = {key: _expect(entry, key, object, where) for key in ("min", "max")}
            low, high = (
                _float(float(value) if isinstance(value, str) else value, f"{where}.{key}")
                for key, value in bounds.items()
            )
            inputs.append(InputVariable(_expect(entry, "name", str, where), low, high))
        part = "coefficients"
        indices, coefficients = _coefficient_table(_expect(doc, "coefficients", dict, "model"))
        part = "document"
        return PceModel(inputs, output_names, neighborhood, indices, coefficients, build_meta)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"model document is not valid JSON: {exc}") from exc
    except (ConfigurationError, ValueError, TypeError, OverflowError) as exc:
        raise ModelFormatError(f"malformed model {part}: {exc}") from exc
