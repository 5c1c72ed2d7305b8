"""Uniform access to the expensive model: builtins, external processes, cache.

A ModelSpec (defined with the config, which checks it without loading this
module) binds either a registered builtin function or an external command
to declared input/output names.  A builtin maps an (M, inputs) array to an
(M, outputs) array in one call, its parameters checked when it is
resolved.  The external protocol is CSV in, CSV out, in UTF-8: the
command is launched once per batch (or per points_per_launch points),
receives the input rows (header = input names) either on a file path
appended as its final argument or on standard input, and must write the
output rows (header = output names) in the same order to standard output,
exiting 0.  Failed launches are retried once before erroring.  The solver runs in a session of its own; a timeout or an
interrupt kills its whole process group, so nothing it started outlives
the launch.  Launches run at once size their OpenMP/BLAS thread pools to
their share of the cores, unless the environment sizes them.  What only a
launch or a warning needs (subprocess, tempfile, signal, csv,
concurrent.futures, logging) is imported where it is used.

Evaluations are memoized in an append-only JSON-lines cache, indexed by
value: a point's key is its doubles' bits (every NaN as one NaN, since
every NaN renders as "nan"), and each model fingerprint's rows of one input
and one output count are two arrays, the keys sorted by their bytes and
the outputs, so a batch is looked up with one searchsorted.  Only the
misses are rendered as text ("%.17g" values, comma-separated, each distinct
value of a column formatted once; a quadrature grid has a few per column),
once: that text makes the solver's input rows and the cache lines.  A
valid line keys the point float() reads from its input cells, however
another writer wrote them.  Every cache line carries a checksum, and
corrupt lines are logged and treated as misses, never returned as data.
The checksum is the sha256 of the compact sorted-key JSON of the line's
other three fields, and the cache writes each line in exactly that byte
form followed by ',"checksum":"<hex>"}'; every string in it is printable
ASCII other than the quote and the backslash, and a fingerprint that is
not is refused.  On load, only lines in that form are read, each checked
against its own text and read by slicing; any other line is corrupt.  A
checkpoint, which the batch that appends writes anew, holds the index's
arrays as they are in memory, so no open checks a line pcekit wrote, and a
line another writer appended is checked once.  Fresh results are appended
in batches as they complete (per external launch, per builtin batch), so a
failed batch keeps what succeeded.  The cache location can be forced with
the PCEKIT_CACHE environment variable.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import re
import threading
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from . import polybasis, surrogate
# ModelSpec lives with the config, which checks specs without this module.
from .config import BUILTIN, IO_ARGFILE, ModelSpec, _floats  # noqa: F401  (re-exported)
from .errors import THREAD_ENV_VARS, ConfigurationError, EvaluationError

CACHE_ENV_VAR = "PCEKIT_CACHE"
# Text written to the cache per write call by EvaluationCache.store.
STORE_BLOCK_CHARS = 2**20
# A cache checkpoint's format, and the bytes hashed per read when one is
# checked.  Blocks stay under 128 KiB: freeing a larger one raises the C
# allocator's mmap threshold, which raised a later validate's peak RSS by 1.9 MB.
CHECKPOINT_FORMAT = "pcekit-cache-checkpoint/4"
HASH_BLOCK_BYTES = 2**16
CORRUPT_LINE = "cache %s line %d is corrupt (%s); treating as a miss"

# The synthetic 4-input demonstration model; ranges for its bundled config.
CSG_PROXY_INPUTS = (
    ("fracture_porosity", 0.005, 0.05),
    ("fracture_permeability", 10.0, 1000.0),
    ("langmuir_pressure_reciprocal", 0.00017, 0.0003),
    ("langmuir_volume", 0.2, 1.0),
)
CSG_PROXY_OUTPUTS = ("cumulative_gas", "peak_gas")


def _warn(message: str, *args) -> None:
    """A warning on this module's logger, the only use of logging here."""
    import logging

    logging.getLogger(__name__).warning(message, *args)


def _scalar(function: Callable[..., float], x: np.ndarray, *args: float) -> np.ndarray:
    """function (math.exp, math.pow) applied per element, as Python floats.

    numpy's exp and power can differ from the C library's in the last bit,
    and a builtin's values are part of the cache and the model bytes.
    """
    return np.array([function(value, *args) for value in x.tolist()])


def _make_constant(spec: ModelSpec) -> Callable[[np.ndarray], np.ndarray]:
    values = spec.parameters.get("values")
    values = values if isinstance(values, (list, tuple)) else [values]
    values = _floats(values, "constant parameters.values")
    if len(values) != len(spec.output_names):
        raise ConfigurationError(
            "constant model needs parameters.values with one number per output"
        )
    out = np.array(values)
    return lambda points: np.tile(out, (len(points), 1))


def _make_polynomial(spec: ModelSpec) -> Callable[[np.ndarray], np.ndarray]:
    """A Legendre-combination polynomial over declared multi-index terms.

    parameters.terms is a list of {"orders": [...], "coefficients": [...]}
    with one order in 0..DEGREE_CAP per input and one finite coefficient per
    output; parameters.variables, when present, gives [min, max] per input
    for rescaling, otherwise inputs are taken to be on [-1, 1] already.
    Matches the surrogate's own expansion form, so a polynomial built from a
    surrogate's coefficient map reproduces it.
    """
    dim = len(spec.input_names)
    n_out = len(spec.output_names)
    terms = spec.parameters.get("terms")
    if not isinstance(terms, list) or not terms:
        raise ConfigurationError("polynomial model needs a non-empty parameters.terms list")
    orders = []
    coefficients = []
    for term in terms:
        order, coeff = (
            _floats(term.get(key) if isinstance(term, Mapping) else None, f"polynomial term {key}")
            for key in ("orders", "coefficients")
        )
        if (
            len(order) != dim or len(coeff) != n_out
            or not all(o.is_integer() and 0 <= o <= polybasis.DEGREE_CAP for o in order)
        ):
            raise ConfigurationError(
                f"polynomial term {term!r} needs 'orders', one integer in "
                f"0..{polybasis.DEGREE_CAP} for each of the {dim} declared inputs, and "
                f"'coefficients', one finite number for each of the {n_out} outputs"
            )
        orders.append(order)
        coefficients.append(coeff)
    index_array = np.array(orders, dtype=np.int64)
    coeff_array = np.array(coefficients)

    ranges = spec.parameters.get("variables")
    inputs = None
    if ranges is not None:
        bounds = ranges if isinstance(ranges, (list, tuple)) else []
        bounds = [_floats(pair, "polynomial parameters.variables entry") for pair in bounds]
        if len(bounds) != dim or any(len(b) != 2 for b in bounds):
            raise ConfigurationError(
                "polynomial parameters.variables must list one [min, max] pair per input"
            )
        inputs = [surrogate.InputVariable(n, *b) for n, b in zip(spec.input_names, bounds)]

    max_degrees = index_array.max(axis=0).tolist()
    # Points per chunk: CHUNK_BYTES holds their basis rows and the table rows gathered into them.
    step = max(1, surrogate.CHUNK_BYTES // (16 * len(index_array)))

    def evaluate(points: np.ndarray) -> np.ndarray:
        # One row per input on [-1, 1], mapped as the surrogate maps its inputs.
        xi = points.T if inputs is None else surrogate._unit_columns(points, inputs)
        out = np.empty((len(points), n_out))
        for start in range(0, len(points), step):
            chunk = xi[:, start:start + step]
            basis = np.ones((chunk.shape[1], len(index_array)))
            for j in range(dim):
                table = polybasis.legendre_table(max_degrees[j], chunk[j])
                basis *= table[index_array[:, j]].T
            # One vector-matrix product per point sums the terms in the same
            # order whatever the batch; a matrix product would not.
            for row, basis_row in enumerate(basis, start):
                out[row] = basis_row @ coeff_array
        return out

    return evaluate


def _make_sobol_example_1(spec: ModelSpec) -> Callable[[np.ndarray], np.ndarray]:
    if len(spec.input_names) != 2 or len(spec.output_names) != 1:
        raise ConfigurationError("sobol-example-1 takes exactly 2 inputs and 1 output")
    return lambda points: (
        _scalar(math.pow, points[:, 0], 2.0) + _scalar(math.pow, points[:, 1], 2.0)
    )[:, None]


def _make_sobol_example_2(spec: ModelSpec) -> Callable[[np.ndarray], np.ndarray]:
    if len(spec.input_names) != 2 or len(spec.output_names) != 1:
        raise ConfigurationError("sobol-example-2 takes exactly 2 inputs and 1 output")
    return lambda points: (_scalar(math.pow, points[:, 0], 3.0) + points[:, 1])[:, None]


def _make_csg_proxy(spec: ModelSpec) -> Callable[[np.ndarray], np.ndarray]:
    """Synthetic smooth stand-in for a coal-seam-gas reservoir simulator.

    Inputs, in order: fracture porosity, fracture permeability (mD),
    reciprocal Langmuir pressure (1/kPa), Langmuir volume (mol/kg).
    Outputs: cumulative gas and peak gas rate, both strictly positive.

    The formula is documented here in full and is NOT a reservoir model; it
    exists to exercise the pipeline end to end with a cheap analytic
    function that has plausible shape (saturating in permeability, a
    Langmuir-isotherm pressure factor, monotone non-decreasing in Langmuir
    volume by construction):

        release(b)    = b*2750 / (1 + b*2750) - b*101.3 / (1 + b*101.3)
        cumulative    = 1.6e8 * V_L * release(b)
                        * (0.3 + 0.7 * (1 - exp(-k / 250))) * exp(-3 * phi)
        peak          = 3.2e5 * (1 - exp(-k / 180))
                        * (0.35 + 0.65 * (1 - exp(-40 * phi)))
                        * (0.55 + 0.45 * V_L) * (1 + 0.1 * b * 2750)
    """
    if len(spec.input_names) != 4 or len(spec.output_names) != 2:
        raise ConfigurationError("csg-proxy takes exactly 4 inputs and 2 outputs")

    def evaluate(points: np.ndarray) -> np.ndarray:
        porosity, permeability, inv_pressure, volume = points.T
        release = (
            inv_pressure * 2750.0 / (1.0 + inv_pressure * 2750.0)
            - inv_pressure * 101.3 / (1.0 + inv_pressure * 101.3)
        )
        cumulative = (
            1.6e8
            * volume
            * release
            * (0.3 + 0.7 * (1.0 - _scalar(math.exp, -permeability / 250.0)))
            * _scalar(math.exp, -3.0 * porosity)
        )
        peak = (
            3.2e5
            * (1.0 - _scalar(math.exp, -permeability / 180.0))
            * (0.35 + 0.65 * (1.0 - _scalar(math.exp, -40.0 * porosity)))
            * (0.55 + 0.45 * volume)
            * (1.0 + 0.1 * inv_pressure * 2750.0)
        )
        return np.column_stack([cumulative, peak])

    return evaluate


BUILTIN_MODELS: dict[str, Callable[[ModelSpec], Callable[[np.ndarray], np.ndarray]]] = {
    "constant": _make_constant,
    "polynomial": _make_polynomial,
    "sobol-example-1": _make_sobol_example_1,
    "sobol-example-2": _make_sobol_example_2,
    "csg-proxy": _make_csg_proxy,
}


# A whole cache line, with its newline, in the form EvaluationCache.store
# writes.  Its strings hold only printable ASCII other than the quote and the
# backslash, which json.dumps renders as they stand, so group 1 (the text
# before ',"checksum"') plus a closing brace is the line's checksum payload.
# Any such string fills the checksum field: one not a digest is a mismatch.
_PLAIN = r'[ !#-\[\]-~]*'
_CANONICAL_LINE = re.compile(
    r'(\{"fingerprint":"(%s)","inputs":\["(%s(?:","%s)*)"\],"outputs":\["(%s(?:","%s)*)"\])'
    r',"checksum":"(%s)"\}\n?' % ((_PLAIN,) * 6)
)


def _sha256(handle, digest: hashlib._Hash, size: int) -> bytes:
    """Update digest with the next size bytes of the binary handle, read
    HASH_BLOCK_BYTES at a time; the last block, empty if the file ends first."""
    block = b""
    while size > 0 and (block := handle.read(min(size, HASH_BLOCK_BYTES))):
        digest.update(block)
        size -= len(block)
    return block


def _render_rows(points: np.ndarray) -> list[str]:
    """Each row of an (M, N) array as "v1,...,vN", every v "%.17g".

    A column's distinct values, told apart by their bits so that -0.0 stays
    "-0", are formatted in one operation and gathered back into place.
    """
    points = np.asarray(points, dtype=float)
    last = points.shape[1] - 1
    columns = []
    for j, column in enumerate(points.T):
        distinct, inverse = np.unique(column.view(np.int64), return_inverse=True)
        # Each text ends in its separator, so a row is the plain join of its cells.
        cell = "%.17g\n" if j == last else "%.17g,\n"
        texts = (cell * len(distinct) % tuple(distinct.view(float).tolist())).split("\n")
        columns.append(np.array(texts, dtype=object)[inverse].tolist())
    return list(map("".join, zip(*columns)))


def _keys(points: np.ndarray) -> np.ndarray:
    """Each row of an (M, N) array as one key of N*8 bytes, its little-endian
    doubles, with every NaN as float("nan"): "%.17g" renders them all "nan"."""
    points = np.ascontiguousarray(points, dtype="<f8")
    nan = np.isnan(points)
    if nan.any():
        points = np.where(nan, np.nan, points)
    return points.view(f"V{8 * points.shape[1]}").ravel()


def _typed(value, *kinds: type, least: int = 0) -> bool:
    """Whether value is a list of lists of items of exactly the types kinds, ints >= least."""
    return isinstance(value, list) and all(
        isinstance(entry, list) and list(map(type, entry)) == [*kinds]
        and all(item >= least for item in entry if type(item) is int) for entry in value)


def resolve_cache_path(configured: str | os.PathLike | None) -> Path | None:
    """Configured cache path, unless the environment variable overrides it.
    A path without a file name (such as "." or "/") is a ConfigurationError."""
    path = os.environ.get(CACHE_ENV_VAR) or configured
    if path is not None and not Path(path).name:
        raise ConfigurationError(f"cache path {str(path)!r} names no file")
    return None if path is None else Path(path)


class EvaluationCache:
    """Append-only, checksummed JSON-lines store of model evaluations.

    Each line is {"fingerprint", "inputs", "outputs", "checksum"} with the
    numbers as canonical decimal strings.  The in-memory index holds one
    table per (fingerprint, input count, output count): the points' keys
    (see _keys) sorted by their bytes, and the matching rows of outputs; a
    line is keyed by float() of its input cells.  The index is loaded once at
    construction, which also counts the file's corrupt_lines and its
    valid_lines (to which store adds the lines it writes); appends are
    serialized through a lock so batch workers can share one cache.

    Each line is checked at one open, not at every one: <cache>.checkpoint
    holds what checking a prefix of the cache that ends at a newline found
    (deleting it only costs the next open a full scan).  An instance keeps
    it current as it appends (see store and save_checkpoint, which
    BlackBoxModel calls once per batch), so only lines another writer
    appended are ever checked.  It is a JSON line (CHECKPOINT_FORMAT; the
    prefix's size, lines and sha256; valid_lines; corrupt lines; per table
    [fingerprint, inputs, outputs, rows]), each table's keys and then
    outputs as little-endian bytes in the head's order, and "seal SHA256"
    of all the bytes before it.
    """

    def __init__(self, path: str | os.PathLike):
        self.path = Path(path)
        self.checkpoint = self.path.with_name(self.path.name + ".checkpoint")
        self._lock = threading.Lock()
        self._index: dict[tuple[str, int, int], tuple[np.ndarray, np.ndarray]] = {}
        # Rows store appended, as (fingerprint, points, outputs), that the
        # index has not merged yet (see _settle).
        self._pending: list[tuple[str, np.ndarray, np.ndarray]] = []
        self.valid_lines = self.corrupt_lines = 0
        # The file as this instance knows it: the bytes it checked or wrote
        # (None once they are not the whole file), their line count, sha256
        # and corrupt lines, and the bytes the checkpoint on disk covers.
        self._size: int | None = 0
        self._lines, self._digest, self._corrupt, self._saved = 0, hashlib.sha256(), [], 0
        if self.path.exists():
            self._load()

    def _load(self) -> None:
        """Load what the checkpoint covers from it (see _resume), scan the
        rest (undecodable bytes escaped: no valid line holds one) and log
        each corrupt line.  If the scan read lines, the last ending in a
        newline, the checkpoint is written anew for the file as read."""
        with open(self.path, "r", encoding="utf-8", errors="surrogateescape") as handle:
            raw = handle.buffer
            start, lineno, digest, corrupt = self._resume(raw)
            handle.seek(start)
            lineno = self._scan(handle, lineno, corrupt)
            end = raw.tell()
            raw.seek(start)
            ended = end == start or _sha256(raw, digest, end - start).endswith(b"\n")
        self._size = end if ended else None
        self._lines, self._digest, self._corrupt, self._saved = lineno, digest, corrupt, start
        self.corrupt_lines = len(corrupt)
        for lineno, error in corrupt:
            _warn(CORRUPT_LINE, self.path, lineno, error)
        self._save()

    def _resume(self, cache) -> tuple[int, int, hashlib._Hash, list]:
        """Where the scan of the cache (a binary handle) carries on from: byte
        offset, line number, sha256 of the bytes before and their corrupt
        lines.  The checkpoint is loaded only if its seal holds, its head is
        of CHECKPOINT_FORMAT, its tables fill the rest of it (checked before
        any array is made) and the cache begins with its prefix."""
        try:
            with open(self.checkpoint, "rb") as handle:
                body = os.fstat(handle.fileno()).st_size - 70  # all but the seal line
                _sha256(handle, seal := hashlib.sha256(), body)
                if handle.read() != f"seal {seal.hexdigest()}\n".encode():
                    raise ValueError("a damaged checkpoint")
                handle.seek(0)
                head = json.loads(handle.readline())
                size, lines, valid = counts = [head["size"], head["lines"], head["valid"]]
                corrupt, tables = head["corrupt"], head["tables"]
                if not (head["format"] == CHECKPOINT_FORMAT and _typed([counts], int, int, int)
                        and _typed(corrupt, int, str)
                        and _typed(tables, str, int, int, int, least=1)):
                    raise ValueError("a checkpoint of another format")
                arrays = sum(rows * 8 * (inputs + outputs) for _, inputs, outputs, rows in tables)
                _sha256(cache, digest := hashlib.sha256(), size)
                if handle.tell() + arrays != body or digest.hexdigest() != head["sha256"]:
                    raise ValueError("a checkpoint its tables do not fill, or of another cache")
                index = {}
                for fingerprint, inputs, outputs, rows in tables:
                    table = np.empty(rows, f"V{8 * inputs}"), np.empty((rows, outputs), "<f8")
                    for array in table:
                        handle.readinto(array)
                    index[fingerprint, inputs, outputs] = table
        except (OSError, ValueError, KeyError, TypeError, RecursionError):
            return 0, 0, hashlib.sha256(), []
        self._index, self.valid_lines = index, valid
        return size, lines, digest, corrupt

    def _scan(self, lines: Iterable[str], lineno: int, corrupt: list[tuple[int, str]]) -> int:
        """Check lines, numbered on from lineno, into the index and
        valid_lines; each corrupt line is added to corrupt.  Returns the last
        line number.

        A line, stripped of surrounding whitespace, is valid only if it is
        in the form store writes (_CANONICAL_LINE), with the checksum of its
        own text and cells that float() reads; blank lines are skipped.  It
        keys the point float() reads from its inputs, and the last line of a
        point wins, whatever its output count, also over the index (_file).
        """
        found: dict[tuple[str, int], tuple[list[float], list[float], list[int]]] = {}
        canonical = _CANONICAL_LINE.fullmatch
        sha256 = hashlib.sha256
        for lineno, line in enumerate(lines, start=lineno + 1):
            # A line as store writes it matches before any stripping.
            match = canonical(line)
            if match is None:
                line = line.strip()
                if not line:
                    continue
                match = canonical(line)
            try:
                if match is None:
                    raise ValueError("not in the form the cache writes")
                payload, fingerprint, inputs, outputs, checksum = match.groups()
                if sha256((payload + "}").encode()).hexdigest() != checksum:
                    raise ValueError("checksum mismatch")
                point = [*map(float, inputs.replace('","', ",").split(","))]
                row = [*map(float, outputs.split('","'))]
            except ValueError as exc:
                corrupt.append((lineno, str(exc)))
                continue
            points, values, widths = found.setdefault((fingerprint, len(point)), ([], [], []))
            points += point
            values += row
            widths.append(len(row))
        for (fingerprint, inputs), (points, values, widths) in found.items():
            self.valid_lines += len(widths)
            points, values, widths = (np.reshape(points, (-1, inputs)),
                                      np.array(values, dtype="<f8"), np.array(widths))
            starts = np.cumsum(widths) - widths
            # Each point's last line, its first in reverse, whatever its width.
            last = len(widths) - 1 - np.unique(_keys(points)[::-1], return_index=True)[1]
            for width in set(widths[last].tolist()):
                at = last[widths[last] == width]
                self._file(fingerprint, points[at], values[starts[at, None] + np.arange(width)])
        return lineno

    def _file(self, fingerprint: str, points: np.ndarray, outputs: np.ndarray) -> None:
        """Merge each point's row of outputs into the model's sorted table of
        their widths.  The last of a repeated key wins, also over the rows
        of that key in the model's tables of other output counts, which go.
        Beyond the merged table, the arrays made are of the batch's length:
        sorting the old and new rows together raised peak RSS by 2-3 MB."""
        if not len(points):
            return
        keys = _keys(points)
        order = np.argsort(keys, kind="stable")
        keys, outputs = keys[order], outputs[order]
        last = np.append(keys[1:] != keys[:-1], True)  # in each run of one key
        if not last.all():
            keys, outputs = keys[last], outputs[last]
        name = (fingerprint, points.shape[1], outputs.shape[1])
        table = keys, outputs
        for other in [other for other in self._index if other[:2] == name[:2]]:
            old_keys, old_outputs = self._index[other]
            at = np.searchsorted(old_keys, keys).clip(max=len(old_keys) - 1)
            kept = np.ones(len(old_keys), dtype=bool)
            kept[at[old_keys[at] == keys]] = False
            if not kept.all():
                old_keys, old_outputs = old_keys[kept], old_outputs[kept]
            if other != name:
                if len(old_keys):
                    self._index[other] = old_keys, old_outputs
                else:
                    del self._index[other]
                continue
            # Where each row lands: the new ones among the old, in key order.
            new = np.searchsorted(old_keys, keys) + np.arange(len(keys))
            old = np.ones(len(old_keys) + len(keys), dtype=bool)
            old[new] = False
            table = np.empty(len(old), keys.dtype), np.empty((len(old), outputs.shape[1]))
            for merged, rows, batch in zip(table, (old_keys, old_outputs), (keys, outputs)):
                merged[old], merged[new] = rows, batch
        self._index[name] = table

    def _settle(self) -> None:
        """Merge what store appended into the index, under the lock, on the
        thread that reads it next: arrays made on a launch thread stay in its
        malloc arena, which raised a cold build's peak RSS by up to 3 MB."""
        for batch in self._pending:
            self._file(*batch)
        self._pending.clear()

    def _save(self) -> None:
        """Write the checkpoint of the file as this instance knows it (unless
        it covers those bytes already, or they are not the whole file) as
        surrogate._replacing writes; nothing if that fails."""
        self._settle()
        size = self._size
        if size in (None, self._saved):
            return
        tables = sorted(self._index.items())
        head = json.dumps({
            "format": CHECKPOINT_FORMAT, "size": size, "lines": self._lines,
            "sha256": self._digest.hexdigest(), "valid": self.valid_lines,
            "corrupt": self._corrupt,
            "tables": [[*name, len(keys)] for name, (keys, _) in tables]})
        seal = hashlib.sha256()
        try:
            with surrogate._replacing(self.checkpoint) as handle:
                for data in [f"{head}\n".encode(), *(a for _, table in tables for a in table)]:
                    seal.update(data)
                    handle.buffer.write(data)
                handle.buffer.write(f"seal {seal.hexdigest()}\n".encode())
        except OSError:
            return
        self._saved = size

    def __len__(self) -> int:
        """The number of records, over every model."""
        with self._lock:
            self._settle()
        return sum(len(keys) for keys, _ in self._index.values())

    def lookup(
        self, fingerprint: str, points: np.ndarray, width: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Which rows of the (M, N) points the model holds `width` outputs at,
        as a mask, and those outputs in row order: one search of the model's
        sorted keys for the whole batch."""
        points = np.asarray(points, dtype=float)
        with self._lock:
            self._settle()
            table = self._index.get((fingerprint, points.shape[1], width))
        if table is None:
            return np.zeros(len(points), dtype=bool), np.empty((0, width))
        keys, values = table
        query = _keys(points)
        at = np.searchsorted(keys, query).clip(max=len(keys) - 1)
        hits = keys[at] == query
        return hits, values[at[hits]]

    def store(
        self, fingerprint: str, points: np.ndarray, outputs: np.ndarray, rows: Sequence[str]
    ) -> None:
        """Append one record per row of the (M, N) points with its row of
        outputs.  rows are _render_rows(points), which the caller made for
        the solver: the lines hold them, the index the points.  The arrays
        are kept, not copied, until the index merges them (see _settle).

        Each line is the json.dumps rendering of its record.  The lines go
        out under the lock through one open of the file, in blocks of about
        STORE_BLOCK_CHARS characters.  A last line left without its newline
        by a write cut short is ended first, so that it stays one corrupt
        line and the first new record is not joined onto it.  A fingerprint
        or a row that the line form cannot hold (see _PLAIN), or points,
        outputs and rows that are not of one row count, raise ValueError
        before anything is written.  The lines extend what the next
        save_checkpoint covers, unless the file no longer ends where this
        instance left it: another writer appended, and from then on this
        instance writes no checkpoint; the next open checks those lines.
        """
        if not re.fullmatch(_PLAIN, fingerprint):
            raise ValueError(f"fingerprint {fingerprint!r} holds a quote, a backslash "
                             "or a character that is not printable ASCII")
        if not re.fullmatch(_PLAIN, "".join(rows)):
            raise ValueError("a row holds a quote, a backslash or a character "
                             "that is not printable ASCII")
        points, outputs = np.asarray(points, dtype=float), np.asarray(outputs, dtype="<f8")
        if points.ndim != 2 or outputs.ndim != 2 or not len(rows) == len(points) == len(outputs):
            raise ValueError(f"{len(rows)} rows and points of shape {points.shape} "
                             f"for outputs of shape {outputs.shape}")
        head = '{"fingerprint":"' + fingerprint + '","inputs":["'
        tail = '"],"outputs":["' + '","'.join(["%.17g"] * outputs.shape[1]) + '"]'
        values = [tuple(row) for row in outputs.tolist()]
        with self._lock, open(self.path, "a+b") as handle:
            end = handle.seek(0, os.SEEK_END)
            # Unknown until every line is written and flushed, so a failed
            # write leaves it so.
            known, self._size = end == self._size, None
            if end:
                handle.seek(end - 1)
                if handle.read(1) != b"\n":
                    handle.write(b"\n")

            def write(block: list[str]) -> None:
                data = "".join(block).encode()
                handle.write(data)
                self._digest.update(data)

            block: list[str] = []
            size = 0
            for row, value in zip(rows, values):
                # The checksum hashes the sorted-key JSON of the first three
                # fields, which is this line's text up to the checksum.
                body = head + row.replace(",", '","') + tail % value
                checksum = hashlib.sha256((body + "}").encode()).hexdigest()
                block.append(body + ',"checksum":"' + checksum + '"}\n')
                size += len(block[-1])
                if size >= STORE_BLOCK_CHARS:
                    write(block)
                    block, size = [], 0
            write(block)
            handle.flush()
            self._pending.append((fingerprint, points, outputs))
            self.valid_lines += len(rows)
            if known:
                self._size, self._lines = handle.tell(), self._lines + len(rows)

    def save_checkpoint(self) -> None:
        """Write the checkpoint if store has appended since the last one."""
        with self._lock:
            self._save()


def _input_csv(names: Sequence[str], rows: Sequence[str]) -> str:
    """The solver's input: the header row, then each row from _render_rows."""
    import csv
    import io

    header = io.StringIO()
    csv.writer(header).writerow(names)
    return header.getvalue() + "\r\n".join([*rows, ""])


def _parse_output_csv(text: str, output_names: Sequence[str], expected_rows: int) -> np.ndarray:
    """The solver's stdout as an (expected_rows, outputs) array: csv.reader
    rows, blank ones skipped, every row's width checked at once and all cells
    read by one float map."""
    import csv
    import io
    from itertools import chain

    try:
        rows = list(filter(None, csv.reader(io.StringIO(text, newline=None))))
    except csv.Error as exc:  # a cell past csv.field_size_limit(), say
        raise EvaluationError(f"external model wrote output csv cannot read: {exc}") from exc
    if not rows:
        raise EvaluationError("external model wrote no output")
    header = [cell.strip() for cell in rows[0]]
    if header != list(output_names):
        raise EvaluationError(
            f"external model output header {header} does not match "
            f"declared outputs {list(output_names)}"
        )
    data = rows[1:]
    if len(data) != expected_rows:
        raise EvaluationError(
            f"external model wrote {len(data)} rows for {expected_rows} input points"
        )
    width = len(output_names)
    if set(map(len, data)) - {width}:
        number, row = next((n, row) for n, row in enumerate(data, 1) if len(row) != width)
        raise EvaluationError(
            f"external model wrote {len(row)} values in output row {number} "
            f"for {width} declared outputs"
        )
    try:
        return np.array(list(map(float, chain.from_iterable(data)))).reshape(len(data), width)
    except ValueError as exc:
        raise EvaluationError(f"external model wrote a non-numeric value: {exc}") from exc


def _kill_group(proc) -> None:
    """SIGKILL the process group the solver leads, unless the solver is
    reaped already: its pid, and so the group id, may then be reused."""
    import signal

    if proc.returncode is None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


class _Launches:
    """The solver processes of one batch.  On an interrupt, which solvers in
    sessions of their own never see, stop() kills every one not reaped yet
    and any launched after it; no failed launch is then retried.  The launch
    threads read and commit their outputs in turn, under `turn`."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.turn = threading.Lock()
        self._procs: list = []
        self.stopped = False

    def started(self, proc) -> None:
        with self._lock:
            self._procs.append(proc)
            if self.stopped:
                _kill_group(proc)

    def stop(self) -> None:
        with self._lock:
            self.stopped = True
            for proc in self._procs:
                _kill_group(proc)


def _launch_external(
    spec: ModelSpec, rows: Sequence[str], env: Mapping[str, str] | None, running: _Launches
) -> str:
    """One launch of the solver over rows rendered as text (see _input_csv),
    in the environment env (None: this process's), tracked in running.
    Returns its standard output, which must be UTF-8; its standard input
    is UTF-8, as the argfile is, and its stderr excerpt is decoded with
    replacement characters."""
    import subprocess
    import tempfile

    csv_text = _input_csv(spec.input_names, rows)

    command = list(spec.command)
    stdin_bytes = None
    temp_path = None
    try:
        if spec.io_format == IO_ARGFILE:
            fd, temp_path = tempfile.mkstemp(prefix="pcekit_batch_", suffix=".csv")
            with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
                handle.write(csv_text)
            command = command + [temp_path]
        else:
            stdin_bytes = csv_text.encode("utf-8")
        try:
            # In a session of its own, the solver and everything it starts
            # form one process group, which a timeout kills as a whole.
            proc = subprocess.Popen(
                command,
                stdin=None if stdin_bytes is None else subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                cwd=spec.working_dir,
                env=env,
                start_new_session=True,
            )
        except OSError as exc:
            raise EvaluationError(f"external model could not be launched: {exc}") from exc
        running.started(proc)
        with proc:
            try:
                stdout, stderr = proc.communicate(stdin_bytes, timeout=spec.timeout_seconds)
            except subprocess.TimeoutExpired as exc:
                _kill_group(proc)
                proc.wait()
                raise EvaluationError(
                    f"external model timed out after {spec.timeout_seconds} s "
                    f"(command: {command[0]})"
                ) from exc
        if proc.returncode != 0:
            excerpt = stderr.decode("utf-8", "replace").strip()[:500]
            raise EvaluationError(
                f"external model exited with code {proc.returncode}; stderr: {excerpt!r}"
            )
        try:
            return stdout.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise EvaluationError(f"external model wrote output that is not UTF-8: {exc}") from exc
    finally:
        if temp_path is not None:
            try:
                os.unlink(temp_path)
            except OSError:
                pass


def _thread_share_env(launches: int) -> dict[str, str] | None:
    """The environment of each of `launches` solver launches run at once:
    this process's, with each of THREAD_ENV_VARS that it leaves unset set to
    max(1, usable cores // launches).  None, the environment unchanged, for
    a single launch."""
    if launches <= 1:
        return None
    affinity = getattr(os, "sched_getaffinity", None)
    cores = len(affinity(0)) if affinity else os.cpu_count() or 1
    share = str(max(1, cores // launches))
    return {**dict.fromkeys(THREAD_ENV_VARS, share), **os.environ}


def _run_external_batch(
    spec: ModelSpec,
    rendered: Sequence[str],
    workers: int,
    commit: Callable[[slice, np.ndarray], None],
) -> tuple[int, list[tuple[slice, EvaluationError]]]:
    """Launch the external command over rows rendered as text (see
    _input_csv), retrying each launch once.

    Without spec.points_per_launch, the rows are split into `workers`
    contiguous chunks (fewer if there are fewer rows), one launch each; with
    it, into as few contiguous chunks of at most that many as there can be,
    launched `workers` at a time from one queue.  Each launch runs in a
    thread of one pool, so that the calling thread takes an interrupt and
    kills every launch still running (see _Launches).  The threads take
    turns to read each solver's output and commit its (row slice, outputs),
    so a failing launch loses none of the others' results.  Every launch of
    the batch, retries included, runs in one environment (see
    _thread_share_env).  Returns the number of launches and, in row order,
    those that failed after their retry, with their errors.
    """
    from concurrent.futures import ThreadPoolExecutor

    size = spec.points_per_launch
    launches = min(workers, len(rendered)) if size is None else -(-len(rendered) // size)
    rows = np.array_split(np.arange(len(rendered)), launches)
    chunks = [slice(chunk[0], chunk[-1] + 1) for chunk in rows]
    at_once = min(workers, launches)
    env = _thread_share_env(at_once)
    running = _Launches()

    def attempt(rows: slice) -> None:
        text = _launch_external(spec, rendered[rows], env, running)
        with running.turn:
            outputs = _parse_output_csv(text, spec.output_names, rows.stop - rows.start)
            if not np.isfinite(outputs).all():
                raise EvaluationError("external model wrote a non-finite value")
            commit(rows, outputs)

    def run_chunk(rows: slice) -> EvaluationError | None:
        for retry in (False, True):
            try:
                return attempt(rows)
            except EvaluationError as exc:
                if retry or running.stopped:
                    return exc
                _warn("external model failed (%s); retrying once", exc)

    with ThreadPoolExecutor(max_workers=at_once) as pool:
        try:
            results = pool.map(run_chunk, chunks)
            pool.shutdown()
        except KeyboardInterrupt:  # no queued launch starts, and the running ones are killed
            pool.shutdown(wait=False, cancel_futures=True)
            running.stop()
            raise
        failed = [(rows, exc) for rows, exc in zip(chunks, results) if exc is not None]
    return launches, failed


def _run_builtin(
    spec: ModelSpec,
    function: Callable[[np.ndarray], np.ndarray],
    points: np.ndarray,
    commit: Callable[[slice, np.ndarray], None],
) -> None:
    """Evaluate a builtin over all the points in one call and commit the values.

    If that call fails (it raises, or returns a wrong shape or a non-finite
    value), the points are evaluated again one row at a time, so that exactly
    the rows before the first failing one are committed and the error names
    its point.
    """
    n_out = len(spec.output_names)

    def evaluate(rows: np.ndarray) -> np.ndarray:
        try:
            values = np.asarray(function(rows), dtype=float)
        except Exception as exc:
            raise EvaluationError(
                f"builtin model {spec.name!r} failed at point {rows[0].tolist()}: {exc}"
            ) from exc
        if values.shape != (len(rows), n_out) or not np.isfinite(values).all():
            raise EvaluationError(
                f"builtin model {spec.name!r} returned an invalid value at "
                f"point {rows[0].tolist()}"
            )
        return values

    try:
        values = evaluate(points)
    except EvaluationError:  # located and raised again by the row-by-row pass
        rows: list[np.ndarray] = []
        try:
            for row in range(len(points)):
                rows.append(evaluate(points[row:row + 1])[0])
        finally:
            commit(slice(0, len(rows)), np.array(rows).reshape(len(rows), n_out))
        return
    commit(slice(0, len(points)), values)


class BlackBoxModel:
    """Callable adapter: (points, dim) physical array -> (points, outputs) array.

    Wraps a spec plus an optional shared cache, counts fresh and cached
    evaluations and the external launches done and failed, and exposes the
    spec fingerprint for build metadata.  A
    builtin is resolved, and its parameters checked, on construction.
    Instances are safe to call from several threads; counters are summed
    under a lock.
    """

    def __init__(
        self,
        spec: ModelSpec,
        cache: EvaluationCache | None = None,
        workers: int = 1,
    ):
        self.spec = spec
        self.cache = cache
        self.workers = workers
        self.fingerprint = spec.fingerprint()
        self.fresh_count = self.cached_count = 0
        self.launches_done = self.launches_failed = 0
        self._lock = threading.Lock()
        self._builtin = BUILTIN_MODELS[spec.name](spec) if spec.kind == BUILTIN else None

    def __call__(self, points) -> np.ndarray:
        points = surrogate._points(points, len(self.spec.input_names))
        outputs, cached = self._evaluate(points)
        hits = int(cached.sum())
        with self._lock:
            self.fresh_count += len(points) - hits
            self.cached_count += hits
        return outputs

    def _evaluate(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Outputs at each point, (M, outputs), and the mask of cache hits.

        Hits come back bit-identically to the original evaluation.  Misses
        are computed and committed to the cache as they complete: per
        external launch, and for builtins once, after the last point or
        before raising on a failing one.  The cache's checkpoint is written
        once, when the batch ends or fails.  Launches that fail after their
        retry raise once every launch has returned, naming their count and
        the first one's point and error.
        """
        cache = self.cache
        width = len(self.spec.output_names)
        outputs = np.empty((len(points), width))
        cached = np.zeros(len(points), dtype=bool)
        if cache is not None:
            cached, hits = cache.lookup(self.fingerprint, points, width)
            outputs[cached] = hits
        misses = np.flatnonzero(~cached)
        if not len(misses):
            return outputs, cached
        # Taken and rendered once, here: commit stores slices of them from
        # the launch threads.  The rows are the solver's and the cache lines'.
        missed = points[misses]
        rows = _render_rows(missed) if cache is not None or self._builtin is None else []

        def commit(chunk: slice, values: np.ndarray) -> None:
            outputs[misses[chunk]] = values
            if cache is not None and len(values):
                cache.store(self.fingerprint, missed[chunk], values, rows[chunk])

        try:
            if self._builtin is None:
                launches, failed = _run_external_batch(self.spec, rows, self.workers, commit)
                with self._lock:
                    self.launches_done += launches - len(failed)
                    self.launches_failed += len(failed)
                if failed:
                    (first, error), *_ = failed
                    raise EvaluationError(f"{len(failed)} of {launches} launches failed, the "
                                          f"first at point {missed[first.start].tolist()}: {error}")
            else:
                _run_builtin(self.spec, self._builtin, missed, commit)
        finally:
            if cache is not None:
                cache.save_checkpoint()
        return outputs, cached
