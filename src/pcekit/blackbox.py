"""Uniform access to the expensive model: builtins, external processes, cache.

A ModelSpec (defined with the config, which checks it without loading this
module) binds either a registered builtin function or an external command
to declared input/output names.  A builtin maps an (M, inputs) array to an
(M, outputs) array in one call, its parameters checked when it is
resolved.  The external protocol is CSV in, CSV out: the command is
launched once per batch, receives the input rows (header = input names)
either on a file path appended as its final argument or on standard input,
and must write the output rows (header = output names) in the same order
to standard output, exiting 0.  Failed launches are retried once before
erroring.  The solver runs in a session of its own; a timeout or an
interrupt kills its whole process group, so nothing it started outlives
the launch.  Launches run at once size their OpenMP/BLAS thread pools to
their share of the cores, unless the environment sizes them.  What only a
launch or a warning needs (subprocess, tempfile, signal, csv,
concurrent.futures, logging) is imported where it is used.

Evaluations are memoized in an append-only JSON-lines cache.  A batch's
rows are rendered as text once ("%.17g" values, comma-separated, each
distinct value of a column formatted once; a quadrature grid has a few per
column), and that text keys the cache (under the spec fingerprint, so
regenerated grids hit the cache reliably), and makes the cache lines and
the solver's input rows.  Every cache line carries a checksum, and corrupt
lines are logged and treated as misses, never returned as data.  The
checksum is the sha256 of the compact sorted-key JSON of the line's other
three fields, and the cache writes each line in exactly that byte form
followed by ',"checksum":"<hex>"}'; every string in it is printable ASCII
other than the quote and the backslash, and a fingerprint that is not is
refused.  On load, only lines in that form are read, each checked against
its own text and read by slicing; any other line is corrupt.  Fresh
results are appended in batches as they complete (per external launch, per
builtin batch), so a failed batch keeps what succeeded.  The cache
location can be forced with the PCEKIT_CACHE environment variable.
"""
from __future__ import annotations

import hashlib
import math
import os
import re
import threading
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from . import polybasis
# ModelSpec lives with the config, which checks specs without this module.
from .config import BUILTIN, IO_ARGFILE, ModelSpec, _floats  # noqa: F401  (re-exported)
from .errors import ConfigurationError, EvaluationError

CACHE_ENV_VAR = "PCEKIT_CACHE"
# Text written to the cache per write call by EvaluationCache.store.
STORE_BLOCK_CHARS = 2**20
# Basis values (points x terms) the polynomial builtin holds at once.
POLYNOMIAL_CHUNK_VALUES = 2**20
# Thread-pool sizes set, where the environment leaves them unset, for launches run at once.
THREAD_ENV_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

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
    lo = hi = None
    if ranges is not None:
        bounds = ranges if isinstance(ranges, (list, tuple)) else []
        bounds = [_floats(pair, "polynomial parameters.variables entry") for pair in bounds]
        if len(bounds) != dim or any(len(b) != 2 for b in bounds):
            raise ConfigurationError(
                "polynomial parameters.variables must list one [min, max] pair per input"
            )
        lo, hi = np.array(bounds).T
        if not np.all(lo < hi):
            raise ConfigurationError("polynomial variable ranges must have min < max")

    max_degrees = index_array.max(axis=0).tolist()
    step = max(1, POLYNOMIAL_CHUNK_VALUES // len(index_array))

    def evaluate(points: np.ndarray) -> np.ndarray:
        xi = points if lo is None else 2.0 * (points - lo) / (hi - lo) - 1.0
        out = np.empty((len(points), n_out))
        for start in range(0, len(points), step):
            chunk = xi[start:start + step]
            basis = np.ones((len(chunk), len(index_array)))
            for j in range(dim):
                table = polybasis.legendre_table(max_degrees[j], chunk[:, j])
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


def resolve_cache_path(configured: str | os.PathLike | None) -> Path | None:
    """Configured cache path, unless the environment variable overrides it."""
    override = os.environ.get(CACHE_ENV_VAR)
    if override:
        return Path(override)
    return Path(configured) if configured is not None else None


class EvaluationCache:
    """Append-only, checksummed JSON-lines store of model evaluations.

    Each line is {"fingerprint", "inputs", "outputs", "checksum"} with the
    numbers as canonical decimal strings.  The in-memory index maps each
    model fingerprint to {input row: outputs}, a row being the inputs as
    _render_rows writes them.  It is loaded once at construction, by the
    one checksum scan of the file, which also counts its valid_lines and
    corrupt_lines; appends are serialized through a lock so batch workers
    can share one cache.
    """

    def __init__(self, path: str | os.PathLike):
        self.path = Path(path)
        self._lock = threading.Lock()
        self._index: dict[str, dict[str, tuple[float, ...]]] = {}
        self.valid_lines = self.corrupt_lines = 0
        if self.path.exists():
            self._index, self.valid_lines, self.corrupt_lines = self._scan()

    def _scan(self) -> tuple[dict[str, dict], int, int]:
        """Read the file: the index of its valid lines (a later line wins a
        repeated fingerprint and row), and how many lines are valid and
        corrupt; each corrupt line is logged with its number and error.

        A line, stripped of surrounding whitespace, is valid only if it is
        in the form store writes (_CANONICAL_LINE), with the checksum of its
        own text and outputs that float() reads; blank lines are skipped.
        A line that is not valid UTF-8 is corrupt: the file is read with
        its undecodable bytes escaped, which no line in that form holds.
        """
        index: dict[str, dict[str, tuple[float, ...]]] = {}
        valid = corrupt = 0
        canonical = _CANONICAL_LINE.fullmatch
        sha256 = hashlib.sha256
        with open(self.path, "r", encoding="utf-8", errors="surrogateescape") as handle:
            for lineno, line in enumerate(handle, start=1):
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
                    row = inputs.replace('","', ",")
                    index.setdefault(fingerprint, {})[row] = tuple(map(float, outputs.split('","')))
                    valid += 1
                except ValueError as exc:
                    corrupt += 1
                    message = "cache %s line %d is corrupt (%s); treating as a miss"
                    _warn(message, self.path, lineno, exc)
        return index, valid, corrupt

    def __len__(self) -> int:
        """The number of records, over every model."""
        return sum(map(len, self._index.values()))

    def lookup(self, fingerprint: str, rows: Sequence[str]) -> list[tuple[float, ...] | None]:
        """The model's outputs at each row (from _render_rows), or None where it misses."""
        return list(map(self._index.get(fingerprint, {}).get, rows))

    def store(self, fingerprint: str, rows: Sequence[str], outputs: np.ndarray) -> None:
        """Append one record per row (from _render_rows) with its row of outputs.

        Each line is the json.dumps rendering of its record.  The lines go
        out under the lock through one open of the file, in blocks of about
        STORE_BLOCK_CHARS characters.  A last line left without its newline
        by a write cut short is ended first, so that it stays one corrupt
        line and the first new record is not joined onto it.  A fingerprint
        that the cache's line form cannot hold (see _PLAIN) raises ValueError.
        """
        if not re.fullmatch(_PLAIN, fingerprint):
            raise ValueError(f"fingerprint {fingerprint!r} holds a quote, a backslash "
                             "or a character that is not printable ASCII")
        outputs = np.asarray(outputs, dtype=float)
        head = '{"fingerprint":"' + fingerprint + '","inputs":["'
        tail = '"],"outputs":["' + '","'.join(["%.17g"] * outputs.shape[1]) + '"]'
        values = [tuple(row) for row in outputs.tolist()]
        with self._lock, open(self.path, "a+b") as handle:
            end = handle.seek(0, os.SEEK_END)
            if end:
                handle.seek(end - 1)
                if handle.read(1) != b"\n":
                    handle.write(b"\n")
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
                    handle.write("".join(block).encode())
                    block, size = [], 0
            handle.write("".join(block).encode())
            self._index.setdefault(fingerprint, {}).update(zip(rows, values))


def _input_csv(names: Sequence[str], rows: Sequence[str]) -> str:
    """The solver's input: the header row, then each row from _render_rows."""
    import csv
    import io

    header = io.StringIO()
    csv.writer(header).writerow(names)
    return header.getvalue() + "\r\n".join([*rows, ""])


def _parse_output_csv(text: str, output_names: Sequence[str], expected_rows: int) -> np.ndarray:
    import csv
    import io

    reader = csv.reader(io.StringIO(text))
    rows = [row for row in reader if row]
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
    try:
        return np.array([[float(cell) for cell in row] for row in data])
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
    and any launched after it; no failed launch is then retried."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
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
) -> np.ndarray:
    """One launch of the solver over rows rendered as text (see _input_csv),
    in the environment env (None: this process's), tracked in running."""
    import subprocess
    import tempfile

    csv_text = _input_csv(spec.input_names, rows)

    command = list(spec.command)
    stdin_text = None
    temp_path = None
    try:
        if spec.io_format == IO_ARGFILE:
            fd, temp_path = tempfile.mkstemp(prefix="pcekit_batch_", suffix=".csv")
            with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
                handle.write(csv_text)
            command = command + [temp_path]
        else:
            stdin_text = csv_text
        try:
            # In a session of its own, the solver and everything it starts
            # form one process group, which a timeout kills as a whole.
            proc = subprocess.Popen(
                command,
                stdin=None if stdin_text is None else subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                cwd=spec.working_dir,
                env=env,
                start_new_session=True,
            )
        except OSError as exc:
            raise EvaluationError(f"external model could not be launched: {exc}") from exc
        running.started(proc)
        with proc:
            try:
                stdout, stderr = proc.communicate(stdin_text, timeout=spec.timeout_seconds)
            except subprocess.TimeoutExpired as exc:
                _kill_group(proc)
                proc.wait()
                raise EvaluationError(
                    f"external model timed out after {spec.timeout_seconds} s "
                    f"(command: {command[0]})"
                ) from exc
        if proc.returncode != 0:
            excerpt = (stderr or "").strip()[:500]
            raise EvaluationError(
                f"external model exited with code {proc.returncode}; stderr: {excerpt!r}"
            )
        outputs = _parse_output_csv(stdout, spec.output_names, len(rows))
        if not np.all(np.isfinite(outputs)):
            raise EvaluationError("external model wrote a non-finite value")
        return outputs
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
) -> None:
    """Launch the external command over rows rendered as text (see
    _input_csv), retrying each launch once.

    With workers == 1 the whole batch goes through a single launch; more
    workers split it into that many contiguous chunks run concurrently.
    Each launch runs in a thread of one pool, so that the calling thread
    takes an interrupt and kills every launch still running (see _Launches).
    Each chunk's (row slice, outputs) go to commit as soon as its launch
    returns, so a failing chunk loses none of the others' results.  Every
    launch of the batch, retries included, runs in one environment (see
    _thread_share_env).
    """
    from concurrent.futures import ThreadPoolExecutor

    launches = min(workers, len(rendered))
    env = _thread_share_env(launches)
    running = _Launches()

    def run_chunk(rows: slice) -> None:
        try:
            outputs = _launch_external(spec, rendered[rows], env, running)
        except EvaluationError as exc:
            if running.stopped:
                raise
            _warn("external model failed (%s); retrying once", exc)
            outputs = _launch_external(spec, rendered[rows], env, running)
        commit(rows, outputs)

    rows = np.array_split(np.arange(len(rendered)), launches)
    chunks = [slice(chunk[0], chunk[-1] + 1) for chunk in rows]
    with ThreadPoolExecutor(max_workers=len(chunks)) as pool:
        try:
            results = pool.map(run_chunk, chunks)
            # All successful chunks are committed before the first failure
            # (in chunk order) is raised.
            pool.shutdown()
        except KeyboardInterrupt:
            running.stop()
            raise
        list(results)


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
    evaluations, and exposes the spec fingerprint for build metadata.  A
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
        self.fresh_count = 0
        self.cached_count = 0
        self._lock = threading.Lock()
        self._builtin = BUILTIN_MODELS[spec.name](spec) if spec.kind == BUILTIN else None

    def __call__(self, points) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if points.shape[1] != len(self.spec.input_names):
            raise ConfigurationError(
                f"points have {points.shape[1]} columns but the model declares "
                f"{len(self.spec.input_names)} inputs"
            )
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
        external chunk, and for builtins once, after the last point or
        before raising on a failing one.
        """
        cache = self.cache
        outputs = np.empty((len(points), len(self.spec.output_names)))
        cached = np.zeros(len(points), dtype=bool)
        # Rendered once: the rows the cache is keyed by are the solver's rows.
        rows = _render_rows(points) if cache is not None or self._builtin is None else []
        if cache is not None:
            hits = cache.lookup(self.fingerprint, rows)
            cached[:] = [hit is not None for hit in hits]
            if cached.any():
                outputs[cached] = [hit for hit in hits if hit is not None]
        misses = np.flatnonzero(~cached)
        if not len(misses):
            return outputs, cached

        def commit(chunk: slice, values: np.ndarray) -> None:
            done = misses[chunk]
            outputs[done] = values
            if cache is not None and len(done):
                cache.store(self.fingerprint, [rows[i] for i in done.tolist()], values)

        if self._builtin is None:
            miss_rows = [rows[i] for i in misses.tolist()]
            _run_external_batch(self.spec, miss_rows, self.workers, commit)
        else:
            _run_builtin(self.spec, self._builtin, points[misses], commit)
        return outputs, cached
