"""Latin hypercube designs, validation metrics, percentiles and report tables.

Random numbers come from numpy's PCG64 generator, seeded explicitly, so any
design is reproducible bit-for-bit from its seed.  Percentiles use linear
interpolation between order statistics at position h = (n - 1) q + 1 (the
widespread "type 7" convention); the choice is deliberate and recorded here
because goldens depend on it.

Tables of at least 2 x SHARE_MIN_BLOCKS blocks of CSV_BLOCK_ROWS rows are
formatted on every usable CPU, by forked processes writing to spool files
(unlinked temporaries under TMPDIR); the bytes are the same at any CPU count.
"""
from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass
from typing import IO, Callable, Sequence

import numpy as np

# Rows formatted per write by _write_blocks.
CSV_BLOCK_ROWS = 4096
# Fewest blocks in a share.  On a 2-vCPU VM, two shares of 20k rows of one
# output made uq slower (the fork, its copy-on-write faults and the wait
# outweighed the second CPU), while 64k rows formatted about 40% faster.
SHARE_MIN_BLOCKS = 8


@dataclass(frozen=True)
class LhsDesign:
    """One or more stratified designs on [-1, 1]^dim, concatenated.

    Within each design of n points, every dimension has exactly one point
    in each of the n equal-width bins [-1 + 2k/n, -1 + 2(k+1)/n).
    """

    points: np.ndarray


def latin_hypercube(strata: int, dim: int, repeats: int = 1, seed: int = 0) -> LhsDesign:
    """Generate `repeats` independent Latin hypercube designs of `strata` points.

    Per design and dimension, the strata are visited in a random permutation
    and the point sits uniformly at random inside its stratum.  The draw
    order (designs outer, dimensions inner, permutation before offsets) is
    part of the reproducibility contract.
    """
    if strata < 1:
        raise ValueError(f"strata count must be >= 1, got {strata}")
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    rng = np.random.Generator(np.random.PCG64(seed))
    points = np.empty((strata * repeats, dim))
    for r in range(repeats):
        block = points[r * strata:(r + 1) * strata]
        for j in range(dim):
            cells = rng.permutation(strata)
            offsets = rng.random(strata)
            block[:, j] = -1.0 + 2.0 * (cells + offsets) / strata
    return LhsDesign(points)


def rmse(predictions: Sequence[float], truths: Sequence[float]) -> float:
    """Root mean square difference between two equal-length vectors."""
    p = np.asarray(predictions, dtype=float)
    t = np.asarray(truths, dtype=float)
    if p.shape != t.shape:
        raise ValueError(f"length mismatch: {p.shape} vs {t.shape}")
    if p.size == 0:
        raise ValueError("rmse of empty vectors is undefined")
    return float(np.sqrt(np.mean((p - t) ** 2)))


def rrmse(predictions: Sequence[float], truths: Sequence[float]) -> float:
    """Root mean square of the relative differences (p - t) / t.

    Dimensionless; every truth value must be bounded away from zero.
    """
    p = np.asarray(predictions, dtype=float)
    t = np.asarray(truths, dtype=float)
    if p.shape != t.shape:
        raise ValueError(f"length mismatch: {p.shape} vs {t.shape}")
    if p.size == 0:
        raise ValueError("rrmse of empty vectors is undefined")
    bad = np.nonzero(np.abs(t) < 1e-300)[0]
    if bad.size:
        raise ValueError(f"rrmse undefined: truth value at index {bad[0]} is zero")
    return float(np.sqrt(np.mean(((p - t) / t) ** 2)))


def percentile_values(samples: np.ndarray, qs: Sequence[float]) -> np.ndarray:
    """Percentiles (q in 0..100) by linear order-statistic interpolation,
    along the first axis: one row per q, one column per column of samples.

    The values of np.percentile(method="linear", axis=0), computed as it
    computes them, from the sorted samples; np.percentile itself loads
    numpy.ma.
    """
    x = np.sort(np.asarray(samples, dtype=float), axis=0)
    h = (len(x) - 1) * (np.asarray(qs, dtype=float) / 100)
    lo = np.floor(h).astype(np.intp)
    below, above = x[lo], x[np.minimum(lo + 1, len(x) - 1)]
    gamma, diff = (h - lo).reshape((-1,) + (1,) * (x.ndim - 1)), above - below
    # from the nearer neighbour, as numpy interpolates
    return np.where(gamma >= 0.5, above - diff * (1 - gamma), below + diff * gamma)


def _csv_cell(text: str) -> str:
    """One cell of a row of several as csv.writer's default dialect writes it:
    quoted, with its quotes doubled, where it holds a comma, a quote or a
    line break.  (The csv module itself is not loaded for this.)"""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_row(cells: Sequence[str], end: str = "\r\n") -> str:
    """One row of text cells, each through _csv_cell."""
    return ",".join(map(_csv_cell, cells)) + end


def _usable_cpus() -> int:
    """The CPUs this process may run on; 1 where os.fork does not exist."""
    if not hasattr(os, "fork"):
        return 1
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _write_blocks(handle: IO[str], count: int, format_block: Callable[[int, int], str]) -> None:
    """Write format_block(start, stop) for the blocks of CSV_BLOCK_ROWS of
    `count` rows, in order, in one contiguous share of at least
    SHARE_MIN_BLOCKS blocks per usable CPU: forked children format every
    share but the first into spools, copied in once they exit.  A failed
    child raises OSError; every way out kills and reaps the children not
    yet reaped."""
    blocks = [(s, min(s + CSV_BLOCK_ROWS, count)) for s in range(0, count, CSV_BLOCK_ROWS)]
    shares = min(_usable_cpus(), len(blocks) // SHARE_MIN_BLOCKS) or 1
    cuts = [len(blocks) * k // shares for k in range(shares + 1)]
    parent, pids, spools = os.getpid(), [], []
    try:
        if shares > 1:  # only a table split into shares loads these
            import shutil
            import signal
            import tempfile
        for k in range(1, shares):
            spools.append(tempfile.TemporaryFile("w+", encoding="utf-8", newline=""))
            # SIGINT is held over the fork, where an at-fork hook would print it.
            signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
            try:
                pids.append(os.fork())
            finally:
                signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
            if pids[-1] == 0:
                spools[-1].writelines(format_block(*b) for b in blocks[cuts[k]:cuts[k + 1]])
                spools[-1].flush()
                os._exit(0)
        handle.writelines(format_block(*b) for b in blocks[:cuts[1]])
        for spool in spools:
            status = os.waitpid(pids[0], 0)[1]
            del pids[0]
            if status:
                raise OSError(f"a CSV row formatting process failed (wait status {status})")
            spool.seek(0)
            shutil.copyfileobj(spool, handle)
    finally:
        if os.getpid() != parent:  # a child that failed: no traceback, no flush
            os._exit(1)
        for pid in pids:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        for spool in spools:
            spool.close()


def write_rows(handle: IO[str], template: str, columns: Sequence[np.ndarray]) -> None:
    """Rows of equal-length columns through one %-template, in blocks of
    CSV_BLOCK_ROWS rows, so no table of Python objects outlives a block."""
    def format_block(start: int, stop: int) -> str:
        block = [column[start:stop].tolist() for column in columns]
        return "".join([template % row for row in zip(*block)])

    _write_blocks(handle, len(columns[0]), format_block)


def write_cdf_csv(handle: IO[str], names: Sequence[str], ordered: np.ndarray) -> None:
    """Per output: a value column and a cumulative-probability column.

    `ordered` holds each output's samples sorted, one column per name; the
    k-th of n values sits at cumulative probability k/n, one column shared
    by every output, formed and formatted once per block.  Cells use 17
    significant digits and rows end in CRLF as csv.writer's do.
    """
    count = len(ordered)
    handle.write(_csv_row(sum(([f"{n}_value", f"{n}_cumulative_probability"] for n in names), [])))
    template = ",".join(["%.17g,%s"] * len(names)) + "\r\n"

    def format_block(start: int, stop: int) -> str:
        ranks = (np.arange(start + 1, stop + 1) / count).tolist()
        text = ("%.17g\n" * len(ranks) % tuple(ranks)).split("\n")
        columns = sum(([column, text] for column in ordered[start:stop].T.tolist()), [])
        return "".join([template % row for row in zip(*columns)])

    _write_blocks(handle, count, format_block)


def write_histogram_csv(
    handle: IO[str], names: Sequence[str], ordered: np.ndarray, bins: int
) -> None:
    """Long-format histogram table: output, bin_left, bin_right, count.

    Per output, `bins` equal-width bins span its sorted column of `ordered`
    from first to last value; np.histogram widens a degenerate [c, c] range.
    """
    handle.write(_csv_row(["output", "bin_left", "bin_right", "count"]))
    for name, column in zip(names, ordered.T):
        counts, edges = np.histogram(column, bins=bins, range=(column[0], column[-1]))
        template = _csv_cell(name).replace("%", "%%") + ",%.17g,%.17g,%d\r\n"
        write_rows(handle, template, [edges[:-1], edges[1:], counts])
