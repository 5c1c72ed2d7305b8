import io
import math
import os
import time

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pcekit import sampling
from pcekit.quadrature import GridQuadrature, write_grid_csv
from pcekit.sampling import (
    latin_hypercube,
    percentile_values,
    rmse,
    rrmse,
    write_cdf_csv,
    write_histogram_csv,
    write_rows,
)
import references


def stratum_of(x, n):
    return min(int((x + 1.0) / 2.0 * n), n - 1)


class TestLatinHypercube:
    def test_total_point_count(self):
        design = latin_hypercube(10, 4, repeats=300, seed=1)
        assert design.points.shape == (3000, 4)
        assert np.all(design.points >= -1.0) and np.all(design.points < 1.0)

    def test_single_point_design(self):
        design = latin_hypercube(1, 3, repeats=1, seed=5)
        assert design.points.shape == (1, 3)
        assert np.all(np.abs(design.points) <= 1.0)

    def test_each_stratum_occupied_exactly_once(self):
        design = latin_hypercube(10, 4, repeats=7, seed=2)
        for r in range(7):
            block = design.points[r * 10:(r + 1) * 10]
            for j in range(4):
                occupancy = np.bincount(
                    [stratum_of(x, 10) for x in block[:, j]], minlength=10
                )
                assert occupancy.tolist() == [1] * 10

    @given(st.integers(min_value=0, max_value=2**63 - 1))
    def test_stratification_for_arbitrary_seeds(self, seed):
        design = latin_hypercube(8, 3, repeats=2, seed=seed)
        for r in range(2):
            block = design.points[r * 8:(r + 1) * 8]
            for j in range(3):
                cells = sorted(stratum_of(x, 8) for x in block[:, j])
                assert cells == list(range(8))

    def test_seed_determinism(self):
        a = latin_hypercube(16, 5, repeats=3, seed=99)
        b = latin_hypercube(16, 5, repeats=3, seed=99)
        assert np.array_equal(a.points, b.points)
        c = latin_hypercube(16, 5, repeats=3, seed=100)
        assert not np.array_equal(a.points, c.points)

    @pytest.mark.parametrize("shape", [(10, 8, 300), (200000, 4, 1), (1, 1, 1), (7, 3, 5),
                                       (3000, 6, 1)])
    def test_bit_identical_to_scaling_each_column_as_drawn(self, shape):
        points = latin_hypercube(*shape, seed=11).points
        assert points.tobytes() == references.latin_hypercube(*shape, seed=11).tobytes()

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            latin_hypercube(0, 2)
        with pytest.raises(ValueError):
            latin_hypercube(2, 0)
        with pytest.raises(ValueError):
            latin_hypercube(2, 2, repeats=0)


class TestErrorMetrics:
    def test_identical_vectors(self):
        assert rmse([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0
        assert rrmse([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_constant_offset(self):
        truths = np.array([5.0, -2.0, 9.0])
        assert rmse(truths + 0.75, truths) == pytest.approx(0.75)
        assert rmse(truths - 0.75, truths) == pytest.approx(0.75)

    def test_hand_computed_value(self):
        assert rmse([1.0, 2.0, 3.0], [2.0, 2.0, 5.0]) == pytest.approx(math.sqrt(5 / 3))

    def test_uniform_relative_error(self):
        truths = np.array([3.0, -7.0, 0.5])
        assert rrmse(1.1 * truths, truths) == pytest.approx(0.1, abs=1e-13)

    def test_single_pair(self):
        assert rrmse([2.0], [4.0]) == pytest.approx(0.5)

    def test_zero_truth_names_index(self):
        with pytest.raises(ValueError, match="index 1"):
            rrmse([1.0, 2.0], [1.0, 0.0])

    def test_shape_errors(self):
        with pytest.raises(ValueError, match="mismatch"):
            rmse([1.0], [1.0, 2.0])
        with pytest.raises(ValueError, match="empty"):
            rmse([], [])
        with pytest.raises(ValueError):
            rrmse([], [])

    @given(
        st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=20),
        st.floats(min_value=0.1, max_value=50).filter(lambda c: abs(c) > 1e-3),
    )
    def test_rrmse_scale_invariance(self, values, scale):
        predictions = np.asarray(values)
        truths = predictions + 1.5
        if np.any(np.abs(truths) < 1e-6):
            return
        assert rrmse(scale * predictions, scale * truths) == pytest.approx(
            rrmse(predictions, truths), abs=1e-14, rel=1e-12
        )

    def test_rmse_is_positive_unless_equal(self):
        rng = np.random.Generator(np.random.PCG64(0))
        a = rng.normal(size=40)
        b = a.copy()
        b[13] += 1e-9
        assert rmse(a, b) > 0.0


class TestSummaries:
    def test_median_by_interpolation(self):
        p10, p50 = percentile_values(np.arange(1.0, 101.0), [10, 50])
        assert p50 == pytest.approx(50.5)
        assert p10 == pytest.approx(10.9)  # h = 99 * 0.1 + 1

    def test_constant_samples(self):
        assert percentile_values(np.full(25, 3.5), [0, 10, 90, 100]).tolist() == [3.5] * 4

    def test_percentiles_are_monotone(self):
        rng = np.random.Generator(np.random.PCG64(21))
        for _ in range(20):
            samples = rng.normal(size=101)
            ordered = percentile_values(samples, [10, 25, 50, 75, 90]).tolist()
            ordered = [samples.min()] + ordered + [samples.max()]
            assert ordered == sorted(ordered)

    def test_percentile_helper_matches_convention(self):
        samples = np.array([10.0, 20.0, 30.0, 40.0])
        # h = (4 - 1) * 0.5 + 1 = 2.5 -> halfway between 20 and 30
        assert percentile_values(samples, [50])[0] == pytest.approx(25.0)

    @pytest.mark.parametrize("kind", ["random", "duplicated", "constant"])
    @pytest.mark.parametrize("size", [1, 2, 3, 10, 101, 3000, 200_000])
    def test_percentile_helper_matches_numpy_exactly(self, kind, size):
        rng = np.random.Generator(np.random.PCG64(size))
        samples = {
            "random": rng.normal(size=size) * 10.0 ** rng.integers(-3, 4, size=size),
            "duplicated": rng.integers(-3, 4, size=size) * 0.7,
            "constant": np.full(size, -1.3),
        }[kind]
        qs = [0, 10, 25, 33.3, 50, 75, 90, 100]
        expected = np.percentile(samples, qs, method="linear")
        assert np.array_equal(percentile_values(samples, qs), expected)
        assert np.array_equal(percentile_values(np.sort(samples), qs), expected)

    def test_percentiles_of_columns_match_numpy_exactly(self):
        rng = np.random.Generator(np.random.PCG64(5))
        samples = rng.normal(size=(101, 3)) * [1.0, 1e-3, 1e4]
        qs = [0, 10, 33.3, 50, 90, 100]
        expected = np.percentile(samples, qs, axis=0, method="linear")
        assert np.array_equal(percentile_values(samples, qs), expected)
        for j in range(3):
            assert np.array_equal(percentile_values(samples[:, j], qs), expected[:, j])

    @pytest.mark.parametrize("shape", [(1,), (2,), (101,), (3000,), (1, 2), (101, 3)])
    def test_sorted_percentiles_match_numpy_exactly(self, shape):
        # uq's helper reads sorted samples in place; numpy sorts its own copy.
        rng = np.random.Generator(np.random.PCG64(len(shape) * 1000 + shape[0]))
        samples = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4, size=shape)
        qs = [0, 1, 10, 25, 33.3, 50, 75, 90, 99.9, 100]
        expected = np.percentile(samples, qs, axis=0, method="linear")
        ordered = np.sort(samples, axis=0)
        assert np.array_equal(sampling._sorted_percentiles(ordered, qs), expected)


class TestDistributionTables:
    def test_two_bins(self):
        buffer = io.StringIO()
        write_histogram_csv(buffer, ["y"], np.array([[0.0], [1.0]]), bins=2)
        assert buffer.getvalue().splitlines()[1:] == ["y,0,0.5,1", "y,0.5,1,1"]

    def test_cdf_ends_at_one(self):
        buffer = io.StringIO()
        write_cdf_csv(buffer, ["y"], np.array([[1.0], [2.0], [3.0]]))
        assert buffer.getvalue().splitlines()[-1] == "3,1"

    def test_degenerate_range_is_widened(self):
        buffer = io.StringIO()
        write_histogram_csv(buffer, ["y"], np.full((3, 1), 2.0), bins=4)
        rows = [line.split(",") for line in buffer.getvalue().splitlines()[1:]]
        assert sum(int(row[3]) for row in rows) == 3
        assert (float(rows[0][1]), float(rows[-1][2])) == (1.5, 2.5)

    def test_bin_guard(self):
        with pytest.raises(ValueError):
            write_histogram_csv(io.StringIO(), ["y"], np.array([[1.0]]), bins=0)


class TestCsvExports:
    def test_cdf_csv(self):
        buffer = io.StringIO()
        write_cdf_csv(buffer, ["y"], np.array([[2.0], [4.0]]))
        lines = buffer.getvalue().strip().splitlines()
        assert lines[0] == "y_value,y_cumulative_probability"
        assert lines[1].split(",") == ["2", "0.5"]
        assert lines[2].split(",") == ["4", "1"]

    def test_histogram_csv(self):
        buffer = io.StringIO()
        write_histogram_csv(buffer, ["y"], np.array([[0.0], [0.25], [1.0]]), bins=2)
        lines = buffer.getvalue().strip().splitlines()
        assert lines[0] == "output,bin_left,bin_right,count"
        assert len(lines) == 3
        assert lines[1].startswith("y,0,0.5,2")

    def test_tables_match_csv_writer_rendering(self, monkeypatch):
        # rows across block boundaries, names that need quoting, and a "%"
        # that must not reach the row template
        monkeypatch.setattr(sampling, "CSV_BLOCK_ROWS", 4)
        names = ["a", 'b,"q"', "c%s", "d", "e\nf", "g\rh", " i;j "]
        ordered = np.sort(np.random.default_rng(3).normal(size=(9, len(names))), axis=0)
        expected_cdf, expected_hist = io.StringIO(), io.StringIO()
        references.write_cdf_csv(expected_cdf, names, ordered)
        references.write_histogram_csv(expected_hist, names, ordered, 3)
        cdf, hist = io.StringIO(), io.StringIO()
        write_cdf_csv(cdf, names, ordered)
        write_histogram_csv(hist, names, ordered, 3)
        assert cdf.getvalue() == expected_cdf.getvalue()
        assert hist.getvalue() == expected_hist.getvalue()

    @pytest.mark.parametrize("shape", [(11, 3), (11, 1), (1, 1)],
                             ids=["several", "single", "single-row"])
    def test_cdf_matches_the_per_cell_writer(self, monkeypatch, shape):
        # shared k/n columns formatted once give the bytes of formatting
        # every cell, across block boundaries
        monkeypatch.setattr(sampling, "CSV_BLOCK_ROWS", 4)
        rng = np.random.default_rng(shape[1])
        ordered = np.sort(rng.normal(size=shape) * 10.0 ** rng.integers(-5, 5, size=shape[1]),
                          axis=0)
        names = [f"y{j}" for j in range(shape[1])]
        expected, cdf = io.StringIO(), io.StringIO()
        references.write_cdf_csv(expected, names, ordered)
        write_cdf_csv(cdf, names, ordered)
        assert cdf.getvalue() == expected.getvalue()


def fail_in_children(format_block):
    """format_block, raising in any process but this one."""
    parent = os.getpid()

    def format_or_fail(start, stop):
        if os.getpid() != parent:
            raise RuntimeError("formatting failed in a child")
        return format_block(start, stop)

    return format_or_fail


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestBlockWriter:
    """The row blocks of a table, formatted in contiguous shares: the first
    in this process, each other one in a forked child."""

    @pytest.mark.parametrize("shares", [1, 2, 3])
    @pytest.mark.parametrize("count", [11, 3], ids=["uneven-blocks", "below-one-block"])
    @pytest.mark.parametrize("names", [["y"], ["a", "b,c"]], ids=["one-output", "comma-name"])
    def test_bytes_match_the_references_at_every_share_count(
        self, monkeypatch, shares, count, names
    ):
        monkeypatch.setattr(sampling, "CSV_BLOCK_ROWS", 4)
        monkeypatch.setattr(sampling, "SHARE_MIN_BLOCKS", 1)
        monkeypatch.setattr(sampling, "_usable_cpus", lambda: shares)
        rng = np.random.default_rng(count)
        ordered = np.sort(rng.normal(size=(count, len(names))) * 1e3, axis=0)
        expected, cdf, spooled = io.StringIO(), io.StringIO(), io.StringIO()
        references.write_cdf_csv(expected, names, ordered)
        write_cdf_csv(cdf, names, ordered)
        assert cdf.getvalue() == expected.getvalue()
        with sampling.rank_column(count) as ranks:
            write_cdf_csv(spooled, names, ordered, ranks)
        assert spooled.getvalue() == expected.getvalue()

        columns = [ordered[:, 0], np.arange(count), ordered[:, -1] / 7]
        template = "x,%.17g,%d,%.17g\r\n"
        expected, rows = io.StringIO(), io.StringIO()
        references.write_rows(expected, template, columns)
        write_rows(rows, template, columns)
        assert rows.getvalue() == expected.getvalue()

        expected, hist = io.StringIO(), io.StringIO()
        references.write_histogram_csv(expected, names, ordered, 9)
        write_histogram_csv(hist, names, ordered, 9)
        assert hist.getvalue() == expected.getvalue()
        assert_no_child_left()

    def test_a_child_that_fails_raises_oserror_and_is_reaped(self, monkeypatch):
        monkeypatch.setattr(sampling, "CSV_BLOCK_ROWS", 4)
        monkeypatch.setattr(sampling, "SHARE_MIN_BLOCKS", 1)
        monkeypatch.setattr(sampling, "_usable_cpus", lambda: 3)
        with pytest.raises(OSError, match="formatting process failed"):
            sampling._write_blocks(io.StringIO(), 12, fail_in_children(lambda a, b: "row\n"))
        assert_no_child_left()

    def test_an_interrupt_kills_and_reaps_the_children(self, monkeypatch):
        monkeypatch.setattr(sampling, "CSV_BLOCK_ROWS", 4)
        monkeypatch.setattr(sampling, "SHARE_MIN_BLOCKS", 1)
        monkeypatch.setattr(sampling, "_usable_cpus", lambda: 3)
        parent = os.getpid()

        def format_block(start, stop):
            if os.getpid() != parent:
                time.sleep(60)  # a child still formatting when this process is interrupted
            raise KeyboardInterrupt

        started = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            sampling._write_blocks(io.StringIO(), 12, format_block)
        assert time.perf_counter() - started < 30
        assert_no_child_left()

    @pytest.mark.parametrize("blocks", [1, 2 * sampling.SHARE_MIN_BLOCKS - 1])
    def test_too_few_blocks_for_two_shares_never_fork(self, monkeypatch, blocks):
        def fork():
            raise AssertionError("forked for a table too small to share")

        monkeypatch.setattr(os, "fork", fork)
        monkeypatch.setattr(sampling, "CSV_BLOCK_ROWS", 4)
        monkeypatch.setattr(sampling, "_usable_cpus", lambda: 4)
        ordered = np.arange(1.0, 4 * blocks + 1)[:, None]
        expected, cdf = io.StringIO(), io.StringIO()
        references.write_cdf_csv(expected, ["y"], ordered)
        write_cdf_csv(cdf, ["y"], ordered)
        assert cdf.getvalue() == expected.getvalue()

    @pytest.mark.parametrize("count", [61440, 61441, 131073])
    def test_tables_around_the_share_threshold_match_the_references(self, monkeypatch, count):
        # 2 x SHARE_MIN_BLOCKS blocks of 4096 rows, the last one partial,
        # start at 61441 rows: on two CPUs the tables from there on are
        # shared and cdf.csv's probability texts come from the helper; on
        # one CPU nothing forks.  131073 rows end in a block of one row.
        names = ["a,b"]
        rng = np.random.default_rng(count)
        ordered = np.sort(rng.normal(size=(count, 2)) * 1e3, axis=0)
        expected = {"cdf": io.StringIO()}
        references.write_cdf_csv(expected["cdf"], names, ordered[:, :1])
        if count < 131073:  # the other tables share cdf.csv's writer: one count each side
            columns = [ordered[:, 0], np.arange(count), ordered[:, 1] / 7]
            grid = GridQuadrature(2, ordered, -ordered[:, 0])
            expected.update({name: io.StringIO() for name in ("hist", "rows", "grid")})
            references.write_histogram_csv(expected["hist"], names, ordered[:, :1], count)
            references.write_rows(expected["rows"], "x,%.17g,%d,%.17g\r\n", columns)
            expected["grid"].write("x1,x2,weight\n")
            references.write_rows(expected["grid"], "%.17g,%.17g,%.17g\n",
                                  [*ordered.T, grid.weights])
        forks, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        for cpus in (1, 2):
            monkeypatch.setattr(sampling, "_usable_cpus", lambda: cpus)
            tables = {name: io.StringIO() for name in expected}
            with sampling.rank_column(count) as ranks:
                assert len(forks) == (cpus == 2 and count > 15 * 4096)
                write_cdf_csv(tables["cdf"], names, ordered[:, :1], ranks)
            if count < 131073:
                write_histogram_csv(tables["hist"], names, ordered[:, :1], count)
                write_rows(tables["rows"], "x,%.17g,%d,%.17g\r\n", columns)
                write_grid_csv(grid, tables["grid"])
            assert {name: table.getvalue() for name, table in tables.items()} == {
                name: table.getvalue() for name, table in expected.items()}
            assert_no_child_left()
            forks.clear()


class TestRankColumn:
    """cdf.csv's probability texts, spooled by a forked helper for a table
    split into shares."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(sampling, "CSV_BLOCK_ROWS", 4)
        monkeypatch.setattr(sampling, "SHARE_MIN_BLOCKS", 1)
        monkeypatch.setattr(sampling, "_usable_cpus", lambda: 2)

    def test_blocks_read_back_are_the_texts_formatted_inline(self):
        with sampling.rank_column(11) as ranks:
            read = ranks()
            assert_no_child_left()  # reaped before any block is read
            for start in (8, 0, 4):  # in any order
                stop = min(start + 4, 11)
                assert read(start, stop) == sampling._rank_text(start, stop, 11)
        assert sampling._rank_text(8, 11, 11).split() == [
            "0.81818181818181823", "0.90909090909090906", "1"]

    @pytest.mark.parametrize("count", [3, 7, 10**5 + 1, 10**7 - 1, 10**7])
    def test_every_text_fits_its_record(self, count):
        # at 10**7 - 1 rows, texts of both forms at the longest: row 2 is
        # 3.0000003000000301e-07 and row 1999 0.00020000002000000199
        for row in sorted(r for r in {0, 2, 1999, count // 3, count - 1} if r < count):
            text = sampling._rank_text(row, row + 1, count)
            assert len(text) == sampling.RANK_RECORD and text.endswith("\n")
            assert text.split() == [format((row + 1) / count, ".17g")]
        assert len(format(3 / (10**7 - 1), ".17g")) == len(format(2000 / (10**7 - 1), ".17g")) == 22

    def test_a_failed_helper_raises_oserror_and_is_reaped(self, monkeypatch):
        monkeypatch.setattr(sampling, "_rank_text", fail_in_children(sampling._rank_text))
        with sampling.rank_column(12) as ranks:
            with pytest.raises(OSError, match="formatting process failed"):
                ranks()
        assert_no_child_left()

    def test_leaving_early_kills_and_reaps_the_helper(self, monkeypatch):
        monkeypatch.setattr(sampling, "_rank_text", lambda start, stop, count: time.sleep(60))
        started = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            with sampling.rank_column(12):
                raise KeyboardInterrupt  # as while the samples are evaluated
        assert time.perf_counter() - started < 30
        assert_no_child_left()
