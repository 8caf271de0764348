"""The chunked CSV writer: the same bytes at every chunk size, bounded memory, no partial output.

``reporting`` writes a table's body ``_CHUNK_ROWS`` rows at a time, and
formats a chunk of float64 columns in numpy. The
reference here reads every column through ``.tolist()``, formats each cell with
``format_number`` and joins the rows, which is the byte rule the writer must
keep at every chunk boundary, worker count and destination.
"""

import errno
import gc
import os
import re
import sys
import tempfile
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from uavcov import cli, planner, reporting, scenario
from uavcov.reporting import OutputTable, emit_table, format_number, render_csv, render_svg

CHUNK = reporting._CHUNK_ROWS
PREFIX = f"# {reporting.TOOL_NAME} {reporting.TOOL_VERSION}\n# config: {{}}\n"
# a cell that holds a %-format must print as itself, not be read as one
NAMES = np.array(["urban", "100%s", "", "%d%%", "dense-urban", "50%"])


def make_table(n_rows: int, names: bool = True) -> OutputTable:
    # float, int and bool arrays, and optionally a str array
    k = np.arange(n_rows)
    columns = [np.sqrt(k + 0.5) * (-1.0) ** k, k * 1_000_003 - 5, k % 3 == 1]
    if names:
        columns.append(NAMES[k % len(NAMES)])
    return OutputTable(header=["f", "i", "b", "names"][:len(columns)], columns=columns,
                       metadata={})


def reference_csv(table: OutputTable) -> str:
    cells = [col.tolist() for col in table.columns]
    rows = "".join(",".join(map(format_number, row)) + "\n" for row in zip(*cells))
    return PREFIX + ",".join(table.header) + "\n" + rows


def chunk_cases():
    for chunk in (1, 3, 7, CHUNK):
        for n_rows in sorted({0, 1, chunk - 1, chunk, chunk + 1, 3 * chunk + 5}):
            for names in (True, False):
                yield pytest.param(chunk, n_rows, names,
                                   id=f"chunk{chunk}-rows{n_rows}-{'str' if names else 'numeric'}")


class TestChunkBoundaries:
    @pytest.mark.parametrize("chunk, n_rows, names", chunk_cases())
    def test_every_writer_gives_the_reference_bytes(self, chunk, n_rows, names, monkeypatch,
                                                    tmp_path, capsys):
        monkeypatch.setattr(reporting, "_CHUNK_ROWS", chunk)
        table = make_table(n_rows, names)
        expected = reference_csv(table)
        assert render_csv(table) == expected

        out = tmp_path / "t.csv"
        emit_table(table, out)
        assert out.read_bytes() == expected.encode("ascii")

        monkeypatch.setattr(cli, "execute", lambda config: table)
        assert cli.main(["sweep-plos"]) == 0
        assert capsys.readouterr().out == expected

    def test_chunks_hold_at_most_the_chunk_size(self, monkeypatch):
        monkeypatch.setattr(reporting, "_CHUNK_ROWS", 7)
        table = make_table(3 * 7 + 5)
        chunks = list(reporting._csv_chunks(table))
        assert chunks[0] == PREFIX + "f,i,b,names\n"
        assert [chunk.count("\n") for chunk in chunks[1:]] == [7, 7, 7, 5]

    def test_array_cells_print_as_their_python_scalars(self):
        table = OutputTable(["b", "i", "f"], [np.array([True, False]), np.array([3, -4]),
                                              np.array([0.1, np.inf], dtype=np.float32)])
        assert render_csv(table).split("\n")[-3:] == ["1,3,0.100000001", "0,-4,inf", ""]

    def test_a_str_array_prints_its_cells_as_they_are(self):
        table = OutputTable(["x"], [NAMES])
        assert render_csv(table) == PREFIX + "x\n" + "".join(f"{cell}\n" for cell in NAMES)


class TestSvg:
    def test_a_series_is_a_column_of_ints_and_floats(self):
        n = 6
        table = OutputTable(
            ["names", "x", "floats", "ints", "flags", "unsigned", "f32"],
            [NAMES[:n], np.linspace(0.0, 1.0, n), 0.5 * np.arange(n), np.arange(n),
             np.arange(n) % 2 == 0, np.arange(n, dtype=np.uint8), np.ones(n, np.float32)])
        svg = render_svg(table)
        legends = [line.rpartition('">')[2][:-len("</text>")] for line in svg.split("\n")
                   if 'font-size="11">' in line]
        # the dtype decides: bools are ints, and a str column is no series
        assert legends == ["floats", "ints", "flags", "unsigned", "f32"]
        assert 'text-anchor="middle">x</text>' in svg
        assert svg.count("<polyline") == 5

    def test_series_points_are_the_cells_as_floats(self):
        table = OutputTable(["x", "y", "flag"], [np.array([0, 2, 4]),
                                                 np.array([1.0, -1.0, 0.5], np.float32),
                                                 np.array([True, False, True])])
        polylines = [line for line in render_svg(table).split("\n") if "<polyline" in line]
        # x 0..4 spans pixels 70..625; y -1..1, padded by 5% to -1.1..1.1, spans 450..20
        assert [line.split('"')[1] for line in polylines] == [
            "70.00,39.55 347.50,430.45 625.00,137.27",
            "70.00,39.55 347.50,235.00 625.00,39.55",
        ]

    def test_no_chart_without_two_series(self):
        for columns in ([np.array(["a", "b"]), np.array([1.0, 2.0])],
                        [np.array([]), np.array([])]):
            svg = render_svg(OutputTable(["name", "value"], columns))
            assert "<polyline" not in svg and svg.endswith("</svg>\n")


UNTYPED = "column 1 is not a 1-D numpy array of bool, int, float or str"


class TestMalformedTables:
    @pytest.mark.parametrize("header, columns, message", [
        (["x", "y"], [np.ones(2)], "1 columns for 2 header entries"),
        (["x"], [np.ones(1), np.ones(1)], "2 columns for 1 header entries"),
        (["x", "y"], [np.zeros(3), np.zeros(2)], "column 1 has 2 rows, column 0 has 3"),
        (["x", "y", "z"], [np.ones(1), np.ones(1), np.array([])],
         "column 2 has 0 rows, column 0 has 1"),
        # a column that is not a 1-D array of bool, integer, float or str dtype
        (["x", "y"], [np.ones(2), [1.0, 2.0]], UNTYPED),
        (["x", "y"], [np.ones(2), np.array([1.5, "a"], dtype=object)], UNTYPED),
        (["x", "y"], [np.ones(2), np.ones((2, 1))], UNTYPED),
        (["x", "y"], [np.ones(2), np.array(2.0)], UNTYPED),
        (["x", "y"], [np.ones(2), np.array([b"a", b"b"])], UNTYPED),
        (["x", "y"], [np.ones(2), np.array([1j, 2.0])], UNTYPED),
    ], ids=["short-header", "long-header", "ragged", "empty-last", "list", "object",
            "two-d", "zero-d", "bytes", "complex"])
    def test_refused_before_any_byte(self, header, columns, message, tmp_path, monkeypatch,
                                     capsys):
        table = OutputTable(header, columns, metadata={})
        with pytest.raises(ValueError) as csv_error:
            render_csv(table)
        assert str(csv_error.value) == message
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            render_svg(table)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            emit_table(table, tmp_path / "t.csv", plot=True)
        assert list(tmp_path.iterdir()) == []

        monkeypatch.setattr(cli, "execute", lambda config: table)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            cli.main(["sweep-plos"])
        assert capsys.readouterr().out == ""

    def test_a_failing_chunk_leaves_no_file(self, tmp_path, monkeypatch):
        table = make_table(5)

        def failing_chunks(table):
            yield "# uavcov\n"
            raise RuntimeError("chunk failed")

        monkeypatch.setattr(reporting, "_csv_chunks", failing_chunks)
        with pytest.raises(RuntimeError, match="chunk failed"):
            emit_table(table, tmp_path / "t.csv")
        assert list(tmp_path.iterdir()) == []

        old = tmp_path / "old.csv"
        old.write_text("kept\n")
        with pytest.raises(RuntimeError, match="chunk failed"):
            emit_table(table, old)
        assert list(tmp_path.iterdir()) == [old]
        assert old.read_text() == "kept\n"


@pytest.mark.parametrize("n_users", [1 << 14, 1 << 16, 1 << 18])
def test_emit_table_memory_is_one_chunk(n_users, tmp_path):
    # one chunk of a scenario table, 2**12 rows, traced 2.26 MiB of Python cells, format
    # and text (CPython 3.11, x86-64); the bound leaves a third more. A writer that holds
    # the whole table's rows or text grows past this with n_users
    table = cli.execute(cli.parse_args(["scenario", "--n-users", str(n_users),
                                        "--n-draws", "1"]))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        emit_table(table, tmp_path / "scenario.csv")
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20


def percent_g9(block: np.ndarray) -> str:
    """Python's own ``'%.9g'`` of every cell of a 2-D block, as CSV rows."""
    row = ",".join(["%.9g"] * block.shape[1]) + "\n"
    return (row * block.shape[0]) % tuple(block.ravel().tolist())


def g9_doubles(rng) -> np.ndarray:
    """Over 10**6 doubles that put '%.9g' in each of its forms and at each rounding edge."""
    n = 1 << 17
    signs = rng.choice([-1.0, 1.0], n)
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    # 9-digit mantissas m + 1/2 and 10- and 11-digit integers ending in 5 or 50: exact ties
    mantissas = rng.integers(10**8, 10**9, n)
    ties = np.concatenate([mantissas + 0.5, mantissas * 10.0 + 5, mantissas * 100.0 + 50])
    # 10 significant digits ending in 5 at any exponent: within an ulp or two of a tie, so
    # the scaling's own rounding decides them unless they are handed to Python
    near_ties = (rng.integers(10**8, 10**9, n) * 10 + 5) * 10.0 ** rng.integers(-108, 91, n)
    ulps = np.arange(-40, 41)
    # '%g' switches form at 1e-5 and 1e9, and rounds up into 1e-4 and 1e9 from below
    edges = np.array([1e-5, 9.99999999995e-6, 1e-4, 9.99999999995e-5, 1e8, 1e9,
                      999999999.5, 99999999.95, 1e99, 9.999999995e99, 1e-99, 9.999999995e-100])
    edges = edges[:, None] * (1.0 + ulps * np.finfo(float).eps)
    with np.errstate(over="ignore"):  # the largest overflow to infinity
        wide = signs * 10.0 ** rng.uniform(-330.0, 310.0, n)
    return np.concatenate([
        rng.integers(0, 1 << 64, 2 * n, dtype=np.uint64, endpoint=False).view(np.float64),
        rng.integers(1, 1 << 52, n // 8, dtype=np.uint64).view(np.float64) * signs[:n // 8],
        wide,
        rng.normal(0.0, 1.0, n) * 10.0 ** rng.integers(-12, 14, n),
        rng.integers(-10**15, 10**15, n).astype(float),
        ties * rng.choice([-1.0, 1.0], ties.size), near_ties * signs,
        powers, -powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
        edges.ravel(), -edges.ravel(),
        [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 123456789.5, 5e-324, -5e-324],
    ])


@pytest.mark.parametrize("seed", [0, 1])
def test_float_chunks_print_as_percent_g9(seed):
    """The numpy path against Python's '%.9g', cell for cell, in rows of 1 to 13 cells."""
    rng = np.random.default_rng(seed)
    values = rng.permutation(g9_doubles(rng))
    assert values.size > 10**6
    with np.errstate(invalid="ignore"):
        assert np.isnan(values).any() and np.isinf(values).any()
    for width, part in zip((1, 2, 9, 13), np.array_split(values, 4)):
        for lo in range(0, part.size - width + 1, CHUNK * width):
            block = part[lo:lo + CHUNK * width]
            block = block[:block.size // width * width].reshape(-1, width)
            assert reporting._float_text(block) == percent_g9(block), (seed, width, lo)


@pytest.mark.parametrize("n_rows, chunks_in_numpy", [(180, []), (CHUNK + 1, [CHUNK, 1])])
def test_only_a_float_table_of_more_than_one_chunk_takes_the_numpy_path(n_rows, chunks_in_numpy,
                                                                        monkeypatch):
    # 13 float64 columns, as a Monte Carlo sweep prints; one chunk of them keeps the %-format
    rng = np.random.default_rng(n_rows)
    cells = rng.normal(size=(13, n_rows)) * 10.0 ** rng.integers(-6, 12, (13, 1))
    table = OutputTable([f"c{j}" for j in range(13)], list(cells), metadata={})
    float_text, calls = reporting._float_text, []

    def counted(block):
        calls.append(len(block))
        return float_text(block)

    monkeypatch.setattr(reporting, "_float_text", counted)
    assert render_csv(table) == reference_csv(table)
    assert calls == chunks_in_numpy


@pytest.fixture(scope="module")
def float_tables():
    """A scenario and an all-float sweep of 4 chunks each, at the default chunk size."""
    scenario = cli.execute(cli.parse_args(["scenario", "--n-users", str(4 * CHUNK),
                                           "--n-draws", "3", "--seed", "5"]))
    sweep = cli.execute(cli.parse_args(["sweep-coverage", "--env", "all", "--start", "1",
                                        "--stop", str(4 * CHUNK), "--step", "1"]))
    return {"scenario": scenario, "sweep": sweep}


@pytest.mark.parametrize("chunk", [1, 7, CHUNK])
@pytest.mark.parametrize("kind", ["scenario", "sweep", "str-and-bool"])
def test_no_byte_depends_on_the_worker_count_or_the_destination(kind, chunk, float_tables,
                                                                 monkeypatch, tmp_path, capsys):
    # three chunks and a part; a table with a str or bool column stays on the %-format path
    monkeypatch.setattr(reporting, "_CHUNK_ROWS", chunk)
    n_rows = 3 * chunk + max(chunk // 2, 1)
    if kind == "str-and-bool":
        table = make_table(n_rows)
    else:
        whole = float_tables[kind]
        table = OutputTable(whole.header, [column[:n_rows] for column in whole.columns])
    expected = reference_csv(table)
    assert render_csv(table) == expected
    monkeypatch.setattr(cli, "execute", lambda config: table)
    for workers in range(1, 5):
        out = tmp_path / f"{workers}.csv"
        assert cli.main(["sweep-plos", "--workers", str(workers), "--out", str(out)]) == 0
        assert out.read_bytes() == expected.encode("ascii"), workers
        assert cli.main(["sweep-plos", "--workers", str(workers)]) == 0
        assert capsys.readouterr().out == expected, workers


def test_a_closed_pipe_ends_the_run_quietly(monkeypatch, capsys):
    # the reader is gone before the first body chunk is written
    table = OutputTable(["x", "y"], [np.arange(6.0 * CHUNK), np.full(6 * CHUNK, 0.5)])
    monkeypatch.setattr(cli, "execute", lambda config: table)
    read, write = os.pipe()
    os.close(read)
    with open(write, "w", encoding="utf-8") as stdout:
        monkeypatch.setattr(sys, "stdout", stdout)
        assert cli.main(["sweep-plos"]) == 0
        monkeypatch.undo()
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("steps", [0, 1, 3, 4, 6])
def test_a_prefetch_reads_back_the_plain_body(steps, spools, monkeypatch):
    # four chunks: none, some or all of them spooled before the write
    monkeypatch.setattr(reporting, "_CHUNK_ROWS", 7)
    table = make_table(3 * 7 + 5)
    expected = reference_csv(table)
    prefetch = reporting._BodyPrefetch()
    taken = prefetch.steps(table.columns)
    assert [next(taken, False) for _ in range(steps)] == [True] * min(steps, 4) + [False] * (
        steps - min(steps, 4))
    assert len(spools) == min(steps, 1)
    table.prefetch = prefetch
    assert render_csv(table) == expected
    # the spool is closed once read back, while the prefetch lives on
    assert all(spool.closed for spool in spools)
    # the prefetch is read once; a second write formats the columns afresh
    assert table.prefetch is None
    assert render_csv(table) == expected


def test_a_spooled_body_is_read_back_one_chunk_at_a_time(tmp_path):
    # 2**16 float rows, every chunk spooled: ~6 MB of text, of which the writer holds one
    # chunk's (~0.2 MB as bytes and as str) at a time
    rows = 1 << 16
    columns = [np.sqrt(np.arange(rows) + 0.5 * j) for j in range(9)]
    table = OutputTable([f"c{j}" for j in range(9)], columns, {})
    prefetch = reporting._BodyPrefetch()
    assert sum(prefetch.steps(columns)) == rows // CHUNK
    table.prefetch = prefetch
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        emit_table(table, tmp_path / "t.csv")
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    table.prefetch = None
    assert (tmp_path / "t.csv").read_text(encoding="ascii") == render_csv(table)


# 5 chunks of body and 20 blocks of shadowing
SCENARIO = ["scenario", "--n-users", str(5 * CHUNK - 100), "--n-draws", "20", "--seed", "3"]


@pytest.fixture
def slow_shadowing(monkeypatch):
    """Each block of normals takes 2 ms more, so that at workers=2 the calling thread
    waits for the helper thread, and four usable CPUs, so that workers=2 starts it."""
    monkeypatch.setattr(planner, "_usable_cpus", lambda: 4)
    monkeypatch.setattr(scenario, "SHADOWING_BLOCK_ELEMENTS", CHUNK * 5 - 100)

    class SlowNormals(np.random.Generator):
        def standard_normal(self, *args, **kwargs):
            time.sleep(0.002)
            return super().standard_normal(*args, **kwargs)

    monkeypatch.setattr(np.random, "Generator", SlowNormals)


@pytest.fixture
def spools(monkeypatch) -> list:
    """The temporary files made from here on, recorded as they are made."""
    made, make = [], tempfile.TemporaryFile

    def record(*args, **kwargs):
        made.append(make(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(tempfile, "TemporaryFile", record)
    return made


@pytest.fixture(scope="module")
def scenario_csv() -> str:
    """The scenario's CSV as written at workers=1, where nothing is prefetched."""
    return render_csv(cli.execute(cli.parse_args(SCENARIO)))


class TestPrefetchedScenarioBody:
    def test_a_prefetched_body_keeps_the_bytes(self, slow_shadowing, spools, scenario_csv,
                                               tmp_path, capsys):
        out = tmp_path / "scenario.csv"
        assert cli.main(SCENARIO + ["--workers", "2", "--out", str(out)]) == 0
        assert out.read_text(encoding="ascii") == scenario_csv
        assert cli.main(SCENARIO + ["--workers", "2"]) == 0
        assert capsys.readouterr().out == scenario_csv
        # one spool per run, each closed once read back
        assert len(spools) == 2
        assert all(spool.closed for spool in spools)

    @pytest.mark.parametrize("cpus, workers", [(4, 1), (1, 2)])
    def test_no_file_without_the_helper_thread(self, cpus, workers, slow_shadowing, spools,
                                               scenario_csv, tmp_path, monkeypatch):
        monkeypatch.setattr(planner, "_usable_cpus", lambda: cpus)
        out = tmp_path / "scenario.csv"
        assert cli.main(SCENARIO + ["--workers", str(workers), "--out", str(out)]) == 0
        assert out.read_text(encoding="ascii") == scenario_csv
        assert spools == []

    @pytest.mark.parametrize("failing", ["make", "second write"])
    def test_a_spool_failure_keeps_the_bytes(self, failing, slow_shadowing, scenario_csv,
                                             tmp_path, monkeypatch):
        made, make = [], tempfile.TemporaryFile

        class FullDisk:
            """A spool whose second write stores part of its bytes and then fails."""

            def __init__(self):
                if failing == "make":
                    raise OSError(errno.ENOSPC, "no space left on device")
                self.file, self.writes = make(), 0
                made.append(self)

            def write(self, data):
                self.writes += 1
                if self.writes == 2:
                    self.file.write(data[:100])
                    raise OSError(errno.ENOSPC, "no space left on device")
                return self.file.write(data)

            def __getattr__(self, name):
                return getattr(self.file, name)

        monkeypatch.setattr(tempfile, "TemporaryFile", FullDisk)
        out = tmp_path / "scenario.csv"
        assert cli.main(SCENARIO + ["--workers", "2", "--out", str(out)]) == 0
        assert out.read_text(encoding="ascii") == scenario_csv
        assert [spool.writes for spool in made] == ([] if failing == "make" else [2])
        assert all(spool.closed for spool in made)

    @pytest.mark.parametrize("path", ["fill", "compare", "closed pipe", "unwritable out"])
    def test_no_spool_is_left_open(self, path, slow_shadowing, spools, tmp_path, monkeypatch):
        # each path stops the run after the body was spooled in part
        out = ["--out", str(tmp_path / ("missing/scenario.csv" if path == "unwritable out"
                                        else "scenario.csv"))]
        fails = {"fill": (np.random.Generator, "standard_normal"),
                 "compare": (scenario, "_draw_covered")}
        if path in fails:
            owner, name = fails[path]
            original, calls = getattr(owner, name), []

            def failing(*args, **kwargs):
                calls.append(None)
                if len(calls) == 15:
                    raise RuntimeError(f"{path} failed")
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, failing)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if path in fails:
                with pytest.raises(RuntimeError, match=f"{path} failed"):
                    cli.main(SCENARIO + ["--workers", "2"] + out)
            elif path == "closed pipe":
                read, write = os.pipe()
                os.close(read)
                with open(write, "w", encoding="utf-8") as stdout:
                    monkeypatch.setattr(sys, "stdout", stdout)
                    assert cli.main(SCENARIO + ["--workers", "2"]) == 0
                    monkeypatch.setattr(sys, "stdout", sys.__stdout__)
            else:
                assert cli.main(SCENARIO + ["--workers", "2"] + out) == 3
            gc.collect()
        assert len(spools) == 1
        assert spools[0].closed
        assert [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)] == []

    @pytest.mark.parametrize("extra, flag", [
        (["--p-tx=-3000", "--g-db", "3000"], "--p-tx"),
        (["--bandwidth", "1e305", "--p-tx", "3000", "--g-db", "3000", "--noise-density=-3000",
          "--f-c", "1e-300"], "--bandwidth"),
    ], ids=["efficiency", "sum-rate"])
    def test_an_overflowing_summary_is_refused_before_the_shadowing(
            self, extra, flag, slow_shadowing, spools, tmp_path, monkeypatch, capsys):
        # the summary needs the links only, so no normal is drawn and no body spooled
        fills, fill = [], np.random.Generator.standard_normal

        def counted(*args, **kwargs):
            fills.append(None)
            return fill(*args, **kwargs)

        monkeypatch.setattr(np.random.Generator, "standard_normal", counted)
        out = tmp_path / "scenario.csv"
        errors = []
        for workers in ("1", "2"):
            assert cli.main(SCENARIO + extra + ["--workers", workers, "--out", str(out)]) == 2
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1] and f"error: {flag}: " in errors[1]
        assert not out.exists()
        assert spools == []
        assert fills == []
