"""The chunked CSV writer: the same bytes at every chunk size, bounded memory, no partial output.

``reporting`` writes a table's body ``_CHUNK_ROWS`` rows at a time. The
reference here formats every cell with ``format_number`` and joins the rows,
which is the byte rule the writer must keep at every chunk boundary.
"""

import tracemalloc

import numpy as np
import pytest

from uavcov import cli, reporting
from uavcov.reporting import OutputTable, emit_table, format_number, render_csv, render_svg

CHUNK = reporting._CHUNK_ROWS
PREFIX = f"# {reporting.TOOL_NAME} {reporting.TOOL_VERSION}\n# config: {{}}\n"
MIXED = [None, "urban", np.float32(0.1), True, -0.0, np.float64(0.1 + 0.2), 7, False]


def make_table(n_rows: int, mixed: bool = True) -> OutputTable:
    # float, int and bool arrays, and optionally a list of mixed cells
    k = np.arange(n_rows)
    columns = [np.sqrt(k + 0.5) * (-1.0) ** k, k * 1_000_003 - 5, k % 3 == 1]
    if mixed:
        columns.append([MIXED[i % len(MIXED)] for i in range(n_rows)])
    return OutputTable(header=["f", "i", "b", "mixed"][:len(columns)], columns=columns,
                       metadata={})


def reference_csv(table: OutputTable) -> str:
    cells = [col.tolist() if isinstance(col, np.ndarray) else col for col in table.columns]
    rows = "".join(",".join(map(format_number, row)) + "\n" for row in zip(*cells))
    return PREFIX + ",".join(table.header) + "\n" + rows


def chunk_cases():
    for chunk in (1, 3, 7, CHUNK):
        for n_rows in sorted({0, 1, chunk - 1, chunk, chunk + 1, 3 * chunk + 5}):
            for mixed in (True, False):
                yield pytest.param(chunk, n_rows, mixed,
                                   id=f"chunk{chunk}-rows{n_rows}-{'mixed' if mixed else 'arrays'}")


class TestChunkBoundaries:
    @pytest.mark.parametrize("chunk, n_rows, mixed", chunk_cases())
    def test_every_writer_gives_the_reference_bytes(self, chunk, n_rows, mixed, monkeypatch,
                                                    tmp_path, capsys):
        monkeypatch.setattr(reporting, "_CHUNK_ROWS", chunk)
        table = make_table(n_rows, mixed)
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
        assert chunks[0] == PREFIX + "f,i,b,mixed\n"
        assert [chunk.count("\n") for chunk in chunks[1:]] == [7, 7, 7, 5]

    def test_array_cells_print_as_their_python_scalars(self):
        table = OutputTable(["b", "i", "f"], [np.array([True, False]), np.array([3, -4]),
                                              np.array([0.1, np.inf], dtype=np.float32)])
        assert render_csv(table).split("\n")[-3:] == ["1,3,0.100000001", "0,-4,inf", ""]

    def test_an_object_array_is_formatted_per_cell(self):
        column = np.array(MIXED, dtype=object)
        table = OutputTable(["x"], [column])
        assert render_csv(table) == PREFIX + "x\n" + "".join(
            format_number(cell) + "\n" for cell in MIXED)


class TestSvg:
    def test_a_series_is_a_column_of_ints_and_floats(self):
        n = 6
        table = OutputTable(
            ["x", "floats", "none", "names", "ints", "flags", "objects", "f32"],
            [np.linspace(0.0, 1.0, n), [0.5 * i for i in range(n)], [1.0] * (n - 1) + [None],
             ["urban"] * n, np.arange(n), np.arange(n) % 2 == 0,
             np.array([1.5] * n, dtype=object), [np.float32(1.0)] * n])
        svg = render_svg(table)
        legends = [line.rpartition('">')[2][:-len("</text>")] for line in svg.split("\n")
                   if 'font-size="11">' in line]
        # bools are ints; a None, a str or a numpy scalar in a list keeps a column out
        assert legends == ["floats", "ints", "flags", "objects"]
        assert 'text-anchor="middle">x</text>' in svg

    def test_no_chart_without_two_series(self):
        for columns in ([["a", "b"], [1.0, 2.0]], [[], []]):
            svg = render_svg(OutputTable(["name", "value"], columns))
            assert "<polyline" not in svg and svg.endswith("</svg>\n")


class TestMalformedTables:
    @pytest.mark.parametrize("header, columns", [
        (["x", "y"], [[1.0, 2.0]]),
        (["x"], [[1.0], [2.0]]),
        (["x", "y"], [np.zeros(3), np.zeros(2)]),
        (["x", "y", "z"], [[1.0], [2.0], []]),
    ])
    def test_refused_before_any_byte(self, header, columns, tmp_path, monkeypatch, capsys):
        table = OutputTable(header, columns, metadata={})
        with pytest.raises(ValueError) as csv_error:
            render_csv(table)
        with pytest.raises(ValueError) as svg_error:
            render_svg(table)
        assert str(svg_error.value) == str(csv_error.value)
        with pytest.raises(ValueError):
            emit_table(table, tmp_path / "t.csv", plot=True)
        assert list(tmp_path.iterdir()) == []

        monkeypatch.setattr(cli, "execute", lambda config: table)
        with pytest.raises(ValueError):
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
    # one chunk of a scenario table is ~10 MiB of Python cells, format and text; a
    # writer that holds the whole table's rows or text grows past this with n_users
    table = cli.execute(cli.parse_args(["scenario", "--n-users", str(n_users),
                                        "--n-draws", "1"]))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        emit_table(table, tmp_path / "scenario.csv")
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
