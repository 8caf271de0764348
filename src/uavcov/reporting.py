"""CSV and SVG emission for command results.

Every CSV carries its own provenance: a ``#``-prefixed metadata block with the
tool version, human-readable settings, and a single ``# config:`` line whose
JSON payload is sufficient to re-run the command bit-identically. Numbers are
printed with 9 significant digits, ``.`` decimal separator, ``\\n`` endings.
"""

from __future__ import annotations

import json
import os
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

TOOL_NAME = "uavcov"
TOOL_VERSION = "0.1.0"

# rows per CSV chunk: each chunk is one %-format applied to its flat tuple of cells,
# so writing a table holds one chunk's Python cells and text, not the whole table's
_CHUNK_ROWS = 1 << 14

_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd",
    "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f",
)


@dataclass
class OutputTable:
    """Header + one column per header entry + the metadata that reproduces them.

    A column is a numpy array or a list. ``metadata`` keys: ``params`` (canonical
    command parameters, required), ``notes`` (optional list of human-readable
    caveats), ``summary`` (optional aggregate dict, e.g. scenario totals).
    """

    header: list[str]
    columns: list
    metadata: dict = field(default_factory=dict)


def format_number(value) -> str:
    """Locale-independent cell formatting: 9 significant digits for floats."""
    return _cell_format(type(value)) % (value,)


def _cell_format(cell_type: type) -> str:
    # the %-format of one cell, so that a chunk's formats join into one
    if issubclass(cell_type, bool):
        return "%d"
    if issubclass(cell_type, float):
        return "%.9g"
    return "%s"


def _cells(column, lo: int, hi: int) -> list:
    # an array's cells are read as Python scalars, so np.bool_ prints as a bool does
    return column[lo:hi].tolist() if isinstance(column, np.ndarray) else list(column[lo:hi])


def _metadata_block(table: OutputTable) -> str:
    params = table.metadata.get("params", {})
    lines = [f"# {TOOL_NAME} {TOOL_VERSION}"]
    if "command" in params:
        lines.append(f"# command: {params['command']}")
    if "mode" in params:
        lines.append(f"# mode: {params['mode']}")
    if "seed" in params:
        lines.append(f"# seed: {params['seed']}")
    for env in params.get("environments", []):
        detail = " ".join(
            f"{key}={format_number(env[key])}"
            for key in ("a", "b", "mu_los_db", "mu_nlos_db", "sigma_los_db", "sigma_nlos_db")
        )
        lines.append(f"# environment: {env['name']} {detail}")
    if "radio" in params:
        detail = " ".join(
            f"{key}={format_number(val)}" for key, val in sorted(params["radio"].items())
        )
        lines.append(f"# radio: {detail}")
    for note in table.metadata.get("notes", []):
        lines.append(f"# note: {note}")
    if "summary" in table.metadata:
        lines.append("# summary: " + json.dumps(table.metadata["summary"], sort_keys=True))
    lines.append("# config: " + json.dumps(params, sort_keys=True, separators=(",", ":")))
    lines.append(",".join(table.header))
    return "\n".join(lines) + "\n"


def _body_chunks(columns: list, n_rows: int) -> Iterator[str]:
    # one row format per chunk: a typed array column keeps its first cell's format, a list
    # or object-array column has each cell put through format_number and prints with %s
    typed = [isinstance(column, np.ndarray) and column.dtype != object for column in columns]
    for lo in range(0, n_rows, _CHUNK_ROWS):
        hi = min(lo + _CHUNK_ROWS, n_rows)
        cells = [_cells(column, lo, hi) if is_typed else list(map(format_number, column[lo:hi]))
                 for column, is_typed in zip(columns, typed)]
        row = ",".join(_cell_format(type(col_cells[0])) if is_typed else "%s"
                       for col_cells, is_typed in zip(cells, typed))
        yield ((row + "\n") * (hi - lo)) % tuple(chain.from_iterable(zip(*cells)))


def _n_rows(table: OutputTable) -> int:
    # the one check of a table's shape, for the CSV and the SVG writer alike
    columns = table.columns
    if len(columns) != len(table.header):
        raise ValueError(f"{len(columns)} columns for {len(table.header)} header entries")
    n_rows = len(columns[0]) if columns else 0
    for j, column in enumerate(columns):
        if len(column) != n_rows:
            raise ValueError(f"column {j} has {len(column)} rows, column 0 has {n_rows}")
    return n_rows


def _csv_chunks(table: OutputTable) -> Iterator[str]:
    """Check ``table``, then iterate its CSV text: the metadata block, then one string per chunk.

    A malformed table raises ``ValueError`` here, before any string is produced.
    """
    return chain((_metadata_block(table),), _body_chunks(table.columns, _n_rows(table)))


def render_csv(table: OutputTable) -> str:
    return "".join(_csv_chunks(table))


def parse_metadata(csv_text: str) -> dict:
    """Recover the command parameters embedded in an emitted CSV."""
    for line in csv_text.split("\n"):
        if line.startswith("# config: "):
            return json.loads(line[len("# config: "):])
    raise ValueError("no '# config:' metadata line found")


def _atomic_write(path: Path, chunks: Iterable[str]) -> None:
    # write-then-rename so a failure, including one while the chunks are produced,
    # never leaves a partial target; the temp file is created with mode 0o666 so the
    # umask decides the final mode, as it would for a plain open()
    tmp = path.parent / f".{path.name}.{os.urandom(8).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def emit_table(table: OutputTable, path, plot: bool = False) -> None:
    """Write the CSV (and optionally an SVG chart beside it) atomically, a chunk at a time."""
    target = Path(path)
    _atomic_write(target, _csv_chunks(table))
    if plot:
        _atomic_write(target.with_suffix(".svg"), (render_svg(table),))


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    if hi <= lo:
        return [lo]
    return [lo + (hi - lo) * i / (count - 1) for i in range(count)]


def render_svg(table: OutputTable) -> str:
    """Standalone 800x500 line chart: first numeric column on x, one series per other one."""
    width, height = 800, 500
    ml, mr, mt, mb = 70, 175, 20, 50
    plot_w, plot_h = width - ml - mr, height - mt - mb

    n_rows = _n_rows(table)
    cells = [_cells(column, 0, n_rows) for column in table.columns]
    numeric_cols = [j for j, column in enumerate(cells)
                    if n_rows and all(isinstance(cell, (int, float)) for cell in column)]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{ml}" y="{mt}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333" stroke-width="1"/>',
    ]
    if len(numeric_cols) >= 2:
        x_col, series_cols = numeric_cols[0], numeric_cols[1:]
        xs = [float(x) for x in cells[x_col]]
        ys = [float(y) for j in series_cols for y in cells[j]]
        x_lo, x_hi = min(xs), max(xs)
        y_lo, y_hi = min(ys), max(ys)
        if y_hi == y_lo:
            y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
        if x_hi == x_lo:
            x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
        pad = 0.05 * (y_hi - y_lo)
        y_lo, y_hi = y_lo - pad, y_hi + pad

        def sx(v):
            return ml + (v - x_lo) / (x_hi - x_lo) * plot_w

        def sy(v):
            return mt + plot_h - (v - y_lo) / (y_hi - y_lo) * plot_h

        for tick in _ticks(x_lo, x_hi):
            px = sx(tick)
            parts.append(
                f'<line x1="{px:.2f}" y1="{mt + plot_h}" x2="{px:.2f}" '
                f'y2="{mt + plot_h + 5}" stroke="#333"/>'
            )
            parts.append(
                f'<text x="{px:.2f}" y="{mt + plot_h + 20}" font-size="11" '
                f'text-anchor="middle">{format(tick, ".6g")}</text>'
            )
        for tick in _ticks(y_lo, y_hi):
            py = sy(tick)
            parts.append(
                f'<line x1="{ml - 5}" y1="{py:.2f}" x2="{ml}" y2="{py:.2f}" stroke="#333"/>'
            )
            parts.append(
                f'<text x="{ml - 8}" y="{py + 4:.2f}" font-size="11" '
                f'text-anchor="end">{format(tick, ".6g")}</text>'
            )
        parts.append(
            f'<text x="{ml + plot_w / 2}" y="{height - 12}" font-size="12" '
            f'text-anchor="middle">{table.header[x_col]}</text>'
        )
        for k, j in enumerate(series_cols):
            colour = _PALETTE[k % len(_PALETTE)]
            points = " ".join(f"{sx(x):.2f},{sy(float(y)):.2f}" for x, y in zip(xs, cells[j]))
            parts.append(
                f'<polyline points="{points}" fill="none" stroke="{colour}" stroke-width="1.5"/>'
            )
            ly = mt + 16 + 18 * k
            parts.append(
                f'<line x1="{ml + plot_w + 10}" y1="{ly}" x2="{ml + plot_w + 34}" '
                f'y2="{ly}" stroke="{colour}" stroke-width="2"/>'
            )
            parts.append(
                f'<text x="{ml + plot_w + 40}" y="{ly + 4}" font-size="11">{table.header[j]}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
