"""CSV and SVG emission for command results.

Every CSV carries its own provenance: a ``#``-prefixed metadata block with the
tool version, human-readable settings, and a single ``# config:`` line whose
JSON payload is sufficient to re-run the command bit-identically. Numbers are
printed with 9 significant digits, ``.`` decimal separator, ``\\n`` endings.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

TOOL_NAME = "uavcov"
TOOL_VERSION = "0.1.0"

_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd",
    "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f",
)


@dataclass
class OutputTable:
    """Header + numeric rows + the metadata that reproduces them.

    ``metadata`` keys: ``params`` (canonical command parameters, required),
    ``notes`` (optional list of human-readable caveats), ``summary`` (optional
    aggregate dict, e.g. scenario totals).
    """

    header: list[str]
    rows: list[tuple]
    metadata: dict = field(default_factory=dict)


def format_number(value) -> str:
    """Locale-independent cell formatting: 9 significant digits for floats."""
    return _cell_format(type(value)) % (value,)


def _cell_format(cell_type: type) -> str:
    # the %-format of one cell, so that render_csv can join a row's formats into one
    if issubclass(cell_type, bool):
        return "%d"
    if issubclass(cell_type, float):
        return "%.9g"
    return "%s"


def render_csv(table: OutputTable) -> str:
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
    # one %-format string per row type signature, so a row is formatted in one call
    row_formats = {}
    for i, row in enumerate(table.rows):
        if len(row) != len(table.header):
            raise ValueError(f"row {i} has {len(row)} cells for {len(table.header)} columns")
        row = tuple(row)
        signature = tuple(map(type, row))
        fmt = row_formats.get(signature)
        if fmt is None:
            fmt = row_formats[signature] = ",".join(map(_cell_format, signature))
        lines.append(fmt % row)
    return "\n".join(lines) + "\n"


def parse_metadata(csv_text: str) -> dict:
    """Recover the command parameters embedded in an emitted CSV."""
    for line in csv_text.split("\n"):
        if line.startswith("# config: "):
            return json.loads(line[len("# config: "):])
    raise ValueError("no '# config:' metadata line found")


def _atomic_write(path: Path, text: str) -> None:
    # write-then-rename so a failure never leaves a partial target; the temp file
    # is created with mode 0o666 so the umask decides the final mode, as it would
    # for a plain open()
    tmp = path.parent / f".{path.name}.{os.urandom(8).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def emit_table(table: OutputTable, path, plot: bool = False) -> None:
    """Write the CSV (and optionally an SVG chart beside it) atomically."""
    target = Path(path)
    _atomic_write(target, render_csv(table))
    if plot:
        _atomic_write(target.with_suffix(".svg"), render_svg(table))


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    if hi <= lo:
        return [lo]
    return [lo + (hi - lo) * i / (count - 1) for i in range(count)]


def render_svg(table: OutputTable) -> str:
    """Standalone 800x500 line chart: first column on x, one series per column."""
    width, height = 800, 500
    ml, mr, mt, mb = 70, 175, 20, 50
    plot_w, plot_h = width - ml - mr, height - mt - mb

    numeric_cols = [
        j for j in range(len(table.header))
        if table.rows and all(isinstance(row[j], (int, float)) for row in table.rows)
    ]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{ml}" y="{mt}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333" stroke-width="1"/>',
    ]
    if numeric_cols and len(numeric_cols) >= 2:
        x_col, series_cols = numeric_cols[0], numeric_cols[1:]
        xs = [float(row[x_col]) for row in table.rows]
        ys = [float(row[j]) for j in series_cols for row in table.rows]
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
            points = " ".join(
                f"{sx(float(row[x_col])):.2f},{sy(float(row[j])):.2f}" for row in table.rows
            )
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
