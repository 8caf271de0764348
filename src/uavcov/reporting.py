"""CSV and SVG emission for command results.

Every CSV carries its own provenance: a ``#``-prefixed metadata block with the
tool version, human-readable settings, and a single ``# config:`` line whose
JSON payload is sufficient to re-run the command bit-identically. Numbers are
printed with 9 significant digits, ``.`` decimal separator, ``\\n`` endings.
"""

from __future__ import annotations

import functools
import json
import os
import tempfile
import weakref
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from types import SimpleNamespace

import numpy as np

TOOL_NAME = "uavcov"
TOOL_VERSION = "0.1.0"

# rows per CSV chunk. A chunk of a table of float64 columns and more than one chunk is
# formatted in numpy (_float_text), with temporaries of up to 16 bytes per cell that are
# freed as it goes; any other chunk is one %-format applied to its flat tuple of cells.
# Either way, writing a table holds one chunk's cells and text, not the whole table's. The
# 10^5-row scenario body took 76-92 ms at 2**10, 2**11 and 2**12 rows per chunk (median of
# 9, numpy 2.4, x86-64); the smaller chunk halves each chunk's temporaries, and one chunk
# is one step of a prefetch (_BodyPrefetch)
_CHUNK_ROWS = 1 << 11

_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd",
    "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f",
)


@dataclass
class OutputTable:
    """Header + one column per header entry + the metadata that reproduces them.

    A column is a 1-D numpy array of bool, integer, float or str dtype; the writers refuse
    any other column. The chunks of a table of more than one chunk whose columns are all
    float64 are printed in numpy, any other through ``.tolist()``, with the same bytes.
    ``metadata`` keys: ``params`` (canonical command parameters, required), ``notes``
    (optional list of human-readable caveats), ``summary`` (optional aggregate dict, e.g.
    scenario totals). ``prefetch``, if set, is a ``_BodyPrefetch`` of these columns; the
    first CSV write reads the body from it.
    """

    header: list[str]
    columns: list
    metadata: dict = field(default_factory=dict)
    prefetch: _BodyPrefetch | None = field(default=None, repr=False, compare=False)


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


# '%.9g' of a float64 chunk, in numpy. Each cell a = |v| whose decimal exponent E lies in
# [-99, 99] is scaled to s = a * fl(10**(8 - E)) in [1e8, 1e9), and its 9 significant
# digits are m = rint(s). fl(10**k) is the correctly rounded power (exact for 0 <= k <= 22)
# and the product rounds once, so s lies within (2u + u**2) * s < 2.3e-7 of the exact
# a * 10**(8 - E), u = 2**-53. Where |s - m| < 0.5 - _G9_MARGIN, the exact product is more
# than _G9_MARGIN - 2.3e-7 from a half, so m is the correctly rounded mantissa that '%.9g'
# prints; _G9_MARGIN covers the bound 17 times over. m = 10**9 carries into E + 1, as it
# does in '%.9g', so an s or an exact product on either side of a power of ten prints the
# same. The cells left (exact ties and near ties, |E| > 99 after rounding, NaN and the
# infinities) are printed by Python's own '%.9g', as Grisu3 hands the cases it cannot
# decide to an exact printer (F. Loitsch, "Printing floating-point numbers quickly and
# accurately with integers", PLDI 2010). Zeros print from m = 0.
_G9_MARGIN = 4e-6
_G9_E = 99  # the exponents of two digits
# bytes per cell: its text right-aligned in 15, the longest being '-1.23456789e-05' and
# '-0.000123456789', then its separator
_G9_WIDTH = 16
_G9_ROW = f"V{_G9_WIDTH}"
# one template per layout: E = -4..8 in fixed form, then the exponent form. A character
# names a cell's source byte: '1'-'9' a digit, '-' the sign, '.' a point printed only before
# a significant digit, ':' a point always printed, '0' a zero, and 'e', 's', 'T', 'U' the
# exponent's 'e', sign and two digits
_G9_LAYOUTS = tuple(["-" + "123456789"[:e + 1] + "." + "123456789"[e + 1:] if e >= 0
                     else "-0:" + "0" * (-e - 1) + "123456789" for e in range(-4, 9)]
                    + ["-1.23456789esTU"])


@functools.cache
def _g9_tables() -> SimpleNamespace:
    # built on first use (~3 ms), so a run that prints no float chunk does not pay for them
    def words(texts) -> np.ndarray:
        return np.frombuffer("".join(texts).encode("ascii"), np.uint32)

    # a cell's 16 source bytes are four words: its digits in threes, each with one constant
    # byte ('-', '.' and '0'), then its exponent's 'e', sign and two digits
    source = {c: j for j, c in enumerate("123-456.7890esTU")} | {":": 7, " ": 0}
    layouts = [t.rjust(_G9_WIDTH - 1) for t in _G9_LAYOUTS]
    exponents = range(-_G9_E, _G9_E + 1)
    layout_of = [e + 4 if -4 <= e <= 8 else len(layouts) - 1 for e in exponents]
    # per (sign, layout, significant digits): the bytes printed, the separator always
    keep = np.ones((2, len(layouts), 9, _G9_WIDTH), bool)
    for k, t in enumerate(layouts):
        # a digit before the point is always printed; one after it only if significant
        whole = sum(c in "123456789" for c in t.partition(".")[0]) if "." in t else 0
        for neg in (0, 1):
            for ns in range(1, 10):
                keep[neg, k, ns - 1, :-1] = [
                    c != " " and (neg if c == "-" else ns > whole if c == "."
                                  else int(c) <= max(ns, whole) if c in "123456789" else True)
                    for c in t]
    keep = keep.reshape(-1, _G9_WIDTH)
    return SimpleNamespace(
        digits=[words(f"%03d{c}" % i for i in range(1000)) for c in "-.0"],
        trailing_zeros=np.array([3 - len(("%03d" % i).rstrip("0")) for i in range(1000)],
                                np.int8),
        ten=np.array([float(f"1e{8 - e}") for e in exponents]),
        exponent=words("e%+03d" % e for e in exponents),
        layout=np.array(layout_of, np.int8),
        # the key of a cell with 9 significant digits, per sign and E
        key=np.array([(neg * len(layouts) + k) * 9 + 8 for neg in (0, 1) for k in layout_of],
                     np.int16),
        source=np.array([[source[c] for c in t + " "] for t in layouts], np.intp),
        keep=np.ascontiguousarray(keep).view(_G9_ROW).ravel(),
        length=np.count_nonzero(keep, axis=1),
    )


def _float_text(block: np.ndarray) -> str:
    """The CSV rows of a C-contiguous 2-D float64 ``block``, each cell as ``'%.9g' % cell``."""
    tab = _g9_tables()
    rows, width = block.shape
    v = block.ravel()
    n, span = v.size, 2 * _G9_E + 1
    a = np.abs(v)
    # NaN, the infinities and 0 fall out of range in the log, or overflow in the scaling
    with np.errstate(all="ignore"):
        e = np.floor(np.log10(a)).astype(np.intp) + _G9_E
        ok = (e >= 0) & (e < span)
        e[~ok] = _G9_E
        s = a * tab.ten[e]
        off = np.flatnonzero((s < 1e8) | (s >= 1e9))  # log10 rounded across a power of ten
        if off.size:
            near = e[off] + np.where(s[off] < 1e8, -1, 1)
            ok[off] &= (near >= 0) & (near < span)
            e[off] = near = np.clip(near, 0, span - 1)
            s[off] = scaled = a[off] * tab.ten[near]
            ok[off] &= (scaled >= 1e8) & (scaled < 1e9)
        del a
        m = np.rint(s)
        s -= m
        ok &= np.abs(s) < 0.5 - _G9_MARGIN
        del s
        m = m.astype(np.int32)
    carry = np.flatnonzero(m == 1_000_000_000)
    m[carry] = 100_000_000
    e[carry] += 1
    ok[carry] &= e[carry] < span
    m[~ok] = 0
    e[~ok] = _G9_E
    exact = np.flatnonzero(~ok & (v != 0))
    hi, m = np.divmod(m, 1_000_000)
    mid, lo = np.divmod(m, 1000)
    del m
    zeros = tab.trailing_zeros[lo]
    z = np.flatnonzero(lo == 0)
    zeros[z] += tab.trailing_zeros[mid[z]] + (mid[z] == 0) * tab.trailing_zeros[hi[z]]
    key = tab.key[e + span * np.signbit(v)]
    key -= np.minimum(zeros, 8)
    del zeros
    layout = tab.layout[e]
    src = np.empty((n, 4), np.uint32)
    for j, (table, index) in enumerate(zip(tab.digits + [tab.exponent], (hi, mid, lo, e))):
        np.take(table, index, out=src[:, j], mode="clip")
    del hi, mid, lo, e
    # the cells grouped by layout, each group's bytes gathered by one take
    order = np.argsort(layout, kind="stable")
    layout = layout[order]
    grouped = src.view(_G9_ROW).ravel()[order].view(np.uint8).reshape(n, _G9_WIDTH)
    del src
    laid = np.empty_like(grouped)
    cuts = [0, *(np.flatnonzero(layout[1:] != layout[:-1]) + 1).tolist(), n]
    for start, stop in zip(cuts[:-1], cuts[1:]):
        np.take(grouped[start:stop], tab.source[layout[start]], axis=1, out=laid[start:stop],
                mode="clip")
    del grouped
    out = np.empty_like(laid)
    out.view(_G9_ROW).ravel()[order] = laid.view(_G9_ROW).ravel()
    del laid, order
    seps = np.full(width, ord(","), np.uint8)
    seps[-1] = ord("\n")
    out.reshape(rows, width, _G9_WIDTH)[:, :, -1] = seps
    keep = tab.keep[key].view(bool).reshape(n, _G9_WIDTH)
    keep[exact] = False
    body = out.ravel()[keep.ravel()]
    del out, keep
    text = str(body, "ascii")
    del body
    if not exact.size:
        return text
    # each exact cell goes in at the end of the text of the cells before it
    lengths = tab.length[key]
    lengths[exact] = 0
    ends = np.cumsum(lengths)[exact].tolist()
    parts, at = [], 0
    for i, end, cell in zip(exact.tolist(), ends, v[exact].tolist()):
        parts += (text[at:end], "%.9g" % cell, "\n" if i % width == width - 1 else ",")
        at = end
    parts.append(text[at:])
    return "".join(parts)


def _body_chunks(columns: list, n_rows: int) -> Iterator[str]:
    # a table of one chunk keeps the %-format path: there the numpy path's tables and code
    # pages cost more than it saves (on a 180-row table, ~0.6 MB of peak RSS for ~0.3 ms on
    # x86-64)
    numpy_text = n_rows > _CHUNK_ROWS and all(column.dtype == np.float64 for column in columns)
    for lo in range(0, n_rows, _CHUNK_ROWS):
        parts = [column[lo:lo + _CHUNK_ROWS] for column in columns]
        if numpy_text:
            yield _float_text(np.column_stack(parts))
            continue
        # one row format per chunk: a column's cells are read as Python scalars, so np.bool_
        # prints as a bool does, and each column takes the format of its first cell's type
        cells = [part.tolist() for part in parts]
        row = ",".join(_cell_format(type(col_cells[0])) for col_cells in cells)
        yield ((row + "\n") * len(cells[0])) % tuple(chain.from_iterable(zip(*cells)))


class _BodyPrefetch:
    """A table's CSV body, formatted ahead of its writer one chunk per ``step``.

    The chunks are ``_body_chunks``' own, so the bytes are those of a plain write.
    ``steps(columns)`` takes the table's columns and returns an iterator whose every
    ``next`` takes one step and yields true. A step appends the next chunk to an
    unnamed temporary file, made on the first step, so the text waits on disk, not in
    memory. Iteration yields the spooled text back one chunk at a time, then the chunks
    not yet formatted. A file that cannot be made or written stops the prefetch, and
    the chunks left are formatted as they are iterated. The file is closed once read
    back, or when the prefetch is dropped unread.
    """

    def __init__(self):
        self._chunks = iter(())
        self._spool = None
        self._close = None
        self._lengths = []  # the bytes of each spooled chunk
        self._held = []  # a chunk formatted but not spooled
        self._stopped = False

    def steps(self, columns: list) -> Iterator[bool]:
        self._chunks = _body_chunks(columns, len(columns[0]))
        return iter(self.step, False)

    def step(self) -> bool:
        """Format and spool one chunk; false once none is left or the spool failed."""
        text = None if self._stopped else next(self._chunks, None)
        if text is None:
            self._stopped = True
            return False
        data = text.encode()
        try:
            if self._spool is None:
                self._spool = tempfile.TemporaryFile()
                self._close = weakref.finalize(self, self._spool.close)
            self._spool.write(data)
            self._spool.flush()
        except OSError:
            # the chunk is kept here; the bytes of a partial write are never read back
            self._held.append(text)
            self._stopped = True
            return False
        self._lengths.append(len(data))
        return True

    def __iter__(self) -> Iterator[str]:
        self._stopped = True
        if self._spool is not None:
            try:
                self._spool.seek(0)
                for length in self._lengths:
                    yield self._spool.read(length).decode()
            finally:
                self._close()
        yield from self._held
        yield from self._chunks


def _n_rows(table: OutputTable) -> int:
    # the one check of a table's shape, for the CSV and the SVG writer alike
    columns = table.columns
    if len(columns) != len(table.header):
        raise ValueError(f"{len(columns)} columns for {len(table.header)} header entries")
    for j, column in enumerate(columns):
        if not (isinstance(column, np.ndarray) and column.ndim == 1
                and column.dtype.kind in "biufU"):
            raise ValueError(f"column {j} is not a 1-D numpy array of bool, int, float or str")
        if len(column) != len(columns[0]):
            raise ValueError(f"column {j} has {len(column)} rows, column 0 has {len(columns[0])}")
    return len(columns[0]) if columns else 0


def _csv_chunks(table: OutputTable) -> Iterator[str]:
    """Check ``table``, then iterate its CSV text: the metadata block, then one string per chunk.

    A malformed table raises ``ValueError`` here, before any string is produced.
    """
    n_rows = _n_rows(table)
    # a prefetched body is read once; a later write formats the columns afresh
    body, table.prefetch = table.prefetch, None
    return chain((_metadata_block(table),),
                 _body_chunks(table.columns, n_rows) if body is None else body)


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
    # a bool, integer or float column is numeric
    numeric_cols = [j for j, column in enumerate(table.columns)
                    if n_rows and column.dtype.kind in "biuf"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{ml}" y="{mt}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333" stroke-width="1"/>',
    ]
    if len(numeric_cols) >= 2:
        # the column names as XML character data
        names = [name.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
                 for name in table.header]
        xs, *series = (table.columns[j].astype(float).tolist() for j in numeric_cols)
        ys = [y for column in series for y in column]
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
            f'text-anchor="middle">{names[numeric_cols[0]]}</text>'
        )
        for k, (j, column) in enumerate(zip(numeric_cols[1:], series)):
            colour = _PALETTE[k % len(_PALETTE)]
            points = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, column))
            parts.append(
                f'<polyline points="{points}" fill="none" stroke="{colour}" stroke-width="1.5"/>'
            )
            ly = mt + 16 + 18 * k
            parts.append(
                f'<line x1="{ml + plot_w + 10}" y1="{ly}" x2="{ml + plot_w + 34}" '
                f'y2="{ly}" stroke="{colour}" stroke-width="2"/>'
            )
            parts.append(
                f'<text x="{ml + plot_w + 40}" y="{ly + 4}" font-size="11">{names[j]}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
