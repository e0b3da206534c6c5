"""Plot-ready tables: dependence curves, fit traces, and P-P/Q-Q data.

Every ordext file is CSV in one dialect, written by write_csv and read
by read_csv: '#'-prefixed metadata, a header, rows of float reprs that
read back exactly, '.' decimal points and LF line endings.  A minimal
SVG polyline renderer is included for quick visual checks without a
plotting dependency; it draws a long curve at the SVG's resolution, at
most four vertices per unit column of the viewBox, and leaves non-finite
values out; the CSV keeps every value.
"""

from __future__ import annotations

import io
import os
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from .dependence import DependenceModel
from .errors import InputError
from .estimation import FitResult, PickandsCurve
from .margins import GevmParams, exp_scale
from .series import BivariateSeries


@dataclass
class CurveTable:
    """One labelled curve: x column, value column, provenance metadata."""

    label: str
    x: np.ndarray
    values: np.ndarray
    xname: str = "omega"
    yname: str = "value"
    meta: dict = field(default_factory=dict)
    # the x column's text, held by the tables that share the column
    _x_text: _ColumnText | None = field(default=None, init=False,
                                        repr=False, compare=False)

    def __post_init__(self):
        x = self.x = np.asarray(self.x, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if len(x) != len(self.values):
            raise InputError("x and value columns must have equal length")
        if self.xname == "omega" and not (
                x.size and (x[1:] >= x[:-1]).all() and 0 <= x[0] <= x[-1] <= 1):
            raise InputError("omega column must be nonempty, sorted in [0, 1]")


def depfn_curves(entries, grid=None):
    """Dependence-function tables for models and estimated curves.

    entries is a list of (label, obj) with obj either a DependenceModel
    (evaluated exactly on the grid) or a PickandsCurve (passed through on
    its own grid).  The convex lower envelope max(w, 1-w) is always
    appended as a reference curve.
    """
    if grid is None:
        grid = np.linspace(0.0, 1.0, 201)
    grid = np.asarray(grid, dtype=float)
    tables = []
    for label, obj in entries:
        if isinstance(obj, PickandsCurve):
            tables.append(CurveTable(label, obj.omegas, obj.values,
                                     meta={"kind": "estimate",
                                           "variant": obj.variant}))
        elif isinstance(obj, DependenceModel):
            meta = {"kind": "model", "family": type(obj).__name__}
            if obj.params is not None:
                meta.update({k: v for k, v in vars(obj.params).items()})
            tables.append(CurveTable(label, grid, obj.a(grid), meta=meta))
        else:
            raise InputError(f"cannot tabulate {type(obj).__name__}")
    tables.append(CurveTable("lower_bound", grid,
                             np.maximum(grid, 1.0 - grid),
                             meta={"kind": "reference"}))
    return tables


@dataclass
class DiagnosticTables:
    """P-P and Q-Q tables per margin plus the dependence-structure check."""

    pp_x: CurveTable
    pp_y: CurveTable
    qq_x: CurveTable
    qq_y: CurveTable
    structure: CurveTable

    def all_tables(self):
        return [self.pp_x, self.pp_y, self.qq_x, self.qq_y, self.structure]


def pp_qq_tables(series: BivariateSeries, fit: FitResult,
                 model: DependenceModel) -> DiagnosticTables:
    """Goodness-of-fit tables for a fitted series.

    The data are first mapped to the exponential scale with the fitted
    margins.  P-P compares the sorted model probabilities with uniform
    plotting positions i/(n+1); Q-Q compares the sorted exponential-scale
    values with unit-exponential quantiles.  The structure table checks
    the dependence itself: the pooled minimum min(2 X_e, 2 Y_e) is
    Exp(A(1/2)) under the model, so its sorted values are plotted against
    that law's quantiles.
    """
    n = len(series)
    if len(fit.g_x) != n or len(fit.g_y) != n:
        raise InputError("fit trends do not match the series length")
    # the fitted trend shifts the data; the margins are then fixed-location
    xe = exp_scale(series.x - fit.g_x, GevmParams(0.0, fit.sigma_x, fit.xi))
    ye = exp_scale(series.y - fit.g_y, GevmParams(0.0, fit.sigma_y, fit.xi))

    pos = np.arange(1, n + 1) / (n + 1.0)
    exp_q = -np.log1p(-pos)
    # both P-P tables plot against pos and both Q-Q tables against exp_q:
    # each column is formatted once, by whichever table is written first
    pos_text, exp_q_text = _ColumnText(pos), _ColumnText(exp_q)

    def pp(e, label):
        table = CurveTable(label, pos, np.sort(1.0 - np.exp(-e)),
                           xname="plotting_position",
                           yname="model_probability", meta={"kind": "pp"})
        table._x_text = pos_text
        return table

    def qq(e, label):
        table = CurveTable(label, exp_q, np.sort(e),
                           xname="model_quantile", yname="empirical_quantile",
                           meta={"kind": "qq", "law": "exponential(1)"})
        table._x_text = exp_q_text
        return table

    a_half = float(model.a(0.5))
    pooled = np.minimum(xe / 0.5, ye / 0.5)
    structure = CurveTable(
        "structure_pooled_min", exp_q / a_half, np.sort(pooled),
        xname="model_quantile", yname="empirical_quantile",
        meta={"kind": "qq", "law": f"exponential({a_half:.12g})",
              "statistic": "min(x_e/(1-w0), y_e/w0) at w0 = 1/2"})

    return DiagnosticTables(
        pp_x=pp(xe, "pp_x"), pp_y=pp(ye, "pp_y"),
        qq_x=qq(xe, "qq_x"), qq_y=qq(ye, "qq_y"),
        structure=structure)


# ---------------------------------------------------------------------------
# CSV and SVG emission
# ---------------------------------------------------------------------------

_ROWS = 1024


def _row_blocks(x, y):
    """Two columns as pairs of Python floats, _ROWS rows at a time: a block
    formats fast, and a whole column's row strings at once would raise the
    process's peak memory."""
    for k in range(0, len(x), _ROWS):
        yield zip(x[k:k + _ROWS].tolist(), y[k:k + _ROWS].tolist())


class _ColumnText:
    """The repr of each value of a column that several tables share, kept
    as one string per block of _ROWS rows: the first write formats a
    block, a later one splits it.  One string per value would hold many
    more objects."""

    def __init__(self, x):
        self.x = x
        self.blocks = {}

    def rows(self, k):
        """The reprs of the block that starts at row k."""
        if k in self.blocks:
            return self.blocks[k].split("\n")
        reprs = _cells(self.x, k)
        self.blocks[k] = "\n".join(reprs)
        return reprs


def _cells(column, k):
    """A column's text in rows k to k + _ROWS (a float's repr round-trips)."""
    if isinstance(column, _ColumnText):
        return column.rows(k)
    if isinstance(column, list):
        return column[k:k + _ROWS]
    return [f"{v!r}" for v in column[k:k + _ROWS].tolist()]


def _opened(path_or_buf, mode):
    """A path (str, bytes or os.PathLike) opened, or a buffer left open."""
    if isinstance(path_or_buf, (str, bytes, os.PathLike)):
        # a byte that is not UTF-8 reads as a lone surrogate, which no
        # number or column name matches, and is written back as it was
        return open(path_or_buf, mode, newline="\n" if mode == "w" else None,
                    errors="surrogateescape")
    return nullcontext(path_or_buf)


def write_csv(path_or_buf, header, columns, meta=None):
    """Write a '# key: value' line per meta item, the header, then rows of
    columns: float arrays (each value's repr), _ColumnTexts or lists of
    words (no comma, space or leading '#').  Metadata or names that would
    not read back as given raise InputError before a byte is written."""
    meta = {key: f"{value}" for key, value in (meta or {}).items()}
    header = list(header)
    head = "".join(f"# {key}: {value}\n" for key, value in meta.items()) \
        + ",".join(header) + "\n"
    try:
        same = read_csv(io.StringIO(head, newline=None))[:2] == (meta, header)
    except InputError:
        same = False
    columns = [c if isinstance(c, (_ColumnText, list))
               else np.asarray(c, dtype=float) for c in columns]
    sizes = {len(getattr(c, "x", c)) for c in columns}
    if not (same and len(sizes) == 1 and len(columns) == len(header)):
        raise InputError(f"header {header}, metadata {meta} or columns "
                         f"of lengths {sorted(sizes)} would not read back")
    with _opened(path_or_buf, "w") as buf:
        buf.write(head)
        for k in range(0, sizes.pop(), _ROWS):
            rows = zip(*(_cells(c, k) for c in columns))
            buf.write("\n".join(map(",".join, rows)) + "\n")


def read_csv(path_or_buf, text=()):
    """(meta, header, columns) of write_csv's dialect, a column a float
    array or, if named in text, a list of strings.  No header, a repeated
    name (in any case), a ragged row or a non-numeric cell (bytes that are
    not UTF-8 included) raises InputError naming the file and data row."""
    meta, header, values, k = {}, None, [], 0
    with _opened(path_or_buf, "r") as buf:
        name = getattr(buf, "name", None)
        where = f"{name}: " if isinstance(name, str) else ""
        for line in buf:
            if line.startswith("#"):
                key, _, value = line[1:].partition(":")
                meta[key.strip()] = value.strip()
            elif not line.strip():
                continue
            elif header is None:
                header = [h.strip() for h in line.split(",")]
                if len({h.lower() for h in header}) < len(header):
                    raise InputError(f"{where}repeated column name in "
                                     f"{header}")
                parse = [str.strip if h in text else float for h in header]
            else:
                cells, k = line.split(","), k + 1
                if len(cells) != len(header):
                    raise InputError(f"{where}data row {k} has {len(cells)} "
                                     f"cells, the header has {len(header)}")
                # one flat list, row after row: a list per row would hold
                # about twice the memory
                try:
                    values.extend([f(v) for f, v in zip(parse, cells)]
                                  if text else map(float, cells))
                except ValueError:
                    raise InputError(f"{where}data row {k} has a "
                                     "non-numeric cell") from None
    if header is None:
        raise InputError(f"{where}no column header")
    n = len(header)
    return meta, header, [values[j::n] if h in text
                          else np.array(values[j::n], dtype=float)
                          for j, h in enumerate(header)]


def write_table(table: CurveTable, path_or_buf):
    """Write one table by write_csv, its label the first metadata item."""
    shared = table._x_text
    x = shared if shared is not None and shared.x is table.x else table.x
    write_csv(path_or_buf, (table.xname, table.yname), (x, table.values),
              {"label": table.label,
               **{key: table.meta[key] for key in sorted(table.meta)}})


def read_table(path_or_buf) -> CurveTable:
    """Parse write_table's CSV into a CurveTable; InputError on a bad row."""
    meta, header, columns = read_csv(path_or_buf)
    if len(header) != 2:
        raise InputError(f"expected two columns, got {header}")
    return CurveTable(meta.pop("label", ""), *columns, xname=header[0],
                      yname=header[1], meta=meta)


def write_tables(tables, out_dir):
    """Write each table as <label>.csv in out_dir, made if missing."""
    os.makedirs(out_dir, exist_ok=True)
    for table in tables:
        write_table(table, os.path.join(out_dir, f"{table.label}.csv"))


SVG_WIDTH, SVG_HEIGHT = 800, 600
_SVG_COLORS = ["#000000", "#d62728", "#1f77b4", "#2ca02c", "#9467bd",
               "#8c564b", "#e377c2", "#7f7f7f"]
# a label is XML character data: its markup characters are escaped
_XML_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})


def _column_vertices(px, py, budget):
    """Indices of the vertices a polyline keeps, in order.  A run of
    consecutive vertices in one unit-wide column of the viewBox keeps
    them all if it has at most four, else its first, last, lowest and
    highest: the line drawn across the column is the same (M4; Jugel et
    al., PVLDB 7(10), 2014).  A curve of at most ``budget`` vertices
    keeps all."""
    if px.size <= budget:
        return np.arange(px.size)
    col = np.floor(px)
    first = np.concatenate(([True], col[1:] != col[:-1]))
    start = np.flatnonzero(first)
    size = np.diff(np.append(start, px.size))
    run = np.cumsum(first) - 1
    keep = size[run] <= 4
    # sorted by run and then by height, each run still spans its own
    # positions, so its lowest and highest vertices sit at its two ends
    by_height = np.lexsort((py, run))
    for ends in (start, start + size - 1):
        keep[ends] = True
        keep[by_height[ends]] = True
    return np.flatnonzero(keep)


def _half_range(v):
    """Halves of v's least and greatest finite values ((0, 0) if none),
    exact for normal floats, whose difference cannot overflow."""
    v = v[np.isfinite(v)]
    return (float(np.min(v)) / 2.0, float(np.max(v)) / 2.0) if v.size \
        else (0.0, 0.0)


def render_svg(tables, path=None):
    """Render curve tables as one SVG with a polyline per curve.  The
    axes span the finite values, and a vertex with a non-finite value is
    left out.  A curve of more vertices than four per unit column of the
    plot keeps at most four of each run in one column
    (_column_vertices), formatted as the full curve's; any other curve
    is written whole."""
    tables = list(tables)
    if not tables:
        raise InputError("nothing to render")
    pad = 50.0
    x0, x1 = _half_range(np.concatenate([t.x for t in tables]))
    y0, y1 = _half_range(np.concatenate([t.values for t in tables]))
    xr = x1 - x0 or 1.0
    yr = y1 - y0 or 1.0

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="0 0 {SVG_WIDTH} {SVG_HEIGHT}">',
        f'<rect width="{SVG_WIDTH}" height="{SVG_HEIGHT}" fill="white"/>',
    ]
    for i, t in enumerate(tables):
        # from finite ends, a non-finite value maps to a non-finite
        # coordinate without a floating-point warning
        px = pad + (t.x / 2.0 - x0) / xr * (SVG_WIDTH - 2 * pad)
        py = SVG_HEIGHT - pad - (t.values / 2.0 - y0) / yr \
            * (SVG_HEIGHT - 2 * pad)
        shown = np.isfinite(px) & np.isfinite(py)
        px, py = px[shown], py[shown]
        kept = _column_vertices(px, py, 4 * (SVG_WIDTH - 2 * pad))
        pts = " ".join(" ".join(f"{a:.2f},{b:.2f}" for a, b in rows)
                       for rows in _row_blocks(px[kept], py[kept]))
        color = _SVG_COLORS[i % len(_SVG_COLORS)]
        parts.append(f'<polyline fill="none" stroke="{color}" '
                     f'stroke-width="1.5" points="{pts}"/>')
        label = t.label.translate(_XML_ESCAPES)
        parts.append(f'<text x="{pad + 8:.0f}" y="{pad + 16 * (i + 1):.0f}" '
                     f'fill="{color}" font-size="12">{label}</text>')
    parts.append("</svg>")
    text = "\n".join(parts) + "\n"
    if path is not None:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)
    return text
