"""Plot-ready tables: dependence curves, fit traces, and P-P/Q-Q data.

Everything is emitted as plain CSV with a '#'-prefixed metadata header
(LF line endings, '.' decimal point) so the tables can be re-read by the
CLI and rendered by any plotting tool.  A minimal SVG polyline renderer
is included for quick visual checks without a plotting dependency.
"""

from __future__ import annotations

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

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if len(self.x) != len(self.values):
            raise InputError("x and value columns must have equal length")
        if self.xname == "omega":
            if np.any(np.diff(self.x) < 0) or self.x.min() < 0 or self.x.max() > 1:
                raise InputError("omega column must be sorted within [0, 1]")


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

    def pp(e, label):
        return CurveTable(label, pos, np.sort(1.0 - np.exp(-e)),
                          xname="plotting_position", yname="model_probability",
                          meta={"kind": "pp"})

    def qq(e, label):
        return CurveTable(label, exp_q, np.sort(e),
                          xname="model_quantile", yname="empirical_quantile",
                          meta={"kind": "qq", "law": "exponential(1)"})

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


def write_table(table: CurveTable, path_or_buf):
    """Write one table as CSV with a '#'-metadata header (round-trippable)."""
    own = isinstance(path_or_buf, (str, bytes))
    buf = open(path_or_buf, "w", newline="\n") if own else path_or_buf
    try:
        buf.write(f"# label: {table.label}\n")
        for key in sorted(table.meta):
            buf.write(f"# {key}: {table.meta[key]}\n")
        buf.write(f"{table.xname},{table.yname}\n")
        # repr of a float is its shortest round-tripping form
        for rows in _row_blocks(table.x, table.values):
            buf.write("".join(f"{xv!r},{yv!r}\n" for xv, yv in rows))
    finally:
        if own:
            buf.close()


def read_table(path_or_buf) -> CurveTable:
    """Parse a CSV emitted by write_table back into a CurveTable."""
    own = isinstance(path_or_buf, (str, bytes))
    buf = open(path_or_buf, "r") if own else path_or_buf
    try:
        meta = {}
        label = ""
        header = None
        xs, ys = [], []
        for line in buf:
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                key, _, value = line[1:].partition(":")
                key = key.strip()
                value = value.strip()
                if key == "label":
                    label = value
                else:
                    meta[key] = value
            elif header is None:
                header = line.split(",")
                if len(header) != 2:
                    raise InputError(f"expected two columns, got {header}")
            else:
                a, b = line.split(",")
                xs.append(float(a))
                ys.append(float(b))
        if header is None:
            raise InputError("no column header found")
        return CurveTable(label, np.array(xs), np.array(ys),
                          xname=header[0], yname=header[1], meta=meta)
    finally:
        if own:
            buf.close()


SVG_WIDTH, SVG_HEIGHT = 800, 600
_SVG_COLORS = ["#000000", "#d62728", "#1f77b4", "#2ca02c", "#9467bd",
               "#8c564b", "#e377c2", "#7f7f7f"]


def render_svg(tables, path=None):
    """Render curve tables as one SVG with a polyline per curve."""
    tables = list(tables)
    if not tables:
        raise InputError("nothing to render")
    pad = 50.0
    x_all = np.concatenate([t.x for t in tables])
    y_all = np.concatenate([t.values for t in tables])
    x0, x1 = float(np.min(x_all)), float(np.max(x_all))
    y0, y1 = float(np.min(y_all)), float(np.max(y_all))
    xr = x1 - x0 or 1.0
    yr = y1 - y0 or 1.0

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="0 0 {SVG_WIDTH} {SVG_HEIGHT}">',
        f'<rect width="{SVG_WIDTH}" height="{SVG_HEIGHT}" fill="white"/>',
    ]
    for i, t in enumerate(tables):
        px = pad + (t.x - x0) / xr * (SVG_WIDTH - 2 * pad)
        py = SVG_HEIGHT - pad - (t.values - y0) / yr * (SVG_HEIGHT - 2 * pad)
        pts = " ".join(" ".join(f"{a:.2f},{b:.2f}" for a, b in rows)
                       for rows in _row_blocks(px, py))
        color = _SVG_COLORS[i % len(_SVG_COLORS)]
        parts.append(f'<polyline fill="none" stroke="{color}" '
                     f'stroke-width="1.5" points="{pts}"/>')
        parts.append(f'<text x="{pad + 8:.0f}" y="{pad + 16 * (i + 1):.0f}" '
                     f'fill="{color}" font-size="12">{t.label}</text>')
    parts.append("</svg>")
    text = "\n".join(parts) + "\n"
    if path is not None:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)
    return text
