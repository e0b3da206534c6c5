import io
import math
import os
import pathlib
import warnings

import numpy as np
import pytest

from ordext import (BivariateSeries, CurveTable, FitResult, GevmParams,
                    InputError, StudyConfig, depfn_curves, make_model,
                    pickands_curve, pp_qq_tables, read_table, render_svg,
                    run_study, sample_pairs, write_table)
from ordext.cli import read_series_csv
from ordext.diagnostics import read_csv, write_csv
from ordext.margins import exp_scale_inverse


def stub_fit(times, mu_x, mu_y, sigma_x, sigma_y, xi, s=2.0, c=1.0 / 33.0):
    """FitResult shell for diagnostics driven by known parameters."""
    return FitResult(s=s, sigma_x=sigma_x, sigma_y=sigma_y, xi=xi,
                     g_x=np.asarray(mu_x, dtype=float),
                     g_y=np.asarray(mu_y, dtype=float),
                     c_hat=c, c_hat_pickands=c, times=np.asarray(times),
                     trace=[], loglik=0.0, converged=True)


def test_depfn_curve_values():
    model = make_model("restricted", c=0.25, s=1.0)
    grid = np.array([0.0, 0.25, 0.5, 1.0])
    tables = depfn_curves([("restricted", model)], grid)
    assert len(tables) == 2
    assert np.allclose(tables[0].values, [1.0, 0.75, 5.0 / 6.0, 1.0],
                       atol=1e-14)
    assert tables[1].label == "lower_bound"
    assert np.allclose(tables[1].values, [1.0, 0.75, 0.5, 1.0])


def test_depfn_interval_flat_section():
    model = make_model("interval", c1=0.25, c2=0.75, s=1.0)
    grid = np.linspace(0.0, 1.0, 101)
    table = depfn_curves([("interval", model)], grid)[0]
    inside = (grid >= 0.25) & (grid <= 0.75)
    assert np.all(table.values[inside] == 0.75)


def test_depfn_estimator_entry_and_bounds():
    model = make_model("restricted", c=0.25, s=2.0)
    rng = np.random.default_rng(0)
    xe, ye = sample_pairs(model, 400, rng)
    curve = pickands_curve(xe, ye)
    tables = depfn_curves([("model", model), ("estimate", curve)])
    for t in tables:
        lower = np.maximum(t.x, 1.0 - t.x)
        assert np.all(t.values >= lower - 1e-12)
        assert np.all(t.values <= 1.0 + 1e-12)


def test_curve_table_validates_omega_order():
    with pytest.raises(InputError):
        CurveTable("bad", np.array([0.5, 0.2]), np.array([1.0, 1.0]))
    with pytest.raises(InputError):
        CurveTable("bad", np.array([0.2]), np.array([1.0, 1.0]))


def test_csv_round_trip_identity():
    table = CurveTable("demo", np.linspace(0.0, 1.0, 7),
                       np.sqrt(np.linspace(0.25, 1.0, 7)),
                       meta={"family": "restricted", "c": 0.25, "s": 2})
    buf = io.StringIO()
    write_table(table, buf)
    back = read_table(io.StringIO(buf.getvalue()))
    assert back.label == table.label
    assert np.array_equal(back.x, table.x)
    assert np.array_equal(back.values, table.values)
    assert back.meta["family"] == "restricted"
    # writing the parsed table again reproduces the bytes
    buf2 = io.StringIO()
    back.meta = table.meta
    write_table(back, buf2)
    assert buf2.getvalue() == buf.getvalue()


def make_model_series(n, seed, mu_x0=100.0, mu_y0=150.0, slope=-40.0,
                      sigma_x=4.0, sigma_y=2.0, xi=0.2, s=2.0):
    times = np.linspace(0.0, 1.0, n)
    cfg = StudyConfig(
        n_reps=1, times=times,
        margin_x=GevmParams(mu_x0, sigma_x, xi),
        margin_y=GevmParams(mu_y0, sigma_y, xi),
        model=make_model("restricted", c=1.0 / 33.0, s=s),
        trend_x=None if slope == 0.0 else __import__("ordext").TrendSpec.linear(mu_x0, slope),
        trend_y=None if slope == 0.0 else __import__("ordext").TrendSpec.linear(mu_y0, slope),
        seed=seed)
    series = run_study(cfg)[0][0]
    fit = stub_fit(times, mu_x0 + slope * times, mu_y0 + slope * times,
                   sigma_x, sigma_y, xi, s=s)
    return series, fit


def test_pp_qq_perfect_margins_sit_on_diagonal():
    n = 50
    pos = np.arange(1, n + 1) / (n + 1.0)
    quantiles = -np.log1p(-pos)
    p = GevmParams(0.0, 1.0, 0.0)
    z = exp_scale_inverse(quantiles, p)
    times = np.linspace(0.0, 1.0, n)
    series = BivariateSeries(times, z, z + 50.0)
    fit = stub_fit(times, np.zeros(n), np.full(n, 50.0), 1.0, 1.0, 0.0)
    model = make_model("restricted", c=0.1, s=2.0)
    tables = pp_qq_tables(series, fit, model)
    assert np.max(np.abs(tables.qq_x.values - tables.qq_x.x)) <= 1e-10
    assert np.max(np.abs(tables.pp_x.values - tables.pp_x.x)) <= 1e-10


def test_pp_within_kolmogorov_band_for_model_data():
    n = 200
    band = 1.36 / math.sqrt(n)
    hits = 0
    for rep in range(100):
        series, fit = make_model_series(n, seed=1000 + rep)
        tables = pp_qq_tables(series, fit, make_model("restricted",
                                                      c=1.0 / 33.0, s=2.0))
        dev = float(np.max(np.abs(tables.pp_x.values - tables.pp_x.x)))
        dev_y = float(np.max(np.abs(tables.pp_y.values - tables.pp_y.x)))
        if max(dev, dev_y) <= band:
            hits += 1
    assert hits >= 90


def test_qq_detects_wrong_shape():
    n = 400
    series, _ = make_model_series(n, seed=7)
    good = stub_fit(series.t, 100.0 - 40.0 * series.t, 150.0 - 40.0 * series.t,
                    4.0, 2.0, 0.2)
    bad = stub_fit(series.t, 100.0 - 40.0 * series.t, 150.0 - 40.0 * series.t,
                   4.0, 2.0, 0.5)
    model = make_model("restricted", c=1.0 / 33.0, s=2.0)
    t_good = pp_qq_tables(series, good, model)
    t_bad = pp_qq_tables(series, bad, model)

    def upper_tail_gap(t):
        k = int(0.9 * n)
        return float(np.max(np.abs(t.values[k:] - t.x[k:])))

    assert upper_tail_gap(t_bad.qq_x) > 3.0 * upper_tail_gap(t_good.qq_x)


def test_structure_table_tracks_dependence():
    n = 500
    series, fit = make_model_series(n, seed=77)
    model = make_model("restricted", c=1.0 / 33.0, s=2.0)
    tables = pp_qq_tables(series, fit, model)
    # pooled minimum quantiles should hug the diagonal for model data
    rel = np.abs(tables.structure.values - tables.structure.x)
    assert float(np.median(rel)) <= 0.1


@pytest.mark.parametrize("row", ["1.0,2.0,3.0", "1.0", "abc,2.0", "1.0,"])
def test_read_table_rejects_a_malformed_row(row):
    # a ragged or non-numeric row once raised a bare ValueError; a NaN,
    # which write_table writes, still reads back
    buf = io.StringIO()
    write_table(CurveTable("t", np.array([0.0, 0.5]),
                           np.array([math.nan, 2.0])), buf)
    back = read_table(io.StringIO(buf.getvalue()))
    assert np.isnan(back.values[0]) and back.values[1] == 2.0
    with pytest.raises(InputError, match="data row 3"):
        read_table(io.StringIO(buf.getvalue() + row + "\n"))


def test_pp_qq_rejects_mismatched_fit():
    series, fit = make_model_series(30, seed=3)
    short = stub_fit(series.t[:10], np.zeros(10), np.full(10, 50.0), 1.0, 1.0, 0.0)
    with pytest.raises(InputError):
        pp_qq_tables(series, short, make_model("restricted", c=0.1, s=2.0))


def test_render_svg():
    grid = np.linspace(0.0, 1.0, 11)
    tables = depfn_curves([("m", make_model("restricted", c=0.25, s=2.0))],
                          grid)
    text = render_svg(tables)
    assert text.count("<polyline") == len(tables)
    assert 'viewBox="0 0 800 600"' in text
    with pytest.raises(InputError):
        render_svg([])


def test_render_svg_escapes_labels():
    # an unescaped "<" or "&" once left the SVG not well-formed
    from xml.dom import minidom
    grid = np.linspace(0.0, 1.0, 5)
    labels = ["a<b & c", "x > y"]
    doc = minidom.parseString(render_svg(
        [CurveTable(label, grid, grid) for label in labels]))
    assert [node.firstChild.data for node in
            doc.getElementsByTagName("text")] == labels


def test_writers_match_the_per_value_formulas():
    # the writers format whole blocks of rows; the bytes must be those of
    # the per-value formulas on numpy scalars they replace, across blocks
    awkward = [-0.0, 5e-324, 1e308, 0.1, 3, -7, 1.0 / 3.0, 2.5e-16, 0.0]
    rng = np.random.default_rng(8)
    values = np.concatenate([awkward, rng.standard_normal(2500) * 1e3])
    tables = [CurveTable("odd", np.arange(values.size), values,
                         xname="index"),
              CurveTable("few", np.array(awkward[:3]), np.array([1, 2, 3]),
                         xname="x"),
              CurveTable("empty", np.array([]), np.array([]), xname="x")]
    for table in tables:
        buf = io.StringIO()
        write_table(table, buf)
        rows = "".join(f"{repr(float(a))},{repr(float(b))}\n"
                       for a, b in zip(table.x, table.values))
        assert buf.getvalue().endswith(f"{table.xname},value\n" + rows)

    pad, width, height = 50.0, 800, 600
    text = render_svg(tables[:2])
    x_all = np.concatenate([t.x for t in tables[:2]])
    y_all = np.concatenate([t.values for t in tables[:2]])
    x0, y0 = float(np.min(x_all)), float(np.min(y_all))
    xr = float(np.max(x_all)) - x0 or 1.0
    yr = float(np.max(y_all)) - y0 or 1.0
    for t in tables[:2]:
        pts = " ".join(
            f"{pad + (a - x0) / xr * (width - 2 * pad):.2f},"
            f"{height - pad - (b - y0) / yr * (height - 2 * pad):.2f}"
            for a, b in zip(t.x, t.values))
        assert f'points="{pts}"' in text


def test_svg_leaves_nan_vertices_out_of_every_curve():
    # a NaN in one table once made every vertex of every curve "nan"
    clean = CurveTable("clean", np.arange(5.0), np.array([1, 3, 2, 5, 4.0]),
                       xname="x")
    dirty = CurveTable("dirty", np.arange(3.0), np.array([2, math.nan, 6.0]),
                       xname="x")
    kept = CurveTable("dirty", np.array([0, 2.0]), np.array([2, 6.0]),
                      xname="x")
    text = render_svg([clean, dirty])
    assert "nan" not in text
    assert text == render_svg([clean, kept])


def test_svg_leaves_infinite_vertices_out_without_a_warning():
    # an inf once warned (an error under this suite's filter) and put
    # every finite vertex of every curve on the bottom edge
    clean = CurveTable("clean", np.arange(5.0), np.array([1, 3, 2, 5, 4.0]),
                       xname="x")
    for odd in (math.inf, -math.inf):
        dirty = CurveTable("dirty", np.array([0, 1, math.inf, 3.0]),
                           np.array([2, odd, 1, 6.0]), xname="x")
        kept = CurveTable("dirty", np.array([0, 3.0]), np.array([2, 6.0]),
                          xname="x")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            text = render_svg([clean, dirty])
        assert "inf" not in text
        assert text == render_svg([clean, kept])


def test_svg_spans_the_whole_float_range():
    # x1 - x0 once overflowed: a warning, and every vertex on the left edge
    wide = CurveTable("wide", np.array([-1e308, 0.0, 1e308]),
                      np.array([0.0, 1.0, 2.0]), xname="x")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        text = render_svg([wide])
    assert 'points="50.00,550.00 400.00,300.00 750.00,50.00"' in text


def test_shared_columns_write_the_per_value_formulas():
    # the P-P tables share one x column and the Q-Q tables another, which
    # the first write formats; every write gives the per-value bytes, in
    # any order, across blocks and again
    series, fit = make_model_series(2500, seed=4)
    tables = pp_qq_tables(series, fit, make_model("restricted",
                                                  c=1.0 / 33.0, s=2.0))
    assert tables.pp_x.x is tables.pp_y.x and tables.qq_x.x is tables.qq_y.x
    for table in tables.all_tables()[::-1] + tables.all_tables():
        buf = io.StringIO()
        write_table(table, buf)
        rows = "".join(f"{repr(float(a))},{repr(float(b))}\n"
                       for a, b in zip(table.x, table.values))
        assert buf.getvalue().endswith(f"{table.yname}\n" + rows)
    # a table given another x column no longer reads the shared text
    tables.pp_y.x = tables.pp_y.x[::-1].copy()
    buf = io.StringIO()
    write_table(tables.pp_y, buf)
    assert buf.getvalue().split("\n")[-2].startswith(
        repr(float(tables.pp_y.x[-1])) + ",")


@pytest.mark.parametrize("as_path", [str, os.fsencode, pathlib.Path],
                         ids=["str", "bytes", "pathlib"])
def test_files_take_any_path_type(tmp_path, as_path):
    # a pathlib.Path once raised AttributeError in write_table and
    # TypeError in read_table
    table = CurveTable("demo", np.linspace(0.0, 1.0, 5), np.arange(5.0),
                       meta={"kind": "model"})
    path = as_path(tmp_path / "demo.csv")
    write_table(table, path)
    back = read_table(path)
    assert (back.label, back.meta) == ("demo", {"kind": "model"})
    assert np.array_equal(back.values, table.values)
    write_csv(path, ["t"], [np.array([0.5])], {"scale": "original"})
    assert read_csv(path)[:2] == ({"scale": "original"}, ["t"])


@pytest.mark.parametrize("body, read", [
    ("t,x,y,x\n0.0,1.0,2.0,3.0\n", read_series_csv),
    ("t,X,y,x\n0.0,1.0,2.0,3.0\n", read_series_csv),
    ("omega,omega\n0.0,1.0\n", read_table),
], ids=["series_repeat", "series_repeat_in_other_case", "table_repeat"])
def test_repeated_column_name_is_refused(tmp_path, body, read):
    # the series reader once kept the last of two x columns silently
    path = tmp_path / "repeat.csv"
    path.write_text(body)
    with pytest.raises(InputError, match="repeat.csv: repeated column name"):
        read(str(path))


@pytest.mark.parametrize("make", [
    lambda: read_table(io.StringIO("# label: t\nomega,value\n")),
    lambda: CurveTable("t", [], []),
], ids=["header_only_file", "empty_columns"])
def test_empty_omega_column_is_refused(make):
    # once a bare ValueError: a zero-size array has no minimum
    with pytest.raises(InputError, match="omega column must be nonempty"):
        make()


@pytest.mark.parametrize("label, meta", [
    ("two\nlines", {}),
    ("t", {"note": "two\nlines"}),
    ("t", {"note": "carriage\rreturn"}),
    ("t", {"a:b": "c"}),
    ("t", {"note": "padded "}),
], ids=["label_line_break", "value_line_break", "value_carriage_return",
        "key_colon", "value_padded"])
def test_writer_refuses_metadata_that_would_not_read_back(label, meta):
    # each of these once wrote a file that read back as another table
    buf = io.StringIO()
    with pytest.raises(InputError, match="would not read back"):
        write_table(CurveTable(label, [0.0, 1.0], [1.0, 1.0], meta=meta),
                    buf)
    assert buf.getvalue() == ""
