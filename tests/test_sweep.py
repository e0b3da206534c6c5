"""Every bad input ends in an OrdextError: the public functions that the
CLI sweep (tests/test_cli_sweep.py) and the family sweep
(tests/test_properties.py) do not reach, and one test for each refusal
that no other test reaches.

Each call returns finite output or raises an OrdextError; pyproject's
filter turns a numpy warning raised inside the package into an error, so
a warning fails the test too.  Sizes are small and the property tests run
a fixed number of derandomized examples (tests/conftest.py).
"""

import io
import itertools
import math
import warnings

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st  # noqa: E402

from ordext import (BivariateSeries, DomainError, FitConfig,  # noqa: E402
                    GevmParams, InputError, NadarajahGeneralParams,
                    NumericError, OrdextError, ParameterError,
                    PickandsCurve, PointMassModel, StudyConfig, TrendSpec,
                    c_from_margins, depfn_curves, estimate_c_hat,
                    fit_restricted, make_model, pickands_curve, pickands_raw,
                    read_table, run_study, trend_penalized)
from ordext.cli import parse_and_validate, read_csv_columns  # noqa: E402
from ordext.diagnostics import read_csv  # noqa: E402
from ordext.margins import exp_scale_log_jacobian  # noqa: E402

MX, MY = GevmParams(100.0, 4.0, 0.2), GevmParams(150.0, 2.0, 0.2)
MODEL = make_model("restricted", c=1.0 / 33.0, s=2.0)


def reference_series(n=40, seed=3):
    cfg = StudyConfig(n_reps=1, times=np.linspace(0.0, 1.0, n), margin_x=MX,
                      margin_y=MY, model=MODEL,
                      trend_x=TrendSpec.linear(100.0, -40.0),
                      trend_y=TrendSpec.linear(150.0, -40.0), seed=seed)
    return run_study(cfg)[0][0]


def scaled(factor):
    # the series times factor, its margins swapped when factor < 0 so that
    # x < y still holds
    def build(s):
        x, y = (s.x, s.y) if factor > 0 else (s.y, s.x)
        return BivariateSeries(s.t, factor * x, factor * y)
    return build


# each case builds a series from the reference one
FIT_CASES = {
    "n_3": lambda s: BivariateSeries(s.t[:3], s.x[:3], s.y[:3]),
    "constant": lambda s: BivariateSeries(s.t, np.ones(len(s)),
                                          np.full(len(s), 2.0)),
    "equal_times": lambda s: BivariateSeries(np.zeros(len(s)), s.x, s.y),
    "max_outer_1": lambda s: s,
    "times_1e-302": scaled(1e-302),
    "times_1e-320": scaled(1e-320),
    "times_1e298": scaled(1e298),      # roughness overflowed once
    "up_to_1.7e308": lambda s: scaled(1.7e308 / float(np.max(s.y)))(s),
    "times_-1e300": scaled(-1e300),    # roughness overflowed once
}


@pytest.mark.filterwarnings("ignore:fit stopped at the iteration cap")
@pytest.mark.parametrize("case", FIT_CASES)
def test_fit_is_finite_or_refused(case):
    series = FIT_CASES[case](reference_series())
    config = FitConfig(max_outer=1 if case == "max_outer_1" else 60)
    try:
        fit = fit_restricted(series, 10.0, 10.0, config)
    except OrdextError:
        return
    scalars = [fit.s, fit.sigma_x, fit.sigma_y, fit.xi, fit.c_hat,
               fit.c_hat_pickands, fit.loglik]
    assert np.isfinite(scalars).all() and np.isfinite(fit.g_x).all() \
        and np.isfinite(fit.g_y).all(), case


# values with ties, at and next to both ends of the float range
VALUES = st.one_of(st.sampled_from([0.0, 5e-324, 1e-310, 1e-300, 1.0, 3.0,
                                    1e300, 1e306, 1.7e308]),
                   st.floats(0.0, 1.7e308))
SAMPLES = st.integers(1, 12).flatmap(lambda n: st.tuples(
    st.lists(VALUES, min_size=n, max_size=n),
    st.lists(VALUES, min_size=n, max_size=n)))
OMEGAS = st.one_of(st.none(), st.lists(st.one_of(
    st.sampled_from([0.0, 5e-324, 0.5, 1.0 - 2.0 ** -53, 1.0]),
    st.floats(0.0, 1.0)), max_size=5))


@settings(max_examples=300)
@given(SAMPLES, OMEGAS, st.sampled_from(["raw", "modified"]))
@example(([1e308, 1.5e308], [1.7e308, 1e308]), None, "modified")
@example(([1e306] * 300, [2e306] * 300), None, "raw")
@example(([1e-310, 2e-310], [3e-310, 1e-310]), None, "raw")
@example(([5e-324, 0.0, 0.0, 0.0], [1.0] * 4), [0.0, 0.5], "raw")
# the mean rescaling rounds the pair (0, 5e-324) to (0, 0)
@example(([0.0, 5e-324], [5e-324, 4.0]), None, "modified")
def test_pickands_curve_and_c_hat_are_finite_or_refused(sample, omegas,
                                                        variant):
    xe, ye = (np.array(v) for v in sample)
    try:
        curve = pickands_curve(xe, ye, omegas, variant)
    except OrdextError:
        pass
    else:
        assert np.isfinite(curve.values).all()
        if variant == "modified":
            assert np.all(curve.values >= np.maximum(curve.omegas,
                                                     1.0 - curve.omegas))
    try:
        c_hat = estimate_c_hat(xe, ye)
    except OrdextError:
        return
    assert 0.0 <= c_hat <= 1.0


@pytest.mark.parametrize("omegas", [[np.nan], [-1e-300], [1.0 + 2.0 ** -52]],
                         ids=["nan", "below_0", "above_1"])
def test_pickands_curve_refuses_fractions_off_the_unit_interval(omegas):
    with pytest.raises(DomainError):
        pickands_curve(np.array([1.0, 2.0]), np.array([2.0, 1.0]), omegas)


def test_pickands_curve_on_no_fractions_is_empty():
    curve = pickands_curve(np.array([1.0, 2.0]), np.array([2.0, 1.0]), [])
    assert curve.omegas.size == curve.values.size == 0


HALF = "boundary constant at or above 1/2"


def test_c_from_margins_is_finite_or_refused():
    # shapes in and next to the Gumbel band, windows at the float limits
    shapes = (0.0, 1e-9, -1e-9, 1e-8, 2e-8, 0.2, -0.2)
    windows = ((-math.inf, math.inf), (-1e308, 1e308), (-1e308, -1e307))
    designs = ((100.0, 4.0, 150.0, 2.0), (0.0, 1.0, 0.0, 1.0),
               (0.0, 2.0, 1.0, 1.0))
    for xi_x, xi_y, window, (mu_x, sig_x, mu_y, sig_y) in itertools.product(
            shapes, shapes, windows, designs):
        case = (xi_x, xi_y, window, mu_x, sig_x, mu_y, sig_y)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                c = c_from_margins(GevmParams(mu_x, sig_x, xi_x),
                                   GevmParams(mu_y, sig_y, xi_y), *window)
            except OrdextError:
                assert not caught, case
                continue
        assert 0.0 <= c <= 1.0, case
        # c >= 1/2 comes with its documented warning, and nothing else
        assert [str(w.message)[:len(HALF)] for w in caught] \
            == ([HALF] if c >= 0.5 else []), case


# the CSV dialect's edge cases: each file reads, or is refused
DIALECT = {
    "bom": "﻿x,y\n1,2\n".encode(),
    "crlf": b"x,y\r\n1,2\r\n3,4\r\n",
    "trailing_comma_header": b"x,y,\n1,2,\n",
    "trailing_comma_row": b"x,y\n1,2,\n",
    "repeated_name": b"x,y,x\n1,2,3\n",
    "repeated_name_other_case": b"x,X\n1,2\n",
    "blank_lines": b"\n\nx,y\n\n1,2\n \n3,4\n\n",
    "spaces": b" x , y \n 1 , 2 \n",
}


@pytest.mark.parametrize("case", DIALECT)
def test_read_csv_edge_cases_read_or_are_refused(tmp_path, case):
    path = tmp_path / "data.csv"
    path.write_bytes(DIALECT[case])
    try:
        _meta, header, columns = read_csv(path)
    except InputError:
        assert case.startswith(("trailing", "repeated")), case
        return
    assert len(header) == len(columns) == 2
    if case in ("crlf", "blank_lines"):
        assert header == ["x", "y"]
        assert [list(c) for c in columns] == [[1.0, 3.0], [2.0, 4.0]]


@pytest.mark.parametrize("cell, value", [("nan", math.nan), ("inf", math.inf),
                                         ("1e999", math.inf)])
def test_non_finite_cells_read_as_floats_and_are_refused_as_data(
        tmp_path, cell, value):
    path = tmp_path / "data.csv"
    path.write_text(f"x,y\n1,2\n{cell},3\n")
    _meta, _header, (x, _y) = read_csv(path)
    assert np.array_equal(x, [1.0, value], equal_nan=True)
    with pytest.raises(InputError, match="data row 2 has a non-finite"):
        read_csv_columns(path, ("x", "y"))


def _config_file(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


# refusals that no other test reaches: the error each raises, words of its
# message, and the call
REFUSALS = {
    "series_unequal_lengths": (InputError, "equal length", lambda _:
                               BivariateSeries([0.0, 1.0], [1.0, 2.0], [2.0])),
    "series_empty": (InputError, "must not be empty", lambda _:
                     BivariateSeries([], [], [])),
    "series_unknown_scale": (InputError, "scale must be one of", lambda _:
                             BivariateSeries([0.0], [1.0], [2.0], "gumbel")),
    "study_no_replicates": (ParameterError, "n_reps", lambda _:
                            StudyConfig(0, [0.0, 1.0], MX, MY, MODEL)),
    "study_no_times": (ParameterError, "times grid", lambda _:
                       StudyConfig(1, [], MX, MY, MODEL)),
    "study_no_model": (ParameterError, "model is required", lambda _:
                       StudyConfig(1, [0.0, 1.0], MX, MY)),
    "nadarajah_s_1": (ParameterError, "requires s > 1", lambda _:
                      NadarajahGeneralParams(0.2, 0.9, 0.0, 0.0, 1.0)),
    # the bounds are (2b - 1)/(b - a) = 8/7 and (1 - 2a)/(b - a) = 6/7
    "nadarajah_gamma1_bound": (ParameterError, "gamma1 exceeds", lambda _:
                               NadarajahGeneralParams(0.2, 0.9, 1.2, 0.0,
                                                      2.0)),
    "nadarajah_gamma2_bound": (ParameterError, "gamma2 exceeds", lambda _:
                               NadarajahGeneralParams(0.2, 0.9, 0.0, 0.9,
                                                      2.0)),
    "point_mass_bad_atom": (ParameterError, "atoms need", lambda _:
                            PointMassModel([(1.5, 1.0)])),
    "tabulated_trend_no_values": (ParameterError, "value vector", lambda _:
                                  TrendSpec("tabulated")),
    "log_jacobian_nonpositive": (DomainError, "must be positive", lambda _:
                                 exp_scale_log_jacobian(np.array([1.0, 0.0]),
                                                        MX)),
    "curve_unknown_variant": (ParameterError, "unknown curve variant",
                              lambda _: PickandsCurve([0.0, 1.0], [1.0, 1.0],
                                                      "smooth")),
    "curve_unequal_lengths": (InputError, "equal length", lambda _:
                              PickandsCurve([0.0, 0.5, 1.0], [1.0, 1.0])),
    "sample_shapes": (InputError, "1-D of equal length", lambda _:
                      pickands_raw(np.ones(2), np.ones(3), 0.5)),
    "trend_two_values": (InputError, "at least 3 values", lambda _:
                         trend_penalized(lambda g: -g ** 2, 1.0, np.zeros(2))),
    "trend_infeasible_start": (NumericError, "infeasible point", lambda _:
                               trend_penalized(lambda g: np.full(g.size,
                                                                 -np.inf),
                                               1.0, np.zeros(5))),
    "fit_two_observations": (InputError, "at least 3 observations", lambda _:
                             fit_restricted(BivariateSeries(
                                 [0.0, 1.0], [1.0, 2.0], [2.0, 3.0]),
                                 10.0, 10.0)),
    "depfn_foreign_object": (InputError, "cannot tabulate", lambda _:
                             depfn_curves([("other", object())])),
    "read_csv_no_header": (InputError, "no column header", lambda _:
                           read_csv(io.StringIO("# scale: original\n\n"))),
    "read_table_three_columns": (InputError, "expected two columns", lambda _:
                                 read_table(io.StringIO("a,b,c\n1,2,3\n"))),
    "config_unreadable": (InputError, "cannot read config file", lambda tmp:
                          parse_and_validate(["validate", "--config",
                                              str(tmp)])),
    "config_line_without_equals": (InputError, "expected key = value",
                                   lambda tmp: parse_and_validate(
                                       ["validate", "--config",
                                        _config_file(tmp, "s 2\n")])),
    "config_bad_value": (InputError, "bad value", lambda tmp:
                         parse_and_validate(["validate", "--config",
                                             _config_file(tmp, "s = two\n")])),
    "csv_header_without_rows": (InputError, "no data rows", lambda tmp:
                                read_csv_columns(_config_file(tmp, "x,y\n"),
                                                 ("x", "y"))),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_refusal(tmp_path, case):
    error, words, call = REFUSALS[case]
    with pytest.raises(error, match=words):
        call(tmp_path)
