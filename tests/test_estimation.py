import math
import os
import pickle
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import ordext
from ordext import (BivariateSeries, DomainError, FitConfig, GevmParams,
                    InputError, NumericError, ParameterError, TrendSpec,
                    StudyConfig, estimate_c_hat, fit_restricted, make_model,
                    pickands_curve, pickands_modified, pickands_raw,
                    run_study, sample_pairs, trend_penalized)
from ordext import estimation
from ordext.estimation import (INFEASIBLE_REASONS, _trial_boundary,
                               ridge_trend, roughness)
from ordext.margins import log_exp_scale


def test_pickands_raw_basics():
    xe = np.array([0.5, 1.5])
    ye = np.array([1.2, 0.8])
    assert pickands_raw(xe, ye, 0.0) == pytest.approx(1.0, rel=1e-14)
    assert pickands_raw(xe, ye, 1.0) == pytest.approx(1.0, rel=1e-14)
    assert pickands_raw(np.array([1.0]), np.array([1.0]), 0.5) == \
        pytest.approx(0.5, rel=1e-14)


def test_pickands_raw_endpoint_defect():
    rng = np.random.default_rng(0)
    xe = rng.exponential(size=500)
    ye = rng.exponential(size=500)
    assert pickands_raw(xe, ye, 0.0) == pytest.approx(1.0 / np.mean(xe), rel=1e-12)
    assert pickands_raw(xe, ye, 1.0) == pytest.approx(1.0 / np.mean(ye), rel=1e-12)


def test_pickands_raw_perfect_dependence():
    xe = np.full(50, 1.0)
    assert pickands_raw(xe, xe, 0.5) == pytest.approx(0.5, rel=1e-14)


def test_pickands_modified_endpoints_exact():
    rng = np.random.default_rng(1)
    xe, ye = rng.exponential(size=200), rng.exponential(size=200) * 3.0
    assert pickands_modified(xe, ye, 0.0) == 1.0
    assert pickands_modified(xe, ye, 1.0) == 1.0


def test_pickands_modified_scale_invariance():
    rng = np.random.default_rng(2)
    xe, ye = rng.exponential(size=100), rng.exponential(size=100)
    grid = np.linspace(0.0, 1.0, 41)
    a = pickands_modified(xe, ye, grid)
    b = pickands_modified(3.0 * xe, ye, grid)
    assert np.allclose(a, b, rtol=1e-12)


def test_pickands_modified_lower_bound_fuzz():
    rng = np.random.default_rng(3)
    grid = np.linspace(0.0, 1.0, 101)
    bound = np.maximum(grid, 1.0 - grid)
    for _ in range(60):
        n = int(rng.integers(2, 80))
        xe = rng.exponential(rng.uniform(0.5, 3.0), size=n)
        ye = rng.lognormal(0.0, rng.uniform(0.3, 1.0), size=n)
        vals = pickands_modified(xe, ye, grid)
        assert np.all(vals >= bound)
        assert vals[0] == 1.0 and vals[-1] == 1.0


def test_raw_and_modified_agree_for_unit_mean_samples():
    xe = np.array([0.5, 1.0, 1.5])
    ye = np.array([2.0, 0.5, 0.5])
    grid = np.linspace(0.0, 1.0, 21)
    raw = pickands_raw(xe, ye, grid)
    mod = pickands_modified(xe, ye, grid)
    keep = (grid > 0) & (grid < 1)
    assert np.allclose(raw[keep], mod[keep], atol=1e-12)


def test_pickands_consistency_on_model_sample():
    model = make_model("restricted", c=0.25, s=2.0)
    rng = np.random.default_rng(10)
    xe, ye = sample_pairs(model, 5000, rng)
    grid = np.linspace(0.0, 1.0, 101)
    est = pickands_modified(xe, ye, grid)
    assert float(np.max(np.abs(est - model.a(grid)))) <= 0.05


@pytest.mark.parametrize("model", [
    make_model("restricted", c=1.0 / 33.0, s=2.0),
    make_model("asymmetric", theta1=0.4, theta2=0.7, s=3.0),
], ids=["restricted", "asymmetric"])
# on 2001 points a plain cumulative sum of the segment sums errs by 4-10 eps
@pytest.mark.parametrize("n, points", [(20000, 201), (2000, 2001)])
def test_pickands_matches_exactly_rounded_mean(model, n, points):
    # the reference rounds each w's mean of pooled minima once (math.fsum);
    # a plain cumulative sum over 2e4 sorted pairs misses it by ~30 eps
    rng = np.random.default_rng(12)
    xe, ye = sample_pairs(model, n, rng)
    grid = np.linspace(0.0, 1.0, points)
    with np.errstate(divide="ignore"):
        ref = [math.fsum(np.minimum(xe / (1.0 - w), ye / w)) / xe.size
               for w in grid]
    ref = 1.0 / np.array(ref)
    err = np.max(np.abs(pickands_raw(xe, ye, grid) - ref) / ref)
    assert err <= 4 * np.finfo(float).eps


def test_pickands_curve_heap_peak():
    rng = np.random.default_rng(13)
    xe, ye = rng.exponential(size=100_000), rng.exponential(size=100_000)
    tracemalloc.start()
    try:
        pickands_curve(xe, ye)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the 201 x n array of pooled minima, in blocks of 2^20, peaked at 24.4 MiB
    assert peak < 8 * 2 ** 20


def test_pickands_empty_sample():
    with pytest.raises(InputError):
        pickands_raw(np.array([]), np.array([]), 0.5)
    with pytest.raises(InputError):
        estimate_c_hat(np.array([]), np.array([]))


BAD_SAMPLES = {
    "nan": ([1.0, np.nan], [1.0, 2.0]),
    "inf": ([1.0, 2.0], [np.inf, 2.0]),
    "negative": ([1.0, -0.5], [1.0, 2.0]),
    "zero_pair": ([1.0, 0.0], [1.0, 0.0]),
    "no_positive_pair": ([0.0, 1.0], [1.0, 0.0]),
}
ESTIMATORS = {
    "raw": lambda xe, ye: pickands_raw(xe, ye, 0.5),
    "modified": lambda xe, ye: pickands_modified(xe, ye, 0.5),
    "curve": pickands_curve,
    "c_hat": estimate_c_hat,
}


@pytest.mark.parametrize("estimator", ESTIMATORS)
@pytest.mark.parametrize("case", BAD_SAMPLES)
def test_estimators_reject_bad_samples(case, estimator):
    xe, ye = BAD_SAMPLES[case]
    with pytest.raises(InputError):
        ESTIMATORS[estimator](np.array(xe), np.array(ye))


@pytest.mark.parametrize("w", [-0.1, 1.5, np.nan])
def test_pickands_rejects_fractions_outside_unit_interval(w):
    xe, ye = np.array([0.5, 1.5]), np.array([1.2, 0.8])
    with pytest.raises(DomainError):
        pickands_raw(xe, ye, w)
    with pytest.raises(DomainError):
        pickands_modified(xe, ye, np.array([0.5, w]))


def test_pickands_curve_object():
    rng = np.random.default_rng(4)
    xe, ye = rng.exponential(size=50), rng.exponential(size=50)
    curve = pickands_curve(xe, ye)
    assert len(curve.omegas) == 201
    assert curve.variant == "modified"
    assert curve.values[0] == 1.0


@pytest.mark.parametrize("variant", ["exact", "Modified", "mod"])
def test_pickands_curve_refuses_other_variants(variant):
    # "exact" once gave the raw estimate labelled exact; the variant is
    # refused before any work, so an empty sample is never looked at
    with pytest.raises(ParameterError, match="variant"):
        pickands_curve([], [], variant=variant)


def test_estimate_c_hat_minimum():
    xe = np.array([4.0, 6.5, 4.0])
    ye = np.array([1.0, 3.5, 6.0])
    assert estimate_c_hat(xe, ye) == pytest.approx(0.2, rel=1e-14)


def test_estimate_c_hat_bias_and_shrinkage():
    model = make_model("restricted", c=0.25, s=2.0)
    rng = np.random.default_rng(11)
    lows_small, lows_big = [], []
    for _ in range(30):
        xe, ye = sample_pairs(model, 50, rng)
        lows_small.append(estimate_c_hat(xe, ye))
        xe, ye = sample_pairs(model, 5000, rng)
        lows_big.append(estimate_c_hat(xe, ye))
    assert all(v >= 0.25 for v in lows_small + lows_big)
    assert np.median(lows_big) < np.median(lows_small)


def test_trend_penalized_toy_objectives():
    rng = np.random.default_rng(5)
    y = rng.normal(size=30) + np.linspace(0.0, 4.0, 30)
    times = np.arange(30.0)

    def obj(g):
        return -0.5 * (g - y) ** 2

    assert np.allclose(trend_penalized(obj, 0.0, times, np.zeros(30)), y,
                       atol=1e-10)
    lam = 6.0
    assert np.allclose(trend_penalized(obj, lam, times, np.zeros(30)),
                       ridge_trend(y, lam), atol=1e-8)
    flat = trend_penalized(obj, 1e9, times, np.zeros(30))
    assert float(np.max(np.abs(np.diff(flat, 2)))) <= 1e-6
    with pytest.raises(InputError):
        trend_penalized(obj, -1.0, times)


def test_trend_penalized_raises_on_non_finite_step():
    # finite terms whose central differences overflow: +-1e308 either side
    def obj(g):
        return 1e308 * np.tanh(1e10 * g)

    with pytest.raises(NumericError, match="not finite"):
        trend_penalized(obj, 10.0, np.arange(20.0), np.zeros(20))


def make_series(n=120, seed=8, s=2.0):
    mx = GevmParams(100.0, 4.0, 0.2)
    my = GevmParams(150.0, 2.0, 0.2)
    model = make_model("restricted", c=1.0 / 33.0, s=s)
    cfg = StudyConfig(n_reps=1, times=np.linspace(0.0, 1.0, n),
                      margin_x=mx, margin_y=my, model=model,
                      trend_x=TrendSpec.linear(100.0, -40.0),
                      trend_y=TrendSpec.linear(150.0, -40.0), seed=seed)
    return run_study(cfg)[0][0]


def test_fit_rejects_bad_input():
    series = make_series(40)
    swapped = BivariateSeries(series.t, series.y, series.x)
    with pytest.raises(InputError):
        fit_restricted(swapped, 10.0, 10.0)
    with pytest.raises(InputError):
        fit_restricted(series, -1.0, 10.0)


@pytest.mark.parametrize("column", ["t", "x", "y"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_series_rejects_non_finite_values(column, value):
    cols = {"t": [0.0, 0.5, 1.0], "x": [1.0, 2.0, 3.0], "y": [2.0, 3.0, 4.0]}
    cols[column][1] = value
    with pytest.raises(InputError, match="NaN or infinite"):
        BivariateSeries(cols["t"], cols["x"], cols["y"])


@st.composite
def row_orders(draw):
    n = draw(st.integers(20, 60))
    return n, draw(st.permutations(range(n)))


@settings(max_examples=15)
@given(row_orders())
@example((40, list(range(39, -1, -1))))      # reversed rows
@pytest.mark.filterwarnings("ignore:fit stopped at the iteration cap")
def test_fit_is_invariant_to_row_order(rows):
    n, order = rows
    series = make_series(n, seed=3)
    shuffled = BivariateSeries(series.t[order], series.x[order],
                               series.y[order])
    config = FitConfig(max_outer=4)
    fit = fit_restricted(series, 10.0, 10.0, config)
    refit = fit_restricted(shuffled, 10.0, 10.0, config)
    for name in ("s", "sigma_x", "sigma_y", "xi", "c_hat", "c_hat_pickands",
                 "loglik", "converged", "trace", "diagnostics"):
        assert getattr(refit, name) == getattr(fit, name), name
    for name in ("g_x", "g_y", "times"):
        assert np.array_equal(getattr(refit, name), getattr(fit, name)), name


def boundary_grid_d(mu_x, mu_y, sig_x, sig_y, xi, data_lo, data_hi):
    """D(x, x) of every row at every point of a 128-point log-spaced grid
    over the fit's xi <= 0 window, as an n x 128 broadcast: the grid, and
    D where both of the row's margins are defined there, inf elsewhere."""
    span = max(data_hi - data_lo, 1e-6)
    offsets = np.logspace(math.log10(span * 1e-6), math.log10(11.0 * span),
                          128)
    grid = data_hi - offsets
    # log1p keeps D accurate at small xi, where (b_y/b_x)^(1/xi) is not
    with np.errstate(all="ignore"):
        log_d = (log_exp_scale(grid[None, :], mu_x[:, None], sig_x, xi)
                 - log_exp_scale(grid[None, :], mu_y[:, None], sig_y, xi))
        return grid, np.where(np.isnan(log_d), np.inf, np.exp(log_d))


@st.composite
def boundary_inputs(draw):
    """Trend rows, scales, a shape xi <= 0 and a data range; rows far
    above the data have no valid grid point."""
    n = draw(st.integers(1, 12))
    rows = st.lists(st.floats(-20.0, 20.0), min_size=n, max_size=n)
    mu_x = np.array(draw(rows))
    mu_y = mu_x + np.array(draw(st.lists(st.floats(-2.0, 10.0), min_size=n,
                                         max_size=n)))
    xi = draw(st.one_of(st.floats(-0.45, 0.0), st.floats(-1e-8, 0.0)))
    lo = draw(st.floats(-30.0, 30.0))
    return (mu_x, mu_y, draw(st.floats(0.1, 10.0)), draw(st.floats(0.1, 10.0)),
            xi, lo, lo + draw(st.floats(0.0, 40.0)))


@settings(max_examples=300)
@given(boundary_inputs())
@example((np.array([25.0, 30.0]), np.array([26.0, 31.0]), 1.0, 1.0, -0.4,
          -5.0, 5.0))                                   # no valid row: c = 1
@example((np.array([0.0, 25.0]), np.array([1.0, 26.0]), 2.0, 1.0, -0.3,
          -5.0, 5.0))                                   # one row without
@example((np.array([0.0, 1.0]), np.array([2.0, 2.5]), 2.0, 1.0, 0.0,
          -5.0, 5.0))                                   # xi = 0
# X's lower threshold -10/3 lies in the window, above Y's (-9): D -> 0
@example((np.array([0.0]), np.array([1.0]), 1.0, 3.0, -0.3, -5.0, 5.0))
# thresholds on, or within rounding of, a grid point of the oracle
@example((np.array([-2.874767572742715]), np.array([-1.874767572742715]),
          1.0, 2.0, -0.3, 0.0, 10.0))
@example((np.array([13.368315241542923]), np.array([14.368315241542923]),
          1.0, 2.0, -0.1, 0.0, 10.0))
# X's threshold -105.23 just below the window's lower end -105: D > 0
@example((np.array([-101.9]), np.array([-100.9]), 1.0, 2.0, -0.3, -5.0, 5.0))
# X's threshold of the first row rounds just below lo = -13.85, and lo
# rounds off X's support: D -> 0 all the same
@example((np.array([-5.688983050847457, -10.0]),
          np.array([-4.688983050847457, -9.0]), 0.963, 2.889, -0.118, 0.0,
          1.385))
def test_boundary_row_ends_match_grid(inputs):
    mu_x, mu_y, sig_x, sig_y, xi, data_lo, data_hi = inputs
    c, dc = _trial_boundary(*inputs, grad=True)
    assert _trial_boundary(*inputs) == c
    if c in (0.0, 1.0):
        assert np.array_equal(dc, np.zeros(3))
    span = max(data_hi - data_lo, 1e-6)
    lo, hi = data_hi - 11.0 * span, data_hi - 1e-6 * span
    # a row whose part of the window ends at X's lower threshold, above
    # Y's (in exact arithmetic), or at a lo that rounds off X's support,
    # has D -> 0 there
    x_end = False
    if xi < 0.0:
        t_x = mu_x + sig_x / xi
        above = (mu_x - mu_y) + (sig_x - sig_y) / xi > 0.0
        with np.errstate(invalid="ignore"):
            off = np.isnan(log_exp_scale(lo, mu_x, sig_x, xi))
        x_end = np.any(above & (t_x < hi) & ((t_x >= lo) | off))
        if x_end:
            assert c == 1.0
    grid, d = boundary_grid_d(*inputs)
    if not np.any(np.isfinite(d)):
        return
    # the exact infimum is never above the grid's minimum; and otherwise
    # each row's least D is at lo or hi, the grid's last or first point
    # (D -> inf at Y's threshold)
    c_grid = 1.0 / (1.0 + float(np.min(d)))
    assert c >= c_grid * (1.0 - 1e-12)
    if not x_end:
        assert c <= c_grid + 1e-9


def closed_form_boundary(mu_x, mu_y, sig_x, sig_y, xi):
    """The xi > 0 branch of _trial_boundary as it was before the window
    and the row ends served every shape: (c, dc)."""
    with np.errstate(over="ignore"):
        if np.any(mu_x + sig_x / xi >= mu_y + sig_y / xi):
            return 1.0, np.zeros(3)
        log_d = math.log(sig_x / sig_y) / xi
    if log_d > 700.0:
        return 0.0, np.zeros(3)
    c = 1.0 / (1.0 + math.exp(log_d))
    return c, -c * (1.0 - c) * np.array([1.0 / sig_x, -1.0 / sig_y,
                                         -log_d]) / xi


@settings(max_examples=300)
@given(boundary_inputs(), st.one_of(st.floats(0.0, 0.95, exclude_min=True),
                                    st.floats(0.0, 1e-8, exclude_min=True)))
def test_boundary_positive_shape_matches_closed_form(inputs, xi):
    mu_x, mu_y, sig_x, sig_y, _xi, data_lo, data_hi = inputs
    with np.errstate(over="ignore"):
        # the closed form compares the rounded upper endpoints (both inf
        # where sigma / xi overflows) and returns c = 1 where they
        # coincide; the row ends take the sign of their difference, and
        # where that is 0, D is constant along the row
        gap = (mu_x - mu_y) + (sig_x - sig_y) / xi
        assume(np.array_equal(mu_x + sig_x / xi >= mu_y + sig_y / xi,
                              gap >= 0.0) and np.all(gap != 0.0))
    c, dc = _trial_boundary(mu_x, mu_y, sig_x, sig_y, xi, data_lo, data_hi,
                            grad=True)
    assert _trial_boundary(mu_x, mu_y, sig_x, sig_y, xi, data_lo,
                           data_hi) == c
    c_old, dc_old = closed_form_boundary(mu_x, mu_y, sig_x, sig_y, xi)
    assert c == c_old and np.array_equal(dc, dc_old)


DEEP = FitConfig(max_outer=200, outer_tol=1e-13)


@pytest.fixture(scope="module")
def reference_fit():
    series = make_series(150, seed=21)
    return series, fit_restricted(series, 1000.0, 1000.0, DEEP)


def test_fit_recovers_reference_design(reference_fit):
    _, fit = reference_fit
    assert 1.0 <= fit.s <= 4.0
    assert 2.0 <= fit.sigma_x <= 6.0
    assert 1.0 <= fit.sigma_y <= 3.0
    assert -0.1 <= fit.xi <= 0.5
    assert fit.loglik > -np.inf
    assert len(fit.trace) >= 2


def test_fit_trace_monotone(reference_fit):
    _, fit = reference_fit
    pl = [r["penalized_loglik"] for r in fit.trace]
    for a, b in zip(pl, pl[1:]):
        assert b >= a - 1e-9 * (1.0 + abs(a))


def test_fit_boundary_estimates_ordered(reference_fit):
    _, fit = reference_fit
    assert 0.0 < fit.c_hat <= fit.c_hat_pickands < 1.0


def test_fit_is_fixed_point(reference_fit):
    series, fit = reference_fit
    start = dict(s=fit.s, sigma_x=fit.sigma_x, sigma_y=fit.sigma_y,
                 xi=fit.xi, g_x=fit.g_x, g_y=fit.g_y)
    refit = fit_restricted(series, 1000.0, 1000.0,
                           FitConfig(max_outer=200, outer_tol=1e-13,
                                     start=start))
    assert abs(refit.s - fit.s) <= 1e-6
    assert abs(refit.sigma_x - fit.sigma_x) <= 1e-6
    assert abs(refit.sigma_y - fit.sigma_y) <= 1e-6
    assert abs(refit.xi - fit.xi) <= 1e-6
    assert float(np.max(np.abs(refit.g_x - fit.g_x))) <= 1e-6
    assert float(np.max(np.abs(refit.g_y - fit.g_y))) <= 1e-6


def test_fit_trace_ends_at_result(reference_fit):
    _, fit = reference_fit
    last = fit.trace[-1]
    assert (last["s"], last["sigma_x"], last["sigma_y"], last["xi"],
            last["penalized_loglik"]) == \
        (fit.s, fit.sigma_x, fit.sigma_y, fit.xi, fit.loglik)


FIT_IN_CHILD = """
import pickle, sys
sys.path.insert(0, sys.argv[1])
from test_estimation import make_series
from ordext import fit_restricted
fit = fit_restricted(make_series(120, seed=8), 1000.0, 1000.0)
sys.stdout.buffer.write(pickle.dumps(fit))
"""


def fit_with_threads(threads):
    src = str(Path(ordext.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               OMP_NUM_THREADS=str(threads), PYTHONPATH=path)
    out = subprocess.run([sys.executable, "-c", FIT_IN_CHILD,
                          str(Path(__file__).parent)],
                         env=env, capture_output=True, check=True)
    return pickle.loads(out.stdout)


def test_fit_does_not_depend_on_blas_threads():
    one, two = fit_with_threads(1), fit_with_threads(2)
    for name in ("s", "sigma_x", "sigma_y", "xi", "c_hat", "c_hat_pickands",
                 "loglik", "converged", "trace"):
        assert getattr(two, name) == getattr(one, name), name
    for name in ("g_x", "g_y", "times"):
        assert np.array_equal(getattr(two, name), getattr(one, name)), name


@pytest.mark.filterwarnings("ignore:fit stopped at the iteration cap")
def test_fit_calls_scipy_through_module_names(monkeypatch):
    """benchmarks/tracer.py counts the scalar stage and its evaluations by
    patching estimation.minimize; the trend stage solves through
    estimation.solveh_banded."""
    calls = {"minimize": 0, "solveh_banded": 0}

    def counting(name):
        original = getattr(estimation, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(estimation, name, counting(name))
    fit_restricted(make_series(40, seed=3), 10.0, 10.0, FitConfig(max_outer=1))
    assert min(calls.values()) >= 1, calls


@pytest.mark.filterwarnings("error:fit stopped at the iteration cap")
def test_fit_large_lambda_gives_straight_trends():
    series = make_series(80, seed=13)
    fit = fit_restricted(series, 1e8, 1e8, FitConfig(max_outer=15))
    assert fit.converged
    scale = float(np.ptp(series.x))
    assert roughness(fit.g_x) ** 0.5 <= 1e-3 * scale
    assert roughness(fit.g_y) ** 0.5 <= 1e-3 * scale


@pytest.mark.filterwarnings("ignore:fit stopped at the iteration cap")
@pytest.mark.parametrize("max_outer", [1, 2, 3, 4, 5])
def test_fit_counts_maps_within_the_cap(max_outer):
    fit = fit_restricted(make_series(40, seed=3), 10.0, 10.0,
                         FitConfig(max_outer=max_outer))
    diag = fit.diagnostics
    assert diag["maps"] <= max_outer
    assert diag["extrapolations_accepted"] <= diag["extrapolations_tried"]
    assert set(diag["infeasible"]) == set(INFEASIBLE_REASONS)
    assert 0 < sum(diag["infeasible"].values()) <= diag["evaluations"]
    steps = [r["iteration"] for r in fit.trace]
    assert steps[0] == 0 and steps[-1] <= diag["maps"]
    assert all(a < b for a, b in zip(steps, steps[1:]))
    last = fit.trace[-1]
    assert (last["s"], last["sigma_x"], last["sigma_y"], last["xi"],
            last["penalized_loglik"]) == \
        (fit.s, fit.sigma_x, fit.sigma_y, fit.xi, fit.loglik)
