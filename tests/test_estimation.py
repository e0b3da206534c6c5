import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import ordext
from ordext import (BivariateSeries, FitConfig, GevmParams, InputError,
                    NumericError, TrendSpec, StudyConfig, estimate_c_hat,
                    fit_restricted, make_model, pickands_curve,
                    pickands_modified, pickands_raw, run_study, sample_pairs,
                    trend_penalized)
from ordext.estimation import ridge_trend, roughness


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


def test_pickands_blocks_match_one_array(monkeypatch):
    # the pooled minimum over the whole omega x n array is the reference
    rng = np.random.default_rng(12)
    xe, ye = sample_pairs(make_model("restricted", c=0.25, s=2.0), 700, rng)
    grid = np.linspace(0.0, 1.0, 201)
    with np.errstate(divide="ignore"):
        whole = np.mean(np.minimum(xe[None, :] / (1.0 - grid[:, None]),
                                   ye[None, :] / grid[:, None]), axis=1)
    one_block = pickands_modified(xe, ye, grid)
    monkeypatch.setattr(ordext.estimation, "_POOLED_BLOCK", 3 * 700 + 5)
    assert np.array_equal(pickands_raw(xe, ye, grid), 1.0 / whole)
    assert np.array_equal(pickands_modified(xe, ye, grid), one_block)


def test_pickands_empty_sample():
    with pytest.raises(InputError):
        pickands_raw(np.array([]), np.array([]), 0.5)
    with pytest.raises(InputError):
        estimate_c_hat(np.array([]), np.array([]))


def test_pickands_curve_object():
    rng = np.random.default_rng(4)
    xe, ye = rng.exponential(size=50), rng.exponential(size=50)
    curve = pickands_curve(xe, ye)
    assert len(curve.omegas) == 201
    assert curve.variant == "modified"
    assert curve.values[0] == 1.0


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
    steps = [r["iteration"] for r in fit.trace]
    assert steps[0] == 0 and steps[-1] <= diag["maps"]
    assert all(a < b for a, b in zip(steps, steps[1:]))
    last = fit.trace[-1]
    assert (last["s"], last["sigma_x"], last["sigma_y"], last["xi"],
            last["penalized_loglik"]) == \
        (fit.s, fit.sigma_x, fit.sigma_y, fit.xi, fit.loglik)
