"""Property tests of the restricted / upper / interval family, its
sampler, and the fit files.

All three families are one class on (c1, c2, s); the properties below are
those of any dependence function, checked over random parameters.
"""

import tempfile

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, strategies as st  # noqa: E402

from ordext import (BivariateSeries, ExpPair, FitResult,  # noqa: E402
                    make_model, sample_pairs, v_closed, v_from_a,
                    validate_dependence)
from ordext.cli import _fit_from_files, _fit_to_files  # noqa: E402

GRID = np.linspace(0.0, 1.0, 201)

lower_c = st.floats(0.0, 0.45)
upper_c = st.floats(0.55, 1.0)


def family_models(strength):
    return st.one_of(
        st.builds(lambda c, s: make_model("restricted", c=c, s=s),
                  lower_c, strength),
        st.builds(lambda c, s: make_model("upper", c=c, s=s),
                  upper_c, strength),
        st.builds(lambda c1, c2, s: make_model("interval", c1=c1, c2=c2, s=s),
                  lower_c, upper_c, strength),
    )


families = family_models(st.floats(1.0, 8.0))


@given(families)
def test_endpoints_and_envelope(model):
    a = model.a(GRID)
    assert abs(a[0] - 1.0) <= 1e-12 and abs(a[-1] - 1.0) <= 1e-12
    assert np.all(a >= np.maximum(GRID, 1.0 - GRID) - 1e-12)
    assert np.all(a <= 1.0 + 1e-12)


@given(families)
def test_discrete_convexity(model):
    a = model.a(GRID)
    assert np.min(a[:-2] + a[2:] - 2.0 * a[1:-1]) >= -1e-12


@given(families)
def test_measure_function_is_slope_plus_one(model):
    kinks = np.array(sorted({q for q, _ in model.point_masses()}
                            | set(model.support())))
    w = GRID[1:-1]
    w = w[np.min(np.abs(w[:, None] - kinks[None, :]), axis=1) >= 0.02]
    assert np.max(np.abs(model.H(w) - (model.a_prime(w) + 1.0)),
                  initial=0.0) <= 1e-8


@given(families)
def test_validator_passes(model):
    report = validate_dependence(model)
    assert report.passed, report.lines()


def test_validator_false_failure_near_s_1():
    # the density piles its mass up at the interval ends as s -> 1+
    assert validate_dependence(make_model("restricted", c=0.3,
                                          s=1.0 + 1e-6)).passed


@pytest.mark.parametrize("c, s", [(0.0, 3.0), (1.0 / 33.0, 2.0),
                                  (0.25, 1.0), (0.45, 1.2)])
def test_restricted_and_upper_are_interval_cases(c, s):
    grid = np.unique(np.concatenate([np.linspace(0.0, 1.0, 2001),
                                     [c, 1.0 - c]]))
    pairs = [(make_model("restricted", c=c, s=s),
              make_model("interval", c1=c, c2=1.0, s=s)),
             (make_model("upper", c=1.0 - c, s=s),
              make_model("interval", c1=0.0, c2=1.0 - c, s=s))]
    for family, interval in pairs:
        for view in ("a", "a_prime", "h", "H"):
            assert np.array_equal(getattr(family, view)(grid),
                                  getattr(interval, view)(grid)), view


def test_v_from_a_matches_closed_form_on_criterion_3_grid():
    coords = np.linspace(0.05, 5.0, 20)
    for c in (0.0, 0.1, 0.25, 0.45):
        for s in (1.2, 2.0, 5.0):
            model = make_model("restricted", c=c, s=s)
            for x in coords:
                for y in coords:
                    pair = ExpPair(float(x), float(y))
                    closed = v_closed(pair, c, s)
                    assert abs(v_from_a(pair, model) - closed) <= 1e-12 * closed


@given(families, st.integers(0, 2 ** 32 - 1))
def test_samples_lie_above_the_ordering_floor(model, seed):
    # c for restricted, c1 for interval, 0 for upper
    xe, ye = sample_pairs(model, 300, np.random.default_rng(seed))
    assert np.all(ye / (xe + ye) > model.ordering_floor())


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def fit_results(draw):
    n = draw(st.integers(3, 30))
    times = np.array(sorted(draw(st.sets(finite, min_size=n, max_size=n))))
    trend = st.lists(finite, min_size=n, max_size=n).map(np.array)
    return FitResult(
        s=draw(st.floats(1.0, 60.0)), sigma_x=draw(st.floats(1e-8, 1e8)),
        sigma_y=draw(st.floats(1e-8, 1e8)), xi=draw(st.floats(-0.45, 0.95)),
        g_x=draw(trend), g_y=draw(trend), c_hat=draw(st.floats(0.0, 0.49)),
        c_hat_pickands=draw(st.floats(0.0, 1.0)), times=times, trace=[],
        loglik=draw(finite), converged=draw(st.booleans()))


@given(fit_results())
def test_fit_files_round_trip(fit):
    series = BivariateSeries(fit.times, np.zeros(len(fit.times)),
                             np.ones(len(fit.times)))
    with tempfile.TemporaryDirectory() as out:
        _fit_to_files(fit, out)
        back = _fit_from_files(out, series)
    for name in ("s", "sigma_x", "sigma_y", "xi", "c_hat", "c_hat_pickands",
                 "loglik", "converged"):
        assert getattr(back, name) == getattr(fit, name), name
    for name in ("g_x", "g_y", "times"):
        assert np.array_equal(getattr(back, name), getattr(fit, name)), name
