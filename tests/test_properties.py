"""Property tests of the restricted / upper / interval family and the
asymmetric logistic, the sampler, the quadrature oracle for V, and the
fit files.

The first three families are one class on (c1, c2, s); the properties
below are those of any dependence function, checked over random
parameters.
"""

import tempfile

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, strategies as st  # noqa: E402

from ordext import (AsymLogisticParams, BivariateSeries,  # noqa: E402
                    ExpPair, FitResult, NumericError, make_model,
                    sample_pairs, v_closed, v_from_a, v_numeric,
                    validate_dependence)
from ordext.cli import _fit_from_files, _fit_to_files  # noqa: E402
from ordext.measure import V_QUAD_TOL  # noqa: E402

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
asymmetric = st.builds(
    lambda t1, t2, s: make_model("asymmetric", theta1=t1, theta2=t2, s=s),
    st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(1.0, 8.0))


@given(st.one_of(families, asymmetric))
def test_endpoints_and_envelope(model):
    a = model.a(GRID)
    assert abs(a[0] - 1.0) <= 1e-12 and abs(a[-1] - 1.0) <= 1e-12
    assert np.all(a >= np.maximum(GRID, 1.0 - GRID) - 1e-12)
    assert np.all(a <= 1.0 + 1e-12)


@given(st.one_of(families, asymmetric))
def test_discrete_convexity(model):
    a = model.a(GRID)
    assert np.min(a[:-2] + a[2:] - 2.0 * a[1:-1]) >= -1e-12


@given(st.one_of(families, asymmetric))
# (t1 w)^s and (t2 (1-w))^s underflow here, and A' and H must not be NaN
@example(make_model("asymmetric", theta1=4.572722852828314e-135,
                    theta2=3.2379672326296473e-195, s=3.0))
def test_measure_function_is_slope_plus_one(model):
    kinks = np.array(sorted({q for q, _ in model.point_masses()}
                            | set(model.support())))
    w = GRID[1:-1]
    w = w[np.min(np.abs(w[:, None] - kinks[None, :]), axis=1) >= 0.02]
    assert np.max(np.abs(model.H(w) - (model.a_prime(w) + 1.0)),
                  initial=0.0) <= 1e-8


@given(families)
def test_validator_passes(model):
    # restricted, upper and interval only: for the asymmetric family the
    # validator's quadrature raises where a weight below ~1e-4 puts the
    # logistic part's turnover at an end of [0, 1] (CHANGES.md FOUND line)
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


def _v_restricted_mp(x, y, c, s):
    """Restricted closed form at 40 digits, from the exact float inputs."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        x, y, c, s = (mpmath.mpf(v) for v in (x, y, c, s))
        if y / (x + y) <= c:
            return float(x)
        r = (1 - c) * y - c * x
        return float(((r ** s + ((1 - 2 * c) * x) ** s) ** (1 / s) + c * x)
                     / (1 - c))


log_uniform = st.floats(-6.0, 6.0).map(lambda e: 10.0 ** e)


@st.composite
def restricted_points(draw):
    """(c, s, x, y): x and y log-uniform, or the y-fraction just above c."""
    c = draw(st.one_of(st.floats(0.0, 0.49), st.just(0.4999999)))
    s = draw(st.floats(1.0, 61.0, exclude_min=True))
    x = draw(log_uniform)
    if draw(st.booleans()):
        y = draw(log_uniform)
    else:
        frac = c + draw(st.floats(-12.0, -1.0).map(lambda e: 10.0 ** e))
        y = x * frac / (1.0 - frac)
    return c, s, x, y


@given(restricted_points())
@example((0.4999999, 3.71195, 0.93244, 0.93244))
def test_v_numeric_matches_mpmath_or_raises(point):
    c, s, x, y = point
    try:
        value = v_numeric(ExpPair(x, y), make_model("restricted", c=c, s=s))
    except NumericError:
        return
    exact = _v_restricted_mp(x, y, c, s)
    # a NaN fails this comparison too
    assert abs(value - exact) <= 1e-9 * exact


@given(st.one_of(families, asymmetric), log_uniform, log_uniform)
def test_v_numeric_matches_v_from_a(model, x, y):
    # an asymmetric weight below 1e-2 puts the logistic part's turnover,
    # theta2 / (theta1 + theta2), near an end of [0, 1], where the rule's
    # half-step error estimate stays large: there v_numeric is held to its
    # own tolerance or raises
    pair = ExpPair(x, y)
    expected = v_from_a(pair, model)
    params = model.params
    steep = (isinstance(params, AsymLogisticParams)
             and 0.0 < min(params.theta1, params.theta2) < 1e-2)
    try:
        value = v_numeric(pair, model)
    except NumericError:
        assert steep
        return
    assert abs(value - expected) <= (2 * V_QUAD_TOL if steep else 1e-12) * expected


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
