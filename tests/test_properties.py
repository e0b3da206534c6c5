"""Property tests of the restricted / upper / interval family and the
asymmetric logistic, the sampler, the quadrature oracle for V, the fit
files and the CSV dialect they are written in.

The first three families are one class on (c1, c2, s); the properties
below are those of any dependence function, checked over random
parameters.
"""

import io
import math
import string
import tempfile

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import (assume, example, given, settings,  # noqa: E402
                        strategies as st)

from ordext import (AsymLogisticParams, BivariateSeries,  # noqa: E402
                    CurveTable, ExpPair, FitResult, InputError,
                    NumericError, make_model,
                    pickands_modified, pickands_raw, sample_pairs, v_closed,
                    v_from_a, v_numeric,
                    validate_dependence)
from ordext import simulate  # noqa: E402
from test_dependence import ALL_FAMILY_CASES  # noqa: E402
from ordext.cli import _fit_from_files, _fit_to_files  # noqa: E402
from ordext.diagnostics import (_SVG_COLORS as SVG_COLORS,  # noqa: E402
                                _column_vertices, read_csv, render_svg,
                                write_csv)

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
# both weights subnormal: their products with w and 1 - w underflow to 0
SUBNORMAL_WEIGHTS = make_model("asymmetric", theta1=5e-324, theta2=5e-324,
                               s=3.0)


@given(st.one_of(families, asymmetric))
@example(SUBNORMAL_WEIGHTS)
def test_endpoints_and_envelope(model):
    a = model.a(GRID)
    assert abs(a[0] - 1.0) <= 1e-12 and abs(a[-1] - 1.0) <= 1e-12
    assert np.all(a >= np.maximum(GRID, 1.0 - GRID) - 1e-12)
    assert np.all(a <= 1.0 + 1e-12)


@given(st.one_of(families, asymmetric))
@example(SUBNORMAL_WEIGHTS)
def test_discrete_convexity(model):
    a = model.a(GRID)
    assert np.min(a[:-2] + a[2:] - 2.0 * a[1:-1]) >= -1e-12


@given(st.one_of(families, asymmetric))
# (t1 w)^s and (t2 (1-w))^s underflow here, and A' and H must not be NaN
@example(make_model("asymmetric", theta1=4.572722852828314e-135,
                    theta2=3.2379672326296473e-195, s=3.0))
@example(SUBNORMAL_WEIGHTS)
def test_measure_function_is_slope_plus_one(model):
    kinks = np.array(sorted({q for q, _ in model.point_masses()}
                            | set(model.support())))
    w = GRID[1:-1]
    w = w[np.min(np.abs(w[:, None] - kinks[None, :]), axis=1) >= 0.02]
    assert np.max(np.abs(model.H(w) - (model.a_prime(w) + 1.0)),
                  initial=0.0) <= 1e-8


@given(st.one_of(families, asymmetric))
# (t1 w)^s, (t2 (1-w))^s and (t1 t2)^s underflow here; h must stay finite
@example(make_model("asymmetric", theta1=4.572722852828314e-135,
                    theta2=3.2379672326296473e-195, s=3.0))
@example(SUBNORMAL_WEIGHTS)
def test_density_finite_and_nonnegative(model):
    h = model.h(GRID)
    assert np.all(np.isfinite(h)) and np.all(h >= 0.0)


@given(st.one_of(families, asymmetric))
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
# a weight near 0 puts the logistic turnover, theta2 / (theta1 + theta2),
# next to an end of [0, 1]; the oracle splits there
@example(make_model("asymmetric", theta1=1.38e-10, theta2=0.859, s=3.671),
         1.0, 1e-3)
@example(make_model("asymmetric", theta1=1.0, theta2=1e-12, s=1.5), 1e-3, 1.0)
@example(SUBNORMAL_WEIGHTS, 1.0, 1.0)
def test_v_numeric_matches_v_from_a(model, x, y):
    pair = ExpPair(x, y)
    expected = v_from_a(pair, model)
    assert abs(v_numeric(pair, model) - expected) <= 1e-12 * expected


# the logistic turnover within 1e-2 of a support end: at c = 0.49999 it
# lies 1e-5 above c, and an asymmetric weight t puts it within about t of
# 0 or 1
near_half = st.builds(lambda c, s: make_model("restricted", c=c, s=s),
                      st.floats(0.499, 0.49999), st.floats(1.0, 61.0))


def one_small_weight(weights):
    return st.builds(
        lambda t, other, s, first: make_model(
            "asymmetric", theta1=t if first else other,
            theta2=other if first else t, s=s),
        weights, st.floats(0.0, 1.0), st.floats(1.0, 61.0), st.booleans())


def assert_v_numeric_matches_a_closed_form(model, x, y):
    pair = ExpPair(x, y)
    params = model.params
    if isinstance(params, AsymLogisticParams):
        expected = v_from_a(pair, model)
    else:
        expected = v_closed(pair, params.c, params.s)
    assert abs(v_numeric(pair, model) - expected) <= 1e-12 * expected


@given(st.one_of(near_half, one_small_weight(st.floats(1e-4, 1e-2))),
       log_uniform, log_uniform)
def test_v_numeric_converges_next_to_the_turnover(model, x, y):
    assert_v_numeric_matches_a_closed_form(model, x, y)


# the turnover far closer to a support end: one asymmetric weight
# log-uniform down to 1e-12, or c within 1e-7 of 1/2, where H climbs over a
# width of order 1e-7 / s.  The oracle's panels are graded toward the
# turnover; without the grading such draws came back wrong with no raise
@settings(max_examples=500)
@given(st.one_of(
    one_small_weight(st.floats(-12.0, -2.0).map(lambda e: 10.0 ** e)),
    st.builds(lambda c, s: make_model("restricted", c=c, s=s),
              st.floats(0.5 - 1e-7, 0.5, exclude_max=True),
              st.floats(1.0, 61.0))),
       log_uniform, log_uniform)
def test_v_numeric_grading_resolves_a_turnover_at_an_end(model, x, y):
    assert_v_numeric_matches_a_closed_form(model, x, y)


@given(families, st.integers(0, 2 ** 32 - 1))
# at s = 1.125 about 1 % of the draws are lifted to 1e-12 above the
# boundary, some from within rounding of it
@example(make_model("restricted", c=0.25, s=1.125), 0)
def test_samples_lie_above_the_ordering_floor(model, seed):
    # c for restricted, c1 for interval, 0 for upper
    xe, ye = sample_pairs(model, 300, np.random.default_rng(seed))
    assert np.all(ye / (xe + ye) > model.ordering_floor())


# s on [1, 61], and within 1e-9 to 1e-2 of 1, where F climbs steeply
# next to the ordering floor
any_strength = st.one_of(st.floats(1.0, 61.0),
                         st.floats(1e-9, 1e-2).map(lambda d: 1.0 + d))


@given(st.one_of(
    family_models(any_strength),
    st.builds(lambda t1, t2, s: make_model("asymmetric", theta1=t1,
                                           theta2=t2, s=s),
              st.floats(0.0, 1.0), st.floats(0.0, 1.0), any_strength)),
       st.integers(0, 2 ** 32 - 1), st.integers(1, 500))
@example(SUBNORMAL_WEIGHTS, 0, 300)
# a draw at u = 0.99999918, where F' = 5.6e-5 and F is flat to within
# its rounding over the last steps of a root search
@example(make_model("restricted", c=0.03584706133560239, s=12.960043900521248),
         225, 20_000)
def test_sample_pairs_never_raises(model, seed, n):
    xe, ye = sample_pairs(model, n, np.random.default_rng(seed))
    assert np.isfinite(xe).all() and np.isfinite(ye).all()
    assert np.all(ye / (xe + ye) > model.ordering_floor())


def test_newton_steps_stop_where_the_cdf_is_flat(monkeypatch):
    # the 20,000-pair example above with the fallback forced: a zero panel
    # budget leaves 62 % of its u-mass, and 12,317 of its draws, to
    # bisection
    monkeypatch.setattr(simulate, "_MAX_PANELS", 0)
    model = make_model("restricted", c=0.03584706133560239,
                       s=12.960043900521248)
    xe, ye = sample_pairs(model, 20_000, np.random.default_rng(225))
    assert np.isfinite(xe).all() and np.isfinite(ye).all()
    assert np.all(ye / (xe + ye) > model.ordering_floor())


@given(st.one_of(
    st.sampled_from(ALL_FAMILY_CASES),
    family_models(any_strength),
    st.builds(lambda t1, t2, s: make_model("asymmetric", theta1=t1,
                                           theta2=t2, s=s),
              st.floats(0.0, 1.0), st.floats(0.0, 1.0), any_strength)),
       st.integers(0, 2 ** 32 - 1))
@example(SUBNORMAL_WEIGHTS, 0)
@example(make_model("restricted", c=0.25, s=1.0), 0)
def test_inverse_table_is_certified(model, seed):
    # at random u in certified panels: the u-error within _U_TOL, or w
    # within _W_TOL w of the inverse (F(w -+ d) bracket u); on a polynomial
    # panel A within _U_TOL relative and p within _U_TOL beyond its
    # rounding.  The build checks these at the u-midpoints of the nodes
    # only, so the bounds here are twice its tolerances.
    inverse = simulate._build_inverse(model)
    if any(model is case for case in ALL_FAMILY_CASES):
        assert not inverse.uncertified[1:].any()
    u = np.random.default_rng(seed).random(2000)
    j = simulate._cell(inverse.panel_guide, inverse.edges, u)
    u, j = u[~inverse.uncertified[j]], j[~inverse.uncertified[j]]
    w, a, p = simulate._evaluate(lambda k: inverse.columns[k][j], u)
    d = 2.0 * simulate._W_TOL * w
    with np.errstate(all="ignore"):
        f, _, a_w, p_w, p_round = simulate._angular_law(model, w)
        below = simulate._angular_law(model, w - d)[0]
        above = simulate._angular_law(model, w + d)[0]
    u_ok = ((np.abs(f - u) <= 2.0 * simulate._U_TOL)
            | ((below <= u) & (u <= above)))
    assert u_ok.all(), (w[~u_ok], u[~u_ok], f[~u_ok])
    poly = inverse.columns[1][j] != 0.0
    assert np.all(np.abs(a - a_w)[poly] <= 2.0 * simulate._U_TOL * a_w[poly])
    assert np.all(np.abs(p - p_w)[poly]
                  <= 2.0 * (simulate._U_TOL + p_round[poly]))


# exponential-scale values: 0 or a normal float (the reference rounds
# each subnormal term to an absolute 5e-324, which no mean can match)
exp_values = st.one_of(st.just(0.0), st.floats(1e-300, 1e6))


@st.composite
def pooled_samples(draw):
    """1 to 30 pairs drawn from at most 6 distinct ones, some with x == y,
    and an unsorted grid with repeats, 0, 1/2, 1 and each pair's rounded
    y-fraction and its two neighbours, where rounding decides which side
    of the pooled minimum a pair takes."""
    pair = st.one_of(st.tuples(exp_values, exp_values),
                     exp_values.map(lambda v: (v, v)))
    distinct = draw(st.lists(pair.filter(lambda p: p[0] + p[1] > 0.0),
                             min_size=1, max_size=6))
    pairs = draw(st.lists(st.sampled_from(distinct), min_size=1,
                          max_size=30))
    xe, ye = (np.array(v) for v in zip(*pairs))
    assume(np.any((xe > 0.0) & (ye > 0.0)))
    ks = [float(k) for k in ye / (xe + ye)]
    near = [float(np.nextafter(k, d)) for k in ks for d in (0.0, 1.0)]
    grid = draw(st.lists(st.one_of(st.floats(0.0, 1.0),
                                   st.sampled_from([0.0, 0.5, 1.0] + ks + near)),
                         min_size=1, max_size=25))
    return xe, ye, np.array(grid)


def fsum_pooled_mean(xe, ye, w):
    if w == 0.0:
        return math.fsum(xe) / xe.size
    if w == 1.0:
        return math.fsum(ye) / xe.size
    with np.errstate(over="ignore"):
        return math.fsum(np.minimum(xe / (1.0 - w), ye / w)) / xe.size


@given(pooled_samples())
@example((np.array([1.0, 1.0]), np.array([1.0, 1.0]), np.array([0.5])))
# the pair's rounded y-fraction equals w and the exact one lies below it:
# a split on the rounded fraction takes x/(1-w) = 1.23 for a minimum of 1
@example((np.array([5.468755603901019e-16]), np.array([1.0]),
          np.array([0.9999999999999996])))
def test_sorted_pooled_minimum_matches_direct_mean(sample):
    xe, ye, grid = sample
    ref = np.array([fsum_pooled_mean(xe, ye, w) for w in grid])
    got = 1.0 / pickands_raw(xe, ye, grid)
    assert np.all(np.abs(got - ref) <= 4 * np.finfo(float).eps * ref)
    assert pickands_raw(xe, ye, grid[0]) == pickands_raw(xe, ye, grid[:1])[0]
    mod = pickands_modified(xe, ye, grid)
    assert np.all(mod[(grid == 0.0) | (grid == 1.0)] == 1.0)
    assert np.all(mod >= np.maximum(grid, 1.0 - grid))


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


# a NaN is written as "nan", which reads back as the canonical NaN
AWKWARD_FLOATS = [math.nan, 0.0, -0.0, 5e-324, -5e-324,
                  2.2250738585072014e-308, 1e308, -1e308, math.inf, -math.inf]


@st.composite
def dialect_files(draw):
    """Up to 30 rows of one to four columns, floats or (one column at
    most) words, and metadata of any text."""
    n = draw(st.integers(0, 30))
    header = draw(st.lists(st.text(string.ascii_letters + "_", min_size=1,
                                   max_size=6),
                           min_size=1, max_size=4, unique_by=str.lower))
    text = draw(st.sampled_from([(), (header[-1],)]))
    floats = st.one_of(st.sampled_from(AWKWARD_FLOATS),
                       st.floats(allow_nan=False))
    words = st.text(string.ascii_letters + "._-", min_size=1, max_size=6)
    columns = [draw(st.lists(words, min_size=n, max_size=n)) if h in text
               else np.array(draw(st.lists(floats, min_size=n, max_size=n)),
                             dtype=float) for h in header]
    meta = draw(st.dictionaries(st.text(max_size=8), st.text(max_size=8),
                                max_size=3))
    return header, columns, meta, text


def on_one_line(s):
    return s == s.strip() and "\n" not in s and "\r" not in s


@given(dialect_files())
@example((["x", "y"], [np.array(AWKWARD_FLOATS),
                       np.array(AWKWARD_FLOATS[::-1])],
          {"label": "awkward", "kind": "a: b"}, ()))
def test_dialect_round_trips_bitwise(file):
    header, columns, meta, text = file
    buf = io.StringIO()
    try:
        write_csv(buf, header, columns, meta)
    except InputError:
        # refused only where a '# key: value' line cannot carry an item
        assert not all(":" not in k and on_one_line(k) and on_one_line(v)
                       for k, v in meta.items())
        assert buf.getvalue() == ""
        return
    back_meta, back_header, back_columns = read_csv(
        io.StringIO(buf.getvalue()), text)
    assert back_meta == meta and back_header == header
    for a, b in zip(columns, back_columns):
        if isinstance(a, list):
            assert b == a
        else:
            assert b.tobytes() == a.tobytes()
    again = io.StringIO()
    write_csv(again, back_header, back_columns, back_meta)
    assert again.getvalue() == buf.getvalue()


def full_resolution_svg(tables):
    """The SVG with every finite vertex of every curve, on axes over the
    finite values, as render_svg would write it if it kept every vertex."""
    pad, width, height = 50.0, 800, 600
    x_all = np.concatenate([t.x for t in tables])
    y_all = np.concatenate([t.values for t in tables])
    x_all, y_all = x_all[np.isfinite(x_all)], y_all[np.isfinite(y_all)]
    x0, y0 = float(np.min(x_all)), float(np.min(y_all))
    xr = float(np.max(x_all)) - x0 or 1.0
    yr = float(np.max(y_all)) - y0 or 1.0
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" '
             f'viewBox="0 0 {width} {height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>']
    vertices = []
    for i, t in enumerate(tables):
        finite = np.isfinite(t.x) & np.isfinite(t.values)
        px = pad + (t.x[finite] - x0) / xr * (width - 2 * pad)
        py = height - pad - (t.values[finite] - y0) / yr * (height - 2 * pad)
        vertices.append((px, py))
        pts = " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(px, py))
        color = SVG_COLORS[i % len(SVG_COLORS)]
        parts.append(f'<polyline fill="none" stroke="{color}" '
                     f'stroke-width="1.5" points="{pts}"/>')
        parts.append(f'<text x="{pad + 8:.0f}" y="{pad + 16 * (i + 1):.0f}" '
                     f'fill="{color}" font-size="12">{t.label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n", vertices


@st.composite
def svg_curves(draw):
    """One to three curves, monotone in x or not, with up to 6000 vertices
    (the plot has 700 columns, so some are denser than four per column),
    their heights a random walk, sorted, constant or in steps, and one
    height or x perhaps NaN, infinite or huge."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tables = []
    for i in range(draw(st.integers(1, 3))):
        n = draw(st.one_of(st.integers(1, 40), st.integers(2000, 6000)))
        x = rng.random(n) * draw(st.sampled_from([1.0, 1e-3, 1e6]))
        if draw(st.booleans()):
            x = np.sort(x)
        shape = draw(st.sampled_from(["walk", "sorted", "flat", "steps"]))
        v = np.cumsum(rng.standard_normal(n))
        if shape == "sorted":
            v = np.sort(v)
        elif shape == "flat":
            v = np.full(n, 2.5)
        elif shape == "steps":
            v = np.floor(v)
        if draw(st.booleans()) and n > 2:
            odd = draw(st.sampled_from([math.nan, math.inf, -math.inf, 1e300]))
            (v if draw(st.booleans()) else x)[n // 2] = odd
        tables.append(CurveTable(f"c{i}", x, v, xname="x"))
    return tables


def polyline_points(text):
    return [line.split('points="')[1].split('"')[0].split()
            for line in text.splitlines() if line.startswith("<polyline")]


@given(svg_curves())
@settings(max_examples=60, deadline=None)
def test_svg_keeps_at_most_four_vertices_per_column_run(tables):
    text = render_svg(tables)
    full, vertices = full_resolution_svg(tables)
    budget = 4 * 700
    per_column = max(np.unique(np.floor(px), return_counts=True)[1].max()
                     for px, _ in vertices)
    if per_column <= 4:
        assert text == full
    for (px, py), shown in zip(vertices, polyline_points(text), strict=True):
        kept = _column_vertices(px, py, budget)
        everything = [f"{a:.2f},{b:.2f}" for a, b in zip(px, py)]
        assert shown == [everything[k] for k in kept]
        assert np.all(np.diff(kept) > 0)
        assert kept[0] == 0 and kept[-1] == px.size - 1
        if px.size <= budget:
            assert kept.size == px.size
            continue
        col = np.floor(px)
        start = np.flatnonzero(np.r_[True, col[1:] != col[:-1]])
        for a, b in zip(start, np.append(start[1:], px.size)):
            mine = kept[(kept >= a) & (kept < b)]
            run = py[a:b]
            assert mine[0] == a and mine[-1] == b - 1
            assert run.min() in py[mine] and run.max() in py[mine]
            assert mine.size == b - a if b - a <= 4 else mine.size <= 4


@st.composite
def cdf_tables(draw):
    """Non-decreasing tables from 0 to 1, as the sampler's table of F is:
    spread values, flat runs, a cluster inside one bucket, values on
    bucket edges; or the table of a family."""
    if draw(st.booleans()):
        return simulate._cdf_table(draw(st.one_of(families, asymmetric)))[1]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spot = rng.random()
    parts = [rng.random(draw(st.integers(0, 400))),
             np.repeat(rng.random(3), draw(st.integers(1, 60))),
             spot + 1e-9 * rng.random(draw(st.integers(0, 40))),
             rng.integers(0, 2**12, draw(st.integers(0, 30))) / 2**12]
    return np.minimum(np.sort(np.concatenate([[0.0, 1.0], *parts])), 1.0)


@given(cdf_tables())
@settings(max_examples=60, deadline=None)
def test_guide_lookup_is_searchsorted(f):
    guide = simulate._guide(f)
    m = guide[0]
    inside = f[f < 1.0]
    u = np.concatenate([
        inside, np.nextafter(inside, 0.0), np.nextafter(inside, 1.0),
        np.arange(m) / m, np.nextafter(np.arange(1, m) / m, 0.0),
        [0.0, np.nextafter(1.0, 0.0)],
        np.random.default_rng(f.size).random(500)])
    u = u[(u >= 0.0) & (u < 1.0)]
    assert np.array_equal(simulate._cell(guide, f, u),
                          np.searchsorted(f, u, side="right"))
