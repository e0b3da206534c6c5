import contextlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ordext import (BoundaryError, DomainError, ExpPair, FrechetPair,
                    GevmParams, NumericError, PointMassModel,
                    RestrictedLogisticModel, RestrictedLogisticParams,
                    c_from_margins, joint_log_density_gevm,
                    joint_survival_gevm, make_model, v_closed, v_frechet,
                    v_from_a, v_numeric, v_partials)
from ordext.margins import exp_scale, exp_scale_inverse
from ordext.measure import (V_QUAD_TOL, _diag_ratio, _log_density, _v_closed,
                            _v_partials)

# (sqrt(0.5) + 0.25) / 0.75, the closed form at c = 0.25, s = 2, x = y = 1
V_UNIT_POINT = 1.2761423749153967


def test_exp_pair_positivity():
    with pytest.raises(DomainError):
        ExpPair(0.0, 1.0)
    with pytest.raises(DomainError):
        FrechetPair(1.0, -2.0)


def test_v_closed_branch_one_and_symmetric_reduction():
    assert v_closed(ExpPair(2.0, 1e-12), 0.25, 2.0) == pytest.approx(2.0, abs=1e-12)
    for s in (1.0, 2.0, 3.7):
        assert v_closed(ExpPair(1.3, 0.4), 0.0, s) == \
            pytest.approx((1.3 ** s + 0.4 ** s) ** (1.0 / s), rel=1e-14)
    assert v_closed(ExpPair(1.0, 1.0), 0.25, 2.0) == pytest.approx(V_UNIT_POINT, rel=1e-14)


def test_v_closed_branch_continuity():
    # at y/(x+y) = c both branch expressions agree exactly
    c, s, x = 0.25, 2.0, 3.0
    y = c * x / (1.0 - c)
    branch2 = ((((1 - c) * y - c * x) ** s + (1 - 2 * c) ** s * x ** s) ** (1 / s)
               + c * x) / (1 - c)
    assert branch2 == pytest.approx(x, rel=1e-12)
    assert v_closed(ExpPair(x, y), c, s) == pytest.approx(x, rel=1e-12)


def test_v_numeric_oracle_against_closed_form():
    for c, s in [(0.25, 2.0), (0.45, 5.0), (0.1, 1.2), (0.0, 2.0)]:
        m = make_model("restricted", c=c, s=s)
        for x, y in [(1.0, 1.0), (0.3, 2.5), (4.0, 0.9), (0.05, 0.05)]:
            pair = ExpPair(x, y)
            closed = v_closed(pair, c, s)
            assert abs(v_numeric(pair, m) - closed) / closed <= 1e-6


def test_v_numeric_degenerate_models():
    assert v_numeric(ExpPair(1.2, 3.4), PointMassModel.independence()) == \
        pytest.approx(4.6, rel=1e-14)
    assert v_numeric(ExpPair(1.2, 3.4), PointMassModel.perfect_dependence()) == \
        pytest.approx(3.4, rel=1e-14)
    # s = 1: purely atomic restricted measure still matches the closed form
    m = make_model("restricted", c=0.25, s=1.0)
    for x, y in [(1.0, 1.0), (0.5, 2.0), (3.0, 0.2)]:
        assert v_numeric(ExpPair(x, y), m) == \
            pytest.approx(v_closed(ExpPair(x, y), 0.25, 1.0), rel=1e-12)


def test_v_numeric_does_not_depend_on_the_model_cache():
    # each model integrates H once per tolerance and keeps the result; a
    # point's value must be the same on a fresh model and on one already
    # used for other points and other tolerances.  At c = 0.49999, s = 60
    # the model's integrals at tol 1e-12 differ from those at the default
    # in the last bit, and so does V at the last point below
    builds = [lambda: make_model("restricted", c=0.25, s=2.0),
              lambda: make_model("asymmetric", theta1=0.4, theta2=0.7, s=3.0),
              lambda: make_model("interval", c1=0.1, c2=0.6, s=1.5),
              lambda: make_model("restricted", c=0.49999, s=60.0)]
    points = [(1.0, 1.0), (0.3, 2.5), (4.0, 0.9), (0.05, 0.05), (1.0, 1e-9),
              (1e-9, 1.0), (1.0, 3.0),      # y/(x+y) = 1/4, a split point
              (3.8454536844012805, 0.130338256332463)]
    for build in builds:
        used = build()
        for tol in (1e-12, 1e-6, V_QUAD_TOL):
            for x, y in points:
                with contextlib.suppress(NumericError):
                    v_numeric(ExpPair(2.0 * y + 0.1, x), used, tol=tol)
        for x, y in points:
            assert v_numeric(ExpPair(x, y), used) == \
                v_numeric(ExpPair(x, y), build())


def test_v_numeric_reads_the_model_table_without_calling_H():
    class Counted(RestrictedLogisticModel):
        calls = 0

        def H(self, w):
            Counted.calls += 1
            return super().H(w)

    model = Counted(RestrictedLogisticParams(0.25, 2.0))
    table = model.integrated_H(V_QUAD_TOL)
    assert Counted.calls > 0
    built = Counted.calls
    for x, y in [(1.0, 1.0), (0.3, 2.5), (4.0, 0.9), (1.0, 1e-9), (1.0, 3.0)]:
        assert v_numeric(ExpPair(x, y), model) == pytest.approx(
            v_closed(ExpPair(x, y), 0.25, 2.0), rel=1e-14)
    assert Counted.calls == built
    assert model.integrated_H(V_QUAD_TOL) is table
    for array in (table.edges, table.g, table.series):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0.0


TABLE_MODELS = [("restricted", dict(c=c, s=s))
                for c in (0.0, 0.1, 0.25, 0.45) for s in (1.2, 2.0, 5.0)] + [
    ("restricted", dict(c=0.25, s=1.0)),
    ("interval", dict(c1=0.25, c2=0.75, s=2.0)),
    ("asymmetric", dict(theta1=0.4, theta2=0.7, s=3.0))]


@pytest.mark.parametrize("family, params", TABLE_MODELS)
def test_table_read_by_clenshaw_matches_the_vector_read(family, params):
    table = make_model(family, **params).integrated_H(V_QUAD_TOL)
    edges = table.edges
    rng = np.random.default_rng(19)
    ks = np.concatenate([[0.0, 1.0], edges, rng.random(400),
                         rng.uniform(edges[:-1], edges[1:])])
    # the panel's series summed as cos(j acos t) against its coefficients
    i = np.searchsorted(edges[1:-1], ks, side="right")
    lo, hi = edges[i], edges[i + 1]
    t = np.clip(2.0 * (ks - lo) / (hi - lo) - 1.0, -1.0, 1.0)
    orders = np.arange(table.series.shape[1])
    vector = table.g[i] + np.einsum(
        "kj,kj->k", np.cos(np.outer(np.arccos(t), orders)), table.series[i])
    scalar = np.array([table(k) for k in ks.tolist()])
    assert type(table(0.5)) is float
    assert type(table.moment) is float
    assert table.moment == table.h_one - table.g[-1]
    ulp = np.spacing(np.maximum(np.abs(vector), table.h_one))
    assert np.all(np.abs(scalar - vector) <= 4 * ulp)


def test_v_numeric_reports_nonconvergence():
    rough = make_model("restricted", c=0.45, s=1.2)
    with pytest.raises(NumericError) as exc:
        v_numeric(ExpPair(1.0, 1.0), rough, tol=1e-18)
    assert exc.value.achieved_tol is not None
    assert exc.value.achieved_tol > 0.0


def test_v_from_a():
    assert v_from_a(ExpPair(1.2, 3.4), lambda w: 1.0) == pytest.approx(4.6)
    # boundary point where both branches meet: fraction equals c exactly
    m = make_model("restricted", c=0.25, s=1.0)
    assert v_from_a(ExpPair(3.0, 1.0), m) == pytest.approx(3.0, rel=1e-14)
    v1 = v_from_a(ExpPair(0.7, 1.9), m)
    assert v_from_a(ExpPair(1.4, 3.8), m) == pytest.approx(2.0 * v1, rel=1e-14)
    # matches the closed form across the plane
    m2 = make_model("restricted", c=0.25, s=2.0)
    for x in (0.2, 1.0, 3.0):
        for y in (0.1, 1.0, 2.7):
            assert v_from_a(ExpPair(x, y), m2) == \
                pytest.approx(v_closed(ExpPair(x, y), 0.25, 2.0), rel=1e-12)


def test_v_partials_branch_one():
    assert v_partials(ExpPair(5.0, 0.1), 0.25, 2.0) == (1.0, 0.0, 0.0)


def test_v_partials_symmetric_point():
    vx, vy, _ = v_partials(ExpPair(1.0, 1.0), 0.0, 2.0)
    assert vx == pytest.approx(2.0 ** -0.5, rel=1e-14)
    assert vy == pytest.approx(2.0 ** -0.5, rel=1e-14)


def test_v_partials_finite_difference_oracle():
    rng = np.random.default_rng(7)
    c, s = 0.25, 2.0
    checked = 0
    while checked < 20:
        x, y = rng.uniform(0.2, 4.0, size=2)
        if y / (x + y) < c + 0.05:
            continue
        checked += 1
        h = 1e-6 * max(x, y)
        f = lambda a, b: v_closed(ExpPair(a, b), c, s)
        vx, vy, vxy = v_partials(ExpPair(x, y), c, s)
        assert vx == pytest.approx((f(x + h, y) - f(x - h, y)) / (2 * h), rel=1e-6)
        assert vy == pytest.approx((f(x, y + h) - f(x, y - h)) / (2 * h), rel=1e-6)
        h2 = 1e-4 * max(x, y)
        fd_xy = (f(x + h2, y + h2) - f(x + h2, y - h2)
                 - f(x - h2, y + h2) + f(x - h2, y - h2)) / (4 * h2 * h2)
        assert vxy == pytest.approx(fd_xy, rel=1e-4)


def test_v_partials_boundary_error():
    with pytest.raises(BoundaryError):
        v_partials(ExpPair(3.0, 1.0), 0.25, 2.0)


def test_v_frechet():
    assert v_frechet(FrechetPair(1.0, 1.0), 0.0, 2.0) == \
        pytest.approx(math.sqrt(2.0), rel=1e-14)
    # zero-density region in Frechet coordinates
    assert v_frechet(FrechetPair(0.5, 10.0), 0.25, 2.0) == pytest.approx(2.0, rel=1e-14)
    for xf in (0.3, 1.0, 2.5):
        for yf in (0.4, 1.1, 3.0):
            assert v_frechet(FrechetPair(xf, yf), 0.25, 2.0) == \
                pytest.approx(v_closed(ExpPair(1 / xf, 1 / yf), 0.25, 2.0), rel=1e-12)


def test_mixed_partial_identity():
    # cross-derivative of the Frechet form against the spectral density
    c, s = 0.25, 2.0
    m = make_model("restricted", c=c, s=s)
    rng = np.random.default_rng(3)
    f = lambda a, b: v_frechet(FrechetPair(a, b), c, s)
    n_checked = 0
    while n_checked < 25:
        xf, yf = rng.uniform(0.3, 3.0, size=2)
        if xf / (xf + yf) < c + 0.05:
            continue
        n_checked += 1
        h = 3e-4 * min(xf, yf)
        fd = (f(xf + h, yf + h) - f(xf + h, yf - h)
              - f(xf - h, yf + h) + f(xf - h, yf - h)) / (4 * h * h)
        pred = -(xf + yf) ** -3 * float(m.h(xf / (xf + yf)))
        assert fd == pytest.approx(pred, rel=1e-4)
    # branch one: no y dependence at all, the cross difference is exactly 0
    xf, yf = 0.2, 4.0
    h = 1e-3
    fd = (f(xf + h, yf + h) - f(xf + h, yf - h)
          - f(xf - h, yf + h) + f(xf - h, yf - h)) / (4 * h * h)
    assert fd == 0.0


def test_v_bounds_and_homogeneity():
    models = [make_model("restricted", c=0.25, s=2.0),
              make_model("asymmetric", theta1=0.4, theta2=0.7, s=3.0),
              make_model("interval", c1=0.1, c2=0.6, s=2.0),
              make_model("upper", c=0.75, s=1.5)]
    pts = [(0.1, 0.1), (1.0, 2.0), (3.0, 0.4), (5.0, 5.0)]
    for m in models:
        for x, y in pts:
            v = v_from_a(ExpPair(x, y), m)
            assert max(x, y) - 1e-12 <= v <= x + y + 1e-12
            for t in (0.1, 1.0, 7.0):
                assert v_from_a(ExpPair(t * x, t * y), m) == \
                    pytest.approx(t * v, rel=1e-12)


def test_joint_survival():
    mx, my = GevmParams(100.0, 4.0, 0.2), GevmParams(150.0, 2.0, 0.2)
    model = make_model("restricted", c=1.0 / 33.0, s=2.0)
    assert joint_survival_gevm(20.0, 80.0, mx, my, model) > 0.999
    # removing y recovers the x margin
    y_low = exp_scale_inverse(1e-12, my)
    assert joint_survival_gevm(95.0, y_low, mx, my, model) == \
        pytest.approx(float(np.exp(-exp_scale(95.0, mx))), abs=1e-9)
    ind = PointMassModel.independence()
    sx = float(np.exp(-exp_scale(95.0, mx)))
    sy = float(np.exp(-exp_scale(149.0, my)))
    assert joint_survival_gevm(95.0, 149.0, mx, my, ind) == \
        pytest.approx(sx * sy, rel=1e-12)


def test_joint_survival_takes_arrays():
    mx, my = GevmParams(100.0, 4.0, 0.2), GevmParams(150.0, 2.0, 0.2)
    model = make_model("restricted", c=1.0 / 33.0, s=2.0)
    x, y = np.array([20.0, 95.0, 99.0]), np.array([80.0, 149.0, 151.0])
    got = joint_survival_gevm(x, y, mx, my, model)
    assert isinstance(got, np.ndarray) and got.shape == (3,)
    for i in range(3):
        assert got[i] == joint_survival_gevm(x[i], y[i], mx, my, model)
    assert isinstance(joint_survival_gevm(95.0, 149.0, mx, my, model), float)


def test_joint_log_density():
    mx, my = GevmParams(100.0, 4.0, 0.2), GevmParams(150.0, 2.0, 0.2)
    model = make_model("restricted", c=1.0 / 33.0, s=2.0)
    # ordering-violating region carries no mass
    assert joint_log_density_gevm(95.0, 60.0, mx, my, model) == -math.inf

    # numeric cross-derivative of the survival as the density oracle
    rng = np.random.default_rng(5)
    done = 0
    while done < 20:
        x = float(rng.uniform(85.0, 110.0))
        y = float(rng.uniform(135.0, 155.0))
        ld = joint_log_density_gevm(x, y, mx, my, model)
        if not np.isfinite(ld) or ld < -12.0:
            continue
        done += 1
        h = 5e-4
        fd = (joint_survival_gevm(x + h, y + h, mx, my, model)
              - joint_survival_gevm(x + h, y - h, mx, my, model)
              - joint_survival_gevm(x - h, y + h, mx, my, model)
              + joint_survival_gevm(x - h, y - h, mx, my, model)) / (4 * h * h)
        assert math.exp(ld) == pytest.approx(fd, rel=1e-3)

    # independence factorises into the marginal densities
    ind = PointMassModel.independence()
    x, y = 97.0, 149.0

    def marginal_logpdf(z, p):
        e = exp_scale(z, p)
        return -e + (1.0 + p.xi) * math.log(e) - math.log(p.sigma)

    assert joint_log_density_gevm(x, y, mx, my, ind) == \
        pytest.approx(marginal_logpdf(x, mx) + marginal_logpdf(y, my), rel=1e-12)


def test_joint_laws_propagate_domain_errors():
    mx, my = GevmParams(100.0, 4.0, 0.2), GevmParams(150.0, 2.0, 0.2)
    model = make_model("restricted", c=1.0 / 33.0, s=2.0)
    above_top = mx.mu + mx.sigma / mx.xi + 1.0
    with pytest.raises(DomainError):
        joint_log_density_gevm(above_top, 149.0, mx, my, model)
    with pytest.raises(DomainError):
        joint_survival_gevm(above_top, 149.0, mx, my, model)


def test_c_from_margins_reference_design():
    c = c_from_margins(GevmParams(100.0, 4.0, 0.2), GevmParams(150.0, 2.0, 0.2))
    assert c == pytest.approx(1.0 / 33.0, abs=1e-12)
    # trend in mu does not move the shared-shape tail limit
    c2 = c_from_margins(GevmParams(60.0, 4.0, 0.2), GevmParams(110.0, 2.0, 0.2))
    assert c2 == pytest.approx(1.0 / 33.0, abs=1e-12)


def test_c_from_margins_degenerate_and_grid_cases():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        c = c_from_margins(GevmParams(100.0, 2.0, 0.2), GevmParams(100.0, 2.0, 0.2))
    assert c == pytest.approx(0.5, abs=1e-12)
    assert any("ordering" in str(w.message) for w in caught)

    # equal scales with a location gap: the minimum at an end of the
    # window; unequal shapes: found by the grid search.  Either must match
    # the 1/(1 + min D) of a brute-force scan over the same domain
    for mx, my in [(GevmParams(100.0, 2.0, 0.2), GevmParams(150.0, 2.0, 0.2)),
                   (GevmParams(100.0, 2.0, 0.2), GevmParams(150.0, 2.0, 0.15))]:
        c = c_from_margins(mx, my, x_lo=-5000.0, x_hi=109.9)
        assert c < 0.5
        grid = np.linspace(-5000.0, 109.9, 200001)
        d_brute = float(np.min(_diag_ratio(grid, mx, my)))
        assert c == pytest.approx(1.0 / (1.0 + d_brute), abs=1e-6)

    # Gumbel margins over the whole line: log D is linear in x, constant
    # at equal scales and unbounded below otherwise
    c = c_from_margins(GevmParams(0.0, 2.0, 0.0), GevmParams(1.0, 2.0, 0.0))
    assert c == pytest.approx(1.0 / (1.0 + math.exp(0.5)), rel=1e-15)
    with pytest.warns(RuntimeWarning, match="ordering"):
        assert c_from_margins(GevmParams(0.0, 2.0, 0.0),
                              GevmParams(1.0, 1.0, 0.0)) == 1.0


@settings(max_examples=300)
@given(st.floats(-20.0, 20.0), st.floats(-2.0, 10.0), st.floats(0.1, 10.0),
       st.floats(0.1, 10.0),
       st.one_of(st.floats(-0.45, 0.95), st.floats(-1e-8, 1e-8)),
       st.floats(-60.0, 60.0), st.floats(1e-3, 80.0))
def test_shared_shape_boundary_matches_dense_scan(mu_x, gap, sig_x, sig_y, xi,
                                                  x_lo, width):
    mx, my = GevmParams(mu_x, sig_x, xi), GevmParams(mu_x + gap, sig_y, xi)
    x_hi = x_lo + width
    # the window cut to the joint support
    lo = max(x_lo, mx.lower_endpoint(), my.lower_endpoint())
    hi = min(x_hi, mx.upper_endpoint(), my.upper_endpoint())
    assume(lo < hi)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "boundary constant at or above")
        c = c_from_margins(mx, my, x_lo, x_hi)
    # log-spaced from each end of the cut window to the other
    offsets = (hi - lo) * np.logspace(-14.0, 0.0, 2001)
    d = _diag_ratio(np.concatenate([lo + offsets, hi - offsets]), mx, my)
    c_scan = 1.0 / (1.0 + float(np.min(d)))
    assert c_scan * (1.0 - 1e-12) <= c <= c_scan + 1e-9


def test_unequal_shape_boundary_takes_exact_limits():
    # D falls to 0 toward x -> -inf, toward x -> +inf, at Y's threshold
    # 24.18 (within ~1e-11 of it), and at both thresholds of margins with
    # xi = -+XI_ZERO_TOL, which are not Gumbel
    for mx, my, window in [
            (GevmParams(0.0, 3.9, 0.56), GevmParams(10.0, 1.65, 0.63), ()),
            (GevmParams(0.0, 1.1, -0.38), GevmParams(10.0, 3.9, -0.33), ()),
            (GevmParams(17.6, 0.2, 0.0), GevmParams(23.7, 0.36, 0.75),
             (20.0, 95.0)),
            (GevmParams(-2.4, 0.8, -1e-8), GevmParams(-1.3, 5.3, 1e-8), ())]:
        with pytest.warns(RuntimeWarning, match="ordering"):
            assert c_from_margins(mx, my, *window) == 1.0
    # two Gumbel margins, one shape inside XI_ZERO_TOL
    c = c_from_margins(GevmParams(0.0, 2.0, 1e-9), GevmParams(1.0, 2.0, 0.0))
    assert c == pytest.approx(1.0 / (1.0 + math.exp(0.5)), abs=1e-15)


@pytest.mark.parametrize("window", [(), (-100.0, 100.0)])
@pytest.mark.parametrize("xi", [1e-9, -1e-9, 5e-9, -5e-9])
def test_gumbel_band_boundary_is_gumbel(xi, window):
    # a shared shape inside XI_ZERO_TOL is Gumbel, as in log_exp_scale:
    # at equal scales log D = 1/2 all along the line, where the tail
    # log(sigma_x/sigma_y)/xi once gave c = 1/2 over the whole line
    gumbel = c_from_margins(GevmParams(0.0, 2.0, 0.0),
                            GevmParams(1.0, 2.0, 0.0), *window)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        c = c_from_margins(GevmParams(0.0, 2.0, xi),
                           GevmParams(1.0, 2.0, xi), *window)
    assert c == gumbel == pytest.approx(1.0 / (1.0 + math.exp(0.5)),
                                        rel=1e-15)


def _scan_least_ratio(mx, my, lo, hi):
    """Least D(x, x) on [lo, hi]: log-spaced from each end and evenly
    spaced, then zoomed three times around the least point."""
    offsets = (hi - lo) * np.logspace(-14.0, 0.0, 2001)
    x = np.unique(np.concatenate([lo + offsets, hi - offsets,
                                  np.linspace(lo, hi, 2001)]))
    best = math.inf
    for _ in range(4):
        d = _diag_ratio(x, mx, my)
        k = int(np.argmin(d))
        best = min(best, float(d[k]))
        x = np.linspace(x[max(k - 1, 0)], x[min(k + 1, len(x) - 1)], 2001)
    return best


_SHAPES = st.one_of(st.floats(-0.45, 0.95), st.floats(-1e-8, 1e-8),
                    st.sampled_from([0.0, 1e-8, -1e-8]))


@settings(max_examples=300)
@given(st.floats(-20.0, 20.0), st.floats(-2.0, 10.0), st.floats(0.1, 10.0),
       st.floats(0.1, 10.0), _SHAPES, _SHAPES, st.floats(-60.0, 60.0),
       st.floats(1e-3, 80.0))
def test_unequal_shape_boundary_matches_dense_scan(mu_x, gap, sig_x, sig_y,
                                                   xi_x, xi_y, x_lo, width):
    assume(xi_x != xi_y)
    mx, my = GevmParams(mu_x, sig_x, xi_x), GevmParams(mu_x + gap, sig_y, xi_y)
    x_hi = x_lo + width
    lo = max(x_lo, mx.lower_endpoint(), my.lower_endpoint())
    hi = min(x_hi, mx.upper_endpoint(), my.upper_endpoint())
    assume(lo < hi)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "boundary constant at or above")
        c = c_from_margins(mx, my, x_lo, x_hi)
    c_scan = 1.0 / (1.0 + _scan_least_ratio(mx, my, lo, hi))
    assert c >= c_scan * (1.0 - 1e-12)

    # toward a threshold t that ends the window, a margin's log e grows
    # like -log|x - t| / xi; where D -> 0 there, c is 1 however close to t
    # the scan would have to go to see it
    def growth(p, t):
        return 1.0 / p.xi if t in (p.lower_endpoint(), p.upper_endpoint()) \
            else 0.0
    if any(t != end and growth(mx, t) < growth(my, t)
           for t, end in [(lo, x_lo), (hi, x_hi)]):
        assert c == 1.0
    else:
        assert c <= c_scan + 1e-9


def test_c_from_margins_empty_domain():
    with pytest.raises(DomainError):
        c_from_margins(GevmParams(0.0, 1.0, 0.2), GevmParams(0.0, 1.0, 0.2),
                       x_lo=100.0, x_hi=90.0)


def _closed_form_mp(x, y, c, s):
    """(V, V_x, V_y, V_xy) by the plain-power closed forms, in mpmath; at
    400 digits their cancellation (V_x loses about as many digits as b^s
    has) costs nothing."""
    k = 1 - 2 * c
    r = (1 - c) * y - c * x
    big_l = (r ** s + (k * x) ** s) ** (1 / s)
    v = (big_l + c * x) / (1 - c)
    vx = (c + (k ** s * x ** (s - 1) - c * r ** (s - 1)) * big_l ** (1 - s)) \
        / (1 - c)
    vy = r ** (s - 1) * big_l ** (1 - s)
    vxy = -(s - 1) * (1 - c) * k ** s * x ** (s - 1) * y * r ** (s - 2) \
        * big_l ** (1 - 2 * s)
    return v, vx, vy, vxy


def _log_density_mp(x, y, c, s):
    """-V + log(V_x V_y - V_xy) from _closed_form_mp."""
    mpmath = pytest.importorskip("mpmath")
    v, vx, vy, vxy = _closed_form_mp(x, y, c, s)
    return -v + mpmath.log(vx * vy - vxy)


# where the plain-power closed forms were not finite
POWER_PATH_FAILS = [
    (0.0006925221718046942, 0.0007133784731799096, 0.20742995999656208,
     51.151063177159095),
    (0.1818665532400105, 1.0194479071169782, 0.09969306793131331,
     44.31109287555179),
    (0.0025524507603163545, 0.013307396142552072, 0.4190612174006644,
     15.359978541579505),
]


def test_log_density_matches_high_precision():
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(5)
    points = list(POWER_PATH_FAILS)
    while len(points) < 60:
        c = rng.uniform(0.0, 0.49)
        s = 1.0 + 10.0 ** rng.uniform(-3.0, math.log10(59.0))
        total = 10.0 ** rng.uniform(-3.0, 1.0)
        frac = c + 1e-3 + (1.0 - c - 1e-3) * rng.uniform() ** 2
        points.append((total * (1.0 - frac), total * frac, c, s))
    x, y, c, s = (np.array(col) for col in zip(*points))
    value, partials = _log_density(x, y, c, s, grad=True)
    assert np.array_equal(_log_density(x, y, c, s), value)
    # the closed form's V and partials come from the same intermediates
    closed = (_v_closed(x, y, c, s), *_v_partials(x, y, c, s))
    step = mpmath.mpf(10) ** -150
    with mpmath.workdps(400):
        for k, point in enumerate(points):
            args = [mpmath.mpf(v) for v in point]
            for got, want in zip(closed, _closed_form_mp(*args)):
                assert abs(got[k] - want) <= 1e-12 * abs(want), point
            want = _log_density_mp(*args)
            assert abs(value[k] - want) <= 1e-12 * abs(want), point
            for m, got in enumerate(partials):
                up, dn = list(args), list(args)
                up[m] += step
                dn[m] -= step
                want = (_log_density_mp(*up) - _log_density_mp(*dn)) / (2 * step)
                assert abs(got[k] - want) <= 1e-12 * abs(want), (point, m)


# the plain-power closed forms gave V = 1.11e-7 and inf at these points,
# and NaN partials at both
@pytest.mark.parametrize("x, y, c, s", [(1e-6, 2e-6, 0.1, 60.0),
                                        (1e8, 3e8, 0.25, 40.0)])
def test_closed_form_at_extreme_scales(x, y, c, s):
    mpmath = pytest.importorskip("mpmath")
    pair = ExpPair(x, y)
    want = v_numeric(pair, make_model("restricted", c=c, s=s))
    assert v_closed(pair, c, s) == pytest.approx(want, rel=1e-10)
    with mpmath.workdps(400):
        wants = _closed_form_mp(*(mpmath.mpf(v) for v in (x, y, c, s)))[1:]
        for got, want in zip(v_partials(pair, c, s), wants):
            assert abs(got - want) <= 1e-12 * abs(want)
