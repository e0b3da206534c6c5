"""The scalar stage's exact gradient against central differences.

fit_restricted's L-BFGS-B stage minimises estimation._scalar_objective
over phi = (log(s-1), log sigma_x, log sigma_y, xi) with jac=True.  These
properties compare its gradient with five-point central differences of
the same objective: at feasible states with xi > 0, with xi < 0 (where
the boundary is D at an end of the data window) and inside the Gumbel
band |xi| < 1e-8, and at infeasible trial points, where the objective is
the graded wall.  A stencil that straddles a kink of the objective (a
switch of the row end where D is least, a constraint that turns on)
shows up as two step sizes that disagree, and such draws are discarded.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, strategies as st  # noqa: E402

from ordext.estimation import (_RestrictedLikelihood,  # noqa: E402
                               _scalar_objective, ridge_trend)
from ordext.margins import (XI_ZERO_TOL, log_exp_scale,  # noqa: E402
                            log_exp_scale_grad)
from test_estimation import make_series  # noqa: E402

SERIES = make_series(40, seed=3)
LIK = _RestrictedLikelihood(SERIES, 10.0, 10.0)
G_X = ridge_trend(SERIES.x, 10.0)
G_Y = ridge_trend(SERIES.y, 10.0)
EPS = np.finfo(float).eps


def objective(phi):
    return _scalar_objective(np.asarray(phi, dtype=float), LIK, G_X, G_Y)


def central(phi, steps):
    out = np.empty(4)
    for k, h in enumerate(steps):
        e = np.zeros(4)
        e[k] = h
        f = [objective(phi + m * e)[0] for m in (-2.0, -1.0, 1.0, 2.0)]
        out[k] = (f[0] - 8.0 * f[1] + 8.0 * f[2] - f[3]) / (12.0 * h)
    return out


def check_gradient(phi, steps):
    value, grad = objective(phi)
    steps = np.asarray(steps, dtype=float)
    fd = central(phi, steps)
    # rounding floor of the differences themselves, per component
    floor = 64.0 * EPS * abs(value) / steps
    # two step sizes agree unless a kink lies inside the stencil
    assume(np.all(np.abs(fd - central(phi, steps / 2.0))
                  <= 1e-7 * np.max(np.abs(fd)) + 2.0 * floor))
    assert np.all(np.abs(grad - fd)
                  <= 1e-6 * np.max(np.abs(fd)) + floor), (grad, fd)
    return value


def check_feasible(phi, steps):
    value = check_gradient(phi, steps)
    s, sx, sy, xi = 1.0 + math.exp(phi[0]), math.exp(phi[1]), \
        math.exp(phi[2]), phi[3]
    reference = LIK.penalized(G_X, G_Y, sx, sy, xi, s)
    assert abs(-value - reference) <= 1e-12 * abs(reference)


def feasible_phi(log_s1, sig_x, ratio, xi):
    phi = np.array([log_s1, math.log(sig_x), math.log(sig_x * ratio), xi])
    assume(objective(phi)[0] < 1e12)
    return phi


# up to the optimiser's bound on log(s - 1)
log_strength = st.floats(-2.5, math.log(60.0))
STEPS = (1e-4, 1e-4, 1e-4, 1e-4)


@given(log_strength, st.floats(3.0, 5.0), st.floats(0.35, 0.7),
       st.floats(0.08, 0.3))
def test_gradient_positive_shape(log_s1, sig_x, ratio, xi):
    check_feasible(feasible_phi(log_s1, sig_x, ratio, xi), STEPS)


@given(log_strength, st.floats(2.0, 4.0), st.floats(0.8, 1.3),
       st.floats(-0.3, -0.02))
def test_gradient_negative_shape(log_s1, sig_x, ratio, xi):
    check_feasible(feasible_phi(log_s1, sig_x, ratio, xi), STEPS)


@given(log_strength, st.floats(2.0, 4.0), st.floats(0.6, 1.3),
       st.floats(-0.8 * XI_ZERO_TOL, -0.2 * XI_ZERO_TOL))
def test_gradient_gumbel_band(log_s1, sig_x, ratio, xi):
    # the xi steps stay inside the band and below xi = 0, where the
    # objective jumps (xi > 0 takes the closed-form boundary)
    h_xi = min(-xi, XI_ZERO_TOL + xi) / 2.5
    check_feasible(feasible_phi(log_s1, sig_x, ratio, xi),
                   STEPS[:3] + (h_xi,))


def check_infeasible(phi, steps):
    assume(objective(phi)[0] >= 1e12)
    check_gradient(phi, steps)


@given(st.floats(-3.0, math.log(60.0)), st.floats(-1.0, 3.0),
       st.floats(-1.0, 3.0), st.floats(-0.45, 0.95))
def test_gradient_infeasible(log_s1, log_sx, log_sy, xi):
    # the xi stencil stays on one side of xi = 0, where the boundary's
    # window switches from the data's to the whole line and the wall
    # jumps, and of the Gumbel band's edges
    edges = np.array([-XI_ZERO_TOL, 0.0, XI_ZERO_TOL])
    h_xi = min(1e-6, float(np.min(np.abs(xi - edges))) / 2.5)
    assume(h_xi > 1e-12)
    check_infeasible(np.array([log_s1, log_sx, log_sy, xi]),
                     (1e-6, 1e-6, 1e-6, h_xi))


@given(st.floats(-3.0, 3.0), st.floats(-1.0, 3.0), st.floats(-1.0, 3.0),
       st.floats(-0.8 * XI_ZERO_TOL, -0.2 * XI_ZERO_TOL))
def test_gradient_infeasible_gumbel_band(log_s1, log_sx, log_sy, xi):
    h_xi = min(-xi, XI_ZERO_TOL + xi) / 2.5
    check_infeasible(np.array([log_s1, log_sx, log_sy, xi]),
                     (1e-6, 1e-6, 1e-6, h_xi))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("xi", [5e-324, -5e-324, 1e-310, -1e-310])
@pytest.mark.parametrize("ratio", [0.5, 2.0])
def test_subnormal_shape_is_silent(xi, ratio):
    # sigma / xi overflows inside the boundary search
    value, grad = objective([0.0, math.log(4.0), math.log(4.0 * ratio), xi])
    assert math.isfinite(value) and np.all(np.isfinite(grad))


@pytest.mark.parametrize("xi", [2e-8, -1e-7, 1e-6, -1e-4, 0.2, -0.3])
@pytest.mark.parametrize("u", [1e-9, -3e-4, 0.02, -0.8, 2.5])
def test_margin_derivatives_match_high_precision(xi, u):
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    sigma = 1.7

    def exact(sig, shape):
        q = shape * mpmath.mpf(u) * sigma / sig
        return -mpmath.log1p(-q) / shape

    d_sigma, d_xi = log_exp_scale_grad(u * sigma, 0.0, sigma, xi)
    want_sigma = mpmath.diff(lambda v: exact(v, mpmath.mpf(xi)),
                             mpmath.mpf(sigma))
    want_xi = mpmath.diff(lambda v: exact(mpmath.mpf(sigma), v),
                          mpmath.mpf(xi))
    assert abs(d_sigma - float(want_sigma)) <= 1e-13 * abs(float(want_sigma))
    assert abs(d_xi - float(want_xi)) <= 1e-12 * abs(float(want_xi))


def test_margin_derivatives_in_gumbel_band():
    z = np.array([-2.0, 0.1, 3.0])
    d_sigma, d_xi = log_exp_scale_grad(z, 0.5, 2.0, 0.3 * XI_ZERO_TOL)
    assert np.array_equal(d_xi, np.zeros(3))
    h = 1e-6
    fd = (log_exp_scale(z, 0.5, 2.0 + h, 0.0)
          - log_exp_scale(z, 0.5, 2.0 - h, 0.0)) / (2.0 * h)
    assert np.allclose(d_sigma, fd, rtol=1e-8, atol=0.0)
