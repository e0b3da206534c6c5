import math

import numpy as np
import pytest

from ordext import (DomainError, GevmParams, ParameterError, TrendSpec,
                    exp_scale, exp_scale_inverse, frechet_scale,
                    gevm_survival)

# exp(-(1 - 0.2*(-1))**(-1/0.2)) = exp(-1.2**-5), frozen from direct
# evaluation of the bracket formula
SURV_AT_MU_MINUS_SIGMA = 0.6690626526678187


def test_survival_at_mu_is_inv_e():
    for sigma, xi in [(1.0, 0.0), (2.0, 0.2), (5.0, -0.3), (0.5, 0.5)]:
        p = GevmParams(150.0, sigma, xi)
        assert gevm_survival(150.0, p) == pytest.approx(math.exp(-1.0), abs=1e-14)


def test_survival_upper_endpoint_clamps_to_zero():
    p = GevmParams(150.0, 2.0, 0.2)
    top = p.mu + p.sigma / p.xi
    assert gevm_survival(top, p) == 0.0
    assert gevm_survival(top + 5.0, p) == 0.0


def test_survival_below_lower_endpoint_clamps_to_one():
    p = GevmParams(0.0, 1.0, -0.3)
    assert gevm_survival(p.mu + p.sigma / p.xi - 1.0, p) == 1.0


def test_survival_frozen_value():
    p = GevmParams(150.0, 2.0, 0.2)
    assert gevm_survival(148.0, p) == pytest.approx(SURV_AT_MU_MINUS_SIGMA, rel=1e-12)
    # independent direct evaluation of the bracket
    assert gevm_survival(148.0, p) == pytest.approx(
        math.exp(-(1.0 + 0.2 * 2.0 / 2.0) ** (-5.0)), rel=1e-12)


def test_survival_monotone_in_z():
    p = GevmParams(10.0, 3.0, 0.2)
    z = np.linspace(-50.0, 24.9, 500)
    s = gevm_survival(z, p)
    assert np.all(np.diff(s) <= 0.0)


def test_exp_scale_identity_and_frozen():
    p = GevmParams(150.0, 2.0, 0.2)
    assert exp_scale(150.0, p) == pytest.approx(1.0, abs=1e-15)
    assert exp_scale(148.0, p) == pytest.approx(1.2 ** -5.0, rel=1e-13)
    assert exp_scale(148.0, p) == pytest.approx(-math.log(gevm_survival(148.0, p)), rel=1e-10)


def test_exp_scale_round_trip():
    for xi in (-0.3, 0.0, 0.2, 0.5):
        p = GevmParams(7.0, 1.5, xi)
        for z in (5.0, 6.9, 7.0, 8.5):
            if xi > 0 and z >= p.mu + p.sigma / xi:
                continue
            e = exp_scale(z, p)
            assert exp_scale_inverse(e, p) == pytest.approx(z, rel=1e-10, abs=1e-10)


def test_exp_scale_outside_support_raises():
    p = GevmParams(0.0, 1.0, 0.5)
    with pytest.raises(DomainError):
        exp_scale(p.mu + p.sigma / p.xi + 0.1, p)
    with pytest.raises(DomainError):
        exp_scale_inverse(0.0, p)
    with pytest.raises(DomainError):
        exp_scale_inverse(-1.0, p)


def test_exp_scale_inverse_median_and_unit():
    p = GevmParams(3.0, 2.0, 0.2)
    assert exp_scale_inverse(1.0, p) == pytest.approx(p.mu, abs=1e-12)
    z_med = exp_scale_inverse(-math.log(0.5), p)
    assert gevm_survival(z_med, p) == pytest.approx(0.5, abs=1e-12)
    # frozen closed-form inversion
    assert exp_scale_inverse(0.401877572016, GevmParams(150.0, 2.0, 0.2)) == \
        pytest.approx(148.0, abs=1e-9)


def test_exp_scale_strictly_increasing_on_grid():
    for xi in (-0.3, 0.0, 0.2, 0.5):
        p = GevmParams(0.0, 1.0, xi)
        lo = p.mu + p.sigma / xi + 1e-6 if xi < 0 else -30.0
        hi = p.mu + p.sigma / xi - 1e-6 if xi > 0 else 30.0
        z = np.linspace(lo, hi, 1001)
        e = exp_scale(z, p)
        assert np.all(np.diff(e) > 0.0)


def test_xi_to_zero_continuity():
    p_small = GevmParams(0.0, 1.0, 1e-8)
    p_zero = GevmParams(0.0, 1.0, 0.0)
    z = np.linspace(-3.0, 3.0, 41)
    a = exp_scale(z, p_small)
    b = exp_scale(z, p_zero)
    assert np.max(np.abs(a - b) / b) <= 1e-6


def test_frechet_scale_involution():
    assert frechet_scale(1.0) == 1.0
    assert frechet_scale(2.0) == 0.5
    assert frechet_scale(0.25) == 4.0
    for e in (0.1, 1.0, 7.3):
        assert frechet_scale(frechet_scale(e)) == pytest.approx(e, rel=1e-15)
    with pytest.raises(DomainError):
        frechet_scale(0.0)


def test_simulated_survival_matches_formula():
    # empirical survival of exp_scale_inverse(E) draws vs gevm_survival,
    # within 3 binomial standard errors at each checkpoint
    rng = np.random.default_rng(42)
    p = GevmParams(100.0, 4.0, 0.2)
    n = 1_000_000
    z = exp_scale_inverse(rng.exponential(size=n), p)
    for zq in (85.0, 95.0, 100.0, 108.0, 115.0):
        target = gevm_survival(zq, p)
        emp = float(np.mean(z > zq))
        se = math.sqrt(target * (1.0 - target) / n)
        assert abs(emp - target) <= 3.0 * se


def test_parameter_validation():
    with pytest.raises(ParameterError):
        GevmParams(0.0, 0.0, 0.1)
    with pytest.raises(ParameterError):
        GevmParams(0.0, -2.0, 0.1)
    with pytest.raises(ParameterError):
        GevmParams(math.nan, 1.0, 0.1)


def test_trend_spec():
    t = np.array([0.0, 0.5, 1.0])
    assert np.allclose(TrendSpec.constant(5.0).resolve(t), 5.0)
    assert np.allclose(TrendSpec.linear(100.0, -40.0).resolve(t),
                       [100.0, 80.0, 60.0])
    tab = TrendSpec.tabulated([1.0, 2.0, 3.0])
    assert np.allclose(tab.resolve(t), [1.0, 2.0, 3.0])
    with pytest.raises(ParameterError):
        tab.resolve(np.array([0.0, 1.0]))
    with pytest.raises(ParameterError):
        TrendSpec(kind="quadratic")


@pytest.mark.parametrize("xi", [2e-8, 1e-6, -1e-6, 1e-4, 0.2, -0.3])
def test_exp_scale_matches_high_precision_reference(xi):
    mpmath = pytest.importorskip("mpmath")
    p = GevmParams(1.5, 2.0, xi)
    z = np.linspace(-3.0, 5.0, 33)
    got = exp_scale(z, p)
    with mpmath.workdps(40):
        want = [mpmath.power(1 - mpmath.mpf(xi) * (mpmath.mpf(float(v)) - p.mu)
                             / p.sigma, -1 / mpmath.mpf(xi)) for v in z]
    rel = max(abs(float((mpmath.mpf(float(g)) - w) / w))
              for g, w in zip(got, want))
    assert rel <= 1e-14
