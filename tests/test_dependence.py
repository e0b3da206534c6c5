import math

import numpy as np
import pytest

from ordext import (AsymLogisticParams, DomainError, IntervalRestrictedParams,
                    NadarajahGeneralParams, ParameterError, PointMassModel,
                    RestrictedLogisticParams, UpperRestrictedParams,
                    a_numeric_oracle, make_model, nadarajah_density,
                    validate_dependence)
from ordext.dependence import (AsymLogisticModel, IntervalRestrictedModel,
                               RestrictedLogisticModel, UpperRestrictedModel,
                               a_numeric_from_model)

ALL_FAMILY_CASES = [
    make_model("restricted", c=0.25, s=2.0),
    make_model("restricted", c=0.25, s=1.5),
    make_model("restricted", c=0.0, s=3.0),
    make_model("restricted", c=0.45, s=1.2),
    make_model("asymmetric", theta1=0.4, theta2=0.7, s=3.0),
    make_model("asymmetric", theta1=1.0, theta2=1.0, s=2.0),
    make_model("upper", c=0.75, s=2.0),
    make_model("upper", c=0.6, s=5.0),
    make_model("interval", c1=0.25, c2=0.75, s=2.0),
    make_model("interval", c1=0.1, c2=0.6, s=5.0),
]


def test_parameter_invariants():
    with pytest.raises(ParameterError):
        AsymLogisticParams(1.2, 0.5, 2.0)
    with pytest.raises(ParameterError):
        AsymLogisticParams(0.5, 0.5, 0.9)
    with pytest.raises(ParameterError):
        RestrictedLogisticParams(0.5, 2.0)
    with pytest.raises(ParameterError):
        UpperRestrictedParams(0.5, 2.0)
    with pytest.raises(ParameterError):
        IntervalRestrictedParams(0.6, 0.7, 2.0)
    with pytest.raises(ParameterError):
        NadarajahGeneralParams(0.1, 0.9, 1.5, 1.0, 2.0)


def test_asym_boundary_values():
    for p in (AsymLogisticParams(0.3, 0.9, 2.5), AsymLogisticParams(1.0, 1.0, 4.0)):
        assert AsymLogisticModel(p).evaluate(0.0).a_val == 1.0
        assert AsymLogisticModel(p).evaluate(1.0).a_val == 1.0


def test_asym_symmetric_logistic_density():
    # theta1 = theta2 = 1, s = 2 at the midpoint: 0.5**-1.5
    ev = AsymLogisticModel(AsymLogisticParams(1.0, 1.0, 2.0)).evaluate(0.5)
    assert ev.h_val == pytest.approx(2.0 ** 1.5, rel=1e-14)
    # finite-difference second derivative as the oracle
    m = AsymLogisticModel(AsymLogisticParams(1.0, 1.0, 2.0))
    eps = 1e-5
    fd = (m.a(0.5 + eps) - 2.0 * m.a(0.5) + m.a(0.5 - eps)) / eps ** 2
    assert ev.h_val == pytest.approx(fd, rel=1e-6)


def test_asym_independence_at_s1():
    p = AsymLogisticParams(1.0, 1.0, 1.0)
    for w in np.linspace(0.0, 1.0, 21):
        assert AsymLogisticModel(p).evaluate(float(w)).a_val == 1.0


def test_asym_measure_limits():
    p = AsymLogisticParams(0.4, 0.7, 3.0)
    m = AsymLogisticModel(p)
    assert m.H(1e-12) == pytest.approx(1.0 - p.theta1, abs=1e-9)
    assert m.H(1.0 - 1e-12) == pytest.approx(1.0 + p.theta2, abs=1e-9)
    assert m.endpoint_atoms() == (pytest.approx(0.6), pytest.approx(0.3))


def test_restricted_examples():
    m = RestrictedLogisticModel(RestrictedLogisticParams(0.25, 1.0))
    assert m.evaluate(0.5).a_val == pytest.approx(5.0 / 6.0, rel=1e-14)
    for s in (1.0, 1.7, 3.0):
        m = RestrictedLogisticModel(RestrictedLogisticParams(0.25, s))
        assert m.evaluate(0.1).a_val == pytest.approx(0.9, abs=1e-15)
    m = RestrictedLogisticModel(RestrictedLogisticParams(0.0, 2.0))
    assert m.evaluate(0.5).a_val == pytest.approx(math.sqrt(0.5), rel=1e-14)


def test_restricted_linear_branch_exact():
    m = RestrictedLogisticModel(RestrictedLogisticParams(0.3, 2.5))
    w = np.linspace(0.0, 0.3, 40)
    assert np.array_equal(m.a(w), 1.0 - w)
    assert np.all(m.a_prime(w[:-1]) == -1.0)
    assert np.all(m.h(w) == 0.0)


def test_restricted_continuity_at_boundary():
    for c in (0.1, 0.3, 0.45):
        for s in (1.0, 1.5, 2.5):
            m = RestrictedLogisticModel(RestrictedLogisticParams(c, s))
            assert m.a(c) == pytest.approx(1.0 - c, abs=1e-14)
            assert m.a(c + 1e-9) == pytest.approx(1.0 - c, abs=1e-7)


def test_upper_examples_and_reflection():
    m = UpperRestrictedModel(UpperRestrictedParams(0.75, 2.0))
    assert m.evaluate(0.9).a_val == 0.9
    assert m.evaluate(0.0).a_val == pytest.approx(1.0, abs=1e-15)
    grid = np.linspace(0.0, 1.0, 201)
    for c, s in [(0.75, 2.0), (0.6, 1.0), (0.9, 5.0)]:
        up = UpperRestrictedModel(UpperRestrictedParams(c, s))
        rl = RestrictedLogisticModel(RestrictedLogisticParams(1.0 - c, s))
        assert np.max(np.abs(up.a(grid) - rl.a(1.0 - grid))) <= 1e-12


def test_interval_examples():
    p = IntervalRestrictedParams(0.25, 0.75, 1.0)
    for w in (0.25, 0.4, 0.5, 0.75):
        assert IntervalRestrictedModel(p).evaluate(w).a_val == 0.75
    m = IntervalRestrictedModel(IntervalRestrictedParams(0.25, 0.75, 4.0))
    assert m.evaluate(0.25).a_val == pytest.approx(0.75, abs=1e-14)
    # c2 = 1 collapses onto the restricted family
    grid = np.linspace(0.0, 1.0, 101)
    iv = IntervalRestrictedModel(IntervalRestrictedParams(0.25, 1.0, 2.0))
    rl = RestrictedLogisticModel(RestrictedLogisticParams(0.25, 2.0))
    assert np.max(np.abs(iv.a(grid) - rl.a(grid))) <= 1e-9


def test_nadarajah_density_reductions():
    grid = np.linspace(0.01, 0.99, 50)
    full = NadarajahGeneralParams(0.0, 1.0, 0.0, 0.0, 2.0)
    sym = AsymLogisticModel(AsymLogisticParams(1.0, 1.0, 2.0))
    assert np.allclose(nadarajah_density(grid, full), sym.h(grid), rtol=1e-12)

    c = 0.25
    res_p = NadarajahGeneralParams(c, 1.0, 0.0, 0.0, 2.0)
    rl = RestrictedLogisticModel(RestrictedLogisticParams(c, 2.0))
    inner = grid[(grid > c) & (grid < 1.0)]
    assert np.allclose(nadarajah_density(inner, res_p), rl.h(inner), rtol=1e-12)

    assert nadarajah_density(0.1, res_p) == 0.0
    assert nadarajah_density(1.0, res_p) == 0.0
    with pytest.raises(DomainError):
        nadarajah_density(1.5, res_p)


def test_a_numeric_oracle_atoms_only():
    for w in np.linspace(0.0, 1.0, 11):
        assert a_numeric_oracle(float(w), lambda q: 0.0, 1.0, 1.0) == \
            pytest.approx(1.0, abs=1e-12)


def test_a_numeric_oracle_matches_closed_form():
    m = RestrictedLogisticModel(RestrictedLogisticParams(0.25, 2.0))
    for w in np.linspace(0.05, 0.95, 10):
        assert a_numeric_from_model(float(w), m) == \
            pytest.approx(m.a(float(w)), abs=1e-6)


def test_a_numeric_oracle_narrow_kernel_perfect_dependence():
    delta = 1e-4

    def kernel(q):
        return 2.0 / delta if abs(q - 0.5) <= delta / 2.0 else 0.0

    for w in (0.2, 0.5, 0.8):
        val = a_numeric_oracle(w, kernel,
                               breakpoints=(0.5 - delta / 2, 0.5, 0.5 + delta / 2))
        assert val == pytest.approx(max(w, 1.0 - w), abs=1e-3)


def test_a_numeric_oracle_reports_nonconvergence():
    from ordext import NumericError
    rough = RestrictedLogisticModel(RestrictedLogisticParams(0.45, 1.2))
    with pytest.raises(NumericError) as exc:
        a_numeric_oracle(0.5, rough.h, tol=1e-18,
                         breakpoints=rough.breakpoints())
    assert exc.value.achieved_tol is not None
    assert exc.value.achieved_tol > 0.0


def test_point_mass_models():
    ind = PointMassModel.independence()
    per = PointMassModel.perfect_dependence()
    w = np.linspace(0.0, 1.0, 21)
    assert np.allclose(ind.a(w), 1.0)
    assert np.allclose(per.a(w), np.maximum(w, 1.0 - w))


def test_validator_passes_for_families():
    report = validate_dependence(make_model("restricted", c=0.3, s=1.5))
    assert report.passed, report.lines()
    report = validate_dependence(make_model("asymmetric", theta1=0.4,
                                            theta2=0.7, s=3.0))
    assert report.passed, report.lines()


def test_validator_negative_control():
    class Corrupted(RestrictedLogisticModel):
        def a(self, w):
            base = super().a(w)
            if np.ndim(w) == 0 and w == 0.5:
                return 1.2
            return np.where(np.asarray(w) == 0.5, 1.2, base)

    report = validate_dependence(Corrupted(RestrictedLogisticParams(0.25, 2.0)))
    failed = {c.name for c in report.checks if not c.passed}
    assert "bounds" in failed


def test_validator_grid_size():
    with pytest.raises(ParameterError):
        validate_dependence(make_model("restricted", c=0.25, s=2.0), n=2)


def test_measure_function_equals_slope_plus_one():
    # H and A' come from independent closed forms; check their relation
    # away from kinks and atoms
    for m in ALL_FAMILY_CASES:
        lo, hi = m.support()
        kinks = {q for q, _ in m.point_masses()} | {lo, hi}
        for w in np.linspace(0.02, 0.98, 49):
            if any(abs(w - k) < 0.02 for k in kinks):
                continue
            assert abs(m.H(float(w)) - (m.a_prime(float(w)) + 1.0)) <= 1e-8, \
                (type(m).__name__, m.params, w)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("s", [48.0, 60.0])
def test_measure_function_finite_where_powers_underflow(s):
    # c within 1e-7 of 1/2: (1 - 2c)^s underflows at these s
    c = 0.4999999
    m = make_model("restricted", c=c, s=s)
    w = np.unique(np.concatenate([np.linspace(0.0, 1.0, 201),
                                  c + np.logspace(-12, -6, 25), [c]]))
    values = m.H(w)
    assert np.all(np.isfinite(values))
    assert np.all(np.diff(values) >= 0.0)
    assert m.H(1.0) == 2.0


def test_density_is_second_derivative():
    for m in ALL_FAMILY_CASES:
        if m.params.s == 1.0:
            continue
        lo, hi = m.support()
        eps = 1e-4
        for w in np.linspace(lo + 0.08, hi - 0.08, 7):
            h = float(m.h(float(w)))
            # below ~1e-2 the central difference of A (values near 1) sits
            # at the floating-point noise floor and cannot resolve h
            if h <= 1e-2:
                continue
            fd = float(m.a(w + eps) - 2.0 * m.a(w) + m.a(w - eps)) / eps ** 2
            assert fd == pytest.approx(h, rel=1e-4)


def test_dependence_strengthens_with_s():
    for c in (0.0, 0.25, 0.45):
        for w in (0.5, 0.7, 0.9):
            vals = [RestrictedLogisticModel(RestrictedLogisticParams(c, s))
                    .evaluate(w).a_val for s in (1.0, 1.5, 2.5, 5.0)]
            assert all(a >= b - 1e-14 for a, b in zip(vals, vals[1:]))


def test_eval_rejects_out_of_range_fraction():
    with pytest.raises(DomainError):
        RestrictedLogisticModel(RestrictedLogisticParams(0.25, 2.0)).evaluate(1.2)
