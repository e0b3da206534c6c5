import math

import numpy as np
import pytest

from ordext import (AsymLogisticParams, DomainError, IntervalRestrictedParams,
                    NadarajahGeneralParams, ParameterError, PointMassModel,
                    RestrictedLogisticParams, UpperRestrictedParams,
                    a_numeric_oracle, make_model, nadarajah_density,
                    validate_dependence)
from ordext.dependence import (AffineLogisticModel, AsymLogisticModel,
                               IntervalRestrictedModel,
                               RestrictedLogisticModel, UpperRestrictedModel,
                               _logistic, a_numeric_from_model)

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


@pytest.mark.parametrize("a, b", [(0.2, 0.5), (0.5, 0.8), (0.0, 0.5)])
def test_general_density_needs_its_support_across_one_half(a, b):
    # at b = 1/2 (or a = 1/2) the density is 0 on [0, 1] and the atoms
    # alone carry the mass 2: not a member of the general family
    with pytest.raises(ParameterError):
        NadarajahGeneralParams(a, b, 0.0, 1.0, 2.0)


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


def test_nadarajah_density_counts_its_atoms():
    # the density once ignored gamma1 and gamma2: with the atoms added,
    # its measure had mass 2.25-3.88 instead of 2
    from scipy.integrate import quad
    rng = np.random.default_rng(11)
    for _ in range(20):
        a, b = rng.uniform(0.0, 0.45), rng.uniform(0.55, 1.0)
        span = b - a
        g1 = rng.uniform(0.0, 0.9) * (2.0 * b - 1.0) / span
        g2 = rng.uniform(0.0, 0.9) * (1.0 - 2.0 * a) / span
        p = NadarajahGeneralParams(a, b, g1, g2, rng.uniform(1.5, 6.0))
        moments = [quad(lambda q: f(q) * nadarajah_density(q, p), a, b,
                        epsabs=1e-11, limit=200)[0]
                   for f in (lambda q: 1.0, lambda q: q)]
        assert moments[0] + g1 + g2 == pytest.approx(2.0, abs=1e-7), p
        assert moments[1] + a * g1 + b * g2 == pytest.approx(1.0, abs=1e-7), p
    grid = np.linspace(0.0, 1.0, 101)
    for g1, g2, s in ((0.3, 0.6, 2.5), (0.0, 0.9, 1.5), (1.0, 0.2, 4.0)):
        asym = AsymLogisticModel(AsymLogisticParams(1.0 - g1, 1.0 - g2, s))
        general = NadarajahGeneralParams(0.0, 1.0, g1, g2, s)
        assert np.allclose(nadarajah_density(grid, general), asym.h(grid),
                           rtol=1e-12, atol=0.0)


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


def _masked_H(m, w):
    """H of an affine family with the kernel taken on the support only, as
    it was before H ran the kernel on clipped distances."""
    out = np.zeros_like(w)
    mid = (w >= m.c1) & (w < m.c2)
    slope = _logistic(w[mid] - m.c1, m.c2 - w[mid], m.al, m.be, m.s)[1]
    out[mid] = (m.be + slope) / (m.c2 - m.c1)
    out[w >= m.c2] = 2.0
    return out


def test_affine_H_is_bit_identical_to_the_masked_form():
    # the asymmetric cases of ALL_FAMILY_CASES have no support ends to clip
    affine = [m for m in ALL_FAMILY_CASES if isinstance(m, AffineLogisticModel)]
    assert len(affine) == 8
    for m in affine:
        ends = [0.0, m.c1, m.c2, 1.0]
        w = np.unique(np.concatenate([
            np.linspace(0.0, 1.0, 401), ends,
            np.nextafter(ends, 0.5), [m.c1 + 1e-12, m.c2 - 1e-12]]))
        assert np.array_equal(m.H(w), _masked_H(m, w)), m.params
        for v in ends:
            assert m.H(v) == _masked_H(m, np.array([v]))[0], (m.params, v)


def test_validator_passes_for_families():
    # the last two put the logistic turnover about 1e-7 from a support end,
    # where H climbs over a width of order 1e-7 / s
    for model in (make_model("restricted", c=0.3, s=1.5),
                  make_model("asymmetric", theta1=0.4, theta2=0.7, s=3.0),
                  make_model("asymmetric", theta1=1.0, theta2=1.2e-7, s=4.0),
                  make_model("restricted", c=0.4999999, s=48.0)):
        report = validate_dependence(model)
        assert report.passed, (model.params, report.lines())


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
    # H and A' share the logistic kernel's slope, so this checks how each
    # family maps it (constants, the 1/(c2 - c1) factor, tails and masks);
    # test_density_is_second_derivative checks A' against A itself
    for m in ALL_FAMILY_CASES:
        for w in (0.0, 1.0):    # exactly, where H counts the end atoms
            assert m.H(w) == m.a_prime(w) + 1.0, (type(m).__name__, m.params, w)
        lo, hi = m.support()
        kinks = {q for q, _ in m.point_masses()} | {lo, hi}
        for w in np.linspace(0.02, 0.98, 49):
            if any(abs(w - k) < 0.02 for k in kinks):
                continue
            assert abs(m.H(float(w)) - (m.a_prime(float(w)) + 1.0)) <= 1e-8, \
                (type(m).__name__, m.params, w)


def test_one_pass_views_equal_each_view():
    # a_a_prime_h is the sampler's and the joint density's single kernel
    # pass; it must give the same bits as the three views one by one
    for m in ALL_FAMILY_CASES + [PointMassModel.perfect_dependence()]:
        grid = np.unique(np.concatenate(
            [np.linspace(0.0, 1.0, 401), m.breakpoints(), [0.0, 1.0]]))
        a, a_prime, h = m.a_a_prime_h(grid)
        for got, view in ((a, m.a), (a_prime, m.a_prime), (h, m.h)):
            assert np.array_equal(got, view(grid)), (type(m).__name__, view)
        assert list(m.a_a_prime_h(0.5)) == [m.a(0.5), m.a_prime(0.5), m.h(0.5)]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("s", [48.0, 60.0])
def test_measure_function_finite_where_powers_underflow(s):
    # an end within 1e-7 of 1/2: (1 - 2c)^s or (2c - 1)^s underflows at
    # these s; all four views stay finite and consistent
    for family, params in (("restricted", {"c": 0.4999999}),
                           ("upper", {"c": 0.5000001}),
                           ("interval", {"c1": 0.4999999, "c2": 0.75})):
        m = make_model(family, s=s, **params)
        ends = list(m.support())
        w = np.unique(np.concatenate(
            [np.linspace(0.0, 1.0, 201), ends]
            + [np.clip(e + sign * np.logspace(-12, -6, 25), 0.0, 1.0)
               for e in ends for sign in (-1.0, 1.0)]))
        a, a_prime, h, measure = m.a(w), m.a_prime(w), m.h(w), m.H(w)
        assert np.all(a >= np.maximum(w, 1.0 - w) - 1e-15), family
        assert np.all(a <= 1.0), family
        assert np.all(np.isfinite(a_prime)) and np.all(np.isfinite(h)), family
        assert np.all(np.isfinite(measure)), family
        assert np.all(np.diff(measure) >= 0.0), family
        assert np.max(np.abs(measure - (a_prime + 1.0))) <= 1e-15, family
        assert m.H(1.0) == 2.0


def test_density_is_second_derivative():
    # A' is checked here too, against a central difference of A: a check
    # that does not go through the kernel's slope, which H shares
    for m in ALL_FAMILY_CASES:
        if m.params.s == 1.0:
            continue
        lo, hi = m.support()
        eps = 1e-4
        for w in np.linspace(lo + 0.08, hi - 0.08, 7):
            # a step of 1e-6 puts the truncation error far below 1e-6
            # relative; the absolute floor is the difference's rounding noise
            slope = float(m.a(w + 1e-6) - m.a(w - 1e-6)) / 2e-6
            assert slope == pytest.approx(m.a_prime(float(w)), rel=1e-6,
                                          abs=1e-9)
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


def test_subnormal_asymmetric_weight_is_the_zero_weight():
    # the kernel's weights were once divided by 2, which took 5e-324 to 0
    # after the model had been judged not flat: "invalid value" in every
    # view, and in the validator and the sampler
    tiny = AsymLogisticModel(AsymLogisticParams(5e-324, 1.0, 2.0))
    zero = AsymLogisticModel(AsymLogisticParams(0.0, 1.0, 2.0))
    w = np.linspace(0.0, 1.0, 1001)
    for view in ("a", "a_prime", "h", "H"):
        assert np.array_equal(getattr(tiny, view)(w),
                              getattr(zero, view)(w)), view
    assert validate_dependence(tiny).passed


@pytest.mark.parametrize("record, args", [
    (AsymLogisticParams, (0.5, 0.5, math.inf)),
    (RestrictedLogisticParams, (0.25, math.inf)),
    (UpperRestrictedParams, (0.75, math.inf)),
    (IntervalRestrictedParams, (0.25, 0.75, math.inf)),
    (NadarajahGeneralParams, (0.2, 0.8, 0.1, 0.1, math.inf)),
    (NadarajahGeneralParams, (0.2, 0.8, math.nan, 0.1, 2.0)),
    (NadarajahGeneralParams, (0.2, 0.8, 0.1, math.nan, 2.0)),
], ids=["asymmetric_s", "restricted_s", "upper_s", "interval_s",
        "nadarajah_s", "nadarajah_gamma1", "nadarajah_gamma2"])
def test_records_refuse_non_finite_values(record, args):
    # s = inf once built a model whose joint density is +inf
    with pytest.raises(ParameterError):
        record(*args)


def test_make_model_builds_from_the_record_fields():
    model = make_model("interval", c1=0.2, c2=0.7, s=3.0, c=0.9, theta1=5.0)
    assert type(model) is IntervalRestrictedModel
    assert model.params == IntervalRestrictedParams(0.2, 0.7, 3.0)
    assert IntervalRestrictedModel((0.2, 0.7, 3.0)).params == model.params
    with pytest.raises(ParameterError, match="family 'asymmetric' needs "
                                             "parameter 'theta2'"):
        make_model("asymmetric", theta1=0.5, s=2.0)
