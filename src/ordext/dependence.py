"""Parametric dependence-function families for ordered bivariate extremes.

Each family describes a finite spectral measure H on [0, 1] whose first
moments both equal 1, through four linked views:

    A(w)      the convex dependence function, A(0) = A(1) = 1 and
              max(w, 1-w) <= A(w) <= 1,
    A'(w)     its derivative, with H(w) = A'(w) + 1,
    h(w)      the density of H (A''), zero outside the family support,
    atoms     point masses of H, at the endpoints and, for the piecewise
              linear s = 1 boundary case, in the interior.

The argument w is the y-fraction: with exponential-scale coordinates
(x, y), the measure function factorises as V(x, y) = (x+y) A(y/(x+y)).
Ordering X < Y forces h(w) = 0 on [0, c] for a boundary constant c, which
is what the restricted family encodes.

Conventions: A'(w) at a kink is the right derivative (so that H stays the
right-continuous measure function of [0, w]); H(1) is the total mass 2,
so A'(1) = 1.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError, ParameterError

DEFAULT_QUAD_TOL = 1e-10


# ---------------------------------------------------------------------------
# parameter records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AsymLogisticParams:
    """Asymmetric logistic family: weights theta1, theta2 and strength s."""

    theta1: float
    theta2: float
    s: float

    def __post_init__(self):
        if not (0.0 <= self.theta1 <= 1.0 and 0.0 <= self.theta2 <= 1.0):
            raise ParameterError("theta1 and theta2 must lie in [0, 1]")
        if not self.s >= 1.0:
            raise ParameterError("dependence strength s must be >= 1")


@dataclass(frozen=True)
class RestrictedLogisticParams:
    """Logistic family with spectral density restricted to (c, 1), c < 1/2."""

    c: float
    s: float

    def __post_init__(self):
        if not (0.0 <= self.c < 0.5):
            raise ParameterError("ordering boundary c must lie in [0, 1/2)")
        if not self.s >= 1.0:
            raise ParameterError("dependence strength s must be >= 1")


@dataclass(frozen=True)
class UpperRestrictedParams:
    """Mirror family with spectral density restricted to (0, c), c > 1/2."""

    c: float
    s: float

    def __post_init__(self):
        if not (0.5 < self.c <= 1.0):
            raise ParameterError("upper boundary c must lie in (1/2, 1]")
        if not self.s >= 1.0:
            raise ParameterError("dependence strength s must be >= 1")


@dataclass(frozen=True)
class IntervalRestrictedParams:
    """Spectral density restricted to (c1, c2) with c1 < 1/2 < c2."""

    c1: float
    c2: float
    s: float

    def __post_init__(self):
        if not (0.0 <= self.c1 < 0.5 < self.c2 <= 1.0):
            raise ParameterError("need 0 <= c1 < 1/2 < c2 <= 1")
        if not self.s >= 1.0:
            raise ParameterError("dependence strength s must be >= 1")


@dataclass(frozen=True)
class NadarajahGeneralParams:
    """General logistic-type spectral density on (a, b) with endpoint atoms."""

    a: float
    b: float
    gamma1: float
    gamma2: float
    s: float

    def __post_init__(self):
        if not (0.0 <= self.a < 0.5 <= self.b <= 1.0):
            raise ParameterError("need 0 <= a < 1/2 <= b <= 1")
        if not self.s > 1.0:
            raise ParameterError("the general density requires s > 1")
        if self.gamma1 < 0 or self.gamma2 < 0:
            raise ParameterError("atom masses must be nonnegative")
        if self.gamma1 + self.gamma2 >= 2.0:
            raise ParameterError("atom masses must sum below 2")
        span = self.b - self.a
        if self.gamma2 > (1.0 - 2.0 * self.a) / span + 1e-12:
            raise ParameterError("gamma2 exceeds (1-2a)/(b-a)")
        if self.gamma1 > (2.0 * self.b - 1.0) / span + 1e-12:
            raise ParameterError("gamma1 exceeds (2b-1)/(b-a)")


@dataclass(frozen=True)
class DependenceEval:
    """All four views of a family at one point, plus endpoint atoms."""

    a_val: float
    a_prime: float
    h_val: float
    H_val: float
    atom0: float
    atom1: float


def _array_method(f):
    """Accept scalars or arrays; return floats for scalar input."""

    @functools.wraps(f)
    def wrapper(self, w):
        arr = np.asarray(w, dtype=float)
        scalar = arr.ndim == 0
        out = f(self, np.atleast_1d(arr))
        return np.asarray(out)[..., 0].tolist() if scalar else out

    return wrapper


def _check_unit_interval(w):
    arr = np.asarray(w, dtype=float)
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise DomainError("fraction must lie in [0, 1]")


# ---------------------------------------------------------------------------
# internal: the logistic kernel.  Every logistic family is an affine image
# of the asymmetric logistic, A = (1-t1) w + (1-t2)(1-w) + L with
# L = (p^s + q^s)^(1/s), p = t1 w, q = t2 (1-w).  L is of order 1 in
# (p, q), its slope of order 0 and its second derivative of order -3, so
# all of A, A', h and H are taken from p and q divided by the larger one:
# no power underflows where p^s or q^s would (weights near 1e-135, or c
# within 1e-7 of 1/2 at large s).  One pass gives the sampler and the
# joint density A, A' and h together.
# ---------------------------------------------------------------------------

def _logistic(u, v, t1, t2, s, density=False):
    """L = (p^s + q^s)^(1/s) at p = t1 u, q = t2 v, and its slope
    t1 L_p - t2 L_q along u - v, both from the same three powers.

    density=True adds, from the same powers, the density
    (s-1) (t1 t2)^2 (pq)^(s-2) (p^s + q^s)^(1/s-2) for u, v > 0: the
    second derivative along u - v where u + v = 1.  It is 0 at s = 1, may
    be inf next to u = 0 or v = 0 at s < 2, and is NaN at them.  All
    three are of degree 1 in (t1, t2); in (u, v) L is of order 1, the
    slope of order 0 and the density of order -3.
    """
    p, q = t1 * u, t2 * v
    top = np.maximum(p, q)
    p, q = p / top, q / top
    ps, qs = p ** (s - 1.0), q ** (s - 1.0)
    tot = ps * p + qs * q
    # the sampler calls this at every step; freeing p and q here and
    # reusing top for L lower the peak memory of each call
    del p, q
    r = tot ** (1.0 / s)
    slope = (t1 * ps - t2 * qs) * r / tot
    if not density:
        top *= r
        return top, slope
    if s > 1.0:
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            dens = ((s - 1.0) * (t1 / top) * (t2 / top) * top
                    * (ps / u) * (qs / v) * r / (tot * tot))
    else:   # the factor s - 1 is 0, also where 1/u or 1/v overflows
        dens = np.zeros_like(top)
    top *= r
    return top, slope, dens


# ---------------------------------------------------------------------------
# internal: integrals against dH, by parts on a tanh-sinh rule
# ---------------------------------------------------------------------------

# Tanh-sinh (double-exponential) rule of Takahasi & Mori (Publ. RIMS 1974)
# on [0, 1]: nodes (1 + tanh(pi/2 sinh t))/2 at t = j h, |t| <= 3.2.  The
# endpoint clustering absorbs the algebraic cusps H has at the support
# ends.  Nodes are kept as gaps to the nearer end, 1/(1 + exp(pi sinh|t|)),
# so that they resolve distances far below the rounding unit of the ends.
_TS_STEP = 2.0 ** -5
_ts_t = _TS_STEP * np.arange(int(3.2 / _TS_STEP) + 1)
_ts_gap = 1.0 / (1.0 + np.exp(np.pi * np.sinh(_ts_t)))
_ts_wt = 0.25 * np.pi * _TS_STEP * np.cosh(_ts_t) \
    / np.cosh(0.5 * np.pi * np.sinh(_ts_t)) ** 2
# left half (centre included) measured from the lower end, right half
# from the upper end; the half-step sub-rule keeps the even j at twice the
# weight, and the gap between the two rules is the error estimate
_TS_GAP_LO = _ts_gap[::-1]
_TS_GAP_HI = _ts_gap[1:]
_TS_W = np.concatenate([_ts_wt[::-1], _ts_wt[1:]])
_ts_half = np.where(np.arange(_ts_t.size) % 2 == 0, 2.0 * _ts_wt, 0.0)
_TS_W_HALF = np.concatenate([_ts_half[::-1], _ts_half[1:]])
_TS_ROUNDS = 12
_TS_MAX_SEGMENTS = 64


def _integrate_dH(model, edges, slopes, f_one, tol):
    """Integral of f against dH over [0, 1], by parts against H.

    f is continuous and linear on each segment between consecutive
    ``edges`` (which run from 0 to 1), with ``slopes[i]`` on segment i,
    and f(1) = ``f_one``.  Since H(0-) = 0 and H counts every atom,

        int f dH = f(1) H(1) - sum_i slopes[i] int_{segment i} H(w) dw,

    and H is bounded where the density h is not.  Each round evaluates H
    once, vectorised over every open segment's nodes; a segment whose
    error estimate, times |slope|, exceeds its width-share of ``tol`` is
    bisected for the next round.  Raises NumericError when H is not
    finite or the rounds or segments run out.
    """
    lo = np.asarray(edges[:-1], dtype=float)
    hi = np.asarray(edges[1:], dtype=float)
    slopes = np.asarray(slopes, dtype=float)
    value = spent = 0.0
    end = [edges[-1]]       # H(1) rides on the first round's call
    for _ in range(_TS_ROUNDS):
        d = hi - lo
        # H is right-continuous, so an upper node that rounds onto the
        # segment end would pick up an atom sitting there
        nodes = np.concatenate(
            [lo[:, None] + d[:, None] * _TS_GAP_LO,
             np.minimum(hi[:, None] - d[:, None] * _TS_GAP_HI,
                        np.nextafter(hi, lo)[:, None])], axis=1)
        with np.errstate(all="ignore"):
            hv = np.asarray(model.H(np.append(nodes.ravel(), end)), dtype=float)
        if not np.all(np.isfinite(hv)):
            raise NumericError("measure function is not finite",
                               achieved_tol=math.inf)
        if end:
            value, end = f_one * hv[-1], []
            hv = hv[:-1]
        hv = hv.reshape(nodes.shape)
        full = d * (hv @ _TS_W)
        err = np.abs(slopes * (full - d * (hv @ _TS_W_HALF)))
        ok = err <= tol * d        # the segment's width-share of tol
        value -= float(np.sum(slopes[ok] * full[ok]))
        spent += float(np.sum(err[ok]))
        if ok.all():
            return float(value)
        lo, hi, slopes = lo[~ok], hi[~ok], slopes[~ok]
        if 2 * lo.size > _TS_MAX_SEGMENTS:
            break
        mid = 0.5 * (lo + hi)
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
        slopes = np.tile(slopes, 2)
    raise NumericError("measure quadrature did not converge",
                       achieved_tol=spent + float(np.sum(err[~ok])))


class DependenceModel:
    """Shared behaviour of the parametric families."""

    params = None

    def a(self, w):
        raise NotImplementedError

    def a_prime(self, w):
        raise NotImplementedError

    def a_a_prime_h(self, w):
        """A(w), A'(w) and h(w) as a triple, for callers that need all
        three at the same fractions."""
        return self.a(w), self.a_prime(w), self.h(w)

    def h(self, w):
        raise NotImplementedError

    def H(self, w):
        raise NotImplementedError

    def support(self):
        """Open interval carrying the continuous density."""
        raise NotImplementedError

    def point_masses(self):
        """All atoms of H as (location, mass) pairs, endpoints included."""
        raise NotImplementedError

    def breakpoints(self):
        """Interior locations where the integrands are non-smooth."""
        lo, hi = self.support()
        pts = {lo, hi} | {q for q, _ in self.point_masses()}
        return sorted(p for p in pts if 0.0 < p < 1.0)

    def endpoint_atoms(self):
        a0 = a1 = 0.0
        for q, m in self.point_masses():
            if q == 0.0:
                a0 += m
            elif q == 1.0:
                a1 += m
        return a0, a1

    def ordering_floor(self):
        """Largest w below which the measure has no mass at all."""
        return 0.0

    def evaluate(self, w):
        """DependenceEval at a single fraction w in [0, 1]."""
        _check_unit_interval(w)
        a0, a1 = self.endpoint_atoms()
        return DependenceEval(
            a_val=self.a(w),
            a_prime=self.a_prime(w),
            h_val=self.h(w),
            H_val=self.H(w),
            atom0=a0,
            atom1=a1,
        )


class _LogisticModel(DependenceModel):
    """A family whose A, A' and h come from one kernel evaluation, _views."""

    @_array_method
    def a(self, w):
        return self._views(w)[0]

    @_array_method
    def a_prime(self, w):
        return self._views(w)[1]

    @_array_method
    def h(self, w):
        return self._views(w)[2]

    @_array_method
    def a_a_prime_h(self, w):
        return self._views(w)


class AsymLogisticModel(_LogisticModel):
    """Asymmetric logistic dependence.

    At s = 1, or when either weight vanishes, the continuous part
    degenerates and the family collapses to independence (A == 1 with unit
    atoms at both endpoints).  The kernel is of degree 1 in the weights,
    so it runs on the weights over the larger one, m, and its outputs are
    scaled back by m: subnormal weights leave the kernel's maximum nonzero.
    """

    def __init__(self, params: AsymLogisticParams):
        if not isinstance(params, AsymLogisticParams):
            params = AsymLogisticParams(*params)
        self.params = params
        self._degenerate = params.s == 1.0 or params.theta1 == 0.0 or params.theta2 == 0.0
        self._m = max(params.theta1, params.theta2)

    def _kernel(self, w, density=False):
        p, m = self.params, self._m
        return [m * k for k in _logistic(w, 1.0 - w, p.theta1 / m,
                                         p.theta2 / m, p.s, density)]

    def _views(self, w):
        p = self.params
        if self._degenerate:
            a, ap, h = np.ones_like(w), np.zeros_like(w), np.zeros_like(w)
        else:
            part, slope, h = self._kernel(w, density=True)
            ends = (w == 0.0) | (w == 1.0)
            a = (1.0 - p.theta1) * w + (1.0 - p.theta2) * (1.0 - w) + part
            a[ends] = 1.0
            ap = p.theta2 - p.theta1 + slope
            h[ends] = 0.0
        ap[w == 1.0] = 1.0      # H(1) = 2 counts the atom at 1
        return a, ap, h

    @_array_method
    def H(self, w):
        p = self.params
        if self._degenerate:
            out = np.ones_like(w)
        else:
            out = p.theta2 - p.theta1 + self._kernel(w)[1] + 1.0
        out[w >= 1.0] = 2.0
        return out

    def support(self):
        return (0.0, 1.0)

    def point_masses(self):
        p = self.params
        if self._degenerate:
            return [(0.0, 1.0), (1.0, 1.0)]
        masses = []
        if p.theta1 < 1.0:
            masses.append((0.0, 1.0 - p.theta1))
        if p.theta2 < 1.0:
            masses.append((1.0, 1.0 - p.theta2))
        return masses


class AffineLogisticModel(_LogisticModel):
    """Logistic spectral density confined to (c1, c2), c1 < 1/2 < c2.

    The asymmetric logistic with theta1 = 2 c2 - 1, theta2 = 1 - 2 c1,
    mapped onto (c1, c2) by u = (w - c1)/(c2 - c1).  The logistic kernel
    is homogeneous, so it is evaluated at the distances w - c1 and c2 - w
    themselves: A, A' and H pick up one factor 1/(c2 - c1), and h the
    factor c2 - c1.  Outside the interval A follows its linear tails 1 - w
    and w.  c2 = 1 is the restricted family, c1 = 0 the upper one.  Build
    it through one of those three subclasses, whose parameter records
    check (c1, c2, s).
    """

    def __init__(self, c1, c2, s):
        self.c1, self.c2, self.s = c1, c2, s
        self.al, self.be = 2.0 * c2 - 1.0, 1.0 - 2.0 * c1

    def _views(self, w):
        c1, c2, span = self.c1, self.c2, self.c2 - self.c1
        # the kernel runs at every w, clipped onto [c1, c2], and the linear
        # tails take over outside: A = 1 - w up to and at c1, w from c2 on.
        # No subset of w is taken, whose size would vary from call to call.
        lo, hi = w <= c1, w >= c2
        tail = lo | hi
        u, v = np.maximum(w - c1, 0.0), np.maximum(c2 - w, 0.0)
        part, slope, dens = _logistic(u, v, self.al, self.be, self.s,
                                      density=True)
        a = np.where(tail, np.where(lo, 1.0 - w, w),
                     ((1.0 - c2) * u + c1 * v + part) / span)
        ap = np.where(tail, np.where(lo, -1.0, 1.0),
                      (1.0 - c2 - c1 + slope) / span)
        h = np.where(tail, 0.0, span * dens)
        if self.s == 1.0:   # right derivative at c1: the atomic case's slope
            ap[w == c1] = (1.0 - c2 - c1 + self.al - self.be) / span
        return a, ap, h

    # at s = 1 the kernel's powers are all 1: H is constant on [c1, c2)
    # (the atom at c1)

    @_array_method
    def H(self, w):
        c1, c2, span = self.c1, self.c2, self.c2 - self.c1
        out = np.zeros_like(w)
        mid = (w >= c1) & (w < c2)
        wm = w[mid]
        slope = _logistic(wm - c1, c2 - wm, self.al, self.be, self.s)[1]
        out[mid] = (self.be + slope) / span
        out[w >= c2] = 2.0
        return out

    def support(self):
        return (self.c1, self.c2)

    def point_masses(self):
        c1, c2 = self.c1, self.c2
        if self.s > 1.0:
            return []
        # s = 1: all mass sits in two atoms, at the interval ends
        span = c2 - c1
        return [(c1, (2.0 * c2 - 1.0) / span), (c2, (1.0 - 2.0 * c1) / span)]

    def ordering_floor(self):
        return self.c1


class RestrictedLogisticModel(AffineLogisticModel):
    """Logistic dependence whose density vanishes on [0, c], encoding X < Y."""

    def __init__(self, params: RestrictedLogisticParams):
        if not isinstance(params, RestrictedLogisticParams):
            params = RestrictedLogisticParams(*params)
        super().__init__(params.c, 1.0, params.s)
        self.params = params


class UpperRestrictedModel(AffineLogisticModel):
    """Mirror image of the restricted family: density on (0, c), c > 1/2."""

    def __init__(self, params: UpperRestrictedParams):
        if not isinstance(params, UpperRestrictedParams):
            params = UpperRestrictedParams(*params)
        super().__init__(0.0, params.c, params.s)
        self.params = params


class IntervalRestrictedModel(AffineLogisticModel):
    """Density confined to (c1, c2); linear tails 1 - w and w outside."""

    def __init__(self, params: IntervalRestrictedParams):
        if not isinstance(params, IntervalRestrictedParams):
            params = IntervalRestrictedParams(*params)
        super().__init__(params.c1, params.c2, params.s)
        self.params = params


class PointMassModel(DependenceModel):
    """Purely atomic spectral measure, for reference cases.

    independence() has unit atoms at 0 and 1 (A == 1); perfect dependence
    is a single atom of mass 2 at 1/2 (A == max(w, 1-w)).
    """

    def __init__(self, masses):
        masses = [(float(q), float(m)) for q, m in masses]
        for q, m in masses:
            if not (0.0 <= q <= 1.0) or m < 0.0:
                raise ParameterError("atoms need locations in [0,1] and mass >= 0")
        self.masses = masses

    @classmethod
    def independence(cls):
        return cls([(0.0, 1.0), (1.0, 1.0)])

    @classmethod
    def perfect_dependence(cls):
        return cls([(0.5, 2.0)])

    @_array_method
    def a(self, w):
        out = np.zeros_like(w)
        for q, m in self.masses:
            out += m * np.maximum((1.0 - w) * q, w * (1.0 - q))
        return out

    @_array_method
    def a_prime(self, w):
        out = np.zeros_like(w)
        for q, m in self.masses:
            out += m * np.where(w >= q, 1.0 - q, -q)
        return out

    @_array_method
    def h(self, w):
        return np.zeros_like(w)

    @_array_method
    def H(self, w):
        out = np.zeros_like(w)
        for q, m in self.masses:
            out += m * (w >= q)
        return out

    def support(self):
        return (0.0, 0.0)

    def point_masses(self):
        return list(self.masses)


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------

def nadarajah_density(w, params: NadarajahGeneralParams):
    """General logistic-type spectral density on (a, b), zero elsewhere.

    With a = 0, b = 1 this is the asymmetric-logistic density at
    theta1 = theta2 = 1; with a = c, b = 1 it is the restricted density.
    """
    _check_unit_interval(w)
    return AffineLogisticModel(params.a, params.b, params.s).h(w)


def a_numeric_oracle(w, h, atom0=0.0, atom1=0.0, *, interior_atoms=(),
                     breakpoints=(), tol=DEFAULT_QUAD_TOL):
    """Brute-force A(w) by adaptive quadrature of the spectral integral.

    Integrates max{(1-w) q, w (1-q)} against the density h over [0, 1],
    splitting at the kink q = w and at any supplied support breakpoints,
    then adds the atom contributions.  Raises NumericError when the
    quadrature error estimate exceeds the requested tolerance.
    """
    from scipy.integrate import quad

    _check_unit_interval(w)
    w = float(w)

    def integrand(q):
        return max((1.0 - w) * q, w * (1.0 - q)) * h(q)

    pts = sorted({p for p in list(breakpoints) + [w] if 0.0 < p < 1.0})
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        value, err = quad(integrand, 0.0, 1.0, points=pts or None,
                          epsabs=tol, epsrel=1e-12, limit=400)
    if err > max(100.0 * tol, 1e-13 * abs(value)):
        raise NumericError("spectral quadrature did not converge", achieved_tol=err)
    value += atom0 * w + atom1 * (1.0 - w)
    for q, m in interior_atoms:
        value += m * max((1.0 - w) * q, w * (1.0 - q))
    return value


def a_numeric_from_model(w, model: DependenceModel, tol=DEFAULT_QUAD_TOL):
    """a_numeric_oracle wired to a family's density, atoms and breakpoints."""
    interior = [(q, m) for q, m in model.point_masses() if 0.0 < q < 1.0]
    atom0, atom1 = model.endpoint_atoms()
    return a_numeric_oracle(w, model.h, atom0, atom1, interior_atoms=interior,
                            breakpoints=model.breakpoints(), tol=tol)


@dataclass
class ValidationCheck:
    name: str
    passed: bool
    detail: str


@dataclass
class ValidationReport:
    checks: list

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def lines(self):
        return [
            f"[{'PASS' if c.passed else 'FAIL'}] {c.name}: {c.detail}"
            for c in self.checks
        ]


def validate_dependence(model: DependenceModel, n=101,
                        moment_tol=1e-8) -> ValidationReport:
    """Check the defining properties of a dependence family on a grid.

    Verifies the endpoint values A(0) = A(1) = 1, the envelope
    max(w, 1-w) <= A <= 1, discrete convexity, and both first moments of
    the spectral measure (by quadrature of the measure function H, which
    counts the atoms).  Failures are reported, not raised.
    """
    if n < 3:
        raise ParameterError("grid size must be at least 3")
    grid = np.linspace(0.0, 1.0, n)
    avals = np.asarray(model.a(grid), dtype=float)
    checks = []

    end_err = max(abs(avals[0] - 1.0), abs(avals[-1] - 1.0))
    checks.append(ValidationCheck(
        "endpoints", end_err <= 1e-12, f"max |A(0/1) - 1| = {end_err:.3e}"))

    lower = np.maximum(grid, 1.0 - grid)
    bound_err = max(float(np.max(lower - avals)), float(np.max(avals - 1.0)))
    checks.append(ValidationCheck(
        "bounds", bound_err <= 1e-12,
        f"worst envelope violation = {bound_err:.3e}"))

    convex_gap = float(np.min(avals[:-2] + avals[2:] - 2.0 * avals[1:-1]))
    checks.append(ValidationCheck(
        "convexity", convex_gap >= -1e-12,
        f"min discrete second difference = {convex_gap:.3e}"))

    # both moments by parts against the bounded measure function H, which
    # counts the atoms (the density h itself is singular at the support
    # ends as s -> 1+)
    edges = [0.0, *model.breakpoints(), 1.0]
    for name, slope, f_one in (("moment_q", 1.0, 1.0),
                               ("moment_1mq", -1.0, 0.0)):
        try:
            moment = _integrate_dH(model, edges,
                                   np.full(len(edges) - 1, slope), f_one, 1e-13)
        except NumericError as exc:
            checks.append(ValidationCheck(name, False, str(exc)))
            continue
        checks.append(ValidationCheck(
            name, abs(moment - 1.0) <= moment_tol,
            f"moment from the measure function = {moment:.12f}"))

    return ValidationReport(checks)


FAMILY_BUILDERS = {
    "asymmetric": lambda **kw: AsymLogisticModel(
        AsymLogisticParams(kw["theta1"], kw["theta2"], kw["s"])),
    "restricted": lambda **kw: RestrictedLogisticModel(
        RestrictedLogisticParams(kw["c"], kw["s"])),
    "upper": lambda **kw: UpperRestrictedModel(
        UpperRestrictedParams(kw["c"], kw["s"])),
    "interval": lambda **kw: IntervalRestrictedModel(
        IntervalRestrictedParams(kw["c1"], kw["c2"], kw["s"])),
}


def make_model(family, **kwargs) -> DependenceModel:
    """Build a family by name; unknown names raise ParameterError."""
    try:
        builder = FAMILY_BUILDERS[family]
    except KeyError:
        raise ParameterError(f"unknown dependence family {family!r}") from None
    try:
        return builder(**kwargs)
    except KeyError as exc:
        raise ParameterError(f"family {family!r} needs parameter {exc}") from None
