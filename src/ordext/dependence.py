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

The four logistic families are one placement of the general logistic-type
measure with end atoms (_LogisticModel): asymmetric on [0, 1], restricted
on [c, 1], upper on [0, c] and interval on [c1, c2]; nadarajah_density is
the density of that measure.

Conventions: A'(w) at a kink is the right derivative (so that H stays the
right-continuous measure function of [0, w]); H(1) is the total mass 2,
so A'(1) = 1.
"""

from __future__ import annotations

import bisect
import functools
import math
import warnings
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import DomainError, NumericError, ParameterError

DEFAULT_QUAD_TOL = 1e-10


# ---------------------------------------------------------------------------
# parameter records
# ---------------------------------------------------------------------------

# the largest dependence strength a record accepts.  The sampler's inverse
# table certifies every asymmetric model of the property sweep's weights up
# to s = 2e4, and not all of them at 3e4, where the turnover needs panels
# ~1e-9 wide; and at s = 1e308 the restricted joint density, which carries
# the factor s - 1, overflows to +inf on x = y.  The fit keeps s in
# [1 + 1e-6, 61].
_MAX_STRENGTH = 1e4


def _check_strength(s):
    if not 1.0 <= s <= _MAX_STRENGTH:
        raise ParameterError("dependence strength s must be finite and >= 1, "
                             f"and at most {_MAX_STRENGTH:g}")


@dataclass(frozen=True)
class AsymLogisticParams:
    """Asymmetric logistic family: weights theta1, theta2 and strength s."""

    theta1: float
    theta2: float
    s: float

    def __post_init__(self):
        if not (0.0 <= self.theta1 <= 1.0 and 0.0 <= self.theta2 <= 1.0):
            raise ParameterError("theta1 and theta2 must lie in [0, 1]")
        _check_strength(self.s)


@dataclass(frozen=True)
class RestrictedLogisticParams:
    """Logistic family with spectral density restricted to (c, 1), c < 1/2."""

    c: float
    s: float

    def __post_init__(self):
        if not (0.0 <= self.c < 0.5):
            raise ParameterError("ordering boundary c must lie in [0, 1/2)")
        _check_strength(self.s)


@dataclass(frozen=True)
class UpperRestrictedParams:
    """Mirror family with spectral density restricted to (0, c), c > 1/2."""

    c: float
    s: float

    def __post_init__(self):
        if not (0.5 < self.c <= 1.0):
            raise ParameterError("upper boundary c must lie in (1/2, 1]")
        _check_strength(self.s)


@dataclass(frozen=True)
class IntervalRestrictedParams:
    """Spectral density restricted to (c1, c2) with c1 < 1/2 < c2."""

    c1: float
    c2: float
    s: float

    def __post_init__(self):
        if not (0.0 <= self.c1 < 0.5 < self.c2 <= 1.0):
            raise ParameterError("need 0 <= c1 < 1/2 < c2 <= 1")
        _check_strength(self.s)


@dataclass(frozen=True)
class NadarajahGeneralParams:
    """General logistic-type spectral density on (a, b), a < 1/2 < b, with
    endpoint atoms; at b = 1/2 the density would vanish and the atoms carry
    all the mass, as at a = 1/2."""

    a: float
    b: float
    gamma1: float
    gamma2: float
    s: float

    def __post_init__(self):
        if not (0.0 <= self.a < 0.5 < self.b <= 1.0):
            raise ParameterError("need 0 <= a < 1/2 < b <= 1")
        _check_strength(self.s)
        if self.s == 1.0:
            raise ParameterError("the general density requires s > 1")
        if not (self.gamma1 >= 0.0 and self.gamma2 >= 0.0):   # NaN fails too
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


def _sorted_unique(v):
    """The distinct values of a 1-d array without NaN, in ascending order
    as np.unique gives them, by one sort; np.unique would load numpy.ma."""
    v = np.sort(v)
    keep = np.empty(v.size, dtype=bool)
    keep[:1] = True
    np.not_equal(v[1:], v[:-1], out=keep[1:])
    return v[keep]


def _check_unit_interval(w):
    arr = np.asarray(w, dtype=float)
    if not np.all((arr >= 0.0) & (arr <= 1.0)):     # NaN fails too
        raise DomainError("fraction must lie in [0, 1]")


# ---------------------------------------------------------------------------
# internal: the logistic kernel.  Every logistic family is an affine image
# of the asymmetric logistic, A = (1-t1) w + (1-t2)(1-w) + L with
# L = (p^s + q^s)^(1/s), p = t1 w, q = t2 (1-w), and the fit's closed form
# is the restricted one at p = R, q = Kx.  The kernel gives L, log a and
# log b, a = p/L and b = q/L; the slopes of L are a^(s-1) and b^(s-1),
# so every view and partial is a power of a or b, taken as an exponential
# of its log.
# ---------------------------------------------------------------------------

def _logistic(p, q, s):
    """(L, log a, log b) of L = (p^s + q^s)^(1/s), a = p/L, b = q/L, for
    p, q >= 0 not both 0; log 0 is -inf.  The logs go through log1p,
    relative to the larger of p and q: powers of p, q and L themselves
    under- or overflow at large s long before a^(s-1) and b^(s-1) do."""
    top = np.maximum(p, q)
    low = np.log(np.minimum(p, q) / top)
    log_r = np.log1p(np.exp(s * low)) / s
    p_low = p < q
    return (top * np.exp(log_r), np.where(p_low, low, 0.0) - log_r,
            np.where(p_low, 0.0, low) - log_r)


# ---------------------------------------------------------------------------
# internal: a piecewise-Chebyshev antiderivative of the measure function H
# ---------------------------------------------------------------------------

# On each panel H is interpolated at the 24 first-kind Chebyshev nodes
# cos(pi (m + 1/2)/24) of [-1, 1], none of which is a panel end, so the
# right-continuous H never picks up an atom sitting on one.  _CHEB_COEF
# takes the values to the Chebyshev coefficients a_0..a_23, a_0 doubled,
# and _CHEB_INT takes them on to the coefficients of the integral from -1,
# b_j = (a_(j-1) - a_(j+1))/(2j), with b_0 making it 0 at -1 (Trefethen,
# Approximation Theory and Approximation Practice, SIAM 2013; Battles &
# Trefethen, SIAM J. Sci. Comput. 2004).  The panels start from
# DependenceModel.graded_cuts: each segment between split_points() inside
# the support is graded geometrically toward both of its ends, which
# absorbs the algebraic cusps H has at the support ends, and its steep
# climb next to a logistic turnover that lies near one (split_points makes
# the turnover an edge).  Without the grading, a climb that falls between
# the nodes of a wide panel leaves its tail small and the integral wrong;
# outside the support H is constant, and one panel takes a segment exactly
# (atoms sit on segment ends, which no node touches).  A panel's estimated
# error is its width times the size of its last three coefficients, and
# its share of the tolerance is half by width and half equal: the width
# part keeps wide panels above the rounding of their coefficients, and the
# equal part lets through the narrow panels next to a steep climb, where H
# varies by its slope times the rounding of the nodes.  A panel over its
# share is bisected, each half with half the share.  Integrals against dH
# are taken by parts from this antiderivative G:
# DependenceModel.integrated_H builds it once per model and tolerance, and
# measure.v_numeric reads it at each point without evaluating H.
_CHEB_N = 24
_CHEB_ORDERS = np.arange(_CHEB_N + 1)
_cheb_theta = np.pi * (np.arange(_CHEB_N) + 0.5) / _CHEB_N
_CHEB_NODES = np.cos(_cheb_theta)
_CHEB_COEF = np.cos(np.outer(_cheb_theta, _CHEB_ORDERS[:-1])) * (2.0 / _CHEB_N)
_cheb_j = _CHEB_ORDERS[1:]
_cheb_int = np.zeros((_CHEB_N, _CHEB_N + 1))
_cheb_int[_cheb_j - 1, _cheb_j] = 0.5 / _cheb_j
_cheb_int[_cheb_j[:-2] + 1, _cheb_j[:-2]] = -0.5 / _cheb_j[:-2]
_cheb_int[:, 0] = -_cheb_int[:, 1:] @ (-1.0) ** _cheb_j
_CHEB_INT = _CHEB_COEF @ _cheb_int
_GRADING = 2.0 ** -np.arange(1, 53)
_MAX_ROUNDS = 40
_MAX_PANELS = 4096


@dataclass(frozen=True)
class IntegratedH:
    """G(k) = int_0^k H as a table: panel edges from 0 to 1, G at each
    edge, per panel the Chebyshev series on [-1, 1] of G less its value at
    the panel's lower end, and H(1).  The arrays are read-only; the same
    table is also kept as Python floats, which a point reads, and so is
    H(1) - G(1) = int q dH(q), ``moment``."""

    edges: np.ndarray
    g: np.ndarray
    series: np.ndarray
    h_one: float
    moment: float = field(init=False)
    _inner: list = field(init=False, repr=False, compare=False)
    _panels: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "moment", float(self.h_one - self.g[-1]))
        # per panel its ends, G at the lower one, the constant term, and
        # the other terms from the highest order down, the order
        # Clenshaw's recurrence reads them in
        top_down = self.series[:, :0:-1].tolist()
        object.__setattr__(self, "_inner", self.edges[1:-1].tolist())
        object.__setattr__(self, "_panels", list(zip(
            self.edges[:-1].tolist(), self.edges[1:].tolist(),
            self.g[:-1].tolist(), self.series[:, 0].tolist(), top_down)))

    def __call__(self, k):
        """G at one k in [0, 1], from k's panel: the series is summed by
        Clenshaw's recurrence on Python floats."""
        lo, hi, g_lo, c0, coef = self._panels[
            bisect.bisect_right(self._inner, k)]
        t = min(max(2.0 * (k - lo) / (hi - lo) - 1.0, -1.0), 1.0)
        t2, b1, b2 = 2.0 * t, 0.0, 0.0
        for c in coef:
            b1, b2 = c + t2 * b1 - b2, b1
        return float(g_lo + (c0 + t * b1 - b2))


def _antiderivative_H(model, tol):
    """IntegratedH of ``model``, with estimated errors summing to at most
    ``tol``.  Each round evaluates H once, vectorised over every open
    panel.  Raises NumericError when H is not finite or the rounds or
    panels run out."""
    cuts = model.graded_cuts()
    lo, hi = cuts[:-1], cuts[1:]
    share = 0.5 * tol * (hi - lo + 1.0 / lo.size)
    done = []
    for _ in range(_MAX_ROUNDS):
        half = 0.5 * (hi - lo)
        # a node that rounds onto the upper end of a panel a few units of
        # rounding wide would pick up an atom sitting there
        nodes = np.minimum(lo[:, None] + half[:, None] * (1.0 + _CHEB_NODES),
                           np.nextafter(hi, lo)[:, None])
        with np.errstate(all="ignore"):
            hv = np.asarray(model.H(nodes.ravel()),
                            dtype=float).reshape(nodes.shape)
        if not np.isfinite(hv).all():
            raise NumericError("measure function is not finite",
                               achieved_tol=math.inf)
        err = 2.0 * half * np.abs(hv @ _CHEB_COEF[:, -3:]).sum(axis=1)
        ok = err <= share
        done.append((lo[ok], (hv[ok] @ _CHEB_INT) * half[ok, None], err[ok]))
        if ok.all():
            lo, series, _ = (np.concatenate(part) for part in zip(*done))
            order = np.argsort(lo)
            edges, series = np.append(lo[order], 1.0), series[order]
            g = np.concatenate([[0.0], np.cumsum(series.sum(axis=1))])
            for table in (edges, g, series):
                table.flags.writeable = False
            return IntegratedH(edges, g, series, float(model.H(1.0)))
        lo, hi, share = lo[~ok], hi[~ok], 0.5 * share[~ok]
        if 2 * lo.size > _MAX_PANELS:
            break
        mid = 0.5 * (lo + hi)
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
        share = np.tile(share, 2)
    raise NumericError("measure quadrature did not converge",
                       achieved_tol=float(sum(e.sum() for *_, e in done)
                                          + err[~ok].sum()))


class DependenceModel:
    """Shared behaviour of the parametric families."""

    params = None
    _turnover = ()      # where a logistic kernel's two terms are equal

    def a(self, w):
        raise NotImplementedError

    def a_prime(self, w):
        raise NotImplementedError

    def a_vx_vy_h(self, w):
        """A(w), the partials V_x = A - w A' and V_y = A + (1-w) A' of
        V = (x+y) A(y/(x+y)) at the y-fraction w, and h(w): what the
        sampler and the joint density read.  A logistic family forms V_x
        and V_y from its kernel, where these differences cancel."""
        w = np.asarray(w, dtype=float)
        a, ap = np.asarray(self.a(w)), np.asarray(self.a_prime(w))
        return a, a - w * ap, a + (1.0 - w) * ap, np.asarray(self.h(w))

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

    def split_points(self):
        """The breakpoints and the logistic turnover, where the kernel's
        two terms are equal and H climbs steeply when one weight is small
        (c near 1/2, or an asymmetric weight near 0): the quadrature of H
        splits [0, 1] there, and resolves each side from its end nodes."""
        return sorted({*self.breakpoints(),
                       *(w for w in self._turnover if 0.0 < w < 1.0)})

    def graded_cuts(self):
        """0, split_points() and 1, each segment between them inside
        support() cut at width * _GRADING from both of its ends."""
        edges = np.array([0.0, *self.split_points(), 1.0])
        lo, hi = edges[:-1, None], edges[1:, None]
        s_lo, s_hi = self.support()
        width = np.where((lo >= s_lo) & (hi <= s_hi), hi - lo, 0.0)
        return _sorted_unique(np.concatenate(
            [edges, (lo + width * _GRADING).ravel(),
             (hi - width * _GRADING).ravel()]))

    def integrated_H(self, tol):
        """IntegratedH: G(k) = int_0^k H with estimated errors summing to at
        most tol, and H(1).  Built once per model and tol and kept on the
        instance, so the quadrature oracle evaluates H at none of its
        points."""
        cache = self.__dict__.setdefault("_integrated_H", {})
        if tol not in cache:
            cache[tol] = _antiderivative_H(self, tol)
        return cache[tol]

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
    """The general logistic-type measure placed on [c1, c2], c1 < 1/2 < c2:
    the asymmetric-logistic kernel L on u = w - c1 and v = c2 - w with
    weights (al, be), and end atoms with the mass the weights leave,
    k1/(c2 - c1) at c1 and k2/(c2 - c1) at c2, k1 = 2 c2 - 1 - al and
    k2 = 1 - 2 c1 - be.  On [c1, c2] A = ((c2 - al) u + (1 - c1 - be) v
    + L)/(c2 - c1), below it 1 - w and above it w.  At s = 1, or with a
    weight 0, L is linear: all the mass sits at the ends and A runs
    straight between them.

    With a = al u/L and b = be v/L, the partials of V = (x+y) A(y/(x+y))
    are sums of terms of one sign,

        (c2 - c1) V_x = c2 (k2 + be b^(s-1)) - c1 al expm1((s-1) log a)
        (c2 - c1) V_y = (1-c1)(k1 + al a^(s-1)) - (1-c2) be expm1((s-1) log b),

    where A - w A' cancels next to w = 1 and A + (1-w) A' next to the
    floor; h = (s-1)(c2 - c1) al a^(s-1) be b^(s-1)/(u v L).
    """

    def __init__(self, c1, c2, al, be, s):
        self.c1, self.c2, self.s = c1, c2, s
        if al > 0.0 and be > 0.0:   # al u = be v; a cut at s = 1 too
            self._turnover = ((al * c1 + be * c2) / (al + be),)
        self._flat = s == 1.0 or al == 0.0 or be == 0.0
        if self._flat:      # the weights carry nothing, the atoms all
            al = be = 0.0
        # the end atoms, A's linear part in (u, v), A' and H less the
        # kernel's slope, each times c2 - c1
        self._k = (2.0 * c2 - 1.0 - al, 1.0 - 2.0 * c1 - be)
        self._atoms = tuple(k / (c2 - c1) for k in self._k)
        self._lin = ((1.0 - c2) + self._k[0], c1 + self._k[1])
        self._ap0, self._h0 = self._lin[0] - self._lin[1], self._k[0] + be
        # A' right of c1 when an atom sits there, and on all of [c1, c2)
        # in the flat case; H = A' + 1
        self._ap_c1 = self._atoms[0] - 1.0
        self.al, self.be = al, be
        # L is of degree 1 in the weights, log a and log b of degree 0: the
        # kernel runs on them over the power of two that puts the larger in
        # [1, 2), an exact scaling that leaves two subnormal weights' products
        # with u and v clear of 0
        self._scale = 2.0 ** (math.frexp(max(al, be))[1] - 1)

    def _kernel_terms(self, w):
        """u and v, clipped at 0, and there L over the kernel's scale,
        log a, log b, a^(s-1) and b^(s-1); not for a flat model."""
        # the kernel runs at every w, clipped onto [c1, c2], and the linear
        # tails are written over the few points outside: no subset of w
        # goes to it, whose size would vary from call to call.  Log 0 is
        # -inf at u = 0 or v = 0, and at s near the float limit an
        # exponent's product overflows to -inf, whose exponential is the 0
        # it stands for
        u, v = np.maximum(w - self.c1, 0.0), np.maximum(self.c2 - w, 0.0)
        with np.errstate(divide="ignore", over="ignore"):
            big_l, la, lb = _logistic(self.al / self._scale * u,
                                      self.be / self._scale * v, self.s)
            return (u, v, big_l, la, lb, np.exp((self.s - 1.0) * la),
                    np.exp((self.s - 1.0) * lb))

    def _views(self, w):
        """A, V_x, V_y, h and A' at w, from one kernel evaluation.  L is
        homogeneous, so A, A', V_x and V_y pick up one factor 1/(c2 - c1),
        and h the factor c2 - c1."""
        c1, c2, span = self.c1, self.c2, self.c2 - self.c1
        if self._flat:
            u, v = np.maximum(w - c1, 0.0), np.maximum(c2 - w, 0.0)
            big_l = ta = tb = ma = mb = h = np.zeros_like(w)
            ap = np.full_like(w, self._ap_c1)
        else:
            u, v, big_l, la, lb, ea, eb = self._kernel_terms(w)
            ta, tb = self.al * ea, self.be * eb
            ap = (self._ap0 + ta - tb) / span
            # h is 0/0 at u = 0 or v = 0, and may overflow next to them at
            # s < 2, as may an exponent's product at s near the float
            # limit (see _kernel_terms); the tails are written over them
            with np.errstate(invalid="ignore", over="ignore"):
                h = ((self.s - 1.0) * span * (self.al / self._scale * ea / u)
                     * (tb / v) / big_l)
                ma = -self.al * np.expm1((self.s - 1.0) * la)
                mb = -self.be * np.expm1((self.s - 1.0) * lb)
            big_l = big_l * self._scale
        a = (self._lin[0] * u + self._lin[1] * v + big_l) / span
        vx = (c2 * (self._k[1] + tb) + c1 * ma) / span
        vy = ((1.0 - c1) * (self._k[0] + ta) + (1.0 - c2) * mb) / span
        lo, hi = w <= c1, w >= c2
        a[lo], a[hi] = 1.0 - w[lo], w[hi]
        h[lo | hi] = 0.0
        if self._atoms[0]:      # at an atom at c1 A' is taken from the right
            lo = w < c1
            ap[w == c1] = self._ap_c1
        ap[lo], vx[lo], vy[lo] = -1.0, 1.0, 0.0
        ap[hi], vx[hi], vy[hi] = 1.0, 0.0, 1.0
        return a, vx, vy, h, ap

    @_array_method
    def a(self, w):
        return self._views(w)[0]

    @_array_method
    def a_prime(self, w):
        return self._views(w)[4]

    @_array_method
    def h(self, w):
        return self._views(w)[3]

    @_array_method
    def a_vx_vy_h(self, w):
        return self._views(w)[:4]

    @_array_method
    def H(self, w):
        # on clipped distances, as in _views: 0 below c1, 2 from c2 on
        c1, c2 = self.c1, self.c2
        if self._flat:
            inner = self._ap_c1 + 1.0
        else:
            ea, eb = self._kernel_terms(w)[5:]
            inner = (self._h0 + self.al * ea - self.be * eb) / (c2 - c1)
        out = np.where(w < c1, 0.0, np.where(w >= c2, 2.0, inner))
        if self._atoms[0]:
            out[w == c1] = self._ap_c1 + 1.0
        return out

    def support(self):
        return (self.c1, self.c2)

    def point_masses(self):
        return [(q, m) for q, m in zip((self.c1, self.c2), self._atoms)
                if m > 0.0]

    def ordering_floor(self):
        return self.c1


def _record(params, record):
    """params as a record of the given type; a tuple holds its fields."""
    return params if isinstance(params, record) else record(*params)


class AsymLogisticModel(_LogisticModel):
    """Tawn's asymmetric logistic: the general measure on [0, 1] with
    weights theta1, theta2, so atoms 1 - theta1 and 1 - theta2."""

    def __init__(self, params: AsymLogisticParams):
        p = self.params = _record(params, AsymLogisticParams)
        super().__init__(0.0, 1.0, p.theta1, p.theta2, p.s)


class AffineLogisticModel(_LogisticModel):
    """Logistic density confined to (c1, c2): weights 2 c2 - 1 and 1 - 2 c1,
    which leave no atoms at s > 1.  c2 = 1 is the restricted family, c1 = 0
    the upper one; their classes and the interval one check (c1, c2, s)."""

    def __init__(self, c1, c2, s):
        super().__init__(c1, c2, 2.0 * c2 - 1.0, 1.0 - 2.0 * c1, s)


class RestrictedLogisticModel(AffineLogisticModel):
    """Logistic dependence whose density vanishes on [0, c], encoding X < Y."""

    def __init__(self, params: RestrictedLogisticParams):
        p = self.params = _record(params, RestrictedLogisticParams)
        super().__init__(p.c, 1.0, p.s)


class UpperRestrictedModel(AffineLogisticModel):
    """Mirror image of the restricted family: density on (0, c), c > 1/2."""

    def __init__(self, params: UpperRestrictedParams):
        p = self.params = _record(params, UpperRestrictedParams)
        super().__init__(0.0, p.c, p.s)


class IntervalRestrictedModel(AffineLogisticModel):
    """Density confined to (c1, c2); linear tails 1 - w and w outside."""

    def __init__(self, params: IntervalRestrictedParams):
        p = self.params = _record(params, IntervalRestrictedParams)
        super().__init__(p.c1, p.c2, p.s)


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
    """General logistic-type spectral density on (a, b), zero elsewhere:
    that of the measure with atoms gamma1 at a and gamma2 at b.  At a = 0,
    b = 1 it is the asymmetric density at theta = 1 - gamma; with b = 1
    and no atoms, the restricted one."""
    _check_unit_interval(w)
    a, b, span = params.a, params.b, params.b - params.a
    # the weights the atoms leave; the records let an atom exceed its
    # bound by 1e-12
    return _LogisticModel(a, b, max(2.0 * b - 1.0 - params.gamma1 * span, 0.0),
                          max(1.0 - 2.0 * a - params.gamma2 * span, 0.0),
                          params.s).h(w)


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
    # ends as s -> 1+): int q dH = H(1) - int H and int (1 - q) dH = int H
    try:
        big_g = model.integrated_H(1e-13)
    except NumericError as exc:
        checks += [ValidationCheck(name, False, str(exc))
                   for name in ("moment_q", "moment_1mq")]
    else:
        for name, moment in (("moment_q", big_g.moment),
                             ("moment_1mq", big_g.g[-1])):
            checks.append(ValidationCheck(
                name, abs(moment - 1.0) <= moment_tol,
                f"moment from the measure function = {moment:.12f}"))

    return ValidationReport(checks)


# each family's model class and parameter record, by name
FAMILIES = {
    "asymmetric": (AsymLogisticModel, AsymLogisticParams),
    "restricted": (RestrictedLogisticModel, RestrictedLogisticParams),
    "upper": (UpperRestrictedModel, UpperRestrictedParams),
    "interval": (IntervalRestrictedModel, IntervalRestrictedParams),
}


def make_model(family, **kwargs) -> DependenceModel:
    """Build a family by name from the keywords its record's fields name
    (others are ignored); an unknown name raises ParameterError."""
    try:
        model, record = FAMILIES[family]
    except KeyError:
        raise ParameterError(f"unknown dependence family {family!r}") from None
    try:
        values = [kwargs[f.name] for f in fields(record)]
    except KeyError as exc:
        raise ParameterError(f"family {family!r} needs parameter {exc}") from None
    return model(record(*values))
