"""Exponential measure V, joint laws on exponential and data scales, and
the ordering boundary constant.

V(x, y) is the order-1 homogeneous function with joint survival
exp(-V(x, y)) on standard exponential margins.  For the restricted
logistic family it has the two-branch closed form

    V(x, y) = x                                    y/(x+y) <= c
    V(x, y) = ( {[(1-c)y - cx]^s + (1-2c)^s x^s}^(1/s) + cx ) / (1-c)

and factorises as (x+y) A(y/(x+y)) for any family.  The first branch is
the zero-density region: under the ordering constraint no probability
mass has y-fraction at or below c.

The quadrature oracle v_numeric integrates max[w x, (1-w) y] against the
spectral measure by parts, through the measure function H alone, so it
checks each family's H against v_closed; the density h is checked against
A by dependence.a_numeric_oracle.  With G(k) the integral of H from 0 to
k = y/(x+y), V = x H(1) + (x + y) G(k) - x G(1): each model builds G once
per tolerance, as a piecewise-Chebyshev table kept on the instance, and a
point reads it without evaluating H.

The ordering boundary c = 1/(1 + inf D(x, x)) has one implementation,
boundary_constant, for shared and unequal shapes over trend rows; a shape
inside XI_ZERO_TOL is Gumbel there, as in margins.log_exp_scale.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dependence import DependenceModel, RestrictedLogisticParams
from .errors import BoundaryError, DomainError
from .margins import (XI_ZERO_TOL, GevmParams, exp_scale,
                      exp_scale_log_jacobian, log_exp_scale,
                      log_exp_scale_grad)

V_QUAD_TOL = 1e-10


@dataclass(frozen=True)
class ExpPair:
    """One observation on the standard exponential scale."""

    x_e: float
    y_e: float

    def __post_init__(self):
        if not (self.x_e > 0.0 and self.y_e > 0.0):
            raise DomainError("exponential-scale coordinates must be positive")


@dataclass(frozen=True)
class FrechetPair:
    """One observation on the Frechet scale (reciprocal exponential)."""

    x_f: float
    y_f: float

    def __post_init__(self):
        if not (self.x_f > 0.0 and self.y_f > 0.0):
            raise DomainError("Frechet-scale coordinates must be positive")


# ---------------------------------------------------------------------------
# restricted-family closed forms (array-friendly internals + scalar API)
# ---------------------------------------------------------------------------

def _closed_form_parts(x, y, c, s):
    """(L, log a, V_x, q, K, R, log b, b^(s-1), 1 - a^(s-1)) at y/(x+y) > c,
    the second branch of the closed form in log form, for V, its partials
    and the log density: with L = (R^s + (Kx)^s)^(1/s), a = R/L, b = Kx/L,
    V = (L + cx)/(1-c), V_y = a^(s-1) and -V_xy = a^(s-1) q.
    """
    K = 1.0 - 2.0 * c
    # clamped at 0 for a point that rounds onto the boundary, where V = x
    R = np.maximum((1.0 - c) * y - c * x, 0.0)
    kx = K * x
    # logs of a and b through log1p, relative to the larger of R and Kx:
    # powers of R, Kx and L themselves under- or overflow at large s long
    # before a^(s-1) and b^(s-1) do
    top = np.maximum(R, kx)
    low = np.log(np.minimum(R, kx) / top)
    log_p = np.log1p(np.exp(s * low)) / s
    L = top * np.exp(log_p)
    la = np.where(R < kx, low, 0.0) - log_p
    lb = np.where(R < kx, 0.0, low) - log_p
    eb = np.exp((s - 1.0) * lb)                 # b^(s-1)
    one_ea = -np.expm1((s - 1.0) * la)          # 1 - a^(s-1)
    vx = (c * one_ea + K * eb) / (1.0 - c)
    q = (s - 1.0) * (1.0 - c) * K * eb * (y / R) / L
    return L, la, vx, q, K, R, lb, eb, one_ea


def _v_closed(x, y, c, s):
    with np.errstate(all="ignore"):
        L = _closed_form_parts(x, y, c, s)[0]
    return np.where(y / (x + y) <= c, x, (L + c * x) / (1.0 - c))


def _v_partials(x, y, c, s):
    """(dV/dx, dV/dy, d2V/dxdy) for the restricted family, branch-aware."""
    in1 = y / (x + y) <= c
    with np.errstate(all="ignore"):
        _L, la, vx, q = _closed_form_parts(x, y, c, s)[:4]
        vy = np.exp((s - 1.0) * la)             # a^(s-1)
        return (np.where(in1, 1.0, vx), np.where(in1, 0.0, vy),
                np.where(in1, 0.0, -vy * q))


def _log_density(x, y, c, s, grad=False):
    """-V + log(V_x V_y - V_xy), the restricted log density on exponential
    margins, and with grad=True also its partials (d/dx, d/dy, d/dc, d/ds).

    Valid where the density is positive: y/(x+y) > c, c < 1/2, s > 1.
    From the intermediates of _closed_form_parts the log density is
    -V + (s-1) log a + log(V_x + q).  Along x, y or c, d log a = v D and
    d log b = -u D with u = a^s, v = b^s and D = d log R - d log Kx, so
    each partial is alpha D plus the terms where x, y or c appear outside
    R and Kx; the s partial adds the explicit exponents.
    """
    L, la, vx, q, K, R, lb, eb, one_ea = _closed_form_parts(x, y, c, s)
    big_v = (L + c * x) / (1.0 - c)
    dens = vx + q                               # the density over a^(s-1)
    value = -big_v + (s - 1.0) * la + np.log(dens)
    if not grad:
        return value

    ea = np.exp((s - 1.0) * la)                 # a^(s-1) = V_y
    u, v = np.exp(s * la), np.exp(s * lb)
    # coefficient of D: V_x V_y moves through a and b, -V_xy through
    # a^(s-2) b^(s-1) L^-2, V through L
    alpha = ((s - 1.0) * (vx * v - (K * eb * u + c * ea * v) / (1.0 - c))
             + q * ((s - 2.0) * v - (s + 1.0) * u)) / dens \
        - L * u / (1.0 - c)
    f_x = alpha * (-c / R - 1.0 / x) - 2.0 * q / (x * dens) \
        - (L / x + c) / (1.0 - c)
    f_y = alpha * ((1.0 - c) / R) + q / (y * dens)
    f_c = alpha * (2.0 / K - (x + y) / R) \
        + (q * (2.0 / K - 1.0 / (1.0 - c))
           + (one_ea - 2.0 * eb + vx) / (1.0 - c)) / dens \
        + (2.0 * L / K - x - big_v) / (1.0 - c)

    # along s: d log L = m and d log a = d log b = -m; a^(s-1), b^(s-1)
    # and -V_xy also carry s in their exponents
    m = (u * la + v * lb) / s
    d_log_ea = la - (s - 1.0) * m
    d_eb = eb * (lb - (s - 1.0) * m)
    d_vx = K * d_eb - c * ea * d_log_ea
    f_s = (d_vx / (1.0 - c) + vx * d_log_ea
           + q * (la + lb - (2.0 * s - 1.0) * m) + q / (s - 1.0)) / dens \
        - L * m / (1.0 - c)
    return value, (f_x, f_y, f_c, f_s)


def v_closed(p: ExpPair, c, s):
    """Closed-form restricted measure V at one exponential-scale point."""
    RestrictedLogisticParams(c, s)
    return float(_v_closed(p.x_e, p.y_e, c, s))


def v_numeric(p: ExpPair, model: DependenceModel, tol=V_QUAD_TOL):
    """Quadrature oracle for V = int max[w x, (1-w) y] dH(w).

    By parts against the bounded measure function H, with k = y/(x+y)
    and G(k) = int_0^k H(w) dw,

        V = x H(1) + (x + y) G(k) - x G(1).

    H counts the atoms, and it stays bounded where the density h is
    singular (s < 2).  The model builds G once per tolerance, on Chebyshev
    panels graded toward its breakpoints and its logistic turnover, and
    keeps it with H(1) (DependenceModel.integrated_H); a point then finds
    k's panel by bisection and sums that panel's series at k by
    Clenshaw's recurrence, in scalar arithmetic and with no call of H.
    ``tol`` bounds the estimated relative error: V = x H(1) - x int_k^1 H
    + y int_0^k H, the estimated errors of G sum to at most tol, and
    V >= max(x, y).  Independent of every closed form, so it cross-checks
    v_closed and v_from_a.  NumericError is raised when the table cannot
    reach ``tol`` or H is not finite.
    """
    x, y = p.x_e, p.y_e
    big_g = model.integrated_H(tol)
    return float(x * big_g.moment + (x + y) * big_g(y / (x + y)))


def v_from_a(p: ExpPair, a):
    """V through the dependence function: (x+y) A(y/(x+y)).

    a may be a callable or a DependenceModel.
    """
    fn = a.a if isinstance(a, DependenceModel) else a
    total = p.x_e + p.y_e
    return total * float(fn(p.y_e / total))


def v_partials(p: ExpPair, c, s):
    """Analytic (dV/dx, dV/dy, d2V/dxdy) of the restricted closed form.

    On the zero-density branch these are exactly (1, 0, 0).  Exactly on
    the branch boundary the derivatives are one-sided, so a BoundaryError
    asks the caller to perturb.
    """
    RestrictedLogisticParams(c, s)
    frac = p.y_e / (p.x_e + p.y_e)
    if frac == c:
        raise BoundaryError("point sits exactly on the branch boundary")
    vx, vy, vxy = _v_partials(p.x_e, p.y_e, c, s)
    return float(vx), float(vy), float(vxy)


def v_frechet(p: FrechetPair, c, s):
    """Restricted measure in Frechet coordinates: v_closed at (1/x_f, 1/y_f)."""
    RestrictedLogisticParams(c, s)
    return float(_v_closed(1.0 / p.x_f, 1.0 / p.y_f, c, s))


# ---------------------------------------------------------------------------
# joint laws on data-scale margins
# ---------------------------------------------------------------------------

def _v_model(xe, ye, model: DependenceModel):
    total = xe + ye
    return total * model.a(ye / total)


def joint_survival_gevm(x, y, mx: GevmParams, my: GevmParams,
                        model: DependenceModel):
    """Pr(X > x, Y > y) = exp(-V(e_x, e_y)) on data-scale margins: a
    float for scalar x and y, else an array."""
    out = np.exp(-_v_model(exp_scale(x, mx), exp_scale(y, my), model))
    return float(out) if np.ndim(out) == 0 else out


def _joint_log_density_exp(xe, ye, model: DependenceModel):
    """log joint density on exponential margins; -inf where mass vanishes.

    Built by the chain rule on exp(-V): with w the y-fraction,
    V_x = A - w A', V_y = A + (1-w) A' and V_xy = -w (1-w) h / (x+y).
    """
    xe = np.asarray(xe, dtype=float)
    ye = np.asarray(ye, dtype=float)
    total = xe + ye
    w = ye / total
    a, ap, h = model.a_a_prime_h(w)
    vx = a - w * ap
    vy = a + (1.0 - w) * ap
    vxy = -w * (1.0 - w) * h / total
    dens = vx * vy - vxy
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(dens > 0.0, -total * a + np.log(np.maximum(dens, 1e-300)), -np.inf)
    return out


def joint_log_density_gevm(x, y, mx: GevmParams, my: GevmParams,
                           model: DependenceModel):
    """Log joint density on data-scale margins.

    Returns -inf for points carrying no mass under the model (for a
    restricted family, y-fraction at or below the ordering boundary):
    fitting treats such points as likelihood -inf rather than an error.
    Points outside a margin's support raise DomainError.
    """
    xe = exp_scale(x, mx)
    ye = exp_scale(y, my)
    core = _joint_log_density_exp(xe, ye, model)
    out = core + exp_scale_log_jacobian(xe, mx) + exp_scale_log_jacobian(ye, my)
    return float(out) if np.ndim(out) == 0 else out


# ---------------------------------------------------------------------------
# ordering boundary constant
# ---------------------------------------------------------------------------

def _diag_ratio(x, mx: GevmParams, my: GevmParams):
    """D(x, x) = e_x(x) / e_y(x) where both margins are defined, else inf."""
    with np.errstate(all="ignore"):
        d = np.exp(log_exp_scale(x, mx.mu, mx.sigma, mx.xi)
                   - log_exp_scale(x, my.mu, my.sigma, my.xi))
    return np.where(np.isfinite(d), d, np.inf)


def boundary_constant(mu_x, mu_y, sig_x, sig_y, xi_x, xi_y, lo, hi,
                      grad=False):
    """c = 1/(1 + inf D(x, x)), D = e_x / e_y, over [lo, hi] cut for each
    row of mu_x, mu_y to where both of its margins are defined; a shape
    inside XI_ZERO_TOL is Gumbel, as in log_exp_scale.  For a shared
    shape, grad=True adds dc/d(sigma_x, sigma_y, xi).

    d log e/dx = 1/(sigma - xi (x - mu)), so log D turns only at x*, for
    unequal shapes.  It is taken there and at each end of a row's
    interval, by log_exp_scale or, toward a threshold t or an infinite
    end, by its limit (g_x - g_y) inf, where log e ~ g L: g = 1/xi with
    L = -log|x - t|, g = -1/xi with L = log|x|, which a Gumbel margin's
    linear log e outgrows.  Where the g agree log D tends to a shared
    shape's tail log(sigma_x/sigma_y)/xi, or is linear (two Gumbel
    margins).  No row left gives c = 1, log D > 700 c = 0.
    """
    def const(c):
        return (c, np.zeros(3)) if grad else c

    def at(x, rows):
        # (least log D at the points x over the mask rows, its row, its
        # point); rows that x rounds off a support are marked off
        nonlocal off
        d = (log_exp_scale(x, mu_x, sig_x, xi_x)
             - log_exp_scale(x, mu_y, sig_y, xi_y))
        off = off | (rows & np.isnan(d))
        d = np.where(rows & ~off, d, np.inf)
        i = int(np.argmin(d))
        return float(d[i]), i, x[i] if isinstance(x, np.ndarray) else x

    def thresholds(side):
        # X's and Y's support thresholds below (side -1) or above (+1) the
        # rows; side * inf for a margin without one
        return [mu + sig / xi if side * xi > 0.0 else side * math.inf
                for mu, sig, xi in ((mu_x, sig_x, xi_x), (mu_y, sig_y, xi_y))]

    mu_x, mu_y = np.atleast_1d(mu_x), np.atleast_1d(mu_y)
    xi_x = 0.0 if abs(xi_x) < XI_ZERO_TOL else xi_x
    xi_y = 0.0 if abs(xi_y) < XI_ZERO_TOL else xi_y
    shared = xi_x == xi_y
    tail = math.log(sig_x / sig_y) / xi_x if shared and xi_x else None
    cut = [side * xi_x > 0.0 or side * xi_y > 0.0 for side in (-1.0, 1.0)]
    # an infinite end without a threshold leaves no row's interval empty
    every = any(math.isinf(e) and not k for e, k in zip((lo, hi), cut))
    off, sides, found = False, [], []
    with np.errstate(all="ignore"):
        for e, side, k in zip((lo, hi), (-1.0, 1.0), cut):
            # s > 0 where a row's inner threshold on this side is X's lower
            # or Y's upper (D -> 0), s < 0 where it is the other margin's,
            # s = 0 where both: s = t_x - t_y, written for a shared shape
            # so that its sign is exact; inside marks the rows whose
            # interval ends there rather than at e
            s, inside, end = None, False, e
            if k:
                s = (mu_x - mu_y) + (sig_x - sig_y) / xi_x if shared else \
                    np.subtract(*thresholds(side))
                inside = True
                if math.isfinite(e) or not every:
                    t = (np.maximum if side < 0.0 else np.minimum)(
                        *thresholds(side))
                    inside = t >= e if side < 0.0 else t <= e
                    end = np.where(inside, t, e)
            elif math.isinf(e) and (xi_x or xi_y):   # the limit at x = e
                g_x, g_y = (-1.0 / xi if xi else e for xi in (xi_x, xi_y))
                found.append((tail if g_x == g_y else
                              math.copysign(math.inf, g_x - g_y), 0, None))
            elif math.isinf(e):     # two Gumbel margins: log D is linear
                slope = 1.0 / sig_x - 1.0 / sig_y
                found.append((math.copysign(math.inf, e * slope), 0, None)
                             if slope else at(0.0, True))
            sides.append((e, s, inside, end))
        live = True if every else sides[0][3] < sides[1][3]
        if not (live is True or np.any(live)):
            return const(1.0)
        for e, s, inside, _ in sides:
            if math.isfinite(e):
                found.append(at(e, live if s is None else live & ~inside))
        if not shared:      # off a support, log D at x* is nan
            x_star = (sig_x - sig_y + xi_x * mu_x - xi_y * mu_y) \
                / (xi_x - xi_y)
            found.append(at(x_star, live & (lo < x_star) & (x_star < hi)))
        for _, s, inside, _ in sides:
            if s is not None:
                rows = live & (inside | off)
                at_t = s if rows is True else s[rows]
                top = at_t.max() if at_t.size else -math.inf
                found.append((-math.inf if top > 0.0 else math.inf
                              if top < 0.0 else tail if shared else
                              math.copysign(math.inf, 1.0 / xi_x - 1.0 / xi_y),
                              0, None))
    value, i, x = min(found, key=lambda f: f[0])
    if not -math.inf < value <= 700.0:  # D = 0, or too large for exp
        return const(1.0 if value < 0.0 else 0.0)
    c = 1.0 / (1.0 + math.exp(value))
    if not grad:
        return c
    if x is None:   # the tail, at an infinite end or along a row
        return c, -c * (1.0 - c) * np.array([1.0 / sig_x, -1.0 / sig_y,
                                             -value]) / xi_x
    dx_sig, dx_xi = log_exp_scale_grad(x, mu_x[i], sig_x, xi_x)
    dy_sig, dy_xi = log_exp_scale_grad(x, mu_y[i], sig_y, xi_y)
    return c, -c * (1.0 - c) * np.array([float(dx_sig), -float(dy_sig),
                                         float(dx_xi - dy_xi)])


def c_from_margins(mx: GevmParams, my: GevmParams, x_lo=-math.inf,
                   x_hi=math.inf):
    """Ordering boundary c = 1/(1 + inf D(x, x)) over the part of
    [x_lo, x_hi] where both margins are defined, by boundary_constant
    (1/33 for the reference design).

    A result at or above 1/2 means the margins cannot support the
    ordering X < Y; it is returned with a warning.
    """
    if not max(x_lo, mx.lower_endpoint(), my.lower_endpoint()) \
            < min(x_hi, mx.upper_endpoint(), my.upper_endpoint()):
        raise DomainError("empty feasible search domain for the boundary "
                          "constant")
    c = boundary_constant(mx.mu, my.mu, mx.sigma, my.sigma, mx.xi, my.xi,
                          x_lo, x_hi)
    if c >= 0.5:
        warnings.warn(
            "boundary constant at or above 1/2: margins do not support the "
            "ordering X < Y", RuntimeWarning, stacklevel=2)
    return c
