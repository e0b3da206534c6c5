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
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dependence import DependenceModel, RestrictedLogisticParams
from .errors import BoundaryError, DomainError
from .margins import (GevmParams, exp_scale, exp_scale_log_jacobian,
                      log_exp_scale, log_exp_scale_grad)

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
    k's panel and sums that panel's series at k, with no call of H.
    ``tol`` bounds the estimated relative error: V = x H(1) - x int_k^1 H
    + y int_0^k H, the estimated errors of G sum to at most tol, and
    V >= max(x, y).  Independent of every closed form, so it cross-checks
    v_closed and v_from_a.  NumericError is raised when the table cannot
    reach ``tol`` or H is not finite.
    """
    x, y = p.x_e, p.y_e
    big_g = model.integrated_H(tol)
    return float(x * (big_g.h_one - big_g.g[-1])
                 + (x + y) * big_g(y / (x + y)))


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
    """Pr(X > x, Y > y) = exp(-V(e_x, e_y)) on data-scale margins."""
    xe = exp_scale(x, mx)
    ye = exp_scale(y, my)
    return float(np.exp(-_v_model(xe, ye, model)))


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


def boundary_constant(mu_x, mu_y, sig_x, sig_y, xi, lo, hi, grad=False):
    """c = 1/(1 + inf D(x, x)), D = e_x / e_y, for margins sharing the
    shape xi, over [lo, hi] cut for each row of mu_x, mu_y to where both
    of its margins are defined; grad=True adds dc/d(sigma_x, sigma_y, xi).

    log D is monotone along a row, so it is taken only at the ends of each
    row's interval: by log_exp_scale, or by its limit at an infinite end,
    log(sigma_x/sigma_y)/xi (linear in x at xi = 0, where grad needs a
    finite window), and at a support threshold, +-inf.  No row left gives
    c = 1, log D > 700 c = 0.
    """
    def const(c):
        return (c, np.zeros(3)) if grad else c

    def at(x, rows):
        # (least log D, its row, x) at the window end x over the mask rows
        # (None: all rows); rows that x rounds off their support end at
        # their threshold instead
        if math.isinf(x):       # only at xi = 0, where log D is linear
            slope = 1.0 / sig_x - 1.0 / sig_y
            d = mu_y / sig_y - mu_x / sig_x + (x * slope if slope else 0.0)
        else:
            d = (log_exp_scale(x, mu_x, sig_x, xi)
                 - log_exp_scale(x, mu_y, sig_y, xi))
        if rows is not None:
            off[rows & np.isnan(d)] = True
            d = np.where(rows & ~off, d, np.inf)
        i = int(np.argmin(d))
        return float(d[i]), i, x

    mu_x, mu_y = np.atleast_1d(mu_x), np.atleast_1d(mu_y)
    with np.errstate(all="ignore"):
        if xi == 0.0:
            found = [at(lo, None), at(hi, None)]
        else:
            tail = math.log(sig_x / sig_y) / xi
            # rows whose interval is not empty, and rows whose interval
            # ends at their threshold t, above for xi > 0 and below for
            # xi < 0; None for all rows, as an infinite window end has
            # every t inside
            live = cut = None
            if math.isfinite(lo) or math.isfinite(hi):
                t = (np.minimum if xi > 0.0 else np.maximum)(
                    mu_x + sig_x / xi, mu_y + sig_y / xi)
                live, cut = (t > lo, t <= hi) if xi > 0.0 else \
                    (t < hi, t >= lo)
                if not np.any(live):
                    return const(1.0)
                off = np.zeros(mu_x.shape, dtype=bool)
            free, edge = (lo, hi) if xi > 0.0 else (hi, lo)
            found = [(tail, 0, free) if math.isinf(free) else at(free, live)]
            if math.isfinite(edge):
                found.append(at(edge, live & ~cut))
            # at t, D -> inf where X's threshold lies below Y's and D -> 0
            # where above; where they coincide D is constant along the row.
            # dt is their difference, signed right even where a subnormal
            # xi sends sigma / xi to +-inf
            dt = (mu_x - mu_y) + (sig_x - sig_y) / xi
            at_t = dt if cut is None else dt[live & (cut | off)]
            top = at_t.max() if at_t.size else -math.inf
            found.append((-math.inf if top > 0.0 else tail if top == 0.0
                          else math.inf, 0, None))
    value, i, x = min(found, key=lambda f: f[0])
    if not -math.inf < value <= 700.0:  # D = 0, or too large for exp
        return const(1.0 if value < 0.0 else 0.0)
    c = 1.0 / (1.0 + math.exp(value))
    if not grad:
        return c
    if x is None or math.isinf(x):
        # the infinite end's limit, or a row where it holds throughout
        return c, -c * (1.0 - c) * np.array([1.0 / sig_x, -1.0 / sig_y,
                                             -value]) / xi
    dx_sig, dx_xi = log_exp_scale_grad(x, mu_x[i], sig_x, xi)
    dy_sig, dy_xi = log_exp_scale_grad(x, mu_y[i], sig_y, xi)
    return c, -c * (1.0 - c) * np.array([float(dx_sig), -float(dy_sig),
                                         float(dx_xi - dy_xi)])


def c_from_margins(mx: GevmParams, my: GevmParams, x_lo=-math.inf,
                   x_hi=math.inf):
    """Ordering boundary c = 1/(1 + inf D(x, x)) over the part of
    [x_lo, x_hi] where both margins are defined: boundary_constant for
    equal shapes (1/33 for the reference design) and for two Gumbel
    margins, _least_log_ratio's ends and stationary point otherwise.

    A result at or above 1/2 means the margins cannot support the
    ordering X < Y; it is returned with a warning.
    """
    hi_cap = min(mx.upper_endpoint(), my.upper_endpoint())
    lo_cap = max(mx.lower_endpoint(), my.lower_endpoint())
    lo, hi = max(x_lo, lo_cap), min(x_hi, hi_cap)
    if not lo < hi:
        raise DomainError("empty feasible search domain for the boundary "
                          "constant")
    if mx.xi == my.xi or (mx.is_gumbel and my.is_gumbel):
        c = boundary_constant(mx.mu, my.mu, mx.sigma, my.sigma,
                              mx.xi if mx.xi == my.xi else 0.0, x_lo, x_hi)
    else:
        d = _least_log_ratio(mx, my, lo, hi)
        c = 1.0 if d == -math.inf else 0.0 if d > 700.0 else \
            1.0 / (1.0 + math.exp(d))
    if c >= 0.5:
        warnings.warn(
            "boundary constant at or above 1/2: margins do not support the "
            "ordering X < Y", RuntimeWarning, stacklevel=2)
    return c


def _least_log_ratio(mx, my, lo, hi):
    """inf log D(x, x) over [lo, hi], the window cut to both supports, for
    unequal shapes; a margin inside XI_ZERO_TOL is Gumbel (xi = 0).

    With b = sigma - xi (x - mu) > 0 on a support, d log e/dx = 1/b, so
    d log D/dx = (b_y - b_x)/(b_x b_y) changes sign only at x*, where
    b_x = b_y: the infimum is at x* or at an end.  Toward an end where a
    log e is unbounded it grows like g L, L -> +inf: L = -log|x - t| and
    g = 1/xi at the margin's threshold t; L = log|x| and g = -1/xi at an
    infinite end, where a Gumbel margin's linear log e outgrows any g L.
    There log D tends to (g_x - g_y) inf.
    """
    def at(x, p, xi):
        # (log e at x, its growth factor g toward x: 0 where it is finite)
        v = float(log_exp_scale(x, p.mu, p.sigma, xi))
        if math.isinf(x):
            return v, -1.0 / xi if xi else math.copysign(math.inf, x)
        # at the threshold itself, or off the support by rounding
        t = p.upper_endpoint() if xi > 0.0 else p.lower_endpoint()
        return v, 1.0 / xi if x == t or not math.isfinite(v) else 0.0

    xi_x = 0.0 if mx.is_gumbel else mx.xi
    xi_y = 0.0 if my.is_gumbel else my.xi
    x_star = (mx.sigma - my.sigma + xi_x * mx.mu - xi_y * my.mu) \
        / (xi_x - xi_y)
    found = []
    with np.errstate(all="ignore"):
        for x in [lo, hi, x_star] if lo < x_star < hi else [lo, hi]:
            (ex, gx), (ey, gy) = at(x, mx, xi_x), at(x, my, xi_y)
            found.append(math.copysign(math.inf, gx - gy) if gx != gy
                         else ex - ey)
    return min(found)
