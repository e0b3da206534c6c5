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
A by dependence.a_numeric_oracle.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar

from .dependence import (DependenceModel, RestrictedLogisticParams,
                         _integrate_dH)
from .errors import BoundaryError, DomainError
from .margins import (GevmParams, exp_scale, exp_scale_log_jacobian,
                      log_exp_scale)

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

def _v_closed(x, y, c, s):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    frac = y / (x + y)
    K = 1.0 - 2.0 * c
    R = np.maximum((1.0 - c) * y - c * x, 0.0)
    branch2 = ((R ** s + K ** s * x ** s) ** (1.0 / s) + c * x) / (1.0 - c)
    return np.where(frac <= c, x, branch2)


def _v_partials(x, y, c, s):
    """(dV/dx, dV/dy, d2V/dxdy) for the restricted family, branch-aware."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    frac = y / (x + y)
    K = 1.0 - 2.0 * c
    R = np.maximum((1.0 - c) * y - c * x, 0.0)
    with np.errstate(all="ignore"):
        L = (R ** s + K ** s * x ** s) ** (1.0 / s)
        vx2 = (c + (K ** s * x ** (s - 1.0) - c * R ** (s - 1.0)) * L ** (1.0 - s)) / (1.0 - c)
        vy2 = R ** (s - 1.0) * L ** (1.0 - s)
        vxy2 = -(s - 1.0) * (1.0 - c) * K ** s * x ** (s - 1.0) * y \
            * R ** (s - 2.0) * L ** (1.0 - 2.0 * s)
    in1 = frac <= c
    vx = np.where(in1, 1.0, vx2)
    vy = np.where(in1, 0.0, vy2)
    vxy = np.where(in1, 0.0, vxy2)
    return vx, vy, vxy


def _log_density_grad(x, y, c, s):
    """Partials (d/dx, d/dy, d/dc, d/ds) of -V + log(V_x V_y - V_xy), the
    restricted log density on exponential margins.

    Valid where the density is positive: y/(x+y) > c, c < 1/2, s > 1.
    With L = (R^s + (Kx)^s)^(1/s), a = R/L and b = Kx/L (u = a^s and
    v = b^s sum to 1), the closed forms above read V = (L + cx)/(1-c),
    V_x = (c + K b^(s-1) - c a^(s-1))/(1-c), V_y = a^(s-1) and
    -V_xy = (s-1) W0 with W0 = (1-c) K b^(s-1) a^(s-2) y / L^2.  Along x,
    y or c, d log a = v D and d log b = -u D with D = d log R - d log Kx,
    so each partial is alpha D plus the terms where x, y or c appear
    outside R and Kx; the s partial adds the explicit exponents.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    K = 1.0 - 2.0 * c
    R = (1.0 - c) * y - c * x
    kx = K * x
    # logs of a and b through log1p, relative to the larger of R and Kx:
    # powers of R and Kx themselves underflow at large s on small data
    # long before a^(s-2) does, and 1 - a^(s-1) in V_x cancels near a = 1
    top = np.maximum(R, kx)
    low = np.log(np.minimum(R, kx) / top)
    log_p = np.log1p(np.exp(s * low)) / s
    L = top * np.exp(log_p)
    la = np.where(R < kx, low, 0.0) - log_p
    lb = np.where(R < kx, 0.0, low) - log_p
    a, b = R / L, kx / L
    ea2 = np.exp((s - 2.0) * la)
    ea, eb = ea2 * a, np.exp((s - 1.0) * lb)   # a^(s-1) = V_y and b^(s-1)
    u, v = ea * a, eb * b
    one_ea = -np.expm1((s - 1.0) * la)
    big_v = (L + c * x) / (1.0 - c)
    vx = (c * one_ea + K * eb) / (1.0 - c)
    w0 = (1.0 - c) * K * eb * ea2 * (y / L) / L
    w = (s - 1.0) * w0
    dens = vx * ea + w
    ea_c = ea / (1.0 - c)

    # coefficient of D: V_x V_y moves through a and b, -V_xy through
    # a^(s-2) b^(s-1) L^-2, V through L
    alpha = ((s - 1.0) * ea * (vx * v - (K * eb * u + c * ea * v) / (1.0 - c))
             + w * ((s - 2.0) * v - (s + 1.0) * u)) / dens \
        - L * u / (1.0 - c)
    f_x = alpha * (-c / R - 1.0 / x) - 2.0 * w / (x * dens) \
        - (L / x + c) / (1.0 - c)
    f_y = alpha * ((1.0 - c) / R) + w / (y * dens)
    f_c = alpha * (2.0 / K - (x + y) / R) \
        + (w * (2.0 / K - 1.0 / (1.0 - c))
           + (one_ea - 2.0 * eb + vx) * ea_c) / dens \
        + (2.0 * L / K - x - big_v) / (1.0 - c)

    # along s: d log L = m and d log a = d log b = -m; a^(s-1), b^(s-1)
    # and -V_xy also carry s in their exponents
    m = (u * la + v * lb) / s
    d_log_ea = la - (s - 1.0) * m
    d_eb = eb * (lb - (s - 1.0) * m)
    d_vx = K * d_eb - c * ea * d_log_ea
    f_s = (d_vx * ea_c + vx * ea * d_log_ea
           + w * (la + lb - (2.0 * s - 1.0) * m) + w0) / dens \
        - L * m / (1.0 - c)
    return f_x, f_y, f_c, f_s


def v_closed(p: ExpPair, c, s):
    """Closed-form restricted measure V at one exponential-scale point."""
    RestrictedLogisticParams(c, s)
    return float(_v_closed(p.x_e, p.y_e, c, s))


def v_numeric(p: ExpPair, model: DependenceModel, tol=V_QUAD_TOL):
    """Quadrature oracle for V = int max[w x, (1-w) y] dH(w).

    By parts against the bounded measure function H, with k = y/(x+y),

        V = x H(1) + y int_0^k H(w) dw - x int_k^1 H(w) dw,

    on a tanh-sinh rule split at k and the family's breakpoints.  H counts
    the atoms, and it stays bounded where the density h is singular
    (s < 2).  Independent of every closed form, so it cross-checks
    v_closed and v_from_a.  ``tol`` bounds the estimated relative error;
    NumericError is raised when the rule cannot reach it or H is not
    finite.
    """
    x, y = p.x_e, p.y_e
    kink = y / (x + y)
    edges = sorted({0.0, kink, 1.0, *model.breakpoints()})
    slopes = np.where(np.asarray(edges[:-1]) < kink, -y, x)
    # V >= max(x, y), so an absolute error of tol max(x, y) is relative tol
    return _integrate_dH(model, edges, slopes, x, tol * max(x, y))


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
    a = model.a(w)
    ap = model.a_prime(w)
    h = model.h(w)
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


def shared_shape_tail_limit(mx: GevmParams, my: GevmParams):
    """Limit of D(x, x) as x -> -inf when both shapes are equal and > 0."""
    if mx.xi == my.xi and mx.xi > 0.0:
        return (mx.sigma / my.sigma) ** (1.0 / mx.xi)
    return None


def c_from_margins(mx: GevmParams, my: GevmParams, x_lo=None, x_hi=None,
                   n_grid=512):
    """Ordering boundary c = 1/(1 + d), d = min of D(x, x) over the domain.

    Searches a log-spaced grid running from just below the joint upper
    support down through a range extended far into the lower tail, then
    refines the best point by bounded scalar minimisation.  When both
    shapes are equal and positive, the analytic x -> -inf limit
    (sigma_x / sigma_y)^(1/xi) joins the candidate set; for the reference
    study design it is the minimiser.

    A result at or above 1/2 means the margins cannot support the
    ordering X < Y; it is returned with a warning.
    """
    hi_cap = min(mx.upper_endpoint(), my.upper_endpoint())
    lo_cap = max(mx.lower_endpoint(), my.lower_endpoint())
    if x_hi is None:
        x_hi = hi_cap - 1e-9 * (1.0 + abs(hi_cap)) if math.isfinite(hi_cap) \
            else max(mx.mu, my.mu) + 40.0 * max(mx.sigma, my.sigma)
    if x_lo is None:
        base = min(mx.mu, my.mu) - 40.0 * max(mx.sigma, my.sigma)
        x_lo = base - 10.0 * (x_hi - base)
    x_lo = max(x_lo, lo_cap + 1e-9 * (1.0 + abs(lo_cap))) if math.isfinite(lo_cap) else x_lo
    if not x_lo < x_hi:
        raise DomainError("empty feasible search domain for the boundary constant")

    # log-spaced offsets below x_hi reach far into the lower tail
    span = x_hi - x_lo
    offsets = np.logspace(math.log10(span * 1e-9), math.log10(span), n_grid)
    grid = x_hi - offsets
    dvals = _diag_ratio(grid, mx, my)
    finite = np.isfinite(dvals)
    if not np.any(finite):
        raise DomainError("no feasible grid point for the boundary constant")
    k = int(np.argmin(np.where(finite, dvals, np.inf)))
    lo_b = grid[min(k + 1, len(grid) - 1)]
    hi_b = grid[max(k - 1, 0)]
    d_best = float(dvals[k])
    if lo_b < hi_b:
        res = minimize_scalar(lambda x: float(_diag_ratio(x, mx, my)),
                              bounds=(lo_b, hi_b), method="bounded",
                              options={"xatol": 1e-10 * (1.0 + abs(hi_b))})
        if res.fun < d_best:
            d_best = float(res.fun)

    # the analytic limit is only a candidate when it implies a usable
    # ordering boundary; at tail <= 1 the infimum is never attained and
    # the finite search domain governs
    tail = shared_shape_tail_limit(mx, my)
    if tail is not None and tail > 1.0:
        d_best = min(d_best, tail)

    c = 1.0 / (1.0 + d_best)
    if c >= 0.5:
        warnings.warn(
            "boundary constant at or above 1/2: margins do not support the "
            "ordering X < Y", RuntimeWarning, stacklevel=2)
    return c
