"""Estimation: non-parametric dependence curves, the ordering-boundary
estimate, and penalized-likelihood fitting of the restricted model.

The non-parametric estimator of A evaluates, per fraction w, the pooled
minimum T_i = min(X_i / (1-w), Y_i / w) of an exponential-scale sample;
T is Exp(A(w)) under the model, so n / sum(T_i) estimates A(w).  The
mean-rescaled variant divides each coordinate by its sample mean, which
pins the endpoints at exactly 1 and keeps the curve above the convex
envelope max(w, 1-w).  T_i = X_i / (1-w) exactly when w <= Y_i/(X_i+Y_i),
so the pairs are sorted once by their y-fraction and each w reads a
suffix sum of X and a prefix sum of Y: O(n log n + G) for G fractions.

The parametric fit alternates penalized trend updates with a bounded
quasi-Newton step (L-BFGS-B, the one scalar optimiser) on (s, sigma_x,
sigma_y, xi), reparametrised as (log(s-1), log sigma_x, log sigma_y, xi)
so the constraints s > 1 and sigma > 0 hold by construction.  L-BFGS-B
gets the exact gradient of its objective, by the chain rule through
measure._log_density (the log density and its x, y, c, s partials),
margins.log_exp_scale_grad (the transform in sigma, xi) and the
boundary constant's dc (measure.boundary_constant, over the window
_trial_boundary picks); the infeasible wall is piecewise linear and has
its exact gradient too, so no finite difference is taken.  The first
scalar stage also tries six jittered starts, and a stall triggers one
more multi-start pass before the fit is declared converged; both pay for
themselves in fitted log-likelihood on the reference study.  Observations
falling in the model's zero-density region make a trial parameter point
infinitely unlikely, which keeps the implied boundary constant below the
smallest observed y-fraction.  Data reach the exponential scale only
through margins.log_exp_scale.

The trend penalty lam * g'D'Dg (D the second-difference operator) is the
Whittaker smoother's.  D'D is pentadiagonal, so the trend stage and the
starting trends use only its band and np.diff: O(n) per step and no BLAS
matrix product, which keeps fits identical at any BLAS thread count.
One outer map F runs the two trend stages and the scalar stage.  Such
block-coordinate ascent converges linearly, so F is driven by SQUAREM
(Varadhan & Roland, Scand. J. Stat. 2008): from theta, F(theta) and
F(F(theta)) it tries theta - 2 alpha r + alpha^2 v (r, v the first and
second differences of that path, -alpha = |r|/|v| clipped to [1, cap],
the cap growing 4-fold each time it binds) and applies F once more.  The
result is kept only if it beats F(F(theta)); otherwise alpha moves halfway
toward -1, and after SQUAREM_TRIES tries F(F(theta)) stands: the fit is
monotone.  FitConfig.max_outer counts maps.  A plain map that does not
clear the stall bar is rolled back, so the returned state is the last
accepted one and a fit restarted from its own result returns it unchanged.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .dependence import _check_unit_interval, _sorted_unique
from .errors import InputError, NumericError, ParameterError
from .margins import base_minus_one, log_exp_scale, log_exp_scale_grad
# _v_closed and _v_partials are not used here; they are imported because
# benchmarks/tracer.py patches them on this module
from .measure import (_log_density, _v_closed, _v_partials,  # noqa: F401
                      boundary_constant)
from .series import BivariateSeries

# fixed settings of fit_restricted
XI_BOUNDS = (-0.45, 0.95)       # box for the shared shape xi
BOUNDARY_MARGIN = 1e-3          # least gap between y-fractions and c
TREND_MAX_ITER = 50             # Newton steps per trend stage
SCALAR_MAX_ITER = 60            # L-BFGS-B iterations per scalar start
SQUAREM_TRIES = 3               # SQUAREM step lengths tried per cycle
# why a likelihood evaluation is -inf: bad scalars or an observation off
# a margin's support; c >= 1/2; a y-fraction within BOUNDARY_MARGIN of c;
# a log density that is not finite
INFEASIBLE_REASONS = ("support", "boundary", "ordering", "density")


# scipy is imported at the first fit, so that importing ordext loads numpy
# only; the fit calls these module names, which benchmarks/tracer.py patches
def solveh_banded(*args, **kwargs):
    """scipy.linalg.solveh_banded."""
    from scipy.linalg import solveh_banded
    return solveh_banded(*args, **kwargs)


def minimize(*args, **kwargs):
    """scipy.optimize.minimize."""
    from scipy.optimize import minimize
    return minimize(*args, **kwargs)


# ---------------------------------------------------------------------------
# non-parametric estimation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PickandsCurve:
    """Grid of fractions with estimated (or exact) dependence values."""

    omegas: np.ndarray
    values: np.ndarray
    variant: str = "modified"

    def __post_init__(self):
        object.__setattr__(self, "omegas", np.asarray(self.omegas, dtype=float))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.variant not in ("raw", "modified", "exact"):
            raise ParameterError(f"unknown curve variant {self.variant!r}")
        if len(self.omegas) != len(self.values):
            raise InputError("omega and value grids must have equal length")


def _check_sample(xe, ye):
    xe = np.asarray(xe, dtype=float)
    ye = np.asarray(ye, dtype=float)
    if xe.size == 0 or ye.size == 0:
        raise InputError("empty sample")
    if xe.ndim != 1 or xe.shape != ye.shape:
        raise InputError("x and y samples must be 1-D of equal length")
    if not (np.all(np.isfinite(xe)) and np.all(np.isfinite(ye))):
        raise InputError("sample has a non-finite value")
    if np.any(xe < 0.0) or np.any(ye < 0.0):
        raise InputError("sample has a negative value")
    if np.any(xe + ye == 0.0):
        raise InputError("sample has a pair with x + y = 0")
    if not np.any((xe > 0.0) & (ye > 0.0)):
        # at every 0 < w < 1 each pooled minimum would be 0, and A = inf
        raise InputError("sample has no pair with x > 0 and y > 0")
    return xe, ye


# a rounded y-fraction fl(y/(x+y)) is within eps of the exact one, and the
# minimum's rounded 1 - w moves its tie by at most eps/8: a pair whose
# rounded fraction is farther than _TIE from w takes the side it says
_TIE = 4.0 * np.finfo(float).eps


def _running_sums(v):
    # prefix sums that carry each step's rounding error (TwoSum), so a
    # prefix of non-negative terms is within ~eps of its exact value
    p = np.cumsum(v)
    prev = np.concatenate(([0.0], p[:-1]))
    step = p - prev
    return p + np.cumsum((prev - (p - step)) + (v - step))


def _pooled_minimum_mean(xe, ye, w):
    # min(x/(1-w), y/w) = x/(1-w) exactly when w <= k = y/(x+y).  With the
    # pairs ordered by k, those from w's split index on take x/(1-w) and the
    # rest y/w, so the mean is a suffix sum of x and a prefix sum of y; only
    # pairs whose rounded k lies within _TIE of w take the minimum itself.
    # Segments between split indices are summed pairwise and their prefixes
    # compensated, so each mean is within a few eps of the exact one.
    w = np.atleast_1d(np.asarray(w, dtype=float))
    _check_unit_interval(w)
    n = xe.size
    k = ye / (xe + ye)
    order = np.argsort(k)
    lo = np.searchsorted(k, w - _TIE, sorter=order)
    hi = np.searchsorted(k, w + _TIE, side="right", sorter=order)
    del k
    cuts = _sorted_unique(np.concatenate(([0, n], lo, hi)))
    seg_x, seg_y = np.empty(cuts.size - 1), np.empty(cuts.size - 1)
    for i in range(cuts.size - 1):
        rows = order[cuts[i]:cuts[i + 1]]
        seg_x[i], seg_y[i] = xe[rows].sum(), ye[rows].sum()
    tail_x = np.append(_running_sums(seg_x[::-1])[::-1], 0.0)
    head_y = np.append(0.0, _running_sums(seg_y))
    band = np.zeros(w.size)
    # the ends divide by 0 and are set below; in a band, the side that is
    # not the minimum may overflow
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i in np.flatnonzero(hi > lo):
            rows = order[lo[i]:hi[i]]
            band[i] = np.minimum(xe[rows] / (1.0 - w[i]),
                                 ye[rows] / w[i]).sum()
        out = (head_y[np.searchsorted(cuts, lo)] / w
               + tail_x[np.searchsorted(cuts, hi)] / (1.0 - w) + band) / n
    out[w == 0.0] = tail_x[0] / n
    out[w == 1.0] = head_y[-1] / n
    return out


def pickands_raw(xe, ye, w):
    """Pooled-minimum estimate of A(w); biased at the endpoints.

    At w = 0 the statistic degenerates to the sample mean of X, so the
    estimate is 1/mean(X) rather than 1 (and 1/mean(Y) at w = 1).
    """
    xe, ye = _check_sample(xe, ye)
    scalar = np.ndim(w) == 0
    out = 1.0 / _pooled_minimum_mean(xe, ye, w)
    return float(out[0]) if scalar else out


def pickands_modified(xe, ye, w):
    """Mean-rescaled pooled-minimum estimate of A(w).

    Endpoints equal 1 exactly and the estimate never drops below
    max(w, 1-w); both identities hold analytically, and the return value
    is clamped onto them to guard against last-ulp rounding.
    """
    xe, ye = _check_sample(xe, ye)
    scalar = np.ndim(w) == 0
    warr = np.atleast_1d(np.asarray(w, dtype=float))
    out = 1.0 / _pooled_minimum_mean(xe / np.mean(xe), ye / np.mean(ye), warr)
    out = np.maximum(out, np.maximum(warr, 1.0 - warr))
    out[warr == 0.0] = 1.0
    out[warr == 1.0] = 1.0
    return float(out[0]) if scalar else out


def pickands_curve(xe, ye, omegas=None, variant="modified") -> PickandsCurve:
    """Estimate a full dependence curve on a grid (201 points by default)
    with the "raw" or the "modified" estimator."""
    fn = {"raw": pickands_raw, "modified": pickands_modified}.get(variant)
    if fn is None:
        raise ParameterError(f"unknown estimator variant {variant!r}")
    if omegas is None:
        omegas = np.linspace(0.0, 1.0, 201)
    omegas = np.asarray(omegas, dtype=float)
    return PickandsCurve(omegas, fn(xe, ye, omegas), variant)


def estimate_c_hat(xe, ye):
    """Non-parametric ordering-boundary estimate: the smallest y-fraction.

    On data from a restricted model with boundary c this is always >= c
    (every observation has y-fraction above c), so the estimate is biased
    upward.
    """
    xe, ye = _check_sample(xe, ye)
    return float(np.min(ye / (xe + ye)))


# ---------------------------------------------------------------------------
# penalized trend update
# ---------------------------------------------------------------------------

_STENCIL = (1.0, -2.0, 1.0)     # one row of the second-difference operator D


def _penalty_band(n, lam):
    """Lower band of 2 lam D'D in solveh_banded layout, shape (3, n).

    Row k holds the k-th subdiagonal: each row i of D puts _STENCIL[a] at
    column i + a, and contributes _STENCIL[a] * _STENCIL[a + k] to the
    entry (i + a + k, i + a).  Valid for every n >= 3: at n = 3 and 4 the
    edges of the interior diagonal 1, 5, 6, ..., 6, 5, 1 overlap.
    """
    band = np.zeros((3, n))
    for a in range(3):
        for k in range(3 - a):
            band[k, a:a + n - 2] += _STENCIL[a] * _STENCIL[a + k]
    return 2.0 * lam * band


def _dtd_dot(g):
    """D'D g in O(n): D' applied to the second differences of g."""
    return np.diff(np.pad(np.diff(g, 2), 2), 2)


def roughness(g):
    """Sum of squared second differences along the time grid, g'D'Dg."""
    g = np.asarray(g, dtype=float)
    if len(g) < 3:
        return 0.0
    return float(np.sum((g[:-2] - 2.0 * g[1:-1] + g[2:]) ** 2))


def trend_penalized(objective, lam, times, g0=None, max_iter=50, tol=1e-12):
    """Maximise sum(objective(g)) - lam * roughness(g) over a trend vector.

    objective(g) must return the per-observation log-likelihood terms as a
    vector aligned with times, where term i depends on g only through
    g[i].  That separability makes the Hessian of the penalized objective
    diagonal-plus-pentadiagonal, so each damped Newton step is one banded
    solve and a stage costs O(n) per step; derivatives of the terms come
    from simultaneous central differences (two extra objective evaluations
    per step).  Raises NumericError when the Newton system cannot be
    solved at any damping level or gives a non-finite step; a line search
    that finds no ascent ends the stage normally.

    lam = 0 interpolates the per-time maximisers; lam -> inf approaches
    the best straight line under the objective.
    """
    if not 0.0 <= lam < math.inf:
        raise InputError("smoothing weight must be nonnegative and finite")
    times = np.asarray(times, dtype=float)
    m = len(times)
    if m < 3:
        raise InputError("need at least 3 observation times")
    g = np.zeros(m) if g0 is None else np.asarray(g0, dtype=float).copy()
    pen_band = _penalty_band(m, lam)

    def value(vec, terms=None):
        if terms is None:
            terms = np.asarray(objective(vec), dtype=float)
        total = float(np.sum(terms)) - lam * roughness(vec)
        return (total if np.isfinite(total) else -np.inf), terms

    current, terms = value(g)
    if not np.isfinite(current):
        raise NumericError("trend update started from an infeasible point")

    for _ in range(max_iter):
        eps = 1e-5 * np.maximum(1.0, np.abs(g))
        up = np.asarray(objective(g + eps), dtype=float)
        dn = np.asarray(objective(g - eps), dtype=float)
        bad = ~(np.isfinite(up) & np.isfinite(dn))
        with np.errstate(over="ignore", invalid="ignore"):
            d1 = np.where(bad, 0.0, (up - dn) / (2.0 * eps))
            dd = np.where(bad, -1.0, (up - 2.0 * terms + dn) / eps ** 2)
        dd = np.minimum(np.where(np.isfinite(dd), dd, -1.0), -1e-9)
        grad = d1 - 2.0 * lam * _dtd_dot(g)
        if float(np.max(np.abs(grad))) <= 1e-11 * (1.0 + abs(current)):
            break

        damp = 0.0
        for _try in range(12):
            band = pen_band.copy()
            band[0] += -dd + damp
            try:
                step = solveh_banded(band, grad, lower=True,
                                     check_finite=False)
                break
            except np.linalg.LinAlgError:
                damp = max(2.0 * damp, 1e-6)
        else:
            raise NumericError("trend Newton system is singular at every "
                               "damping level")
        if not np.all(np.isfinite(step)):
            raise NumericError("trend Newton step is not finite")

        improved = False
        alpha = 1.0
        for _bt in range(25):
            cand, cand_terms = value(g + alpha * step)
            if cand > current:
                gain = cand - current
                g = g + alpha * step
                current, terms = cand, cand_terms
                improved = True
                break
            alpha *= 0.5
        if not improved:
            break
        if gain <= tol * (1.0 + abs(current)):
            break
    return g


def ridge_trend(y, lam):
    """Closed-form Gaussian trend: solve (I + 2 lam D'D) g = y, banded."""
    y = np.asarray(y, dtype=float)
    if len(y) < 3:
        return y.copy()
    band = _penalty_band(len(y), lam)
    band[0] += 1.0
    return solveh_banded(band, y, lower=True)


# ---------------------------------------------------------------------------
# penalized likelihood fit of the restricted model
# ---------------------------------------------------------------------------

@dataclass
class FitConfig:
    """Outer-loop cap and stall tolerance, and an optional start point."""

    max_outer: int = 60
    outer_tol: float = 1e-8
    start: dict | None = None

    def __post_init__(self):
        if not isinstance(self.max_outer, (int, np.integer)) \
                or self.max_outer < 1:
            raise ParameterError("max_outer must be a positive integer")


@dataclass
class FitResult:
    """Fitted restricted model with its iteration trace."""

    s: float
    sigma_x: float
    sigma_y: float
    xi: float
    g_x: np.ndarray
    g_y: np.ndarray
    c_hat: float
    c_hat_pickands: float
    times: np.ndarray
    trace: list
    loglik: float
    converged: bool
    message: str = ""
    # maps, extrapolations_tried, extrapolations_accepted, rescued;
    # evaluations (likelihood calls) and infeasible (the -inf ones, by
    # reason, see INFEASIBLE_REASONS)
    diagnostics: dict = field(default_factory=dict)


def _trial_boundary(mu_x, mu_y, sig_x, sig_y, xi, data_lo, data_hi,
                    grad=False):
    """measure.boundary_constant over the whole line for xi > 0, and for
    xi <= 0 over [data_hi - 11 span, data_hi - 1e-6 span]: there the
    whole support mostly gives c >= 1/2, as D falls to 0 at X's lower
    endpoint when that lies above Y's, and otherwise toward its x -> inf
    limit (sigma_x/sigma_y)^(1/xi), below 1 whenever sigma_x > sigma_y.
    """
    span = max(data_hi - data_lo, 1e-6)
    lo, hi = (-math.inf, math.inf) if xi > 0.0 else \
        (data_hi - 11.0 * span, data_hi - 1e-6 * span)
    return boundary_constant(mu_x, mu_y, sig_x, sig_y, xi, xi, lo, hi, grad)


def _y_fraction(log_ex, log_ey):
    """y-fraction ey / (ex + ey) from log scales, safe from overflow."""
    return 1.0 / (1.0 + np.exp(np.clip(log_ex - log_ey, -700.0, 700.0)))


class _RestrictedLikelihood:
    """Vectorised penalized log-likelihood for one ordered series.

    Trials must keep every observed y-fraction strictly above the implied
    boundary by `margin`: for 1 < s < 2 the density diverges as the
    boundary approaches the smallest fraction, so an unconstrained
    optimiser would race the boundary onto the data minimum.

    terms, penalized and boundary take grad=True to return (value,
    gradient), and infeasibility always returns both; the gradient is
    taken with respect to the scalar parameters (s, sigma_x, sigma_y, xi)
    at fixed trends (for boundary, (sigma_x, sigma_y, xi)).
    """

    def __init__(self, series: BivariateSeries, lam_x, lam_y):
        self.x = series.x
        self.y = series.y
        self.lam_x = lam_x
        self.lam_y = lam_y
        self.data_lo = float(min(np.min(self.x), np.min(self.y)))
        self.data_hi = float(max(np.max(self.x), np.max(self.y)))
        # terms calls, and their -inf returns by reason
        self.evaluations = 0
        self.infeasible = dict.fromkeys(INFEASIBLE_REASONS, 0)

    def terms(self, g_x, g_y, sig_x, sig_y, xi, s, grad=False):
        """Per-observation log density; -inf entries flag zero-mass points.

        grad=True also returns the gradient of their sum (None when a
        term is -inf).  Each call is counted, and each -inf return under
        its reason in INFEASIBLE_REASONS.
        """
        self.evaluations += 1
        if not (sig_x > 0 and sig_y > 0 and s > 1.0):
            return self._infeasible("support", grad)
        log_ex, log_ey = self.log_scales(g_x, g_y, sig_x, sig_y, xi)
        if not (np.all(np.isfinite(log_ex)) and np.all(np.isfinite(log_ey))):
            return self._infeasible("support", grad)
        c = self.boundary(g_x, g_y, sig_x, sig_y, xi, grad=grad)
        if grad:
            c, dc = c
        if c >= 0.5:
            return self._infeasible("boundary", grad)
        if np.any(_y_fraction(log_ex, log_ey) <= c + BOUNDARY_MARGIN):
            return self._infeasible("ordering", grad)
        with np.errstate(all="ignore"):
            ex, ey = np.exp(log_ex), np.exp(log_ey)
            dens = _log_density(ex, ey, c, s, grad=grad)
        if grad:
            dens, (f_x, f_y, f_c, f_s) = dens
        if not np.all(np.isfinite(dens)):
            return self._infeasible("density", grad)
        t = (dens + (1.0 + xi) * (log_ex + log_ey)
             - math.log(sig_x) - math.log(sig_y))
        if not grad:
            return t
        # chain rule: the density's (x, y, c, s) partials, the margins'
        # (sigma, xi) partials and the boundary's dc
        dx_sig, dx_xi = log_exp_scale_grad(self.x, g_x, sig_x, xi)
        dy_sig, dy_xi = log_exp_scale_grad(self.y, g_y, sig_y, xi)
        # d t / d log e_x and d log e_y
        wx = f_x * ex + (1.0 + xi)
        wy = f_y * ey + (1.0 + xi)
        n = len(self.x)
        return t, np.array([
            np.sum(f_s),
            np.sum(wx * dx_sig) - n / sig_x,
            np.sum(wy * dy_sig) - n / sig_y,
            np.sum(wx * dx_xi + wy * dy_xi + log_ex + log_ey),
        ]) + np.sum(f_c) * np.concatenate(([0.0], dc))

    def _infeasible(self, reason, grad):
        self.infeasible[reason] += 1
        bad = np.full(len(self.x), -np.inf)
        return (bad, None) if grad else bad

    def penalty(self, g_x, g_y):
        return self.lam_x * roughness(g_x) + self.lam_y * roughness(g_y)

    def penalized(self, g_x, g_y, sig_x, sig_y, xi, s, grad=False):
        t = self.terms(g_x, g_y, sig_x, sig_y, xi, s, grad=grad)
        if grad:
            t, dt = t
        total = float(np.sum(t))
        if not np.isfinite(total):
            return (-np.inf, None) if grad else -np.inf
        total -= self.penalty(g_x, g_y)
        return (total, dt) if grad else total

    def infeasibility(self, g_x, g_y, sig_x, sig_y, xi, s):
        """Graded distance from the feasible region (0 when feasible) and
        its gradient.

        Gives the scalar optimiser a slope back toward feasibility
        instead of a flat wall when a trial crosses a support or
        ordering constraint.  It is piecewise linear in the support
        margins b_x, b_y, the boundary c and the y-fractions, and so is
        its gradient.
        """
        if sig_x <= 0 or sig_y <= 0 or s <= 1.0:
            return 1e6, np.zeros(4)
        bx = 1.0 + base_minus_one(self.x, g_x, sig_x, xi)
        by = 1.0 + base_minus_one(self.y, g_y, sig_y, xi)
        score = float(np.sum(np.maximum(-bx, 0.0) + np.maximum(-by, 0.0)))
        if score > 0:
            # -b = xi u - 1 with u = (z - g) / sigma, over the violations
            ux = np.sum(np.where(bx < 0.0, (self.x - g_x) / sig_x, 0.0))
            uy = np.sum(np.where(by < 0.0, (self.y - g_y) / sig_y, 0.0))
            return 1.0 + score, np.array([0.0, -xi * ux / sig_x,
                                          -xi * uy / sig_y, ux + uy])
        c, dc = self.boundary(g_x, g_y, sig_x, sig_y, xi, grad=True)
        if c >= 0.5:
            return 1.0 + 10.0 * (c - 0.499), \
                np.concatenate(([0.0], 10.0 * dc))
        frac = _y_fraction(*self.log_scales(g_x, g_y, sig_x, sig_y, xi))
        gap = c + BOUNDARY_MARGIN - frac
        value = 100.0 * float(np.sum(np.maximum(gap, 0.0)))
        # d frac = -frac (1 - frac) d(log e_x - log e_y)
        active = gap > 0.0
        slope = (frac * (1.0 - frac))[active]
        dx_sig, dx_xi = log_exp_scale_grad(self.x[active], g_x[active],
                                           sig_x, xi)
        dy_sig, dy_xi = log_exp_scale_grad(self.y[active], g_y[active],
                                           sig_y, xi)
        m = np.count_nonzero(active)
        return value, 100.0 * np.array([
            0.0,
            m * dc[0] + np.sum(slope * dx_sig),
            m * dc[1] - np.sum(slope * dy_sig),
            m * dc[2] + np.sum(slope * (dx_xi - dy_xi)),
        ])

    def boundary(self, g_x, g_y, sig_x, sig_y, xi, grad=False):
        return _trial_boundary(g_x, g_y, sig_x, sig_y, xi, self.data_lo,
                               self.data_hi, grad=grad)

    def log_scales(self, g_x, g_y, sig_x, sig_y, xi):
        """log of the data on the trial exponential scales (nan or inf
        off the support)."""
        with np.errstate(divide="ignore", invalid="ignore"):
            return (log_exp_scale(self.x, g_x, sig_x, xi),
                    log_exp_scale(self.y, g_y, sig_y, xi))


def _initial_state(series, lam_x, lam_y, lik, start):
    """Feasible starting point for the optimiser.

    With shared shape xi > 0 and sigma_x > sigma_y the restricted model
    needs (sigma_x - sigma_y) / xi below the location gap, otherwise the
    X margin's upper endpoint crosses the Y margin's and ordering becomes
    impossible; the starting xi is therefore placed above that wall.
    """
    g_x = ridge_trend(series.x, lam_x)
    g_y = ridge_trend(series.y, lam_y)

    def robust_scale(resid):
        # IQR-based spread: heavy lower tails of minima data inflate the
        # plain standard deviation badly
        q25, q75 = np.percentile(resid, [25.0, 75.0])
        return max(float(q75 - q25) / 1.349, 1e-3)

    sig_x = robust_scale(series.x - g_x)
    sig_y = robust_scale(series.y - g_y)
    if sig_x <= sig_y:
        sig_x = 1.05 * sig_y
    gap = float(np.min(g_y - g_x))
    wall = (sig_x - sig_y) / gap if gap > 0 else 0.3
    xi0 = min(max(0.12, 1.5 * wall), 0.4)
    state = {"g_x": g_x, "g_y": g_y, "sigma_x": sig_x, "sigma_y": sig_y,
             "xi": xi0, "s": 1.5}
    if start:
        for key in state:
            if key in start:
                state[key] = np.asarray(start[key], dtype=float) \
                    if key.startswith("g_") else float(start[key])

    def feasible(st):
        return np.isfinite(lik.penalized(st["g_x"], st["g_y"], st["sigma_x"],
                                         st["sigma_y"], st["xi"], st["s"]))

    if feasible(state):
        return state
    base_x, base_y = state["sigma_x"], state["sigma_y"]
    for fac in (1.0, 1.3, 1.8, 2.5, 4.0):
        for xi_try in (xi0, 1.5 * xi0, min(2.5 * xi0, 0.6), 0.25, 0.35,
                       0.6 * xi0):
            state["sigma_x"] = base_x * fac
            state["sigma_y"] = base_y * fac
            state["xi"] = xi_try
            if feasible(state):
                return state
    raise NumericError("could not find a feasible starting point for the fit")


def _scalar_objective(phi, lik, g_x, g_y):
    """Scalar-stage objective at fixed trends and its exact gradient.

    phi = (log(s-1), log sigma_x, log sigma_y, xi).  The value is the
    negative penalized log-likelihood; off the feasible region it is a
    steep wall 1e12 (1 + infeasibility), graded so the optimiser keeps a
    slope back toward feasibility.
    """
    sx, sy = math.exp(phi[1]), math.exp(phi[2])
    strength_m1 = math.exp(phi[0])
    strength = 1.0 + strength_m1
    # d/d phi = (s - 1, sigma_x, sigma_y, 1) * d/d(s, sigma_x, sigma_y, xi)
    scale = np.array([strength_m1, sx, sy, 1.0])
    val, grad = lik.penalized(g_x, g_y, sx, sy, phi[3], strength, grad=True)
    if np.isfinite(val):
        return -val, -grad * scale
    wall, grad = lik.infeasibility(g_x, g_y, sx, sy, phi[3], strength)
    return 1e12 * (1.0 + wall), 1e12 * grad * scale


def fit_restricted(series: BivariateSeries, lam_x, lam_y,
                   config: FitConfig | None = None) -> FitResult:
    """Fit the restricted model with penalized location trends.

    Requires strictly ordered observations (x_i < y_i).  One outer map
    runs a penalized trend update for each margin and then a bounded
    quasi-Newton pass over (s, sigma_x, sigma_y, xi); SQUAREM extrapolates
    along the path of every two maps, and the fit stops when a map no
    longer raises the penalized log-likelihood.  config.max_outer caps the
    number of maps.  The trace records the accepted states for
    convergence plots; the result carries both boundary estimates
    (parametric, and the non-parametric minimum y-fraction of the data on
    the fitted exponential scale) and counts of the work done.
    """
    config = config or FitConfig()
    if not (0.0 <= lam_x < math.inf and 0.0 <= lam_y < math.inf):
        raise InputError("smoothing weights must be nonnegative and finite")
    if not series.is_ordered():
        raise InputError("fit requires x_i < y_i for every observation")
    series = series.sorted_by_time()
    if len(series) < 3:
        raise InputError("need at least 3 observations")

    n = len(series)
    lik = _RestrictedLikelihood(series, lam_x, lam_y)
    init = _initial_state(series, lam_x, lam_y, lik, config.start)
    # a state is (g_x, g_y, sigma_x, sigma_y, xi, s), lik's argument order
    state = tuple(init[k] for k in ("g_x", "g_y", "sigma_x", "sigma_y", "xi",
                                    "s"))

    bounds = [(math.log(1e-6), math.log(60.0)),
              (math.log(1e-8), math.log(1e8)),
              (math.log(1e-8), math.log(1e8)),
              XI_BOUNDS]
    lo, hi = np.array(bounds).T
    # deterministic jitters used for multi-start on the first pass and as
    # a rescue when the outer loop stalls early
    scalar_offsets = np.array([
        [0.0, 0.25, 0.25, 0.05], [0.0, -0.25, -0.25, -0.05],
        [0.6, 0.0, 0.0, 0.0], [-0.6, 0.0, 0.0, 0.0],
        [0.0, 0.3, -0.1, 0.1], [0.0, -0.3, 0.1, -0.1],
    ])

    # the scalars as L-BFGS-B sees them: log(s-1), log sigma_x, log sigma_y, xi
    def phi(st):
        _g_x, _g_y, sig_x, sig_y, xi, s = st
        return np.array([math.log(s - 1.0), math.log(sig_x), math.log(sig_y),
                         xi])

    def theta(st):
        return np.concatenate((st[0], st[1], phi(st)))

    def with_scalars(g_x, g_y, p):     # inverse of phi
        return (g_x, g_y, math.exp(p[1]), math.exp(p[2]), float(p[3]),
                1.0 + math.exp(p[0]))

    def scalar_stage(st, multi_start):
        phi0 = phi(st)
        starts = [phi0]
        if multi_start:
            starts += [np.clip(phi0 + off, lo, hi) for off in scalar_offsets]
        best_phi, best_val = phi0, _scalar_objective(phi0, lik, *st[:2])[0]
        for start in starts:
            res = minimize(_scalar_objective, start, args=(lik, *st[:2]),
                           method="L-BFGS-B", jac=True, bounds=bounds,
                           options={"maxiter": SCALAR_MAX_ITER,
                                    "ftol": 1e-11, "gtol": 1e-9})
            if np.isfinite(res.fun) and res.fun < best_val:
                best_phi, best_val = res.x, res.fun
        return with_scalars(*st[:2], best_phi)

    def outer_map(st, multi_start=False):
        g_x, g_y, *scalars = st
        g_x = trend_penalized(lambda g: lik.terms(g, g_y, *scalars),
                              lam_x, series.t, g_x, max_iter=TREND_MAX_ITER)
        g_y = trend_penalized(lambda g: lik.terms(g_x, g, *scalars),
                              lam_y, series.t, g_y, max_iter=TREND_MAX_ITER)
        return scalar_stage((g_x, g_y, *scalars), multi_start)

    explore = config.start is None
    current = lik.penalized(*state)
    trace = []
    diagnostics = {"maps": 0, "extrapolations_tried": 0,
                   "extrapolations_accepted": 0, "rescued": False}

    def accept(st, value):
        # the trace holds accepted states only, each at the map count that
        # produced it; trace[-1] is the result
        nonlocal state, current
        state, current = st, value
        _g_x, _g_y, sig_x, sig_y, xi, s = st
        trace.append({"iteration": diagnostics["maps"], "s": s,
                      "sigma_x": sig_x, "sigma_y": sig_y, "xi": xi,
                      "penalized_loglik": value})

    def plain_map():
        # one map from the accepted state; False when it stalls, and then
        # the state stays as it was
        diagnostics["maps"] += 1
        new_state = outer_map(state, explore and diagnostics["maps"] == 1)
        new = lik.penalized(*new_state)
        stall = config.outer_tol * (1.0 + abs(current))
        if new - current <= stall and explore and not diagnostics["rescued"]:
            # one multi-start rescue from the accepted state, kept only if
            # it genuinely clears the stall bar
            diagnostics["rescued"] = True
            new_state = scalar_stage(state, multi_start=True)
            new = lik.penalized(*new_state)
        if new - current <= stall:
            return False
        accept(new_state, new)
        return True

    def extrapolate(theta0, theta1, theta2):
        # SQUAREM step from three accepted states one map apart, as the
        # module docstring describes
        nonlocal step_max
        r = theta1 - theta0
        v = theta2 - 2.0 * theta1 + theta0
        vv = float(np.sum(v * v))
        ratio = math.sqrt(float(np.sum(r * r)) / vv) if vv > 0.0 else 1.0
        if ratio >= step_max:
            # cap the step length, and let the cap grow 4-fold each time it
            # binds (the SQUAREM package's defaults): early in a fit the
            # path is far from its linear rate, and an uncapped step can
            # land on the ordering constraint, where the maps jam
            ratio, step_max = step_max, 4.0 * step_max
        alpha = -max(ratio, 1.0)
        for _ in range(SQUAREM_TRIES):
            if alpha == -1.0 or diagnostics["maps"] >= config.max_outer:
                return      # alpha = -1 gives theta2 itself
            diagnostics["extrapolations_tried"] += 1
            trial = theta0 - 2.0 * alpha * r + alpha * alpha * v
            trial = with_scalars(trial[:n], trial[n:2 * n],
                                 np.clip(trial[2 * n:], lo, hi))
            if np.isfinite(lik.penalized(*trial)):
                diagnostics["maps"] += 1
                try:
                    trial = outer_map(trial)
                except NumericError:    # a trend stage failed from the trial
                    pass
                else:
                    new = lik.penalized(*trial)
                    if new > current:
                        diagnostics["extrapolations_accepted"] += 1
                        accept(trial, new)
                        return
            alpha = 0.5 * (alpha - 1.0)

    accept(state, current)
    step_max = 1.0
    path = [theta(state)]
    converged = False
    while diagnostics["maps"] < config.max_outer:
        if not plain_map():
            converged = True
            break
        path.append(theta(state))
        if len(path) == 3:
            extrapolate(*path)
            path = [theta(state)]

    message = "" if converged else "iteration cap reached before stall"
    if not converged:
        warnings.warn("fit stopped at the iteration cap; treat estimates "
                      "with care", RuntimeWarning, stacklevel=2)

    g_x, g_y, sig_x, sig_y, xi, s = state
    diagnostics["evaluations"] = lik.evaluations
    diagnostics["infeasible"] = dict(lik.infeasible)
    c_hat = lik.boundary(*state[:5])
    # smallest y-fraction of the data on the fitted exponential scale
    c_pick = float(np.min(_y_fraction(*lik.log_scales(*state[:5]))))

    return FitResult(s=s, sigma_x=sig_x, sigma_y=sig_y, xi=xi,
                     g_x=g_x, g_y=g_y, c_hat=c_hat, c_hat_pickands=c_pick,
                     times=series.t, trace=trace,
                     loglik=float(current), converged=converged,
                     message=message, diagnostics=diagnostics)
