"""Estimation: non-parametric dependence curves, the ordering-boundary
estimate, and penalized-likelihood fitting of the restricted model.

The non-parametric estimator of A evaluates, per fraction w, the pooled
minimum T_i = min(X_i / (1-w), Y_i / w) of an exponential-scale sample;
T is Exp(A(w)) under the model, so n / sum(T_i) estimates A(w).  The
mean-rescaled variant divides each coordinate by its sample mean, which
pins the endpoints at exactly 1 and keeps the curve above the convex
envelope max(w, 1-w).

The parametric fit alternates penalized trend updates with a bounded
quasi-Newton step (L-BFGS-B, the one scalar optimiser) on (s, sigma_x,
sigma_y, xi), reparametrised as (log(s-1), log sigma_x, log sigma_y, xi)
so the constraints s > 1 and sigma > 0 hold by construction.  The first
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
An outer iteration that does not clear the stall bar is rolled back, so
the returned state is the last accepted one and a fit restarted from its
own result returns it unchanged.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solveh_banded
from scipy.optimize import minimize

from .errors import InputError, NumericError, ParameterError
from .margins import log_exp_scale
from .measure import _v_closed, _v_partials
from .series import BivariateSeries

# fixed settings of fit_restricted
XI_BOUNDS = (-0.45, 0.95)       # box for the shared shape xi
BOUNDARY_GRID = 128             # grid points of the xi <= 0 boundary search
BOUNDARY_MARGIN = 1e-3          # least gap between y-fractions and c
TREND_MAX_ITER = 50             # Newton steps per trend stage
SCALAR_MAX_ITER = 60            # L-BFGS-B iterations per scalar start


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
    if xe.shape != ye.shape:
        raise InputError("x and y samples must have equal length")
    return xe, ye


def _pooled_minimum_mean(xe, ye, w):
    w = np.atleast_1d(np.asarray(w, dtype=float))
    with np.errstate(divide="ignore"):
        tx = xe[None, :] / (1.0 - w[:, None])
        ty = ye[None, :] / w[:, None]
    return np.mean(np.minimum(tx, ty), axis=1)


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
    """Estimate a full dependence curve on a grid (201 points by default)."""
    if omegas is None:
        omegas = np.linspace(0.0, 1.0, 201)
    omegas = np.asarray(omegas, dtype=float)
    fn = pickands_modified if variant == "modified" else pickands_raw
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
    if lam < 0:
        raise InputError("smoothing weight must be nonnegative")
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


def _trial_boundary(mu_x, mu_y, sig_x, sig_y, xi, data_lo, data_hi, n_grid):
    """Boundary constant for trial margins: 1/(1 + inf D(x, x)).

    For shared shape xi > 0 the infimum is exact without any search:
    D(x, x) is a Moebius function of x raised to 1/xi, so it is monotone
    between its endpoint limits; the lower tail gives (sigma_x/sigma_y)^
    (1/xi), and a crossing of upper support endpoints sends D to zero
    (ordering impossible, returned as 1).  For xi <= 0 the infimum is
    taken over a log-spaced grid spanning the data range extended toward
    the lower tail.  Kept apart from measure.c_from_margins, which takes
    one scalar location per margin rather than a trend vector.
    """
    if xi > 0.0:
        if np.any(mu_x + sig_x / xi >= mu_y + sig_y / xi):
            return 1.0
        log_d = math.log(sig_x / sig_y) / xi
        if log_d > 700.0:
            return 0.0
        return 1.0 / (1.0 + math.exp(log_d))
    span = max(data_hi - data_lo, 1e-6)
    offsets = np.logspace(math.log10(span * 1e-6), math.log10(11.0 * span),
                          n_grid)
    grid = data_hi - offsets
    if xi < 0.0:
        lo_cap = max(float(np.max(mu_x)), float(np.max(mu_y))) + \
            max(sig_x, sig_y) / xi
        grid = grid[grid > lo_cap]
        if grid.size == 0:
            return 1.0
    bx = 1.0 - xi * (grid[None, :] - mu_x[:, None]) / sig_x
    by = 1.0 - xi * (grid[None, :] - mu_y[:, None]) / sig_y
    ok = (bx > 0.0) & (by > 0.0)
    if not np.any(ok):
        return 1.0
    with np.errstate(all="ignore"):
        if abs(xi) < 1e-8:
            d = np.exp((grid[None, :] - mu_x[:, None]) / sig_x
                       - (grid[None, :] - mu_y[:, None]) / sig_y)
        else:
            d = (by / bx) ** (1.0 / xi)
    return 1.0 / (1.0 + float(np.min(np.where(ok, d, np.inf))))


def _y_fraction(log_ex, log_ey):
    """y-fraction ey / (ex + ey) from log scales, safe from overflow."""
    return 1.0 / (1.0 + np.exp(np.clip(log_ex - log_ey, -700.0, 700.0)))


class _RestrictedLikelihood:
    """Vectorised penalized log-likelihood for one ordered series.

    Trials must keep every observed y-fraction strictly above the implied
    boundary by `margin`: for 1 < s < 2 the density diverges as the
    boundary approaches the smallest fraction, so an unconstrained
    optimiser would race the boundary onto the data minimum.
    """

    def __init__(self, series: BivariateSeries, lam_x, lam_y):
        self.x = series.x
        self.y = series.y
        self.lam_x = lam_x
        self.lam_y = lam_y
        self.data_lo = float(min(np.min(self.x), np.min(self.y)))
        self.data_hi = float(max(np.max(self.x), np.max(self.y)))

    def terms(self, g_x, g_y, sig_x, sig_y, xi, s):
        """Per-observation log density; -inf entries flag zero-mass points."""
        bad = np.full(len(self.x), -np.inf)
        if not (sig_x > 0 and sig_y > 0 and s > 1.0):
            return bad
        log_ex, log_ey = self.log_scales(g_x, g_y, sig_x, sig_y, xi)
        if not (np.all(np.isfinite(log_ex)) and np.all(np.isfinite(log_ey))):
            return bad
        c = self.boundary(g_x, g_y, sig_x, sig_y, xi)
        if c >= 0.5:
            return bad
        if np.any(_y_fraction(log_ex, log_ey) <= c + BOUNDARY_MARGIN):
            return bad
        with np.errstate(over="ignore", invalid="ignore"):
            ex, ey = np.exp(log_ex), np.exp(log_ey)
            if not (np.all(np.isfinite(ex)) and np.all(np.isfinite(ey))):
                return bad
            v = _v_closed(ex, ey, c, s)
            vx, vy, vxy = _v_partials(ex, ey, c, s)
            dens = vx * vy - vxy
            if np.any(~np.isfinite(dens)) or np.any(dens <= 0.0):
                return bad
            return (-v + np.log(dens) + (1.0 + xi) * (log_ex + log_ey)
                    - math.log(sig_x) - math.log(sig_y))

    def penalty(self, g_x, g_y):
        return self.lam_x * roughness(g_x) + self.lam_y * roughness(g_y)

    def penalized(self, g_x, g_y, sig_x, sig_y, xi, s):
        t = self.terms(g_x, g_y, sig_x, sig_y, xi, s)
        total = float(np.sum(t))
        if not np.isfinite(total):
            return -np.inf
        return total - self.penalty(g_x, g_y)

    def infeasibility(self, g_x, g_y, sig_x, sig_y, xi, s):
        """Graded distance from the feasible region (0 when feasible).

        Gives the scalar optimiser a slope back toward feasibility
        instead of a flat wall when a trial crosses a support or
        ordering constraint.
        """
        if sig_x <= 0 or sig_y <= 0 or s <= 1.0:
            return 1e6
        bx = 1.0 - xi * (self.x - g_x) / sig_x
        by = 1.0 - xi * (self.y - g_y) / sig_y
        score = float(np.sum(np.maximum(-bx, 0.0) + np.maximum(-by, 0.0)))
        if score > 0:
            return 1.0 + score
        c = self.boundary(g_x, g_y, sig_x, sig_y, xi)
        if c >= 0.5:
            return 1.0 + 10.0 * (c - 0.499)
        frac = _y_fraction(*self.log_scales(g_x, g_y, sig_x, sig_y, xi))
        return 100.0 * float(np.sum(np.maximum(c + BOUNDARY_MARGIN - frac, 0.0)))

    def boundary(self, g_x, g_y, sig_x, sig_y, xi):
        return _trial_boundary(g_x, g_y, sig_x, sig_y, xi,
                               self.data_lo, self.data_hi, BOUNDARY_GRID)

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


def fit_restricted(series: BivariateSeries, lam_x, lam_y,
                   config: FitConfig | None = None) -> FitResult:
    """Fit the restricted model with penalized location trends.

    Requires strictly ordered observations (x_i < y_i).  Alternates a
    penalized trend update for each margin with a bounded quasi-Newton
    pass over (s, sigma_x, sigma_y, xi) until the penalized log-
    likelihood stalls.  The trace records the parameter path for
    convergence plots; the result carries both boundary estimates
    (parametric, and the non-parametric minimum y-fraction of the data on
    the fitted exponential scale).
    """
    config = config or FitConfig()
    if lam_x < 0 or lam_y < 0:
        raise InputError("smoothing weights must be nonnegative")
    if not series.is_ordered():
        raise InputError("fit requires x_i < y_i for every observation")
    series = series.sorted_by_time()
    if len(series) < 3:
        raise InputError("need at least 3 observations")

    lik = _RestrictedLikelihood(series, lam_x, lam_y)
    st = _initial_state(series, lam_x, lam_y, lik, config.start)
    g_x, g_y = st["g_x"], st["g_y"]
    sig_x, sig_y, xi, s = st["sigma_x"], st["sigma_y"], st["xi"], st["s"]

    def scalar_neg(phi):
        sx, sy = math.exp(phi[1]), math.exp(phi[2])
        strength = 1.0 + math.exp(phi[0])
        val = lik.penalized(g_x, g_y, sx, sy, phi[3], strength)
        if np.isfinite(val):
            return -val
        return 1e12 * (1.0 + lik.infeasibility(g_x, g_y, sx, sy, phi[3],
                                               strength))

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

    def scalar_stage(multi_start):
        nonlocal s, sig_x, sig_y, xi
        phi0 = np.array([math.log(s - 1.0), math.log(sig_x),
                         math.log(sig_y), xi])
        starts = [phi0]
        if multi_start:
            starts += [np.clip(phi0 + off, lo, hi) for off in scalar_offsets]
        best_phi, best_val = phi0, scalar_neg(phi0)
        for start in starts:
            res = minimize(scalar_neg, start, method="L-BFGS-B",
                           bounds=bounds,
                           options={"maxiter": SCALAR_MAX_ITER,
                                    "ftol": 1e-11, "gtol": 1e-9})
            if np.isfinite(res.fun) and res.fun < best_val:
                best_phi, best_val = res.x, res.fun
        s = 1.0 + math.exp(best_phi[0])
        sig_x = math.exp(best_phi[1])
        sig_y = math.exp(best_phi[2])
        xi = float(best_phi[3])

    explore = config.start is None
    current = lik.penalized(g_x, g_y, sig_x, sig_y, xi, s)
    trace = []

    def record(iteration):
        # the trace holds accepted states only; trace[-1] is the result
        trace.append({"iteration": iteration, "s": s, "sigma_x": sig_x,
                      "sigma_y": sig_y, "xi": xi, "penalized_loglik": current})

    record(0)
    converged = False
    rescued = False
    for it in range(1, config.max_outer + 1):
        before = (g_x, g_y, s, sig_x, sig_y, xi)
        g_x = trend_penalized(
            lambda g: lik.terms(g, g_y, sig_x, sig_y, xi, s),
            lam_x, series.t, g_x, max_iter=TREND_MAX_ITER)
        g_y = trend_penalized(
            lambda g: lik.terms(g_x, g, sig_x, sig_y, xi, s),
            lam_y, series.t, g_y, max_iter=TREND_MAX_ITER)
        scalar_stage(multi_start=(it == 1 and explore))
        new = lik.penalized(g_x, g_y, sig_x, sig_y, xi, s)
        stall = config.outer_tol * (1.0 + abs(current))
        if new - current <= stall and explore and not rescued:
            # one multi-start rescue from the state before the stalled
            # iteration, kept only if it genuinely clears the stall bar
            rescued = True
            g_x, g_y, s, sig_x, sig_y, xi = before
            scalar_stage(multi_start=True)
            new = lik.penalized(g_x, g_y, sig_x, sig_y, xi, s)
        if new - current <= stall:
            # a stalled iteration is rolled back, so a fit restarted from
            # its own result returns that result unchanged
            g_x, g_y, s, sig_x, sig_y, xi = before
            converged = True
            break
        current = new
        record(it)

    message = "" if converged else "iteration cap reached before stall"
    if not converged:
        warnings.warn("fit stopped at the iteration cap; treat estimates "
                      "with care", RuntimeWarning, stacklevel=2)

    c_hat = lik.boundary(g_x, g_y, sig_x, sig_y, xi)
    # smallest y-fraction of the data on the fitted exponential scale
    c_pick = float(np.min(_y_fraction(*lik.log_scales(g_x, g_y, sig_x,
                                                       sig_y, xi))))

    return FitResult(s=s, sigma_x=sig_x, sigma_y=sig_y, xi=xi,
                     g_x=g_x, g_y=g_y, c_hat=c_hat, c_hat_pickands=c_pick,
                     times=series.t, trace=trace,
                     loglik=float(current), converged=converged,
                     message=message)
