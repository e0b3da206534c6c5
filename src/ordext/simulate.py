"""Sampling from the bivariate models and the replication study driver.

Pairs are drawn on the exponential scale by conditional inversion: X is a
unit exponential, and Y solves

    Pr(Y > y | X = x) = V_x(x, y) * exp(x - V(x, y)) = u

by safeguarded Newton steps on log S(y | x) = log V_x + x - V, with
V_x = A(w) - w A'(w) and the slope d log S/dy = V_xy/V_x - V_y taken from
the family's closed forms for A, A' and h.  Each pair keeps a bisection
bracket; a step longer than half of it, or a slope that is not
negative, gives way to the midpoint, so the solve also carries the
restricted families, whose conditional survival stays at 1 up to the
ordering boundary y = c x / (1 - c), and the step functions of purely
atomic measures.
Each pair stops on its own test, so a draw depends only on its own
(x, u); the pairs are solved in fixed-size blocks, which keeps each
step's temporaries small.

Replicates use independent child streams spawned from one master seed, so
a study is reproducible from (seed, replicate index, draw index) and the
replicates stay statistically independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dependence import DependenceModel
from .errors import NumericError, ParameterError
from .margins import GevmParams, TrendSpec, exp_scale_inverse, resolve_mu
from .series import BivariateSeries

BISECT_TOL = 1e-10
BISECT_MAX_ITER = 200

# pairs per solve block: at 64 KB a step's temporaries are reused by the
# allocator from one step to the next, where whole-sample arrays would be
# paged in afresh at every step; a draw does not depend on it
_SOLVE_BLOCK = 8192


def _log_survival(model: DependenceModel, x, y):
    """log Pr(Y > y | X = x) on the exponential scale and its y-derivative,
    vectorised: with w = y/(x+y), V = (x+y) A, V_x = A - w A',
    V_y = A + (1-w) A' and V_xy = -w (1-w) h/(x+y),

        log S = log V_x + x - V,   d log S/dy = V_xy/V_x - V_y.

    Where V_x is 0 (no mass beyond y), log S is -inf and the slope NaN.
    """
    total = x + y
    w = y / total
    a, ap, h = model.a_a_prime_h(w)
    vx = a - w * ap
    with np.errstate(divide="ignore", invalid="ignore"):
        return (np.log(vx) + (x - total * a),
                -(w * (1.0 - w) * h) / (total * vx) - (a + (1.0 - w) * ap))


def _open_rows(mask):
    """Indices of the True entries of mask, repeated cyclically up to a
    multiple of 64 entries; a pair solved twice gives the same bits twice.

    numpy keeps up to seven freed arrays of each size under 1 KB for
    reuse and never returns them, so open sets of every size below 1024
    pairs would leave ~2 MB behind over a few draws; rounded to multiples
    of 64, 15 such sizes occur and the cache stays under 100 KB.
    """
    k = int(np.count_nonzero(mask))
    return np.argsort(~mask, kind="stable")[np.arange(-(-k // 64) * 64) % k]


def _solve_block(model: DependenceModel, x, u, floor):
    """y with S(y | x) = u for one block of pairs."""
    # at u = 0 (a chance of 2^-53) the root is where S underflows
    log_u = np.log(np.maximum(u, np.finfo(float).smallest_subnormal))
    lo = x * floor / (1.0 - floor) if floor > 0.0 else np.zeros_like(x)
    # a root within rounding of the ordering boundary would round onto a
    # y-fraction of c, where the model has no mass: draws stay half a
    # tolerance above it (for s near 1 a share of the roots lie there)
    edge = lo + 0.5 * BISECT_TOL * np.maximum(lo, 1.0)

    # bracket: double each pair's offset from lo until S(lo + off) <= u
    off = np.maximum(x, 1.0) + 1.0
    g, slope = np.empty_like(x), np.empty_like(x)
    i = np.arange(x.size)
    for _ in range(80):
        gi, si = _log_survival(model, x[i], lo[i] + off[i])
        g[i], slope[i] = gi - log_u[i], si
        above = g > 0.0
        if not above.any():
            break
        i = _open_rows(above)
        off[i] *= 2.0
    else:
        raise NumericError("could not bracket the conditional quantile")
    hi = lo + off

    # Newton from the bracket's top, where g = log S - log u and its slope
    # are known, on the pairs still open.  The point is always a bracket
    # end, so a step of at most half the bracket stays inside it (a step
    # that rounds to 0 near the root included); a longer step, or a slope
    # that is not negative and finite, gives way to the midpoint, which
    # also breaks the two-cycles Newton can fall into between the ends.
    # Each pair stops when its step, or its bracket, is within BISECT_TOL
    # (relative above 1).
    y = np.empty_like(x)
    i, at = np.arange(x.size), hi
    for _ in range(BISECT_MAX_ITER):
        with np.errstate(divide="ignore", invalid="ignore"):
            new = at - g / slope
        dist = np.abs(new - at)
        falling = (slope < 0.0) & (slope > -np.inf)
        newton = falling & (dist <= 0.5 * (hi - lo))
        done = (falling & (dist <= BISECT_TOL * np.maximum(at, 1.0))) \
            | (hi - lo <= BISECT_TOL * np.maximum(hi, 1.0))
        new = np.where(newton, new, 0.5 * (lo + hi))
        y[i] = new
        if done.all():
            return np.maximum(y, edge)
        keep = _open_rows(~done)
        i, at, lo, hi, x, log_u = (v[keep] for v in (i, new, lo, hi, x, log_u))
        g, slope = _log_survival(model, x, at)
        g -= log_u
        above = g > 0.0
        lo = np.where(above, at, lo)
        hi = np.where(above, hi, at)
    raise NumericError("conditional-quantile solve did not converge",
                       achieved_tol=float(np.max(hi - lo)))


def sample_pairs(model: DependenceModel, n, rng):
    """Draw n exponential-scale pairs from the model.

    Raises NumericError if a pair cannot be bracketed, or if its solve
    does not reach BISECT_TOL within BISECT_MAX_ITER steps.
    """
    if n < 1:
        raise ParameterError("sample size must be positive")
    x = rng.exponential(size=n)
    u = rng.random(size=n)
    floor = model.ordering_floor()
    y = np.empty(n)
    for k in range(0, n, _SOLVE_BLOCK):
        block = slice(k, k + _SOLVE_BLOCK)
        y[block] = _solve_block(model, x[block], u[block], floor)
    return x, y


def sample_pair(model: DependenceModel, rng):
    """One exponential-scale pair from the model."""
    x, y = sample_pairs(model, 1, rng)
    return float(x[0]), float(y[0])


@dataclass(frozen=True)
class StudyConfig:
    """Design of a replication study on data-scale margins."""

    n_reps: int
    times: np.ndarray
    margin_x: GevmParams
    margin_y: GevmParams
    model: DependenceModel = None
    trend_x: TrendSpec | None = None
    trend_y: TrendSpec | None = None
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "times", np.asarray(self.times, dtype=float))
        if self.n_reps < 1:
            raise ParameterError("n_reps must be at least 1")
        if len(self.times) == 0:
            raise ParameterError("times grid must not be empty")
        if self.model is None:
            raise ParameterError("a dependence model is required")


@dataclass
class StudySummary:
    """Per-replicate ordering fractions and mean trajectories."""

    times: np.ndarray
    ordering_fraction: np.ndarray
    mean_x: np.ndarray
    mean_y: np.ndarray


def replicate_rngs(seed, n_reps):
    """Independent per-replicate generators from one master seed."""
    return [np.random.default_rng(s)
            for s in np.random.SeedSequence(seed).spawn(n_reps)]


def run_study(cfg: StudyConfig):
    """Simulate every replicate of the study design.

    Exponential-scale pairs from the dependence model are pushed through
    the margin quantile transforms with the location trends resolved on
    the time grid.  Returns the replicate series plus a summary with the
    per-replicate ordering fraction and the across-replicate mean
    trajectory at each time.
    """
    mu_x = resolve_mu(cfg.margin_x, cfg.trend_x, cfg.times)
    mu_y = resolve_mu(cfg.margin_y, cfg.trend_y, cfg.times)
    base_x = GevmParams(0.0, cfg.margin_x.sigma, cfg.margin_x.xi)
    base_y = GevmParams(0.0, cfg.margin_y.sigma, cfg.margin_y.xi)
    n = len(cfg.times)

    series = []
    for rng in replicate_rngs(cfg.seed, cfg.n_reps):
        xe, ye = sample_pairs(cfg.model, n, rng)
        x = mu_x + exp_scale_inverse(xe, base_x)
        y = mu_y + exp_scale_inverse(ye, base_y)
        series.append(BivariateSeries(cfg.times, x, y, scale="original"))

    xs = np.stack([s.x for s in series])
    ys = np.stack([s.y for s in series])
    summary = StudySummary(
        times=cfg.times.copy(),
        ordering_fraction=np.mean(xs < ys, axis=1),
        mean_x=np.mean(xs, axis=0),
        mean_y=np.mean(ys, axis=0),
    )
    return series, summary
