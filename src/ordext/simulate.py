"""Sampling from the bivariate models and the replication study driver.

Pairs are drawn on the exponential scale by conditional inversion: X is a
unit exponential, and Y solves

    Pr(Y > y | X = x) = V_x(x, y) * exp(x - V(x, y)) = u

by monotone bisection, with V_x = A(w) - w A'(w) taken from the family's
closed forms.  This works uniformly for every implemented family,
including the restricted ones whose conditional survival stays at 1 up to
the ordering boundary y = c x / (1 - c).

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


def _conditional_survival(model: DependenceModel, x, y):
    """Pr(Y > y | X = x) on the exponential scale, vectorised."""
    y = np.maximum(y, 1e-300)
    total = x + y
    w = y / total
    a, ap = model.a_and_a_prime(w)
    vx = a - w * ap
    v = total * a
    return vx * np.exp(x - v)


def sample_pairs(model: DependenceModel, n, rng):
    """Draw n exponential-scale pairs from the model.

    Raises NumericError if the bisection fails to reach its tolerance
    within the iteration cap.
    """
    if n < 1:
        raise ParameterError("sample size must be positive")
    x = rng.exponential(size=n)
    u = rng.random(size=n)

    floor = model.ordering_floor()
    lo = x * floor / (1.0 - floor) if floor > 0.0 else np.zeros(n)

    hi = np.maximum(x, 1.0) + 1.0
    for _ in range(80):
        open_mask = _conditional_survival(model, x, lo + hi) > u
        if not np.any(open_mask):
            break
        hi[open_mask] *= 2.0
    else:
        raise NumericError("could not bracket the conditional quantile")
    hi = lo + hi

    for _ in range(BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        above = _conditional_survival(model, x, mid) > u
        lo = np.where(above, mid, lo)
        hi = np.where(above, hi, mid)
        if np.max(hi - lo) <= BISECT_TOL * max(1.0, float(np.max(hi))):
            break
    else:
        raise NumericError("conditional-quantile bisection did not converge",
                           achieved_tol=float(np.max(hi - lo)))
    return x, 0.5 * (lo + hi)


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
