"""Marginal extreme-value laws for minima and their scale transforms.

A margin is parametrised by location mu, scale sigma > 0 and shape xi.  Its
survival function is Pr(Z > z) = exp(-e(z)) where

    e(z) = [1 - xi * (z - mu) / sigma]_+ ** (-1/xi)

is the transform to the standard exponential scale (e(Z) ~ Exp(1) under the
model).  xi = 0 is the Gumbel-type limit e(z) = exp((z - mu) / sigma).  The
Frechet scale is the reciprocal 1/e.

Location trends over time are handled by ``TrendSpec``; every operation in
this module is trend-agnostic and works with an already-resolved mu.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ParameterError

# |xi| below this is evaluated through the Gumbel-limit branch to avoid
# catastrophic cancellation in (1 - xi*u)**(-1/xi).
XI_ZERO_TOL = 1e-8


@dataclass(frozen=True)
class GevmParams:
    """One marginal law for minima: location, scale, shape."""

    mu: float
    sigma: float
    xi: float = 0.0

    def __post_init__(self):
        if not (self.sigma > 0.0) or not math.isfinite(self.sigma):
            raise ParameterError(f"sigma must be positive, got {self.sigma}")
        if not (math.isfinite(self.mu) and math.isfinite(self.xi)):
            raise ParameterError("mu and xi must be finite")

    @property
    def is_gumbel(self):
        return abs(self.xi) < XI_ZERO_TOL

    def upper_endpoint(self):
        """Upper support endpoint (inf for xi < 0 or a Gumbel margin)."""
        if self.xi >= XI_ZERO_TOL:
            return self.mu + self.sigma / self.xi
        return math.inf

    def lower_endpoint(self):
        """Lower support endpoint (-inf for xi > 0 or a Gumbel margin)."""
        if self.xi <= -XI_ZERO_TOL:
            return self.mu + self.sigma / self.xi
        return -math.inf


@dataclass(frozen=True)
class TrendSpec:
    """Time trend for the location parameter of a margin.

    kind is one of "constant", "linear" (mu(t) = a + b*t) or "tabulated"
    (an explicit vector over the observed times, in order).
    """

    kind: str
    a: float = 0.0
    b: float = 0.0
    values: np.ndarray | None = field(default=None)

    def __post_init__(self):
        if self.kind not in ("constant", "linear", "tabulated"):
            raise ParameterError(f"unknown trend kind {self.kind!r}")
        if self.kind == "tabulated":
            if self.values is None:
                raise ParameterError("tabulated trend requires a value vector")
            object.__setattr__(self, "values", np.asarray(self.values, dtype=float))

    @classmethod
    def constant(cls, a):
        return cls(kind="constant", a=float(a))

    @classmethod
    def linear(cls, a, b):
        return cls(kind="linear", a=float(a), b=float(b))

    @classmethod
    def tabulated(cls, values):
        return cls(kind="tabulated", values=np.asarray(values, dtype=float))

    def resolve(self, times):
        """Return mu(t) for every observation time, as an array."""
        times = np.asarray(times, dtype=float)
        if self.kind == "constant":
            return np.full(times.shape, self.a)
        if self.kind == "linear":
            return self.a + self.b * times
        if len(self.values) != len(times):
            raise ParameterError(
                f"tabulated trend has {len(self.values)} values for "
                f"{len(times)} observation times"
            )
        return self.values.copy()


def _split_scalar(z):
    z = np.asarray(z, dtype=float)
    return z.ndim == 0, np.atleast_1d(z)


def base_minus_one(z, mu, sigma, xi):
    """b - 1 for the transform's base b = 1 - xi (z - mu) / sigma > 0."""
    return -xi * (z - mu) / sigma


def log_exp_scale(z, mu, sigma, xi):
    """log of the exponential-scale transform, -log1p(b - 1)/xi.

    mu may be an array (a location trend resolved over the observations).
    No support check: outside the support the result is nan or infinite.
    log1p keeps the relative error at rounding level for small |xi|.
    """
    z = np.asarray(z, dtype=float)
    if abs(xi) < XI_ZERO_TOL:
        return (z - mu) / sigma
    return -np.log1p(base_minus_one(z, mu, sigma, xi)) / xi


# |q| = |xi (z - mu) / sigma| below which d log_exp_scale / d xi is summed as
# a series: its closed form cancels to a relative error of about 2 eps / |q|
_XI_SERIES_TOL = 1e-3
# (k - 1) / k for k = 6, ..., 2: the series coefficients, highest power first
_XI_SERIES = np.array([5.0 / 6.0, 4.0 / 5.0, 3.0 / 4.0, 2.0 / 3.0, 0.5])


def log_exp_scale_grad(z, mu, sigma, xi):
    """(d/d sigma, d/d xi) of log_exp_scale, branch by branch.

    With u = (z - mu) / sigma and q = xi u:
    d/d sigma = -u / (sigma (1 - q)), and
    d/d xi = (q / (1 - q) + log1p(-q)) / xi**2
           = u**2 (1/2 + 2q/3 + 3q**2/4 + ...),
    the series taken for |q| < _XI_SERIES_TOL (truncation below 2e-15).
    Below XI_ZERO_TOL the Gumbel branch (z - mu) / sigma does not depend
    on xi.
    """
    u = (np.asarray(z, dtype=float) - mu) / sigma
    if abs(xi) < XI_ZERO_TOL:
        return -u / sigma, np.zeros_like(u)
    q = xi * u
    b = 1.0 - q
    with np.errstate(divide="ignore", invalid="ignore"):
        d_sigma = -u / (sigma * b)
        d_xi = np.array((q / b + np.log1p(-q)) / (xi * xi))
    small = np.abs(q) < _XI_SERIES_TOL
    if np.any(small):
        d_xi[small] = u[small] ** 2 * np.polyval(_XI_SERIES, q[small])
    return d_sigma, d_xi


def gevm_survival(z, p: GevmParams):
    """Survival Pr(Z > z).

    Outside the support the value clamps to 0 (above an upper endpoint) or
    1 (below a lower endpoint); this keeps the function monotone on all of
    the real line.
    """
    scalar, z = _split_scalar(z)
    with np.errstate(all="ignore"):
        log_e = log_exp_scale(z, p.mu, p.sigma, p.xi)
        out = np.exp(-np.exp(log_e))
    out[np.isnan(log_e)] = 0.0 if p.xi > 0 else 1.0
    return float(out[0]) if scalar else out


def exp_scale(z, p: GevmParams):
    """Transform a data value to the standard exponential scale.

    Strictly increasing on the support; gevm_survival(z, p) == exp(-result).
    Raises DomainError for z outside the open support (silent clamping
    would corrupt likelihoods).
    """
    scalar, z = _split_scalar(z)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_e = log_exp_scale(z, p.mu, p.sigma, p.xi)
    if not np.all(np.isfinite(log_e)):
        raise DomainError("value outside the margin support")
    out = np.exp(log_e)
    return float(out[0]) if scalar else out


def exp_scale_inverse(e, p: GevmParams):
    """Data value whose exponential-scale transform is e (> 0)."""
    scalar, e = _split_scalar(e)
    if np.any(e <= 0.0) or np.any(~np.isfinite(e)):
        raise DomainError("exponential-scale values must be positive and finite")
    loge = np.log(e)
    if p.is_gumbel:
        out = p.mu + p.sigma * loge
    else:
        # z = mu + (sigma/xi) * (1 - e**(-xi)), written via expm1 so the
        # xi -> 0 limit is smooth.
        out = p.mu - p.sigma * np.expm1(-p.xi * loge) / p.xi
    return float(out[0]) if scalar else out


def exp_scale_log_jacobian(e, p: GevmParams):
    """log de/dz expressed through e itself: (1 + xi) log e - log sigma."""
    scalar, e = _split_scalar(e)
    if np.any(e <= 0.0):
        raise DomainError("exponential-scale values must be positive")
    out = (1.0 + p.xi) * np.log(e) - math.log(p.sigma)
    return float(out[0]) if scalar else out


def frechet_scale(e):
    """Reciprocal map between exponential and Frechet scales (an involution)."""
    scalar, e = _split_scalar(e)
    if np.any(e <= 0.0):
        raise DomainError("scale values must be positive")
    out = 1.0 / e
    return float(out[0]) if scalar else out


def resolve_mu(p: GevmParams, trend: TrendSpec | None, times):
    """mu(t) over the observation times; falls back to the constant p.mu."""
    if trend is None:
        return np.full(np.asarray(times, dtype=float).shape, p.mu)
    return trend.resolve(times)
