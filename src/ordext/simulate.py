"""Sampling from the bivariate models and the replication study driver.

Pairs are drawn on the exponential scale by the angular decomposition
(Ghoudi, Khoudraji & Rivest, Canad. J. Statist. 1998): for the survival
exp(-(x+y) A(w)), the fraction W = Y/(X+Y) has the cdf
F(w) = w + w(1-w) A'(w)/A(w), a bounded non-decreasing function of w
alone with a jump at each atom of H inside (0, 1); given W = w, T = X + Y
is Gamma(2) or exponential with rate A(w), always exponential on an
atom, and the pair is (T(1-w), T w).

Every call draws through a certified table of the inverse of F, built
once per model and kept on the instance (polynomial inversion with a
u-error check: Derflinger, Hoermann & Leydold, ACM TOMACS 20(4), 2010).
Its panels start as the cells of a table of F and refine them: on each,
w is a polynomial in u, and A and the Gamma(2) share p are polynomials in
w, checked between their nodes against the kernel.  A guide table over u
finds a pair's panel without a search (Chen & Asau, AIIE Trans. 6(2),
1974), so a draw is a lookup and three polynomial evaluations, with no
kernel call.  A model whose table the build cannot certify within its
panel budget raises NumericError at its first draw.
Every draw's w is at least the ordering floor plus _FLOOR_GAP, which
lifts the draws on an atom at the floor (s = 1) and, for s near 1, those
within _FLOOR_GAP of it.

Replicates use independent child streams spawned from one master seed, so
a study is reproducible from (seed, replicate index, draw index) and the
replicates stay statistically independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dependence import DependenceModel, _sorted_unique
from .errors import NumericError, ParameterError
from .margins import GevmParams, TrendSpec, exp_scale_inverse, resolve_mu
from .series import BivariateSeries

# pairs per block: a block's temporaries stay small, where whole-sample
# arrays would be paged in afresh; a draw does not depend on it
_SOLVE_BLOCK = 8192
# with the graded cuts, no cell of the table of F spans more than 1/256
_EVEN_CUTS = np.linspace(0.0, 1.0, 257)
# the w-resolution, relative: a panel this narrow takes a constant row
_W_TOL = 1e-12
# every draw's y-fraction is at least this far above the ordering floor
_FLOOR_GAP = 1e-12
# a panel of the inverse table is certified when, at the u-midpoints of its
# nodes, the u-error is within _U_TOL (or within what a w-error of _W_TOL w
# gives), A within _U_TOL relative and p within _U_TOL
_U_TOL = 1e-12
# the panel budget, which also bounds the rounds: the benchmark models take
# 439 and 307 panels, and s within 1e-6 of 1 under 700; a build that would
# pass it raises NumericError
_MAX_PANELS = 2048
# the nodes of a panel in w: Chebyshev-Lobatto, an odd count, so the middle
# node, where a panel that fails is split, sits exactly halfway
_NODES = 0.5 - 0.5 * np.cos(np.pi * np.arange(7) / 6)
_NODES[[0, 3, 6]] = 0.0, 0.5, 1.0
_MID = 3
# a row of the inverse table: u at the panel's lower end and 1/(its u-width),
# its lower end in w and 1/(its w-width), then the power-basis coefficients,
# lowest first, of w in t = (u - u_lo)/(u-width) and of A and p in s
_W, _A, _P = (slice(4 + 7 * k, 11 + 7 * k) for k in range(3))


def _angular_law(model: DependenceModel, w):
    """F, its density g, A and the Gamma(2) share p at w, any shape, from
    one a_vx_vy_h call: with e = A w(1-w) h, F = w V_y/A,
    g = (V_x V_y + e)/A^2 and p = V_x V_y/(V_x V_y + e).  A p below 0, and
    the 0/0 of p at a support end, read 0: the draws treat them so, as
    v < p is false for both."""
    a, vx, vy, h = (k.reshape(w.shape) for k in model.a_vx_vy_h(w.ravel()))
    with np.errstate(all="ignore"):
        tot = vx * vy + a * w * (1.0 - w) * h
        return w * vy / a, tot / (a * a), a, np.fmax(vx * vy / tot, 0.0)


def _cdf_table(model: DependenceModel):
    """The cuts (graded, even, and just below each atom inside (0, 1)), F
    there made non-decreasing against rounding, A there, and whether each
    cut is an atom, the top of a jump of F."""
    atoms = [q for q, m in model.point_masses() if 0.0 < q < 1.0 and m > 0.0]
    cuts = _sorted_unique(np.concatenate([model.graded_cuts(), _EVEN_CUTS,
                                          np.nextafter(atoms, 0.0)]))
    f, _, a, _ = _angular_law(model, cuts)
    if not np.isfinite(f).all():
        raise NumericError("angular cdf is not finite", achieved_tol=np.inf)
    # the cuts are distinct, so an atom found on both sides is one cut
    at = np.searchsorted(cuts, atoms)
    jump = np.zeros(cuts.size, dtype=bool)
    jump[at[at < np.searchsorted(cuts, atoms, side="right")]] = True
    return cuts, np.maximum.accumulate(np.clip(f, 0.0, 1.0)), a, jump


def _guide(f):
    """A guide table over u for the non-decreasing table f (Chen & Asau,
    AIIE Trans. 6(2), 1974): m buckets [b/m, (b+1)/m), m a power of two at
    least four times f's size, so u m and its floor b are exact.  Per
    bucket: the count of f below it, the first f at or above it (inf past
    the end), and whether two or more f lie inside it."""
    m = 1 << (4 * f.size - 1).bit_length()
    below = np.searchsorted(f, np.arange(m + 1) / m)
    return m, below[:-1], np.append(f, np.inf)[below[:-1]], np.diff(below) > 1


def _cell(guide, f, u):
    """searchsorted(f, u, side="right") by the guide: in a bucket holding
    at most one f, j is the count below it plus whether u reaches that f;
    a u in a bucket holding more is searched for."""
    m, below, first, crowded = guide
    b = (u * m).astype(np.intp)
    j = below[b]
    j += u >= first[b]
    far = np.flatnonzero(crowded[b])
    j[far] = np.searchsorted(f, u[far], side="right")
    return j


class _Inverse(NamedTuple):
    """The certified inverse of F: the u-edges of the panels and their
    guide table, and a row per panel, stored by columns (row j for the
    panel _cell gives as j; row 0 is never drawn)."""

    edges: np.ndarray
    panel_guide: tuple
    columns: np.ndarray


def _horner(col, terms, x):
    """The polynomial at x whose power-basis coefficients, lowest first,
    are the columns terms of the inverse table, col(k) giving column k."""
    out = col(terms.stop - 1) * x + col(terms.stop - 2)
    for k in range(terms.stop - 3, terms.start - 1, -1):
        out *= x
        out += col(k)
    return out


def _evaluate(col, u):
    """w, A and p at u from the inverse table, col(k) giving column k at
    u's panels: the form that both the build's check and the draws
    evaluate."""
    t = (u - col(0)) * col(1)
    w = _horner(col, _W, t)
    s = (w - col(2)) * col(3)
    return w, _horner(col, _A, s), _horner(col, _P, s)


def _power_basis(t, y):
    """Along the first axis, the power-basis coefficients of the polynomial
    through the points (t_k, y_k), by Newton's divided differences; where
    two t_k are equal they are not finite, and the panel fails its check."""
    c = y.copy()
    for k in range(1, len(c)):
        c[k:] = (c[k:] - c[k - 1:-1]) / (t[k:] - t[:-k])
    out = np.zeros_like(c)
    out[0] = c[-1]
    for k in range(len(c) - 2, -1, -1):     # out (x - t_k) + c_k
        out[1:] = out[:-1] - t[k] * out[1:]
        out[0] = c[k] - t[k] * out[0]
    return out


def _build_inverse(model: DependenceModel):
    """_Inverse of the model, built by columns, a panel per column.  The
    panels start as the cells of the table of F.  An atom's cell takes a
    constant row (the atom, A there, p = 0), and a panel no u falls in is
    left out.  Each round evaluates the kernel once at _NODES of every
    open panel and once at the u-midpoints of the nodes, where it checks
    the interpolants; a panel that fails is split at its middle node.  The
    interpolants pass through the nodes as they were rounded: w at their
    u, A and p at their panel coordinates s, which _evaluate recomputes
    from w the same way.  Raises NumericError, with the failing panels'
    u-mass, when the splits would pass the panel budget or a failing
    panel's middle node rounds onto an end."""
    cuts, f, a_cut, jump = _cdf_table(model)
    lo, hi, u_lo, u_hi = cuts[:-1], cuts[1:], f[:-1], f[1:]
    cols = np.zeros((_P.stop, np.count_nonzero(jump[1:])))
    cols[0], cols[_W.start] = u_lo[jump[1:]], hi[jump[1:]]
    cols[_A.start] = a_cut[1:][jump[1:]]
    done = [(lo[jump[1:]], cols)]
    keep = ~jump[1:] & (u_hi > u_lo)
    lo, hi, u_lo, u_hi = lo[keep], hi[keep], u_lo[keep], u_hi[keep]
    total = cuts.size - 1
    with np.errstate(all="ignore"):
        while True:
            w = lo + (hi - lo) * _NODES[:, None]
            w[-1] = hi
            u, _, a, p = _angular_law(model, w)
            u[0], u[-1] = u_lo, u_hi
            cols = np.empty((_P.stop, lo.size))
            cols[0], cols[1] = u_lo, 1.0 / (u_hi - u_lo)
            cols[2], cols[3] = lo, 1.0 / (hi - lo)
            t, s = (u - u_lo) * cols[1], (w - lo) * cols[3]
            cols[_W.start:] = _power_basis(
                np.stack([t, s, s], axis=1), np.stack([w, a, p], axis=1)
            ).transpose(1, 0, 2).reshape(_P.stop - _W.start, -1)
            # a panel within _W_TOL of its w, or within _U_TOL of its u,
            # takes a constant row: its values at its middle node
            narrow = (hi - lo <= _W_TOL * hi) | (u_hi - u_lo <= _U_TOL)
            cols[1, narrow], cols[3:, narrow] = 0.0, 0.0
            cols[_W.start, narrow] = w[_MID, narrow]
            cols[_A.start, narrow] = a[_MID, narrow]
            cols[_P.start, narrow] = p[_MID, narrow]
            mid_u = 0.5 * (u[1:] + u[:-1])
            wc, ac, pc = _evaluate(lambda k: cols[k], mid_u)
            fw, g, aw, pw = _angular_law(model, wc)
            u_ok = np.abs(fw - mid_u) <= np.maximum(_U_TOL, _W_TOL * wc * g)
            u_ok[:, narrow] = True
            split = ~(u_ok & (np.abs(ac - aw) <= _U_TOL * aw)
                      & (np.abs(pc - pw) <= _U_TOL)).all(axis=0)
            done.append((lo[~split], cols[:, ~split]))
            if not split.any():
                break
            total += split.sum()
            mid, u_mid = w[_MID, split], u[_MID, split]
            lo, hi, u_lo, u_hi = lo[split], hi[split], u_lo[split], u_hi[split]
            if total > _MAX_PANELS or not np.all((mid > lo) & (mid < hi)):
                raise NumericError(
                    f"inverse table not certified within {_MAX_PANELS} "
                    "panels", achieved_tol=float(np.sum(u_hi - u_lo)))
            u_mid = np.minimum(np.maximum(u_mid, u_lo), u_hi)
            lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
            u_lo = np.concatenate([u_lo, u_mid])
            u_hi = np.concatenate([u_mid, u_hi])
            keep = u_hi > u_lo
            lo, hi, u_lo, u_hi = lo[keep], hi[keep], u_lo[keep], u_hi[keep]
    lo, cols = (np.concatenate(part, axis=-1) for part in zip(*done))
    cols = cols[:, np.argsort(lo)]
    edges = np.append(cols[0], f[-1])
    return _Inverse(edges, _guide(edges),
                    np.concatenate([np.zeros((_P.stop, 1)), cols], axis=1))


def _inverse_table(model: DependenceModel):
    """The model's _Inverse, built at its first draw and kept on the
    instance, as DependenceModel.integrated_H is."""
    inverse = model.__dict__.get("_inverse")
    if inverse is None:
        inverse = model.__dict__["_inverse"] = _build_inverse(model)
    return inverse


def sample_pairs(model: DependenceModel, n, rng):
    """Draw n exponential-scale pairs from the model, from two uniforms
    and two unit exponentials per pair, all drawn first, through the
    model's inverse table, which the first call builds and keeps.  Raises
    NumericError if F is not finite on the table of F or the table cannot
    be certified."""
    if n < 1:
        raise ParameterError("sample size must be positive")
    u, v = rng.random((2, n))
    # x and y hold the two exponentials until their block is drawn
    x, y = rng.exponential(size=(2, n))
    inverse = _inverse_table(model)
    floor = model.ordering_floor() + _FLOOR_GAP
    for start in range(0, n, _SOLVE_BLOCK):
        b = slice(start, start + _SOLVE_BLOCK)
        j = _cell(inverse.panel_guide, inverse.edges, u[b])
        # one column at a time: the block's rows at once would set the heap
        # peak
        w, a, p = _evaluate(lambda k: inverse.columns[k].take(j), u[b])
        t = (x[b] + np.where(v[b] < p, y[b], 0.0)) / a
        w = np.maximum(w, floor)
        x[b], y[b] = t * (1.0 - w), t * w
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
    """Independent per-replicate generators from one master seed, a
    nonnegative integer (else ParameterError)."""
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ParameterError(f"seed must be a nonnegative integer, got {seed!r}")
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
        # a location near the float limit can overflow here: the series
        # refuses an infinite value
        with np.errstate(over="ignore"):
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
