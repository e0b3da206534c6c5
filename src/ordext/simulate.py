"""Sampling from the bivariate models and the replication study driver.

Pairs are drawn on the exponential scale by the angular decomposition
(Ghoudi, Khoudraji & Rivest, Canad. J. Statist. 1998): for the survival
exp(-(x+y) A(w)), the fraction W = Y/(X+Y) has the cdf
F(w) = w + w(1-w) A'(w)/A(w), a bounded non-decreasing function of w
alone with a jump at each atom of H inside (0, 1); given W = w, T = X + Y
is Gamma(2) or exponential with rate A(w), always exponential on an
atom, and the pair is (T(1-w), T w).  Each call tabulates F once, with
a guide table over u that finds a pair's cell of the table without a
search (Chen & Asau, AIIE Trans. 6(2), 1974), and inverts F inside the
cells, pair by pair in fixed-size blocks.
Every draw's w is at least the ordering floor plus _FLOOR_GAP, which
lifts the draws on an atom at the floor (s = 1) and, for s near 1, those
within _FLOOR_GAP of it.

Replicates use independent child streams spawned from one master seed, so
a study is reproducible from (seed, replicate index, draw index) and the
replicates stay statistically independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dependence import DependenceModel, _sorted_unique
from .errors import NumericError, ParameterError
from .margins import GevmParams, TrendSpec, exp_scale_inverse, resolve_mu
from .series import BivariateSeries

# pairs per block: a step's temporaries stay small, where whole-sample
# arrays would be paged in afresh at every step; a draw does not depend on it
_SOLVE_BLOCK = 8192
# with the graded cuts, no cell of the table of F spans more than 1/256
_EVEN_CUTS = np.linspace(0.0, 1.0, 257)
# a pair stops when its bracket is within _W_TOL of w, relative
_W_TOL = 1e-12
_MAX_STEPS = 100
# every draw's y-fraction is at least this far above the ordering floor
_FLOOR_GAP = 1e-12
_EPS4 = 4.0 * np.finfo(float).eps


def _angular_law(model: DependenceModel, w):
    """F, its density g, A, the Gamma(2) share p as the pair (V_x V_y,
    V_x V_y + e) whose quotient it is, and the rounding scale of F, from
    one a_a_prime_h call: with V_x = A - w A', V_y = A + (1-w) A' and
    e = A w(1-w) h, F = w V_y/A, g = (V_x V_y + e)/A^2 and
    p = V_x V_y/(V_x V_y + e), 0 where h = inf."""
    a, ap, h = model.a_a_prime_h(w)
    v = 1.0 - w
    vy = a + v * ap
    gamma = (a - w * ap) * vy
    with np.errstate(divide="ignore", invalid="ignore"):
        tot = gamma + a * w * v * h
        return (w * vy / a, tot / (a * a), a, (gamma, tot),
                _EPS4 * w * (a + v * np.abs(ap)) / a)


def _cdf_table(model: DependenceModel):
    """The cuts (graded, even, and just below each atom inside (0, 1)), F
    there made non-decreasing against rounding, A there, and whether each
    cut is an atom, the top of a jump of F."""
    atoms = [q for q, m in model.point_masses() if 0.0 < q < 1.0 and m > 0.0]
    cuts = _sorted_unique(np.concatenate([model.graded_cuts(), _EVEN_CUTS,
                                          np.nextafter(atoms, 0.0)]))
    f, _, a, _, _ = _angular_law(model, cuts)
    if not np.isfinite(f).all():
        raise NumericError("angular cdf is not finite", achieved_tol=np.inf)
    # the cuts are distinct, so an atom found on both sides is one cut
    at = np.searchsorted(cuts, atoms)
    jump = np.zeros(cuts.size, dtype=bool)
    jump[at[at < np.searchsorted(cuts, atoms, side="right")]] = True
    return cuts, np.maximum.accumulate(np.clip(f, 0.0, 1.0)), a, jump


def _guide(f):
    """A guide table over u for the table f of F (Chen & Asau, AIIE
    Trans. 6(2), 1974): m buckets [b/m, (b+1)/m), m a power of two at
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


def _invert_block(model: DependenceModel, table, guide, u):
    """w with F(w) = u, A(w) and the Gamma(2) share, for one block.  A u
    in a jump of F takes the atom; any other starts linearly in its cell
    of the table and takes safeguarded Newton steps inside it."""
    cuts, f, a_cut, jump = table
    j = _cell(guide, f, u)                      # F(cut j-1) <= u < F(cut j)
    w, a, p = cuts[j], a_cut[j], np.zeros_like(u)
    i = np.flatnonzero(~jump[j])
    lo, hi, u, j = cuts[j[i] - 1], w[i], u[i], j[i]
    at = lo + (hi - lo) * ((u - f[j - 1]) / (f[j] - f[j - 1]))
    for _ in range(_MAX_STEPS):
        fa, g, a_at, (gamma, tot), slack = _angular_law(model, at)
        resid = fa - u
        below = resid < 0.0
        lo, hi = np.where(below, at, lo), np.where(below, hi, at)
        # each pair stops on its own residual, within rounding of F, or its
        # bracket; where F is flat, rounding alone sets the Newton step,
        # so the step is no test
        done = (np.abs(resid) <= slack) | (hi - lo <= _W_TOL * hi)
        if done.any():
            k = np.flatnonzero(done)
            out = i[k]
            w[out], a[out] = at[k], a_at[k]
            with np.errstate(divide="ignore", invalid="ignore"):
                p[out] = gamma[k] / tot[k]
            left = np.flatnonzero(~done)
            i, at, lo, hi, u, resid, g = (v[left] for v in
                                          (i, at, lo, hi, u, resid, g))
        if not i.size:
            return w, a, p
        with np.errstate(divide="ignore", invalid="ignore"):
            new = at - resid / g
        # freed before the next evaluation, which sets the heap peak
        del fa, g, a_at, gamma, tot, slack, resid
        # a step longer than half the bracket gives way to the midpoint;
        # a shorter one is kept half a tolerance inside the bracket, so
        # where it rounds onto an end the next bracket is within tolerance
        gap = 0.5 * _W_TOL * hi
        at = np.where(np.abs(new - at) <= 0.5 * (hi - lo),
                      np.minimum(np.maximum(new, lo + gap), hi - gap),
                      0.5 * (lo + hi))
    raise NumericError("angular inversion did not converge",
                       achieved_tol=float(np.max((hi - lo) / hi)))


def sample_pairs(model: DependenceModel, n, rng):
    """Draw n exponential-scale pairs from the model, from two uniforms
    and two unit exponentials per pair, all drawn first.  The table of F
    and its guide table are built once per call, and each block of pairs
    finds its cells through the guide.  Raises NumericError if F is not
    finite on its table, or if an inversion does not settle within
    _MAX_STEPS steps."""
    if n < 1:
        raise ParameterError("sample size must be positive")
    u, v = rng.random((2, n))
    # x and y hold the two exponentials until their block is drawn
    x, y = rng.exponential(size=(2, n))
    table = _cdf_table(model)
    guide = _guide(table[1])
    floor = model.ordering_floor() + _FLOOR_GAP
    for k in range(0, n, _SOLVE_BLOCK):
        b = slice(k, k + _SOLVE_BLOCK)
        w, a, p = _invert_block(model, table, guide, u[b])
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
