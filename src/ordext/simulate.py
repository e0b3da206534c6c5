"""Sampling from the bivariate models and the replication study driver.

Pairs are drawn on the exponential scale by the angular decomposition
(Ghoudi, Khoudraji & Rivest, Canad. J. Statist. 1998): for the survival
exp(-(x+y) A(w)), the fraction W = Y/(X+Y) has the cdf
F(w) = w + w(1-w) A'(w)/A(w), a bounded non-decreasing function of w
alone with a jump at each atom of H inside (0, 1); given W = w, T = X + Y
is Gamma(2) or exponential with rate A(w), always exponential on an
atom, and the pair is (T(1-w), T w).  Every call tabulates F on a table
of cuts, with a guide table over u that finds a pair's cell of the table
without a search (Chen & Asau, AIIE Trans. 6(2), 1974).

Two paths invert F, chosen by the size of the call.  A call of fewer than
_TABLE_MIN_PAIRS pairs inverts F inside the cells by safeguarded Newton
steps, pair by pair in fixed-size blocks, evaluating the kernel about
three times per pair.  A larger call draws through a certified table of
the inverse, built once per model and kept on the instance (polynomial
inversion with a u-error check: Derflinger, Hoermann & Leydold, ACM
TOMACS 20(4), 2010): on panels that refine the cells, w is a polynomial in
u, and A and the Gamma(2) share p are polynomials in w, checked between
their nodes against the kernel.  A draw through it is a guide-table lookup
and three polynomial evaluations, with no kernel call; only a u that falls
in a panel the build could not certify takes the Newton steps in its cell.
Below the size rule the build costs more than it saves, and the draws are
those of the Newton path bit for bit.
Every draw's w is at least the ordering floor plus _FLOOR_GAP, which
lifts the draws on an atom at the floor (s = 1) and, for s near 1, those
within _FLOOR_GAP of it.

Replicates use independent child streams spawned from one master seed, so
a study is reproducible from (seed, replicate index, draw index) and the
replicates stay statistically independent.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

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
# calls of at least this many pairs draw through the kept inverse table:
# the break-even of a fresh model's call, table build included, against
# the Newton path on restricted (1/33, 2) and interval (0.25, 0.75, 2)
_TABLE_MIN_PAIRS = 10_000
# a panel of the inverse table is certified when, at the u-midpoints of its
# nodes, the u-error is within _U_TOL (or within what a w-error of _W_TOL w
# gives), A within _U_TOL relative and p within _U_TOL beyond its rounding
_U_TOL = 1e-12
# the panel budget, which also bounds the rounds: the benchmark models take
# ~440 panels; a model that runs out (s within ~1e-4 of 1) leaves its
# failing panels to the Newton steps
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
    """F, its density g, A, the Gamma(2) share p as the pair (V_x V_y,
    V_x V_y + e) whose quotient it is, and the rounding scale of F, from
    one a_a_prime_h call: with V_x = A - w A', V_y = A + (1-w) A' and
    e = A w(1-w) h, F = w V_y/A, g = (V_x V_y + e)/A^2 and
    p = V_x V_y/(V_x V_y + e), 0 where h = inf."""
    return _law(w, *model.a_a_prime_h(w))


def _law(w, a, ap, h):
    """_angular_law from the kernel's A, A' and h at w."""
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


class _Inverse(NamedTuple):
    """The certified inverse of F: the table of F and its guide table, which
    the Newton steps use, the u-edges of the panels and their guide table,
    a row per panel, stored by columns (row j for the panel _cell gives as
    j; row 0 is never drawn), and whether each row takes the Newton
    steps."""

    table: tuple
    guide: tuple
    edges: np.ndarray
    panel_guide: tuple
    columns: np.ndarray
    newton: np.ndarray


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


def _checked_law(model: DependenceModel, w):
    """F, its density, A, p and the rounding scale of p at w, any shape,
    from one a_a_prime_h call.  A p below 0, and the 0/0 of p at a support
    end, read 0: the draws treat them so, as v < p is false for both.  p's
    rounding is that of V_x = A - w A', which cancels next to w = 1, and
    of V_y, which cancels next to the floor; it is 0 where V_y is 0 and p
    with it."""
    a, ap, h = (k.reshape(w.shape) for k in model.a_a_prime_h(w.ravel()))
    f, g, a, (gamma, tot), _ = _law(w, a, ap, h)
    p = np.fmax(gamma / tot, 0.0)
    v = 1.0 - w
    vx, vy, ap = np.abs(a - w * ap), np.abs(a + v * ap), np.abs(ap)
    scale = _EPS4 * p * (1.0 - p) * ((a + w * ap) / vx + (a + v * ap) / vy)
    return f, g, a, p, np.fmax(scale, 0.0)


def _power_basis(t, y):
    """Per row, the power-basis coefficients of the polynomial through the
    points (t_k, y_k), by Newton's divided differences; where two t_k are
    equal they are not finite, and the panel fails its check."""
    c = y.copy()
    for k in range(1, c.shape[1]):
        c[:, k:] = (c[:, k:] - c[:, k - 1:-1]) / (t[:, k:] - t[:, :-k])
    out = np.zeros_like(c)
    out[:, 0] = c[:, -1]
    for k in range(c.shape[1] - 2, -1, -1):     # out (x - t_k) + c_k
        out[:, 1:] = out[:, :-1] - t[:, k, None] * out[:, 1:]
        out[:, 0] = c[:, k] - t[:, k] * out[:, 0]
    return out


# node values to power-basis coefficients in s = (w - lo)/(hi - lo): row k
# is the Lagrange polynomial of node k (np.linalg would start LAPACK, and
# its buffers, at import)
_TO_POWER = _power_basis(np.tile(_NODES, (7, 1)), np.eye(7))


def _build_inverse(model: DependenceModel):
    """_Inverse of the model.  The panels start as the cells of the table
    of F.  An atom's cell takes a constant row (the atom, A there, p = 0,
    as on the Newton path), and a panel no u falls in is left out.  Each
    round evaluates the kernel once at _NODES of every open panel and once
    at the u-midpoints of the nodes, where it checks the interpolants; a
    panel that fails is split at its middle node while the panel budget
    lasts, and takes the Newton steps when it runs out."""
    table = _cdf_table(model)
    cuts, f, a_cut, jump = table
    lo, hi, u_lo, u_hi = cuts[:-1], cuts[1:], f[:-1], f[1:]
    rows = np.zeros((np.count_nonzero(jump[1:]), _P.stop))
    rows[:, 0], rows[:, _W.start] = u_lo[jump[1:]], hi[jump[1:]]
    rows[:, _A.start] = a_cut[1:][jump[1:]]
    done = [(lo[jump[1:]], rows, np.zeros(len(rows), dtype=bool))]
    keep = ~jump[1:] & (u_hi > u_lo)
    lo, hi, u_lo, u_hi = lo[keep], hi[keep], u_lo[keep], u_hi[keep]
    total = cuts.size - 1
    with np.errstate(all="ignore"):
        while True:
            w = lo[:, None] + (hi - lo)[:, None] * _NODES
            w[:, -1] = hi
            u, _, a, p, _ = _checked_law(model, w)
            u[:, 0], u[:, -1] = u_lo, u_hi
            rows = np.empty((lo.size, _P.stop))
            rows[:, 0], rows[:, 1] = u_lo, 1.0 / (u_hi - u_lo)
            rows[:, 2], rows[:, 3] = lo, 1.0 / (hi - lo)
            rows[:, _W] = _power_basis((u - u_lo[:, None]) * rows[:, 1:2], w)
            rows[:, _A], rows[:, _P] = a @ _TO_POWER, p @ _TO_POWER
            # a panel within _W_TOL of its w, or within _U_TOL of its u,
            # takes a constant row: its values at its middle node
            narrow = (hi - lo <= _W_TOL * hi) | (u_hi - u_lo <= _U_TOL)
            rows[narrow, 1], rows[narrow, 3:] = 0.0, 0.0
            rows[narrow, _W.start] = w[narrow, _MID]
            rows[narrow, _A.start] = a[narrow, _MID]
            rows[narrow, _P.start] = p[narrow, _MID]
            mid_u = 0.5 * (u[:, 1:] + u[:, :-1])
            wc, ac, pc = _evaluate(lambda k: rows[:, k, None], mid_u)
            fw, g, aw, pw, p_round = _checked_law(model, wc)
            u_ok = np.abs(fw - mid_u) <= np.maximum(_U_TOL, _W_TOL * wc * g)
            u_ok[narrow] = True
            ok = (u_ok & (np.abs(ac - aw) <= _U_TOL * aw)
                  & (np.abs(pc - pw) <= _U_TOL + p_round)).all(axis=1)
            mid = w[:, _MID]
            split = ~ok & (mid > lo) & (mid < hi)
            if total + split.sum() > _MAX_PANELS:
                split[:] = False
            # a row left to the Newton steps reads 0, no NaN to warn about
            newton = ~ok & ~split
            rows[newton, 1], rows[newton, 3:] = 0.0, 0.0
            done.append((lo[~split], rows[~split], newton[~split]))
            if not split.any():
                break
            total += split.sum()
            mid, u_mid = mid[split], u[split, _MID]
            lo, hi, u_lo, u_hi = lo[split], hi[split], u_lo[split], u_hi[split]
            u_mid = np.minimum(np.maximum(u_mid, u_lo), u_hi)
            lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
            u_lo = np.concatenate([u_lo, u_mid])
            u_hi = np.concatenate([u_mid, u_hi])
            keep = u_hi > u_lo
            lo, hi, u_lo, u_hi = lo[keep], hi[keep], u_lo[keep], u_hi[keep]
    lo, rows, newton = (np.concatenate(part) for part in zip(*done))
    order = np.argsort(lo)
    rows, newton = rows[order], newton[order]
    edges = np.append(rows[:, 0], f[-1])
    return _Inverse(table, _guide(f), edges, _guide(edges),
                    np.concatenate([np.zeros((1, _P.stop)), rows]).T.copy(),
                    np.concatenate([[True], newton]))


def _inverse_table(model: DependenceModel):
    """The model's _Inverse, built at its first call of _TABLE_MIN_PAIRS
    pairs or more and kept on the instance, as DependenceModel.integrated_H
    is."""
    inverse = model.__dict__.get("_inverse")
    if inverse is None:
        inverse = model.__dict__["_inverse"] = _build_inverse(model)
    return inverse


def _table_block(model: DependenceModel, inverse: _Inverse, u):
    """w, A(w) and the Gamma(2) share for one block, through the inverse
    table; a u in a panel the build could not certify takes the Newton
    steps in its cell of the table of F."""
    j = _cell(inverse.panel_guide, inverse.edges, u)
    # one column at a time: the block's rows at once would set the heap peak
    w, a, p = _evaluate(lambda k: inverse.columns[k].take(j), u)
    k = np.flatnonzero(inverse.newton[j])
    if k.size:
        w[k], a[k], p[k] = _invert_block(model, inverse.table, inverse.guide,
                                         u[k])
    return w, a, p


def sample_pairs(model: DependenceModel, n, rng):
    """Draw n exponential-scale pairs from the model, from two uniforms
    and two unit exponentials per pair, all drawn first.  A call of at
    least _TABLE_MIN_PAIRS pairs draws through the model's kept inverse
    table; a smaller one builds the table of F and its guide table and
    inverts F by Newton steps.  Raises NumericError if F is not finite on
    its table, or if an inversion does not settle within _MAX_STEPS
    steps."""
    if n < 1:
        raise ParameterError("sample size must be positive")
    u, v = rng.random((2, n))
    # x and y hold the two exponentials until their block is drawn
    x, y = rng.exponential(size=(2, n))
    if n >= _TABLE_MIN_PAIRS:
        invert = functools.partial(_table_block, model, _inverse_table(model))
    else:
        table = _cdf_table(model)
        invert = functools.partial(_invert_block, model, table,
                                   _guide(table[1]))
    floor = model.ordering_floor() + _FLOOR_GAP
    for k in range(0, n, _SOLVE_BLOCK):
        b = slice(k, k + _SOLVE_BLOCK)
        w, a, p = invert(u[b])
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
