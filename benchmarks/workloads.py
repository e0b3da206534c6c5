"""The benchmark workloads: set-up, one timed pass, and output checks.

Each workload object does its set-up in the constructor (everything its
passes need as input) and exposes ``run_pass(k, tracer)``.  A pass is a
short list of operations, each timed on its own and then checked; the
checks run outside the timed region.  An operation fails when it raises,
returns non-finite values or fails a check.

study            the reference study through the CLI entry, a few
                 replicates per call (paper defaults: n = 300, lambda = 1000)
long-series      one fit_restricted on an n = 2000 reference-design series
sample-diagnose  sampler, non-parametric estimators, boundary constant,
                 quadrature measure and diagnostics tables; no fit
"""

from __future__ import annotations

import io
import math
import os
import shutil
import sys
import tempfile
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from ordext import cli, diagnostics, estimation, measure, simulate
from ordext.dependence import make_model
from ordext.margins import GevmParams, TrendSpec, exp_scale
from ordext.measure import ExpPair

DESIGN = cli.STUDY_DESIGN
MARGIN_X = GevmParams(DESIGN["mu_x0"], DESIGN["sigma_x"], DESIGN["xi"])
MARGIN_Y = GevmParams(DESIGN["mu_y0"], DESIGN["sigma_y"], DESIGN["xi"])
TREND_X = TrendSpec.linear(DESIGN["mu_x0"], DESIGN["slope"])
TREND_Y = TrendSpec.linear(DESIGN["mu_y0"], DESIGN["slope"])
TRUTH = {k: DESIGN[k] for k in ("s", "sigma_x", "sigma_y", "xi")}
FIT_FIELDS = ("s", "sigma_x", "sigma_y", "xi", "c_hat", "c_hat_pickands",
              "loglik")
STUDY_FILES = (
    "replicate_fits.csv", "summary.csv", "fig5_series.csv", "fig6_trace.csv",
    "fig7/parametric_true.csv", "fig7/parametric_fitted.csv",
    "fig7/estimate_true_margins.csv", "fig7/estimate_fitted_margins.csv",
    "fig7/lower_bound.csv", "fig7/curves.svg", "fig8/pp_x.csv",
    "fig8/pp_y.csv", "fig8/qq_x.csv", "fig8/qq_y.csv",
    "fig8/structure_pooled_min.csv",
)
REFERENCE_C = 1.0 / 33.0        # boundary constant of the reference design
V_GRID_C = (0.0, 0.1, 0.25, 0.45)
V_GRID_S = (1.2, 2.0, 5.0)


@dataclass(frozen=True)
class Sizes:
    """Problem sizes and set-up repeats; "tiny" is for the smoke test."""

    study_n: int | None = None      # None: the CLI's paper default (300)
    long_n: int = 2000
    long_max_outer: int = 8
    long_pool: int = 8
    pairs: int = 100_000
    diag_n: int = 10_000
    v_grid: int = 20
    setup_repeats: int = 3


SIZES = {
    "full": Sizes(),
    "tiny": Sizes(study_n=40, long_n=60, long_max_outer=3,
                  long_pool=2, pairs=2000, diag_n=200, v_grid=3,
                  setup_repeats=1),
}


@dataclass
class Op:
    name: str
    seconds: float
    error: str | None = None


@dataclass
class Pass:
    ops: list
    fits: list = field(default_factory=list)
    pairs: int = 0                  # pairs drawn by the sample_* operations

    @property
    def seconds(self):
        return sum(op.seconds for op in self.ops)

    def op_seconds(self, *names):
        return sum(op.seconds for op in self.ops if op.name in names)


def run_op(ops, name, call, check):
    """Time call(), check its result outside the timed region, record an Op.

    Returns the result, or None when the call raised.  A failing operation
    is recorded and the run goes on, so failures are counted rather than
    ending the benchmark.
    """
    start = perf_counter()
    try:
        result = call()
    except Exception as exc:
        ops.append(Op(name, perf_counter() - start,
                      f"raised {type(exc).__name__}: {exc}"))
        traceback.print_exc(file=sys.stderr)
        return None
    seconds = perf_counter() - start
    try:
        problem = check(result)
    except Exception as exc:
        problem = f"check raised {type(exc).__name__}: {exc}"
    ops.append(Op(name, seconds, problem))
    return result


# ---------------------------------------------------------------------------
# output checks: each returns None when the output is correct, else why not
# ---------------------------------------------------------------------------

def check_pairs(xe, ye, c):
    """Sampled exponential-scale pairs lie strictly above the boundary c."""
    if not (np.all(np.isfinite(xe)) and np.all(np.isfinite(ye))
            and np.all(xe > 0.0) and np.all(ye > 0.0)):
        return "pairs not finite and positive"
    if not estimation.estimate_c_hat(xe, ye) > c:
        return f"a pair lies at or below the ordering boundary {c!r}"
    return None


def check_fit(fit):
    """Finite fitted values, c_hat < c_hat_pickands, and a fitted
    restricted measure whose closed form agrees with quadrature."""
    values = [getattr(fit, k) for k in FIT_FIELDS]
    if not (all(math.isfinite(v) for v in values)
            and np.all(np.isfinite(fit.g_x)) and np.all(np.isfinite(fit.g_y))):
        return "non-finite fitted values"
    if not fit.c_hat < fit.c_hat_pickands:
        return "c_hat is not below c_hat_pickands"
    pair = ExpPair(1.0, 1.0)
    closed = measure.v_closed(pair, fit.c_hat, fit.s)
    quad = measure.v_numeric(pair, make_model("restricted", c=fit.c_hat,
                                              s=fit.s))
    if abs(quad - closed) > 1e-6 * closed:
        return "fitted measure: closed form and quadrature disagree"
    return None


def recovered(fit):
    """Criterion-7 rule: (s, sigma_x, sigma_y, xi) within +-50 % of the
    truth, and c_hat below c_hat_pickands."""
    within = all(0.5 * TRUTH[k] <= getattr(fit, k) <= 1.5 * TRUTH[k]
                 for k in TRUTH)
    return bool(within and fit.c_hat < fit.c_hat_pickands)


def fit_record(fit, seconds, n, error):
    rec = {k: float(getattr(fit, k)) for k in FIT_FIELDS}
    rec.update(n=n, seconds=seconds, outer_iters=len(fit.trace) - 1,
               converged=bool(fit.converged),
               recovered=recovered(fit), error=error)
    return rec


def true_exp_scale(t, x, y):
    """Data-scale pairs mapped to the exponential scale by the true margins."""
    base_x = GevmParams(0.0, MARGIN_X.sigma, MARGIN_X.xi)
    base_y = GevmParams(0.0, MARGIN_Y.sigma, MARGIN_Y.xi)
    return (exp_scale(x - TREND_X.resolve(t), base_x),
            exp_scale(y - TREND_Y.resolve(t), base_y))


def reference_series(n, reps, seed, c_true):
    """reps independent reference-design series of n equally spaced times."""
    cfg = simulate.StudyConfig(
        n_reps=reps, times=np.linspace(0.0, 1.0, n), margin_x=MARGIN_X,
        margin_y=MARGIN_Y, model=make_model("restricted", c=c_true,
                                            s=DESIGN["s"]),
        trend_x=TREND_X, trend_y=TREND_Y, seed=seed)
    return simulate.run_study(cfg)[0]


def _tree_bytes(root):
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(root) for f in files)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Study:
    """The reference study through ``ordext.cli.main``.

    Pass k runs ``study --paper-defaults --seed 1000*seed+k --reps 1``, so
    every pass fits a fresh replicate; one replicate per pass keeps the
    passes short, so a run stops close to its deadline.  Per-fit times
    come from a timer around the ``fit_restricted`` name the CLI calls.
    """

    def __init__(self, seed, sizes: Sizes, scratch):
        self.seed = seed
        self.sizes = sizes
        self.scratch = scratch
        self.c_true = measure.c_from_margins(MARGIN_X, MARGIN_Y)

    def run_pass(self, k, tracer=None):
        return self.cli_study(1000 * self.seed + k, tracer)

    def cli_study(self, seed, tracer=None):
        """One-replicate CLI study with master seed ``seed``."""
        out = tempfile.mkdtemp(dir=self.scratch)
        argv = ["study", "--paper-defaults", "--seed", str(seed),
                "--reps", "1", "--out-dir", out]
        if self.sizes.study_n is not None:
            argv += ["--n-times", str(self.sizes.study_n)]
        timed = []
        fit_restricted = cli.fit_restricted

        def timed_fit(*args, **kwargs):
            start = perf_counter()
            fit = fit_restricted(*args, **kwargs)
            timed.append((perf_counter() - start, fit))
            return fit

        main = tracer.wrap("cli.study", cli.main) if tracer else cli.main

        def call():
            with redirect_stdout(io.StringIO()):
                return main(argv)

        n = self.sizes.study_n or DESIGN["n_times"]
        fits = []

        def check(rc):
            if rc != 0:
                return f"cli exit status {rc}"
            missing = [f for f in STUDY_FILES
                       if not os.path.exists(os.path.join(out, f))]
            if missing:
                return f"missing study outputs {missing}"
            for seconds, fit in timed:
                fits.append(fit_record(fit, seconds, n, check_fit(fit)))
            rows = np.loadtxt(os.path.join(out, "replicate_fits.csv"),
                              delimiter=",", skiprows=1, ndmin=2)
            if len(fits) != 1 or len(rows) != 1:
                return f"expected 1 fit, got {len(fits)}/{len(rows)}"
            bad = [f["error"] for f in fits if f["error"]]
            if bad:
                return bad[0]
            t, x, y = np.loadtxt(os.path.join(out, "fig5_series.csv"),
                                 delimiter=",", skiprows=1, usecols=(0, 1, 2),
                                 unpack=True)
            return check_pairs(*true_exp_scale(t, x, y), self.c_true)

        ops = []
        cli.fit_restricted = timed_fit
        try:
            run_op(ops, "cli.study", call, check)
        finally:
            cli.fit_restricted = fit_restricted
        if tracer:
            tracer.counts["cli.out.bytes"] += _tree_bytes(out)
        shutil.rmtree(out)
        return Pass(ops, fits)


class LongSeries:
    """One ``fit_restricted`` per pass on an n = 2000 reference series.

    The outer loop is capped (FitConfig.max_outer = 8, below the 10-21
    iterations a cold n = 2000 fit takes to stall), so every pass runs the
    same number of trend and scalar stages whatever the seed; convergence
    speed is measured on ``study``.  Pass k fits series k of a pool drawn
    at set-up, so a run averages over several inputs.
    """

    def __init__(self, seed, sizes: Sizes, scratch):
        self.c_true = measure.c_from_margins(MARGIN_X, MARGIN_Y)
        self.pool = reference_series(sizes.long_n, sizes.long_pool, seed,
                                     self.c_true)
        self.config = estimation.FitConfig(max_outer=sizes.long_max_outer)

    def run_pass(self, k, tracer=None):
        series = self.pool[k % len(self.pool)]
        ops = []
        fit = run_op(ops, "fit", lambda: estimation.fit_restricted(
            series, DESIGN["lambda_x"], DESIGN["lambda_y"], self.config),
            lambda fit: check_fit(fit) or check_pairs(
                *true_exp_scale(series.t, series.x, series.y), self.c_true))
        fits = [] if fit is None else [
            fit_record(fit, ops[-1].seconds, len(series), ops[-1].error)]
        return Pass(ops, fits)


class SampleDiagnose:
    """Every layer but the fit, at sizes where each does real work."""

    def __init__(self, seed, sizes: Sizes, scratch):
        self.seed = seed
        self.sizes = sizes
        self.scratch = scratch
        self.restricted = make_model("restricted", c=REFERENCE_C, s=2.0)
        self.interval = make_model("interval", c1=0.25, c2=0.75, s=2.0)
        c_true = measure.c_from_margins(MARGIN_X, MARGIN_Y)
        self.series = reference_series(sizes.diag_n, 1, seed, c_true)[0]
        self.model = make_model("restricted", c=c_true, s=DESIGN["s"])
        # not a fit: a FitResult that carries the true margins
        xe, ye = true_exp_scale(self.series.t, self.series.x, self.series.y)
        self.truth_fit = estimation.FitResult(
            s=DESIGN["s"], sigma_x=MARGIN_X.sigma, sigma_y=MARGIN_Y.sigma,
            xi=MARGIN_X.xi, g_x=TREND_X.resolve(self.series.t),
            g_y=TREND_Y.resolve(self.series.t), c_hat=c_true,
            c_hat_pickands=float(np.min(ye / (xe + ye))),
            times=self.series.t, trace=[], loglik=float("nan"),
            converged=True)

    def run_pass(self, k, tracer=None):
        rng = np.random.default_rng([self.seed, k])
        n = self.sizes.pairs
        ops = []
        pairs = run_op(ops, "sample_restricted",
                       lambda: simulate.sample_pairs(self.restricted, n, rng),
                       lambda p: check_pairs(*p, REFERENCE_C))
        run_op(ops, "sample_interval",
               lambda: simulate.sample_pairs(self.interval, n, rng),
               lambda p: check_pairs(*p, 0.25))
        run_op(ops, "pickands",
               lambda: (estimation.pickands_curve(*pairs),
                        estimation.estimate_c_hat(*pairs)),
               _check_pickands)
        run_op(ops, "c_from_margins",
               lambda: measure.c_from_margins(MARGIN_X, MARGIN_Y),
               lambda c: None if abs(c - REFERENCE_C) <= 5e-4
               else f"boundary constant {c!r} is not 1/33")
        run_op(ops, "v_numeric", self._v_grid, _check_v_grid)
        out = tempfile.mkdtemp(dir=self.scratch)
        try:
            run_op(ops, "diagnose", lambda: self._diagnose(out),
                   _check_diagnose)
        finally:
            shutil.rmtree(out)
        return Pass(ops, pairs=2 * n)

    def _v_grid(self):
        coords = np.linspace(0.05, 5.0, self.sizes.v_grid).tolist()
        values = []
        for c in V_GRID_C:
            for s in V_GRID_S:
                model = make_model("restricted", c=c, s=s)
                values += [(c, s, x, y, measure.v_numeric(ExpPair(x, y), model))
                           for x in coords for y in coords]
        return values

    def _diagnose(self, out):
        tables = diagnostics.pp_qq_tables(self.series, self.truth_fit,
                                          self.model).all_tables()
        paths = []
        for table in tables:
            paths.append(os.path.join(out, f"{table.label}.csv"))
            diagnostics.write_table(table, paths[-1])
        svg = os.path.join(out, "diagnostics.svg")
        diagnostics.render_svg(tables, svg)
        return tables, paths, svg


def _check_pickands(result):
    curve, c_hat = result
    w, a = curve.omegas, curve.values
    if not (a[0] == 1.0 and a[-1] == 1.0):
        return "Pickands endpoints are not 1"
    if not np.all(a >= np.maximum(w, 1.0 - w)):
        return "Pickands curve drops below max(w, 1-w)"
    if not c_hat > REFERENCE_C:
        return "c_hat is not above the ordering boundary"
    return None


def _check_v_grid(values):
    for c, s, x, y, quad in values:
        closed = measure.v_closed(ExpPair(x, y), c, s)
        if not abs(quad - closed) <= 1e-6 * closed:
            return f"v_numeric disagrees with v_closed at c={c}, s={s}"
    return None


def _check_diagnose(result):
    tables, paths, svg = result
    for table in tables:
        v = table.values
        if not (np.all(np.isfinite(v)) and np.all(np.diff(v) >= 0.0)):
            return f"table {table.label} is not finite and sorted"
        if table.label.startswith("pp") and not np.all((v > 0) & (v < 1)):
            return f"table {table.label} leaves (0, 1)"
    back = diagnostics.read_table(paths[0])
    if not np.array_equal(back.values, tables[0].values):
        return "written table does not read back"
    with open(svg) as fh:
        if not fh.read().startswith("<svg"):
            return "SVG output is malformed"
    return None


WORKLOADS = {"study": Study, "long-series": LongSeries,
             "sample-diagnose": SampleDiagnose}
