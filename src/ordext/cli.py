"""Command-line front-end: simulate, fit, estimate and diagnose pipelines
over CSV files with reproducible seeds.

Input CSV schema: header row with columns t,x,y (a missing t column is
treated as equally spaced times on [0, 1]); a '# scale:' line, if any,
must name the scale the command needs (diagnostics.read_csv's dialect).
Outputs are deterministic given the seed, so identical invocations
produce byte-identical files.  Relative output paths are rooted at
$ORDEXT_OUT_DIR when it is set.

Options may also come from a config file of 'key = value' lines (given
with --config); explicit command-line flags override file values, and
unknown keys are rejected before any work starts.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import warnings
from typing import Callable, NamedTuple

import numpy as np

from . import dependence as dep
from .diagnostics import (depfn_curves, pp_qq_tables, read_csv, render_svg,
                          write_csv, write_table, write_tables)
from .errors import InputError, NumericError, OrdextError
from .estimation import (FitConfig, FitResult, estimate_c_hat, fit_restricted,
                         pickands_curve)
from .margins import GevmParams, TrendSpec, exp_scale, log_exp_scale
from .measure import c_from_margins
from .series import BivariateSeries
from .simulate import StudyConfig, run_study

STUDY_DESIGN = {
    "s": 2.0, "sigma_x": 4.0, "sigma_y": 2.0, "xi": 0.2,
    "mu_x0": 100.0, "mu_y0": 150.0, "slope": -40.0,
    "reps": 50, "n_times": 300, "lambda_x": 1000.0, "lambda_y": 1000.0,
}

_STR, _FLOAT, _INT, _BOOL = str, float, int, lambda v: str(v).lower() in ("1", "true", "yes", "on")


class Option(NamedTuple):
    """One option of a command: its parser, default and help, whether a
    run needs it, and for a size its least value (>= 1, <= SIZE_CEILING)."""

    parse: Callable
    default: object
    help: str
    required: bool = False
    floor: int | None = None


# the scalars of a fit, as params.csv and replicate_fits.csv hold them
# (the first six have medians in summary.csv), and a fit trace's columns
FIT_SCALARS = ("s", "sigma_x", "sigma_y", "xi", "c_hat", "c_hat_pickands",
               "loglik", "converged")
TRACE_COLUMNS = ("iteration", "s", "sigma_x", "sigma_y", "xi",
                 "penalized_loglik")

# the family option and its parameters, as make_model takes them
_FAMILY_OPTIONS = {
    "family": Option(_STR, "restricted", "dependence family"),
    "c": Option(_FLOAT, 0.25, "ordering boundary (restricted, upper)"),
    "s": Option(_FLOAT, None, "dependence strength"),
    "theta1": Option(_FLOAT, 1.0, "asymmetric weight 1"),
    "theta2": Option(_FLOAT, 1.0, "asymmetric weight 2"),
    "c1": Option(_FLOAT, 0.25, "interval lower boundary"),
    "c2": Option(_FLOAT, 0.75, "interval upper boundary"),
}


def _family_options(s_default):
    """The family options; only s's default varies."""
    return {**_FAMILY_OPTIONS,
            "s": _FAMILY_OPTIONS["s"]._replace(default=s_default)}


COMMAND_OPTIONS = {
    "simulate": {
        **_family_options(2.0),
        "n": Option(_INT, 100, "number of pairs", floor=1),
        "seed": Option(_INT, 0, "random seed"),
        "mu_x": Option(_FLOAT, None,
                       "X location (omit for exponential scale)"),
        "sigma_x": Option(_FLOAT, None, "X scale"),
        "xi_x": Option(_FLOAT, None, "X shape"),
        "mu_y": Option(_FLOAT, None, "Y location"),
        "sigma_y": Option(_FLOAT, None, "Y scale"),
        "xi_y": Option(_FLOAT, None, "Y shape"),
        "slope_x": Option(_FLOAT, 0.0, "linear trend slope for X location"),
        "slope_y": Option(_FLOAT, 0.0, "linear trend slope for Y location"),
        "out": Option(_STR, None, "output CSV path (required)", True),
    },
    "fit": {
        "data": Option(_STR, None, "input CSV (required)", True),
        "lambda_x": Option(_FLOAT, 1000.0, "smoothing weight for the X trend"),
        "lambda_y": Option(_FLOAT, 1000.0, "smoothing weight for the Y trend"),
        "max_outer": Option(_INT, FitConfig.max_outer, "outer map cap"),
        "out_dir": Option(_STR, None, "output directory (required)", True),
    },
    "depfn": {
        **_family_options(1.0),
        "grid": Option(_INT, 201, "grid size", floor=3),
        "out": Option(_STR, None, "output CSV path (default stdout)"),
        "svg": Option(_STR, None, "optional SVG path"),
    },
    "estimate-c": {
        "data": Option(_STR, None,
                       "input CSV of exponential-scale pairs (required)", True),
    },
    "diagnose": {
        "data": Option(_STR, None, "input CSV (required)", True),
        "fit_dir": Option(_STR, None, "directory written by 'fit' (required)",
                          True),
        "out_dir": Option(_STR, None, "output directory (required)", True),
    },
    "validate": {
        **_family_options(1.5),
        "grid": Option(_INT, 101, "grid size", floor=3),
    },
    "study": {
        "paper_defaults": Option(_BOOL, False,
                                 "pin the reference study design"),
        "seed": Option(_INT, 1, "master seed"),
        "reps": Option(_INT, STUDY_DESIGN["reps"], "number of replicates",
                       floor=1),
        "n_times": Option(_INT, STUDY_DESIGN["n_times"],
                          "observations per replicate", floor=1),
        "lambda_x": Option(_FLOAT, STUDY_DESIGN["lambda_x"],
                           "smoothing weight for the X trend"),
        "lambda_y": Option(_FLOAT, STUDY_DESIGN["lambda_y"],
                           "smoothing weight for the Y trend"),
        "max_outer": Option(_INT, FitConfig.max_outer,
                            "outer map cap per fit"),
        "out_dir": Option(_STR, None, "output directory (required)", True),
    },
}


class RunConfig(dict):
    """Validated settings for one subcommand run."""

    def __init__(self, command, values):
        super().__init__(values)
        self.command = command
        self.model = None       # set by validation for family commands
        self.margins = None     # and for simulate on the data scale


def _parse_config_file(path, options):
    values = {}
    try:
        lines = open(path).read().splitlines()
    except OSError as exc:
        raise InputError(f"cannot read config file: {exc}") from None
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in options:
            raise InputError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = options[key].parse(value.strip())
        except ValueError:
            raise InputError(
                f"{path}:{lineno}: bad value for {key!r}") from None
    return values


def _flag(dest):
    return "--" + dest.replace("_", "-")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ordext",
        description="Ordered bivariate extreme-value modelling")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, options in COMMAND_OPTIONS.items():
        p = sub.add_parser(command, help=f"{command} pipeline step")
        p.add_argument("--config", default=None,
                       help="config file of key = value lines")
        for dest, option in options.items():
            kind = ({"action": "store_const", "const": True}
                    if option.parse is _BOOL else {"type": option.parse})
            p.add_argument(_flag(dest), dest=dest, default=None,
                           help=option.help, **kind)
    return parser


def parse_and_validate(argv) -> RunConfig:
    """argv -> validated RunConfig (flags override config-file values)."""
    args = build_parser().parse_args(argv)
    command = args.command
    options = COMMAND_OPTIONS[command]
    values = {dest: option.default for dest, option in options.items()}
    if args.config:
        values.update(_parse_config_file(args.config, options))
    for dest, option in options.items():
        if getattr(args, dest) is not None:
            values[dest] = getattr(args, dest)
        if option.required and values[dest] is None:
            raise InputError(f"{command}: {_flag(dest)} is required")
    cfg = RunConfig(command, values)
    _validate_ranges(cfg)
    return cfg


# the largest size a command accepts, and the most pairs a study draws
# (reps x n_times, held at once): 1e7 pairs take ~0.3 GB, and a size far
# past it would fail in numpy's allocation with a traceback
SIZE_CEILING = 10 ** 7


def _validate_ranges(cfg: RunConfig):
    """Build the parameter objects once so bad values fail before any work."""
    options = COMMAND_OPTIONS[cfg.command]
    sizes = {dest: opt.floor for dest, opt in options.items() if opt.floor}
    for dest, floor in sizes.items():
        if not floor <= cfg[dest] <= SIZE_CEILING:
            raise InputError(f"{_flag(dest)} must be between {floor} and "
                             f"{SIZE_CEILING}")
    if math.prod(cfg[dest] for dest in sizes) > SIZE_CEILING:
        raise InputError(f"{' times '.join(map(_flag, sizes))} must be at "
                         f"most {SIZE_CEILING}")
    if "family" in cfg:
        cfg.model = dep.make_model(**{k: cfg[k] for k in _FAMILY_OPTIONS})
    if cfg.command == "simulate":
        given = {cfg[f"{k}_{m}"] is not None
                 for k in ("mu", "sigma", "xi") for m in "xy"}
        if len(given) > 1:
            raise InputError("give all six margin parameters or none")
        if True in given:   # each margin's law and location trend
            cfg.margins = [
                (GevmParams(cfg[f"mu_{m}"], cfg[f"sigma_{m}"], cfg[f"xi_{m}"]),
                 TrendSpec.linear(cfg[f"mu_{m}"], cfg[f"slope_{m}"]))
                for m in "xy"]
    if cfg.command == "study" and not cfg["paper_defaults"]:
        raise InputError("study requires --paper-defaults (override pieces "
                         "of the design with the other flags)")


def _out_path(path):
    base = os.environ.get("ORDEXT_OUT_DIR")
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def read_csv_columns(path, required):
    """The metadata and {lower-cased name: column} of a numeric CSV read
    by read_csv (which refuses ragged rows and non-numeric cells); a
    missing required column, no data row or a non-finite value raises
    InputError."""
    meta, header, columns = read_csv(path)
    names = [name.lower() for name in header]
    if any(name not in names for name in required):
        raise InputError(f"{path}: need columns {', '.join(required)} "
                         f"(got {names})")
    if not len(columns[0]):
        raise InputError(f"{path}: no data rows")
    bad = np.flatnonzero(~np.all(np.isfinite(columns), axis=0))
    if bad.size:
        raise InputError(f"{path}: data row {bad[0] + 1} has a non-finite "
                         "value")
    return meta, dict(zip(names, columns))


def read_series_csv(path, expected_scale=None) -> BivariateSeries:
    """Read a t,x,y (or x,y) CSV into a series on the scale its 'scale'
    line names, else on expected_scale or the original scale; a scale
    line that names another scale than expected_scale raises InputError."""
    meta, cols = read_csv_columns(path, ("x", "y"))
    scale = meta.get("scale", expected_scale or "original")
    if expected_scale not in (None, scale):
        raise InputError(f"{path}: needs {expected_scale}-scale data, the "
                         f"file's scale line says {scale}")
    t = cols.get("t", np.linspace(0.0, 1.0, len(cols["x"])))
    return BivariateSeries(t, cols["x"], cols["y"], scale=scale)


def _columns(records, names):
    """The named float columns of a list of dicts, one row per dict."""
    return [np.array([r[k] for r in records], dtype=float) for k in names]


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------

def _cmd_simulate(cfg):
    times = np.linspace(0.0, 1.0, cfg["n"])
    if cfg.margins is None:
        from .simulate import sample_pairs, replicate_rngs
        rng = replicate_rngs(cfg["seed"], 1)[0]
        xe, ye = sample_pairs(cfg.model, cfg["n"], rng)
        series = BivariateSeries(times, xe, ye, scale="exponential")
    else:
        (margin_x, trend_x), (margin_y, trend_y) = cfg.margins
        series = run_study(StudyConfig(
            n_reps=1, times=times, margin_x=margin_x, margin_y=margin_y,
            model=cfg.model, trend_x=trend_x, trend_y=trend_y,
            seed=cfg["seed"]))[0][0]
    write_csv(_out_path(cfg["out"]), ("t", "x", "y"),
              (series.t, series.x, series.y), {"scale": series.scale})
    print(f"wrote {len(series)} pairs to {_out_path(cfg['out'])}")
    return 0


def _fit_to_files(fit: FitResult, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    write_csv(os.path.join(out_dir, "params.csv"), FIT_SCALARS,
              _columns([vars(fit)], FIT_SCALARS))
    write_csv(os.path.join(out_dir, "trends.csv"), ("t", "g_x", "g_y"),
              (fit.times, fit.g_x, fit.g_y))
    write_csv(os.path.join(out_dir, "trace.csv"), TRACE_COLUMNS,
              _columns(fit.trace, TRACE_COLUMNS))


def _fit_from_files(fit_dir, series: BivariateSeries):
    """FitResult written by _fit_to_files, checked against the data times."""
    _, params = read_csv_columns(os.path.join(fit_dir, "params.csv"),
                                 FIT_SCALARS)
    _, trends = read_csv_columns(os.path.join(fit_dir, "trends.csv"),
                                 ("t", "g_x", "g_y"))
    if not np.array_equal(trends["t"], series.t):
        raise InputError(f"fit trend times ({len(trends['t'])} rows) do not "
                         f"match the data times ({len(series)} rows)")
    vals = {k: float(params[k][0]) for k in FIT_SCALARS}
    converged = bool(vals.pop("converged"))
    return FitResult(**vals, g_x=trends["g_x"], g_y=trends["g_y"],
                     times=trends["t"], trace=[], converged=converged)


def _cmd_fit(cfg):
    series = read_series_csv(cfg["data"], "original")
    fit = fit_restricted(series, cfg["lambda_x"], cfg["lambda_y"],
                         FitConfig(max_outer=cfg["max_outer"]))
    out_dir = _out_path(cfg["out_dir"])
    _fit_to_files(fit, out_dir)
    print(f"s={fit.s:.6g} sigma_x={fit.sigma_x:.6g} "
          f"sigma_y={fit.sigma_y:.6g} xi={fit.xi:.6g}")
    print(f"c_hat={fit.c_hat:.6g} c_hat_pickands={fit.c_hat_pickands:.6g}")
    print(f"wrote fit files to {out_dir}")
    return 0


def _cmd_depfn(cfg):
    grid = np.linspace(0.0, 1.0, cfg["grid"])
    tables = depfn_curves([(cfg["family"], cfg.model)], grid)
    if cfg["svg"]:
        render_svg(tables, _out_path(cfg["svg"]))
    if cfg["out"]:
        write_table(tables[0], _out_path(cfg["out"]))
        print(f"wrote {_out_path(cfg['out'])}")
    else:
        write_table(tables[0], sys.stdout)
    return 0


def _cmd_estimate_c(cfg):
    series = read_series_csv(cfg["data"], "exponential")
    print(repr(estimate_c_hat(series.x, series.y)))
    return 0


def _cmd_diagnose(cfg):
    # fit_restricted writes its trends in this order
    series = read_series_csv(cfg["data"], "original").sorted_by_time()
    fit = _fit_from_files(_out_path(cfg["fit_dir"]), series)
    model = dep.make_model("restricted", c=fit.c_hat, s=fit.s)
    tables = pp_qq_tables(series, fit, model)
    out_dir = _out_path(cfg["out_dir"])
    write_tables(tables.all_tables(), out_dir)
    print(f"wrote diagnostic tables to {out_dir}")
    return 0


def _cmd_validate(cfg):
    report = dep.validate_dependence(cfg.model, n=cfg["grid"])
    for line in report.lines():
        print(line)
    return 0 if report.passed else 1


def _failed_fit(series: BivariateSeries, exc):
    """Placeholder FitResult of a replicate whose fit raised: NaN values,
    not converged, the error in its message."""
    nan = float("nan")
    return FitResult(s=nan, sigma_x=nan, sigma_y=nan, xi=nan,
                     g_x=np.full(len(series), nan),
                     g_y=np.full(len(series), nan), c_hat=nan,
                     c_hat_pickands=nan, times=series.t, trace=[],
                     loglik=nan, converged=False,
                     message=f"fit failed: {exc}")


def _fitted(fits):
    """Indices of the fits that did not fail (a failed fit has NaN
    parameters)."""
    return [i for i, f in enumerate(fits) if math.isfinite(f.s)]


def _medians(fits, keys):
    """Medians of the named FitResult fields over the fits that did not
    fail."""
    done = [fits[i] for i in _fitted(fits)]
    return {k: float(np.median([getattr(f, k) for f in done])) for k in keys}


def run_study_pipeline(seed, out_dir, reps=STUDY_DESIGN["reps"],
                       n_times=STUDY_DESIGN["n_times"],
                       lambda_x=STUDY_DESIGN["lambda_x"],
                       lambda_y=STUDY_DESIGN["lambda_y"],
                       max_outer=FitConfig.max_outer):
    """End-to-end reference study: simulate, fit every replicate, emit
    the parameter summary, both boundary estimates, and all figure data.

    A replicate whose fit raises NumericError gets a row of NaN values
    with converged = 0 and a RuntimeWarning; the medians and the figures
    (from the first replicate that was fitted) use the other fits, and
    NumericError is raised only when every fit fails.

    Returns (fits, study_summary, parametric_c).
    """
    d = STUDY_DESIGN
    margin_x = GevmParams(d["mu_x0"], d["sigma_x"], d["xi"])
    margin_y = GevmParams(d["mu_y0"], d["sigma_y"], d["xi"])
    c_true = c_from_margins(margin_x, margin_y)
    model = dep.make_model("restricted", c=c_true, s=d["s"])
    times = np.linspace(0.0, 1.0, n_times)
    cfg = StudyConfig(
        n_reps=reps, times=times, margin_x=margin_x, margin_y=margin_y,
        model=model, trend_x=TrendSpec.linear(d["mu_x0"], d["slope"]),
        trend_y=TrendSpec.linear(d["mu_y0"], d["slope"]), seed=seed)
    series_list, summary = run_study(cfg)

    fits = []
    for i, series in enumerate(series_list):
        try:
            fits.append(fit_restricted(series, lambda_x, lambda_y,
                                       FitConfig(max_outer=max_outer)))
        except NumericError as exc:
            warnings.warn(f"replicate {i}: fit failed ({exc}); its row "
                          "is NaN", RuntimeWarning, stacklevel=2)
            fits.append(_failed_fit(series, exc))
    fitted = _fitted(fits)
    if not fitted:
        raise NumericError(f"all {len(fits)} replicate fits failed")

    os.makedirs(out_dir, exist_ok=True)
    names = ("replicate", *FIT_SCALARS)
    write_csv(os.path.join(out_dir, "replicate_fits.csv"), names, _columns(
        [{"replicate": i, **vars(f)} for i, f in enumerate(fits)], names))

    med = _medians(fits, FIT_SCALARS[:6])
    truth = (d["s"], d["sigma_x"], d["sigma_y"], d["xi"], c_true, math.nan)
    write_csv(os.path.join(out_dir, "summary.csv"), ("statistic", *med),
              [["median", "truth"], *map(np.array, zip(med.values(), truth))],
              {"parametric boundary at true margins": repr(c_true)})

    first, fit0 = series_list[fitted[0]], fits[fitted[0]]
    trend_x = d["mu_x0"] + d["slope"] * first.t
    trend_y = d["mu_y0"] + d["slope"] * first.t
    write_csv(os.path.join(out_dir, "fig5_series.csv"),
              ("t", "x", "y", "g_x", "g_y", "trend_x_true", "trend_y_true"),
              (first.t, first.x, first.y, fit0.g_x, fit0.g_y, trend_x,
               trend_y))
    write_csv(os.path.join(out_dir, "fig6_trace.csv"), TRACE_COLUMNS,
              _columns(fit0.trace, TRACE_COLUMNS))

    # dependence curves: true and fitted parametric, true and fitted
    # non-parametric estimates from the first fitted replicate
    xe_true = exp_scale(first.x - trend_x,
                        GevmParams(0.0, d["sigma_x"], d["xi"]))
    ye_true = exp_scale(first.y - trend_y,
                        GevmParams(0.0, d["sigma_y"], d["xi"]))
    # clipped: fitted margins can put a point near a support endpoint
    xe_fit = np.exp(np.clip(log_exp_scale(first.x, fit0.g_x, fit0.sigma_x,
                                          fit0.xi), -700.0, 700.0))
    ye_fit = np.exp(np.clip(log_exp_scale(first.y, fit0.g_y, fit0.sigma_y,
                                          fit0.xi), -700.0, 700.0))
    fitted_model = dep.make_model("restricted", c=fit0.c_hat, s=fit0.s)
    curves = depfn_curves([
        ("parametric_true", model),
        ("parametric_fitted", fitted_model),
        ("estimate_true_margins", pickands_curve(xe_true, ye_true)),
        ("estimate_fitted_margins", pickands_curve(xe_fit, ye_fit)),
    ])
    fig7 = os.path.join(out_dir, "fig7")
    write_tables(curves, fig7)
    render_svg(curves, os.path.join(fig7, "curves.svg"))
    write_tables(pp_qq_tables(first, fit0, fitted_model).all_tables(),
                 os.path.join(out_dir, "fig8"))

    return fits, summary, c_true


def _cmd_study(cfg):
    out_dir = _out_path(cfg["out_dir"])
    fits, _summary, c_true = run_study_pipeline(
        seed=cfg["seed"], out_dir=out_dir, reps=cfg["reps"],
        n_times=cfg["n_times"], lambda_x=cfg["lambda_x"],
        lambda_y=cfg["lambda_y"], max_outer=cfg["max_outer"])
    med = _medians(fits, ("s", "sigma_x", "sigma_y", "xi", "c_hat_pickands"))
    failed = len(fits) - len(_fitted(fits))
    if failed:
        print(f"{failed} of {len(fits)} replicate fits failed")
    print(f"parametric c at true margins: {c_true:.6g}")
    print(f"median fitted: s={med['s']:.4g} sigma_x={med['sigma_x']:.4g} "
          f"sigma_y={med['sigma_y']:.4g} xi={med['xi']:.4g}")
    print(f"median c_hat_pickands: {med['c_hat_pickands']:.4g}")
    print(f"wrote study outputs to {out_dir}")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "fit": _cmd_fit,
    "depfn": _cmd_depfn,
    "estimate-c": _cmd_estimate_c,
    "diagnose": _cmd_diagnose,
    "validate": _cmd_validate,
    "study": _cmd_study,
}


def execute(cfg: RunConfig) -> int:
    """Run a validated config; returns the process exit status."""
    return _COMMANDS[cfg.command](cfg)


def main(argv=None) -> int:
    try:
        cfg = parse_and_validate(argv if argv is not None else sys.argv[1:])
        return execute(cfg)
    except OrdextError as exc:
        print(f"ordext: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"ordext: i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
