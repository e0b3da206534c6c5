import argparse
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import ordext
from ordext import InputError, NumericError, cli
from ordext.cli import build_parser, main, parse_and_validate, read_series_csv


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_simulate_config():
    cfg = parse_and_validate(["simulate", "--c", "0.25", "--s", "2",
                              "--n", "500", "--seed", "7", "--out", "a.csv"])
    assert cfg.command == "simulate"
    assert cfg["c"] == 0.25 and cfg["s"] == 2.0
    assert cfg["n"] == 500 and cfg["seed"] == 7


def test_parse_rejects_invalid_boundary(capsys):
    code, _, err = run_cli(capsys, "simulate", "--c", "0.7", "--out", "x.csv")
    assert code != 0
    assert "c" in err


def test_config_file_precedence(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text("s = 2\nc = 0.3\n")
    cfg = parse_and_validate(["depfn", "--config", str(conf), "--s", "3"])
    assert cfg["s"] == 3.0      # flag wins
    assert cfg["c"] == 0.3      # file fills the rest


def test_config_file_unknown_key(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("definitely_not_a_key = 1\n")
    code, _, err = run_cli(capsys, "depfn", "--config", str(conf))
    assert code != 0
    assert "unknown key" in err


def test_required_option_enforced(capsys):
    code, _, err = run_cli(capsys, "simulate")
    assert code != 0
    assert "--out" in err


def test_simulate_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    for out in (out1, out2):
        code, _, _ = run_cli(capsys, "simulate", "--c", "0.25", "--s", "2",
                             "--n", "50", "--seed", "7", "--out", str(out))
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    series = read_series_csv(str(out1))
    assert len(series) == 50


def test_simulate_with_margins_orders_pairs(tmp_path, capsys):
    out = tmp_path / "d.csv"
    code, _, _ = run_cli(capsys, "simulate", "--c", str(1 / 33), "--s", "2",
                         "--n", "80", "--seed", "3", "--out", str(out),
                         "--mu-x", "100", "--sigma-x", "4", "--xi-x", "0.2",
                         "--mu-y", "150", "--sigma-y", "2", "--xi-y", "0.2",
                         "--slope-x", "-40", "--slope-y", "-40")
    assert code == 0
    series = read_series_csv(str(out))
    assert series.is_ordered()


def test_simulate_partial_margins_rejected(capsys):
    code, _, err = run_cli(capsys, "simulate", "--out", "x.csv",
                           "--mu-x", "100")
    assert code != 0
    assert "margin" in err


def test_estimate_c(tmp_path, capsys):
    data = tmp_path / "pairs.csv"
    data.write_text("t,x,y\n0.0,0.69,0.31\n0.5,1.0,1.0\n1.0,0.5,1.5\n")
    code, out, _ = run_cli(capsys, "estimate-c", "--data", str(data))
    assert code == 0
    assert out.strip() == "0.31"


def test_depfn_stdout_value(capsys):
    code, out, _ = run_cli(capsys, "depfn", "--family", "restricted",
                           "--c", "0.25", "--s", "1", "--grid", "3")
    assert code == 0
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert lines[0] == "omega,value"
    w, v = lines[2].split(",")
    assert float(w) == 0.5
    assert abs(float(v) - 5.0 / 6.0) < 1e-12
    assert v.startswith("0.833333")


def test_depfn_file_and_svg_deterministic(tmp_path, capsys):
    args = ["depfn", "--family", "interval", "--c1", "0.25", "--c2", "0.75",
            "--s", "2"]
    paths = []
    for tag in ("p", "q"):
        csv = tmp_path / f"{tag}.csv"
        svg = tmp_path / f"{tag}.svg"
        code, _, _ = run_cli(capsys, *args, "--out", str(csv), "--svg", str(svg))
        assert code == 0
        paths.append((csv.read_bytes(), svg.read_bytes()))
    assert paths[0] == paths[1]


def test_validate_command_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "validate", "--family", "restricted",
                           "--c", "0.3", "--s", "1.5")
    assert code == 0
    assert "[PASS]" in out
    code, _, err = run_cli(capsys, "validate", "--family", "asymmetric",
                           "--theta1", "1.4")
    assert code != 0


def test_validate_near_half_at_large_s(capsys):
    # (1 - 2c)^s underflows here, and the logistic turnover lies 1e-7 from
    # the support end c
    code, out, _ = run_cli(capsys, "validate", "--family", "restricted",
                           "--c", "0.4999999", "--s", "48")
    assert "[PASS] bounds" in out
    assert "[PASS] convexity" in out
    assert code == 0 and "[FAIL]" not in out


def test_missing_file_error(capsys):
    code, _, err = run_cli(capsys, "fit", "--data", "/nonexistent.csv",
                           "--out-dir", "/tmp/nowhere")
    assert code != 0
    assert err


def test_out_dir_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("ORDEXT_OUT_DIR", str(tmp_path))
    code, _, _ = run_cli(capsys, "simulate", "--n", "10", "--seed", "1",
                         "--out", "rel.csv")
    assert code == 0
    assert (tmp_path / "rel.csv").exists()


def test_fit_and_diagnose_pipeline(tmp_path, capsys):
    data = tmp_path / "data.csv"
    code, _, _ = run_cli(capsys, "simulate", "--c", str(1 / 33), "--s", "2",
                         "--n", "60", "--seed", "5", "--out", str(data),
                         "--mu-x", "100", "--sigma-x", "4", "--xi-x", "0.2",
                         "--mu-y", "150", "--sigma-y", "2", "--xi-y", "0.2",
                         "--slope-x", "-40", "--slope-y", "-40")
    assert code == 0
    fit_dir = tmp_path / "fit"
    code, out, _ = run_cli(capsys, "fit", "--data", str(data),
                           "--lambda-x", "100", "--lambda-y", "100",
                           "--max-outer", "12", "--out-dir", str(fit_dir))
    assert code == 0
    for name in ("params.csv", "trends.csv", "trace.csv"):
        assert (fit_dir / name).exists()
    assert "c_hat" in out

    trace = (fit_dir / "trace.csv").read_text().splitlines()
    assert trace[0].split(",")[0] == "iteration"
    assert len(trace) >= 3

    diag_dir = tmp_path / "diag"
    code, _, _ = run_cli(capsys, "diagnose", "--data", str(data),
                         "--fit-dir", str(fit_dir), "--out-dir", str(diag_dir))
    assert code == 0
    from ordext import read_table
    for name in ("pp_x.csv", "pp_y.csv", "qq_x.csv", "qq_y.csv",
                 "structure_pooled_min.csv"):
        path = diag_dir / name
        assert path.exists()
        table = read_table(str(path))   # every emitted table re-parses
        assert len(table.x) == 60


def test_read_series_csv_without_time_column(tmp_path):
    f = tmp_path / "xy.csv"
    f.write_text("x,y\n1.0,2.0\n2.0,3.0\n3.0,4.0\n")
    series = read_series_csv(str(f))
    assert np.allclose(series.t, [0.0, 0.5, 1.0])
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1.0,2.0\n")
    with pytest.raises(InputError):
        read_series_csv(str(bad))


def test_study_requires_design_flag(capsys):
    code, _, err = run_cli(capsys, "study", "--out-dir", "/tmp/s")
    assert code != 0
    assert "paper-defaults" in err


@pytest.mark.parametrize("body, reason", [
    ("t,x,y\n0.0,0.7,abc\n1.0,0.5,1.5\n", "non-numeric"),
    ("t,x,y\n0.0,0.7,0.3\n1.0,0.5\n", "cells"),
    ("t,x,y\n0.0,0.7,nan\n1.0,0.5,1.5\n", "non-finite"),
    ("t,x,y\n0.0,-0.7,0.3\n1.0,0.5,1.5\n", "negative"),
], ids=["non_numeric_cell", "ragged_row", "nan_value", "negative_value"])
def test_estimate_c_rejects_bad_cells(tmp_path, capsys, body, reason):
    data = tmp_path / "pairs.csv"
    data.write_text(body)
    code, out, err = run_cli(capsys, "estimate-c", "--data", str(data))
    assert code == 2
    assert out == ""
    assert reason in err


def write_fit_dir(fit_dir, times, trend_header="t,g_x,g_y", s=2.0,
                  c_hat=0.03):
    fit_dir.mkdir()
    (fit_dir / "params.csv").write_text(
        "s,sigma_x,sigma_y,xi,c_hat,c_hat_pickands,loglik,converged\n"
        f"{s!r},4.0,2.0,0.2,{c_hat!r},0.05,-100.0,1.0\n")
    (fit_dir / "trends.csv").write_text(
        trend_header + "\n"
        + "".join(f"{t!r},{100.0 - 40.0 * t!r},{150.0 - 40.0 * t!r}\n"
                  for t in times))


def diagnose_data(tmp_path):
    data = tmp_path / "data.csv"
    data.write_text("t,x,y\n0.0,99.0,149.0\n0.5,80.5,130.0\n1.0,59.0,109.5\n")
    return data


def test_diagnose_rejects_fit_with_other_times(tmp_path, capsys):
    data = diagnose_data(tmp_path)
    write_fit_dir(tmp_path / "fit", [0.0, 0.4, 1.0])
    code, _, err = run_cli(capsys, "diagnose", "--data", str(data),
                           "--fit-dir", str(tmp_path / "fit"),
                           "--out-dir", str(tmp_path / "diag"))
    assert code == 2
    assert "times" in err


def test_diagnose_rejects_fit_missing_column(tmp_path, capsys):
    data = diagnose_data(tmp_path)
    write_fit_dir(tmp_path / "fit", [0.0, 0.5, 1.0], trend_header="t,g_x,gy")
    code, _, err = run_cli(capsys, "diagnose", "--data", str(data),
                           "--fit-dir", str(tmp_path / "fit"),
                           "--out-dir", str(tmp_path / "diag"))
    assert code == 2
    assert "g_y" in err


@pytest.mark.parametrize("s, c_hat", [(2.0, 0.5), (2.0, 0.7), (0.9, 0.03)],
                         ids=["c_half", "c_above_half", "s_below_1"])
def test_diagnose_rejects_out_of_range_fit(tmp_path, capsys, s, c_hat):
    data = diagnose_data(tmp_path)
    write_fit_dir(tmp_path / "fit", [0.0, 0.5, 1.0], s=s, c_hat=c_hat)
    code, _, err = run_cli(capsys, "diagnose", "--data", str(data),
                           "--fit-dir", str(tmp_path / "fit"),
                           "--out-dir", str(tmp_path / "diag"))
    assert code == 2
    assert "must" in err


def test_diagnose_reads_back_fit_of_unsorted_rows(tmp_path, capsys):
    data = tmp_path / "data.csv"
    code, _, _ = run_cli(capsys, "simulate", "--c", str(1 / 33), "--s", "2",
                         "--n", "40", "--seed", "5", "--out", str(data),
                         "--mu-x", "100", "--sigma-x", "4", "--xi-x", "0.2",
                         "--mu-y", "150", "--sigma-y", "2", "--xi-y", "0.2",
                         "--slope-x", "-40", "--slope-y", "-40")
    assert code == 0
    lines = data.read_text().splitlines()
    head = [ln for ln in lines if ln.startswith("#") or ln.startswith("t,")]
    rows = [ln for ln in lines if ln not in head]
    data.write_text("\n".join(head + rows[::-1]) + "\n")
    fit_dir = tmp_path / "fit"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)     # iteration cap
        code, _, err = run_cli(capsys, "fit", "--data", str(data),
                               "--lambda-x", "100", "--lambda-y", "100",
                               "--max-outer", "3", "--out-dir", str(fit_dir))
    assert code == 0, err
    code, _, err = run_cli(capsys, "diagnose", "--data", str(data),
                           "--fit-dir", str(fit_dir),
                           "--out-dir", str(tmp_path / "diag"))
    assert code == 0, err


def flaky_fit(monkeypatch, failing):
    """Make cli.fit_restricted raise NumericError on the listed calls."""
    fit = cli.fit_restricted
    calls = []

    def flaky(*args, **kwargs):
        calls.append(None)
        if len(calls) - 1 in failing:
            raise NumericError("trend Newton step is not finite")
        return fit(*args, **kwargs)

    monkeypatch.setattr(cli, "fit_restricted", flaky)


@pytest.mark.filterwarnings("ignore:fit stopped at the iteration cap")
@pytest.mark.parametrize("bad", [0, 1])
def test_study_keeps_going_when_one_fit_fails(tmp_path, monkeypatch, bad):
    flaky_fit(monkeypatch, {bad})
    with pytest.warns(RuntimeWarning, match=f"replicate {bad}: fit failed"):
        fits, _, _ = cli.run_study_pipeline(seed=1, out_dir=str(tmp_path),
                                            reps=3, n_times=40, max_outer=5)
    rows = np.loadtxt(tmp_path / "replicate_fits.csv", delimiter=",",
                      skiprows=1)
    assert np.all(np.isnan(rows[bad, 1:8])) and rows[bad, 8] == 0.0
    good = [i for i in range(3) if i != bad]
    assert np.all(np.isfinite(rows[good, 1:8]))
    assert np.isnan(fits[bad].s) and not fits[bad].converged
    with open(tmp_path / "summary.csv") as fh:
        median = next(line for line in fh if line.startswith("median,"))
    s_median = float(median.split(",")[1])
    assert s_median == float(np.median([fits[i].s for i in good]))
    fig5 = np.loadtxt(tmp_path / "fig5_series.csv", delimiter=",",
                      skiprows=1)
    assert np.array_equal(fig5[:, 3], fits[good[0]].g_x)


def test_study_fails_when_every_fit_fails(tmp_path, monkeypatch, capsys):
    flaky_fit(monkeypatch, {0, 1})
    with pytest.warns(RuntimeWarning):
        code, _, err = run_cli(capsys, "study", "--paper-defaults",
                               "--reps", "2", "--n-times", "40",
                               "--out-dir", str(tmp_path))
    assert code == 2 and "all 2 replicate fits failed" in err


COLD_START_IN_CHILD = """
import json, sys, warnings
import ordext
from ordext.cli import main, read_series_csv
out = sys.argv[1]
margins = ["--mu-x", "100", "--sigma-x", "4", "--xi-x", "0.2", "--mu-y",
           "150", "--sigma-y", "2", "--xi-y", "0.2", "--slope-x", "-40",
           "--slope-y", "-40"]
codes = [main(["simulate", "--c", "0.25", "--n", "200", "--seed", "7",
               "--out", out + "/pairs.csv"]),
         main(["estimate-c", "--data", out + "/pairs.csv"]),
         main(["simulate", "--c", "0.03", "--n", "40", "--seed", "3",
               "--out", out + "/series.csv", *margins])]
ordext.c_from_margins(ordext.GevmParams(100, 2, 0.2),
                      ordext.GevmParams(150, 2, 0.15))
def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
before = scipy_modules()
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    ordext.fit_restricted(read_series_csv(out + "/series.csv"), 10.0, 10.0,
                          ordext.FitConfig(max_outer=1))
print(json.dumps({"codes": codes, "before": before, "after": scipy_modules()}))
"""


def test_scipy_loads_at_the_first_fit(tmp_path):
    """Importing ordext, the non-fit commands and an unequal-shape boundary
    constant load numpy only; the first fit loads scipy."""
    src = str(Path(ordext.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", COLD_START_IN_CHILD,
                          str(tmp_path)], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["codes"] == [0, 0, 0]
    assert result["before"] == []
    assert {"scipy.optimize", "scipy.linalg"} <= set(result["after"])


DATA_SCALE = ["--mu-x", "100", "--sigma-x", "4", "--xi-x", "0.2",
              "--mu-y", "150", "--sigma-y", "2", "--xi-y", "0.2"]


@pytest.mark.parametrize("command, margins, file_scale, needed", [
    ("estimate-c", DATA_SCALE, "original", "exponential"),
    ("fit", [], "exponential", "original"),
    ("diagnose", [], "exponential", "original"),
], ids=["estimate_c_on_data_scale", "fit_on_exponential_scale",
        "diagnose_on_exponential_scale"])
def test_command_refuses_data_on_another_scale(tmp_path, capsys, command,
                                               margins, file_scale, needed):
    # the scale line simulate writes was once dropped on reading:
    # estimate-c printed a meaningless number for data-scale pairs, and
    # fit blamed exponential-scale pairs for being unordered
    data = tmp_path / "data.csv"
    code, _, _ = run_cli(capsys, "simulate", "--n", "50", "--seed", "7",
                         "--out", str(data), *margins)
    assert code == 0
    out_dirs = {"estimate-c": [],
                "fit": ["--out-dir", str(tmp_path / "out")],
                "diagnose": ["--fit-dir", str(tmp_path / "fit"),
                             "--out-dir", str(tmp_path / "out")]}
    code, out, err = run_cli(capsys, command, "--data", str(data),
                             *out_dirs[command])
    assert code == 2 and out == ""
    assert f"needs {needed}-scale data" in err
    assert f"scale line says {file_scale}" in err
    assert not (tmp_path / "out").exists()


def test_estimate_c_refuses_bytes_that_are_not_utf8(tmp_path, capsys):
    # once an uncaught UnicodeDecodeError and a traceback
    data = tmp_path / "pairs.csv"
    data.write_bytes(b"t,x,y\n0.0,0.7,0.3\n1.0,0.5,\xff\n")
    code, out, err = run_cli(capsys, "estimate-c", "--data", str(data))
    assert code == 2 and out == ""
    assert "data row 2 has a non-numeric cell" in err


@pytest.mark.parametrize("argv", [
    ("simulate", "--c", "0.25", "--s", "2", "--n", "50", "--seed", "-1"),
    ("study", "--paper-defaults", "--reps", "1", "--n-times", "60",
     "--seed", "-3"),
    ("fit", "--lambda-x", "nan"),
    ("fit", "--lambda-x", "inf"),
    ("fit", "--lambda-y", "1e308"),
    ("study", "--paper-defaults", "--reps", "1", "--n-times", "20",
     "--max-outer", "1", "--lambda-x", "1e308"),
    ("fit", "--max-outer", "0"),
    ("fit", "--max-outer", "-1"),
], ids=["simulate_seed", "study_seed", "lambda_nan", "lambda_inf",
        "lambda_huge", "study_lambda_huge", "max_outer_0",
        "max_outer_negative"])
def test_bad_numbers_exit_2_before_any_file(tmp_path, capsys, argv):
    # once numpy's or scipy's ValueError with a traceback, or for
    # max_outer < 1 the starting state written as the fit
    out = tmp_path / "out"
    where = {"simulate": ["--out", str(out)], "study": ["--out-dir", str(out)],
             "fit": ["--data", str(tmp_path / "data.csv"),
                     "--out-dir", str(out)]}[argv[0]]
    if argv[0] == "fit":
        code, _, _ = run_cli(capsys, "simulate", "--n", "50", "--seed", "7",
                             "--out", str(tmp_path / "data.csv"),
                             "--mu-x", "100", "--sigma-x", "4", "--xi-x", "0.2",
                             "--mu-y", "150", "--sigma-y", "2", "--xi-y", "0.2")
        assert code == 0
    code, stdout, err = run_cli(capsys, *argv, *where)
    assert code == 2 and stdout == "", err
    assert "must" in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("depfn", "--grid", "100000000000"),
    ("validate", "--grid", "100000000000"),
    ("simulate", "--c", "0.25", "--s", "2", "--n", "100000000000"),
    ("study", "--paper-defaults", "--n-times", "100000000000"),
    ("study", "--paper-defaults", "--reps", "100000000000"),
    ("study", "--paper-defaults", "--reps", "10000", "--n-times", "10000"),
    ("study", "--paper-defaults", "--n-times", "-5"),
], ids=["depfn_grid", "validate_grid", "simulate_n", "study_n_times",
        "study_reps", "study_pairs", "study_negative_n_times"])
def test_sizes_past_their_bounds_exit_2_before_any_work(tmp_path, capsys,
                                                        argv):
    # once numpy's _ArrayMemoryError (or, for a negative n_times, its
    # ValueError) with a traceback and exit 1; the check refuses these
    # sizes before anything is allocated
    out = tmp_path / "out"
    where = {"depfn": ["--out", str(out)], "validate": [],
             "simulate": ["--out", str(out)],
             "study": ["--out-dir", str(out)]}[argv[0]]
    code, stdout, err = run_cli(capsys, *argv, *where)
    assert code == 2 and stdout == "", err
    assert "must be" in err and str(cli.SIZE_CEILING) in err
    assert not out.exists()


# every subcommand's options as (flag, the value a run takes when the flag
# is omitted, help), in order; "(required)" in the help marks a flag a
# run needs.  These are the options the command line had when each
# option's rules moved into one table, and no option may change.
PINNED_OPTIONS = {
    'simulate': (
        ('--family', 'restricted', 'dependence family'),
        ('--c', 0.25, 'ordering boundary (restricted, upper)'),
        ('--s', 2.0, 'dependence strength'),
        ('--theta1', 1.0, 'asymmetric weight 1'),
        ('--theta2', 1.0, 'asymmetric weight 2'),
        ('--c1', 0.25, 'interval lower boundary'),
        ('--c2', 0.75, 'interval upper boundary'),
        ('--n', 100, 'number of pairs'),
        ('--seed', 0, 'random seed'),
        ('--mu-x', None, 'X location (omit for exponential scale)'),
        ('--sigma-x', None, 'X scale'),
        ('--xi-x', None, 'X shape'),
        ('--mu-y', None, 'Y location'),
        ('--sigma-y', None, 'Y scale'),
        ('--xi-y', None, 'Y shape'),
        ('--slope-x', 0.0, 'linear trend slope for X location'),
        ('--slope-y', 0.0, 'linear trend slope for Y location'),
        ('--out', None, 'output CSV path (required)'),
    ),
    'fit': (
        ('--data', None, 'input CSV (required)'),
        ('--lambda-x', 1000.0, 'smoothing weight for the X trend'),
        ('--lambda-y', 1000.0, 'smoothing weight for the Y trend'),
        ('--max-outer', 60, 'outer map cap'),
        ('--out-dir', None, 'output directory (required)'),
    ),
    'depfn': (
        ('--family', 'restricted', 'dependence family'),
        ('--c', 0.25, 'ordering boundary (restricted, upper)'),
        ('--s', 1.0, 'dependence strength'),
        ('--theta1', 1.0, 'asymmetric weight 1'),
        ('--theta2', 1.0, 'asymmetric weight 2'),
        ('--c1', 0.25, 'interval lower boundary'),
        ('--c2', 0.75, 'interval upper boundary'),
        ('--grid', 201, 'grid size'),
        ('--out', None, 'output CSV path (default stdout)'),
        ('--svg', None, 'optional SVG path'),
    ),
    'estimate-c': (
        ('--data', None, 'input CSV of exponential-scale pairs (required)'),
    ),
    'diagnose': (
        ('--data', None, 'input CSV (required)'),
        ('--fit-dir', None, "directory written by 'fit' (required)"),
        ('--out-dir', None, 'output directory (required)'),
    ),
    'validate': (
        ('--family', 'restricted', 'dependence family'),
        ('--c', 0.25, 'ordering boundary (restricted, upper)'),
        ('--s', 1.5, 'dependence strength'),
        ('--theta1', 1.0, 'asymmetric weight 1'),
        ('--theta2', 1.0, 'asymmetric weight 2'),
        ('--c1', 0.25, 'interval lower boundary'),
        ('--c2', 0.75, 'interval upper boundary'),
        ('--grid', 101, 'grid size'),
    ),
    'study': (
        ('--paper-defaults', False, 'pin the reference study design'),
        ('--seed', 1, 'master seed'),
        ('--reps', 50, 'number of replicates'),
        ('--n-times', 300, 'observations per replicate'),
        ('--lambda-x', 1000.0, 'smoothing weight for the X trend'),
        ('--lambda-y', 1000.0, 'smoothing weight for the Y trend'),
        ('--max-outer', 60, 'outer map cap per fit'),
        ('--out-dir', None, 'output directory (required)'),
    ),
}


def test_options_flags_defaults_and_help_are_pinned():
    parser = build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == list(PINNED_OPTIONS)
    for command, pinned in PINNED_OPTIONS.items():
        actions = [a for a in sub.choices[command]._actions
                   if a.dest not in ("help", "config")]
        assert [(a.option_strings, a.help) for a in actions] == [
            ([flag], text) for flag, _, text in pinned], command
        assert all(a.default is None for a in actions), command
        # a run with only the required flags (and study's design flag)
        # takes every other option's default
        given = [flag for flag, _, text in pinned if "(required)" in text]
        argv = [command, *(arg for flag in given for arg in (flag, "x"))]
        cfg = parse_and_validate(
            argv + ["--paper-defaults"] * (command == "study"))
        for flag, default, _ in pinned:
            dest = flag[2:].replace("-", "_")
            if flag not in given and dest != "paper_defaults":
                assert cfg[dest] == default, (command, flag)


@pytest.mark.parametrize("argv, message", [
    (("--slope-x", "inf"), "trend coefficients a and b must be finite"),
    (("--slope-y", "nan"), "trend coefficients a and b must be finite"),
    (("--mu-x", "-1e308", "--slope-x", "-1e308"),
     "linear trend overflows the float range"),
    (("--s", "inf"), "dependence strength s must be finite and >= 1"),
], ids=["slope_inf", "slope_nan", "trend_overflow", "s_inf"])
def test_records_refuse_non_finite_values(tmp_path, capsys, argv, message):
    # once a numpy warning and a misleading "x has a NaN or infinite
    # value", or for s = inf exit 0 with a density of +inf
    margins = {"--mu-x": "100", "--sigma-x": "4", "--xi-x": "0.2",
               "--mu-y": "150", "--sigma-y": "2", "--xi-y": "0.2"}
    margins.update(zip(argv[::2], argv[1::2]))
    out = tmp_path / "out.csv"
    code, stdout, err = run_cli(
        capsys, "simulate", *(f"{k}={v}" for k, v in margins.items()),
        "--n", "50", "--out", str(out))
    assert code == 2 and stdout == "", err
    assert message in err
    assert not out.exists()
