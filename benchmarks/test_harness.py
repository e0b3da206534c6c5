"""Smoke test of the benchmark harness at tiny sizes.

It lives outside tests/, so the tier-1 suite does not collect it.  Run it
from the repository root with

    python -m pytest benchmarks/test_harness.py -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from ordext import estimation  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
# end-to-end metrics each workload reports (gated ones plus the rest)
REPORTED = {
    "study": {"fit_s.p50", "recovered_frac", "loglik_per_obs"},
    "long-series": {"fit_s.p50", "recovered_frac", "loglik_per_obs"},
    "sample-diagnose": {"pairs_per_s"},
}


def bench(workload, trace):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", str(trace),
         "--size", "tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170, check=True)
    *_, report, final = out.stdout.strip().splitlines()
    return json.loads(report)["report"], json.loads(final)


def units(entries):
    return {m["name"]: m["unit"] for m in entries}


@pytest.mark.parametrize("workload", sorted(REPORTED))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    report, final = bench(workload, trace)
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] and final["failed"] == 0
    assert final["attempted"] >= 1
    wanted = units(BENCHMARK["per_layer" if trace else "end_to_end"])
    assert {k: v["unit"] for k, v in final["metrics"].items()} == wanted
    for value in final["metrics"].values():
        assert set(value) == {"value", "unit"}
        assert isinstance(value["value"], (int, float))
    if not trace:
        names = set(wanted) | {"failed_frac"} | REPORTED[workload]
        assert names <= set(report["metrics"])
        assert all(report["metrics"][k]["unit"] for k in names)
        assert report["metrics"]["failed_frac"]["value"] == 0.0
    assert {"git_sha", "src_sha256", "python", "numpy", "scipy", "nproc",
            "threads", "seed"} <= set(report["provenance"])
    assert report["provenance"]["threads"]["pinned"] == 1
    for fit in report["fits"]:
        assert {"s", "sigma_x", "sigma_y", "xi", "c_hat", "c_hat_pickands",
                "loglik"} <= set(fit)


def test_benchmark_lists_the_harness_metrics():
    assert units(BENCHMARK["end_to_end"]) == run.END_TO_END
    assert units(BENCHMARK["per_layer"]) == run.per_layer_units()
    assert [w["name"] for w in BENCHMARK["workloads"]] == \
        list(workloads.WORKLOADS)


def test_forced_bad_output_counts_as_failure(monkeypatch, tmp_path):
    real = estimation.pickands_curve

    def halved(*args, **kwargs):
        curve = real(*args, **kwargs)
        return estimation.PickandsCurve(curve.omegas, 0.5 * curve.values,
                                        curve.variant)

    monkeypatch.setattr(estimation, "pickands_curve", halved)
    args = run.parse_args(["--workload", "sample-diagnose", "--seed", "1",
                           "--seconds", "0", "--size", "tiny"])
    passes, _fits, metrics, _ = run.run_untraced(
        args, workloads, workloads.SIZES["tiny"], str(tmp_path))
    failed = [op for p in passes for op in p.ops if op.error]
    assert [op.name for op in failed] == ["pickands"]
    assert metrics["failed_frac"]["value"] == pytest.approx(1 / 6)
