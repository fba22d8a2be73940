"""Self-test of the benchmark: every workload at smoke size.

    python3 -m pytest bench/test_bench.py

Checks the output contract, that the outputs pass their checks, that a
corrupted output fails them, that every metric is reported or its absence
explained, that the exact counts repeat, and that the benchmark refuses to
run without the package source.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

END_TO_END = ("setup_s", "norm_ops_per_s", "norm_op_p50_s", "ops_per_s", "op_p50_s",
              "host.kernel_s", "op_tail_s", "time_to_target_s", "peak_rss_mb",
              "fail_frac")
PER_LAYER = (
    "model.rhs_evals", "model.rhs_call_us", "integrator.calls", "integrator.busy_s",
    "integrator.output_points", "integrator.burn_in_s", "integrator.window_s",
    "integrator.rhs_evals_burn_in", "integrator.rhs_evals_window",
    "calibration.objective_calls", "calibration.objective_busy_s",
    "calibration.optimizer_self_s", "calibration.penalty_frac",
    "calibration.evals_to_target", "metrics.score_calls", "metrics.score_busy_s",
    "sensitivity.report_s", "sensitivity.baseline_s", "parallel.workers",
    "parallel.map_s", "parallel.efficiency", "io.parse_config_s",
    "io.parse_observations_s", "io.write_csv_s", "io.write_manifest_s",
    "io.bytes_written", "cli.simulate_s", "cli.validate_s", "cli.self_s",
    "trace.ops_per_s", "trace.untraced_ops_per_s", "trace.overhead_frac")
# Reported by every cohort run and left out of fail_frac: manifest.txt keeps
# 12 significant digits of a parameter given at full precision.
KNOWN_DEFECT = r"^  check: known defect \(not counted in fail_frac\) present: .+$"
EXACT_COUNTS = ("model.rhs_evals", "integrator.rhs_evals_burn_in",
                "integrator.rhs_evals_window", "integrator.output_points",
                "integrator.calls", "calibration.evals_to_target")


def run(workload, trace, cwd=ROOT, seed=3):
    done = subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return done


def result(done):
    assert done.returncode == 0, done.stderr
    out = done.stdout.strip().splitlines()
    last = json.loads(out[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(last["attempted"], int) and last["attempted"] >= 1
    assert isinstance(last["failed"], int)
    return last, "\n".join(out[:-1])


def counts(report):
    """The exact counts printed in a traced run's report."""
    found = {}
    for name in EXACT_COUNTS:
        m = re.search(rf"^  {re.escape(name)} = (\d+) count$", report, re.M)
        if m:
            found[name] = int(m.group(1))
    return found


def reported(report, name):
    """True if ``name`` is printed with a value, or its absence is explained."""
    shown = re.search(rf"^  {re.escape(name)}( \(.*\))? = \S+ \S+$", report, re.M)
    absent = re.search(rf"^  {re.escape(name)}: not measured on \w+: .+$", report, re.M)
    return bool(shown) != bool(absent)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end(workload):
    last, report = result(run(workload, 0))
    spec = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == spec
    assert all(v["value"] > 0 for v in last["metrics"].values())
    missing = [n for n in END_TO_END if not reported(report, n)]
    assert not missing, report
    assert last["correct"] and last["failed"] == 0, report
    if workload == "cohort":
        assert "manifest rerun byte-identical: True" in report, report
        assert re.search(KNOWN_DEFECT, report, re.M), report


def test_normalized_scales_by_nearby_kernel_times(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from hostspeed import NOMINAL_S, normalized

    kernel_s = [NOMINAL_S, 2 * NOMINAL_S, 4 * NOMINAL_S]
    assert normalized([1.0, 1.0, 3.0], kernel_s, 0) == [1.0, 0.5, 0.75]
    assert normalized([1.0, 1.0, 3.0], kernel_s, 1) == pytest.approx([1 / 1.5, 0.5, 1.0])


def test_check_catches_corrupted_scores(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(BENCH))
    import inputs
    import workloads

    cohort = workloads.Cohort(3, tmp_path, True, workloads.Ledger())
    cohort.prepare()
    i = cohort.sampled                      # its output directory is kept
    cohort._subject(i)
    assert cohort.ledger.failed == 0, cohort.ledger.problems
    s = inputs.cohort_subject(3, i)
    values = inputs.cohort_observations(3, s, cohort.ref_times, cohort.ref_states)
    d = tmp_path / f"subject{i}"
    assert cohort._check_outputs(s, d, values) is None

    scores = d / "val" / "scores.csv"
    header, first, *rest = scores.read_text().splitlines()
    *fields, rmse = first.split(",")
    scores.write_text("\n".join([header, ",".join(fields + [repr(1.01 * float(rmse))]),
                                 *rest]) + "\n")
    assert "from trajectory.csv" in cohort._check_outputs(s, d, values)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_counts_repeat(workload):
    first, report = result(run(workload, 1))
    spec = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == spec
    missing = [n for n in PER_LAYER if not reported(report, n)]
    assert not missing, report
    first_counts = counts(report)
    assert set(first_counts) >= set(EXACT_COUNTS) - {"calibration.evals_to_target"}
    assert all(v > 0 for v in first_counts.values()), first_counts
    _, second_report = result(run(workload, 1))
    assert counts(second_report) == first_counts


def test_refuses_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run(WORKLOADS[0], 0, cwd=tmp_path)
    assert done.returncode != 0
    assert "{" not in done.stdout
