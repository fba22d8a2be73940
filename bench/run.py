"""Benchmark of hpa-dynamics: cohort, calibrate and sensitivity workloads.

Run from the root of a checkout:

    python3 bench/run.py --workload cohort --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs each unit of
work untraced and traced, and prints the per-layer metrics and the tracing
overhead. ``--smoke`` shrinks every workload for a quick self-test.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_STARTS = 25         # fresh interpreters timed per run, spread over the run
SETUP_HEAD = 5            # of them before the workload's own set-up
SETUP_PER_GAP = 3         # of them after each measured unit
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)
RHS_SAMPLES = 256
RHS_ROUNDS = 40


def fail_setup(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


if not (SRC / "hpa_dynamics" / "__init__.py").is_file():
    fail_setup(f"no package source at {SRC / 'hpa_dynamics'}")
sys.path.insert(0, str(SRC))
import hpa_dynamics  # noqa: E402
if Path(hpa_dynamics.__file__).resolve().parent != SRC / "hpa_dynamics":
    fail_setup(f"imported hpa_dynamics from {hpa_dynamics.__file__}, not {SRC}")

from hpa_dynamics import calibration, cli, integrator, parallel, sensitivity  # noqa: E402
from hpa_dynamics.calibration import PENALTY  # noqa: E402

from hostspeed import NOMINAL_S, normalized  # noqa: E402
from spans import NAME, OP, CallCounter, Tracer  # noqa: E402
from workloads import WORKLOADS, Ledger  # noqa: E402


# Metrics measured on some workloads only, and why the others lack them.
_COHORT_ONLY = ({"cohort"}, "only cohort goes through the cli and io layers")
_CALIBRATE_ONLY = ({"calibrate"}, "only calibrate runs fit() and its objective")
_SENSITIVITY_ONLY = ({"sensitivity"},
                     "only sensitivity runs rank_parameters() through the pool")
ONLY_ON = {
    "time_to_target_s": _CALIBRATE_ONLY,
    **dict.fromkeys(("io.parse_config_s", "io.parse_observations_s", "io.write_csv_s",
                     "io.write_manifest_s", "cli.simulate_s", "cli.validate_s",
                     "cli.self_s"), _COHORT_ONLY),
    **dict.fromkeys(("calibration.objective_busy_s", "calibration.optimizer_self_s",
                     "calibration.penalty_frac", "calibration.evals_to_target"),
                    _CALIBRATE_ONLY),
    **dict.fromkeys(("sensitivity.report_s", "sensitivity.baseline_s",
                     "parallel.map_s", "parallel.efficiency"), _SENSITIVITY_ONLY),
    "metrics.score_busy_s": ({"cohort", "calibrate"}, "sensitivity scores no fit"),
}


def missing(workload: str, names) -> dict:
    return {n: ONLY_ON[n][1] for n in names if workload not in ONLY_ON[n][0]}


class SetupClock:
    """Wall times of fresh ``python -m hpa_dynamics.cli --version`` starts.

    They are taken a few at a time between the measured units, not in one
    burst, so a short noisy moment of the machine moves few of them.
    """

    def __init__(self, total: int):
        self.total = total
        self.times: list[float] = []
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.env.pop(parallel.ENV_VAR, None)

    def take(self, n: int) -> None:
        for _ in range(min(n, self.total - len(self.times))):
            start = time.perf_counter()
            done = subprocess.run([sys.executable, "-m", "hpa_dynamics.cli", "--version"],
                                  cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=60)
            self.times.append(time.perf_counter() - start)
            if done.returncode != 0 or done.stdout.strip() != hpa_dynamics.__version__:
                fail_setup(f"`hpa_dynamics.cli --version` failed: {done.stderr.strip()}")

    def median(self) -> float:
        self.take(self.total)
        return statistics.median(self.times)


def unit_latencies(workload, unit: int) -> list[float]:
    """Run one unit; return the latencies of the operations it completed."""
    lat = workload.ledger.latencies
    before = len(lat)
    workload.ops_of[unit] = workload.run_unit(unit)
    return lat[before:]


def rate(latencies: list[float]) -> float:
    """Operations per second of operation time, over the whole run.

    Pooled rather than a median of per-unit rates: the machine's speed
    wanders over seconds, and a run holds only four or five units.
    """
    return len(latencies) / sum(latencies) if latencies else 0.0


def run_loop(workload, seconds: float, between) -> int:
    """Run whole units until they have taken ``seconds``; return the count.

    ``between()`` runs after each unit, off the loop's clock.
    """
    spent, unit = 0.0, 0
    while unit == 0 or spent < seconds:
        start = time.perf_counter()
        unit_latencies(workload, unit)
        spent += time.perf_counter() - start
        between()
        unit += 1
    return unit


def tail(latencies: list[float]) -> tuple[float, float] | None:
    """Highest ladder percentile with at least ten samples beyond it."""
    for q in TAIL_LADDER:
        if len(latencies) * (1.0 - q / 100.0) >= 10:
            return q, statistics.quantiles(latencies, n=100, method="inclusive")[int(q) - 1]
    return None


class Recorder:
    """What the count set does, while on: its integrate calls, the points and
    sampled states they return, the bytes the CLI writes and the penalties."""

    def __init__(self):
        self.on = False
        self.calls: list[tuple] = []
        self.points = 0
        self.samples: list[tuple] = []
        self.evals = 0
        self.bytes_written = 0
        self.penalties = 0

    def integrate(self, index, traj, args, kwargs):
        if self.on:
            self.calls.append((args, kwargs))
            self.points += len(traj.times)
            step = max(1, len(traj.times) // 8)
            self.samples += [(float(t), *map(float, s), args[1])
                             for t, s in zip(traj.times[::step], traj.states[::step])]

    def written(self, index, result, args, kwargs):
        if self.on:
            self.bytes_written += Path(args[0]).stat().st_size

    def objective(self, index, value, args, kwargs):
        if self.on and value == PENALTY:
            self.penalties += 1


def install_tracing(tracer: Tracer, recorder: Recorder) -> None:
    """Wrap the module-level names through which the layers call each other."""
    for module in (cli, calibration, sensitivity):
        tracer.wrap(module, "integrate", "integrator.integrate", recorder.integrate)
    for module in (cli, calibration):
        tracer.wrap(module, "score_fit", "metrics.score_fit")
    tracer.wrap(cli, "parse_config", "io.parse_config")
    tracer.wrap(cli, "parse_observations", "io.parse_observations")
    tracer.wrap(cli, "write_csv", "io.write_csv", recorder.written)
    tracer.wrap(cli, "write_manifest", "io.write_manifest", recorder.written)
    tracer.wrap(calibration, "objective", "calibration.objective", recorder.objective)
    tracer.wrap(sensitivity, "map_ordered", "parallel.map_ordered")


@contextmanager
def counting(workload, recorder: Recorder):
    """Record the count set run in the block, with every RHS call counted.

    Its spans go to a tracer of their own: the counter's cost is in them,
    so no layer time is taken from them.
    """
    with tracing(workload, Tracer(), recorder, record=True), \
            CallCounter(integrator, "_rhs") as rhs:
        yield
    recorder.evals = rhs.calls


def replay(calls) -> dict:
    """Integrator times of the count set, and its burn-in RHS count.

    Each recorded call is timed again uncounted, whole and with
    ``t_end = t0`` (burn-in only); the burn-in is then run once more counted.
    """
    m = dict.fromkeys(("busy", "burn_in", "evals_burn_in"), 0)
    for args, kwargs in calls:
        burn_in = (replace(args[0], t_end=args[0].t0), args[1])
        start = time.perf_counter()
        integrator.integrate(*args, **kwargs)
        m["busy"] += time.perf_counter() - start
        start = time.perf_counter()
        integrator.integrate(*burn_in)
        m["burn_in"] += time.perf_counter() - start
        with CallCounter(integrator, "_rhs") as burn:
            integrator.integrate(*burn_in)
        m["evals_burn_in"] += burn.calls
    return m


def rhs_call_us(samples) -> float:
    """Median time per call of the integrator's RHS on the sampled states."""
    f = integrator._rhs
    rounds = []
    for _ in range(RHS_ROUNDS):
        start = time.perf_counter()
        for t, r, a, c, p in samples:
            f(t, r, a, c, p, None)
        rounds.append((time.perf_counter() - start) / len(samples))
    return 1e6 * statistics.median(rounds)


def layer_report(workload, tracer: Tracer, ops, recorder: Recorder,
                 times: dict) -> tuple[dict, dict]:
    """Per-layer metrics as ``{name: (value, unit)}``: those every workload
    reports, and those only this workload's layers have."""
    ops = set(ops)
    stride = max(1, len(recorder.samples) // RHS_SAMPLES)
    r = {
        "model.rhs_evals": (recorder.evals, "count"),
        "model.rhs_call_us": (rhs_call_us(recorder.samples[::stride]), "us"),
        "integrator.calls": (len(recorder.calls), "count"),
        "integrator.busy_s": (times["busy"], "s"),
        "integrator.output_points": (recorder.points, "count"),
        "integrator.burn_in_s": (times["burn_in"], "s"),
        "integrator.window_s": (times["busy"] - times["burn_in"], "s"),
        "integrator.rhs_evals_burn_in": (times["evals_burn_in"], "count"),
        "integrator.rhs_evals_window": (recorder.evals - times["evals_burn_in"], "count"),
        "metrics.score_calls": (len(tracer.select("metrics.score_fit", ops)), "count"),
        "calibration.objective_calls":
            (len(tracer.select("calibration.objective", ops)), "count"),
        "io.bytes_written": (recorder.bytes_written, "B"),
        "parallel.workers": (0, "count"),
    }
    extra = {}
    if workload.name == "cohort":
        io_names = ("io.parse_config", "io.parse_observations", "io.write_csv",
                    "io.write_manifest")
        for n in io_names:
            extra[n + "_s"] = (tracer.busy(n, ops), "s")
        main_spans = [i for i, s in enumerate(tracer.spans)
                      if s[OP] in ops and s[NAME] in ("cli.simulate", "cli.validate")]
        inner = ("integrator.integrate", "metrics.score_fit") + io_names
        extra["cli.simulate_s"] = (tracer.busy("cli.simulate", ops), "s")
        extra["cli.validate_s"] = (tracer.busy("cli.validate", ops), "s")
        extra["cli.self_s"] = (extra["cli.simulate_s"][0] + extra["cli.validate_s"][0]
                               - sum(tracer.child_time(i, inner) for i in main_spans), "s")
        extra["metrics.score_busy_s"] = (tracer.busy("metrics.score_fit", ops), "s")
    elif workload.name == "calibrate":
        calls = len(tracer.select("calibration.objective", ops))
        busy = tracer.busy("calibration.objective", ops)
        extra["calibration.objective_busy_s"] = (busy, "s")
        extra["calibration.optimizer_self_s"] = (tracer.busy("calibration.fit", ops) - busy, "s")
        extra["calibration.penalty_frac"] = (
            recorder.penalties / max(1, calls), "fraction")
        extra["calibration.evals_to_target"] = (workload.evals_to_target.get(0, -1),
                                                "count")
        extra["metrics.score_busy_s"] = (tracer.busy("metrics.score_fit", ops), "s")
    elif workload.name == "sensitivity":
        workers = min(parallel.worker_count(), len(workload.reference.parameter_names))
        r["parallel.workers"] = (workers, "count")
        baseline = tracer.busy("integrator.integrate", ops)
        map_s = tracer.busy("parallel.map_ordered", ops)
        extra["sensitivity.report_s"] = (tracer.busy("sensitivity.rank_parameters", ops), "s")
        extra["sensitivity.baseline_s"] = (baseline, "s")
        extra["parallel.map_s"] = (map_s, "s")
        extra["parallel.efficiency"] = (76 * baseline / (workers * map_s) if map_s else 0.0,
                                        "fraction")
    return r, extra


def plain_run(args, workload) -> dict:
    ledger = workload.ledger
    setup = SetupClock(1 if args.smoke else SETUP_STARTS)
    setup.take(SETUP_HEAD)
    workload.prepare()
    ledger.timing_host = workload.scaled
    units = run_loop(workload, args.seconds, lambda: setup.take(SETUP_PER_GAP))
    ledger.timing_host = False
    setup_s = setup.median()
    workload.finish()
    lat = ledger.latencies
    norm = normalized(lat, ledger.kernel_s) if workload.scaled else lat
    rss_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
              + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    metrics = {
        "setup_s": (setup_s, "s"),
        "norm_ops_per_s": (rate(norm), "1/s"),
        "norm_op_p50_s": (statistics.median(norm) if norm else 0.0, "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    shown = {**metrics,
             "ops_per_s": (rate(lat), "1/s"),
             "op_p50_s": (statistics.median(lat) if lat else 0.0, "s")}
    absent = missing(workload.name, ["time_to_target_s"])
    if workload.scaled and lat:
        shown["host.kernel_s"] = (statistics.median(ledger.kernel_s), "s")
    else:
        absent["host.kernel_s"] = ("no kernel passes taken, so norm_* equal the raw "
                                   "figures (see bench/README.md)")
    q = tail(lat)
    if q:
        shown[f"op_tail_s (p{q[0]:g} of {len(lat)})"] = (q[1], "s")
    else:
        absent["op_tail_s"] = (f"{len(lat)} samples leave fewer than ten beyond "
                               f"the median")
    if workload.name == "calibrate":
        ttt = workload.times_to_target
        shown[f"time_to_target_s (median of {len(ttt)} fits)"] = (
            statistics.median(ttt) if ttt else float("nan"), "s")
    shown["fail_frac"] = (ledger.failed / max(1, ledger.attempted), "fraction")
    show(workload, shown, absent,
         f"{len(lat)} operations in {units} units; setup is the median of "
         f"{setup.total} interpreters; norm_* are wall figures scaled to a host "
         f"where the kernel of hostspeed.py takes {NOMINAL_S:g} s"
         + ("" if workload.scaled else " (not scaled on this workload)"))
    print("  setup starts min/median/max = "
          + "/".join(f"{f(setup.times):.4g}" for f in (min, statistics.median, max))
          + f" s over {len(setup.times)}")
    return metrics


@contextmanager
def tracing(workload, tracer: Tracer, recorder: Recorder, record: bool = False):
    """Spans on for the block; ``record`` also records the count set."""
    workload.tracer = tracer
    install_tracing(tracer, recorder)
    recorder.on = record
    try:
        yield
    finally:
        tracer.unwrap_all()
        workload.tracer = None
        recorder.on = False


def trace_run(args, workload) -> dict:
    tracer, recorder = Tracer(), Recorder()
    with (counting(workload, recorder) if workload.count_set_in_prepare
          else nullcontext()):
        workload.prepare()

    # Each unit runs untraced and traced back to back, in alternating order,
    # so that both see the same machine; layer times come from traced unit 0.
    untraced, traced = [], []
    start, unit = time.perf_counter(), 0
    while unit == 0 or time.perf_counter() - start < args.seconds:
        for with_spans in ((False, True) if unit % 2 == 0 else (True, False)):
            if with_spans:
                with tracing(workload, tracer, recorder):
                    traced += unit_latencies(workload, unit)
            else:
                untraced += unit_latencies(workload, unit)
        unit += 1
    if not workload.count_set_in_prepare:
        with counting(workload, recorder):
            workload.run_unit(0)
    times = replay(recorder.calls)
    workload.finish()

    unit0_ops = workload.ops_of[0]
    metrics, extra = layer_report(workload, tracer, unit0_ops, recorder, times)
    rate_u, rate_t = rate(untraced), rate(traced)
    metrics["trace.ops_per_s"] = (rate_t, "1/s")
    metrics["trace.overhead_frac"] = ((rate_u - rate_t) / rate_u if rate_u else 0.0,
                                      "fraction")
    show(workload, {**metrics, **extra, "trace.untraced_ops_per_s": (rate_u, "1/s")},
         missing(workload.name, [n for n in ONLY_ON if "." in n]),
         f"{unit} units, each untraced and traced; counts over the "
         f"{'serial reference report' if workload.count_set_in_prepare else 'first unit, run again'}")
    OUT.mkdir(exist_ok=True)
    spans_file = OUT / f"spans-{workload.name}-seed{args.seed}.json"
    spans_file.write_text(json.dumps({
        "workload": workload.name, "seed": args.seed, "unit0_ops": unit0_ops,
        "metrics": {k: v for k, (v, _) in {**metrics, **extra}.items()},
        "spans": tracer.as_json()}))
    print(f"spans: {spans_file.relative_to(ROOT)}")
    return metrics


def show(workload, metrics: dict, absent: dict, note: str) -> None:
    print(f"workload {workload.name} (seed {workload.seed}): {note}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value if isinstance(value, int) else f'{value:.6g}'} {unit}")
    for name, why in absent.items():
        print(f"  {name}: not measured on {workload.name}: {why}")
    lat = workload.ledger.latencies
    if lat:
        print(f"  latency min/max = {min(lat):.4g}/{max(lat):.4g} s over {len(lat)}")
    for line in workload.extra_report():
        print(f"  {line}")
    for problem in workload.ledger.problems:
        print(f"  FAILED: {problem}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="shrink burn-in and grids for a quick self-test")
    args = ap.parse_args(argv)
    os.environ.pop(parallel.ENV_VAR, None)   # the pool runs at its default size

    ledger = Ledger()
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, work, args.smoke, ledger)
    try:
        metrics = (trace_run if args.trace else plain_run)(args, workload)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": ledger.failed == 0 and ledger.attempted > 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
