"""The three workloads: cohort, calibrate and sensitivity.

Each runs closed loop with one client. A workload is run in units (a cohort
block of 12 subjects, one fit, one sensitivity report); a measured loop ends
on a unit boundary, so every run does whole units. Every operation runs under
a deadline and its output is checked; a failed check or a missed deadline is
a failed operation.
"""

from __future__ import annotations

import os
import shutil
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from hpa_dynamics import (FitProblem, IntegrationConfig, ParameterSet, cli,
                          integrate, objective, rank_parameters, sample)
from hpa_dynamics import fit as run_fit
from hpa_dynamics.parallel import ENV_VAR as THREADS_VAR

import inputs
from checks import deadline, rk4_reference
from hostspeed import kernel

DAY = inputs.DAY
BURN_IN = 14400.0             # the program's default burn-in
SMOKE_BURN_IN = 1440.0
FIT_BUDGET = 50               # evaluations per fit; 100 probe fits reached the target in 3-43
REFERENCE_TOL = 1e-3          # RK4 check: share of each hormone's peak
SCORE_RTOL = 1e-4             # validate scores against the trajectory file


@dataclass
class Ledger:
    """Operations attempted and failed, and the latency of each completed one.

    With ``timing_host`` set, each completed operation is followed by one
    pass of the host-speed kernel, off the operation's clock; ``kernel_s[i]``
    is its time after operation ``i``.
    """

    latencies: list[float] = field(default_factory=list)
    kernel_s: list[float] = field(default_factory=list)
    timing_host: bool = False
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def done(self, latency: float) -> None:
        self.latencies.append(latency)
        if self.timing_host:
            self.kernel_s.append(kernel())

    def fail(self, message: str, n: int = 1) -> None:
        self.failed += n
        if len(self.problems) < 20:
            self.problems.append(message)

    def check(self, ok: bool, message: str) -> None:
        """A check made once per run counts as one more operation."""
        self.attempted += 1
        if not ok:
            self.fail(message)


class Workload:
    name = ""
    op_deadline_s = 0.0
    count_set_in_prepare = False   # exact counts come from prepare(), not unit 0
    scaled = True                  # latencies scaled by the host-speed kernel

    def __init__(self, seed: int, work, smoke: bool, ledger: Ledger):
        self.seed, self.work, self.smoke, self.ledger = seed, work, smoke, ledger
        self.burn_in = SMOKE_BURN_IN if smoke else BURN_IN
        self.tracer = None
        self.ops_of: dict[int, list[int]] = {}   # operation ids of each unit

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else nullcontext()

    def set_op(self, op: int) -> None:
        if self.tracer:
            self.tracer.op = op

    def prepare(self) -> None:
        """Untimed set-up before the measured loops."""

    def run_unit(self, unit: int) -> list[int]:
        """Run one unit; return the operation ids it used."""
        raise NotImplementedError

    def finish(self) -> None:
        """Untimed checks after the measured loops."""

    def extra_report(self) -> list[str]:
        return []


class Cohort(Workload):
    """Per subject: write config and observations, then simulate and validate."""

    name = "cohort"
    op_deadline_s = 30.0

    def prepare(self):
        with deadline(self.op_deadline_s):
            ref = integrate(IntegrationConfig(t_end=3 * DAY, burn_in=self.burn_in),
                            ParameterSet())
        self.ref_times, self.ref_states = ref.times, ref.states
        self.sampled = inputs.sampled_cohort_index(self.seed)

    def _write_inputs(self, s: inputs.CohortSubject, d):
        d.mkdir(parents=True, exist_ok=True)
        lines = [f"model.{n} = {getattr(s.params, n)!r}" for n in inputs.PERTURBED]
        lines += [f"integrate.t_end_min = {s.t_end!r}",
                  f"integrate.mode = {s.mode}",
                  f"integrate.burn_in_min = {self.burn_in!r}"]
        (d / "subject.cfg").write_text("\n".join(lines) + "\n")
        values = inputs.cohort_observations(self.seed, s, self.ref_times,
                                            self.ref_states)
        rows = [f"{t!r},{a!r},{c!r}"
                for t, (a, c) in zip(s.obs_times.tolist(), values.tolist())]
        (d / "obs.csv").write_text("time_min,acth_pg_ml,cortisol_ug_dl\n"
                                   + "\n".join(rows) + "\n")
        return values

    def run_unit(self, unit):
        block = len(inputs.BLOCK)
        ops = list(range(unit * block, (unit + 1) * block))
        for i in ops:
            self._subject(i)
        return ops

    def _subject(self, i):
        s = inputs.cohort_subject(self.seed, i)
        d = self.work / f"subject{i}"
        values = self._write_inputs(s, d)
        cfg = str(d / "subject.cfg")
        self.set_op(i)
        self.ledger.attempted += 1
        try:
            with deadline(self.op_deadline_s):
                start = time.perf_counter()
                with self.span("cli.simulate"):
                    rc_sim = cli.main(["simulate", "--config", cfg,
                                       "--out", str(d / "sim")])
                with self.span("cli.validate"):
                    rc_val = cli.main(["validate", "--config", cfg, "--data",
                                       str(d / "obs.csv"), "--out", str(d / "val")])
                latency = time.perf_counter() - start
            self.ledger.done(latency)
            problem = (f"exit codes {rc_sim}, {rc_val}" if (rc_sim, rc_val) != (0, 0)
                       else self._check_outputs(s, d, values))
        except Exception as exc:   # a crash or a missed deadline fails the operation
            problem = repr(exc)
        if problem:
            self.ledger.fail(f"subject {i}: {problem}")
        if i != self.sampled:
            shutil.rmtree(d)

    def _check_outputs(self, s, d, values):
        traj = np.loadtxt(d / "sim" / "trajectory.csv", delimiter=",", skiprows=1)
        step = IntegrationConfig().dt if s.mode == "fixed" else 1.0
        grid = np.arange(0.0, s.t_end + 0.5 * step, step)
        if traj.shape != (len(grid), 4) or not np.allclose(traj[:, 0], grid, atol=1e-9):
            return f"trajectory grid is not {step}-min steps over [0, {s.t_end}]"
        if not np.all(np.isfinite(traj)):
            return "trajectory has non-finite values"
        predicted = np.column_stack([np.interp(s.obs_times, traj[:, 0], traj[:, j])
                                     for j in (2, 3)])
        expected = {}
        for k, hormone in enumerate(("acth", "cortisol")):
            err = predicted[:, k] - values[:, k]
            expected[hormone] = (100.0 * np.mean(np.abs(err) / values[:, k]),
                                 np.sqrt(np.mean(err ** 2)))
        rows = np.genfromtxt(d / "val" / "scores.csv", delimiter=",", names=True,
                             dtype=None, encoding="utf-8")
        got = {str(r["hormone"]): (r["mape_pct"], r["rmse"]) for r in np.atleast_1d(rows)}
        if set(got) != set(expected):
            return f"scores.csv lists {sorted(got)}"
        for hormone, want in expected.items():
            if not np.allclose(got[hormone], want, rtol=SCORE_RTOL, atol=0.0):
                return f"{hormone} scores {got[hormone]} != {want} from trajectory.csv"
        return None

    def finish(self):
        """Check the sampled subject against RK4 and against a manifest rerun."""
        i = self.sampled
        s = inputs.cohort_subject(self.seed, i)
        d = self.work / f"subject{i}"
        sim = d / "sim" / "trajectory.csv"
        self.checked = []
        try:
            with deadline(120.0):
                ref = rk4_reference(s.params, s.t_end, self.burn_in)
                traj = np.loadtxt(sim, delimiter=",", skiprows=1)
                on_minutes = traj[np.isclose(traj[:, 0] % 1.0, 0.0), 1:]
                worst = float(np.max(np.abs(on_minutes - ref) / np.max(ref, axis=0)))
                self.ledger.check(worst <= REFERENCE_TOL,
                                  f"subject {i}: differs from RK4 by {worst:.3g} of peak")
                self.checked.append(f"subject {i} ({s.mode}) vs RK4 dt=0.5: max error "
                                    f"{worst:.3g} of peak (tolerance {REFERENCE_TOL:g})")
                rc = cli.main(["simulate", "--config", str(d / "sim" / "manifest.txt"),
                               "--out", str(d / "rerun")])
                same = rc == 0 and (d / "rerun" / "trajectory.csv").read_bytes() == sim.read_bytes()
                self.ledger.check(same, f"subject {i}: manifest rerun is not byte-identical")
                self.checked.append(f"subject {i} manifest rerun byte-identical: {same}")
                self.checked.append(self._manifest_precision(d))
        except Exception as exc:   # a crash or a missed deadline fails the check
            self.ledger.check(False, f"subject {i}: reference checks failed: {exc!r}")

    def _manifest_precision(self, d):
        """Report, outside ``fail_frac``, whether manifest.txt still rounds a
        parameter given at full precision (subjects carry 12 digits, so the
        rerun check above does not meet this)."""
        k1 = float(np.nextafter(inputs.cohort_subject(self.seed, self.sampled).params.k1,
                                np.inf))
        cfg = [line for line in (d / "subject.cfg").read_text().splitlines()
               if not line.startswith("model.k1 ")]
        (d / "probe.cfg").write_text("\n".join(cfg + [f"model.k1 = {k1!r}"]) + "\n")
        cli.main(["simulate", "--config", str(d / "probe.cfg"), "--out", str(d / "probe")])
        manifest = (d / "probe" / "manifest.txt").read_text().splitlines()
        recorded = next(line.split("=", 1)[1].strip() for line in manifest
                        if line.startswith("model.k1 "))
        state = "present" if float(recorded) != k1 else "not seen"
        return (f"known defect (not counted in fail_frac) {state}: model.k1 = {k1!r} "
                f"given, manifest.txt records {recorded}")

    def extra_report(self):
        return [f"check: {line}" for line in self.checked]


class Calibrate(Workload):
    """Fits k4, k5 to noisy observations of a seeded truth; an op is one objective."""

    name = "calibrate"
    op_deadline_s = 15.0

    def __init__(self, *args):
        super().__init__(*args)
        self.problems = {}
        self.times_to_target: list[float] = []
        self.evals_to_target: dict[int, int] = {}   # by fit

    def problem(self, unit):
        """The fit problem, observations and target of fit ``unit`` (untimed)."""
        truth, rng = inputs.calibrate_truth(self.seed, unit)
        times = inputs.observation_times(rng, DAY)
        cfg = IntegrationConfig(t_end=DAY, burn_in=self.burn_in)
        clean = sample(integrate(cfg, truth), times)
        obs = inputs.calibrate_observations(rng, times, clean[:, 1], clean[:, 2])
        prob = FitProblem(base=ParameterSet(), free_names=("k4", "k5"),
                          integration=cfg)
        target = objective(np.array([truth.k4, truth.k5]), prob, obs)
        return prob, obs, target

    def run_unit(self, unit):
        first = unit * FIT_BUDGET
        latencies: list[float] = []
        resumed = [0.0]           # when the fit last got the clock back
        best = [np.inf]
        hit = []

        def on_evaluate(x, value):
            latencies.append(time.perf_counter() - resumed[0])
            best[0] = min(best[0], value)
            if not hit and best[0] <= target:
                hit.append(len(latencies))
            self.ledger.done(latencies[-1])
            self.set_op(first + len(latencies))
            rearm()
            resumed[0] = time.perf_counter()

        result = error = None
        try:
            with deadline(self.op_deadline_s) as rearm:
                if unit not in self.problems:   # the traced loop reuses these
                    self.set_op(-1)
                    self.problems[unit] = self.problem(unit)
                prob, obs, target = self.problems[unit]
                rearm()
                self.set_op(first)
                resumed[0] = time.perf_counter()
                with self.span("calibration.fit"):
                    result = run_fit(prob, obs, budget=FIT_BUDGET, seed=unit,
                                     on_evaluate=on_evaluate)
        except Exception as exc:   # a crash or a missed deadline fails the fit
            error = repr(exc)
        n = len(latencies)
        self.ledger.attempted += n + (result is None)
        problem = error or self._check(result, self.problems[unit][0], n, hit)
        if problem:
            self.ledger.fail(f"fit {unit}: {problem}", n + (result is None))
        else:
            self.times_to_target.append(sum(latencies[:hit[0]]))
            self.evals_to_target[unit] = hit[0]
        return list(range(first, first + n))

    @staticmethod
    def _check(result, prob, n, hit):
        if not hit:
            return f"objective at the truth not reached in {FIT_BUDGET} evaluations"
        if not result.evaluations == n == FIT_BUDGET:
            return f"{result.evaluations} evaluations reported, {n} seen"
        fitted = np.array([getattr(result.fitted, k) for k in prob.free_names])
        if np.any(fitted < prob.lower) or np.any(fitted > prob.upper):
            return f"fitted values {fitted} outside the bounds"
        return None

    def extra_report(self):
        return [f"evaluations to target by fit: {self.evals_to_target} "
                f"(budget {FIT_BUDGET})"]


class Sensitivity(Workload):
    """Repeats ``rank_parameters`` on one seeded subject through the pool."""

    name = "sensitivity"
    op_deadline_s = 60.0
    count_set_in_prepare = True
    # Not scaled: a report runs on both vCPUs for seconds, and kernel passes
    # between reports tracked the host worse than none (ten seeds spread
    # 0.27 scaled against 0.21 raw in op_p50_s).
    scaled = False

    def prepare(self):
        self.params = inputs.sensitivity_subject(self.seed)
        if self.smoke:
            self.kwargs = {"grid": np.arange(0.0, DAY + 1.0, 10.0),
                           "integration": IntegrationConfig(burn_in=self.burn_in)}
        else:
            self.kwargs = {}
        os.environ[THREADS_VAR] = "1"
        try:
            with deadline(self.op_deadline_s):
                self.reference = rank_parameters(self.params, **self.kwargs)
        finally:
            del os.environ[THREADS_VAR]

    def run_unit(self, unit):
        op = unit
        self.set_op(op)
        self.ledger.attempted += 1
        try:
            with deadline(self.op_deadline_s):
                start = time.perf_counter()
                with self.span("sensitivity.rank_parameters"):
                    report = rank_parameters(self.params, **self.kwargs)
                latency = time.perf_counter() - start
        except Exception as exc:   # a crash or a missed deadline fails the operation
            self.ledger.fail(f"report {op}: {exc!r}")
            return [op]
        self.ledger.done(latency)
        if not same_report(report, self.reference):
            self.ledger.fail(f"report {op}: differs from the serial reference")
        return [op]

    def extra_report(self):
        return [f"check: each report compared with the {THREADS_VAR}=1 reference; "
                f"top 3 {self.reference.ranking[:3]}"]


def same_report(a, b) -> bool:
    return (a.parameter_names == b.parameter_names and a.ranking == b.ranking
            and a.fd_unstable == b.fd_unstable and a.si_aggregate == b.si_aggregate
            and np.array_equal(a.grid, b.grid)
            and np.array_equal(a.correlation, b.correlation)
            and a.si_series.keys() == b.si_series.keys()
            and all(np.array_equal(a.si_series[k], b.si_series[k]) for k in a.si_series))


WORKLOADS = {w.name: w for w in (Cohort, Calibrate, Sensitivity)}
