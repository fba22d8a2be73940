"""Finite-difference sensitivity indices, ranking and SI correlations."""

import multiprocessing.process
from dataclasses import replace

import numpy as np
import pytest

from hpa_dynamics import (ConfigError, IntegrationConfig, ParameterSet,
                          PARAMETER_NAMES, SensitivityError,
                          correlation_matrix, hill, rank_parameters,
                          si_timeseries)
from hpa_dynamics import integrator, sensitivity
from hpa_dynamics.parallel import ENV_VAR, worker_count

# frozen daylight plus a long burn-in parks the feedback-free model on its
# closed-form fixed point, where SI values are known exactly
D_CONST = 0.5
FROZEN_CFG = IntegrationConfig(t0=0.0, t_end=60.0, burn_in=2880.0,
                               daylight_const=D_CONST)
FROZEN_GRID = np.array([0.0, 15.0, 30.0, 45.0, 60.0])
# a short window on the attractor's approach, for whole reports
SHORT_CFG = IntegrationConfig(t0=0.0, t_end=120.0, burn_in=1440.0)
SHORT_GRID = np.array([0.0, 30.0, 60.0, 90.0, 120.0])


@pytest.fixture(scope="module")
def open_loop():
    return ParameterSet().feedback_free()


@pytest.fixture
def runs(monkeypatch):
    """The scalar runs sensitivity makes, and the (config, member count,
    ``near`` run, result) of each batch, while the test runs."""
    baselines, batches = [], []
    real_scalar, real_batch = sensitivity.integrate, sensitivity.integrate_batch

    def counted_scalar(*args, **kwargs):
        baselines.append(real_scalar(*args, **kwargs))
        return baselines[-1]

    def counted_batch(config, sets, output_times=None, near=None):
        trajs = real_batch(config, sets, output_times=output_times, near=near)
        batches.append((config, len(sets), near, trajs))
        return trajs

    monkeypatch.setattr(sensitivity, "integrate", counted_scalar)
    monkeypatch.setattr(sensitivity, "integrate_batch", counted_batch)
    return baselines, batches


def one_baseline_one_batch(runs, members, seeded, integration):
    """Check that one scalar baseline run and one batch of ``members`` copies
    were made, the batch on the caller's burn-in with the baseline as its
    ``near`` run, and seeded from it (one burn-in day, settled) just where
    ``seeded``; forget them and return the baseline."""
    baselines, batches = runs
    [(config, n, near, trajs)] = batches
    [base] = baselines
    assert n == members and near is base
    assert config.initial_state is None and config.burn_in == integration.burn_in
    # a cold burn-in from the open-loop state never settles on its first day
    one_settled_day = {(t.burn_in_days, t.burn_in_residual <= 1.0) for t in trajs}
    assert (one_settled_day == {(1, True)}) == seeded
    baselines.clear()
    batches.clear()
    return base


class TestClosedFormOracles:
    def test_si_k5_is_plus_one(self, open_loop):
        si = si_timeseries(open_loop, "k5", grid=FROZEN_GRID, rel_step=1e-4,
                           integration=FROZEN_CFG)
        assert np.max(np.abs(si - 1.0)) <= 1e-6

    def test_si_h3_is_minus_one(self, open_loop):
        si = si_timeseries(open_loop, "h3", grid=FROZEN_GRID, rel_step=1e-4,
                           integration=FROZEN_CFG)
        assert np.max(np.abs(si + 1.0)) <= 1e-6

    def test_si_k1_matches_closed_form(self, open_loop):
        p = open_loop
        # C* = k5 (k3 H(D) + k4 (k1 + D k2)/h1) / (h2 h3): differentiate in k1
        drive = (p.k3 * hill(D_CONST, p.R_D, p.gamma)
                 + p.k4 * (p.k1 + D_CONST * p.k2) / p.h1)
        expected = (p.k4 * p.k1 / p.h1) / drive
        si = si_timeseries(p, "k1", grid=FROZEN_GRID, rel_step=1e-4,
                           integration=FROZEN_CFG)
        assert np.max(np.abs(si - expected)) <= 1e-5

    def test_central_difference_is_second_order(self, open_loop):
        # SI(h3) FD estimate has truncation error ~rel_step^2, so halving the
        # step shrinks the error about 4x
        def err(step):
            si = si_timeseries(open_loop, "h3", grid=FROZEN_GRID,
                               rel_step=step, integration=FROZEN_CFG)
            return abs(float(np.mean(si)) + 1.0)

        ratio = err(1e-2) / err(5e-3)
        assert 3.5 <= ratio <= 4.5


class TestSiTimeseries:
    def test_unknown_parameter(self, params):
        with pytest.raises(SensitivityError):
            si_timeseries(params, "bogus")

    def test_bad_rel_step(self, params):
        with pytest.raises(SensitivityError):
            si_timeseries(params, "k5", rel_step=0.0)
        with pytest.raises(SensitivityError):
            si_timeseries(params, "k5", rel_step=0.9)

    def test_zero_parameter_value(self, params):
        p = replace(params, k3=0.0)
        with pytest.raises(SensitivityError):
            si_timeseries(p, "k3", grid=FROZEN_GRID, integration=FROZEN_CFG)

    @pytest.mark.parametrize("name", ["alpha", "phi", "rho"])
    def test_copy_outside_domain_refused(self, params, runs, name):
        # alpha >= 1 and phi, rho <= 1: at 1 a copy rel_step away is no
        # model, and the refusal names the parameter before any run
        with pytest.raises(SensitivityError, match=f"{name}: .*domain"):
            si_timeseries(replace(params, **{name: 1.0}), name)
        assert runs == ([], [])

    @pytest.mark.parametrize("grid, integration, seeded, names", [
        # the default report: the seeded batch on a one-period grid
        (None, IntegrationConfig(), True, ("k2", "gamma")),
        # an unconverged baseline: the full burn-in from each member's start
        (SHORT_GRID, SHORT_CFG, False, ("k5", "alpha"))],
        ids=["default", "short"])
    def test_is_the_report_series(self, params, report, runs, grid, integration,
                                  seeded, names):
        # one path: the series is the report's, up to the steps a two-member
        # batch takes where the report's takes 76 members' (gamma is the
        # worst at 2e-8; k2 was the worst of separately stepped runs, 5.5e-6)
        if grid is not None:
            report = rank_parameters(params, grid=grid, integration=integration)
            one_baseline_one_batch(runs, 4 * len(PARAMETER_NAMES), seeded, integration)
        for name in names:
            alone = si_timeseries(params, name, grid=grid, integration=integration)
            one_baseline_one_batch(runs, 2, seeded, integration)
            shared = report.si_series[name]
            assert np.max(np.abs(alone - shared)) <= 1e-7 * np.max(np.abs(shared))

    def test_default_grid_follows_t0(self, params):
        # the default grid was 0..1440 whatever t0, and the window followed it
        cfg = IntegrationConfig(t0=720.0, t_end=2160.0, burn_in=1440.0)
        grid = np.arange(720.0, 2161.0, 60.0)
        assert np.array_equal(sensitivity._as_grid(None, cfg), np.arange(720.0, 2161.0))
        assert np.array_equal(si_timeseries(params, "k5", integration=cfg)[::60],
                              si_timeseries(params, "k5", grid=grid, integration=cfg))


class TestCorrelationMatrix:
    def test_identical_series(self):
        s = np.array([1.0, 2.0, 3.0, 2.5])
        corr = correlation_matrix({"a": s, "b": s.copy()})
        assert corr[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_negated_series(self):
        s = np.array([1.0, 2.0, 3.0, 2.5])
        corr = correlation_matrix({"a": s, "b": -s})
        assert corr[0, 1] == pytest.approx(-1.0, abs=1e-12)

    def test_unit_diagonal_exact(self):
        rng = np.random.default_rng(1)
        series = {f"p{i}": rng.normal(size=50) for i in range(5)}
        corr = correlation_matrix(series)
        assert np.all(np.diag(corr) == 1.0)
        assert np.allclose(corr, corr.T, atol=0)
        assert np.all(np.abs(corr) <= 1.0)

    def test_zero_variance_names_parameter(self):
        with pytest.raises(SensitivityError, match="flat_one"):
            correlation_matrix({"ok": np.array([1.0, 2.0, 3.0]),
                                "flat_one": np.array([5.0, 5.0, 5.0])})

    @pytest.mark.parametrize("flat", [[1.0, 1.0 + 1e-12, 1.0 - 1e-12],
                                      [0.0, 0.0, 0.0], [-3.0, -3.0, -3.0 + 1e-10]])
    def test_constant_up_to_rounding_rejected(self, flat):
        with pytest.raises(SensitivityError, match="near"):
            correlation_matrix({"ok": np.array([1.0, 2.0, 3.0]),
                                "near": np.array(flat)})

    def test_small_but_real_variation_kept(self):
        corr = correlation_matrix({"a": np.array([1.0, 1.0 + 1e-6, 1.0]),
                                   "b": np.array([2.0, 2.0 + 1e-6, 2.0])})
        assert corr[0, 1] == pytest.approx(1.0, abs=1e-6)

    def test_too_short(self):
        with pytest.raises(SensitivityError):
            correlation_matrix({"a": np.array([1.0, 2.0])})


class TestRankParameters:
    def test_report_structure(self, report):
        assert report.parameter_names == PARAMETER_NAMES
        assert set(report.ranking) == set(PARAMETER_NAMES)
        assert set(report.si_series) == set(PARAMETER_NAMES)
        assert report.correlation.shape == (19, 19)
        for name in PARAMETER_NAMES:
            assert len(report.si_series[name]) == len(report.grid)
            assert report.si_aggregate[name] >= 0.0

    def test_ranking_sorted_by_aggregate(self, report):
        aggs = [report.si_aggregate[n] for n in report.ranking]
        assert aggs == sorted(aggs, reverse=True)

    def test_correlation_is_near_psd(self, report):
        eig = np.linalg.eigvalsh(report.correlation)
        assert eig.min() >= -1e-8

    def test_fd_stable(self, report):
        assert report.fd_unstable == ()

    def test_removal_rates_outrank_shape_exponents(self, report):
        # cortisol clearance must matter far more than the CRH Hill exponent
        assert report.si_aggregate["h3"] > 10 * report.si_aggregate["alpha"]

    def test_nothing_skipped_at_reference(self, report):
        assert report.skipped == ()

    def test_one_batch_per_report(self, params, runs):
        # plus and minus copies at both step sizes share one batch, next to
        # one scalar baseline run; the batch starts from the baseline's state
        # at t0 and burns in one day only where the baseline settled on a day.
        # A parameter without an SI has no copies: zero, or on the bound of
        # its domain, where a copy rel_step away is no model
        p = replace(params, k3=0.0, alpha=1.0, phi=1.0, rho=1.0)
        for grid, integration, seeded in (
                # the default report: a converged baseline and a one-day grid
                (None, IntegrationConfig(), True),
                # a one-day grid whose span is 1440 only up to rounding
                (np.arange(1000.7, 2440.8, 60.0), IntegrationConfig(), True),
                # an unconverged baseline, and a converged one on a grid
                # short of a day
                (SHORT_GRID, SHORT_CFG, False),
                (np.arange(0.0, 721.0, 60.0), IntegrationConfig(), False)):
            report = rank_parameters(p, grid=grid, integration=integration)
            base = one_baseline_one_batch(runs, 4 * (len(PARAMETER_NAMES) - 4),
                                          seeded, integration)
            assert (base.burn_in_residual > 1.0) == (integration is SHORT_CFG)
            reasons = dict(report.skipped)
            assert "zero" in reasons["k3"]
            assert reasons["alpha"].endswith("alpha must be >= 1, got 0.999")
            assert all("domain" in reasons[name] for name in ("alpha", "phi", "rho"))
            assert (report.burn_in_days, report.burn_in_residual) == (
                base.burn_in_days, base.burn_in_residual)

    def test_unsettled_seeded_batch_marches_on(self, params, report, monkeypatch):
        # a seeded batch whose recorded day fails the burn-in's test marches
        # on a day and records the window again: its report is the settled
        # one's up to one more contracting day (1.1e-9 of a series' largest
        # magnitude at worst)
        real_batch, real_change = sensitivity.integrate_batch, integrator._day_change
        days = []

        def fails_first_check(*args, **kwargs):
            # installed after the baseline's burn-in, before the batch's check
            checks = []

            def change(*a):
                checks.append(a)
                return np.inf if len(checks) == 1 else real_change(*a)

            monkeypatch.setattr(integrator, "_day_change", change)
            trajs = real_batch(*args, **kwargs)
            days.append(trajs[0].burn_in_days)
            return trajs

        monkeypatch.setattr(sensitivity, "integrate_batch", fails_first_check)
        later = rank_parameters(params)
        assert days == [2]
        assert later.burn_in_residual <= 1.0
        assert later.ranking == report.ranking
        assert later.fd_unstable == report.fd_unstable
        assert later.skipped == report.skipped
        for name in report.parameter_names:
            shared = report.si_series[name]
            assert np.max(np.abs(later.si_series[name] - shared)) <= (
                1e-7 * np.max(np.abs(shared)))

    def test_feedback_free_skips_undefined_parameters(self, open_loop):
        report = rank_parameters(open_loop, grid=SHORT_GRID, integration=SHORT_CFG)
        reasons = dict(report.skipped)
        zero = {"phi", "psi", "xi", "rho"}
        # these act only through the switched-off feedback terms; cortisol
        # is proportional to k5, so SI(k5) is 1 up to rounding
        flat = {"R_C", "R_A", "alpha", "beta", "delta", "k5"}
        assert set(reasons) == zero | flat
        assert all("zero" in reasons[name] and "constant" not in reasons[name]
                   for name in zero)
        assert all("constant" in reasons[name] for name in flat)
        ranked = tuple(n for n in PARAMETER_NAMES if n not in reasons)
        assert report.parameter_names == ranked
        assert set(report.ranking) == set(ranked)
        assert report.si_series.keys() == report.si_aggregate.keys() == set(ranked)
        assert report.correlation.shape == (len(ranked), len(ranked))
        assert set(report.fd_unstable) <= set(ranked)

    def test_feedback_free_si_k5_is_constant_up_to_rounding(self, open_loop):
        # not exactly constant: an exact zero-spread test would rank it
        si = si_timeseries(open_loop, "k5", grid=SHORT_GRID, integration=SHORT_CFG)
        assert 0.0 < np.ptp(si) <= 1e-9
        with pytest.raises(SensitivityError, match="k5"):
            correlation_matrix({"h3": -si + np.arange(5.0), "k5": si})


class TestFixedMode:
    """In fixed mode the perturbed runs land on the grid too, so every SI
    series has one value per grid time."""

    CFG = IntegrationConfig(t0=0.0, t_end=120.0, burn_in=1440.0, mode="fixed", dt=1.0)
    GRID = np.linspace(0.0, 120.0, 13)

    def test_si_timeseries_follows_the_grid(self, params):
        si = si_timeseries(params, "h3", grid=self.GRID, integration=self.CFG)
        assert si.shape == (len(self.GRID),)

    def test_report_follows_the_grid(self, params):
        report = rank_parameters(params, grid=self.GRID, integration=self.CFG)
        assert all(len(series) == len(self.GRID) for series in report.si_series.values())
        adaptive = rank_parameters(params, grid=self.GRID,
                                   integration=replace(self.CFG, mode="adaptive"))
        assert report.ranking == adaptive.ranking
        for name, agg in adaptive.si_aggregate.items():
            assert report.si_aggregate[name] == pytest.approx(agg, rel=1e-6)


class TestGridOrder:
    """A grid must be strictly increasing: the report keeps the grid, and a
    series in another order would not match it."""

    @pytest.mark.parametrize("grid", [[0.0, 60.0, 30.0, 90.0, 120.0],
                                      [0.0, 30.0, 30.0, 60.0, 120.0], []])
    def test_si_timeseries_rejects(self, params, grid):
        with pytest.raises(SensitivityError, match="strictly increasing"):
            si_timeseries(params, "h3", grid=grid, integration=SHORT_CFG)

    @pytest.mark.parametrize("grid", [[0.0, 60.0, 30.0, 90.0, 120.0],
                                      [120.0, 90.0, 60.0, 30.0, 0.0], []])
    def test_rank_parameters_rejects(self, params, grid):
        with pytest.raises(SensitivityError, match="strictly increasing"):
            rank_parameters(params, grid=grid, integration=SHORT_CFG)


class TestShortGrid:
    """The correlation matrix needs 3 grid times: rank_parameters refuses a
    shorter grid before it integrates anything; si_timeseries takes one."""

    @pytest.mark.parametrize("grid", [[60.0], [0.0, 60.0]])
    def test_rank_parameters_refuses_before_integrating(self, params, grid,
                                                        monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("integrated before checking the grid")

        monkeypatch.setattr(sensitivity, "integrate", no_run)
        monkeypatch.setattr(sensitivity, "integrate_batch", no_run)
        with pytest.raises(SensitivityError, match="at least 3 times"):
            rank_parameters(params, grid=grid, integration=SHORT_CFG)

    def test_si_timeseries_takes_one_time(self, params):
        si = si_timeseries(params, "h3", grid=[60.0], integration=SHORT_CFG)
        assert si.shape == (1,) and np.isfinite(si[0])


class TestParallel:
    def test_worker_count_env(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "3")
        assert worker_count() == 3
        monkeypatch.setenv(ENV_VAR, "0")
        assert worker_count() >= 1
        monkeypatch.delenv(ENV_VAR)
        assert worker_count() >= 1
        monkeypatch.setenv(ENV_VAR, "banana")
        with pytest.raises(ConfigError):
            worker_count()

    def test_pool_matches_serial(self, params, monkeypatch):
        grid = np.array([0.0, 30.0, 60.0, 90.0, 120.0])
        cfg = IntegrationConfig(t0=0.0, t_end=120.0, burn_in=1440.0)
        monkeypatch.setenv(ENV_VAR, "1")
        serial = rank_parameters(params, grid=grid, integration=cfg)
        monkeypatch.setenv(ENV_VAR, "2")
        pooled = rank_parameters(params, grid=grid, integration=cfg)
        assert serial.ranking == pooled.ranking
        assert serial.si_aggregate == pooled.si_aggregate
        assert serial.fd_unstable == pooled.fd_unstable
        for name in PARAMETER_NAMES:
            assert np.array_equal(serial.si_series[name],
                                  pooled.si_series[name])

    def test_report_starts_no_process(self, params, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a sensitivity report started a process")

        # the report runs in the calling process and reads no worker count,
        # so a value that worker_count refuses cannot fail it
        monkeypatch.setenv(ENV_VAR, "banana")
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
        report = rank_parameters(params, grid=SHORT_GRID, integration=SHORT_CFG)
        assert set(report.ranking) == set(PARAMETER_NAMES)
