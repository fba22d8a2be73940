"""Objective construction and Nelder-Mead parameter estimation."""

import numpy as np
import pytest

from hpa_dynamics import (FitError, FitProblem, IntegrationConfig,
                          IntegrationError, ParameterSet, integrate, fit,
                          objective)
from hpa_dynamics.calibration import PENALTY
from conftest import make_observations

# short horizon and burn-in keep each objective evaluation cheap
FAST_CFG = IntegrationConfig(t0=0.0, t_end=720.0, burn_in=1440.0)


@pytest.fixture(scope="module")
def obs(params):
    traj = integrate(FAST_CFG, params)
    return make_observations(traj, np.arange(0.0, 721.0, 90.0))


@pytest.fixture(scope="module")
def prob(params):
    return FitProblem(base=params, integration=FAST_CFG)


class TestFitProblem:
    def test_default_bounds(self, prob, params):
        base = np.array([getattr(params, n) for n in prob.free_names])
        assert np.allclose(prob.lower, 0.1 * base)
        assert np.allclose(prob.upper, 10.0 * base)

    def test_assemble(self, prob):
        p = prob.assemble([0.6, 0.4, 0.2, 0.08, 0.004])
        assert p.k1 == 0.6 and p.k5 == 0.004
        assert p.h1 == prob.base.h1  # fixed parameters untouched

    def test_unknown_free_name(self, params):
        with pytest.raises(FitError):
            FitProblem(base=params, free_names=("k1", "bogus"))

    def test_bad_bounds(self, params):
        with pytest.raises(FitError):
            FitProblem(base=params, free_names=("k1",),
                       lower=np.array([1.0]), upper=np.array([0.5]))


class TestObjective:
    def test_zero_at_truth(self, prob, obs, params):
        truth = np.array([getattr(params, n) for n in prob.free_names])
        assert objective(truth, prob, obs) == pytest.approx(0.0, abs=1e-6)

    def test_positive_away_from_truth(self, prob, obs, params):
        x = np.array([getattr(params, n) for n in prob.free_names]) * 1.5
        assert objective(x, prob, obs) > 0.1

    def test_out_of_bounds_rejected(self, prob, obs):
        with pytest.raises(FitError):
            objective(prob.upper * 1.01, prob, obs)

    def test_integration_failure_maps_to_penalty(self, prob, obs, params,
                                                 monkeypatch):
        import hpa_dynamics.calibration as cal

        def boom(*args, **kwargs):
            raise IntegrationError("synthetic failure")

        monkeypatch.setattr(cal, "integrate", boom)
        truth = np.array([getattr(params, n) for n in prob.free_names])
        assert objective(truth, prob, obs) == PENALTY

    def test_sum_squares_kind(self, params, obs):
        prob = FitProblem(base=params, integration=FAST_CFG,
                          objective_kind="sum_squares")
        truth = np.array([getattr(params, n) for n in prob.free_names])
        assert objective(truth, prob, obs) == pytest.approx(0.0, abs=1e-10)

    def test_gauge_direction_is_flat(self, prob, obs, params):
        # scaling (k1, k2) by c and k4 by 1/c rescales only the unobserved
        # CRH compartment, so the ACTH/cortisol objective cannot change
        truth = np.array([getattr(params, n) for n in prob.free_names])
        c = 2.0
        gauge = truth * np.array([c, c, 1.0, 1.0 / c, 1.0])
        assert abs(objective(gauge, prob, obs)
                   - objective(truth, prob, obs)) <= 1e-4


class TestFit:
    def test_budget_one_contract(self, prob, obs):
        result = fit(prob, obs, budget=1, n_starts=1)
        assert result.evaluations == 1
        assert not result.converged

    def test_budget_respected(self, prob, obs):
        result = fit(prob, obs, budget=40, n_starts=2)
        assert result.evaluations <= 40

    def test_never_worse_than_init(self, prob, obs, params):
        init = np.array([getattr(params, n) for n in prob.free_names]) * 1.3
        result = fit(prob, obs, init=init, budget=60, n_starts=1)
        assert result.objective_value <= objective(init, prob, obs) + 1e-12

    def test_history_monotone(self, prob, obs):
        result = fit(prob, obs, budget=80, n_starts=1)
        vals = [v for _, v in result.history]
        idxs = [i for i, _ in result.history]
        assert vals == sorted(vals, reverse=True)
        assert idxs == sorted(idxs)
        assert result.history[-1][1] == result.objective_value

    def test_deterministic(self, prob, obs):
        a = fit(prob, obs, budget=60, seed=7, n_starts=3)
        b = fit(prob, obs, budget=60, seed=7, n_starts=3)
        assert a.fitted == b.fitted
        assert a.objective_value == b.objective_value
        assert a.history == b.history

    def test_all_candidates_within_bounds(self, prob, obs):
        seen = []
        fit(prob, obs, budget=60, n_starts=2,
            on_evaluate=lambda x, v: seen.append(x))
        assert len(seen) == 60
        for x in seen:
            assert np.all(x >= prob.lower - 1e-12)
            assert np.all(x <= prob.upper + 1e-12)

    def test_bad_arguments(self, prob, obs):
        with pytest.raises(FitError):
            fit(prob, obs, budget=0)
        with pytest.raises(FitError):
            fit(prob, obs, n_starts=0)
        with pytest.raises(FitError):
            fit(prob, obs, init=np.array([1.0]))
        with pytest.raises(FitError, match="seed"):
            fit(prob, obs, seed=-1)

    def test_recovers_identifiable_subset(self, params):
        # k4 and k5 are identifiable once the CRH drive (k1, k2) is fixed
        truth = params
        traj = integrate(FAST_CFG, truth)
        obs = make_observations(traj, np.arange(0.0, 721.0, 45.0))
        prob = FitProblem(base=truth, free_names=("k4", "k5"),
                          integration=FAST_CFG)
        init = np.array([truth.k4 * 1.4, truth.k5 / 1.4])
        result = fit(prob, obs, init=init, budget=250, n_starts=1)
        assert result.fitted.k4 == pytest.approx(truth.k4, rel=0.02)
        assert result.fitted.k5 == pytest.approx(truth.k5, rel=0.02)
