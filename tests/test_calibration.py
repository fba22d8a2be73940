"""Objective construction and Nelder-Mead parameter estimation."""

import time
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hpa_dynamics import (FitError, FitProblem, HpaError, IntegrationConfig,
                          IntegrationError, ObservationSeries, ParameterSet,
                          integrate, fit, objective, sample)
from hpa_dynamics import calibration, integrator
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
        # a repeated name passed and fitted one parameter as two
        for free_names in (("k1", "bogus"), ("k5", "k5")):
            with pytest.raises(FitError):
                FitProblem(base=params, free_names=free_names)

    def test_bad_bounds(self, params):
        with pytest.raises(FitError):
            FitProblem(base=params, free_names=("k1",),
                       lower=np.array([1.0]), upper=np.array([0.5]))

    @pytest.mark.parametrize("lower, upper", [
        (float("nan"), 1.0), (0.1, float("inf")), (0.1, float("nan")),
        (-float("inf"), 1.0)])
    def test_non_finite_bounds_refused(self, params, lower, upper):
        # an infinite upper bound gave random starts of inf and nan
        with pytest.raises(FitError, match="finite"):
            FitProblem(base=params, free_names=("k1",),
                       lower=np.array([lower]), upper=np.array([upper]))

    @pytest.mark.parametrize("w_acth, w_cortisol", [
        (-1.0, 1.0), (float("nan"), 1.0), (1.0, float("inf")), (0.0, 0.0)])
    def test_meaningless_weights_refused(self, params, w_acth, w_cortisol):
        # a negative weight rewarded misfit; a nan one made every value PENALTY
        with pytest.raises(FitError, match="weights"):
            FitProblem(base=params, w_acth=w_acth, w_cortisol=w_cortisol)


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

    def test_on_evaluate_error_propagates(self, prob, obs):
        # only the budget's own stop is caught inside fit
        seen = []

        def stop_at_third(x, value):
            seen.append(value)
            if len(seen) == 3:
                raise RuntimeError("stop")

        with pytest.raises(RuntimeError, match="stop"):
            fit(prob, obs, budget=60, n_starts=2, on_evaluate=stop_at_third)
        assert len(seen) == 3

    def test_bad_arguments(self, prob, obs):
        with pytest.raises(FitError):
            fit(prob, obs, budget=0)
        with pytest.raises(FitError):
            fit(prob, obs, n_starts=0)
        with pytest.raises(FitError):
            fit(prob, obs, init=np.array([1.0]))
        with pytest.raises(FitError, match="seed"):
            fit(prob, obs, seed=-1)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_init_refused_before_evaluating(self, prob, obs, params, bad):
        # a nan init spent the whole budget on PENALTY and ended in
        # ModelDomainError
        init = np.array([getattr(params, n) for n in prob.free_names])
        init[2] = bad
        seen = []
        with pytest.raises(FitError, match="init"):
            fit(prob, obs, init=init, budget=5, n_starts=1,
                on_evaluate=lambda x, v: seen.append(v))
        assert seen == []

    def test_unused_starts_are_never_drawn(self, prob, obs):
        # one evaluation runs one start; the other starts must cost nothing
        start = time.perf_counter()
        result = fit(prob, obs, budget=1, n_starts=10**6)
        assert time.perf_counter() - start < 0.5
        assert result.evaluations == 1

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


class TestSmallFitContract:
    """A 50-evaluation fit of k4 and k5 to noisy observations of a perturbed
    truth: every evaluation is reported, the fit reaches the objective's value
    at the truth, and the objective is a pure function of its candidate."""

    CFG = IntegrationConfig(t_end=1440.0, burn_in=2880.0)

    @classmethod
    def problem(cls, seed):
        rng = np.random.default_rng(seed)
        base = ParameterSet()
        f4, f5 = np.exp(0.3 * rng.standard_normal(2))
        truth = replace(base, k4=base.k4 * f4, k5=base.k5 * f5)
        times = np.linspace(0.0, 1440.0, 49)
        times[1:-1] += rng.uniform(-5.0, 5.0, 47)
        clean = sample(integrate(cls.CFG, truth), times)
        noisy = [np.maximum(v * (1.0 + 0.05 * rng.standard_normal(49)), 1e-6)
                 for v in (clean[:, 1], clean[:, 2])]
        obs = ObservationSeries(times=times, acth=noisy[0], cortisol=noisy[1])
        prob = FitProblem(base=base, free_names=("k4", "k5"), integration=cls.CFG)
        return prob, obs, np.array([truth.k4, truth.k5])

    @pytest.mark.parametrize("seed", [1, 2])
    def test_reaches_truth_objective_in_budget(self, seed):
        prob, obs, truth = self.problem(seed)
        target = objective(truth, prob, obs)
        seen = []
        result = fit(prob, obs, budget=50, seed=seed,
                     on_evaluate=lambda x, v: seen.append((x, v)))
        assert len(seen) == result.evaluations == 50
        assert min(v for _, v in seen) <= target
        assert result.objective_value == min(v for _, v in seen)
        fitted = np.array([result.fitted.k4, result.fitted.k5])
        assert np.all(fitted >= prob.lower) and np.all(fitted <= prob.upper)
        # the same candidate gives the same bits after 50 other evaluations
        assert objective(truth, prob, obs) == target
        for x, v in seen[::7]:
            assert objective(x, prob, obs) == v


def _bowl(x, prob, obs):
    # log-space bowl with its minimum at 1.7x the base values
    base = np.array([getattr(prob.base, n) for n in prob.free_names])
    return float(np.sum(np.log(np.asarray(x) / (1.7 * base)) ** 2))


def _bowl_on_plateau(x, prob, obs):
    # the bowl, with every k4 above twice its base value on a PENALTY plateau
    return PENALTY if x[0] > 2.0 * prob.base.k4 else _bowl(x, prob, obs)


def _plateau(x, prob, obs):
    return PENALTY


class TestBudgetTruncation:
    """A budget cuts the unbounded search short and changes nothing else:
    the evaluations, the history and the best candidate are the unbounded
    run's prefix. A start counts as converged only if its simplex passed the
    diameter test with budget left, and the fit reports the flag of the last
    start whose lowest value ties the best one."""

    @staticmethod
    def run(prob, obs, budget, n_starts):
        seen = []
        result = fit(prob, obs, budget=budget, seed=3, n_starts=n_starts,
                     on_evaluate=lambda x, v: seen.append((x, v)))
        return result, seen

    @pytest.mark.parametrize("n_starts", [2, 3])
    @pytest.mark.parametrize("free", [("k4",), ("k4", "k5")])
    @pytest.mark.parametrize("cheap", [_bowl, _bowl_on_plateau, _plateau])
    def test_budget_cuts_the_unbounded_run(self, monkeypatch, obs, cheap, free,
                                           n_starts):
        monkeypatch.setattr(calibration, "objective", cheap)
        prob = FitProblem(free_names=free)
        # ends[k]: evaluations spent by the unbounded run's first k + 1 starts
        ends = [self.run(prob, obs, 10**6, k)[0].evaluations
                for k in range(1, n_starts + 1)]
        full, seen = self.run(prob, obs, 10**6, n_starts)
        assert full.evaluations == ends[-1] and full.converged
        for budget in range(1, 121):
            result, got = self.run(prob, obs, budget, n_starts)
            n = min(budget, full.evaluations)
            assert result.evaluations == len(got) == n
            for (x, v), (x_full, v_full) in zip(got, seen):
                assert np.array_equal(x, x_full) and v == v_full
            assert result.history == tuple(h for h in full.history if h[0] <= n)
            idx, value = result.history[-1]
            assert result.objective_value == value
            fitted = [getattr(result.fitted, name) for name in free]
            assert np.array_equal(fitted, seen[idx - 1][0])
            converged, best, first = False, np.inf, 0
            for end in ends:
                if first >= budget:
                    break
                lowest = min(v for _, v in seen[first:min(end, budget)])
                best = min(best, lowest)
                if lowest <= best:
                    converged = end < budget
                first = end
            assert result.converged == converged


_REFERENCE = ParameterSet()
_SCALED = ("k1", "k2", "k3", "k4", "k5", "h1", "h2", "h3",
           "R_C", "R_A", "R_D", "psi", "xi")
_EXPONENTS = ("alpha", "beta", "gamma", "delta")


@st.composite
def in_domain_parameters(draw):
    """Rates and constants at 0.1x-10x the reference, exponents in [1, 6],
    inhibition levels in [0, 1]."""
    scale = st.floats(min_value=0.1, max_value=10.0)
    values = {name: getattr(_REFERENCE, name) * draw(scale) for name in _SCALED}
    values.update({name: draw(st.floats(min_value=1.0, max_value=6.0))
                   for name in _EXPONENTS})
    values.update({name: draw(st.floats(min_value=0.0, max_value=1.0))
                   for name in ("phi", "rho")})
    return replace(_REFERENCE, **values)


class TestInDomainRobustness:
    """Every in-domain model either integrates or raises a typed error,
    within a bounded number of steps."""

    @settings(max_examples=30, deadline=None)
    @given(p=in_domain_parameters(),
           times=st.lists(st.floats(min_value=0.0, max_value=720.0),
                          min_size=1, max_size=12, unique=True).map(sorted),
           values=st.floats(min_value=0.1, max_value=100.0),
           mode=st.sampled_from(["adaptive", "fixed"]))
    def test_integrate_and_objective_end_typed(self, p, times, values, mode):
        cfg = IntegrationConfig(t0=0.0, t_end=times[-1], burn_in=240.0, mode=mode)
        obs = ObservationSeries(times=np.array(times),
                                acth=np.full(len(times), values),
                                cortisol=np.full(len(times), values / 3.0))
        prob = FitProblem(base=p, free_names=("k4", "k5"), integration=cfg)
        with mock.patch.object(integrator, "_MAX_STEPS", 20_000):
            try:
                traj = integrate(cfg, p, output_times=times)
            except HpaError:
                pass
            else:
                assert traj.states.shape == (len(times), 3)
                assert np.isfinite(traj.states).all()
            value = objective([p.k4, p.k5], prob, obs)
        assert value == PENALTY or np.isfinite(value)
