"""Integrator correctness: RK4 order, adaptive control, burn-in, sampling."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hpa_dynamics import (HormoneState, IntegrationConfig, IntegrationError,
                          ParameterSet, SamplingError, default_initial_state,
                          integrate, sample, steady_state_open_loop)
from hpa_dynamics import integrator
from hpa_dynamics.integrator import _rk4_step, integrate_batch
from hpa_dynamics.model import _rhs, daylight

SLOW = ParameterSet(h3=0.1 * ParameterSet().h3)   # still drifting after 10 days

DECAY = ParameterSet(k1=0, k2=0, k3=0, k4=0, k5=0)


def fixed_decay(dt, t_end):
    """Fixed-step RK4 of the pure decay from (1, 1, 1), one row per step."""
    cfg = IntegrationConfig(t_end=t_end, burn_in=0, mode="fixed", dt=dt,
                            initial_state=HormoneState(1.0, 1.0, 1.0))
    return integrate(cfg, DECAY).states


class TestStepRk4:
    def test_stability_polynomial_on_linear_decay(self):
        # one RK4 step of exp decay reproduces the degree-4 Taylor polynomial
        R = fixed_decay(10.0, 10.0)[-1][0]
        z = -0.1732 * 10.0
        poly = 1.0 + z + z**2 / 2 + z**3 / 6 + z**4 / 24
        assert R == pytest.approx(poly, abs=1e-12)
        assert poly == pytest.approx(0.276919, abs=1e-6)

    def test_multi_step_decay_accuracy(self):
        R, A, C = fixed_decay(0.5, 10.0)[-1]
        assert R == pytest.approx(math.exp(-1.732), abs=1e-3)
        assert A == pytest.approx(math.exp(-0.315), abs=1e-3)
        assert C == pytest.approx(math.exp(-0.105), abs=1e-3)

    def test_local_error_shrinks_fifth_order(self, params, burned_state):
        # |one dt step - two dt/2 steps| is a local O(dt^5) quantity,
        # so halving dt shrinks it by about 32x
        def step(t, y, dt):
            return _rk4_step(t, y, _rhs(t, *y, params, None), dt, params, None, _rhs)[0]

        def gap(dt):
            y = burned_state.as_tuple()
            full = step(0.0, y, dt)
            h2 = step(dt / 2, step(0.0, y, dt / 2), dt / 2)
            return max(abs(a - b) for a, b in zip(full, h2))

        r1 = gap(8.0) / gap(4.0)
        r2 = gap(4.0) / gap(2.0)
        assert 24.0 < r1 < 40.0
        assert 24.0 < r2 < 40.0

    def test_fixed_point_invariance(self, params):
        p = params.feedback_free()
        s = steady_state_open_loop(p, 0.5)
        cfg = IntegrationConfig(t0=0, t_end=1440, mode="fixed", dt=1.0,
                                burn_in=0, initial_state=s, daylight_const=0.5)
        traj = integrate(cfg, p)
        assert np.max(np.abs(traj.states - np.array(s.as_tuple()))) <= 1e-12


class TestGlobalConvergence:
    def test_rk4_order_on_reference_system(self, params, burned_state):
        ref_cfg = IntegrationConfig(t0=0, t_end=1440, burn_in=0,
                                    initial_state=burned_state,
                                    abs_tol=1e-12, rel_tol=1e-12,
                                    output_dt=1440.0)
        ref = integrate(ref_cfg, params).states[-1]
        errs = {}
        for dt in (4.0, 2.0, 1.0):
            cfg = IntegrationConfig(t0=0, t_end=1440, burn_in=0, mode="fixed",
                                    dt=dt, initial_state=burned_state)
            errs[dt] = np.max(np.abs(integrate(cfg, params).states[-1] - ref))
        order1 = math.log2(errs[4.0] / errs[2.0])
        order2 = math.log2(errs[2.0] / errs[1.0])
        assert 3.5 <= order1 <= 4.5
        assert 3.5 <= order2 <= 4.5

    def test_adaptive_matches_analytic_decay(self):
        s0 = HormoneState(1.0, 1.0, 1.0)
        cfg = IntegrationConfig(t0=0, t_end=100, burn_in=0, initial_state=s0,
                                abs_tol=1e-10, rel_tol=1e-10, output_dt=100.0)
        final = integrate(cfg, DECAY).states[-1]
        expected = [math.exp(-h * 100.0) for h in (0.1732, 0.0315, 0.0105)]
        assert np.max(np.abs(final - expected)) <= 1e-8

    def test_adaptive_vs_fixed_agreement(self, params, one_day_traj):
        cfg = IntegrationConfig(t0=0, t_end=1440, burn_in=14400,
                                mode="fixed", dt=0.1)
        fixed = integrate(cfg, params)
        on_grid = sample(fixed, one_day_traj.times)
        rel = np.max(np.abs(on_grid - one_day_traj.states) / np.abs(on_grid))
        assert rel <= 1e-4


class TestIntegrationConfig:
    def test_invalid_horizon(self):
        with pytest.raises(IntegrationError):
            IntegrationConfig(t0=10.0, t_end=0.0)

    def test_empty_horizon_gives_single_sample(self, params):
        traj = integrate(IntegrationConfig(t0=0, t_end=0, burn_in=0), params)
        assert len(traj.times) == 1
        assert traj.times[0] == 0.0
        assert HormoneState(*traj.states[-1]) == default_initial_state(params, 0.0)

    def test_invalid_settings(self):
        with pytest.raises(IntegrationError):
            IntegrationConfig(dt=0.0)
        with pytest.raises(IntegrationError):
            IntegrationConfig(abs_tol=0.0)
        with pytest.raises(IntegrationError):
            IntegrationConfig(burn_in=-1.0)
        with pytest.raises(IntegrationError):
            IntegrationConfig(mode="euler")

    # abs_tol or rel_tol = inf was accepted, and integrate returned rows off
    # by 4e139 of the reference's peak with burn_in_residual 0
    @pytest.mark.parametrize("name", ["t0", "t_end", "dt", "burn_in", "output_dt",
                                      "abs_tol", "rel_tol"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_rejected(self, name, value):
        with pytest.raises(IntegrationError, match=name):
            IntegrationConfig(**{name: value})

    @pytest.mark.parametrize("settings, name", [
        ({"t0": 1e20, "t_end": 1e20}, "t0"),
        ({"t0": -2.0 ** 33}, "t0"),
        ({"t_end": 2.0 ** 33}, "t_end"),
        ({"t_end": 1e12}, "t_end"),
        ({"burn_in": 1e12}, "burn_in"),
        ({"t0": 1440.0 - 2.0 ** 33, "burn_in": 1440.0}, "burn_in")])
    def test_clock_range_refused(self, settings, name):
        # t0 = t_end = 1e20 returned the open-loop start as the state at t0,
        # with burn_in_days 1 and residual 0: t0 - 1440 rounds to t0, so a
        # burn-in day lasted 0 min; at 1.44e15 the march spun through its
        # whole step budget first
        with pytest.raises(IntegrationError, match=f"^{name} out of the clock's range"):
            IntegrationConfig(**settings)

    def test_clock_range_bound(self):
        # inside the bound floats are finer than the smallest step; at it, not
        bound = integrator._MAX_CLOCK
        inside = math.nextafter(bound, 0.0)
        assert math.ulp(inside) < integrator._MIN_STEP <= math.ulp(bound)
        IntegrationConfig(t0=-inside, t_end=inside, burn_in=0.0)

    def test_late_start_reaches_the_same_attractor(self, params):
        # a million days on the forcing has the same phase
        late = integrate(IntegrationConfig(t0=1.44e9, t_end=1.44e9), params)
        ref = integrate(IntegrationConfig(t0=0.0, t_end=0.0), params)
        assert np.allclose(late.states, ref.states, rtol=1e-9, atol=0.0)

    def test_covering(self):
        cfg = IntegrationConfig(t0=60.0, t_end=600.0)
        assert cfg.covering(np.array([60.0, 300.0, 600.0])) is cfg
        wide = cfg.covering(np.array([600.0, 30.0, 720.0]))
        assert (wide.t0, wide.t_end) == (30.0, 720.0)
        assert wide.burn_in == cfg.burn_in


class TestIntegrate:
    def test_default_output_grid(self, params):
        cfg = IntegrationConfig(t0=0, t_end=120, burn_in=0)
        traj = integrate(cfg, params)
        assert len(traj.times) == 121
        assert traj.times[0] == 0.0 and traj.times[-1] == 120.0
        assert traj.states.shape == (121, 3)

    @pytest.mark.parametrize("mode", ["adaptive", "fixed"])
    def test_default_grid_ends_on_t_end(self, params, mode):
        # the grid's slack once put its last time 5e-7 min past t_end; slow
        # removal keeps a fixed step of 1000 min inside RK4's stability bound
        slow = replace(params, h1=1e-3, h2=1e-3, h3=1e-3)
        cfg = IntegrationConfig(t_end=2999.9999995, output_dt=1000.0, dt=1000.0,
                                burn_in=0, mode=mode)
        traj = integrate(cfg, slow)
        assert list(traj.times) == [0.0, 1000.0, 2000.0, 2999.9999995]
        assert np.array_equal(traj.states[-1], integrate(cfg, slow,
                                                         [cfg.t_end]).states[0])

    def test_fixed_partial_final_step(self, params):
        cfg = IntegrationConfig(t0=0, t_end=10.3, burn_in=0, mode="fixed", dt=2.0)
        traj = integrate(cfg, params)
        assert traj.times[-1] == pytest.approx(10.3)
        assert traj.times[-2] == pytest.approx(10.0)

    def test_explicit_output_times(self, params):
        cfg = IntegrationConfig(t0=0, t_end=100, burn_in=0)
        traj = integrate(cfg, params, output_times=[0.0, 12.5, 99.0])
        assert list(traj.times) == [0.0, 12.5, 99.0]

    def test_output_times_outside_horizon_rejected(self, params):
        cfg = IntegrationConfig(t0=0, t_end=100, burn_in=0)
        with pytest.raises(IntegrationError):
            integrate(cfg, params, output_times=[0.0, 150.0])

    def test_empty_output_times_rejected(self, params):
        # used to return one row labelled t0 holding the state at t_end
        cfg = IntegrationConfig(t_end=600, burn_in=0)
        with pytest.raises(IntegrationError, match="empty"):
            integrate(cfg, params, output_times=[])
        with pytest.raises(IntegrationError, match="empty"):
            integrate_batch(cfg, [params, params], output_times=np.array([]))

    def test_burn_in_idempotent(self, params, one_day_traj):
        cfg = IntegrationConfig(t0=0, t_end=1440, burn_in=28800)
        doubled = integrate(cfg, params)
        rel = np.max(np.abs(doubled.states - one_day_traj.states)
                     / np.abs(one_day_traj.states))
        assert rel <= 1e-6

    def test_nonnegative_trajectory(self, two_day_traj):
        assert np.min(two_day_traj.states) >= -1e-12

    def test_custom_initial_state(self, params):
        s0 = HormoneState(0.1, 0.2, 0.3)
        cfg = IntegrationConfig(t0=0, t_end=0, burn_in=0, initial_state=s0)
        assert HormoneState(*integrate(cfg, params).states[-1]) == s0


# output times closer together than the integrator's minimum step, repeated,
# or within the landing tolerance of each other or of the horizon's ends
LANDING_CASES = [
    [5.0, 5.0 + 1e-7, 10.0],
    [5.0, 5.0, 10.0],
    [0.0, 1e-10, 5.0, 5.0 + 5e-10, 10.0 - 1e-7, 10.0],
    [2.0, 10.0 + 1e-9],
]


@pytest.fixture
def step_budget(monkeypatch):
    """Fail, instead of hanging, once an integration passes 2,000 steps."""
    original = integrator._ck_step
    steps = []

    def counted(*args):
        steps.append(None)
        if len(steps) > 2000:
            raise AssertionError("more than 2000 steps for a 10-min horizon")
        return original(*args)

    monkeypatch.setattr(integrator, "_ck_step", counted)


class TestOutputLanding:
    CFG = IntegrationConfig(t_end=10, burn_in=0)

    @pytest.mark.parametrize("times", LANDING_CASES)
    def test_one_row_per_output_time(self, params, times, step_budget):
        traj = integrate(self.CFG, params, output_times=times)
        assert list(traj.times) == sorted(times)
        assert traj.states.shape == (len(times), 3)

    @pytest.mark.parametrize("times", LANDING_CASES)
    def test_one_row_per_output_time_batch(self, params, times, step_budget):
        sets = [params, replace(params, k5=0.005)]
        for traj, p in zip(integrate_batch(self.CFG, sets, output_times=times), sets):
            assert list(traj.times) == sorted(times)
            assert traj.states.shape == (len(times), 3)
            ref = integrate(self.CFG, p, output_times=times)
            assert np.allclose(traj.states, ref.states, rtol=1e-6, atol=0)

    def test_close_times_get_close_states(self, params, step_budget):
        traj = integrate(self.CFG, params, output_times=[5.0, 5.0 + 1e-7, 10.0])
        assert np.allclose(traj.states[0], traj.states[1], rtol=1e-6, atol=0)


class TestFixedModeOutputTimes:
    """Fixed mode records on the output times without landing on them: its
    RK4 steps stay on the ``dt`` lattice, and a time between two lattice
    points is interpolated within its step."""

    CFG = IntegrationConfig(t_end=60.0, burn_in=1440.0, mode="fixed", dt=0.5)

    def test_returns_exactly_the_given_rows(self, params):
        times = [45.25, 0.0, 12.3, 60.0, 7.5]
        traj = integrate(self.CFG, params, output_times=times)
        assert list(traj.times) == sorted(times)
        assert traj.states.shape == (len(times), 3)

    @pytest.mark.parametrize("times", LANDING_CASES)
    def test_one_row_per_output_time(self, params, times):
        cfg = replace(self.CFG, t_end=10.0, burn_in=0.0)
        traj = integrate(cfg, params, output_times=times)
        assert list(traj.times) == sorted(times)
        assert traj.states.shape == (len(times), 3)

    def test_lattice_rows_equal_the_default_grid(self, params):
        grid = integrate(self.CFG, params)
        times = [0.0, 7.5, 30.0, 42.5, 50.3]
        traj = integrate(self.CFG, params, output_times=times)
        assert list(traj.times) == times
        rows = [int(t / self.CFG.dt) for t in times[:4]]
        assert np.array_equal(traj.states[:4], grid.states[rows])

    def test_off_lattice_row_near_a_landed_step(self, params):
        # the interpolant on the step from 12.0 to 12.5, against a run that
        # ends with a step of 0.3 onto 12.3; the gap is about 1e-11
        traj = integrate(self.CFG, params, output_times=[5.0, 12.3])
        ended = integrate(replace(self.CFG, t_end=12.3), params)
        assert ended.times[-1] == 12.3
        assert np.allclose(traj.states[-1], ended.states[-1], rtol=1e-10, atol=0)

    def test_batch_members_equal_their_own_runs(self, params):
        sets = [params, replace(params, k4=0.09)]
        times = [0.0, 12.3, 33.3, 60.0]
        for traj, p in zip(integrate_batch(self.CFG, sets, output_times=times), sets):
            alone = integrate_batch(self.CFG, [p], output_times=times)[0]
            assert np.array_equal(traj.times, times)
            assert np.array_equal(traj.states, alone.states)
            scalar = integrate(self.CFG, p, output_times=times)
            assert np.allclose(traj.states, scalar.states, rtol=1e-12, atol=0)

    def test_whole_steps_do_not_drift(self, params, monkeypatch):
        # whole steps count from the march's start: a day at dt 0.1 steps
        # from -1440 + i * 0.1, where summing the steps drifts by about 2e-10
        seen = []
        original = integrator._rk4_step

        def spy(t, y, k1, dt, *args):
            seen.append((t, dt))
            return original(t, y, k1, dt, *args)

        monkeypatch.setattr(integrator, "_rk4_step", spy)
        integrate(IntegrationConfig(t_end=0.0, burn_in=1440.0, mode="fixed", dt=0.1),
                  params)
        whole = [(-1440.0 + i * 0.1, 0.1) for i in range(len(seen) - 1)]
        assert len(seen) == 14400 and seen[:-1] == whole

    @pytest.mark.parametrize("settings", [
        {},                              # adaptive: stage 5 is the step's end
        {"mode": "fixed", "dt": 0.1},    # whole steps count from the stretch start
        {"mode": "fixed", "dt": 0.7},    # each day's last step is cut to land
    ])
    def test_each_rhs_call_sees_its_own_forcing(self, params, monkeypatch, settings):
        # a step end's derivative reuses the forcing of the stepper's last
        # stage only where the two times are the same float
        times = []
        original = integrator._rhs

        def spy(t, R, A, C, p, d_const):
            if d_const is not None and d_const != daylight(t):
                times.append(t)
            return original(t, R, A, C, p, d_const)

        monkeypatch.setattr(integrator, "_rhs", spy)
        integrate(IntegrationConfig(t_end=60.0, burn_in=1440.0, **settings), params)
        assert times == []

    @pytest.mark.parametrize("times", [[], [0.0, 61.0], [-1.0, 30.0]])
    def test_empty_or_outside_rejected(self, params, times):
        with pytest.raises(IntegrationError, match="empty|outside"):
            integrate(self.CFG, params, output_times=times)

    def test_step_tries_counted(self, params, monkeypatch):
        monkeypatch.setattr(integrator, "_MAX_STEPS", 10)
        cfg = IntegrationConfig(t_end=10.0, burn_in=0.0, mode="fixed", dt=1.0)
        assert len(integrate(cfg, params).times) == 11
        # rows at the half minutes cut no step: still ten steps
        halves = integrate(cfg, params, output_times=np.arange(0.5, 10.0, 1.0))
        assert len(halves.times) == 10
        # a burn-in of 1440.5 min spans 9.6 steps of 150 min, but its
        # half-minute remainder and its day each end on a cut step: 11 tries
        # (slow removal keeps the 150-min step inside RK4's stability bound)
        p = replace(params.feedback_free(), h1=1e-3, h2=1e-3, h3=1e-3)
        still = replace(cfg, t_end=0.0, burn_in=1440.5, dt=150.0, daylight_const=0.5,
                        initial_state=steady_state_open_loop(p, 0.5))
        with pytest.raises(IntegrationError, match="more than 10 steps"):
            integrate(still, p)


class TestDenseOutput:
    """Neither mode lands a step on an output time: each is interpolated
    within its step, so the steps, and every row, do not depend on the
    output times."""

    WINDOW = 300.0
    # up to ten output times on or off the minute grid, some within
    # _LAND_TOL of another or of the window's ends
    TIMES = st.lists(
        st.one_of(st.floats(0.0, WINDOW), st.integers(0, 300).map(float),
                  st.sampled_from([1e-10, WINDOW - 1e-10, 150.0 + 5e-10])),
        min_size=1, max_size=10)

    @classmethod
    def and_every_minute(cls, times):
        return sorted(times + list(np.arange(0.0, cls.WINDOW + 1.0, 1.0)))

    @staticmethod
    def rows_at(traj, times):
        return traj.states[np.searchsorted(traj.times, times)]

    # fixed mode runs at dt 0.5; a march that landed a step on 12.3 would
    # shift every later step, and so the row at 100
    MODES = st.sampled_from(["adaptive", "fixed"])
    OFF_LATTICE = [12.3, 100.0]

    @settings(max_examples=25, deadline=None)
    @given(times=TIMES, mode=MODES)
    @example(times=OFF_LATTICE, mode="fixed")
    def test_rows_do_not_depend_on_other_times(self, params, burned_state, times, mode):
        cfg = IntegrationConfig(t_end=self.WINDOW, burn_in=0.0, mode=mode, dt=0.5,
                                initial_state=burned_state)
        more = self.and_every_minute(times)
        traj = integrate(cfg, params, output_times=times)
        assert np.array_equal(traj.states, self.rows_at(integrate(cfg, params, more),
                                                        traj.times))

    @settings(max_examples=10, deadline=None)
    @given(times=TIMES, mode=MODES)
    @example(times=OFF_LATTICE, mode="fixed")
    def test_batch_rows_do_not_depend_on_other_times(self, params, burned_state, times,
                                                     mode):
        cfg = IntegrationConfig(t_end=self.WINDOW, burn_in=0.0, mode=mode, dt=0.5,
                                initial_state=burned_state)
        sets = [params, replace(params, k4=0.09)]
        more = self.and_every_minute(times)
        for few, many in zip(integrate_batch(cfg, sets, output_times=times),
                             integrate_batch(cfg, sets, output_times=more)):
            assert np.array_equal(few.states, self.rows_at(many, few.times))

    def test_one_day_takes_free_steps(self, params, burned_state, monkeypatch):
        # landing on every output minute took 1,440 steps
        accepted = []
        original = integrator._control

        def counted(h, err_norm, err_prev):
            accepted.append(err_norm <= 1.0)
            return original(h, err_norm, err_prev)

        monkeypatch.setattr(integrator, "_control", counted)
        traj = integrate(IntegrationConfig(burn_in=0.0, initial_state=burned_state),
                         params)
        assert len(traj.times) == 1441
        assert sum(accepted) <= 450

    def test_default_grid_matches_fine_rk4(self, params, burned_state):
        cfg = IntegrationConfig(burn_in=0.0, initial_state=burned_state)
        traj = integrate(cfg, params)
        ref = integrate(replace(cfg, mode="fixed", dt=1.0 / 16.0), params,
                        output_times=traj.times)
        assert off_by(traj, ref) <= 5e-8

    def test_non_finite_end_derivative_raises(self, params, monkeypatch):
        # the derivative at the window's last step end only feeds the
        # interpolant: a non-finite one must not leak into the rows (the
        # grid is fine enough to put rows inside the last step)
        cfg = IntegrationConfig(t_end=60.0, burn_in=0.0, output_dt=1e-3)
        last = tuple(integrate(cfg, params).states[-1])

        def overflowing(t, R, A, C, p, d_const=None):
            if (R, A, C) == last:
                return (math.inf, math.inf, math.inf)
            return _rhs(t, R, A, C, p, d_const)

        monkeypatch.setattr(integrator, "_rhs", overflowing)
        with pytest.raises(IntegrationError, match="non-finite state"):
            integrate(cfg, params)


@pytest.mark.parametrize("mode", ["adaptive", "fixed"])
def test_nan_output_time_rejected(params, mode):
    # used to give the nan, and every later time, the state at t_end
    cfg = IntegrationConfig(t_end=100.0, burn_in=0.0, mode=mode)
    with pytest.raises(IntegrationError, match="outside"):
        integrate(cfg, params, output_times=[0.0, math.nan, 10.0])


class TestRk4StabilityBound:
    """Fixed mode refuses a dt past RK4's stability bound, dt * max(h1, h2,
    h3) > 2.785: with h1 = 10 and dt 0.5, 30 min used to return R = 6.9e63
    (adaptive: 0.06)."""

    CFG = IntegrationConfig(t_end=30.0, burn_in=0.0, mode="fixed", dt=0.5)

    def test_refused(self, params):
        with pytest.raises(IntegrationError, match=r"dt = 0\.5 .* bound 2\.785"):
            integrate(self.CFG, replace(params, h1=10.0))

    def test_batch_bounded_by_its_fastest_member(self, params):
        with pytest.raises(IntegrationError, match="stability bound"):
            integrate_batch(self.CFG, [params, replace(params, h2=10.0)])

    def test_inside_the_bound_runs(self, params):
        cfg = replace(self.CFG, dt=2.78)
        assert np.all(np.isfinite(integrate(cfg, replace(params, h1=1.0)).states))

    def test_adaptive_mode_unaffected(self, params):
        cfg = replace(self.CFG, mode="adaptive")
        assert np.all(np.isfinite(integrate(cfg, replace(params, h1=10.0)).states))


class TestIntegrateBatch:
    @pytest.mark.parametrize("mode", ["adaptive", "fixed"])
    def test_members_match_scalar_integrate(self, params, mode):
        rng = np.random.default_rng(3)
        sets = [params] + [
            replace(params, **{name: getattr(params, name) * rng.uniform(0.7, 1.3)})
            for name in ("k1", "k4", "R_C", "beta", "xi", "h3")]
        cfg = IntegrationConfig(t0=0, t_end=720, burn_in=1440, mode=mode, dt=1.0)
        trajs = integrate_batch(cfg, sets)
        assert len(trajs) == len(sets)
        for traj, p in zip(trajs, sets):
            ref = integrate(cfg, p)
            assert traj.params is p
            assert np.array_equal(traj.times, ref.times)
            assert np.max(np.abs(traj.states - ref.states) / np.abs(ref.states)) <= 1e-6

    def test_shared_initial_state(self, params):
        s0 = HormoneState(0.1, 0.2, 0.3)
        cfg = IntegrationConfig(t0=0, t_end=0, burn_in=0, initial_state=s0)
        trajs = integrate_batch(cfg, [params, replace(params, k1=1.0)])
        assert [HormoneState(*traj.states[-1]) for traj in trajs] == [s0, s0]

    def test_zero_acth_warns_nothing(self, params):
        # at A = 0 a Hill term divides by zero by design; the batch silences
        # numpy's warning, which the suite's filterwarnings turns into a failure
        s0 = HormoneState(1.0, 0.0, 1.0)
        cfg = IntegrationConfig(t0=0, t_end=60, burn_in=0, initial_state=s0)
        for traj in integrate_batch(cfg, [params, replace(params, k1=1.0)]):
            assert np.isfinite(traj.states).all()


class TestStepBudget:
    """Every integration is refused, or ends, within integrator._MAX_STEPS
    steps per march: no input makes it run or allocate without bound."""

    @pytest.mark.parametrize("settings", [
        {"mode": "fixed", "dt": 1e-4},                  # window
        {"mode": "fixed", "burn_in": 1e9},              # burn-in
        {"mode": "fixed", "dt": 1e-320},                # step count overflows
        {"burn_in": 1e9},                               # adaptive burn-in
        {"t_end": 1e9},                                 # adaptive window
        {"output_dt": 1e-9},                            # 1.4e12 output points
    ])
    def test_refused_before_any_step(self, params, settings, monkeypatch):
        def no_steps(*args):
            raise AssertionError("a step was taken")

        monkeypatch.setattr(integrator, "_rk4_step", no_steps)
        monkeypatch.setattr(integrator, "_ck_step", no_steps)
        cfg = IntegrationConfig(**{"t_end": 1440.0, **settings})
        with pytest.raises(IntegrationError, match=str(integrator._MAX_STEPS)):
            integrate(cfg, params)
        with pytest.raises(IntegrationError, match=str(integrator._MAX_STEPS)):
            integrate_batch(cfg, [params, params])

    def test_too_many_output_times_refused(self, params, monkeypatch):
        monkeypatch.setattr(integrator, "_MAX_STEPS", 10)
        cfg = IntegrationConfig(t_end=100, burn_in=0)
        with pytest.raises(IntegrationError, match="output times"):
            integrate(cfg, params, output_times=np.linspace(0, 100, 11))

    @pytest.mark.parametrize("burn_in, t_end", [(1440.0, 0.0), (0.0, 1440.0)])
    def test_adaptive_march_stops_at_budget(self, params, monkeypatch, burn_in, t_end):
        # a day takes about 400 free steps; allow 100
        monkeypatch.setattr(integrator, "_MAX_STEPS", 100)
        tried = []
        original = integrator._ck_step

        def counted(*args):
            tried.append(None)
            return original(*args)

        monkeypatch.setattr(integrator, "_ck_step", counted)
        cfg = IntegrationConfig(burn_in=burn_in, t_end=t_end, output_dt=1440.0)
        with pytest.raises(IntegrationError, match="more than 100 steps"):
            integrate(cfg, params)
        assert len(tried) == 100

    def test_within_budget_unaffected(self, params, monkeypatch):
        monkeypatch.setattr(integrator, "_MAX_STEPS", 10)
        cfg = IntegrationConfig(mode="fixed", dt=1.0, t_end=10.0, burn_in=10.0)
        assert len(integrate(cfg, params).times) == 11

    def test_output_grid_at_the_bound(self, monkeypatch):
        # exactly _MAX_STEPS intervals is allowed, as fixed mode allows
        # _MAX_STEPS steps; a shorter last interval counts as one more
        monkeypatch.setattr(integrator, "_MAX_STEPS", 10)
        assert integrator._output_grid(0.0, 10.0, 1.0) == [float(i) for i in range(11)]
        assert len(integrator._output_grid(0.0, 1.0, 0.1)) == 11
        assert integrator._output_grid(0.0, 9.5, 1.0)[-3:] == [8.0, 9.0, 9.5]

    @pytest.mark.parametrize("t_end, spacing", [
        (11.0, 1.0), (1.1, 0.1), (10.5, 1.0), (1e300, 1e-300)])
    def test_output_grid_past_the_bound(self, monkeypatch, t_end, spacing):
        monkeypatch.setattr(integrator, "_MAX_STEPS", 10)
        with pytest.raises(IntegrationError, match="output grid of more than 10 intervals"):
            integrator._output_grid(0.0, t_end, spacing)


def full_march(cfg, p):
    """``integrate`` with the whole burn-in marched as one stretch and no
    convergence check: the reference for the day-at-a-time burn-in."""
    y = default_initial_state(p, cfg.t0 - cfg.burn_in).as_tuple()
    *_, y = integrator._march(cfg.t0 - cfg.burn_in, [cfg.t0], y, p, cfg)
    return integrate(replace(cfg, burn_in=0.0, initial_state=HormoneState(*y)), p)


def off_by(traj, ref):
    """Largest state difference, relative to each component's peak."""
    return np.max(np.abs(traj.states - ref.states) / np.max(np.abs(ref.states), axis=0))


class TestConvergedBurnIn:
    """The burn-in marches whole days, stops once a day changes no component
    beyond the tolerances, and treats ``burn_in`` as its cap."""

    def test_default_run_stops_early_on_the_attractor(self, params):
        cfg = IntegrationConfig()
        traj = integrate(cfg, params)
        assert 1 <= traj.burn_in_days <= 3
        assert traj.burn_in_residual <= 1.0
        assert off_by(traj, full_march(cfg, params)) <= 1e-9

    def test_slow_regime_reaches_the_cap_unconverged(self):
        traj = integrate(IntegrationConfig(t_end=0.0), SLOW)
        assert traj.burn_in_days == 10
        assert traj.burn_in_residual > 1.0

    @pytest.mark.parametrize("burn_in", [2000.0, 4 * 1440.0 + 2000.0])
    def test_partial_day_burn_in_stays_in_phase(self, params, burn_in):
        # the 560-min remainder goes first, so the early stop lands on t0 - k*1440
        traj = integrate(IntegrationConfig(burn_in=burn_in, t_end=600.0,
                                           output_dt=10.0), params)
        ref = full_march(IntegrationConfig(burn_in=30 * 1440.0, t_end=600.0,
                                           output_dt=10.0), params)
        assert traj.burn_in_days <= 3
        assert off_by(traj, ref) <= 1e-6

    def test_frozen_daylight_finds_the_fixed_point(self, params):
        cfg = IntegrationConfig(t_end=0.0, daylight_const=0.5)
        traj = integrate(cfg, params)
        assert traj.burn_in_days < 10 and traj.burn_in_residual <= 1.0
        y = traj.states[-1]
        assert np.all(np.abs(_rhs(0.0, *y, params, 0.5)) <= 1e-8 * np.abs(y))
        assert np.max(np.abs(y - full_march(cfg, params).states[-1]) / y) <= 1e-8

    def test_batch_marches_until_every_member_converged(self, params):
        cfg = IntegrationConfig(t_end=0.0, burn_in=4 * 1440.0)
        fast, slow = integrate_batch(cfg, [params, SLOW])
        assert fast.burn_in_days == slow.burn_in_days == 4
        assert fast.burn_in_residual == slow.burn_in_residual > 1.0
        alone = integrate(cfg, params)
        assert alone.burn_in_days < 10
        assert np.max(np.abs(fast.states - alone.states) / alone.states) <= 1e-9
        pair = integrate_batch(cfg, [params, replace(params, k4=0.09)])
        assert all(t.burn_in_days <= 3 for t in pair)

    def test_fixed_mode_stops_early_bit_identical(self, params):
        cfg = IntegrationConfig(t_end=60.0, mode="fixed", dt=0.5)
        traj = integrate(cfg, params)
        assert traj.burn_in_days < 10 and traj.burn_in_residual <= 1.0
        assert np.array_equal(traj.states, full_march(cfg, params).states)

    def test_no_whole_day(self, params):
        traj = integrate(IntegrationConfig(t_end=0.0, burn_in=720.0), params)
        assert traj.burn_in_days == 0 and math.isnan(traj.burn_in_residual)
        assert np.array_equal(traj.states,
                              full_march(IntegrationConfig(t_end=0.0, burn_in=720.0),
                                         params).states)

    def test_trajectory_defaults(self, params):
        traj = integrator.Trajectory(np.zeros(1), np.zeros((1, 3)), params)
        assert traj.burn_in_days == 0 and math.isnan(traj.burn_in_residual)

    def test_one_step_budget_for_the_whole_burn_in(self, params, monkeypatch):
        # the slow regime tries 1,958 steps over its 10 days, fewer than
        # 1,000 in any one day: the days share one budget
        monkeypatch.setattr(integrator, "_MAX_STEPS", 1000)
        with pytest.raises(IntegrationError, match="more than 1000 steps"):
            integrate(IntegrationConfig(t_end=0.0), SLOW)


class TestSeededBatch:
    """``integrate_batch``'s ``near``: a converged run over the same
    one-period window seeds the batch, which burns in one day and checks
    its recorded day; any other ``near`` leaves the batch cold."""

    CFG = IntegrationConfig(output_dt=10.0)
    GRID = np.arange(0.0, 1441.0, 10.0)

    @pytest.fixture(scope="class")
    def sets(self):
        p = ParameterSet()
        return [p, replace(p, k4=1.001 * p.k4), replace(p, k5=0.999 * p.k5)]

    @pytest.fixture(scope="class")
    def near(self):
        return integrate(self.CFG, ParameterSet(), output_times=self.GRID)

    @pytest.fixture(scope="class")
    def settled(self, sets, near):
        return integrate_batch(self.CFG, sets, output_times=self.GRID, near=near)

    def test_settled_batch_is_the_explicit_seeded_run(self, sets, near, settled):
        seeded = replace(self.CFG, initial_state=HormoneState(*near.states[0]),
                         burn_in=1440.0)
        explicit = integrate_batch(seeded, sets, output_times=self.GRID)
        for got, ref in zip(settled, explicit):
            assert np.array_equal(got.states, ref.states)
            assert got.burn_in_days == ref.burn_in_days == 1
            assert got.burn_in_residual <= 1.0

    @pytest.mark.parametrize("config, near_config", [
        # an unconverged run: one burn-in day from the open-loop state
        (CFG, replace(CFG, burn_in=1440.0)),
        # a converged run, but on a window short of a day
        (replace(CFG, t_end=720.0), replace(CFG, t_end=720.0)),
        # a converged run of another window
        (CFG, replace(CFG, t0=60.0, t_end=1500.0))],
        ids=["unconverged", "short-window", "other-t0"])
    def test_unusable_near_runs_cold(self, sets, config, near_config):
        near = integrate(near_config, ParameterSet())
        got = integrate_batch(config, sets, near=near)
        cold = integrate_batch(config, sets)
        for a, b in zip(got, cold):
            assert np.array_equal(a.states, b.states)
            assert (a.burn_in_days, a.burn_in_residual) == (
                b.burn_in_days, b.burn_in_residual)

    def test_unsettled_check_day_marches_on(self, sets, near, settled):
        # seeded from ten times near's state at t0, the batch's first
        # recorded day changes its members beyond the tolerances
        far = replace(near, states=10.0 * near.states)
        capped = replace(self.CFG, burn_in=1440.0)
        for traj in integrate_batch(capped, sets, output_times=self.GRID, near=far):
            assert traj.burn_in_days == 1 and traj.burn_in_residual > 1.0
        later = integrate_batch(self.CFG, sets, output_times=self.GRID, near=far)
        for got, ref in zip(later, settled):
            assert got.burn_in_days == 2 and got.burn_in_residual <= 1.0
            assert off_by(got, ref) <= 1e-7

    def test_grid_off_the_window_ends_runs_cold(self, sets, near):
        # the check day compares the first and last recorded states, so a
        # grid that misses t0 or t_end cannot seed the batch
        for grid in (self.GRID[1:], self.GRID[:-1]):
            got = integrate_batch(self.CFG, sets, output_times=iter(grid), near=near)
            cold = integrate_batch(self.CFG, sets, output_times=grid)
            for a, b in zip(got, cold):
                assert np.array_equal(a.states, b.states)
                assert a.burn_in_days == b.burn_in_days > 1

    def test_never_settled_stops_at_the_cap(self, sets, near, monkeypatch):
        monkeypatch.setattr(integrator, "_day_change", lambda *args: math.inf)
        cfg = replace(self.CFG, burn_in=3 * 1440.0)
        for traj in integrate_batch(cfg, sets, output_times=self.GRID, near=near):
            assert traj.burn_in_days == 3 and traj.burn_in_residual > 1.0


class TestSample:
    def test_exact_nodes_and_midpoints(self, params):
        cfg = IntegrationConfig(t0=0, t_end=10, burn_in=0)
        traj = integrate(cfg, params)
        got = sample(traj, [3.0])
        assert np.allclose(got[0], traj.states[3], atol=0)
        mid = sample(traj, [3.5])
        assert np.allclose(mid[0], 0.5 * (traj.states[3] + traj.states[4]),
                           atol=1e-15)

    def test_shape(self, one_day_traj):
        assert sample(one_day_traj, [0.0, 100.0, 720.0]).shape == (3, 3)

    def test_out_of_range_rejected(self, one_day_traj):
        with pytest.raises(SamplingError):
            sample(one_day_traj, [-5.0])
        with pytest.raises(SamplingError):
            sample(one_day_traj, [1441.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_time_rejected(self, one_day_traj, bad):
        # a nan passed both range tests and gave a nan row
        with pytest.raises(SamplingError):
            sample(one_day_traj, [0.0, bad])
