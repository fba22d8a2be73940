"""MAPE/RMSE metrics and trajectory scoring."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hpa_dynamics import (FitScore, MetricError, ObservationSeries, mape,
                          rmse, score_fit)

series = st.lists(st.floats(min_value=0.1, max_value=1e4,
                            allow_nan=False, allow_infinity=False),
                  min_size=1, max_size=30)


class TestMape:
    def test_exact_match_is_zero(self):
        assert mape([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_known_value(self):
        # |1.1-1|/1 and |1.8-2|/2 -> mean(10%, 10%) = 10
        assert mape([1.1, 1.8], [1.0, 2.0]) == pytest.approx(10.0, abs=1e-12)

    def test_uniform_overshoot(self):
        actual = [1.0, 2.0, 5.0]
        predicted = [1.1, 2.2, 5.5]
        assert mape(predicted, actual) == pytest.approx(10.0, abs=1e-12)

    def test_zero_actual_rejected(self):
        with pytest.raises(MetricError):
            mape([1.0], [0.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(MetricError):
            mape([1.0, 2.0], [1.0])
        with pytest.raises(MetricError):
            mape([], [])

    def test_asymmetric(self):
        # MAPE normalizes by the actual, so swapping arguments changes it
        assert mape([2.0], [1.0]) == pytest.approx(100.0)
        assert mape([1.0], [2.0]) == pytest.approx(50.0)

    @given(a=series)
    def test_scale_invariance(self, a):
        a = np.array(a)
        p = 1.07 * a
        assert mape(p, a) == pytest.approx(mape(10.0 * p, 10.0 * a), rel=1e-9)

    @given(a=series, seed=st.integers(0, 2**16))
    def test_permutation_invariance(self, a, seed):
        a = np.array(a)
        p = a * 1.3
        perm = np.random.default_rng(seed).permutation(len(a))
        assert mape(p, a) == pytest.approx(mape(p[perm], a[perm]), rel=1e-12)

    @given(a=series)
    def test_nonnegative(self, a):
        a = np.array(a)
        assert mape(a + 0.05, a) >= 0.0


class TestRmse:
    def test_exact_match_is_zero(self):
        assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_known_value(self):
        # errors 3 and 4 -> sqrt((9+16)/2) = 3.5355...
        assert rmse([4.0, 6.0], [1.0, 2.0]) == pytest.approx(
            np.sqrt(12.5), abs=1e-12)

    def test_constant_offset(self):
        assert rmse([2.0, 3.0, 4.0], [1.0, 2.0, 3.0]) == pytest.approx(1.0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(MetricError):
            rmse([1.0], [1.0, 2.0])

    @given(a=series, b=series)
    def test_symmetric(self, a, b):
        n = min(len(a), len(b))
        a, b = np.array(a[:n]), np.array(b[:n])
        assert rmse(a, b) == pytest.approx(rmse(b, a), rel=1e-12)

    @given(a=series, c=st.floats(min_value=0.1, max_value=100))
    def test_absolute_scale(self, a, c):
        a = np.array(a)
        p = a + 1.0
        assert rmse(c * p, c * a) == pytest.approx(c * rmse(p, a), rel=1e-9)


class TestObservationSeries:
    def test_requires_a_hormone(self):
        with pytest.raises(MetricError):
            ObservationSeries(times=np.array([0.0, 1.0]))

    @pytest.mark.parametrize("hormone", ["acth", "cortisol"])
    def test_empty_rejected(self, hormone):
        # used to be accepted: objective then raised a raw ValueError from
        # IntegrationConfig.covering (zero-size array to reduction operation)
        with pytest.raises(MetricError, match="at least one observation time"):
            ObservationSeries(times=[], **{hormone: []})

    def test_length_mismatch(self):
        with pytest.raises(MetricError):
            ObservationSeries(times=np.array([0.0, 1.0]),
                              cortisol=np.array([1.0]))

    def test_nonpositive_rejected(self):
        with pytest.raises(MetricError):
            ObservationSeries(times=np.array([0.0]), acth=np.array([0.0]))

    def test_decreasing_times_rejected(self):
        with pytest.raises(MetricError):
            ObservationSeries(times=np.array([1.0, 0.0]),
                              cortisol=np.array([1.0, 1.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_time_rejected(self, bad):
        # used to be accepted: every fit objective was then the penalty,
        # and score_fit gave nan MAPE and RMSE
        with pytest.raises(MetricError, match="finite"):
            ObservationSeries(times=[0.0, bad, 60.0], cortisol=[5.0, 6.0, 7.0])

    def test_len(self):
        obs = ObservationSeries(times=np.array([0.0, 30.0]),
                                cortisol=np.array([1.0, 2.0]))
        assert len(obs) == 2


class TestScoreFit:
    def test_self_consistency(self, one_day_traj):
        times = np.arange(0.0, 1441.0, 60.0)
        obs = ObservationSeries(times=times,
                                acth=one_day_traj.acth[::60],
                                cortisol=one_day_traj.cortisol[::60])
        score = score_fit(one_day_traj, obs)
        assert score.mape_acth == pytest.approx(0.0, abs=1e-12)
        assert score.mape_cortisol == pytest.approx(0.0, abs=1e-12)
        assert score.rmse_acth == pytest.approx(0.0, abs=1e-12)
        assert score.rmse_cortisol == pytest.approx(0.0, abs=1e-12)

    def test_uniform_offset_gives_known_mape(self, one_day_traj):
        times = np.arange(0.0, 1441.0, 120.0)
        obs = ObservationSeries(times=times,
                                cortisol=one_day_traj.cortisol[::120] / 1.1)
        score = score_fit(one_day_traj, obs)
        assert score.mape_cortisol == pytest.approx(10.0, abs=1e-9)
        assert score.mape_acth is None
        assert score.rmse_acth is None

    def test_partial_series_acth_only(self, one_day_traj):
        times = np.array([0.0, 720.0])
        obs = ObservationSeries(times=times, acth=one_day_traj.acth[[0, 720]])
        score = score_fit(one_day_traj, obs)
        assert score.mape_acth == pytest.approx(0.0, abs=1e-12)
        assert score.mape_cortisol is None

    def test_fit_score_defaults(self):
        s = FitScore()
        assert s.mape_acth is None and s.rmse_cortisol is None
