"""Model building blocks: parameters, Hill response, daylight forcing, rhs."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hpa_dynamics import (Derivatives, HormoneState, PARAMETER_NAMES,
                          ParameterSet, ModelDomainError, daylight, hill, rhs,
                          steady_state_open_loop)
from hpa_dynamics.model import ParameterBatch, _rhs

finite_pos = st.floats(min_value=1e-6, max_value=1e6,
                       allow_nan=False, allow_infinity=False)


class TestParameterSet:
    def test_defaults(self):
        p = ParameterSet()
        assert p.k1 == 0.5703
        assert p.k5 == 0.00430
        assert p.h3 == 0.0105
        assert p.R_C == 1.12
        assert p.alpha == 4.0
        assert p.xi == 2.0
        assert p.rho == 0.304
        assert p.clamp_production is True

    def test_parameter_names_order(self):
        assert len(PARAMETER_NAMES) == 19
        assert PARAMETER_NAMES[:5] == ("k1", "k2", "k3", "k4", "k5")
        assert PARAMETER_NAMES[-1] == "rho"

    def test_replace_checks_the_copy(self):
        p = ParameterSet()
        assert replace(p, k5=0.005).k5 == 0.005
        with pytest.raises(ModelDomainError):
            replace(p, h1=-0.1)

    def test_negative_rate_rejected(self):
        with pytest.raises(ModelDomainError):
            ParameterSet(h1=-0.1)
        with pytest.raises(ModelDomainError):
            ParameterSet(k1=-0.1)

    def test_zero_removal_rejected_zero_production_allowed(self):
        with pytest.raises(ModelDomainError):
            ParameterSet(h2=0.0)
        p = ParameterSet(k1=0.0, k2=0.0, k3=0.0, k4=0.0, k5=0.0)
        assert p.k1 == 0.0

    def test_exponent_below_one_rejected(self):
        with pytest.raises(ModelDomainError):
            ParameterSet(beta=0.5)

    def test_inhibition_levels_bounded(self):
        with pytest.raises(ModelDomainError):
            ParameterSet(phi=1.5)
        with pytest.raises(ModelDomainError):
            ParameterSet(rho=-0.1)

    def test_feedback_free(self):
        p = ParameterSet().feedback_free()
        assert p.is_feedback_free()
        assert p.phi == p.rho == p.psi == p.xi == 0.0
        assert not ParameterSet().is_feedback_free()


class TestHill:
    def test_half_max(self):
        assert hill(1.0, 1.0, 2.0) == pytest.approx(0.5, abs=1e-15)
        assert hill(2.0, 2.0, 7.0) == pytest.approx(0.5, abs=1e-15)

    def test_zero(self):
        assert hill(0.0, 1.12, 3.0) == 0.0
        assert hill(-0.0, 1.12, 3.0) == 0.0

    def test_subnormal(self):
        # K/x overflows: the response is 0, within x/K of the exact value
        x = 5e-324
        assert hill(x, 1.12, 3.0) == 0.0
        assert 0.0 <= hill(x, 1.0, 1.0) <= x
        assert hill(1e-310, 1e-10, 1.0) == pytest.approx(1e-300, rel=1e-12)

    def test_known_value(self):
        # x=2, K=1, n=3 -> 8/9
        assert hill(2.0, 1.0, 3.0) == pytest.approx(8.0 / 9.0, abs=1e-15)

    def test_saturates_to_one(self):
        assert hill(1e12, 1.12, 3.0) == pytest.approx(1.0, abs=1e-12)
        assert hill(1e308, 1.0, 4.0) == 1.0  # overflow path

    def test_domain_errors(self):
        with pytest.raises(ModelDomainError):
            hill(-1.0, 1.0, 2.0)
        with pytest.raises(ModelDomainError):
            hill(1.0, 0.0, 2.0)
        with pytest.raises(ModelDomainError):
            hill(1.0, 1.0, 0.5)

    @given(x=st.floats(min_value=0, max_value=1e6), K=finite_pos,
           n=st.floats(min_value=1, max_value=12))
    def test_bounded(self, x, K, n):
        v = hill(x, K, n)
        assert 0.0 <= v < 1.0 or v == pytest.approx(1.0)

    @given(K=finite_pos, n=st.floats(min_value=1, max_value=12),
           x1=st.floats(min_value=0, max_value=1e6),
           x2=st.floats(min_value=0, max_value=1e6))
    def test_monotone(self, K, n, x1, x2):
        lo, hi = sorted((x1, x2))
        assert hill(lo, K, n) <= hill(hi, K, n) + 1e-15


class TestDaylight:
    def test_exact_values(self):
        assert daylight(0.0) == pytest.approx(0.0306306306306306, abs=1e-12)
        assert daylight(360.0) == pytest.approx(0.8684684684684684, abs=1e-12)
        assert daylight(720.0) == pytest.approx(0.5351351351351351, abs=1e-12)

    def test_periodicity(self):
        rng = np.random.default_rng(42)
        for t in rng.uniform(0.0, 14400.0, size=1000):
            assert abs(daylight(t) - daylight(t + 1440.0)) <= 1e-12

    def test_always_positive(self):
        ts = np.arange(0.0, 1440.0, 0.25)
        vals = np.array([daylight(t) for t in ts])
        assert np.all(vals > 0.0)
        assert vals.min() == pytest.approx(0.009, abs=2e-3)

    def test_morning_peak(self):
        ts = np.arange(0.0, 1440.0, 1.0)
        vals = [daylight(t) for t in ts]
        t_peak = ts[int(np.argmax(vals))]
        assert 240.0 <= t_peak <= 720.0


def feedback_factor(C, p):
    """The cortisol-dependent factor of CRH production, read from ``_rhs``
    as dR of a model with unit basal drive and no CRH or ACTH."""
    return _rhs(0.0, 0.0, 0.0, C, replace(p, k1=1.0, k2=0.0), 0.0)[0]


class TestCrhFeedbackFactor:
    def test_zero_cortisol(self, params):
        assert feedback_factor(0.0, params) == 1.0

    def test_large_cortisol_clamped(self, params):
        assert feedback_factor(1e12, params) == 0.0

    def test_large_cortisol_unclamped(self, params):
        p = replace(params, clamp_production=False)
        # 1 - xi - psi = 1 - 2 - 0.5
        assert feedback_factor(1e12, p) == pytest.approx(-1.5, abs=1e-9)

    def test_feedback_free_is_identity(self, params):
        p = params.feedback_free()
        for c in (0.0, 0.5, 1.12, 10.0):
            assert feedback_factor(c, p) == 1.0

    @given(C=st.floats(min_value=0.0, max_value=1e300) | st.just(math.inf),
           xi=st.floats(min_value=0.0, max_value=5.0),
           psi=st.floats(min_value=0.0, max_value=5.0),
           R_C=st.floats(min_value=1e-3, max_value=1e3),
           beta=st.floats(min_value=1.0, max_value=8.0),
           delta=st.floats(min_value=1.0, max_value=8.0),
           clamp=st.booleans())
    def test_matches_clamped_formula(self, C, xi, psi, R_C, beta, delta, clamp):
        p = ParameterSet(xi=xi, psi=psi, R_C=R_C, beta=beta, delta=delta,
                         clamp_production=clamp)

        def response(n):
            # x^n / (K^n + x^n) as 1 / (1 + (K/x)^n), inf-safe in numpy
            with np.errstate(divide="ignore", over="ignore"):
                return float(1.0 / (1.0 + (R_C / np.float64(C)) ** n))

        factor = 1.0 - xi * response(beta) - psi * response(delta)
        expected = max(factor, 0.0) if clamp else factor
        assert feedback_factor(C, p) == pytest.approx(expected, rel=1e-9,
                                                          abs=1e-9)


class TestRhs:
    def test_pure_decay(self):
        p = ParameterSet(k1=0, k2=0, k3=0, k4=0, k5=0)
        d = rhs(0.0, HormoneState(1.0, 2.0, 4.0), p)
        assert d.dR == pytest.approx(-p.h1 * 1.0, abs=1e-15)
        assert d.dA == pytest.approx(-p.h2 * 2.0, abs=1e-15)
        assert d.dC == pytest.approx(-p.h3 * 4.0, abs=1e-15)

    def test_cortisol_equation_is_linear(self, params):
        # dC = k5*A - h3*C regardless of feedback terms
        d = rhs(100.0, HormoneState(1.0, 3.0, 0.5), params)
        assert d.dC == pytest.approx(params.k5 * 3.0 - params.h3 * 0.5,
                                     abs=1e-15)

    def test_vanishes_at_open_loop_steady_state(self, params):
        p = params.feedback_free()
        for D in (0.0, 0.25, 1.0):
            s = steady_state_open_loop(p, D)
            d = rhs(0.0, s, p, d_const=D)
            assert max(abs(v) for v in d.as_tuple()) <= 1e-12

    def test_translation_consistency(self, params):
        s = HormoneState(0.8, 2.0, 0.9)
        for t in (0.0, 123.0, 717.5, 1439.25):
            assert rhs(t, s, params).as_tuple() == \
                rhs(t + 1440.0, s, params).as_tuple()

    def test_negative_state_rejected(self, params):
        with pytest.raises(ModelDomainError):
            rhs(0.0, HormoneState(-1.0, 1.0, 1.0), params)

    def test_production_nonnegative_at_zero_state(self, params):
        # with clamping, derivatives at the origin are nonnegative
        d = rhs(0.0, HormoneState(0.0, 0.0, 0.0), params)
        assert d.dR >= 0.0 and d.dA >= 0.0 and d.dC >= 0.0

    def test_derivatives_as_tuple(self):
        assert Derivatives(1.0, 2.0, 3.0).as_tuple() == (1.0, 2.0, 3.0)


def random_parameter_set(rng, clamp_production=True):
    """In-domain parameters spread well beyond the reference values."""
    return ParameterSet(
        k1=rng.uniform(0, 2), k2=rng.uniform(0, 2), k3=rng.uniform(0, 2),
        k4=rng.uniform(0, 0.3), k5=rng.uniform(0, 0.02),
        h1=rng.uniform(0.01, 1), h2=rng.uniform(0.005, 0.1),
        h3=rng.uniform(0.001, 0.05), R_C=rng.uniform(0.1, 5),
        R_A=rng.uniform(0.1, 5), R_D=rng.uniform(0.1, 5),
        alpha=rng.uniform(1, 6), beta=rng.uniform(1, 6),
        gamma=rng.uniform(1, 6), delta=rng.uniform(1, 6),
        phi=rng.uniform(0, 1), psi=rng.uniform(0, 2), xi=rng.uniform(0, 3),
        rho=rng.uniform(0, 1), clamp_production=clamp_production)


class TestRhsBatch:
    @pytest.mark.parametrize("clamp_production", [True, False])
    def test_matches_scalar_rhs_per_member(self, clamp_production):
        # 1e-13 relative to the magnitude of the terms each rate sums:
        # production minus removal can cancel far below either term
        rng = np.random.default_rng(7)
        worst = 0.0
        for d_const in (None, 0.0, 0.6):
            for _ in range(20):
                sets = [random_parameter_set(rng, clamp_production)
                        for _ in range(16)]
                R, A, C = rng.uniform(0, 5, size=(3, 16))
                # zero, negative zero and negative Hill arguments: both
                # clamp them to 0
                A[::4], A[1::4], A[2::4] = 0.0, -0.0, -1e-3 * A[2::4]
                C[::5], C[1::5], C[2::5] = 0.0, -0.0, -1e-3 * C[2::5]
                t = rng.uniform(0, 3000)
                with np.errstate(divide="ignore", over="ignore"):
                    got = _rhs(t, R, A, C, ParameterBatch(sets), d_const)
                for i, p in enumerate(sets):
                    # Python floats, as a single run passes them
                    want = _rhs(t, float(R[i]), float(A[i]), float(C[i]), p, d_const)
                    removal = (p.h1 * R[i], p.h2 * A[i], p.h3 * C[i])
                    for j in range(3):
                        scale = abs(want[j] + removal[j]) + abs(removal[j])
                        gap = abs(got[j][i] - want[j])
                        worst = max(worst, gap / scale if gap else 0.0)
        assert worst <= 1e-13

    def test_members_share_clamp_production(self):
        with pytest.raises(ModelDomainError):
            ParameterBatch([ParameterSet(),
                            ParameterSet(clamp_production=False)])

    def test_empty_batch_rejected(self):
        with pytest.raises(ModelDomainError):
            ParameterBatch([])


class TestSteadyStateOpenLoop:
    def test_dark_reference_values(self, params):
        p = params.feedback_free()
        s = steady_state_open_loop(p, 0.0)
        assert s.R == pytest.approx(0.5703 / 0.1732, rel=1e-12)
        assert s.A == pytest.approx(0.0821 * s.R / 0.0315, rel=1e-12)
        assert s.C == pytest.approx(0.00430 * s.A / 0.0105, rel=1e-12)

    def test_all_production_off_gives_origin(self):
        p = ParameterSet(k1=0, k2=0, k3=0, k4=0, k5=0).feedback_free()
        s = steady_state_open_loop(p, 0.0)
        assert s.as_tuple() == (0.0, 0.0, 0.0)

    def test_requires_feedback_free(self, params):
        with pytest.raises(ModelDomainError):
            steady_state_open_loop(params, 0.0)

    def test_daylight_raises_levels(self, params):
        p = params.feedback_free()
        dark = steady_state_open_loop(p, 0.0)
        light = steady_state_open_loop(p, 1.0)
        assert light.R > dark.R
        assert light.A > dark.A
        assert light.C > dark.C


class TestHormoneState:
    def test_non_finite_rejected(self):
        with pytest.raises(ModelDomainError):
            HormoneState(float("nan"), 1.0, 1.0)
        with pytest.raises(ModelDomainError):
            HormoneState(1.0, float("inf"), 1.0)
