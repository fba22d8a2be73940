"""Core HPA-axis model: parameters, state, forcing and the ODE right-hand side.

State variables are R (CRH), A (ACTH) and C (cortisol). Time is measured in
minutes since midnight throughout; the daylight forcing has a 1440-min period.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ModelDomainError

#: Canonical ordering of the 19 scalar model parameters (used by the
#: sensitivity ranking and by serialization).
PARAMETER_NAMES = (
    "k1", "k2", "k3", "k4", "k5",
    "h1", "h2", "h3",
    "R_C", "R_A", "R_D",
    "alpha", "beta", "gamma", "delta",
    "phi", "psi", "xi", "rho",
)


@dataclass(frozen=True)
class ParameterSet:
    """All rate constants, saturation constants, Hill exponents and
    inhibition levels of the model.

    Defaults are the published reference values; ``delta`` has no published
    value and defaults to ``beta``'s scale (3). ``clamp_production`` clamps
    the CRH production factor at zero so concentrations stay nonnegative.
    """

    k1: float = 0.5703   # baseline CRH stimulation
    k2: float = 0.4342   # circadian CRH stimulation gain
    k3: float = 0.2166   # AVP-pathway ACTH stimulation gain
    k4: float = 0.0821   # CRH -> ACTH stimulation rate (1/min)
    k5: float = 0.00430  # ACTH -> cortisol stimulation rate
    h1: float = 0.1732   # CRH removal rate (1/min)
    h2: float = 0.0315   # ACTH removal rate (1/min)
    h3: float = 0.0105   # cortisol removal rate (1/min)
    R_C: float = 1.12    # cortisol half-max constant
    R_A: float = 0.78    # ACTH half-max constant
    R_D: float = 1.3     # daylight/AVP half-max constant
    alpha: float = 4.0
    beta: float = 3.0
    gamma: float = 3.0
    delta: float = 3.0
    phi: float = 0.160   # inhibition of CRH by ACTH
    psi: float = 0.5     # hippocampal MR-pathway coefficient
    xi: float = 2.0      # net coefficient of the C^beta term in the CRH eq.
    rho: float = 0.304   # inhibition of ACTH by cortisol
    clamp_production: bool = True

    def __post_init__(self):
        # production rates may be zero (switched-off pathways are useful in
        # decay tests); removal rates and saturation constants must not be
        for name in ("k1", "k2", "k3", "k4", "k5"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0):
                raise ModelDomainError(f"{name} must be >= 0, got {v}")
        for name in ("h1", "h2", "h3", "R_C", "R_A", "R_D"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ModelDomainError(f"{name} must be strictly positive, got {v}")
        for name in ("alpha", "beta", "gamma", "delta"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 1):
                raise ModelDomainError(f"{name} must be >= 1, got {v}")
        for name in ("phi", "rho"):
            v = getattr(self, name)
            if not (0 <= v <= 1):
                raise ModelDomainError(f"{name} must lie in [0, 1], got {v}")
        for name in ("psi", "xi"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0):
                raise ModelDomainError(f"{name} must be >= 0, got {v}")

    def feedback_free(self) -> "ParameterSet":
        """Copy with all feedback coefficients zeroed (open-loop model)."""
        return replace(self, phi=0.0, rho=0.0, psi=0.0, xi=0.0)

    def is_feedback_free(self) -> bool:
        return self.phi == self.rho == self.psi == self.xi == 0.0


class ParameterBatch:
    """The parameters of N models, one ``(N,)`` array per name in
    ``PARAMETER_NAMES``, for integrating all N models as one batch.

    Each member is a validated ``ParameterSet``; all share
    ``clamp_production``.
    """

    def __init__(self, sets):
        self.sets = tuple(sets)
        if not self.sets:
            raise ModelDomainError("a parameter batch needs at least one member")
        clamp = {s.clamp_production for s in self.sets}
        if len(clamp) != 1:
            raise ModelDomainError("batch members must share clamp_production")
        self.clamp_production = clamp.pop()
        for name in PARAMETER_NAMES:
            setattr(self, name, np.array([getattr(s, name) for s in self.sets]))


@dataclass(frozen=True)
class HormoneState:
    """Instantaneous concentrations of CRH (R), ACTH (A) and cortisol (C)."""

    R: float
    A: float
    C: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.R, self.A, self.C)):
            raise ModelDomainError(f"non-finite hormone state {self!r}")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.R, self.A, self.C)


@dataclass(frozen=True)
class Derivatives:
    """Rates of change of the three hormone concentrations (units/min)."""

    dR: float
    dA: float
    dC: float

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.dR, self.dA, self.dC)


def hill(x: float, K: float, n: float) -> float:
    """Saturating Hill response x^n / (K^n + x^n).

    Monotone nondecreasing in x, zero at x = 0 and approaching 1 as x grows.
    """
    if not (x >= 0):
        raise ModelDomainError(f"hill: x must be >= 0, got {x}")
    if not (K > 0):
        raise ModelDomainError(f"hill: K must be > 0, got {K}")
    if not (n >= 1):
        raise ModelDomainError(f"hill: n must be >= 1, got {n}")
    return 1.0 / _hill_denominator(x, K, n)


def _hill_denominator(x, K, n):
    """1 + (K/x)^n, the reciprocal of hill(x, K, n), for floats or arrays.

    x = 0 or a tiny x gives inf, a response of exactly 0: floats catch the
    division and overflow errors, arrays only warn (batch callers silence
    numpy's divide and overflow warnings).
    """
    try:
        return 1.0 + (K / x) ** n
    except (ZeroDivisionError, OverflowError):
        return math.inf


def daylight(t: float) -> float:
    """Circadian daylight forcing, periodic with period 1440 min.

    Positive for all t (minimum about 0.009 near 11 p.m.), peaking in the
    morning hours.
    """
    # reduce first so equal clock times give bit-identical forcing
    w = math.pi * math.fmod(t, 1440.0) / 720.0
    return (3.9 * math.sin(w) - math.sin(2.0 * w)
            - 1.3 * math.cos(2.0 * w) - 2.8 * math.cos(w)) / 11.1 + 0.4


def _rhs(t: float, R, A, C, p, d_const: float | None = None):
    """The ODE right-hand side, for one model or a batch.

    With a ``ParameterSet``, R, A, C and the three returned rates are
    floats; with a ``ParameterBatch`` they are ``(N,)`` arrays, member i
    using parameter set i. Each coefficient * hill(x, K, n) is written
    coefficient / (1 + (K/x)^n) to save array operations. ``d_const``
    freezes the daylight forcing at a constant (used for fixed-point
    analysis); None means the periodic forcing.
    """
    D = daylight(t) if d_const is None else d_const
    # Hill arguments clamped at 0 (x * (x > 0) is max(x, 0) for floats and
    # arrays): embedded solver trial stages may probe slightly negative
    # states, where fractional exponents are undefined.
    C_h = C * (C > 0.0)
    c_beta = _hill_denominator(C_h, p.R_C, p.beta)
    feedback = 1.0 - p.xi / c_beta - p.psi / _hill_denominator(C_h, p.R_C, p.delta)
    if p.clamp_production:
        feedback = feedback * (feedback > 0.0)
    dR = ((p.k1 + D * p.k2)
          * (1.0 - p.phi / _hill_denominator(A * (A > 0.0), p.R_A, p.alpha))
          * feedback
          - p.h1 * R)
    dA = ((p.k3 / _hill_denominator(D, p.R_D, p.gamma) + p.k4 * R)
          * (1.0 - p.rho / c_beta)
          - p.h2 * A)
    dC = p.k5 * A - p.h3 * C
    return (dR, dA, dC)


def rhs(t: float, s: HormoneState, p: ParameterSet,
        d_const: float | None = None) -> Derivatives:
    """Right-hand side of the three coupled hormone ODEs."""
    if s.R < 0 or s.A < 0 or s.C < 0:
        raise ModelDomainError(f"negative hormone state {s!r}")
    dR, dA, dC = _rhs(t, s.R, s.A, s.C, p, d_const)
    if not all(math.isfinite(v) for v in (dR, dA, dC)):
        raise ModelDomainError(f"non-finite derivatives at t={t}")
    return Derivatives(dR, dA, dC)


def steady_state_open_loop(p: ParameterSet, D_const: float = 0.0) -> HormoneState:
    """Closed-form fixed point of the feedback-free model at constant daylight.

    Only valid when all feedback coefficients (phi, rho, psi, xi) are zero;
    with feedback the fixed point has no closed form.
    """
    if not p.is_feedback_free():
        raise ModelDomainError(
            "closed-form steady state requires phi = rho = psi = xi = 0")
    if not (D_const >= 0):
        raise ModelDomainError(f"D_const must be >= 0, got {D_const}")
    R = (p.k1 + D_const * p.k2) / p.h1
    A = (p.k3 / _hill_denominator(D_const, p.R_D, p.gamma) + p.k4 * R) / p.h2
    C = p.k5 * A / p.h3
    return HormoneState(R, A, C)
