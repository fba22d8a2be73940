"""Time integration of the hormone ODE system.

Two modes: classical fixed-step RK4, and an adaptive embedded Cash-Karp 4(5)
pair with PI step-size control. One march serves both. It cuts a step only
to land on one of its stops, and records each output time inside a step
from the step's cubic Hermite interpolant (dense output), so its steps are
the same whatever the output times. Both modes march a burn-in that is
discarded so reported trajectories start on the 24-h attractor. The burn-in
is one march that stops at each day end (1440 min, the forcing period) and
ends as soon as one day leaves every component within ``abs_tol + rel_tol *
|y|``: that state is a point of the attractor, and so the state at ``t0``.
``burn_in`` is the cap. The recorded window is a second, fresh march. A
batch started from a converged nearby run is ordinary solves (``near``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from math import isfinite, sqrt

import numpy as np

from .errors import IntegrationError, SamplingError
from .model import (HormoneState, ParameterBatch, ParameterSet, _rhs, daylight,
                    steady_state_open_loop)

# Cash-Karp tableau; the 5th-order solution is propagated, the 4th-order
# embedded solution provides the local error estimate.
_C2, _C3, _C4, _C5, _C6 = 0.2, 0.3, 0.6, 1.0, 0.875
_A21 = 0.2
_A31, _A32 = 3.0 / 40.0, 9.0 / 40.0
_A41, _A42, _A43 = 0.3, -0.9, 1.2
_A51, _A52, _A53, _A54 = -11.0 / 54.0, 2.5, -70.0 / 27.0, 35.0 / 27.0
_A61, _A62, _A63, _A64, _A65 = (1631.0 / 55296.0, 175.0 / 512.0,
                                575.0 / 13824.0, 44275.0 / 110592.0,
                                253.0 / 4096.0)
_B1, _B3, _B4, _B6 = 37.0 / 378.0, 250.0 / 621.0, 125.0 / 594.0, 512.0 / 1771.0
_E1 = _B1 - 2825.0 / 27648.0
_E3 = _B3 - 18575.0 / 48384.0
_E4 = _B4 - 13525.0 / 55296.0
_E5 = -277.0 / 14336.0
_E6 = _B6 - 0.25

_SAFETY = 0.9
_MIN_STEP = 1e-6
# the clock's range: below 2**33 min (16,000 years) floats are at most 2**-20
# min apart, finer than _MIN_STEP, so every step moves the clock and a day
# of burn-in lasts 1440 min; at 2**33 the spacing passes _MIN_STEP
_MAX_CLOCK = 2.0 ** 33
_MAX_STEP = 60.0
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
# PI controller exponents for an order-5 propagating pair
_PI_ALPHA = 0.7 / 5.0
_PI_BETA = 0.4 / 5.0
# an output time this close past the current time is recorded there
_LAND_TOL = 1e-9
# most steps one march (burn-in or recorded window) may take, and most
# output intervals one grid may have: every integration ends within a
# bounded amount of work and memory
_MAX_STEPS = 2_000_000
# period of the daylight forcing: the burn-in's unit of march
_DAY = 1440.0
# end of RK4's stability interval on the negative real axis (the root of
# 1 + z + z^2/2 + z^3/6 + z^4/24 = 1 is -2.78529...): a fixed step with
# dt * h past it grows the decay x' = -h * x by a factor above 1 per step,
# so a short march returns finite wrong rows
_RK4_STABLE = 2.785
MODES = ("fixed", "adaptive")


@dataclass(frozen=True)
class IntegrationConfig:
    """How to run one integration: horizon, mode, tolerances, burn-in."""

    t0: float = 0.0
    t_end: float = 1440.0
    dt: float = 0.5
    mode: str = "adaptive"          # one of MODES
    abs_tol: float = 1e-8
    rel_tol: float = 1e-8
    # most minutes integrated and discarded before t0; the march stops at
    # the first whole day that changes no component beyond the tolerances
    burn_in: float = 14400.0
    initial_state: HormoneState | None = None
    output_dt: float = 1.0          # adaptive-mode recording grid
    daylight_const: float | None = None  # freeze forcing (testing/analysis)

    def __post_init__(self):
        for name in ("t0", "t_end", "dt", "abs_tol", "rel_tol", "burn_in", "output_dt"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise IntegrationError(f"{name} must be finite, got {value}")
        for name, what, t in (("t0", "t0", self.t0), ("t_end", "t_end", self.t_end),
                              ("burn_in", "t0 - burn_in", self.t0 - self.burn_in)):
            if not abs(t) < _MAX_CLOCK:
                raise IntegrationError(
                    f"{name} out of the clock's range: |{what}| = {abs(t):g} min reaches "
                    f"2**33 min, where the float spacing passes the smallest step")
        if not self.t_end >= self.t0:
            raise IntegrationError(f"t_end ({self.t_end}) < t0 ({self.t0})")
        if not self.dt > 0:
            raise IntegrationError(f"dt must be > 0, got {self.dt}")
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise IntegrationError("tolerances must be > 0")
        if not self.burn_in >= 0:
            raise IntegrationError(f"burn_in must be >= 0, got {self.burn_in}")
        if not self.output_dt > 0:
            raise IntegrationError(f"output_dt must be > 0, got {self.output_dt}")
        if self.mode not in MODES:
            raise IntegrationError(f"mode must be {' or '.join(MODES)}, got {self.mode!r}")

    def covering(self, times) -> "IntegrationConfig":
        """This config with its window widened to cover every time in ``times``."""
        t0 = min(self.t0, float(np.min(times)))
        t_end = max(self.t_end, float(np.max(times)))
        if (t0, t_end) == (self.t0, self.t_end):
            return self
        return replace(self, t0=t0, t_end=t_end)


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution: time grid, (n, 3) state array and the parameters used.

    ``burn_in_days`` is the number of whole days the burn-in marched, and
    ``burn_in_residual`` the largest change of a component over the last of
    them, in units of ``abs_tol + rel_tol * |y|``: at most 1 if the burn-in
    converged, above 1 if it reached its cap first, nan if it ran no whole
    day. Batch members carry the batch's figures.
    """

    times: np.ndarray
    states: np.ndarray
    params: ParameterSet
    burn_in_days: int = 0
    burn_in_residual: float = math.nan

    @property
    def crh(self) -> np.ndarray:
        return self.states[:, 0]

    @property
    def acth(self) -> np.ndarray:
        return self.states[:, 1]

    @property
    def cortisol(self) -> np.ndarray:
        return self.states[:, 2]


def _check_finite(t, y):
    R, A, C = y
    if not (isfinite(R) and isfinite(A) and isfinite(C)):
        raise IntegrationError(f"non-finite state at t={t}", t=t)


def _check_finite_batch(t, y):
    R, A, C = y
    if not (np.isfinite(R).all() and np.isfinite(A).all()
            and np.isfinite(C).all()):
        raise IntegrationError(f"non-finite state at t={t}", t=t)


def _error_norm(y, y_new, err, abs_tol, rel_tol):
    """RMS of the local error estimate in units of the mixed tolerance.

    Straight-line code for speed; each ``b if b > a else a`` is ``max(a, b)``
    and each clamp is ``min(ratio, 1e150)``, ties and nan included, and
    the squares are summed in component order, so the result is the same
    float as a loop over ``max``/``min`` accumulating from 0.0.
    """
    R, A, C = y
    R1, A1, C1 = y_new
    eR, eA, eC = err
    # clamp each ratio so extreme tolerances cannot overflow the square
    a, b = abs(R), abs(R1)
    r0 = abs(eR / (abs_tol + rel_tol * (b if b > a else a)))
    if 1e150 < r0:
        r0 = 1e150
    a, b = abs(A), abs(A1)
    r1 = abs(eA / (abs_tol + rel_tol * (b if b > a else a)))
    if 1e150 < r1:
        r1 = 1e150
    a, b = abs(C), abs(C1)
    r2 = abs(eC / (abs_tol + rel_tol * (b if b > a else a)))
    if 1e150 < r2:
        r2 = 1e150
    return sqrt((r0 ** 2 + r1 ** 2 + r2 ** 2) / 3.0)


def _error_norm_batch(y, y_new, err, abs_tol, rel_tol):
    """The worst member's ``_error_norm``: a shared step must suit every member."""
    # no clamp needed: an overflowing square gives inf, which the controller
    # rejects at the minimum factor, as it does the scalar path's clamped ratio
    scale = 0.0
    for i in range(3):
        tol = abs_tol + rel_tol * np.maximum(np.abs(y[i]), np.abs(y_new[i]))
        scale = scale + (err[i] / tol) ** 2
    return math.sqrt(float(scale.max()) / 3.0)


def _kernels(p):
    """Error norm and finite-state check for one model or a batch; ``_rhs``
    serves both."""
    if isinstance(p, ParameterBatch):
        return _error_norm_batch, _check_finite_batch
    return _error_norm, _check_finite


def _rk4_step(t, y, k1, dt, p, d_const, rhs):
    """One classical RK4 step; ``k1`` is ``rhs`` at (t, y), as in ``_ck_step``.

    Returns (y_new, forcing at t + dt), the second for the march to reuse.
    """
    R, A, C = y
    k1R, k1A, k1C = k1
    half = 0.5 * dt
    t_mid = t + half
    # both midpoint stages see the same forcing: evaluate it once
    d_mid = daylight(t_mid) if d_const is None else d_const
    k2R, k2A, k2C = rhs(t_mid, R + half * k1R, A + half * k1A, C + half * k1C,
                        p, d_mid)
    k3R, k3A, k3C = rhs(t_mid, R + half * k2R, A + half * k2A, C + half * k2C,
                        p, d_mid)
    t_end = t + dt
    d_end = daylight(t_end) if d_const is None else d_const
    k4R, k4A, k4C = rhs(t_end, R + dt * k3R, A + dt * k3A, C + dt * k3C, p, d_end)
    sixth = dt / 6.0
    return (R + sixth * (k1R + 2.0 * (k2R + k3R) + k4R),
            A + sixth * (k1A + 2.0 * (k2A + k3A) + k4A),
            C + sixth * (k1C + 2.0 * (k2C + k3C) + k4C)), d_end


def _ck_step(t, y, k1, h, p, d_const, rhs):
    """One Cash-Karp stage evaluation: returns (y5, error estimate, forcing
    at t + h).

    ``k1`` is ``rhs`` at (t, y), which the march keeps: it is the previous
    step's end derivative, and a retry after a rejected step reuses it.
    Unrolled over the three state components; works unchanged on floats
    and on ``(N,)`` arrays. Stage 5 sits at ``t + 1.0 * h``, the exact float
    of the step's end, so the march reuses its forcing there.
    """
    R, A, C = y
    k1R, k1A, k1C = k1
    ha = h * _A21
    k2R, k2A, k2C = rhs(t + _C2 * h,
                        R + ha * k1R,
                        A + ha * k1A,
                        C + ha * k1C, p, d_const)
    k3R, k3A, k3C = rhs(t + _C3 * h,
                        R + h * (_A31 * k1R + _A32 * k2R),
                        A + h * (_A31 * k1A + _A32 * k2A),
                        C + h * (_A31 * k1C + _A32 * k2C), p, d_const)
    k4R, k4A, k4C = rhs(t + _C4 * h,
                        R + h * (_A41 * k1R + _A42 * k2R + _A43 * k3R),
                        A + h * (_A41 * k1A + _A42 * k2A + _A43 * k3A),
                        C + h * (_A41 * k1C + _A42 * k2C + _A43 * k3C), p, d_const)
    t5 = t + _C5 * h
    d5 = daylight(t5) if d_const is None else d_const
    k5R, k5A, k5C = rhs(t5,
                        R + h * (_A51 * k1R + _A52 * k2R + _A53 * k3R + _A54 * k4R),
                        A + h * (_A51 * k1A + _A52 * k2A + _A53 * k3A + _A54 * k4A),
                        C + h * (_A51 * k1C + _A52 * k2C + _A53 * k3C + _A54 * k4C),
                        p, d5)
    k6R, k6A, k6C = rhs(t + _C6 * h,
                        R + h * (_A61 * k1R + _A62 * k2R + _A63 * k3R
                                 + _A64 * k4R + _A65 * k5R),
                        A + h * (_A61 * k1A + _A62 * k2A + _A63 * k3A
                                 + _A64 * k4A + _A65 * k5A),
                        C + h * (_A61 * k1C + _A62 * k2C + _A63 * k3C
                                 + _A64 * k4C + _A65 * k5C), p, d_const)
    y5 = (R + h * (_B1 * k1R + _B3 * k3R + _B4 * k4R + _B6 * k6R),
          A + h * (_B1 * k1A + _B3 * k3A + _B4 * k4A + _B6 * k6A),
          C + h * (_B1 * k1C + _B3 * k3C + _B4 * k4C + _B6 * k6C))
    err = (h * (_E1 * k1R + _E3 * k3R + _E4 * k4R + _E5 * k5R + _E6 * k6R),
           h * (_E1 * k1A + _E3 * k3A + _E4 * k4A + _E5 * k5A + _E6 * k6A),
           h * (_E1 * k1C + _E3 * k3C + _E4 * k4C + _E5 * k5C + _E6 * k6C))
    return y5, err, d5


def _record_due(t, y, output_times, out_idx, states):
    """Write y as the state of each pending output time up to t + _LAND_TOL.

    Returns the index of the first output time still pending.
    """
    while out_idx < len(output_times) and output_times[out_idx] <= t + _LAND_TOL:
        states[out_idx] = y
        out_idx += 1
    return out_idx


def _record_dense(t, y, f, h, y_new, f_new, output_times, out_idx, states):
    """Record the pending output times up to t + h + _LAND_TOL after an
    accepted step from (t, y) to (t + h, y_new).

    ``f`` and ``f_new`` are the derivatives at the step's ends. A time
    within _LAND_TOL of t + h gets y_new; an earlier one the cubic Hermite
    interpolant of the two ends and their derivatives, whose error is
    O(h^4). Returns the index of the first output time still pending.
    """
    t_new = t + h
    n_out = len(output_times)
    if out_idx < n_out and output_times[out_idx] < t_new - _LAND_TOL:
        R, A, C = y
        dR, dA, dC = y_new[0] - R, y_new[1] - A, y_new[2] - C
        fR, fA, fC = f
        gR, gA, gC = f_new
        while out_idx < n_out and output_times[out_idx] < t_new - _LAND_TOL:
            theta = (output_times[out_idx] - t) / h
            rest = 1.0 - theta
            # weights of y_new - y, h * f and h * f_new
            a = theta * theta * (3.0 - 2.0 * theta)
            b = h * theta * rest * rest
            c = -h * theta * theta * rest
            states[out_idx] = (R + a * dR + b * fR + c * gR,
                               A + a * dA + b * fA + c * gA,
                               C + a * dC + b * fC + c * gC)
            out_idx += 1
    return _record_due(t_new, y_new, output_times, out_idx, states)


def _control(h, err_norm, err_prev):
    """PI step-size controller after trying a step of size h.

    Returns the next step size and the error memory for the next call.
    The clamps are ``min``/``max`` calls written out, for speed; a nan
    norm's factor fails ``> _MIN_FACTOR``, as ``max`` drops it, and rejects
    at the minimum factor.
    """
    if err_norm <= 1.0:
        e = 1e-10 if err_norm < 1e-10 else err_norm
        factor = _SAFETY * e ** (-_PI_ALPHA) * err_prev ** _PI_BETA
        err_prev = e
    else:
        factor = _SAFETY * err_norm ** (-_PI_ALPHA)
    factor = (_MAX_FACTOR if factor > _MAX_FACTOR
              else factor if factor > _MIN_FACTOR else _MIN_FACTOR)
    h = h * factor
    return (h if h < _MAX_STEP else _MAX_STEP), err_prev


def _march(t_start, stops, y, p, config: IntegrationConfig, output_times=(),
           states=None):
    """March one model or a ``ParameterBatch`` from t_start through each
    time in the increasing list ``stops``, and yield the state at each.

    Fixed mode takes RK4 steps of ``config.dt``, at ``stop + n * dt`` from
    the last stop (or t_start) so that t does not drift. Adaptive mode
    takes Cash-Karp steps under PI control, sized for a batch by its worst
    member. Either mode cuts a step only to land on a stop, and then goes
    on with the size it cut from: the stretches step as one march, with
    one controller and one ``_MAX_STEPS`` budget of step tries, beyond
    which it raises ``IntegrationError``. Each output time inside an
    accepted step gets the step's cubic Hermite interpolant (see
    ``_record_dense``), so the steps do not depend on the output times.
    ``states[k]`` gets the state at ``output_times[k]``. A consumer may
    stop reading early; only the burn-in does, and it records no outputs.
    """
    # looked up here, so a wrapper installed on the module name sees every call
    rhs = _rhs
    error_norm, check_finite = _kernels(p)
    fixed = config.mode == "fixed"
    abs_tol, rel_tol, d_const = config.abs_tol, config.rel_tol, config.daylight_const
    out_idx = _record_due(t_start, y, output_times, 0, states)
    n_out = len(output_times)
    h = (config.dt if fixed or not stops
         else min(_MAX_STEP, max(_MIN_STEP, (stops[0] - t_start) / 100.0)))
    err_prev, budget, t = 1e-4, _MAX_STEPS, t_start
    for t_stop in stops:
        # the derivative at (t, y): each step's first stage, and an end slope
        # of the interpolant
        k1 = rhs(t, *y, p, d_const)
        t_base, n_whole, t_last = t, 0, t_stop - 1e-12
        h_try = h_free = h   # h_free: the last step size before any cut to land
        while t < t_last:
            budget -= 1
            if budget < 0:
                raise IntegrationError(f"more than {_MAX_STEPS} steps tried by t={t}",
                                       t=t)
            h_free = h
            h_try = t_stop - t if t_stop - t < h else h
            # d_end: the forcing at t_new, which the stepper's last stage took
            if fixed:
                y_new, d_end = _rk4_step(t, y, k1, h_try, p, d_const, rhs)
                n_whole += 1
                t_new = t_stop if h_try < h else t_base + n_whole * h
                if t_new != t + h_try:   # a landing or a re-anchored clock
                    d_end = d_const
            else:
                y_new, err, d_end = _ck_step(t, y, k1, h_try, p, d_const, rhs)
                t_new = t + h_try
            check_finite(t_new, y_new)
            err_norm = 0.0 if fixed else error_norm(y, y_new, err, abs_tol, rel_tol)
            if err_norm <= 1.0:
                k1_new = rhs(t_new, *y_new, p, d_end)
                if out_idx < n_out:
                    out_idx = _record_dense(t, y, k1, h_try, y_new, k1_new,
                                            output_times, out_idx, states)
                t, y, k1 = t_new, y_new, k1_new
            if not fixed:
                # a landing step below _MIN_STEP must not trip the underflow check
                h, err_prev = _control(_MIN_STEP if h_try < _MIN_STEP else h_try,
                                       err_norm, err_prev)
                if h < _MIN_STEP:
                    raise IntegrationError(f"step size underflow at t={t}", t=t)
        # t is within 1e-12 of t_stop: the next stretch starts on it exactly,
        # and a last step cut short to land hands on the size it was cut from
        h, t = (h_free if h_try < h_free else h), t_stop
        out_idx = _record_due(t, y, output_times, out_idx, states)
        yield y


def default_initial_state(p: ParameterSet, t: float = 0.0) -> HormoneState:
    """Feedback-free open-loop steady state at the daylight level of time t."""
    return steady_state_open_loop(p.feedback_free(), daylight(t))


def _output_grid(t0, t_end, spacing):
    """Times t0, t0 + spacing, ... up to and including t_end, at most
    ``_MAX_STEPS`` intervals (a shorter last one counts), so that its
    memory is bounded as a march's work is."""
    n = (t_end - t0) / spacing + 1e-9
    # an inf or nan count fails this test too, before it is floored
    if n < _MAX_STEPS + 1:
        grid = [t0 + i * spacing for i in range(int(math.floor(n)) + 1)]
        if grid[-1] > t_end + _LAND_TOL:   # the slack overshot a long spacing
            grid.pop()
        if grid[-1] < t_end - 1e-9:
            grid.append(t_end)
        if len(grid) <= _MAX_STEPS + 1:
            return grid
    raise IntegrationError(
        f"output grid of more than {_MAX_STEPS} intervals (spacing {spacing})")


def _day_change(y, y_new, abs_tol, rel_tol):
    """Largest change from y to y_new of any component (of any batch member),
    in units of ``abs_tol + rel_tol * |y_new|``."""
    return max(float(np.max(np.abs(b - a) / (abs_tol + rel_tol * np.abs(b))))
               for a, b in zip(y, y_new))


def _burn_in(config: IntegrationConfig, p, y):
    """March the burn-in that ends at t0; returns (state at t0, days, residual).

    One march lands on the end of the part of ``burn_in`` that is not a
    whole day, if any, then on each day end ``t0 - k * 1440``: the days
    share one step-size controller and one step budget. The burn-in stops
    after the first day that changed no component beyond the tolerances
    (residual at most 1, see ``_day_change``): the forcing has period 1440,
    so that day-end state is the state at t0. Otherwise it goes to the cap.
    """
    days, rest = divmod(config.burn_in, _DAY)
    days = int(days)
    first = days if rest > 0 else days - 1   # the remainder's end, if any
    ends = [config.t0 - k * _DAY for k in range(first, -1, -1)]
    march = _march(config.t0 - config.burn_in, ends, y, p, config)
    if rest > 0:
        y = next(march)
    residual = math.nan
    for day, y_new in enumerate(march, 1):
        residual = _day_change(y, y_new, config.abs_tol, config.rel_tol)
        y = y_new
        if residual <= 1.0:
            return y, day, residual
    return y, days, residual


def _solve(config: IntegrationConfig, p, y, output_times):
    """``_burn_in`` from state y, then the window as one fresh march, in
    either mode, recording on ``output_times``, sorted; by default every
    ``dt`` (fixed mode) or ``output_dt`` (adaptive mode) minutes, end
    inclusive. Its steps do not depend on the output times (``_march``).
    It is the one place that converts and checks given output times.
    Returns (times, states, burn-in days, burn-in residual, (state at t0,
    state at t_end)), the last pair being the window march's own ends
    whatever the output times; ``states`` has shape (time, 3) for one model
    and (time, 3, member) for a batch. Fixed mode refuses a ``dt`` that puts
    the fastest removal rate of any member past RK4's stability bound.
    """
    fixed = config.mode == "fixed"
    if fixed:
        # a batch is bounded by its fastest member
        fastest = max(float(np.max(rate)) for rate in (p.h1, p.h2, p.h3))
        if config.dt * fastest > _RK4_STABLE:
            raise IntegrationError(
                f"fixed step dt = {config.dt:g} times the fastest removal rate "
                f"max(h1, h2, h3) = {fastest:g} exceeds RK4's stability bound "
                f"{_RK4_STABLE}; use a smaller dt or adaptive mode")
    # each step spans at most dt (fixed) or _MAX_STEP (adaptive) minutes
    longest = config.dt if fixed else _MAX_STEP
    for span in (config.burn_in, config.t_end - config.t0):
        if span / longest > _MAX_STEPS:
            raise IntegrationError(f"integrating {span} min takes more than "
                                   f"{_MAX_STEPS} steps of at most {longest} min")
    if output_times is None:
        output_times = _output_grid(config.t0, config.t_end,
                                    config.dt if fixed else config.output_dt)
    else:
        try:
            output_times = sorted(float(t) for t in output_times)
        except (TypeError, ValueError, OverflowError) as exc:
            raise IntegrationError(f"output_times must be numbers: {exc}") from None
        if not output_times:
            raise IntegrationError("output_times is empty")
        if len(output_times) > _MAX_STEPS:
            raise IntegrationError(f"more than {_MAX_STEPS} output times")
        # every time, so that a nan cannot hide among sorted finite ones
        lo, hi = config.t0 - _LAND_TOL, config.t_end + _LAND_TOL
        if not all(lo <= t <= hi for t in output_times):
            raise IntegrationError("output times outside [t0, t_end]")
    y, days, residual = _burn_in(config, p, y)
    states = np.empty((len(output_times),) + np.shape(y))
    # a fresh march: the window does not inherit the burn-in's step size
    end = next(_march(config.t0, [config.t_end], y, p, config, output_times, states))
    # an interpolated state also reads the derivative at its step's end,
    # which no later step checks after the window's last one
    finite = np.isfinite(states).reshape(len(output_times), -1).all(axis=1)
    if not finite.all():
        t = output_times[int(np.argmin(finite))]
        raise IntegrationError(f"non-finite state at t={t}", t=t)
    return np.asarray(output_times, dtype=float), states, days, residual, (y, end)


def integrate(config: IntegrationConfig, p: ParameterSet,
              output_times=None) -> Trajectory:
    """Integrate from t0 - burn_in to t_end and return the post-burn-in part.

    The burn-in marches whole days and stops at the first one that changes
    no component by more than ``abs_tol + rel_tol * |y|``; ``burn_in`` is its
    cap, and the returned ``Trajectory`` says how many days it took. It
    records the state at each of ``output_times`` (default: every ``dt``
    minutes in fixed mode, every ``output_dt`` minutes in adaptive mode,
    end inclusive). Neither mode lands a step on them: each is interpolated
    within its step by a cubic Hermite polynomial (error O(h^4) in the step
    size h), and a time within 1e-9 min of a step end gets that step's
    state, so a row does not depend on which other times are asked for.
    """
    s0 = config.initial_state or default_initial_state(p, config.t0 - config.burn_in)
    times, states, days, residual, _ = _solve(config, p, s0.as_tuple(), output_times)
    return Trajectory(times, states, p, days, residual)


def integrate_batch(config: IntegrationConfig, param_sets, output_times=None,
                    near: Trajectory | None = None) -> list[Trajectory]:
    """Integrate several parameter sets as one batch; one Trajectory each.

    Same contract as ``integrate`` for every member, but all members take
    one shared step sequence: in adaptive mode each step is sized by the
    worst member's error norm, so every member still meets ``abs_tol`` and
    ``rel_tol``. All members must share ``clamp_production``.

    ``near`` is a run of a nearby parameter set over the same window, such
    as a finite-difference baseline. If its burn-in converged, it starts at
    ``t0`` and the window spans one forcing period (to within 1e-9 min),
    the batch is ordinary solves: the first from ``near``'s state at ``t0``
    with one day of burn-in, which shrinks each member's offset from its
    attractor (about the parameter offset) by a factor of 1e-12 to 3e-7
    (measured over the burn-ins of fits). The recorded day is the check
    day, which compares the window march's start and end states, whatever
    the output times: until one changes no component beyond the burn-in's
    tolerance, or ``burn_in``'s whole days are spent, the next solve starts
    from its end with no burn-in, on the same times. ``burn_in_days`` counts
    the days before the recorded one, and ``burn_in_residual`` is the
    recorded day's change. Otherwise it runs cold.
    """
    batch = ParameterBatch(param_sets)
    seeded = (near is not None and near.burn_in_residual <= 1.0
              and near.times[0] == config.t0
              and abs(config.t_end - config.t0 - _DAY) <= _LAND_TOL)
    cap = config.burn_in // _DAY
    if seeded:
        config = replace(config, initial_state=HormoneState(*near.states[0]), burn_in=_DAY)
    starts = [(config.initial_state or default_initial_state(s, config.t0 - config.burn_in))
              .as_tuple() for s in batch.sets]
    y = tuple(np.array(column) for column in zip(*starts))
    # Hill terms at a zero argument divide by zero by design (see _hill_denominator)
    with np.errstate(divide="ignore", over="ignore"):
        times, states, days, residual, (start, end) = _solve(config, batch, y, output_times)
        while seeded:
            residual = _day_change(start, end, config.abs_tol, config.rel_tol)
            if residual <= 1.0 or days >= cap:
                break
            times, states, _, _, (start, end) = _solve(replace(config, burn_in=0.0),
                                                       batch, end, times)
            days += 1
    # member views of one (member, time, variable) block, not copies
    by_member = states.transpose(2, 0, 1)
    return [Trajectory(times, by_member[i], s, days, residual)
            for i, s in enumerate(batch.sets)]


def sample(traj: Trajectory, query_times) -> np.ndarray:
    """Piecewise-linear interpolation of the trajectory, shape (n, 3)."""
    q = np.atleast_1d(np.asarray(query_times, dtype=float))
    lo, hi = traj.times[0], traj.times[-1]
    # every time inside, so that a nan fails too
    if not np.all((q >= lo - 1e-9) & (q <= hi + 1e-9)):
        raise SamplingError(
            f"query times outside trajectory range [{lo}, {hi}]")
    q = np.clip(q, lo, hi)
    out = np.empty((len(q), 3))
    for j in range(3):
        out[:, j] = np.interp(q, traj.times, traj.states[:, j])
    return out
