"""Time integration of the hormone ODE system.

Two modes: classical fixed-step RK4, and an adaptive embedded Cash-Karp 4(5)
pair with PI step-size control. Both support a burn-in interval that is
integrated and discarded so reported trajectories start on the attractor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import IntegrationError, SamplingError
from .model import (HormoneState, ParameterBatch, ParameterSet, _rhs, _rhs_batch,
                    daylight, steady_state_open_loop)

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
_MAX_STEP = 60.0
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
# PI controller exponents for an order-5 propagating pair
_PI_ALPHA = 0.7 / 5.0
_PI_BETA = 0.4 / 5.0
# an output time this close past the current time is recorded there
_LAND_TOL = 1e-9


@dataclass(frozen=True)
class IntegrationConfig:
    """How to run one integration: horizon, mode, tolerances, burn-in."""

    t0: float = 0.0
    t_end: float = 1440.0
    dt: float = 0.5
    mode: str = "adaptive"          # "fixed" | "adaptive"
    abs_tol: float = 1e-8
    rel_tol: float = 1e-8
    burn_in: float = 14400.0        # minutes integrated and discarded
    initial_state: HormoneState | None = None
    output_dt: float = 1.0          # adaptive-mode recording grid
    daylight_const: float | None = None  # freeze forcing (testing/analysis)

    def __post_init__(self):
        for name in ("t0", "t_end", "dt", "burn_in", "output_dt"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise IntegrationError(f"{name} must be finite, got {value}")
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
        if self.mode not in ("fixed", "adaptive"):
            raise IntegrationError(f"unknown mode {self.mode!r}")


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution: time grid, (n, 3) state array and the parameters used."""

    times: np.ndarray
    states: np.ndarray
    params: ParameterSet

    @property
    def crh(self) -> np.ndarray:
        return self.states[:, 0]

    @property
    def acth(self) -> np.ndarray:
        return self.states[:, 1]

    @property
    def cortisol(self) -> np.ndarray:
        return self.states[:, 2]

    def final_state(self) -> HormoneState:
        return HormoneState(*self.states[-1])


def _check_finite(t, R, A, C):
    if not (math.isfinite(R) and math.isfinite(A) and math.isfinite(C)):
        raise IntegrationError(f"non-finite state at t={t}", t=t)


def _check_finite_batch(t, R, A, C):
    if not (np.isfinite(R).all() and np.isfinite(A).all()
            and np.isfinite(C).all()):
        raise IntegrationError(f"non-finite state at t={t}", t=t)


def _error_norm(y, y_new, err, abs_tol, rel_tol):
    """RMS of the local error estimate in units of the mixed tolerance."""
    scale = 0.0
    for i in range(3):
        tol = abs_tol + rel_tol * max(abs(y[i]), abs(y_new[i]))
        # clamp the ratio so extreme tolerances cannot overflow the square
        scale += min(abs(err[i] / tol), 1e150) ** 2
    return math.sqrt(scale / 3.0)


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
    """RHS, error norm and finite-state check for one model or a batch.

    The RHS is looked up when the march starts, so a wrapper installed on
    the module name sees every call.
    """
    if isinstance(p, ParameterBatch):
        return _rhs_batch, _error_norm_batch, _check_finite_batch
    return _rhs, _error_norm, _check_finite


def step_rk4(t: float, s: HormoneState, dt: float, p: ParameterSet,
             d_const: float | None = None) -> HormoneState:
    """One classical 4th-order Runge-Kutta step of size dt."""
    if not dt > 0:
        raise IntegrationError(f"dt must be > 0, got {dt}")
    y = _rk4_step(t, s.as_tuple(), dt, p, d_const, _rhs)
    _check_finite(t + dt, *y)
    return HormoneState(*y)


def _rk4_step(t, y, dt, p, d_const, rhs):
    R, A, C = y
    k1 = rhs(t, R, A, C, p, d_const)
    half = 0.5 * dt
    k2 = rhs(t + half, R + half * k1[0], A + half * k1[1], C + half * k1[2],
             p, d_const)
    k3 = rhs(t + half, R + half * k2[0], A + half * k2[1], C + half * k2[2],
             p, d_const)
    k4 = rhs(t + dt, R + dt * k3[0], A + dt * k3[1], C + dt * k3[2],
             p, d_const)
    sixth = dt / 6.0
    return (R + sixth * (k1[0] + 2.0 * (k2[0] + k3[0]) + k4[0]),
            A + sixth * (k1[1] + 2.0 * (k2[1] + k3[1]) + k4[1]),
            C + sixth * (k1[2] + 2.0 * (k2[2] + k3[2]) + k4[2]))


def _integrate_fixed(t_start, t_stop, dt, y, p, d_const, record):
    """March RK4 from t_start to t_stop; optionally record every step."""
    rhs, _, check_finite = _kernels(p)
    times, states = [], []
    if record:
        times.append(t_start)
        states.append(y)
    t = t_start
    # steps counted by index to avoid drift in t
    n_full = int(math.floor((t_stop - t_start) / dt + 1e-9))
    for i in range(n_full):
        t = t_start + i * dt
        y = _rk4_step(t, y, dt, p, d_const, rhs)
        check_finite(t + dt, *y)
        if record:
            times.append(t_start + (i + 1) * dt)
            states.append(y)
    t = t_start + n_full * dt
    if t < t_stop - 1e-9:
        y = _rk4_step(t, y, t_stop - t, p, d_const, rhs)
        check_finite(t_stop, *y)
        if record:
            times.append(t_stop)
            states.append(y)
    return times, states, y


def _ck_step(t, y, h, p, d_const, rhs):
    """One Cash-Karp stage evaluation: returns (y5, error_estimate)."""
    R, A, C = y
    k1 = rhs(t, R, A, C, p, d_const)
    k2 = rhs(t + _C2 * h,
             R + h * _A21 * k1[0],
             A + h * _A21 * k1[1],
             C + h * _A21 * k1[2], p, d_const)
    k3 = rhs(t + _C3 * h,
             R + h * (_A31 * k1[0] + _A32 * k2[0]),
             A + h * (_A31 * k1[1] + _A32 * k2[1]),
             C + h * (_A31 * k1[2] + _A32 * k2[2]), p, d_const)
    k4 = rhs(t + _C4 * h,
             R + h * (_A41 * k1[0] + _A42 * k2[0] + _A43 * k3[0]),
             A + h * (_A41 * k1[1] + _A42 * k2[1] + _A43 * k3[1]),
             C + h * (_A41 * k1[2] + _A42 * k2[2] + _A43 * k3[2]), p, d_const)
    k5 = rhs(t + _C5 * h,
             R + h * (_A51 * k1[0] + _A52 * k2[0] + _A53 * k3[0] + _A54 * k4[0]),
             A + h * (_A51 * k1[1] + _A52 * k2[1] + _A53 * k3[1] + _A54 * k4[1]),
             C + h * (_A51 * k1[2] + _A52 * k2[2] + _A53 * k3[2] + _A54 * k4[2]),
             p, d_const)
    k6 = rhs(t + _C6 * h,
             R + h * (_A61 * k1[0] + _A62 * k2[0] + _A63 * k3[0]
                      + _A64 * k4[0] + _A65 * k5[0]),
             A + h * (_A61 * k1[1] + _A62 * k2[1] + _A63 * k3[1]
                      + _A64 * k4[1] + _A65 * k5[1]),
             C + h * (_A61 * k1[2] + _A62 * k2[2] + _A63 * k3[2]
                      + _A64 * k4[2] + _A65 * k5[2]), p, d_const)
    y5 = tuple(y[i] + h * (_B1 * k1[i] + _B3 * k3[i] + _B4 * k4[i] + _B6 * k6[i])
               for i in range(3))
    err = tuple(h * (_E1 * k1[i] + _E3 * k3[i] + _E4 * k4[i]
                     + _E5 * k5[i] + _E6 * k6[i])
                for i in range(3))
    return y5, err


def _record_due(t, y, output_times, out_idx, states):
    """Write y as the state of each pending output time up to t + _LAND_TOL.

    Returns the index of the first output time still pending.
    """
    while out_idx < len(output_times) and output_times[out_idx] <= t + _LAND_TOL:
        states[out_idx] = y
        out_idx += 1
    return out_idx


def _control(h, err_norm, err_prev):
    """PI step-size controller after trying a step of size h.

    Returns the next step size and the error memory for the next call.
    """
    if err_norm <= 1.0:
        e = max(err_norm, 1e-10)
        factor = _SAFETY * e ** (-_PI_ALPHA) * err_prev ** _PI_BETA
        err_prev = e
    else:
        factor = max(_MIN_FACTOR, _SAFETY * err_norm ** (-_PI_ALPHA))
    factor = min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
    return min(_MAX_STEP, h * factor), err_prev


def _integrate_adaptive(t_start, t_stop, y, p, abs_tol, rel_tol, d_const,
                        output_times=(), states=None):
    """Adaptive Cash-Karp march of one model or a ``ParameterBatch``.

    Writes the state at ``output_times[k]`` to ``states[k]`` and returns the
    final state. A step never passes the next output time: it is shortened
    to land on it, however short that makes it, so each output time gets
    exactly one state. A batch takes one step sequence, sized by the worst
    member's error norm.
    """
    rhs, error_norm, check_finite = _kernels(p)
    out_idx = _record_due(t_start, y, output_times, 0, states)
    t = t_start
    h = min(_MAX_STEP, max(_MIN_STEP, (t_stop - t_start) / 100.0))
    err_prev = 1e-4
    while t < t_stop - 1e-12:
        target = t_stop
        if out_idx < len(output_times):
            target = min(target, output_times[out_idx])
        h_try = min(h, target - t)
        y_new, err = _ck_step(t, y, h_try, p, d_const, rhs)
        check_finite(t + h_try, *y_new)
        err_norm = error_norm(y, y_new, err, abs_tol, rel_tol)
        if err_norm <= 1.0:
            t = t + h_try
            y = y_new
            out_idx = _record_due(t, y, output_times, out_idx, states)
        # a landing step shorter than _MIN_STEP must not trip the underflow check
        h, err_prev = _control(max(h_try, _MIN_STEP), err_norm, err_prev)
        if h < _MIN_STEP:
            raise IntegrationError(f"step size underflow at t={t}", t=t)
    # t is within 1e-12 of t_stop, and output times lie within _LAND_TOL of it
    for k in range(out_idx, len(output_times)):
        states[k] = y
    return y


def default_initial_state(p: ParameterSet, t: float = 0.0) -> HormoneState:
    """Feedback-free open-loop steady state at the daylight level of time t."""
    return steady_state_open_loop(p.feedback_free(), daylight(t))


def _output_grid(t0, t_end, output_dt):
    n = int(math.floor((t_end - t0) / output_dt + 1e-9))
    grid = [t0 + i * output_dt for i in range(n + 1)]
    if grid[-1] < t_end - 1e-9:
        grid.append(t_end)
    return grid


def _solve(config: IntegrationConfig, p, y, output_times):
    """Burn-in plus recorded window from state y; returns (times, states).

    ``states`` has shape (time, 3) for one model and (time, 3, member) for
    a batch.
    """
    d_const = config.daylight_const
    if config.mode == "fixed":
        if config.burn_in > 0:
            _, _, y = _integrate_fixed(config.t0 - config.burn_in, config.t0,
                                       config.dt, y, p, d_const, record=False)
        times, states, y = _integrate_fixed(config.t0, config.t_end, config.dt,
                                            y, p, d_const, record=True)
        states = np.asarray(states, dtype=float)
    else:
        if output_times is None:
            output_times = _output_grid(config.t0, config.t_end, config.output_dt)
        else:
            output_times = sorted(float(t) for t in output_times)
            if output_times and (output_times[0] < config.t0 - _LAND_TOL
                                 or output_times[-1] > config.t_end + _LAND_TOL):
                raise IntegrationError("output times outside [t0, t_end]")
        if config.burn_in > 0:
            y = _integrate_adaptive(config.t0 - config.burn_in, config.t0, y, p,
                                    config.abs_tol, config.rel_tol, d_const)
        times = output_times
        states = np.empty((len(times),) + np.shape(y))
        y = _integrate_adaptive(config.t0, config.t_end, y, p, config.abs_tol,
                                config.rel_tol, d_const, times, states)
    if not times:
        times, states = [config.t0], np.asarray([y], dtype=float)
    return np.asarray(times, dtype=float), states


def integrate(config: IntegrationConfig, p: ParameterSet,
              output_times=None) -> Trajectory:
    """Integrate from t0 - burn_in to t_end and return the post-burn-in part.

    Fixed mode records every RK4 step; adaptive mode records on
    ``output_times`` (default: every ``output_dt`` minutes, end inclusive).
    """
    s0 = config.initial_state or default_initial_state(p, config.t0 - config.burn_in)
    times, states = _solve(config, p, s0.as_tuple(), output_times)
    return Trajectory(times, states, p)


def integrate_batch(config: IntegrationConfig, param_sets,
                    output_times=None) -> list[Trajectory]:
    """Integrate several parameter sets as one batch; one Trajectory each.

    Same contract as ``integrate`` for every member, but all members take
    one shared step sequence: in adaptive mode each step is sized by the
    worst member's error norm, so every member still meets ``abs_tol`` and
    ``rel_tol``. All members must share ``clamp_production``.
    """
    batch = ParameterBatch(param_sets)
    t_burn_start = config.t0 - config.burn_in
    starts = [(config.initial_state or default_initial_state(s, t_burn_start)).as_tuple()
              for s in batch.sets]
    y = tuple(np.array(column) for column in zip(*starts))
    # Hill terms at a zero argument divide by zero by design (see _rhs_batch)
    with np.errstate(divide="ignore", over="ignore"):
        times, states = _solve(config, batch, y, output_times)
    # member views of one (member, time, variable) block, not copies
    by_member = states.transpose(2, 0, 1)
    return [Trajectory(times, by_member[i], s) for i, s in enumerate(batch.sets)]


def sample(traj: Trajectory, query_times) -> np.ndarray:
    """Piecewise-linear interpolation of the trajectory, shape (n, 3)."""
    q = np.atleast_1d(np.asarray(query_times, dtype=float))
    lo, hi = traj.times[0], traj.times[-1]
    if np.any(q < lo - 1e-9) or np.any(q > hi + 1e-9):
        raise SamplingError(
            f"query times outside trajectory range [{lo}, {hi}]")
    q = np.clip(q, lo, hi)
    out = np.empty((len(q), 3))
    for j in range(3):
        out[:, j] = np.interp(q, traj.times, traj.states[:, j])
    return out
