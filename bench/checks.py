"""Deadlines and reference computations that the workloads' checks use."""

from __future__ import annotations

import multiprocessing
import signal
from contextlib import contextmanager

import numpy as np

from hpa_dynamics import HormoneState, default_initial_state, rhs


def _expire(signum, frame):
    # Pool workers of an interrupted operation would otherwise keep running.
    for child in multiprocessing.active_children():
        child.terminate()
    raise TimeoutError("operation missed its deadline")


@contextmanager
def deadline(seconds: float):
    """Raise ``TimeoutError`` in the main thread if the block runs too long.

    ``rearm(seconds)`` (yielded) restarts the clock, so one context can
    give each of a series of operations its own deadline.
    """
    def rearm(s=seconds):
        signal.setitimer(signal.ITIMER_REAL, s)

    previous = signal.signal(signal.SIGALRM, _expire)
    rearm()
    try:
        yield rearm
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        for child in multiprocessing.active_children():
            child.join(10)


def rk4_reference(p, t_end: float, burn_in: float, dt: float = 0.5) -> np.ndarray:
    """States on the 1-min grid of [0, t_end], by fixed-step classical RK4.

    Written here, on the public ``rhs``, so that it shares no stepping code
    with the program's integrator. Starts, like ``integrate``, from the
    default initial state at ``-burn_in``.
    """
    per_min = round(1.0 / dt)

    def f(t, y):
        return rhs(t, HormoneState(*y), p).as_tuple()

    y = default_initial_state(p, -burn_in).as_tuple()
    out = []
    n_burn = round(burn_in / dt)
    n_total = n_burn + round(t_end / dt)
    t0 = -burn_in
    for i in range(n_total + 1):
        if i >= n_burn and (i - n_burn) % per_min == 0:
            out.append(y)
        if i == n_total:
            break
        t = t0 + i * dt
        k1 = f(t, y)
        k2 = f(t + dt / 2, [a + dt / 2 * b for a, b in zip(y, k1)])
        k3 = f(t + dt / 2, [a + dt / 2 * b for a, b in zip(y, k2)])
        k4 = f(t + dt, [a + dt * b for a, b in zip(y, k3)])
        y = tuple(a + dt / 6 * (b1 + 2 * b2 + 2 * b3 + b4)
                  for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4))
    return np.array(out)
