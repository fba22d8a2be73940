"""The host's speed, read from a fixed kernel timed between operations.

The machine the benchmark runs on is a share of a host whose speed wanders
by a factor of up to 1.7 over tens of seconds, and the program's operations
slow and speed up with it. The kernel below is the benchmark's own code (a
pure-Python RK4 of a three-variable oscillator; it calls nothing of the
program), so a change to the program cannot change its time, while the
host's drift moves it as it moves the program. After each operation the
ledger times one kernel pass, off the operation's clock; ``normalized``
scales each latency by ``NOMINAL_S`` over the kernel's median time around
that operation: what the operation would have taken on a host where the
kernel takes ``NOMINAL_S``.
"""

from __future__ import annotations

import math
import statistics
import time

NOMINAL_S = 0.020         # the kernel's time on the nominal host
STEPS = 2500              # RK4 steps of one kernel pass
WINDOW = 4                # operations on each side whose passes scale one


def _f(t, x, y, z):
    return (1.0 / (1.0 + z ** 9) - 0.2 * x + 0.05 * math.sin(t / 229.0),
            x - 0.2 * y, y - 0.2 * z)


def kernel() -> float:
    """One pass; returns its wall time."""
    start = time.perf_counter()
    s, h, t = (0.1, 0.2, 2.5), 0.2, 0.0
    for _ in range(STEPS):
        k1 = _f(t, *s)
        k2 = _f(t + h / 2, *(a + h / 2 * b for a, b in zip(s, k1)))
        k3 = _f(t + h / 2, *(a + h / 2 * b for a, b in zip(s, k2)))
        k4 = _f(t + h, *(a + h * b for a, b in zip(s, k3)))
        s = tuple(a + h / 6 * (b1 + 2 * b2 + 2 * b3 + b4)
                  for a, b1, b2, b3, b4 in zip(s, k1, k2, k3, k4))
        t += h
    return time.perf_counter() - start


def normalized(latencies: list[float], kernel_s: list[float],
               window: int = WINDOW) -> list[float]:
    """Each latency times ``NOMINAL_S`` over the median kernel time of the
    passes after operations ``i - window`` to ``i + window``."""
    return [latency * NOMINAL_S
            / statistics.median(kernel_s[max(0, i - window):i + window + 1])
            for i, latency in enumerate(latencies)]
