"""Worker-count reading and the ordered map that sensitivity reports use.

Every map runs in the calling process. ``HPA_DYN_THREADS`` is read only by
``worker_count`` (0 or unset means the hardware default), which no
computation here calls, so the variable changes no result.
"""

from __future__ import annotations

import os

from .errors import ConfigError

ENV_VAR = "HPA_DYN_THREADS"


def worker_count() -> int:
    raw = os.environ.get(ENV_VAR, "").strip()
    if raw in ("", "0"):
        return os.cpu_count() or 1
    try:
        n = int(raw)
    except ValueError:
        raise ConfigError(f"{ENV_VAR} must be a nonnegative integer, got {raw!r}")
    if n < 0:
        raise ConfigError(f"{ENV_VAR} must be a nonnegative integer, got {raw!r}")
    return n


def map_ordered(fn, items):
    """``[fn(item) for item in items]``, in the calling process."""
    return [fn(item) for item in items]
