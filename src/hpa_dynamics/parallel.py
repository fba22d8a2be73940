"""The ordered map that sensitivity reports use, and its worker count.

Every map runs in the calling process, so ``worker_count`` is 1. Nothing
reads ``HPA_DYN_THREADS`` (``ENV_VAR``): it changes no result or timing.
"""

from __future__ import annotations

ENV_VAR = "HPA_DYN_THREADS"


def worker_count() -> int:
    """Processes one map uses: the calling one."""
    return 1


def map_ordered(fn, items):
    """``[fn(item) for item in items]``, in the calling process."""
    return [fn(item) for item in items]
