"""Goodness-of-fit metrics and trajectory/observation alignment."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MetricError
from .integrator import Trajectory, sample


@dataclass(frozen=True)
class ObservationSeries:
    """Measured ACTH (pg/mL) and/or cortisol (ug/dL) time series.

    Times are minutes since midnight. At least one hormone must be present;
    values must be strictly positive (MAPE needs nonzero actuals).
    """

    times: np.ndarray
    acth: np.ndarray | None = None
    cortisol: np.ndarray | None = None
    subject_id: str = ""

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        object.__setattr__(self, "times", times)
        if self.acth is None and self.cortisol is None:
            raise MetricError("at least one hormone series is required")
        if times.size == 0:
            raise MetricError("at least one observation time is required")
        if not np.isfinite(times).all():
            raise MetricError("observation times must be finite")
        if np.any(np.diff(times) < 0):
            raise MetricError("observation times must be nondecreasing")
        for name in ("acth", "cortisol"):
            series = getattr(self, name)
            if series is None:
                continue
            series = np.asarray(series, dtype=float)
            object.__setattr__(self, name, series)
            if len(series) != len(times):
                raise MetricError(
                    f"{name} length {len(series)} != times length {len(times)}")
            if np.any(~np.isfinite(series)) or np.any(series <= 0):
                raise MetricError(f"{name} values must be finite and > 0")

    def __len__(self):
        return len(self.times)


@dataclass(frozen=True)
class FitScore:
    """MAPE (percent) and RMSE per hormone; None when the hormone is absent."""

    mape_acth: float | None = None
    mape_cortisol: float | None = None
    rmse_acth: float | None = None
    rmse_cortisol: float | None = None


def mape(predicted, actual) -> float:
    """Mean absolute percentage error, in percent."""
    p = np.asarray(predicted, dtype=float)
    a = np.asarray(actual, dtype=float)
    if p.shape != a.shape or p.size == 0:
        raise MetricError(f"length mismatch or empty: {p.shape} vs {a.shape}")
    if np.any(a == 0):
        raise MetricError("MAPE undefined: actual series contains zero")
    return float(100.0 * np.mean(np.abs(p - a) / np.abs(a)))


def rmse(predicted, actual) -> float:
    """Root mean square error, in the data's units."""
    p = np.asarray(predicted, dtype=float)
    a = np.asarray(actual, dtype=float)
    if p.shape != a.shape or p.size == 0:
        raise MetricError(f"length mismatch or empty: {p.shape} vs {a.shape}")
    return float(np.sqrt(np.mean((p - a) ** 2)))


def score_fit(traj: Trajectory, obs: ObservationSeries) -> FitScore:
    """Sample the trajectory at observation times and score each hormone.

    The ACTH state component is compared to the measured ACTH, cortisol to
    measured cortisol; the trajectory is linearly interpolated in between
    grid points.
    """
    predicted = sample(traj, obs.times)
    kwargs = {}
    if obs.acth is not None:
        kwargs["mape_acth"] = mape(predicted[:, 1], obs.acth)
        kwargs["rmse_acth"] = rmse(predicted[:, 1], obs.acth)
    if obs.cortisol is not None:
        kwargs["mape_cortisol"] = mape(predicted[:, 2], obs.cortisol)
        kwargs["rmse_cortisol"] = rmse(predicted[:, 2], obs.cortisol)
    return FitScore(**kwargs)
