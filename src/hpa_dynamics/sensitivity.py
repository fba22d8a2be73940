"""Local sensitivity of cortisol to each model parameter.

The relative sensitivity index of cortisol with respect to a parameter p is
(dC/dp)(p/C), estimated by central finite differences on two perturbed
integrations. Parameters are ranked by the time-average of |SI| over one
1440-min period after burn-in, and the Pearson correlation matrix of the SI
time series is reported.

``rank_parameters`` and ``si_timeseries`` share one path: a baseline run
(``_baseline``), then one shared-step batch of the plus and minus copies
(``_si_batch`` through ``integrate_batch``), so step-selection noise cancels
in the central differences (Bock's internal numerical differentiation).
The report's batch holds every parameter at ``rel_step`` and, for the
stability check, at ``rel_step / 2``; it is one in-process task for
``map_ordered``. ``si_timeseries`` batches one parameter's two copies.
The baseline is the batch's ``near`` run: when its burn-in converged and
the grid spans one forcing period, as the default grid does,
``integrate_batch`` seeds the batch from it (see there), and what is left
of the seed's offset moves an SI by a factor of 1e-12 to 3e-7 relative.

Parameters that are zero (relative SI undefined), whose copy ``rel_step``
away leaves the model's domain (``alpha``, ``phi`` or ``rho`` of 1), or
whose SI series is constant up to rounding (correlation undefined) are
reported in ``skipped``; ``si_timeseries`` refuses the first two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ModelDomainError, SensitivityError
from .integrator import _DAY, IntegrationConfig, _output_grid, integrate, integrate_batch
from .model import PARAMETER_NAMES, ParameterSet
from .parallel import map_ordered

# a series whose spread is at most this fraction of its largest magnitude
# is constant up to rounding (SI(k5) of the feedback-free model is 1 with
# a spread of about 1e-12)
_CONSTANT_SPREAD = 1e-9
# fewest points of an SI series that the correlation matrix accepts
_MIN_SERIES_LENGTH = 3


@dataclass(frozen=True)
class SensSettings:
    """A report's settings as a config file gives them: the finite-difference
    step and the spacing (min) of the one-day grid. ``rank_parameters`` and
    ``si_timeseries`` read their default step and grid from here."""

    rel_step: float = 1e-3
    grid_dt_min: float = 1.0

    def __post_init__(self):
        _check_rel_step(self.rel_step)
        if not math.isfinite(self.grid_dt_min):
            raise SensitivityError(f"grid_dt_min must be finite, got {self.grid_dt_min}")
        if not self.grid_dt_min > 0:
            raise SensitivityError(f"grid_dt_min must be > 0, got {self.grid_dt_min}")

    def grid(self, integration: IntegrationConfig) -> np.ndarray:
        """The one-day grid from ``integration.t0``, ``grid_dt_min`` apart."""
        return np.asarray(_output_grid(integration.t0, integration.t0 + _DAY,
                                       self.grid_dt_min))


@dataclass(frozen=True)
class SensitivityReport:
    """Per-parameter SI series, aggregate ranking and SI correlations.

    ``parameter_names`` are the ranked parameters in ``PARAMETER_NAMES``
    order; ``si_series``, ``si_aggregate`` and the rows and columns of
    ``correlation`` follow them. ``skipped`` holds ``(name, reason)`` for
    every other parameter. ``burn_in_days`` and ``burn_in_residual`` are the
    baseline run's, as ``Trajectory`` defines them.
    """

    parameter_names: tuple[str, ...]
    grid: np.ndarray
    si_series: dict[str, np.ndarray]
    si_aggregate: dict[str, float]
    ranking: tuple[str, ...]
    correlation: np.ndarray
    fd_unstable: tuple[str, ...] = ()
    skipped: tuple[tuple[str, str], ...] = ()
    burn_in_days: int = 0
    burn_in_residual: float = math.nan


def _as_grid(grid, integration: IntegrationConfig):
    """The output grid as an array, by default that of ``SensSettings()``;
    a given grid must be non-empty and strictly increasing, as its series
    are reported in its order."""
    if grid is None:
        return SensSettings().grid(integration)
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0 or not np.all(np.diff(grid) > 0):
        raise SensitivityError("grid must be a non-empty, strictly increasing "
                               "sequence of times")
    return grid


def _window(grid, integration: IntegrationConfig) -> IntegrationConfig:
    return replace(integration, t0=float(grid[0]), t_end=float(grid[-1]))


def _si(c_plus, c_minus, rel_step, c0):
    """Central-difference relative sensitivity from the perturbed cortisol."""
    return (c_plus - c_minus) / (2.0 * rel_step) / c0


def _perturbed(p: ParameterSet, name: str, rel_step: float):
    value = getattr(p, name)
    return (replace(p, **{name: value * (1.0 + rel_step)}),
            replace(p, **{name: value * (1.0 - rel_step)}))


def _check_rel_step(rel_step):
    if not (0 < rel_step <= 0.5):
        raise SensitivityError(f"rel_step must lie in (0, 0.5], got {rel_step}")


def _undefined(p: ParameterSet, name: str, rel_step: float):
    """Why ``name`` has no relative SI at ``p`` and ``rel_step``, or None."""
    if getattr(p, name) == 0:
        return "parameter is zero; relative SI undefined"
    try:
        _perturbed(p, name, rel_step)
    except ModelDomainError as exc:
        return f"a copy {rel_step:g} away leaves the model's domain: {exc}"
    return None


def _baseline(p: ParameterSet, grid, integration: IntegrationConfig):
    """The unperturbed run on the grid, whose cortisol divides every SI."""
    base = integrate(_window(grid, integration), p, output_times=grid)
    if np.any(base.cortisol == 0):
        raise SensitivityError("baseline cortisol is zero on the grid")
    return base


def si_timeseries(p: ParameterSet, name: str, grid=None,
                  rel_step: float = SensSettings.rel_step,
                  integration: IntegrationConfig | None = None) -> np.ndarray:
    """Central-difference SI(t) of cortisol with respect to one parameter,
    by ``rank_parameters``'s path: a baseline run and a two-member batch.
    Its series matches the report's to 2.0e-8 of its largest magnitude at
    the reference parameters. A default call takes about 12,500 RHS calls
    (the report: 12,495) and 0.2-0.3 s, mostly NumPy's per-call overhead.
    Refuses a zero parameter and one whose copy ``rel_step`` away leaves
    the model's domain.
    """
    if name not in PARAMETER_NAMES:
        raise SensitivityError(f"unknown parameter {name!r}")
    _check_rel_step(rel_step)
    reason = _undefined(p, name, rel_step)
    if reason:
        raise SensitivityError(f"{name}: {reason}")
    integration = integration or IntegrationConfig()
    grid = _as_grid(grid, integration)
    base = _baseline(p, grid, integration)
    return _si_batch((p, [name], grid, (rel_step,), integration, base))[0][0]


def _si_batch(args):
    """SI series of the named parameters, shape (len(names), len(grid)), for
    each step size, from one step-major batch of all plus and minus copies,
    seeded from the baseline run ``base`` where ``integrate_batch`` finds
    that sound."""
    p, names, grid, steps, integration, base = args
    sets = [q for step in steps for name in names for q in _perturbed(p, name, step)]
    trajs = integrate_batch(_window(grid, integration), sets, output_times=grid,
                            near=base)
    cortisol = np.array([traj.cortisol for traj in trajs])
    cortisol = cortisol.reshape(len(steps), 2 * len(names), len(grid))
    return [_si(c[0::2], c[1::2], step, base.cortisol)
            for step, c in zip(steps, cortisol)]


def _is_constant(series) -> bool:
    """True when the series is constant up to rounding, all zeros included."""
    return bool(np.ptp(series) <= _CONSTANT_SPREAD * np.max(np.abs(series)))


def correlation_matrix(si_series: dict[str, np.ndarray]) -> np.ndarray:
    """Pearson correlation of the SI time series, symmetric with unit diagonal."""
    names = list(si_series)
    data = np.array([np.asarray(si_series[n], dtype=float) for n in names])
    if data.shape[1] < _MIN_SERIES_LENGTH:
        raise SensitivityError(f"series must have length >= {_MIN_SERIES_LENGTH}")
    for name, row in zip(names, data):
        if _is_constant(row):
            raise SensitivityError(f"series for {name} is constant")
    corr = np.corrcoef(data)
    corr = np.clip((corr + corr.T) / 2.0, -1.0, 1.0)
    np.fill_diagonal(corr, 1.0)
    return corr


def rank_parameters(p: ParameterSet, grid=None,
                    rel_step: float = SensSettings.rel_step,
                    integration: IntegrationConfig | None = None) -> SensitivityReport:
    """Sensitivity report over the 19 parameters.

    One baseline run and one in-process batch of four copies per parameter
    that has an SI, seeded from the baseline where that is sound (see
    ``integrate_batch``'s ``near``). Aggregation is mean |SI(t)| over
    the grid; ``fd_unstable`` lists parameters whose aggregate moves by 1%
    or more when the finite difference step is halved. Zero-valued
    parameters, parameters whose copy ``rel_step`` away leaves the model's
    domain and parameters with a constant SI series are left out of the
    ranking and the correlation and listed in ``skipped``. The grid
    needs at least 3 times, which the correlation matrix needs; a shorter
    one is refused before any run.
    """
    _check_rel_step(rel_step)
    integration = integration or IntegrationConfig()
    grid = _as_grid(grid, integration)
    if len(grid) < _MIN_SERIES_LENGTH:
        raise SensitivityError(f"rank_parameters needs a grid of at least "
                               f"{_MIN_SERIES_LENGTH} times, got {len(grid)}")
    undefined = {name: _undefined(p, name, rel_step) for name in PARAMETER_NAMES}
    skipped = [(name, reason) for name, reason in undefined.items() if reason]
    names = [name for name, reason in undefined.items() if not reason]
    base = _baseline(p, grid, integration)
    [(si, si_halved)] = map_ordered(_si_batch, [
        (p, names, grid, (rel_step, rel_step / 2.0), integration, base)])

    si_series: dict[str, np.ndarray] = {}
    si_aggregate: dict[str, float] = {}
    unstable = []
    for name, series, halved in zip(names, si, si_halved):
        if _is_constant(series):
            skipped.append((name, "SI series is constant"))
            continue
        si_series[name] = series
        agg = float(np.mean(np.abs(series)))
        si_aggregate[name] = agg
        agg_halved = float(np.mean(np.abs(halved)))
        if abs(agg_halved - agg) / max(agg, 1e-30) >= 0.01:
            unstable.append(name)

    ranked = tuple(si_series)
    ranking = tuple(sorted(ranked, key=lambda n: -si_aggregate[n]))
    corr = correlation_matrix(si_series) if si_series else np.empty((0, 0))
    return SensitivityReport(parameter_names=ranked, grid=grid,
                             si_series=si_series, si_aggregate=si_aggregate,
                             ranking=ranking, correlation=corr,
                             fd_unstable=tuple(unstable), skipped=tuple(skipped),
                             burn_in_days=base.burn_in_days,
                             burn_in_residual=base.burn_in_residual)
