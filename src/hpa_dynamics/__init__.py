"""Circadian HPA-axis hormone model: simulation, calibration, metrics and
local sensitivity analysis."""

__version__ = "0.1.0"

from .calibration import FitProblem, FitResult, fit, objective
from .errors import (ConfigError, FitError, HpaError, IntegrationError,
                     MetricError, ModelDomainError, ObservationError,
                     SamplingError, SensitivityError)
from .integrator import (IntegrationConfig, Trajectory, default_initial_state,
                         integrate, integrate_batch, sample)
from .metrics import FitScore, ObservationSeries, mape, rmse, score_fit
from .model import (Derivatives, HormoneState, PARAMETER_NAMES, ParameterSet,
                    daylight, hill, rhs, steady_state_open_loop)
from .sensitivity import (SensitivityReport, correlation_matrix,
                          rank_parameters, si_timeseries)

__all__ = [
    "__version__",
    "ParameterSet", "HormoneState", "Derivatives", "PARAMETER_NAMES",
    "hill", "daylight", "rhs", "steady_state_open_loop",
    "IntegrationConfig", "Trajectory", "integrate", "integrate_batch", "sample",
    "default_initial_state",
    "ObservationSeries", "FitScore", "mape", "rmse", "score_fit",
    "FitProblem", "FitResult", "fit", "objective",
    "SensitivityReport", "si_timeseries", "rank_parameters",
    "correlation_matrix",
    "HpaError", "ModelDomainError", "IntegrationError", "SamplingError",
    "MetricError", "FitError", "SensitivityError", "ConfigError",
    "ObservationError",
]
