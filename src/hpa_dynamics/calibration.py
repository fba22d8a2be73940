"""Parameter estimation against observed hormone time series.

The objective integrates the model with a candidate parameter vector and
scores it against the observations; minimization uses a bounded,
derivative-free Nelder-Mead simplex with box projection and deterministic
multi-start.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import FitError, HpaError, ModelDomainError
from .integrator import IntegrationConfig, integrate
from .metrics import ObservationSeries, score_fit
from .model import PARAMETER_NAMES, ParameterSet

#: Finite penalty returned when the integration fails for a candidate, so
#: the optimizer can route around bad regions instead of aborting.
PENALTY = 1e9

OBJECTIVE_KINDS = ("sum_mape", "sum_squares")
# a start has converged once its simplex is this narrow relative to its best vertex
_DIAM_TOL = 1e-6


@dataclass(frozen=True)
class FitSettings:
    """A fit's settings as a config file gives them, bounds as multiples of
    the base values. ``FitProblem`` and ``fit`` read their defaults from
    here, and a value that either would refuse is refused here too."""

    free: tuple[str, ...] = ("k1", "k2", "k3", "k4", "k5")
    objective: str = "sum_mape"
    w_acth: float = 1.0
    w_cortisol: float = 1.0
    lower_scale: float = 0.1
    upper_scale: float = 10.0
    budget: int = 5000
    seed: int = 0
    n_starts: int = 5

    def __post_init__(self):
        _check_problem(self.free, self.objective, self.w_acth, self.w_cortisol)
        # written so that a nan scale fails it too
        if not 0 < self.lower_scale < self.upper_scale < np.inf:
            raise FitError("lower_scale and upper_scale must be finite and satisfy 0 < "
                           f"lower_scale < upper_scale, got {self.lower_scale} and "
                           f"{self.upper_scale}")
        _check_fit_args(self.budget, self.seed, self.n_starts)

    def problem(self, base: ParameterSet, integration: IntegrationConfig) -> "FitProblem":
        """The fit these settings pose about ``base``."""
        return FitProblem(base=base, free_names=self.free,
                          lower=_scaled(base, self.free, self.lower_scale),
                          upper=_scaled(base, self.free, self.upper_scale),
                          objective_kind=self.objective, w_acth=self.w_acth,
                          w_cortisol=self.w_cortisol, integration=integration)


def _scaled(base: ParameterSet, names, scale) -> np.ndarray:
    """A bound: ``scale`` times the base value of each named parameter."""
    return scale * np.array([getattr(base, n) for n in names])


@dataclass(frozen=True)
class FitProblem:
    """What to fit: free parameters, bounds, fixed base values, objective."""

    base: ParameterSet = field(default_factory=ParameterSet)
    free_names: tuple[str, ...] = FitSettings.free
    lower: np.ndarray | None = None   # default: FitSettings.lower_scale x base value
    upper: np.ndarray | None = None   # default: FitSettings.upper_scale x base value
    objective_kind: str = FitSettings.objective  # one of OBJECTIVE_KINDS
    w_acth: float = FitSettings.w_acth
    w_cortisol: float = FitSettings.w_cortisol
    integration: IntegrationConfig = field(default_factory=IntegrationConfig)

    def __post_init__(self):
        _check_problem(self.free_names, self.objective_kind, self.w_acth, self.w_cortisol)
        lower = (np.asarray(self.lower, dtype=float) if self.lower is not None
                 else _scaled(self.base, self.free_names, FitSettings.lower_scale))
        upper = (np.asarray(self.upper, dtype=float) if self.upper is not None
                 else _scaled(self.base, self.free_names, FitSettings.upper_scale))
        if lower.shape != (len(self.free_names),) or upper.shape != lower.shape:
            raise FitError("bounds must match the number of free parameters")
        # written so that a nan bound fails it too
        if not np.all((0 < lower) & (lower < upper) & (upper < np.inf)):
            raise FitError("bounds must be finite and satisfy 0 < lower < upper")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    def assemble(self, candidate) -> ParameterSet:
        updates = {n: float(v) for n, v in zip(self.free_names, candidate)}
        return replace(self.base, **updates)


@dataclass(frozen=True)
class FitResult:
    fitted: ParameterSet
    objective_value: float
    evaluations: int
    converged: bool
    history: tuple[tuple[int, float], ...]  # (evaluation index, best objective)


def objective(candidate, prob: FitProblem, obs: ObservationSeries) -> float:
    """Scalar fit criterion for one candidate free-parameter vector.

    Integration or model-domain failures map to the large finite PENALTY.
    """
    candidate = np.asarray(candidate, dtype=float)
    if np.any(candidate < prob.lower - 1e-12) or np.any(candidate > prob.upper + 1e-12):
        raise FitError("candidate outside bounds")
    try:
        params = prob.assemble(candidate)
        traj = integrate(prob.integration.covering(obs.times), params,
                         output_times=np.unique(obs.times))
        score = score_fit(traj, obs)
    except HpaError:
        return PENALTY
    if prob.objective_kind == "sum_mape":
        total = 0.0
        if score.mape_acth is not None:
            total += prob.w_acth * score.mape_acth
        if score.mape_cortisol is not None:
            total += prob.w_cortisol * score.mape_cortisol
    else:
        total = 0.0
        if score.rmse_acth is not None:
            total += prob.w_acth * len(obs) * score.rmse_acth ** 2
        if score.rmse_cortisol is not None:
            total += prob.w_cortisol * len(obs) * score.rmse_cortisol ** 2
    if not np.isfinite(total):
        return PENALTY
    return float(total)


class _BudgetSpent(Exception):
    """Raised by ``fit``'s counted objective after the budget's last evaluation."""


def _nelder_mead(f, x0, lower, upper):
    """Box-projected Nelder-Mead on f from x0; returns True once the simplex
    diameter falls below ``_DIAM_TOL`` relative to its best vertex. It stops
    early only when f raises."""
    n = len(x0)
    project = lambda x: np.minimum(np.maximum(x, lower), upper)

    simplex = [project(np.asarray(x0, dtype=float))]
    for i in range(n):
        step = 0.05 * (upper[i] - lower[i])
        v = simplex[0].copy()
        v[i] = v[i] + step if v[i] + step <= upper[i] else v[i] - step
        simplex.append(project(v))
    fvals = [f(v) for v in simplex]

    while True:
        order = np.argsort(fvals, kind="stable")
        simplex = [simplex[i] for i in order]
        fvals = [fvals[i] for i in order]
        scale = max(float(np.max(np.abs(simplex[0]))), 1e-12)
        diam = max(float(np.max(np.abs(v - simplex[0]))) for v in simplex[1:])
        if diam / scale < _DIAM_TOL:
            return True
        centroid = np.mean(simplex[:-1], axis=0)
        worst = simplex[-1]
        xr = project(centroid + (centroid - worst))
        fr = f(xr)
        if fr < fvals[0]:
            xe = project(centroid + 2.0 * (centroid - worst))
            fe = f(xe)
            if fe < fr:
                simplex[-1], fvals[-1] = xe, fe
            else:
                simplex[-1], fvals[-1] = xr, fr
        elif fr < fvals[-2]:
            simplex[-1], fvals[-1] = xr, fr
        else:
            if fr < fvals[-1]:
                xc = project(centroid + 0.5 * (xr - centroid))
            else:
                xc = project(centroid + 0.5 * (worst - centroid))
            fc = f(xc)
            if fc < min(fr, fvals[-1]):
                simplex[-1], fvals[-1] = xc, fc
            else:
                best = simplex[0]
                for i in range(1, n + 1):
                    simplex[i] = project(best + 0.5 * (simplex[i] - best))
                    fvals[i] = f(simplex[i])


def _check_problem(free, objective_kind, w_acth, w_cortisol):
    """The rules that ``FitProblem`` and ``FitSettings`` share: distinct
    parameter names to free, a known objective and usable weights."""
    if not free or len(set(free)) < len(free) or not set(free) <= set(PARAMETER_NAMES):
        raise FitError(f"free: need distinct parameter names, got {free}")
    if objective_kind not in OBJECTIVE_KINDS:
        raise FitError(f"objective must be {' or '.join(OBJECTIVE_KINDS)}, "
                       f"got {objective_kind!r}")
    weights = (w_acth, w_cortisol)
    if not (all(np.isfinite(w) and w >= 0 for w in weights) and max(weights) > 0):
        raise FitError("weights must be finite and >= 0, and one of them > 0, got "
                       f"w_acth={w_acth}, w_cortisol={w_cortisol}")


def _check_fit_args(budget, seed, n_starts):
    """``fit``'s rules on its budget, seed and starts, which ``FitSettings``
    applies too."""
    if budget < 1:
        raise FitError(f"budget must be >= 1, got {budget}")
    if seed < 0:
        raise FitError(f"seed must be >= 0, got {seed}")
    if n_starts < 1:
        raise FitError(f"n_starts must be >= 1, got {n_starts}")


def fit(prob: FitProblem, obs: ObservationSeries, init=None,
        budget: int = FitSettings.budget, seed: int = FitSettings.seed,
        n_starts: int = FitSettings.n_starts, on_evaluate=None) -> FitResult:
    """Minimize the objective with deterministic multi-start Nelder-Mead.

    Starts are the supplied init plus ``n_starts - 1`` log-uniform draws
    within the bounds (seeded). The evaluation budget is shared across
    starts and ends the search at its last evaluation; identical inputs give
    identical results. ``converged`` is that of the last start whose lowest
    value ties the best: a start converges when its simplex passes the
    diameter test with budget left.
    """
    _check_fit_args(budget, seed, n_starts)
    if init is None:
        init = np.array([getattr(prob.base, n) for n in prob.free_names])
    init = np.asarray(init, dtype=float)
    if init.shape != prob.lower.shape:
        raise FitError("init must match the number of free parameters")
    # the bounds are finite, so this refuses a nan or infinite init too
    if not np.all((prob.lower <= init) & (init <= prob.upper)):
        raise FitError(f"init must lie within the bounds, got {init}")

    rng = np.random.default_rng(seed)
    log_lo, log_hi = np.log(prob.lower), np.log(prob.upper)

    evaluations = 0
    best_x, best_f = None, np.inf
    start_f = np.inf  # lowest value of the running start
    history: list[tuple[int, float]] = []

    def counted(x):
        nonlocal evaluations, best_x, best_f, start_f
        value = objective(x, prob, obs)
        if on_evaluate is not None:
            on_evaluate(np.array(x), value)
        evaluations += 1
        start_f = min(start_f, value)
        if value < best_f:
            best_f = value
            best_x = np.array(x)
            history.append((evaluations, value))
        # ending here, not at a further request, leaves a start whose
        # simplex would pass the diameter test after this value unconverged
        if evaluations >= budget:
            raise _BudgetSpent
        return value

    best_converged = False
    for i in range(n_starts):
        # each random start is drawn only when it runs
        start = init if i == 0 else np.exp(rng.uniform(log_lo, log_hi))
        start_f = np.inf
        try:
            converged = _nelder_mead(counted, start, prob.lower, prob.upper)
        except _BudgetSpent:
            converged = False
        if start_f <= best_f:
            best_converged = converged
        if not converged:   # the budget is spent
            break

    return FitResult(fitted=prob.assemble(best_x),
                     objective_value=float(best_f),
                     evaluations=evaluations,
                     converged=best_converged,
                     history=tuple(history))
