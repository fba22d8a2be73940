"""Command-line front end: simulate, validate, fit, sensitivity, daylight.

Exit codes: 0 success, 1 input or file-system error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .calibration import FitProblem, fit as run_fit
from .errors import HpaError, IntegrationError
from .integrator import _output_grid, integrate
from .io import RunConfig, parse_config, parse_observations, write_csv, write_manifest
from .metrics import score_fit
from .model import daylight
from .sensitivity import rank_parameters

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NUMERICAL = 2


def _load_config(args) -> RunConfig:
    flags = (("integrate.t_end_min", "t_end"), ("fit.seed", "seed"),
             ("fit.free", "free"), ("out.dir", "out"))
    overrides = [(key, getattr(args, name)) for key, name in flags
                 if getattr(args, name, None) is not None]
    return parse_config(args.config, overrides)


def _out_dir(config: RunConfig) -> Path:
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _warn_unconverged(traj):
    """One stderr line when the burn-in reached its cap unconverged; ``traj``
    is a ``Trajectory`` or a ``SensitivityReport``, which carries its
    baseline's burn-in figures."""
    if traj.burn_in_residual > 1.0:
        print(f"warning: burn-in reached its {traj.burn_in_days}-day cap "
              f"unconverged (residual {traj.burn_in_residual:.3g} > 1)",
              file=sys.stderr)


def _write_scores(config: RunConfig, params, obs) -> Path:
    """Score ``params`` on the observation times, as ``objective`` does, then
    make the output directory and write ``scores.csv`` there; returns it."""
    traj = integrate(config.integration.covering(obs.times), params,
                     output_times=np.unique(obs.times))
    _warn_unconverged(traj)
    score = score_fit(traj, obs)
    rows = []
    if score.mape_acth is not None:
        rows.append(("acth", score.mape_acth, score.rmse_acth))
    if score.mape_cortisol is not None:
        rows.append(("cortisol", score.mape_cortisol, score.rmse_cortisol))
    out = _out_dir(config)
    write_csv(out / "scores.csv", ["hormone", "mape_pct", "rmse"], rows)
    return out


def cmd_simulate(args) -> int:
    config = _load_config(args)
    traj = integrate(config.integration, config.params)
    _warn_unconverged(traj)
    out = _out_dir(config)
    write_csv(out / "trajectory.csv", ["t_min", "crh", "acth", "cortisol"],
              zip(traj.times, traj.crh, traj.acth, traj.cortisol))
    write_manifest(out / "manifest.txt", "simulate", config, __version__)
    return EXIT_OK


def cmd_daylight(args) -> int:
    config = _load_config(args)
    times = _output_grid(0.0, 1440.0, config.integration.output_dt)
    out = _out_dir(config)
    write_csv(out / "daylight.csv", ["t_min", "D"],
              ((t, daylight(t)) for t in times))
    write_manifest(out / "manifest.txt", "daylight", config, __version__)
    return EXIT_OK


def cmd_validate(args) -> int:
    config = _load_config(args)
    obs = parse_observations(args.data)
    out = _write_scores(config, config.params, obs)
    write_manifest(out / "manifest.txt", "validate", config, __version__,
                   extra={"data": args.data})
    return EXIT_OK


def cmd_fit(args) -> int:
    config = _load_config(args)
    obs = parse_observations(args.data)
    fs = config.fit
    base_vals = np.array([getattr(config.params, n) for n in fs.free])
    prob = FitProblem(base=config.params, free_names=fs.free,
                      lower=fs.lower_scale * base_vals,
                      upper=fs.upper_scale * base_vals,
                      objective_kind=fs.objective,
                      w_acth=fs.w_acth, w_cortisol=fs.w_cortisol,
                      integration=config.integration)
    result = run_fit(prob, obs, budget=fs.budget, seed=fs.seed,
                     n_starts=fs.n_starts)
    out = _write_scores(config, result.fitted, obs)
    rows = [(name, getattr(result.fitted, name)) for name in fs.free]
    rows.append(("objective_value", result.objective_value))
    rows.append(("evaluations", result.evaluations))
    rows.append(("converged", 1 if result.converged else 0))
    write_csv(out / "fitted_parameters.csv", ["parameter", "value"], rows)
    write_manifest(out / "manifest.txt", "fit", config, __version__,
                   extra={"data": args.data})
    return EXIT_OK


def cmd_sensitivity(args) -> int:
    config = _load_config(args)
    integ = config.integration
    report = rank_parameters(config.params, grid=config.sens.grid(integ),
                             rel_step=config.sens.rel_step, integration=integ)
    _warn_unconverged(report)
    for name, reason in report.skipped:
        print(f"warning: {name} has no row: {reason}", file=sys.stderr)
    out = _out_dir(config)
    rank_of = {name: i + 1 for i, name in enumerate(report.ranking)}
    write_csv(out / "sensitivity.csv", ["parameter", "si_aggregate", "rank"],
              ((n, report.si_aggregate[n], rank_of[n])
               for n in report.parameter_names))
    write_csv(out / "correlation.csv", ["parameter", *report.parameter_names],
              ((name, *report.correlation[i])
               for i, name in enumerate(report.parameter_names)))
    write_manifest(out / "manifest.txt", "sensitivity", config, __version__)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hpa-dyn",
        description="Circadian HPA-axis hormone model: simulation, "
                    "calibration, validation and sensitivity analysis.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, data=False, fit_flags=False):
        sp.add_argument("--config", metavar="PATH", help="run config file")
        sp.add_argument("--out", metavar="DIR", help="output directory")
        sp.add_argument("--t-end", metavar="MIN",
                        help="simulation end time (minutes)")
        if data:
            sp.add_argument("--data", metavar="PATH", required=True,
                            help="observation CSV (time_min,acth_pg_ml,cortisol_ug_dl)")
        if fit_flags:
            sp.add_argument("--seed", metavar="N",
                            help="multi-start RNG seed")
            sp.add_argument("--free", metavar="NAMES",
                            help="comma-separated free parameters")

    common(sub.add_parser("simulate", help="integrate and export a trajectory"))
    common(sub.add_parser("validate", help="score a config against data"),
           data=True)
    common(sub.add_parser("fit", help="estimate free parameters from data"),
           data=True, fit_flags=True)
    common(sub.add_parser("sensitivity", help="parameter sensitivity report"))
    common(sub.add_parser("daylight", help="export the daylight forcing"))

    sub.choices["simulate"].set_defaults(func=cmd_simulate)
    sub.choices["validate"].set_defaults(func=cmd_validate)
    sub.choices["fit"].set_defaults(func=cmd_fit)
    sub.choices["sensitivity"].set_defaults(func=cmd_sensitivity)
    sub.choices["daylight"].set_defaults(func=cmd_daylight)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (HpaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL if isinstance(exc, IntegrationError) else EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
