"""Command-line front end: simulate, validate, fit, sensitivity, daylight.

``main`` is the one run loop: it reads the config (flags applied) and any
``--data``, runs the command, which only computes and returns its files as
``{name: (header, rows)}``, and only then writes them and ``manifest.txt``
under ``--out``, so a refused run leaves no ``--out`` behind.

Exit codes: 0 success, 1 input error (usage, config, data or file system),
2 numerical failure; either error prints one ``error:`` line on stderr.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .calibration import fit as run_fit
from .errors import ConfigError, HpaError, IntegrationError
from .integrator import _DAY, _output_grid, integrate
from .io import parse_config, parse_observations, write_csv, write_manifest
from .metrics import score_fit
from .model import daylight
from .sensitivity import rank_parameters

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NUMERICAL = 2


def _warn_unconverged(traj):
    """One stderr line when the burn-in reached its cap unconverged; ``traj``
    is a ``Trajectory`` or a ``SensitivityReport``, which carries its
    baseline's burn-in figures."""
    if traj.burn_in_residual > 1.0:
        print(f"warning: burn-in reached its {traj.burn_in_days}-day cap "
              f"unconverged (residual {traj.burn_in_residual:.3g} > 1)",
              file=sys.stderr)


def cmd_simulate(config, obs):
    traj = integrate(config.integration, config.params)
    _warn_unconverged(traj)
    # one float array, which write_csv formats a block of rows at a time
    return {"trajectory.csv": (["t_min", "crh", "acth", "cortisol"],
                               np.column_stack((traj.times, traj.states)))}


def cmd_daylight(config, obs):
    times = _output_grid(0.0, _DAY, config.integration.output_dt)
    return {"daylight.csv": (["t_min", "D"], ((t, daylight(t)) for t in times))}


def cmd_validate(config, obs):
    """Score the config's parameters on the observation times, as ``objective`` does."""
    traj = integrate(config.integration.covering(obs.times), config.params,
                     output_times=np.unique(obs.times))
    _warn_unconverged(traj)
    score = score_fit(traj, obs)
    rows = []
    if score.mape_acth is not None:
        rows.append(("acth", score.mape_acth, score.rmse_acth))
    if score.mape_cortisol is not None:
        rows.append(("cortisol", score.mape_cortisol, score.rmse_cortisol))
    return {"scores.csv": (["hormone", "mape_pct", "rmse"], rows)}


def cmd_fit(config, obs):
    fs = config.fit
    result = run_fit(fs.problem(config.params, config.integration), obs,
                     budget=fs.budget, seed=fs.seed, n_starts=fs.n_starts)
    rows = [(name, getattr(result.fitted, name)) for name in fs.free]
    rows.append(("objective_value", result.objective_value))
    rows.append(("evaluations", result.evaluations))
    rows.append(("converged", 1 if result.converged else 0))
    # the fitted parameters' scores, as validate writes them
    return {**cmd_validate(replace(config, params=result.fitted), obs),
            "fitted_parameters.csv": (["parameter", "value"], rows)}


def cmd_sensitivity(config, obs):
    integ = config.integration
    report = rank_parameters(config.params, grid=config.sens.grid(integ),
                             rel_step=config.sens.rel_step, integration=integ)
    _warn_unconverged(report)
    for name, reason in report.skipped:
        print(f"warning: {name} has no row: {reason}", file=sys.stderr)
    rank_of = {name: i + 1 for i, name in enumerate(report.ranking)}
    names = report.parameter_names
    return {"sensitivity.csv": (["parameter", "si_aggregate", "rank"],
                                ((n, report.si_aggregate[n], rank_of[n]) for n in names)),
            "correlation.csv": (["parameter", *names], ((n, *report.correlation[i])
                                                        for i, n in enumerate(names)))}


#: flag -> (config key it sets, metavar, help)
FLAGS = {
    "--out": ("out.dir", "DIR", "output directory"),
    "--t-end": ("integrate.t_end_min", "MIN", "simulation end time (minutes)"),
    "--seed": ("fit.seed", "N", "multi-start RNG seed"),
    "--free": ("fit.free", "NAMES", "comma-separated free parameters"),
}
_EVERY_COMMAND = ("--out", "--t-end")

#: command -> (function, help, reads --data, its flags besides --config,
#: --out and --t-end)
COMMANDS = {
    "simulate": (cmd_simulate, "integrate and export a trajectory", False, ()),
    "validate": (cmd_validate, "score a config against data", True, ()),
    "fit": (cmd_fit, "estimate free parameters from data", True, ("--seed", "--free")),
    "sensitivity": (cmd_sensitivity, "parameter sensitivity report", False, ()),
    "daylight": (cmd_daylight, "export the daylight forcing", False, ()),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """A usage error is an input error: one ``error:`` line, exit 1."""
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hpa-dyn", description="Circadian HPA-axis hormone model: "
                     "simulation, calibration, validation and sensitivity analysis.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, reads_data, flags) in COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", metavar="PATH", help="run config file")
        if reads_data:
            sp.add_argument("--data", metavar="PATH", required=True,
                            help="observation CSV (time_min,acth_pg_ml,cortisol_ug_dl)")
        for flag in (*_EVERY_COMMAND, *flags):
            key, metavar, flag_help = FLAGS[flag]
            # the config key is the flag's destination
            sp.add_argument(flag, dest=key, metavar=metavar, help=flag_help)
    return parser


def _refuse_early_flag(argv):
    """A command's flag before the command: argparse would read its value
    as the command (``--out x simulate``: "invalid choice: 'x'")."""
    for arg in argv:
        if arg in COMMANDS:
            return
        flag = arg.split("=", 1)[0]
        if flag in ("--config", "--data", *FLAGS):
            raise ConfigError(f"{flag} comes before the command; "
                              "flags go after the command")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        _refuse_early_flag(argv)
        args = build_parser().parse_args(argv)
        run, _, reads_data, _ = COMMANDS[args.command]
        overrides = [(key, getattr(args, key)) for key, _, _ in FLAGS.values()
                     if getattr(args, key, None) is not None]
        config = parse_config(args.config, overrides)
        obs = parse_observations(args.data) if reads_data else None
        files = run(config, obs)
        out = Path(config.out_dir)
        for name, (header, rows) in files.items():
            write_csv(out / name, header, rows)
        write_manifest(out / "manifest.txt", args.command, config, __version__,
                       extra={"data": args.data} if reads_data else None)
        return EXIT_OK
    except (HpaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL if isinstance(exc, IntegrationError) else EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
