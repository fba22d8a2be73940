"""End-to-end command-line behavior: outputs, manifests, exit codes."""

import csv
from pathlib import Path

import pytest

from hpa_dynamics import FitProblem, integrator, objective
from hpa_dynamics.io import parse_config, parse_observations
from hpa_dynamics.cli import COMMANDS, EXIT_INPUT, EXIT_NUMERICAL, EXIT_OK, main

DATA = str(Path(__file__).resolve().parents[1] / "data" / "synthetic_observations.csv")
FAST_CFG = (
    "integrate.t_end_min = 720\n"
    "integrate.burn_in_min = 1440\n"
)


def run(*argv):
    return main(list(argv))


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def make_obs_from_trajectory(traj_csv, obs_path, stride=60):
    rows = read_rows(traj_csv)
    out = ["time_min,acth_pg_ml,cortisol_ug_dl"]
    for row in rows[1::stride]:
        out.append(f"{row[0]},{row[2]},{row[3]}")
    obs_path.write_text("\n".join(out) + "\n", encoding="utf-8")
    return obs_path


class TestSimulate:
    def test_row_count_and_header(self, tmp_path):
        out = tmp_path / "sim"
        assert run("simulate", "--t-end", "2880", "--out", str(out)) == EXIT_OK
        rows = read_rows(out / "trajectory.csv")
        assert rows[0] == ["t_min", "crh", "acth", "cortisol"]
        assert len(rows) == 1 + 2881
        assert (out / "manifest.txt").is_file()

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_cfg(tmp_path, FAST_CFG)
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("simulate", "--config", str(cfg), "--out", str(a)) == EXIT_OK
        assert run("simulate", "--config", str(cfg), "--out", str(b)) == EXIT_OK
        assert (a / "trajectory.csv").read_bytes() == \
            (b / "trajectory.csv").read_bytes()

    def test_manifest_reproduces_run(self, tmp_path):
        cfg = write_cfg(tmp_path, FAST_CFG)
        first, second = tmp_path / "first", tmp_path / "second"
        assert run("simulate", "--config", str(cfg), "--out", str(first)) == EXIT_OK
        assert run("simulate", "--config", str(first / "manifest.txt"),
                   "--out", str(second)) == EXIT_OK
        assert (first / "trajectory.csv").read_bytes() == \
            (second / "trajectory.csv").read_bytes()


class TestDaylight:
    def test_one_period(self, tmp_path):
        out = tmp_path / "day"
        assert run("daylight", "--out", str(out)) == EXIT_OK
        rows = read_rows(out / "daylight.csv")
        assert rows[0] == ["t_min", "D"]
        assert len(rows) == 1 + 1441
        assert float(rows[1][1]) == pytest.approx(0.0306306306306, abs=1e-10)

    @pytest.mark.parametrize("bound, code", [(1440, EXIT_OK), (1439, EXIT_NUMERICAL)])
    def test_grid_bound(self, tmp_path, monkeypatch, capsys, bound, code):
        # a day on the default 1-min grid is 1440 intervals
        monkeypatch.setattr(integrator, "_MAX_STEPS", bound)
        assert run("daylight", "--out", str(tmp_path / "day")) == code
        if code == EXIT_OK:
            assert len(read_rows(tmp_path / "day" / "daylight.csv")) == 1 + 1441
        else:
            assert "output grid of more than 1439 intervals" in capsys.readouterr().err


class TestValidate:
    def test_round_trip_zero_error(self, tmp_path):
        cfg = write_cfg(tmp_path, FAST_CFG)
        sim = tmp_path / "sim"
        assert run("simulate", "--config", str(cfg), "--out", str(sim)) == EXIT_OK
        obs = make_obs_from_trajectory(sim / "trajectory.csv",
                                       tmp_path / "obs.csv")
        val = tmp_path / "val"
        assert run("validate", "--config", str(cfg), "--data", str(obs),
                   "--out", str(val)) == EXIT_OK
        rows = read_rows(val / "scores.csv")
        assert rows[0] == ["hormone", "mape_pct", "rmse"]
        scores = {r[0]: (float(r[1]), float(r[2])) for r in rows[1:]}
        assert set(scores) == {"acth", "cortisol"}
        for m, r in scores.values():
            assert m == pytest.approx(0.0, abs=1e-6)
            assert r == pytest.approx(0.0, abs=1e-8)

    def test_scores_on_observation_times_like_objective(self, tmp_path):
        # off-grid times: validate must not interpolate a 1-min grid
        cfg = write_cfg(tmp_path, FAST_CFG)
        obs_path = tmp_path / "obs.csv"
        obs_path.write_text("time_min,acth_pg_ml,cortisol_ug_dl\n"
                            "7.25,20,9\n130.6,25,12\n"
                            "401.9,30,14\n719.5,18,8\n", encoding="utf-8")
        val = tmp_path / "val"
        assert run("validate", "--config", str(cfg), "--data", str(obs_path),
                   "--out", str(val)) == EXIT_OK
        mape_sum = sum(float(r[1]) for r in read_rows(val / "scores.csv")[1:])
        config = parse_config(cfg)
        prob = FitProblem(base=config.params, free_names=("k4",),
                          integration=config.integration)
        expected = objective([config.params.k4], prob, parse_observations(obs_path))
        assert mape_sum == pytest.approx(expected, rel=1e-10)


class TestFit:
    def test_fit_outputs(self, tmp_path):
        cfg = write_cfg(tmp_path, FAST_CFG
                        + "fit.free = k5\nfit.budget = 30\nfit.n_starts = 1\n")
        sim = tmp_path / "sim"
        assert run("simulate", "--config", str(cfg), "--out", str(sim)) == EXIT_OK
        obs = make_obs_from_trajectory(sim / "trajectory.csv",
                                       tmp_path / "obs.csv")
        fitdir = tmp_path / "fit"
        assert run("fit", "--config", str(cfg), "--data", str(obs),
                   "--out", str(fitdir)) == EXIT_OK
        rows = read_rows(fitdir / "fitted_parameters.csv")
        names = [r[0] for r in rows[1:]]
        assert names == ["k5", "objective_value", "evaluations", "converged"]
        assert (fitdir / "scores.csv").is_file()

    def test_free_override_validated(self, tmp_path, capsys):
        obs = (tmp_path / "obs.csv")
        obs.write_text("time_min,acth_pg_ml,cortisol_ug_dl\n0,1,1\n30,1,1\n")
        assert run("fit", "--data", str(obs), "--out", str(tmp_path / "o"),
                   "--free", "k1,bogus") == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error: fit.free: ")

    @pytest.mark.parametrize("flags, text", [(("--seed", "-1"), ""),
                                             ((), "fit.seed = -1\n")])
    def test_negative_seed_is_input_error(self, tmp_path, capsys, flags, text):
        obs = tmp_path / "obs.csv"
        obs.write_text("time_min,acth_pg_ml,cortisol_ug_dl\n0,1,1\n30,1,1\n")
        cfg = write_cfg(tmp_path, FAST_CFG + "fit.budget = 1\n" + text)
        assert run("fit", "--config", str(cfg), "--data", str(obs),
                   "--out", str(tmp_path / "o"), *flags) == EXIT_INPUT
        assert "seed must be >= 0" in capsys.readouterr().err


class TestSensitivity:
    def test_outputs(self, tmp_path):
        cfg = write_cfg(tmp_path, "integrate.burn_in_min = 1440\n"
                        "sens.grid_dt_min = 120\n")
        out = tmp_path / "sens"
        assert run("sensitivity", "--config", str(cfg), "--out", str(out)) == EXIT_OK
        rows = read_rows(out / "sensitivity.csv")
        assert rows[0] == ["parameter", "si_aggregate", "rank"]
        assert len(rows) == 1 + 19
        ranks = sorted(int(r[2]) for r in rows[1:])
        assert ranks == list(range(1, 20))
        corr = read_rows(out / "correlation.csv")
        assert len(corr) == 1 + 19
        assert len(corr[0]) == 1 + 19
        # diagonal entries are exactly 1
        for i, row in enumerate(corr[1:]):
            assert float(row[1 + i]) == 1.0

    def test_fixed_mode(self, tmp_path):
        # used to end in a traceback: fixed mode ignored the grid
        cfg = write_cfg(tmp_path, "integrate.mode = fixed\nintegrate.dt_min = 1\n"
                        "integrate.burn_in_min = 1440\nsens.grid_dt_min = 120\n")
        out = tmp_path / "sens"
        assert run("sensitivity", "--config", str(cfg), "--out", str(out)) == EXIT_OK
        rows = read_rows(out / "sensitivity.csv")
        assert len(rows) == 1 + 19
        assert sorted(int(r[2]) for r in rows[1:]) == list(range(1, 20))

    def test_rows_only_for_ranked_parameters(self, tmp_path):
        # feedback-free: the four zero coefficients, the five constants
        # acting only through them and k5 (SI exactly 1) have no usable SI
        # series
        cfg = write_cfg(tmp_path, "integrate.burn_in_min = 1440\n"
                        "sens.grid_dt_min = 120\n"
                        "model.phi = 0\nmodel.psi = 0\nmodel.xi = 0\nmodel.rho = 0\n")
        out = tmp_path / "sens"
        assert run("sensitivity", "--config", str(cfg), "--out", str(out)) == EXIT_OK
        rows = read_rows(out / "sensitivity.csv")
        names = {r[0] for r in rows[1:]}
        assert len(rows) == 1 + 9
        assert not names & {"phi", "psi", "xi", "rho", "R_C", "R_A", "alpha",
                            "beta", "delta", "k5"}
        assert sorted(int(r[2]) for r in rows[1:]) == list(range(1, 10))
        corr = read_rows(out / "correlation.csv")
        assert len(corr) == 1 + 9 and len(corr[0]) == 1 + 9

    def test_parameters_on_their_bound_have_no_row(self, tmp_path, capsys):
        # a copy 0.1% below alpha = 1 or above phi = rho = 1 is no model: the
        # report used to fail with "alpha must be >= 1, got 0.999"
        cfg = write_cfg(tmp_path, "integrate.burn_in_min = 1440\n"
                        "sens.grid_dt_min = 120\n"
                        "model.alpha = 1\nmodel.phi = 1\nmodel.rho = 1\n")
        out = tmp_path / "sens"
        assert run("sensitivity", "--config", str(cfg), "--out", str(out)) == EXIT_OK
        rows = read_rows(out / "sensitivity.csv")
        assert len(rows) == 1 + 16
        assert not {r[0] for r in rows[1:]} & {"alpha", "phi", "rho"}
        # each left-out parameter gets one stderr line with its reason (the
        # one-day burn-in also warns that it ended unconverged)
        skips = [line for line in capsys.readouterr().err.splitlines()
                 if "has no row" in line]
        assert [line.split()[:2] for line in skips] == [
            ["warning:", name] for name in ("alpha", "phi", "rho")]
        assert skips[0].endswith("alpha must be >= 1, got 0.999")


class TestBurnInWarning:
    """A burn-in that reaches its cap unconverged is named on stderr; the
    exit code stays 0."""

    SLOW = "model.h3 = 0.00105\n"   # ends its 10-day burn-in at residual 24.0
    WARNING = "warning: burn-in reached its 10-day cap unconverged (residual 24 > 1)\n"

    @pytest.mark.parametrize("command, extra", [
        ("simulate", ()),
        ("validate", ("--data", DATA)),
        ("fit", ("--data", DATA)),
        ("sensitivity", ()),
    ])
    def test_unconverged_burn_in_warns(self, tmp_path, capsys, command, extra):
        cfg = write_cfg(tmp_path, self.SLOW + "fit.budget = 1\nfit.n_starts = 1\n"
                        "sens.grid_dt_min = 60\n")
        out = tmp_path / "out"
        assert run(command, "--config", str(cfg), *extra, "--out", str(out)) == EXIT_OK
        assert capsys.readouterr().err == self.WARNING

    def test_default_run_is_silent(self, tmp_path, capsys):
        assert run("simulate", "--out", str(tmp_path / "sim")) == EXIT_OK
        assert capsys.readouterr().err == ""


class TestExitCodes:
    def test_missing_data_file(self, tmp_path):
        assert run("validate", "--data", str(tmp_path / "absent.csv"),
                   "--out", str(tmp_path / "o")) == EXIT_INPUT

    @pytest.mark.parametrize("argv, key", [
        (("simulate", "--t-end", "inf"), "integrate.t_end_min"),
        (("simulate", "--t-end", "soon"), "integrate.t_end_min"),
        (("fit", "--seed", "1.5"), "fit.seed")])
    def test_flags_parsed_as_config_keys(self, tmp_path, capsys, argv, key):
        obs = tmp_path / "obs.csv"
        obs.write_text("time_min,acth_pg_ml,cortisol_ug_dl\n0,1,1\n30,1,1\n")
        data = ("--data", str(obs)) if argv[0] == "fit" else ()
        assert run(*argv, *data, "--out", str(tmp_path / "o")) == EXIT_INPUT
        assert capsys.readouterr().err.startswith(f"error: {key}: ")

    @pytest.mark.parametrize("out", ["file", "file/sub"])
    def test_unusable_out_dir_is_input_error(self, tmp_path, capsys, out):
        # mkdir raised FileExistsError or NotADirectoryError out of main
        (tmp_path / "file").write_text("")
        assert run("daylight", "--out", str(tmp_path / out)) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_bad_config(self, tmp_path):
        cfg = write_cfg(tmp_path, "model.not_a_param = 1\n")
        assert run("simulate", "--config", str(cfg),
                   "--out", str(tmp_path / "o")) == EXIT_INPUT

    @pytest.mark.parametrize("command, text", [
        # each passed parse time; daylight exited 0 with it in its manifest
        ("daylight", "fit.w_acth = -1\n"),
        ("daylight", "fit.lower_scale = 20\n"),
        # a 2-time grid, which no correlation matrix accepts
        ("sensitivity", "sens.grid_dt_min = 1440\n"),
        # bounds of 0 x the base value, which FitProblem refuses
        ("fit", "model.phi = 0\nfit.free = phi\n"),
        # exited 0 with the open-loop start as its only row
        ("simulate", "integrate.t0_min = 1e20\nintegrate.t_end_min = 1e20\n")])
    def test_unusable_settings_refused(self, tmp_path, command, text):
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "o"
        data = ("--data", DATA) if command == "fit" else ()
        assert run(command, "--config", str(cfg), "--out", str(out), *data) == EXIT_INPUT
        assert not (out / "manifest.txt").exists()
        assert not out.exists()

    def test_numerical_failure(self, tmp_path):
        # absurd tolerances force a step-size underflow
        cfg = write_cfg(tmp_path, "integrate.abs_tol = 1e-300\n"
                        "integrate.rel_tol = 1e-300\n"
                        "integrate.burn_in_min = 0\n")
        assert run("simulate", "--config", str(cfg),
                   "--out", str(tmp_path / "o")) == EXIT_NUMERICAL

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_refused_run_writes_nothing(self, tmp_path, capsys, command):
        # each command refuses this while it computes: simulate exited 0 with
        # a last row of CRH 1.18e13 and ACTH -1.18e12; once refused,
        # simulate and validate left an empty --out directory and fit one
        # holding fitted_parameters.csv. main writes only after the command
        # returns, so no command can leave --out behind
        cfg = write_cfg(tmp_path, "model.h1 = 1\nintegrate.mode = fixed\n"
                        "integrate.dt_min = 5\nintegrate.burn_in_min = 0\n"
                        "integrate.t_end_min = 60\n"
                        # the one grid daylight builds
                        "integrate.output_dt_min = 1e-320\n")
        out = tmp_path / "o"
        data = ("--data", DATA) if COMMANDS[command][2] else ()
        assert run(command, "--config", str(cfg), "--out", str(out),
                   *data) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert ("output grid" if command == "daylight" else "stability bound") in err
        assert not out.exists()

    @pytest.mark.parametrize("command, text", [
        pytest.param("simulate", text, id=text)
        # 1e9 min of burn-in: 1.7e7 steps of 60 min, inside the clock's range
        for text in ("integrate.burn_in_min = 1e9\n",
                     "integrate.output_dt_min = 1e-9\n",
                     "integrate.mode = fixed\nintegrate.dt_min = 1e-9\n")] + [
        # grids the commands build themselves: refused before allocation
        pytest.param("daylight", "integrate.output_dt_min = 1e-320\n",
                     id="daylight-output_dt_min = 1e-320"),
        pytest.param("sensitivity", "sens.grid_dt_min = 1e-320\n",
                     id="sensitivity-grid_dt_min = 1e-320")])
    def test_unbounded_work_refused(self, tmp_path, command, text):
        cfg = write_cfg(tmp_path, text)
        assert run(command, "--config", str(cfg),
                   "--out", str(tmp_path / "o")) == EXIT_NUMERICAL
        # simulate and daylight made their --out directory before refusing
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv, message", [
        (("simulate", "--bogus"), "unrecognized arguments: --bogus"),
        (("validate",), "the following arguments are required: --data"),
        ((), "the following arguments are required: command"),
        (("simulate", "--seed", "3"), "unrecognized arguments: --seed 3"),
        (("sample",), "argument command: invalid choice: 'sample' (choose from "
                      "'simulate', 'validate', 'fit', 'sensitivity', 'daylight')"),
        # a flag before the command is named, not its value as the command
        (("--out", "x", "simulate"),
         "--out comes before the command; flags go after the command"),
        (("--t-end", "5", "simulate"),
         "--t-end comes before the command; flags go after the command")])
    def test_usage_error_is_input_error(self, capsys, argv, message):
        # each exited 2, the numerical-failure code, after argparse's usage block
        assert run(*argv) == EXIT_INPUT
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_help_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("fit", "--help")
        assert exc.value.code == 0
        assert "--free NAMES" in capsys.readouterr().out

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("--version")
        assert exc.value.code == 0
