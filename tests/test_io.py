"""Config parsing, observation CSV ingestion and canonical serialization."""

import inspect
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hpa_dynamics import (FitProblem, IntegrationConfig, fit, io, rank_parameters,
                          sensitivity, si_timeseries)
from hpa_dynamics.calibration import FitSettings
from hpa_dynamics.errors import (ConfigError, FitError, ObservationError,
                                 SensitivityError)
from hpa_dynamics.io import (OBS_HEADER, SCHEMA, RunConfig, config_lines, fmt,
                             parse_config, parse_observations, write_csv,
                             write_manifest)
from hpa_dynamics.sensitivity import SensSettings

README = Path(__file__).resolve().parents[1] / "README.md"
# the default of every key, as the manifest writes it
DEFAULTS = dict(line.split(" = ", 1) for line in config_lines(RunConfig()))

# every schema key at a value other than its default
NON_DEFAULT = """\
model.k1 = 0.61
model.k2 = 0.41
model.k3 = 0.2
model.k4 = 0.0801
model.k5 = 0.0045
model.h1 = 0.17
model.h2 = 0.03
model.h3 = 0.011
model.R_C = 1.1
model.R_A = 0.8
model.R_D = 1.25
model.alpha = 3.5
model.beta = 2.5
model.gamma = 2
model.delta = 4
model.phi = 0.2
model.psi = 0.45
model.xi = 2.1
model.rho = 0.3
model.clamp_production = false
integrate.t0_min = 60
integrate.t_end_min = 2000
integrate.dt_min = 0.25
integrate.mode = fixed
integrate.abs_tol = 1e-09
integrate.rel_tol = 1e-07
integrate.burn_in_min = 2880
integrate.output_dt_min = 5
fit.free = k4,k5,h3
fit.objective = sum_squares
fit.w_acth = 0.5
fit.w_cortisol = 2
fit.lower_scale = 0.2
fit.upper_scale = 5
fit.budget = 300
fit.seed = 9
fit.n_starts = 2
sens.rel_step = 0.002
sens.grid_dt_min = 10
out.dir = elsewhere
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestFmt:
    def test_float_twelve_digits(self):
        assert fmt(0.1 + 0.2) == "0.3"
        assert fmt(1.0 / 3.0) == "0.333333333333"
        assert fmt(1440.0) == "1440"

    def test_bool_and_int(self):
        assert fmt(True) == "true"
        assert fmt(False) == "false"
        assert fmt(42) == "42"


class TestParseConfig:
    def test_defaults_from_empty_file(self, tmp_path):
        cfg = parse_config(write(tmp_path, "c.cfg", "# nothing here\n"))
        assert cfg == RunConfig()

    def test_model_override(self, tmp_path):
        cfg = parse_config(write(tmp_path, "c.cfg", "model.k4 = 0.0801\n"))
        assert cfg.params.k4 == 0.0801
        assert cfg.params.k5 == 0.00430  # untouched default

    def test_sections_and_comments(self, tmp_path):
        text = (
            "model.k5 = 0.005   # trailing comment\n"
            "\n"
            "integrate.t_end_min = 2880\n"
            "integrate.mode = fixed\n"
            "fit.free = k4,k5\n"
            "fit.budget = 100\n"
            "sens.rel_step = 0.0005\n"
            "out.dir = results\n"
        )
        cfg = parse_config(write(tmp_path, "c.cfg", text))
        assert cfg.params.k5 == 0.005
        assert cfg.integration.t_end == 2880.0
        assert cfg.integration.mode == "fixed"
        assert cfg.fit.free == ("k4", "k5")
        assert cfg.fit.budget == 100
        assert cfg.sens.rel_step == 0.0005
        assert cfg.out_dir == "results"

    def test_unknown_key_reports_line(self, tmp_path):
        path = write(tmp_path, "c.cfg", "model.k5 = 0.004\nmodel.zeta = 1\n")
        with pytest.raises(ConfigError, match="line 2"):
            parse_config(path)

    def test_malformed_line(self, tmp_path):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config(write(tmp_path, "c.cfg", "just words\n"))

    def test_non_numeric_value(self, tmp_path):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config(write(tmp_path, "c.cfg", "model.k5 = fast\n"))

    def test_bad_mode(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(write(tmp_path, "c.cfg", "integrate.mode = euler\n"))

    def test_bad_free_list(self, tmp_path):
        for names in ("k1,bogus", "k5,k5"):
            with pytest.raises(ConfigError, match="fit.free: "):
                parse_config(write(tmp_path, "c.cfg", f"fit.free = {names}\n"))

    def test_run_keys_ignored(self, tmp_path):
        text = "run.command = simulate\nrun.version = 0.1.0\nmodel.k5 = 0.005\n"
        cfg = parse_config(write(tmp_path, "c.cfg", text))
        assert cfg.params.k5 == 0.005

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(tmp_path / "absent.cfg")

    def test_invalid_model_value_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(write(tmp_path, "c.cfg", "model.h3 = -1\n"))

    def test_config_lines_round_trip(self, tmp_path):
        original = parse_config(write(tmp_path, "a.cfg", NON_DEFAULT))
        lines = config_lines(original)
        assert [line.split(" = ")[0] for line in lines] == list(SCHEMA)
        assert lines == NON_DEFAULT.splitlines()
        # every key was read: no line of the dump is a default
        for line, default in zip(lines, config_lines(RunConfig())):
            assert line != default
        dumped = write(tmp_path, "b.cfg", "\n".join(lines) + "\n")
        assert parse_config(dumped) == original

    def test_overrides_follow_the_file(self, tmp_path):
        path = write(tmp_path, "c.cfg", "fit.seed = 3\nout.dir = a\n")
        cfg = parse_config(path, [("fit.seed", "4"), ("fit.free", "k4, k5")])
        assert (cfg.fit.seed, cfg.fit.free, cfg.out_dir) == (4, ("k4", "k5"), "a")
        assert parse_config(None, [("integrate.t_end_min", "60")]).integration.t_end == 60.0
        with pytest.raises(ConfigError, match="integrate.t_end_min: must be finite"):
            parse_config(None, [("integrate.t_end_min", "inf")])
        with pytest.raises(ConfigError, match="out.dir: empty value"):
            parse_config(None, [("out.dir", "")])

    @pytest.mark.parametrize("text, message", [
        ("fit.seed = -1\n", "fit.seed must be >= 0"),
        ("fit.n_starts = 0\n", "fit.n_starts must be >= 1"),
        ("fit.budget = 0\n", "fit.budget must be >= 1"),
        ("sens.rel_step = 0.9\n", r"sens.rel_step must lie in \(0, 0.5\]")])
    def test_fit_and_sensitivity_settings_checked_as_their_functions_do(
            self, tmp_path, text, message):
        # a negative seed and zero starts passed and reached a manifest
        with pytest.raises(ConfigError, match=message):
            parse_config(write(tmp_path, "c.cfg", text))

    @pytest.mark.parametrize("text, message", [
        ("# step\nintegrate.dt_min = 0\n", "line 2: integrate.dt_min must be > 0, got 0.0"),
        ("out.dir = a\nfit.seed = -1\n", "line 2: fit.seed must be >= 0, got -1"),
        ("sens.grid_dt_min = 0\n", "line 1: sens.grid_dt_min must be > 0, got 0.0"),
        ("model.k5 = -1\n", "line 1: model.k5 must be >= 0, got -1.0"),
        ("integrate.burn_in_min = 1e15\n",
         "line 1: integrate.burn_in_min out of the clock's range: |t0 - burn_in| = "
         "1e+15 min reaches 2**33 min, where the float spacing passes the smallest step")])
    def test_section_refusal_names_key_and_line(self, tmp_path, text, message):
        # integrate.dt_min = 0 was reported as "integrate.dt must be > 0",
        # and no section's refusal carried a line number
        with pytest.raises(ConfigError) as info:
            parse_config(write(tmp_path, "c.cfg", text))
        assert str(info.value) == message

    def test_section_refusal_of_a_flag_has_no_line(self, tmp_path):
        # the flag overrides the file's valid seed, so no line set the value
        path = write(tmp_path, "c.cfg", "fit.seed = 3\n")
        for source, key, raw, message in (
                (None, "integrate.dt_min", "0", "integrate.dt_min must be > 0, got 0.0"),
                (path, "fit.seed", "-1", "fit.seed must be >= 0, got -1")):
            with pytest.raises(ConfigError) as info:
                parse_config(source, [(key, raw)])
            assert str(info.value) == message

    @pytest.mark.parametrize("text", [
        "fit.w_acth = -1\n", "fit.w_acth = 0\nfit.w_cortisol = 0\n"])
    def test_weights_checked_as_fit_problem_does(self, tmp_path, text):
        # a negative weight passed parse time and reached a manifest
        with pytest.raises(ConfigError, match="fit.weights must be finite and >= 0"):
            parse_config(write(tmp_path, "c.cfg", text))

    @pytest.mark.parametrize("text", [
        "fit.lower_scale = 20\n", "fit.lower_scale = 0\n",
        "fit.lower_scale = -1\n", "fit.upper_scale = 0.1\n"])
    def test_bound_scales_must_be_ordered(self, tmp_path, text):
        with pytest.raises(ConfigError, match="0 < lower_scale < upper_scale"):
            parse_config(write(tmp_path, "c.cfg", text))

    def test_grid_spacing_must_be_positive(self, tmp_path):
        for value in ("0", "-10"):
            with pytest.raises(ConfigError, match="grid_dt_min"):
                parse_config(write(tmp_path, "c.cfg", f"sens.grid_dt_min = {value}\n"))

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_bytes(b"model.k5 = 0.005\nout.dir = caf\xff\n")
        with pytest.raises(ConfigError, match="not UTF-8"):
            parse_config(path)

    def test_every_key_documented(self):
        text = README.read_text(encoding="utf-8")
        section = text.split("### Config files", 1)[1].split("\n#", 1)[0]
        missing = [key for key in SCHEMA if f"`{key}`" not in section]
        assert not missing, f"README 'Config files' lacks {missing}"
        # a table row gives one default for all its keys, or one per key
        documented = {}
        for row in section.splitlines():
            if row.startswith("| `"):
                keys_cell, default_cell = row.split(" | ")[:2]
                keys = re.findall(r"`([^`]+)`", keys_cell)
                cells = default_cell.split(", ")
                if len(cells) != len(keys):
                    cells = [default_cell] * len(keys)
                documented.update(zip(keys, (cell.strip("`") for cell in cells)))
        assert set(documented) == {key for key in SCHEMA if not key.startswith("model.")}
        assert documented == {key: DEFAULTS[key] for key in documented}

    def test_defaults_are_the_library_defaults(self):
        prob = FitProblem()
        base = np.array([getattr(prob.base, n) for n in prob.free_names])
        fit_args = inspect.signature(fit).parameters
        library = {"fit.free": prob.free_names, "fit.objective": prob.objective_kind,
                   "fit.w_acth": prob.w_acth, "fit.w_cortisol": prob.w_cortisol,
                   **{f"fit.{name}": fit_args[name].default
                      for name in ("budget", "seed", "n_starts")}}
        for key, value in library.items():
            assert DEFAULTS[key] == fmt(value), key
        for function in (rank_parameters, si_timeseries):
            rel_step = inspect.signature(function).parameters["rel_step"].default
            assert DEFAULTS["sens.rel_step"] == fmt(rel_step)
        assert np.array_equal(prob.lower, float(DEFAULTS["fit.lower_scale"]) * base)
        assert np.array_equal(prob.upper, float(DEFAULTS["fit.upper_scale"]) * base)
        grid = sensitivity._as_grid(None, IntegrationConfig())
        assert set(np.diff(grid)) == {float(DEFAULTS["sens.grid_dt_min"])}

    def test_settings_refuse_what_their_owners_refuse(self):
        # RunConfig(fit=FitSettings(seed=-1)) once reached a manifest that
        # parse_config refused
        with pytest.raises(FitError, match="seed must be >= 0"):
            FitSettings(seed=-1)
        with pytest.raises(SensitivityError, match="grid_dt_min must be > 0"):
            SensSettings(grid_dt_min=0)

    # a line is a known key with fuzzed value, or fuzzed text
    _LINES = st.one_of(
        st.builds("{} = {}".format, st.sampled_from(sorted(SCHEMA)), st.text(max_size=12)),
        st.text(max_size=30))

    @settings(max_examples=200, deadline=None)
    @given(content=st.one_of(st.lists(_LINES, max_size=8).map("\n".join),
                             st.binary(max_size=200)))
    def test_fuzzed_input_returns_or_raises_config_error(self, content):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "fuzz.cfg"
            if isinstance(content, str):
                path.write_text(content, encoding="utf-8")
            else:
                path.write_bytes(content)
            try:
                assert isinstance(parse_config(path), RunConfig)
            except ConfigError:
                pass


class TestParseObservations:
    HEADER = ",".join(OBS_HEADER) + "\n"

    def test_basic(self, tmp_path):
        path = write(tmp_path, "obs.csv",
                     self.HEADER + "0,10.5,2.1\n30,11.0,2.4\n")
        obs = parse_observations(path)
        assert list(obs.times) == [0.0, 30.0]
        assert list(obs.acth) == [10.5, 11.0]
        assert list(obs.cortisol) == [2.1, 2.4]

    def test_sorted_by_time(self, tmp_path):
        path = write(tmp_path, "obs.csv",
                     self.HEADER + "60,,2.0\n0,,1.0\n30,,1.5\n")
        obs = parse_observations(path)
        assert list(obs.times) == [0.0, 30.0, 60.0]
        assert list(obs.cortisol) == [1.0, 1.5, 2.0]
        assert obs.acth is None

    def test_bad_header(self, tmp_path):
        with pytest.raises(ObservationError, match="header"):
            parse_observations(write(tmp_path, "obs.csv", "t,a,c\n0,1,1\n"))

    def test_non_numeric_value_reports_row(self, tmp_path):
        path = write(tmp_path, "obs.csv",
                     self.HEADER + "0,10,2\n30,high,2\n")
        with pytest.raises(ObservationError, match="row 2"):
            parse_observations(path)

    def test_nonpositive_value(self, tmp_path):
        path = write(tmp_path, "obs.csv", self.HEADER + "0,10,-2\n")
        with pytest.raises(ObservationError, match="row 1"):
            parse_observations(path)

    def test_duplicate_time(self, tmp_path):
        path = write(tmp_path, "obs.csv",
                     self.HEADER + "0,10,2\n0,11,2.2\n")
        with pytest.raises(ObservationError, match="duplicate"):
            parse_observations(path)

    def test_partial_column_rejected(self, tmp_path):
        path = write(tmp_path, "obs.csv",
                     self.HEADER + "0,10,2\n30,,2.2\n")
        with pytest.raises(ObservationError, match="acth_pg_ml"):
            parse_observations(path)

    def test_no_hormones_rejected(self, tmp_path):
        path = write(tmp_path, "obs.csv", self.HEADER + "0,,\n")
        with pytest.raises(ObservationError):
            parse_observations(path)

    def test_empty_file(self, tmp_path):
        with pytest.raises(ObservationError):
            parse_observations(write(tmp_path, "obs.csv", ""))
        with pytest.raises(ObservationError):
            parse_observations(write(tmp_path, "obs2.csv", self.HEADER))

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_bytes(self.HEADER.encode() + b"0,10,2\xff\n")
        with pytest.raises(ObservationError, match="not UTF-8"):
            parse_observations(path)

    @settings(max_examples=200, deadline=None)
    @given(content=st.one_of(
        st.lists(st.lists(st.one_of(st.sampled_from(["", "0", "1.5", "-2", "nan", "1e400"]),
                                    st.text(max_size=6)), max_size=4).map(",".join),
                 max_size=6).map(lambda rows: "\n".join([",".join(OBS_HEADER), *rows])),
        st.binary(max_size=200)))
    def test_fuzzed_input_returns_or_raises_observation_error(self, content):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "fuzz.csv"
            if isinstance(content, str):
                path.write_text(content, encoding="utf-8")
            else:
                path.write_bytes(content)
            try:
                parse_observations(path)
            except ObservationError:
                pass

    def test_oversized_field(self, tmp_path):
        path = write(tmp_path, "obs.csv", self.HEADER + "1" * 200_000 + ",10,2\n")
        with pytest.raises(ObservationError, match="unreadable CSV"):
            parse_observations(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = write(tmp_path, "obs.csv", self.HEADER + "\n0,10,2\n\n")
        assert len(parse_observations(path)) == 1


# floats whose 12-digit text is easy to get wrong: signed zeros, the
# subnormal and normal extremes, the largest magnitudes, inf and nan
_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-308,
                -1.5e-310, 1.7976931348623157e308, -1.7976931348623157e308, 9.99e307,
                float("inf"), float("-inf"), float("nan"), 0.1 + 0.2, 1.0 / 3.0]


def _written(rows):
    """The bytes ``write_csv`` writes for ``rows`` under a three-letter header."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.csv"
        write_csv(path, ["a", "b", "c"][:np.shape(rows)[1]], rows)
        return path.read_bytes()


class TestWriters:
    def test_write_csv_formatting(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(path, ["a", "b"], [(1.0 / 3.0, 2)])
        assert path.read_text() == "a,b\n0.333333333333,2\n"

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda width: st.lists(
        st.lists(st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats()),
                 min_size=width, max_size=width), min_size=1, max_size=40)))
    def test_float_array_matches_cells(self, rows):
        # the block path writes the bytes that fmt writes cell by cell
        array = np.array(rows, dtype=float)
        assert _written(array) == _written([tuple(row) for row in array])

    def test_float_array_one_row_past_a_block(self):
        array = np.linspace(-1e300, 1e300, 3 * (io._BLOCK_ROWS + 1)).reshape(-1, 3)
        text = _written(array)
        assert text == _written([tuple(row) for row in array])
        assert text.count(b"\n") == 1 + io._BLOCK_ROWS + 1

    def test_manifest_is_valid_config(self, tmp_path):
        config = RunConfig()
        path = tmp_path / "manifest.txt"
        write_manifest(path, "simulate", config, "0.1.0",
                       extra={"data": "obs.csv"})
        text = path.read_text()
        assert text.startswith("run.command = simulate\n")
        assert "run.data = obs.csv" in text
        assert parse_config(path) == config

    def test_manifest_deterministic(self, tmp_path):
        config = RunConfig()
        a, b = tmp_path / "m1.txt", tmp_path / "m2.txt"
        write_manifest(a, "simulate", config, "0.1.0")
        write_manifest(b, "simulate", config, "0.1.0")
        assert a.read_bytes() == b.read_bytes()
