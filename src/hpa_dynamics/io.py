"""Configuration and CSV input/output for the command-line front end.

Config files are line-based ``key = value`` with ``#`` comments and
namespaced keys (``model.k5``, ``integrate.burn_in_min``, ``fit.free``,
``sens.rel_step``), all listed once in ``SCHEMA``. Observation files are CSV with the fixed header
``time_min,acth_pg_ml,cortisol_ug_dl``. All floats are written with 12
significant digits and ``\\n`` line endings so reruns are byte-identical.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, fields, replace
from io import StringIO
from pathlib import Path

import numpy as np

from .calibration import FitSettings
from .errors import ConfigError, HpaError, MetricError, ObservationError
from .integrator import IntegrationConfig
from .metrics import ObservationSeries
from .model import PARAMETER_NAMES, ParameterSet
from .sensitivity import SensSettings

OBS_HEADER = ["time_min", "acth_pg_ml", "cortisol_ug_dl"]
#: the canonical text form of a float: 12 significant digits
_FLOAT = "%.12g"
# rows of a float array formatted per write: fewer calls, little held text
_BLOCK_ROWS = 512


@dataclass(frozen=True)
class RunConfig:
    params: ParameterSet = field(default_factory=ParameterSet)
    integration: IntegrationConfig = field(default_factory=IntegrationConfig)
    fit: FitSettings = field(default_factory=FitSettings)
    sens: SensSettings = field(default_factory=SensSettings)
    out_dir: str = "hpa-out"


def fmt(value) -> str:
    """Canonical text form: 12 significant digits for floats."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _FLOAT % value
    if isinstance(value, tuple):
        return ",".join(value)
    return str(value)


_DEFAULTS = RunConfig()

#: Every config key, in manifest order, mapped to (RunConfig section, attribute);
#: section None is an attribute of RunConfig itself.
SCHEMA: dict[str, tuple[str | None, str]] = {
    **{f"model.{n}": ("params", n) for n in (*PARAMETER_NAMES, "clamp_production")},
    # the integrate.* names carry the unit of each time attribute
    **{f"integrate.{k}": ("integration", a) for k, a in (
        ("t0_min", "t0"), ("t_end_min", "t_end"), ("dt_min", "dt"), ("mode", "mode"),
        ("abs_tol", "abs_tol"), ("rel_tol", "rel_tol"), ("burn_in_min", "burn_in"),
        ("output_dt_min", "output_dt"))},
    **{f"fit.{f.name}": ("fit", f.name) for f in fields(FitSettings)},
    **{f"sens.{f.name}": ("sens", f.name) for f in fields(SensSettings)},
    "out.dir": (None, "out_dir"),
}

#: the key prefix of each RunConfig section, and the key of each (section,
#: attribute): together they name a section's errors
_PREFIX = {section: key.split(".")[0] for key, (section, _) in SCHEMA.items()}
_KEY = {place: key for key, place in SCHEMA.items()}


def _value(config: RunConfig, key: str):
    section, attr = SCHEMA[key]
    return getattr(config if section is None else getattr(config, section), attr)


def _parse_value(key, raw, line):
    """Parse raw text by the type of the key's default value."""
    default = _value(_DEFAULTS, key)
    if isinstance(default, bool):
        low = raw.lower()
        if low in ("true", "1", "yes"):
            return True
        if low in ("false", "0", "no"):
            return False
        raise ConfigError(f"{key}: not a boolean: {raw!r}", line)
    if isinstance(default, int):
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{key}: not an integer: {raw!r}", line)
    if isinstance(default, float):
        try:
            v = float(raw)
        except ValueError:
            raise ConfigError(f"{key}: not a number: {raw!r}", line)
        if not math.isfinite(v):
            raise ConfigError(f"{key}: must be finite, got {raw!r}", line)
        return v
    if isinstance(default, tuple):  # parameter names
        return tuple(n.strip() for n in raw.split(",") if n.strip())
    return raw


def _read_text(path, kind, error) -> str:
    """The UTF-8 text of a file; a missing or undecodable file raises ``error``."""
    path = Path(path)
    if not path.is_file():
        raise error(f"{kind} file not found: {path}")
    try:
        return path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{kind} file {path} is not UTF-8 text "
                    f"({exc.reason} at byte {exc.start})")


def _config_entries(path):
    """(key, raw value, line number) of each setting line of a config file."""
    text = _read_text(path, "config", ConfigError)
    for lineno, rawline in enumerate(text.splitlines(), 1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if not (eq and key and raw):
            raise ConfigError(f"expected 'key = value', got {rawline!r}", lineno)
        if not key.startswith("run."):  # manifest provenance keys are informational
            yield key, raw, lineno


def parse_config(path=None, overrides=()) -> RunConfig:
    """Read a key = value config file, then apply ``(key, raw value)`` overrides.

    Either may be left out; unspecified keys keep their defaults.
    """
    entries = list(_config_entries(path)) if path is not None else []
    entries += [(key, raw.strip(), None) for key, raw in overrides]
    updates: dict = {}
    lines: dict = {}   # (section, attribute) -> line of the entry that set it
    for key, raw, lineno in entries:
        if key not in SCHEMA:
            raise ConfigError(f"unknown key {key!r}", lineno)
        if not raw:
            raise ConfigError(f"{key}: empty value", lineno)
        section, attr = SCHEMA[key]
        updates.setdefault(section, {})[attr] = _parse_value(key, raw, lineno)
        lines[section, attr] = lineno

    top = updates.pop(None, {})   # RunConfig's own fields, then its sections
    for section, kw in updates.items():
        try:   # each section checks itself
            top[section] = replace(getattr(_DEFAULTS, section), **kw)
        except HpaError as exc:
            raise _section_error(section, str(exc), lines)
    return replace(_DEFAULTS, **top)


def _section_error(section, message, lines) -> ConfigError:
    """A section's refusal as a config error. A message that starts with an
    attribute names its key, at the line of the entry that set it, if any:
    integration's "dt must be > 0, got 0.0" becomes "line 3:
    integrate.dt_min must be > 0, got 0.0". Any other message gets the
    section's prefix: "fit." + "weights must be finite and >= 0"."""
    attr = message.split(" ", 1)[0]
    key = _KEY.get((section, attr))
    if key is None:
        return ConfigError(f"{_PREFIX[section]}.{message}")
    return ConfigError(key + message[len(attr):], lines.get((section, attr)))


def config_lines(config: RunConfig) -> list[str]:
    """Canonical, fully resolved key = value lines for a RunConfig."""
    return [f"{key} = {fmt(_value(config, key))}" for key in SCHEMA]


def parse_observations(path) -> ObservationSeries:
    """Read an observation CSV, validating values and timestamps.

    Either hormone column may be entirely empty; rows are sorted by time.
    Row numbers in errors count data rows from 1.
    """
    path = Path(path)
    text = _read_text(path, "observation", ObservationError)
    try:
        rows = list(csv.reader(StringIO(text, newline="")))
    except csv.Error as exc:
        raise ObservationError(f"unreadable CSV: {exc}")
    if not rows:
        raise ObservationError("empty file: missing header")
    header = rows[0]
    if [h.strip() for h in header] != OBS_HEADER:
        raise ObservationError(
            f"bad header {header!r}; expected {','.join(OBS_HEADER)}")
    times, acth, cortisol = [], [], []
    for row_num, row in enumerate(rows[1:], 1):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != 3:
            raise ObservationError(f"expected 3 columns, got {len(row)}",
                                   row_num)
        t_raw, a_raw, c_raw = (cell.strip() for cell in row)
        try:
            t = float(t_raw)
        except ValueError:
            raise ObservationError(f"non-numeric time {t_raw!r}", row_num)
        if not math.isfinite(t):
            raise ObservationError(f"non-finite time {t_raw!r}", row_num)
        times.append(t)
        for raw, dest, label in ((a_raw, acth, "acth_pg_ml"),
                                 (c_raw, cortisol, "cortisol_ug_dl")):
            if raw == "":
                dest.append(None)
                continue
            try:
                v = float(raw)
            except ValueError:
                raise ObservationError(f"non-numeric {label} {raw!r}", row_num)
            if not math.isfinite(v) or v <= 0:
                raise ObservationError(
                    f"nonpositive {label} value {raw}", row_num)
            dest.append(v)

    if not times:
        raise ObservationError("no data rows")
    for label, series in (("acth_pg_ml", acth), ("cortisol_ug_dl", cortisol)):
        present = [v is not None for v in series]
        if any(present) and not all(present):
            row_num = present.index(False) + 1
            raise ObservationError(f"{label} present in some rows but missing here",
                                   row_num)
    seen = {}
    for i, t in enumerate(times, 1):
        if t in seen:
            raise ObservationError(f"duplicate time {fmt(t)} (first at row {seen[t]})", i)
        seen[t] = i

    order = np.argsort(times, kind="stable")
    times_arr = np.asarray(times, dtype=float)[order]
    acth_arr = (np.asarray(acth, dtype=float)[order]
                if acth[0] is not None else None)
    cort_arr = (np.asarray(cortisol, dtype=float)[order]
                if cortisol[0] is not None else None)
    try:
        return ObservationSeries(times=times_arr, acth=acth_arr,
                                 cortisol=cort_arr, subject_id=path.stem)
    except MetricError as exc:
        raise ObservationError(str(exc))


def write_csv(path, header, rows):
    """Write rows with canonical float formatting and \\n line endings.

    ``rows`` is an iterable of tuples, each cell written by ``fmt``, or a
    2-D float64 array, whose rows are written a block at a time with one
    ``_FLOAT`` template per cell: the same text, with fewer calls.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        if isinstance(rows, np.ndarray) and rows.dtype == np.float64:
            line = ",".join([_FLOAT] * rows.shape[1]) + "\n"
            for start in range(0, len(rows), _BLOCK_ROWS):
                block = rows[start:start + _BLOCK_ROWS]
                fh.write(line * len(block) % tuple(block.ravel().tolist()))
        else:
            for row in rows:
                fh.write(",".join(fmt(v) for v in row) + "\n")


def write_manifest(path, command, config: RunConfig, version,
                   extra: dict | None = None):
    """Resolved-config manifest; itself a valid config file for reruns."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [f"run.command = {command}", f"run.version = {version}"]
    for key, value in (extra or {}).items():
        lines.append(f"run.{key} = {value}")
    lines.extend(config_lines(config))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
