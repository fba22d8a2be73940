"""The shipped synthetic observations are what their script generates."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_script():
    spec = importlib.util.spec_from_file_location(
        "make_synthetic_data", ROOT / "scripts" / "make_synthetic_data.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_default_output_is_the_data_directory():
    assert load_script().DATA_DIR == ROOT / "data"


def test_regeneration_reproduces_shipped_bytes(tmp_path):
    load_script().main(tmp_path)
    for name in ("synthetic_observations.csv", "synthetic_observations.meta.txt"):
        assert (tmp_path / name).read_bytes() == (ROOT / "data" / name).read_bytes()
