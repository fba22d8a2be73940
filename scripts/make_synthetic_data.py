#!/usr/bin/env python3
"""Regenerate data/synthetic_observations.csv and its .meta.txt.

One simulated day of ACTH and cortisol at 30-min cadence, from the reference
parameters after a burn-in capped at 10 days (it stops at the first day that
leaves the state unchanged), with seeded 5% multiplicative Gaussian noise.
Deterministic: rerunning reproduces the shipped files byte for byte.
``main(out_dir)`` writes them to another directory instead of data/.
"""

import pathlib

import numpy as np

from hpa_dynamics import IntegrationConfig, ParameterSet, integrate, sample
from hpa_dynamics.io import OBS_HEADER, fmt, write_csv

SEED = 2024
NOISE_FRAC = 0.05
CADENCE_MIN = 30.0


DATA_DIR = pathlib.Path(__file__).resolve().parent.parent / "data"


def main(out_dir=DATA_DIR):
    out_dir = pathlib.Path(out_dir)
    params = ParameterSet()
    cfg = IntegrationConfig(t0=0.0, t_end=1440.0, burn_in=14400.0)
    traj = integrate(cfg, params)
    times = np.arange(0.0, 1441.0, CADENCE_MIN)
    clean = sample(traj, times)

    rng = np.random.default_rng(SEED)
    noisy = clean * (1.0 + NOISE_FRAC * rng.standard_normal(clean.shape))
    noisy = np.maximum(noisy, 1e-6)

    write_csv(out_dir / "synthetic_observations.csv", OBS_HEADER,
              ((t, a, c) for t, (_, a, c) in zip(times, noisy)))
    meta = [
        "# generation settings for synthetic_observations.csv",
        f"seed = {SEED}",
        f"noise_frac = {fmt(NOISE_FRAC)}",
        f"cadence_min = {fmt(CADENCE_MIN)}",
        "params = reference defaults (ParameterSet())",
        "burn_in_min = 14400",
    ]
    (out_dir / "synthetic_observations.meta.txt").write_text(
        "\n".join(meta) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
