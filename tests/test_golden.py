"""Golden outputs: SHA-256 digests of CLI files and exact integrator states.

These pin the bytes the program writes and the bits the integrators return,
so a refactor of the march, the steppers or the RHS that is meant to leave
the arithmetic alone must leave every digest here unchanged. A change that
alters results on purpose updates the digests and says so.
"""

import hashlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from conftest import far_copies

from hpa_dynamics import (FitProblem, IntegrationConfig, ObservationSeries,
                          ParameterSet, fit, integrate)
from hpa_dynamics.cli import EXIT_OK, main
from hpa_dynamics.integrator import _rk4_step, integrate_batch
from hpa_dynamics.model import _rhs

DATA = Path(__file__).resolve().parents[1] / "data" / "synthetic_observations.csv"


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# case: (config text, command and its arguments, {output file: digest})
GOLDEN_FILES = {
    "simulate-adaptive": ("", ("simulate",), {
        "trajectory.csv": "6bbb7ffe634c87d56fa4ce5550a639a19e831c984aee62283afc42db695a78b5",
        "manifest.txt": "e82e219eff8853e189ddc6db9f094d013c024530bafedac8cd1be213af25e06b",
    }),
    "simulate-fixed": (
        "integrate.mode = fixed\nintegrate.dt_min = 1\nintegrate.burn_in_min = 1440\n",
        ("simulate",), {
            "trajectory.csv": "5841c131ef1d134329fe06d305598409bae8ec8e36ba16ac86ed26f1fac3533c",
            "manifest.txt": "7ce2c145e06111c7f499a1cc31e193fb1e57bcc7e1d467937e3e534ded8bfb29",
        }),
    "validate": ("", ("validate", "--data", str(DATA)), {
        "scores.csv": "bc9c69fe225ce070a40f10bf0c7d96e9a8fb2ea9a8ba3e55da2ef3634bb5b00c",
    }),
    "sensitivity": ("integrate.burn_in_min = 1440\nsens.grid_dt_min = 10\n", ("sensitivity",), {
        "sensitivity.csv": "05d188948322355114ea84faaf933f5272dedeee6990b0974eba34d2f0623ca5",
    }),
    # the defaults: a converged baseline on a one-day grid, so the batch
    # is seeded from the baseline's state (the two cases above and below
    # stop the baseline's burn-in after one unconverged day, so theirs runs
    # cold)
    "sensitivity-seeded": ("", ("sensitivity",), {
        "sensitivity.csv": "360d4e8c6d89018f321d52d04d69dba60c0ecd9b43a5da549692d42070a9d633",
        "correlation.csv": "81205ed008fbcd067b16c38bba9e588bcdb3dcf6338be9753641c2b0d640085f",
    }),
    # a 4-min step does not divide the observation times, so each is
    # interpolated within its step; when steps landed on them instead, ACTH
    # MAPE read 4.03792564684 and cortisol MAPE 3.32132661872 (now
    # 4.03792630745 and 3.32132664863, 1.6e-7 and 9e-9 relative)
    "validate-fixed": (
        "integrate.mode = fixed\nintegrate.dt_min = 4\n",
        ("validate", "--data", str(DATA)), {
            "scores.csv": "86a55678d7dcd7accebf28d738b9249d677faca6cfc895cf7a45b2f2696b5532",
        }),
    "sensitivity-fixed": (
        "integrate.mode = fixed\nintegrate.dt_min = 1\nintegrate.burn_in_min = 1440\n"
        "sens.grid_dt_min = 10\n", ("sensitivity",), {
            "sensitivity.csv": "d2a7c1e7dcf7ef0832d51b87009c76fe5bedd3e127bb05cab017bcb9227fa2e6",
        }),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_FILES))
def test_cli_outputs_unchanged(tmp_path, monkeypatch, case):
    config_text, argv, expected = GOLDEN_FILES[case]
    # a relative --out keeps the manifest's out.dir line independent of tmp_path
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text(config_text, encoding="utf-8")
    assert main([*argv, "--config", "run.cfg", "--out", "out"]) == EXIT_OK
    got = {name: digest((tmp_path / "out" / name).read_bytes()) for name in expected}
    assert got == expected


BATCH_SETS = [ParameterSet(), ParameterSet(k4=0.09), ParameterSet(R_C=0.95, xi=2.2)]
BATCH_CFG = IntegrationConfig(t0=0, t_end=180, burn_in=720, dt=1.0)


@pytest.mark.parametrize("mode, expected", [
    ("adaptive", "638b554bc84ef37e49cc8eae2bc65ee39f5dd3c70c8175f4523c2ef44bc57fe9"),
    ("fixed", "f27d089eb970267c2dd7e9e43a31f4525de9192f0e7e81ac75af332c55018774"),
], ids=["adaptive", "fixed"])
def test_batch_states_unchanged(mode, expected):
    trajs = integrate_batch(replace(BATCH_CFG, mode=mode), BATCH_SETS)
    assert digest(np.stack([t.states for t in trajs]).tobytes()) == expected


@pytest.mark.parametrize("factor, expected", [
    (2.0, "e03114b0415ef94fe28b506c4702b8bb624ce76eacf4db69db034bbfe71b970b"),
    (3.0, "f640099bfb0a177111ccab9823be5b583e3108d61ebd18699aa941d8f63023bd"),
], ids=["x2", "x3"])
def test_marched_on_seeded_batch_unchanged(factor, expected):
    # seeded from the default run, the batch marches on one (x2) or two
    # (x3) days past its first recorded one, re-recording the window each
    p = ParameterSet()
    near = integrate(IntegrationConfig(), p)
    trajs = integrate_batch(IntegrationConfig(), far_copies(p, factor), near=near)
    assert digest(np.stack([t.states for t in trajs]).tobytes()) == expected


def test_burned_in_state_unchanged():
    # the burn-in records nothing, so dense output leaves its steps alone
    states = integrate(IntegrationConfig(t_end=0.0), ParameterSet()).states
    assert digest(states.tobytes()) == (
        "bb8c248daf65d7d40266cf4b3b6903b544811769a1c3111afa0c6855148736c7")


def test_fixed_batch_members_equal_their_own_runs():
    # in fixed mode no member influences another's steps, so a member's
    # states are exactly those of a batch holding it alone
    cfg = replace(BATCH_CFG, mode="fixed")
    for traj, p in zip(integrate_batch(cfg, BATCH_SETS), BATCH_SETS):
        assert np.array_equal(traj.states, integrate_batch(cfg, [p])[0].states)


def test_rk4_step_frozen_daylight_unchanged():
    y, p = (1.5, 20.0, 3.0), ParameterSet()
    got, _ = _rk4_step(100.0, y, _rhs(100.0, *y, p, 0.7), 0.5, p, 0.7, _rhs)
    assert [v.hex() for v in got] == [
        "0x1.602514e145b82p+0", "0x1.3bd47da767352p+4", "0x1.83716bc8d8265p+1"]


def test_fit_unchanged():
    # every candidate and value a seeded multi-start fit passes to
    # on_evaluate, then its result; the first start converges after 112
    # evaluations and the budget runs out inside the second
    cfg = IntegrationConfig(t0=0, t_end=360, burn_in=720)
    times = np.arange(0.0, 361.0, 30.0)
    truth = ParameterSet(k4=0.095, k5=0.0039)
    clean = integrate(cfg, truth, output_times=times).states
    noise = 1.0 + 0.05 * np.random.default_rng(11).standard_normal((2, len(times)))
    obs = ObservationSeries(times=times, acth=clean[:, 1] * noise[0],
                            cortisol=clean[:, 2] * noise[1])
    prob = FitProblem(free_names=("k4", "k5"), integration=cfg)
    seen = []
    result = fit(prob, obs, budget=150, seed=4, n_starts=3,
                 on_evaluate=lambda x, v: seen.append(x.tobytes() + np.float64(v).tobytes()))
    summary = repr((result.history, result.evaluations, result.converged,
                    result.fitted.k4, result.fitted.k5, result.objective_value))
    assert digest(b"".join(seen) + summary.encode()) == (
        "0da12b0477eac49e90ba027c4570a3ca77807dc3e749617685e44ec26fffd538")
