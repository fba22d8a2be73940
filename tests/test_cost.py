"""Cost ledger: the model RHS calls of each layer's default call, and the
step tries and forcing evaluations of ``integrate``.

An RHS call is one call of ``integrator._rhs``, for one model or for a
whole batch. A count moves only when the work a layer does changes: the
steps taken, the burn-in days, the batch members' shared steps, or the
evaluations of a fit. A change that means to move one updates its row and
says why; one that does not must leave every row as it is.
"""

from pathlib import Path

import pytest

from hpa_dynamics import (FitProblem, IntegrationConfig, cli, fit, integrate,
                          integrator, model, objective, rank_parameters, si_timeseries)
from hpa_dynamics.io import parse_observations

DATA = Path(__file__).resolve().parent.parent / "data" / "synthetic_observations.csv"


def _start(prob):
    return [getattr(prob.base, name) for name in prob.free_names]


# (layer, call with the reference parameters and the shipped observations,
# RHS calls)
LEDGER = [
    # a burn-in that converges on its second day, then one day on a 1-min grid
    ("integrate", lambda p, obs: integrate(IntegrationConfig(), p), 7740),
    ("integrate burn-in only",
     lambda p, obs: integrate(IntegrationConfig(t_end=0.0), p), 5378),
    # one baseline run and one 76-member batch
    ("rank_parameters", lambda p, obs: rank_parameters(p), 12495),
    # one baseline run and one 2-member batch
    ("si_timeseries k2", lambda p, obs: si_timeseries(p, "k2"), 12476),
    ("objective", lambda p, obs: objective(_start(FitProblem()), FitProblem(), obs),
     7740),
    # the benchmark's calibrate budget
    ("fit budget 50", lambda p, obs: fit(FitProblem(), obs, budget=50), 439716),
]


# (command, its flags besides --config and --out, config text, RHS calls)
COMMANDS = [
    # default integrate, written to trajectory.csv
    ("simulate", (), "", 7740),
    # one integrate landing on the observation times
    ("validate", ("--data", str(DATA)), "", 7740),
    ("sensitivity", (), "", 12495),
    ("daylight", (), "", 0),
    # the default budget of 5,000 is too slow for Tier-1; the final score
    # is one more integrate
    ("fit", ("--data", str(DATA)), "fit.budget = 20\n", 196396),
]


# the default run, and a fixed-mode run of 2 burn-in and 3 recorded days
DEFAULT = IntegrationConfig()
FIXED = IntegrationConfig(mode="fixed", t_end=4320.0)

# (name, call with the reference parameters, (module, function) pairs
# counted, calls)
STEPS = [
    # 1,272 of the step tries are accepted
    ("_ck_step tries", lambda p: integrate(DEFAULT, p), [(integrator, "_ck_step")], 1293),
    ("_rk4_step steps", lambda p: integrate(FIXED, p), [(integrator, "_rk4_step")], 14400),
    # one per stage of a step try (RK4's two midpoints share one), one per
    # stop and the start state's: an accepted step's end derivative reuses
    # its last stage's (7,741 and 43,204 when each RHS call took its own)
    ("daylight adaptive", lambda p: integrate(DEFAULT, p),
     [(model, "daylight"), (integrator, "daylight")], 6469),
    ("daylight fixed", lambda p: integrate(FIXED, p),
     [(model, "daylight"), (integrator, "daylight")], 28804),
]


def _count(monkeypatch, call, places):
    """The calls of the functions at ``places``, (module, name) pairs, that
    ``call()`` makes, and what it returns."""
    calls = 0

    def counting(real):
        def counted(*args):
            nonlocal calls
            calls += 1
            return real(*args)
        return counted

    for module, name in places:
        monkeypatch.setattr(module, name, counting(getattr(module, name)))
    result = call()
    return calls, result


def _count_rhs(monkeypatch, call):
    """The RHS calls that ``call()`` makes, and what it returns."""
    return _count(monkeypatch, call, [(integrator, "_rhs")])


@pytest.mark.parametrize("call, expected", [row[1:] for row in LEDGER],
                         ids=[row[0] for row in LEDGER])
def test_rhs_calls(params, monkeypatch, call, expected):
    obs = parse_observations(DATA)
    assert _count_rhs(monkeypatch, lambda: call(params, obs))[0] == expected


@pytest.mark.parametrize("command, flags, text, expected", COMMANDS,
                         ids=[row[0] for row in COMMANDS])
def test_command_rhs_calls(tmp_path, monkeypatch, command, flags, text, expected):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text, encoding="utf-8")
    argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out"), *flags]
    assert _count_rhs(monkeypatch, lambda: cli.main(argv)) == (expected, cli.EXIT_OK)


def test_every_command_has_a_row():
    # a command added to the CLI's table gets a ledger row too
    assert sorted(row[0] for row in COMMANDS) == sorted(cli.COMMANDS)


@pytest.mark.parametrize("call, places, expected", [row[1:] for row in STEPS],
                         ids=[row[0] for row in STEPS])
def test_step_and_forcing_calls(params, monkeypatch, call, places, expected):
    assert _count(monkeypatch, lambda: call(params), places)[0] == expected
