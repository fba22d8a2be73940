"""Shared fixtures: reference parameters and cached burned-in trajectories."""

from dataclasses import replace

import numpy as np
import pytest

from hpa_dynamics import (HormoneState, IntegrationConfig, ObservationSeries,
                          ParameterSet, integrate)


@pytest.fixture(scope="session")
def params():
    return ParameterSet()


@pytest.fixture(scope="session")
def burned_state(params):
    """State on the periodic attractor at midnight, after the default burn-in."""
    cfg = IntegrationConfig(t0=0.0, t_end=0.0, burn_in=14400.0)
    return HormoneState(*integrate(cfg, params).states[-1])


@pytest.fixture(scope="session")
def two_day_traj(params):
    """Two days on the attractor, 1-min output grid."""
    cfg = IntegrationConfig(t0=0.0, t_end=2880.0, burn_in=14400.0)
    return integrate(cfg, params)


@pytest.fixture(scope="session")
def one_day_traj(two_day_traj):
    from hpa_dynamics import Trajectory
    return Trajectory(two_day_traj.times[:1441], two_day_traj.states[:1441],
                      two_day_traj.params)


@pytest.fixture(scope="session")
def report(params):
    """Full default sensitivity report (shared: it is the slow fixture)."""
    from hpa_dynamics import rank_parameters
    return rank_parameters(params)


def make_observations(traj, times):
    """Noise-free observations sampled from a trajectory."""
    from hpa_dynamics import sample
    values = sample(traj, times)
    return ObservationSeries(times=np.asarray(times, dtype=float),
                             acth=values[:, 1], cortisol=values[:, 2])


def far_copies(p, factor):
    """Copies of p with k5, then k4, scaled by ``factor``: their attractors
    lie so far from p's that a batch seeded from p's run does not settle on
    its first recorded day (2 settles on the second, 3 on the third)."""
    return [replace(p, k5=factor * p.k5), replace(p, k4=factor * p.k4)]
