"""Seeded inputs for the benchmark workloads.

Everything here is a pure function of the workload seed and an index, so the
same seed gives the same subjects, observations and truths on every run. The
program under test only ever sees what these functions produce (config files,
observation CSVs and ``ParameterSet`` / ``ObservationSeries`` objects).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from hpa_dynamics import ObservationSeries, ParameterSet

# Subjects scale only rates and saturation constants; Hill exponents, phi and
# rho keep their reference values, so every subject is inside the model's
# domain (positive rates and constants, inhibition levels in [0, 1]).
PERTURBED = ("k1", "k2", "k3", "k4", "k5", "h1", "h2", "h3", "R_C", "R_A", "R_D")
SUBJECT_SIGMA = 0.05      # log-normal spread of each perturbed parameter
TRUTH_SIGMA = 0.3         # log-normal spread of the calibrate truth's k4, k5
NOISE_FRAC = 0.05         # multiplicative observation noise
CADENCE_MIN = 30.0        # observation cadence
JITTER_MIN = 5.0          # uniform jitter of interior observation times
DAY = 1440.0
# Subject parameters carry 12 significant digits, the precision at which the
# program writes floats (manifest.txt included), so a subject's config file
# holds exactly the values its manifest records.
DIGITS = 12

# One cohort block: a quarter of the subjects fixed-step. Within each mode the
# horizons are stratified over 1-3 days, so every block has nearly the same
# mix (runs end on a block boundary) and latencies spread without clusters.
BLOCK = ("fixed",) * 3 + ("adaptive",) * 9
MIN_DAYS, MAX_DAYS = 1.0, 3.0

_COHORT, _SUBJECT, _OBS, _TRUTH, _SENS, _SAMPLE = range(6)


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def subject_params(seed: int, stream: int, index: int) -> ParameterSet:
    """A virtual subject: each perturbed parameter scaled log-normally."""
    rng = _rng(seed, _SUBJECT, stream, index)
    ref = ParameterSet()
    scale = np.exp(SUBJECT_SIGMA * rng.standard_normal(len(PERTURBED)))
    return replace(ref, **{n: float(f"{getattr(ref, n) * s:.{DIGITS}g}")
                           for n, s in zip(PERTURBED, scale)})


def observation_times(rng: np.random.Generator, t_end: float) -> np.ndarray:
    """About 30-min cadence on [0, t_end]; interior times jittered, ends kept."""
    times = np.linspace(0.0, t_end, int(t_end // CADENCE_MIN) + 1)
    times[1:-1] += rng.uniform(-JITTER_MIN, JITTER_MIN, len(times) - 2)
    return times


def noisy(rng: np.random.Generator, clean: np.ndarray) -> np.ndarray:
    return np.maximum(clean * (1.0 + NOISE_FRAC * rng.standard_normal(clean.shape)),
                      1e-6)


@dataclass(frozen=True)
class CohortSubject:
    index: int
    params: ParameterSet
    t_end: float        # whole minutes
    mode: str
    obs_times: np.ndarray


def cohort_subject(seed: int, index: int) -> CohortSubject:
    """Subject ``index`` of the cohort; each block is shuffled."""
    block, pos = divmod(index, len(BLOCK))
    rng = _rng(seed, _COHORT, block)
    slot = rng.permutation(len(BLOCK))[pos]
    offset = rng.uniform(size=len(BLOCK))[slot]
    mode = BLOCK[slot]
    peers = [k for k, m in enumerate(BLOCK) if m == mode]
    share = (peers.index(slot) + offset) / len(peers)
    t_end = float(round((MIN_DAYS + (MAX_DAYS - MIN_DAYS) * share) * DAY))
    return CohortSubject(index=index, params=subject_params(seed, _COHORT, index),
                         t_end=t_end, mode=mode,
                         obs_times=observation_times(_rng(seed, _OBS, index), t_end))


def cohort_observations(seed: int, subject: CohortSubject, ref_times: np.ndarray,
                        ref_states: np.ndarray) -> np.ndarray:
    """Observed (acth, cortisol) rows for a subject's observation times.

    Values are the reference individual's trajectory with 5% noise: the
    cost of ``validate`` does not depend on them, and the score then says
    how far the subject lies from the reference.
    """
    rng = _rng(seed, _OBS, subject.index, 1)
    clean = np.column_stack([np.interp(subject.obs_times, ref_times, ref_states[:, j])
                             for j in (1, 2)])
    return noisy(rng, clean)


def sampled_cohort_index(seed: int) -> int:
    """The subject checked against the RK4 reference; always in block 0."""
    return int(_rng(seed, _SAMPLE).integers(len(BLOCK)))


def calibrate_truth(seed: int, index: int) -> tuple[ParameterSet, np.random.Generator]:
    """Truth for fit ``index``: reference with k4 and k5 scaled log-normally."""
    rng = _rng(seed, _TRUTH, index)
    ref = ParameterSet()
    f4, f5 = np.exp(TRUTH_SIGMA * rng.standard_normal(2))
    return replace(ref, k4=ref.k4 * float(f4), k5=ref.k5 * float(f5)), rng


def calibrate_observations(rng: np.random.Generator, times: np.ndarray,
                           acth: np.ndarray, cortisol: np.ndarray) -> ObservationSeries:
    return ObservationSeries(times=times, acth=noisy(rng, acth),
                             cortisol=noisy(rng, cortisol))


def sensitivity_subject(seed: int) -> ParameterSet:
    return subject_params(seed, _SENS, 0)
