"""Calibration of the bootstrap stderr of ``p`` (Efron and Tibshirani,
"An Introduction to the Bootstrap", 1993, ch. 6 and 12-14).

Over 16 daily plants that differ only in their generator seed, the
seed-to-seed spread of the fitted ``p`` is what ``p_stderr`` claims to
estimate.  The rate was stated before the gate first ran: at z2 and z4,
per side, the sample sd of ``p`` over the seeds lies within a factor 1.5
of the median ``p_stderr``.  The seeds are fixed; measured ratios are
0.89 (z2 +), 0.92 (z2 -), 1.02 (z4 +) and 1.17 (z4 -).  At z6 (1 to 9
events per plant) the stderr understates the spread, which the
README states; it is not gated here.
"""

import numpy as np
import pytest

from volrelax import (
    FitConfig,
    PlantedRelaxationSpec,
    absolute_volatility,
    bootstrap_errors,
    cumulative,
    fit_cumulative,
    gen_planted_relaxation,
    remanent_profile,
    select_events,
)

SEEDS = range(1, 17)
FACTOR = 1.5


@pytest.fixture(scope="module")
def vols():
    return [
        absolute_volatility(gen_planted_relaxation(PlantedRelaxationSpec(
            n=12500, sigma0=0.01, shock_rate=500, boost=3, p=0.3, tau=0, shock_magnitude=10, seed=seed
        )))
        for seed in SEEDS
    ]


@pytest.mark.parametrize("m", [2.0, 4.0])
def test_p_stderr_matches_the_spread_of_p_over_seeds(vols, m):
    p = {"-": [], "+": []}
    stderr = {"-": [], "+": []}
    for vol in vols:
        events = select_events(vol, m)
        cum = cumulative(remanent_profile(vol, events, 100))
        boot = bootstrap_errors(vol, events, FitConfig(100, 2, 30, "fixed_zero"), 20, 1)
        for side, err in (("-", boot.stderr_minus), ("+", boot.stderr_plus)):
            p[side].append(fit_cumulative(cum, side, 2, 30, "fixed_zero").p)
            stderr[side].append(err)
    for side in "-+":
        ratio = np.std(p[side], ddof=1) / np.median(stderr[side])
        assert 1 / FACTOR <= ratio <= FACTOR, (m, side, ratio)
