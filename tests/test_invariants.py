"""Invariant and argument checks: each refuses one bad field with its error type."""

import dataclasses
import os

import numpy as np
import pytest

from volrelax.errors import EmptySeries, InsufficientPositivePoints, MalformedRow, NoEvents, TooShort
from volrelax.events import EventLabel, EventSet
from volrelax.fitting import PowerLawFit, bootstrap_errors, fit_offset_power_law
from volrelax.profiles import (
    ConditionedProfile,
    CumulativeProfile,
    OmoriProfile,
    omori_counts,
    remanent_profile,
    write_omori_tsv,
)
from volrelax.series import PriceSeries, ReturnSeries, VolatilitySeries, mean_volatility
from volrelax.synth import PlantedRelaxationSpec, returns_to_prices

FIT = PowerLawFit(A=1.0, p=0.5, tau=0.0, fit_range=(2, 30), rms_log_residual=0.1)
PROFILE = ConditionedProfile(
    max_lag=2, v_minus=[1.0, 0.5, 0.2], v_plus=[1.0, 0.4, 0.1], counts_minus=[3, 2, 1],
    counts_plus=[3, 3, 2], Z=0.5, sigma=0.01, n_events=3,
)
CUM = CumulativeProfile(profile=PROFILE, V_minus=[0.0, 0.5, 0.7], V_plus=[0.0, 0.4, 0.5])
OMORI = OmoriProfile(
    max_lag=2, N_minus=[0.0, 0.5, 1.0], N_plus=[0.0, 1.0, 1.5], zeta_main=0.12, zeta1=0.04,
    zeta_main_multiple=12.0, zeta1_multiple=4.0, n_mainshocks=3,
)
EVENTS = EventSet(
    indices=[1, 5], zeta_multiple=4.0, zeta_abs=0.04, magnitudes=[0.05, 0.06], signs=[1, -1],
    origins=["unlabeled", "unlabeled"],
)
NO_EVENTS = EventSet(
    indices=[], zeta_multiple=4.0, zeta_abs=0.04, magnitudes=[], signs=[], origins=[]
)
PRICES = PriceSeries(
    timestamps=np.array(["2000-01-03", "2000-01-04", "2000-01-05"], dtype="datetime64[s]"),
    prices=[1.0, 2.0, 3.0], cadence="daily", slots_per_day=1, slot_index=[0, 0, 0],
)
GRID = {"slot_index": [0] * 8, "slots_per_day": 1, "cadence": "daily"}
RETURNS = ReturnSeries(values=[0.01] * 8, **GRID)
VOL = VolatilitySeries(values=[0.01, 0.05, 0.01, 0.01, 0.01, 0.06, 0.01, 0.01], **GRID)
SPEC = PlantedRelaxationSpec(
    n=100, sigma0=0.01, shock_rate=50.0, boost=3.0, p=0.3, tau=0.0, shock_magnitude=10.0, seed=1
)


def _with(obj, **changes):
    return lambda: dataclasses.replace(obj, **changes)


_CASES = {
    # The method is the class constant ``full_fit``: it cannot be passed.
    "PowerLawFit method": (TypeError, _with(FIT, method="guess")),
    "PowerLawFit A": (ValueError, _with(FIT, A=0.0)),
    "PowerLawFit tau": (ValueError, _with(FIT, tau=-1.0)),
    "PowerLawFit fit_range": (ValueError, _with(FIT, fit_range=(0, 30))),
    "PowerLawFit rms_log_residual": (ValueError, _with(FIT, rms_log_residual=float("nan"))),
    "PowerLawFit p_stderr": (ValueError, _with(FIT, p_stderr=-0.1)),
    # The fit range [1, 2] is valid, so the tau_mode check is the one that refuses.
    "bootstrap_errors tau_mode": (
        ValueError,
        lambda: bootstrap_errors(VOL, EVENTS, 2, 2, 0, t_min=1, tau_mode="pinned"),
    ),
    "bootstrap_errors t_min": (ValueError, lambda: bootstrap_errors(VOL, EVENTS, 2, 2, 0, t_min=0)),
    "ConditionedProfile v_minus": (ValueError, _with(PROFILE, v_minus=[1.0, 0.5])),
    "ConditionedProfile max_lag": (
        ValueError,
        _with(PROFILE, max_lag=0, v_minus=[1.0], v_plus=[1.0], counts_minus=[3], counts_plus=[3]),
    ),
    "ConditionedProfile n_events": (NoEvents, _with(PROFILE, n_events=0)),
    "ConditionedProfile counts_minus": (ValueError, _with(PROFILE, counts_minus=[2, 2, 1])),
    "CumulativeProfile V_minus length": (ValueError, _with(CUM, V_minus=[0.0, 0.5])),
    "CumulativeProfile V_minus[0]": (ValueError, _with(CUM, V_minus=[0.1, 0.5, 0.7])),
    "OmoriProfile N_minus length": (ValueError, _with(OMORI, N_minus=[0.0, 0.5])),
    "OmoriProfile N_minus[0]": (ValueError, _with(OMORI, N_minus=[0.5, 0.5, 1.0])),
    "OmoriProfile N_minus decreasing": (ValueError, _with(OMORI, N_minus=[0.0, 1.0, 0.5])),
    "OmoriProfile N_plus above t": (ValueError, _with(OMORI, N_plus=[0.0, 1.5, 1.5])),
    "OmoriProfile zeta1": (ValueError, _with(OMORI, zeta1=0.2)),
    "EventSet magnitudes": (ValueError, _with(EVENTS, magnitudes=[0.05])),
    "EventSet zeta_abs": (ValueError, _with(EVENTS, zeta_abs=float("nan"))),
    "EventSet zeta_abs zero": (ValueError, _with(EVENTS, zeta_abs=0.0)),
    "EventSet indices": (ValueError, _with(EVENTS, indices=[-1, 5])),
    "EventSet origins": (ValueError, _with(EVENTS, origins=["exogenous", "other"])),
    "EventLabel origin": (MalformedRow, lambda: EventLabel(date="2000-01-03", origin="other")),
    "PriceSeries one record": (
        TooShort,
        _with(PRICES, timestamps=PRICES.timestamps[:1], prices=[1.0], slot_index=[0]),
    ),
    "PriceSeries prices": (ValueError, _with(PRICES, prices=[1.0, 2.0])),
    "PriceSeries slots_per_day": (ValueError, _with(PRICES, slots_per_day=0)),
    "PriceSeries slot_index": (ValueError, _with(PRICES, slot_index=[0, 1, 0])),
    "ReturnSeries values": (ValueError, _with(RETURNS, values=[0.01] * 7 + [float("inf")])),
    "VolatilitySeries values": (ValueError, _with(VOL, values=[-0.01] + [0.01] * 7)),
    "mean_volatility sigma": (
        EmptySeries, lambda: mean_volatility(dataclasses.replace(VOL, values=[0.0] * 8))
    ),
    "PlantedRelaxationSpec shock_rate": (ValueError, _with(SPEC, shock_rate=0.0)),
    "remanent_profile max_lag": (ValueError, lambda: remanent_profile(VOL, EVENTS, 0)),
    "omori_counts max_lag": (ValueError, lambda: omori_counts(VOL, EVENTS, 2.0, 0)),
    "omori_counts no mainshocks": (NoEvents, lambda: omori_counts(VOL, NO_EVENTS, 2.0, 2)),
    "write_omori_tsv max_lag": (
        ValueError,
        lambda: write_omori_tsv(
            CUM, dataclasses.replace(OMORI, max_lag=1, N_minus=[0, 1], N_plus=[0, 1]), os.devnull
        ),
    ),
    "bootstrap_errors no events": (NoEvents, lambda: bootstrap_errors(VOL, NO_EVENTS, 2, 2, 0)),
    "fit with no computed lag in its range": (
        InsufficientPositivePoints,
        lambda: fit_offset_power_law([1, 100], [1.0, 2.0], t_min=2, t_max=99),
    ),
    "fit with a repeated lag": (
        ValueError,
        lambda: fit_offset_power_law([1, 2, 2, 3, 4], [1.0, 0.8, 0.7, 0.6, 0.5], t_min=1),
    ),
    "returns_to_prices p0": (ValueError, lambda: returns_to_prices(RETURNS, p0=0.0)),
}


@pytest.mark.parametrize("case", sorted(_CASES))
def test_each_check_refuses_one_bad_field(case):
    error, build = _CASES[case]
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error
