"""The public API of ``volrelax``, pinned: a change that adds or drops an
exported name edits this list, and so makes that change on purpose."""

import dataclasses
import types

import pytest

import volrelax
from volrelax import PowerLawFit

PUBLIC = """
BootstrapResult BootstrapUnstable CRASH ConditionedProfile CsvSchema
CumulativeProfile DailyCadence DataError DegenerateZ ENDOGENOUS EXOGENOUS
EmptySeries EmptySlot EventLabel EventSet FitConfig FitError
InsufficientPositivePoints IntradayPattern LabelDateUnmatched MalformedRow
NoEvents NonConvergence NonMonotoneTimestamp NonPositivePrice OmoriProfile
PlantedRelaxationSpec PowerLawFit PriceSeries RALLY ReturnSeries SeriesStats
SlotMismatch TooShort UNLABELED VolatilitySeries VolrelaxError ZeroReturnEvent
absolute_volatility apply_labels bootstrap_errors classify_sign cumulative
decluster estimate_pattern filter_events fit_cumulative fit_offset_power_law
format_with_stderr gen_iid_gaussian gen_intraday_modulated
gen_planted_relaxation load_packaged_labels log_returns log_spaced_lags
mean_volatility omori_counts packaged_label_names parse_label_file
parse_price_csv read_label_file read_omori_tsv read_price_csv read_profile_tsv
remanent_profile remove_pattern returns_to_prices reverse select_events
shuffle_surrogate write_price_csv
""".split()


def test_public_names_are_the_pinned_list():
    names = sorted(
        name for name, value in vars(volrelax).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == sorted(PUBLIC)


def test_power_law_fit_has_one_method_that_cannot_be_set():
    fields = dict(A=1.0, p=0.5, tau=0.0, fit_range=(2, 30), rms_log_residual=0.1)
    fit = PowerLawFit(**fields)
    assert fit.method == "full_fit"
    assert fit.summary().endswith(" (full_fit)")
    with pytest.raises(TypeError):
        PowerLawFit(**fields, method="full_fit")
    with pytest.raises(dataclasses.FrozenInstanceError):
        fit.method = "tail_slope"
