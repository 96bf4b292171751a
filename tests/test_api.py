"""The public API of ``volrelax``, pinned: a change that adds or drops an
exported name edits this list, and so makes that change on purpose.
README's library example runs here too, so it cannot name a removed one."""

import dataclasses
import re
import types
from pathlib import Path

import pytest

import volrelax
from volrelax import PowerLawFit, errors, events, fitting, intraday, profiles, series, synth

PUBLIC = """
BootstrapResult BootstrapUnstable CRASH ConditionedProfile
CumulativeProfile DailyCadence DataError DegenerateZ ENDOGENOUS EXOGENOUS
EmptySeries EmptySlot EventLabel EventSet FitError
InsufficientPositivePoints IntradayPattern LabelDateUnmatched MalformedRow
NoEvents NonConvergence NonMonotoneTimestamp NonPositivePrice OmoriProfile
PlantedRelaxationSpec PowerLawFit PriceSeries RALLY ReturnSeries
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
    # dir, not vars: a name that loads on first use is not in vars before it.
    names = sorted(
        name for name in dir(volrelax)
        if not name.startswith("_") and not isinstance(getattr(volrelax, name), types.ModuleType)
    )
    assert names == sorted(PUBLIC)


def test_each_exported_name_is_declared_once_in_its_module():
    # The package re-exports each module's __all__ with a star import, so
    # two lists that shared a name would let the later one shadow it.
    lists = [set(m.__all__) for m in (errors, events, fitting, intraday, profiles, series)]
    assert sum(map(len, lists)) == len(set().union(*lists))
    assert sorted(set().union(*lists, volrelax._SYNTH)) == sorted(PUBLIC)
    assert list(volrelax._SYNTH) == synth.__all__
    assert volrelax.write_price_csv is volrelax.synth.write_price_csv
    star = {}
    exec("from volrelax import *", star)
    assert sorted(name for name in star if name != "__builtins__") == sorted(PUBLIC)


def test_power_law_fit_has_one_method_that_cannot_be_set():
    fields = dict(A=1.0, p=0.5, tau=0.0, fit_range=(2, 30), rms_log_residual=0.1)
    fit = PowerLawFit(**fields)
    assert fit.method == "full_fit"
    assert fit.summary().endswith(" (full_fit)")
    with pytest.raises(TypeError):
        PowerLawFit(**fields, method="full_fit")
    with pytest.raises(dataclasses.FrozenInstanceError):
        fit.method = "tail_slope"


def test_readme_library_quick_start_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.count("\n") == 1
