"""volrelax: event-conditioned volatility relaxation analysis.

Extract returns and volatility from price series, select
large-volatility events, compute remanent/anti-remanent profiles and
Omori-style aftershock counts around them, and fit the relaxation
exponents.  See the README for the CLI pipeline.
"""

from .errors import (
    BootstrapUnstable,
    DailyCadence,
    DataError,
    DegenerateZ,
    EmptySeries,
    EmptySlot,
    FitError,
    InsufficientPositivePoints,
    LabelDateUnmatched,
    MalformedRow,
    NoEvents,
    NonConvergence,
    NonMonotoneTimestamp,
    NonPositivePrice,
    SlotMismatch,
    TooShort,
    VolrelaxError,
    ZeroReturnEvent,
)
from .events import (
    CRASH,
    ENDOGENOUS,
    EXOGENOUS,
    RALLY,
    UNLABELED,
    EventLabel,
    EventSet,
    apply_labels,
    classify_sign,
    decluster,
    filter_events,
    load_packaged_labels,
    packaged_label_names,
    parse_label_file,
    read_label_file,
    select_events,
)
from .fitting import (
    BootstrapResult,
    PowerLawFit,
    bootstrap_errors,
    fit_cumulative,
    fit_offset_power_law,
    format_with_stderr,
    log_spaced_lags,
)
from .intraday import IntradayPattern, estimate_pattern, remove_pattern
from .profiles import (
    ConditionedProfile,
    CumulativeProfile,
    OmoriProfile,
    cumulative,
    omori_counts,
    read_omori_tsv,
    read_profile_tsv,
    remanent_profile,
)
from .series import (
    PriceSeries,
    ReturnSeries,
    VolatilitySeries,
    absolute_volatility,
    log_returns,
    mean_volatility,
    parse_price_csv,
    read_price_csv,
    reverse,
    shuffle_surrogate,
)
from .synth import (
    PlantedRelaxationSpec,
    gen_iid_gaussian,
    gen_intraday_modulated,
    gen_planted_relaxation,
    returns_to_prices,
    write_price_csv,
)

__version__ = "0.1.0"
