"""volrelax: event-conditioned volatility relaxation analysis.

Extract returns and volatility from price series, select
large-volatility events, compute remanent/anti-remanent profiles and
Omori-style aftershock counts around them, and fit the relaxation
exponents.  See the README for the CLI pipeline.

Each module's ``__all__`` is the list of names the package exports from
it.  ``synth``'s names load on first use, so an analysis run, which never
calls the generators or the CSV writer, does not import them.
"""

from . import errors, events, fitting, intraday, profiles, series
from .errors import *
from .events import *
from .fitting import *
from .intraday import *
from .profiles import *
from .series import *

_SYNTH = (
    "PlantedRelaxationSpec", "gen_iid_gaussian", "gen_planted_relaxation",
    "gen_intraday_modulated", "returns_to_prices", "write_price_csv",
)

__all__ = [
    *errors.__all__, *events.__all__, *fitting.__all__, *intraday.__all__,
    *profiles.__all__, *series.__all__, *_SYNTH,
]

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _SYNTH:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import synth

    return getattr(synth, name)


def __dir__():
    return [*globals(), *_SYNTH]
