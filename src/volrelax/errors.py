"""Exception taxonomy for volrelax.

Two broad families: :class:`DataError` for problems with the input series
or event selection (malformed rows, degenerate statistics, ...) and
:class:`FitError` for estimation failures (too few usable points,
optimizer breakdown).  The CLI maps these onto distinct exit codes.
"""

from __future__ import annotations


class VolrelaxError(Exception):
    """Base class for all volrelax errors."""


class DataError(VolrelaxError):
    """Input data or event-selection problem."""


class FitError(VolrelaxError):
    """Estimation failure."""


class MalformedRow(DataError):
    """A CSV or label-file row could not be parsed."""


class NonMonotoneTimestamp(DataError):
    """Timestamps are not strictly increasing."""


class NonPositivePrice(DataError):
    """A price is zero, negative, or not finite."""


class TooShort(DataError):
    """Fewer than two price records: no return can be formed."""


class EmptySeries(DataError):
    """An operation needs at least one observation, got none."""


class EmptySlot(DataError):
    """An intraday slot has no observations, or only zero ones, so no pattern factor exists."""


class DailyCadence(DataError):
    """Intraday pattern requested on a series with one slot per day."""


class SlotMismatch(DataError):
    """A slot grid or cadence that does not match the series: a pattern's, or one a run declares."""


class NoEvents(DataError):
    """No event exceeds the threshold (after any filtering)."""


class ZeroReturnEvent(DataError):
    """An event's underlying return is exactly zero: sign undefined."""


class DegenerateZ(DataError):
    """Normalization Z = <|R|>_events - sigma is not positive."""


class InsufficientPositivePoints(FitError):
    """Too few strictly positive values in the requested fit window."""


class NonConvergence(FitError):
    """Optimizer failed to converge from every starting point."""


class BootstrapUnstable(FitError):
    """More than 10% of bootstrap replicas failed to fit."""


class LabelDateUnmatched(UserWarning):
    """A label-file date matched no selected event."""
