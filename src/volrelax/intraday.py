"""Intraday volatility pattern estimation and removal.

Markets show a systematic U-shaped volatility profile across the
trading day.  The pattern ``A(s)`` is the mean volatility in slot ``s``
normalized so that the average factor over slots is one; dividing each
observation by its slot factor flattens the seasonality without
changing the overall volatility scale.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DailyCadence, EmptySlot, SlotMismatch
from .series import _BLOCK, VolatilitySeries, _array_fields
from .tsv import read_tsv, write_tsv

__all__ = [
    "IntradayPattern",
    "estimate_pattern",
    "remove_pattern",
    "write_pattern_tsv",
    "read_pattern_tsv",
]


@dataclass(frozen=True)
class IntradayPattern:
    """Multiplicative seasonality factors, one per intraday slot."""

    factors: np.ndarray
    slots_per_day: int

    def __post_init__(self) -> None:
        (f,) = _array_fields(self, factors=np.float64)
        if f.size != self.slots_per_day:
            raise ValueError("need exactly one factor per slot")
        if not f.size:
            raise ValueError("a pattern needs at least one slot")
        if not np.all(np.isfinite(f) & (f > 0)):
            raise ValueError("pattern factors must be finite and positive")
        if abs(float(np.mean(f)) - 1.0) > 1e-12:
            raise ValueError("pattern factors must average to 1")


def estimate_pattern(vol: VolatilitySeries) -> IntradayPattern:
    """Per-slot mean volatility, normalized to unit average factor.

    Raises
    ------
    DailyCadence
        The series has a single slot per day, so there is no intraday
        pattern to estimate.
    EmptySlot
        Some slot has no observations, or only zero ones.
    """
    s = vol.slots_per_day
    if s < 2:
        raise DailyCadence("series has a single slot per day")
    # A block at a time, casting no whole intp copy of the slots; add.at sums in bincount's order.
    counts, sums = np.zeros(s, dtype=np.intp), np.zeros(s)
    for lo in range(0, vol.values.size, _BLOCK):
        counts += np.bincount(vol.slot_index[lo : lo + _BLOCK], minlength=s)
        np.add.at(sums, vol.slot_index[lo : lo + _BLOCK], vol.values[lo : lo + _BLOCK])
    if np.any(counts == 0):
        empty = np.flatnonzero(counts == 0)
        raise EmptySlot(f"no observations in slot(s) {empty.tolist()}")
    means = sums / counts
    if np.any(means == 0):
        zero = np.flatnonzero(means == 0)
        raise EmptySlot(f"only zero volatility in slot(s) {zero.tolist()}")
    return IntradayPattern(factors=means / means.mean(), slots_per_day=s)


def remove_pattern(vol: VolatilitySeries, pattern: IntradayPattern) -> VolatilitySeries:
    """Divide each observation by its slot factor, gathered a block at a time."""
    if pattern.slots_per_day != vol.slots_per_day:
        raise SlotMismatch(
            f"pattern has {pattern.slots_per_day} slots, series has {vol.slots_per_day}"
        )
    values = np.empty_like(vol.values)
    for lo in range(0, values.size, _BLOCK):
        at = slice(lo, lo + _BLOCK)
        np.divide(vol.values[at], pattern.factors[vol.slot_index[at]], out=values[at])
    return replace(vol, values=values, adjusted=True)


PATTERN_COLUMNS = {"slot": int, "factor": float}


def write_pattern_tsv(pattern: IntradayPattern, path: str) -> None:
    """Dump the pattern as ``slot<TAB>factor`` rows, one per slot."""
    write_tsv(path, PATTERN_COLUMNS, [np.arange(pattern.slots_per_day), pattern.factors])


def read_pattern_tsv(path: str) -> IntradayPattern:
    """Read a pattern dump back (inverse of :func:`write_pattern_tsv`)."""
    factors = read_tsv(path, PATTERN_COLUMNS)["factor"]
    return IntradayPattern(factors=np.asarray(factors), slots_per_day=len(factors))
