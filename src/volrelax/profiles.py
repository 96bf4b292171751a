"""Event-conditioned volatility profiles and aftershock counts.

Given a volatility series and a set of large-volatility events at
positions ``t'``, the *remanent* profile ``v_plus(t)`` measures the
normalized mean volatility ``t`` steps after the events, and the
*anti-remanent* profile ``v_minus(t)`` the same quantity ``t`` steps
before them:

    v(t) = [<|R(t' +/- t)|>_c - sigma] / Z,      Z = <|R(t')|>_c - sigma

where ``<.>_c`` averages over the events whose offset stays inside the
series and ``sigma`` is the mean volatility of the whole series.  By
construction ``v(0) = 1`` and, for independent data, ``v(t >= 1)``
vanishes in expectation.

``V(t) = sum_{s=1..t} v(s)`` accumulates the profile into the smoother
object that is actually fitted.  The Omori-style counts ``N(t)`` use a
second, lower threshold: they give the mean number of steps within
``t`` of a mainshock whose volatility exceeds ``zeta1``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateZ, NoEvents
from .events import EventSet
from .series import SeriesStats, VolatilitySeries, _array_fields, mean_volatility
from .tsv import read_tsv, write_tsv

__all__ = [
    "ConditionedProfile",
    "CumulativeProfile",
    "OmoriProfile",
    "remanent_profile",
    "cumulative",
    "omori_counts",
    "write_profile_tsv",
    "read_profile_tsv",
    "write_omori_tsv",
    "read_omori_tsv",
]

# Cells (events x lags) processed per accumulation chunk.  The chunk
# size fixes the floating-point summation order of every per-lag sum:
# each chunk's rows are added in event order, then the chunk total is
# added to the running sum.  Changing it, or summing along the lag axis
# instead, changes the output bytes.
_CHUNK_CELLS = 2_000_000
# Cells gathered at once within a chunk, to bound the gather's memory.  A
# block starts from the chunk's sum so far and the axis-0 sum adds its rows
# in order, so the block size cannot change a byte.
_BLOCK_CELLS = 1 << 16

# Column name -> cell type, in file order.
PROFILE_COLUMNS = {
    "t": int, "v_minus": float, "v_plus": float, "V_minus": float, "V_plus": float,
    "count_minus": int, "count_plus": int,
}
OMORI_COLUMNS = {**PROFILE_COLUMNS, "N_minus": float, "N_plus": float}


@dataclass(frozen=True)
class ConditionedProfile:
    """Remanent/anti-remanent profiles on lags ``0..max_lag``.

    ``counts_minus[t]``/``counts_plus[t]`` record how many events had
    ``t' -/+ t`` inside the series, i.e. the denominators of the
    conditional averages.  Lags no event can reach hold NaN.
    """

    max_lag: int
    v_minus: np.ndarray
    v_plus: np.ndarray
    counts_minus: np.ndarray
    counts_plus: np.ndarray
    Z: float
    sigma: float
    n_events: int

    def __post_init__(self) -> None:
        vm, vp, cm, cp = _array_fields(
            self, v_minus=np.float64, v_plus=np.float64, counts_minus=np.int64, counts_plus=np.int64
        )
        for name, arr in (("v_minus", vm), ("v_plus", vp), ("counts_minus", cm), ("counts_plus", cp)):
            if arr.shape != (self.max_lag + 1,):
                raise ValueError(f"{name} must have max_lag+1 entries")
        if self.max_lag < 1:
            raise ValueError("max_lag must be >= 1")
        if self.n_events < 1:
            raise NoEvents("profile needs at least one event")
        if not (vm[0] == 1.0 and vp[0] == 1.0):
            raise ValueError("v(0) must be exactly 1")
        if cm[0] != self.n_events or cp[0] != self.n_events:
            raise ValueError("lag-0 counts must equal n_events")
        if np.any(np.diff(cm) > 0) or np.any(np.diff(cp) > 0):
            raise ValueError("counts must be nonincreasing in lag")


@dataclass(frozen=True)
class CumulativeProfile:
    """Partial sums ``V(t) = sum_{s=1..t} v(s)`` with ``V(0) = 0``.

    Arrays are indexed by lag like the parent profile, so ``V_plus[t]``
    is ``V_plus(t)`` directly.
    """

    profile: ConditionedProfile
    V_minus: np.ndarray
    V_plus: np.ndarray

    def __post_init__(self) -> None:
        vm, vp = _array_fields(self, V_minus=np.float64, V_plus=np.float64)
        n = self.profile.max_lag + 1
        if vm.shape != (n,) or vp.shape != (n,):
            raise ValueError("cumulative arrays must align with the profile")
        if vm[0] != 0.0 or vp[0] != 0.0:
            raise ValueError("V(0) must be 0")

    @property
    def lags(self) -> np.ndarray:
        return np.arange(self.profile.max_lag + 1, dtype=np.int64)

    def side(self, side: str) -> np.ndarray:
        """The ``V`` array for side ``'-'`` (before) or ``'+'`` (after)."""
        return _side(side, self.V_minus, self.V_plus)


@dataclass(frozen=True)
class OmoriProfile:
    """Mean exceedance counts around mainshocks, lags ``0..max_lag``."""

    max_lag: int
    N_minus: np.ndarray
    N_plus: np.ndarray
    zeta_main: float
    zeta1: float
    zeta_main_multiple: float
    zeta1_multiple: float
    n_mainshocks: int

    def __post_init__(self) -> None:
        nm, np_ = _array_fields(self, N_minus=np.float64, N_plus=np.float64)
        if nm.shape != (self.max_lag + 1,) or np_.shape != (self.max_lag + 1,):
            raise ValueError("count arrays must have max_lag+1 entries")
        if nm[0] != 0.0 or np_[0] != 0.0:
            raise ValueError("N(0) must be 0")
        t = np.arange(self.max_lag + 1)
        for name, arr in (("N_minus", nm), ("N_plus", np_)):
            if np.any(np.diff(arr) < 0):
                raise ValueError(f"{name} must be nondecreasing")
            if np.any(arr > t + 1e-9):
                raise ValueError(f"{name} cannot exceed t")
        if not 0 < self.zeta1 < self.zeta_main:
            raise ValueError("need 0 < zeta1 < zeta_main")

    def side(self, side: str) -> np.ndarray:
        """The ``N`` array for side ``'-'`` (before) or ``'+'`` (after)."""
        return _side(side, self.N_minus, self.N_plus)


def _side(side: str, minus: np.ndarray, plus: np.ndarray) -> np.ndarray:
    if side not in ("-", "+"):
        raise ValueError(f"side must be '-' or '+', got {side!r}")
    return minus if side == "-" else plus


def _conditional_sums(
    values: np.ndarray, indices: np.ndarray, max_lag: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-lag sums and in-bounds counts of ``values[index -/+ lag]``.

    ``indices`` may contain repeats in any order (bootstrap replicas
    resample events with replacement); each occurrence contributes
    independently.

    The sliding window of width ``2*max_lag + 1`` of event ``e`` holds
    ``values[e - max_lag .. e + max_lag]``, with ``0.0`` wherever that
    range leaves the series.  The windows of all events are summed into
    one accumulator whose centre is lag 0 of both sides, read backwards
    for ``-`` and forwards for ``+``.  The sum runs in chunks of events,
    each gathered in blocks so memory stays bounded, and every lag adds
    the events in the order ``indices`` lists them (see ``_CHUNK_CELLS``).
    A window slides over ``values`` itself, but for the events within
    ``max_lag`` of an edge: theirs slides over zero-padded copies of the
    first and last ``2*max_lag`` values, not of the series.

    The counts need no gather: ``e + lag`` is in bounds for the events
    below ``n - lag`` and ``e - lag`` for those at or above ``lag``.
    """
    n, span = values.size, 2 * max_lag + 1
    lags = np.arange(max_lag + 1, dtype=np.int64)
    view = np.lib.stride_tricks.sliding_window_view
    inner = view(values, span) if n >= span else np.empty((0, span))
    lead, ends = max(0, n - 2 * max_lag), np.pad(values[: 2 * max_lag], max_lag)
    edges = view(np.concatenate([ends, np.pad(values[lead:], max_lag)]), span)
    near = (indices < max_lag) | (indices >= n - max_lag)

    def gather(part: np.ndarray, edge: np.ndarray) -> np.ndarray:
        if not edge.any():
            return inner[part - max_lag]
        # Clipped, the edge events take some interior window, overwritten below.
        block = inner[np.clip(part - max_lag, 0, len(inner) - 1)] if len(inner) else np.empty((part.size, span))
        at = part[edge]
        block[edge] = edges[np.where(at < max_lag, at, at - lead + ends.size)]
        return block

    acc = np.zeros(span)
    total = np.empty_like(acc)
    chunk = max(1, _CHUNK_CELLS // (max_lag + 1))
    rows = max(1, _BLOCK_CELLS // span)
    for lo in range(0, indices.size, chunk):
        part, edge = indices[lo : lo + chunk], near[lo : lo + chunk]
        gather(part[:rows], edge[:rows]).sum(axis=0, out=total)
        for at in range(rows, part.size, rows):
            block = gather(part[at : at + rows], edge[at : at + rows])
            block[0] += total
            block.sum(axis=0, out=total)
        acc += total
    ordered = np.sort(indices)
    cnts_p = np.searchsorted(ordered, n - lags)
    cnts_m = indices.size - np.searchsorted(ordered, lags)
    return acc[max_lag::-1], cnts_m, acc[max_lag:], cnts_p


def _profile_from_indices(
    values: np.ndarray, indices: np.ndarray, max_lag: int, sigma: float
) -> ConditionedProfile:
    sums_m, cnts_m, sums_p, cnts_p = _conditional_sums(values, indices, max_lag)
    c0 = sums_p[0] / cnts_p[0]
    z = c0 - sigma
    if not z > 1e-12 * sigma:
        raise DegenerateZ(
            f"<|R|> over events ({c0:g}) does not exceed sigma ({sigma:g}); "
            "threshold does not select above-average volatility"
        )
    with np.errstate(invalid="ignore", divide="ignore"):
        v_m = np.where(cnts_m > 0, (sums_m / cnts_m - sigma) / z, np.nan)
        v_p = np.where(cnts_p > 0, (sums_p / cnts_p - sigma) / z, np.nan)
    return ConditionedProfile(
        max_lag=max_lag,
        v_minus=v_m,
        v_plus=v_p,
        counts_minus=cnts_m,
        counts_plus=cnts_p,
        Z=float(z),
        sigma=float(sigma),
        n_events=int(indices.size),
    )


def remanent_profile(vol: VolatilitySeries, events: EventSet, max_lag: int) -> ConditionedProfile:
    """Compute ``v_minus``/``v_plus`` over lags ``0..max_lag``.

    Events closer than ``max_lag`` to an edge contribute only to the
    lags that stay in bounds; the per-lag counts record the effective
    denominators.

    Raises
    ------
    NoEvents
        The event set is empty.
    DegenerateZ
        The events' mean volatility does not exceed ``sigma``, so the
        normalization is ill-defined.
    """
    if max_lag < 1:
        raise ValueError("max_lag must be >= 1")
    if len(events) == 0:
        raise NoEvents("cannot condition on an empty event set")
    return _profile_from_indices(vol.values, events.indices, max_lag, mean_volatility(vol).sigma)


def cumulative(profile: ConditionedProfile) -> CumulativeProfile:
    """Accumulate ``v`` into ``V(t) = sum_{s=1..t} v(s)``.

    Sequential partial sums, so ``V(t) == V(t-1) + v(t)`` holds exactly
    in floating point.  Lag 0 is excluded: ``v(0) = 1`` is a
    normalization artifact, not signal.
    """
    v_m = np.concatenate(([0.0], np.cumsum(profile.v_minus[1:])))
    v_p = np.concatenate(([0.0], np.cumsum(profile.v_plus[1:])))
    return CumulativeProfile(profile=profile, V_minus=v_m, V_plus=v_p)


def omori_counts(
    vol: VolatilitySeries,
    mainshocks: EventSet,
    m1: float,
    stats: SeriesStats,
    max_lag: int,
) -> OmoriProfile:
    """Mean number of ``|R| > m1*sigma`` steps within ``t`` of a mainshock.

    ``N_plus(t)`` counts exceedances at offsets ``1..t`` after each
    mainshock (``N_minus`` before), averaged over *all* mainshocks;
    out-of-bounds offsets simply do not count.
    """
    if max_lag < 1:
        raise ValueError("max_lag must be >= 1")
    if not 0 < m1 < mainshocks.zeta_multiple:
        raise ValueError(
            f"aftershock threshold multiple must be in (0, {mainshocks.zeta_multiple}), got {m1}"
        )
    if len(mainshocks) == 0:
        raise NoEvents("no mainshocks to condition on")
    zeta1 = m1 * stats.sigma
    exceed = (vol.values > zeta1).astype(np.float64)
    sums_m, _, sums_p, _ = _conditional_sums(exceed, mainshocks.indices, max_lag)
    n = len(mainshocks)
    n_m = np.concatenate(([0.0], np.cumsum(sums_m[1:]) / n))
    n_p = np.concatenate(([0.0], np.cumsum(sums_p[1:]) / n))
    return OmoriProfile(
        max_lag=max_lag,
        N_minus=n_m,
        N_plus=n_p,
        zeta_main=mainshocks.zeta_abs,
        zeta1=float(zeta1),
        zeta_main_multiple=mainshocks.zeta_multiple,
        zeta1_multiple=float(m1),
        n_mainshocks=n,
    )


def _profile_columns(cum: CumulativeProfile) -> list[np.ndarray]:
    p = cum.profile
    return [cum.lags, p.v_minus, p.v_plus, cum.V_minus, cum.V_plus, p.counts_minus, p.counts_plus]


def write_profile_tsv(cum: CumulativeProfile, path: str) -> None:
    """Write one row per lag: profile, cumulative and counts columns."""
    write_tsv(path, PROFILE_COLUMNS, _profile_columns(cum))


def write_omori_tsv(cum: CumulativeProfile, omori: OmoriProfile, path: str) -> None:
    """Profile columns for the mainshocks plus the ``N`` count columns."""
    if omori.max_lag != cum.profile.max_lag:
        raise ValueError("profile and Omori counts must share max_lag")
    write_tsv(path, OMORI_COLUMNS, [*_profile_columns(cum), omori.N_minus, omori.N_plus])


def _read_columns(path: str, columns: dict) -> dict[str, np.ndarray]:
    cols = read_tsv(path, columns)
    return {
        name: np.asarray(cols[name], dtype=np.int64 if conv is int else np.float64)
        for name, conv in columns.items()
    }


def read_profile_tsv(path: str) -> dict[str, np.ndarray]:
    """Read a profile TSV back as a column dict (inverse of the writer)."""
    return _read_columns(path, PROFILE_COLUMNS)


def read_omori_tsv(path: str) -> dict[str, np.ndarray]:
    """Read an Omori TSV back as a column dict."""
    return _read_columns(path, OMORI_COLUMNS)
