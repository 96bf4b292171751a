"""Deterministic synthetic return generators.

These provide planted ground truth for end-to-end verification, since
the exchange datasets the method is normally applied to cannot be
redistributed.  All generators are pure functions of their arguments:
the same seed gives bit-identical output.

The planted-relaxation generator drops rare large shocks into an
otherwise i.i.d. half-normal-magnitude background and scales the
expected magnitude of every other step by ``1 + B*(d + tau)^(-p)``,
where ``d >= 1`` is the distance to the *nearest* shock.  The kernel
may differ on the two sides of a shock (``*_before`` overrides), which
emulates an asymmetric before/after relaxation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .series import PriceSeries, ReturnSeries

__all__ = [
    "PlantedRelaxationSpec",
    "gen_iid_gaussian",
    "gen_planted_relaxation",
    "gen_intraday_modulated",
    "returns_to_prices",
    "write_price_csv",
]

# E|N(0, s)| = s * sqrt(2/pi); dividing out makes sigma0 the mean magnitude.
_HALF_NORMAL_SCALE = float(np.sqrt(np.pi / 2.0))


@dataclass(frozen=True)
class PlantedRelaxationSpec:
    """Parameters of the planted-relaxation generator.

    ``shock_rate`` is the expected number of mainshocks per 10^5 steps
    (each step is an independent Bernoulli trial, so counts are
    Poisson in the aggregate).  ``boost``, ``p``, ``tau`` shape the
    relaxation kernel after shocks; the ``*_before`` fields override
    them for the approach side (``None`` keeps the kernel symmetric).
    """

    n: int
    sigma0: float
    shock_rate: float
    boost: float
    p: float
    tau: float
    shock_magnitude: float
    seed: int
    slots_per_day: int = 1
    boost_before: float | None = None
    p_before: float | None = None
    tau_before: float | None = None

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("n must be >= 2")
        if not self.sigma0 > 0:
            raise ValueError("sigma0 must be positive")
        if not 0 < self.shock_rate:
            raise ValueError("shock_rate must be positive")
        if self.shock_rate / 1e5 > 0.5:
            raise ValueError("shock_rate implies more than one shock per two steps")
        if not self.boost >= 0:
            raise ValueError("boost must be nonnegative")
        if not 0 < self.p < 1.5:
            raise ValueError("p must lie in (0, 1.5)")
        if not self.tau >= 0:
            raise ValueError("tau must be nonnegative")
        if not self.shock_magnitude > 0:
            raise ValueError("shock_magnitude must be positive")
        if self.slots_per_day < 1:
            raise ValueError("slots_per_day must be >= 1")
        for name in ("boost_before", "p_before", "tau_before"):
            val = getattr(self, name)
            if val is None:
                continue
            base_ok = {
                "boost_before": val >= 0,
                "p_before": 0 < val < 1.5,
                "tau_before": val >= 0,
            }[name]
            if not base_ok:
                raise ValueError(f"{name}={val} out of range")


def _slots(n: int, slots_per_day: int) -> np.ndarray:
    return (np.arange(n, dtype=np.int64) % slots_per_day).astype(np.int32)


def gen_iid_gaussian(n: int, sigma0: float, seed: int, slots_per_day: int = 1) -> ReturnSeries:
    """i.i.d. zero-mean Gaussian returns with mean magnitude ``sigma0``."""
    if n < 2:
        raise ValueError("n must be >= 2")
    rng = np.random.default_rng(seed)
    values = rng.normal(0.0, sigma0 * _HALF_NORMAL_SCALE, n)
    return ReturnSeries(
        values=values,
        slot_index=_slots(n, slots_per_day),
        slots_per_day=slots_per_day,
        cadence="daily" if slots_per_day == 1 else "1min",
        timestamps=None,
    )


def _nearest_shock_distances(is_shock: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distance to the previous / next shock (inf where there is none)."""
    n = is_shock.size
    pos = np.arange(n)
    last = np.maximum.accumulate(np.where(is_shock, pos, -1))
    d_prev = np.where(last >= 0, pos - last, np.inf)
    rev_last = np.maximum.accumulate(np.where(is_shock[::-1], pos, -1))[::-1]
    nxt = (n - 1) - rev_last
    d_next = np.where(rev_last >= 0, nxt - pos, np.inf)
    return d_prev, d_next


def gen_planted_relaxation(spec: PlantedRelaxationSpec) -> ReturnSeries:
    """Background returns with planted shocks and a relaxation kernel.

    Draw order is fixed (placement uniforms, then background normals,
    then shock signs), so output is reproducible per seed.  Steps whose
    nearest shock lies behind them (ties included) use the after-shock
    kernel; steps approaching their nearest shock use the before-shock
    kernel.
    """
    rng = np.random.default_rng(spec.seed)
    n = spec.n
    is_shock = rng.random(n) < spec.shock_rate / 1e5
    z = rng.standard_normal(n)
    n_shocks = int(is_shock.sum())
    signs = rng.integers(0, 2, n_shocks) * 2 - 1

    d_prev, d_next = _nearest_shock_distances(is_shock)
    after = d_prev <= d_next
    d = np.minimum(d_prev, d_next)

    b_before = spec.boost if spec.boost_before is None else spec.boost_before
    p_before = spec.p if spec.p_before is None else spec.p_before
    tau_before = spec.tau if spec.tau_before is None else spec.tau_before

    mu = np.full(n, spec.sigma0)
    near = np.isfinite(d) & ~is_shock
    na, nb = near & after, near & ~after
    mu[na] += spec.sigma0 * spec.boost * (d[na] + spec.tau) ** -spec.p
    mu[nb] += spec.sigma0 * b_before * (d[nb] + tau_before) ** -p_before

    values = z * (mu * _HALF_NORMAL_SCALE)
    values[is_shock] = signs * spec.shock_magnitude * spec.sigma0
    return ReturnSeries(
        values=values,
        slot_index=_slots(n, spec.slots_per_day),
        slots_per_day=spec.slots_per_day,
        cadence="daily" if spec.slots_per_day == 1 else "1min",
        timestamps=None,
    )


def gen_intraday_modulated(base: ReturnSeries, factors: np.ndarray) -> ReturnSeries:
    """Multiply each return by the factor of its slot (seed-free)."""
    f = np.asarray(factors, dtype=np.float64)
    if f.ndim != 1 or f.size != base.slots_per_day:
        raise ValueError(
            f"need one factor per slot ({base.slots_per_day}), got shape {f.shape}"
        )
    if not np.all(np.isfinite(f) & (f > 0)):
        raise ValueError("factors must be finite and positive")
    return ReturnSeries(
        values=base.values * f[base.slot_index],
        slot_index=base.slot_index,
        slots_per_day=base.slots_per_day,
        cadence=base.cadence,
        timestamps=base.timestamps,
    )


def returns_to_prices(
    returns: ReturnSeries,
    p0: float = 100.0,
    start: str = "2000-01-03",
    session_start: str = "09:00",
) -> PriceSeries:
    """Exponentiate cumulative returns into a price path from ``P(0) = p0``.

    Daily series get consecutive calendar dates; intraday series get
    one-minute slots from ``session_start``, one day per ``slots_per_day``
    records.
    """
    if not p0 > 0:
        raise ValueError("p0 must be positive")
    n = len(returns) + 1
    log_p = np.concatenate(([0.0], np.cumsum(returns.values)))
    prices = p0 * np.exp(log_p)
    s = returns.slots_per_day
    day0 = np.datetime64(start, "D")
    if s == 1:
        ts = (day0 + np.arange(n)).astype("datetime64[s]")
    else:
        days = np.arange(n) // s
        slots = np.arange(n) % s
        t0 = np.datetime64(f"{start}T{session_start}:00", "s")
        ts = t0 + days.astype("timedelta64[D]").astype("timedelta64[s]") + slots * np.timedelta64(60, "s")
    cadence = "daily" if s == 1 else "1min"
    return PriceSeries(
        timestamps=ts,
        prices=prices,
        cadence=cadence,
        slots_per_day=s,
        slot_index=(np.arange(n, dtype=np.int64) % s).astype(np.int32),
    )


def write_price_csv(prices: PriceSeries, path: str) -> None:
    """Write a series in the standard ``timestamp,price`` CSV format."""
    unit = "D" if prices.cadence == "daily" else "s"
    stamps = np.datetime_as_string(prices.timestamps, unit=unit)
    rows = map("{},{!r}".format, stamps.tolist(), prices.prices.tolist())
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("timestamp,price\n")
        fh.write("\n".join(rows))
        fh.write("\n")
