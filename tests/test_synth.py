"""Deterministic synthetic generators and CSV round trips."""

import io
import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from volrelax import (
    PlantedRelaxationSpec,
    PriceSeries,
    gen_iid_gaussian,
    gen_intraday_modulated,
    gen_planted_relaxation,
    log_returns,
    parse_price_csv,
    returns_to_prices,
    write_price_csv,
)
from volrelax import synth

HALF_NORMAL_SD = math.sqrt(math.pi / 2 - 1)  # std of |N| in mean-|N| units


def _replay_placement(spec):
    """Re-derive the shock mask and background normals from the seed."""
    rng = np.random.default_rng(spec.seed)
    is_shock = rng.random(spec.n) < spec.shock_rate / 1e5
    z = rng.standard_normal(spec.n)
    return is_shock, z


def _brute_distances(is_shock):
    n = len(is_shock)
    shocks = [i for i in range(n) if is_shock[i]]
    d_prev = [math.inf] * n
    d_next = [math.inf] * n
    for i in range(n):
        for s in shocks:
            if s <= i:
                d_prev[i] = min(d_prev[i], i - s)
            if s >= i:
                d_next[i] = min(d_next[i], s - i)
    return d_prev, d_next


def test_generators_are_seed_deterministic():
    a = gen_iid_gaussian(1000, 0.01, seed=3)
    b = gen_iid_gaussian(1000, 0.01, seed=3)
    c = gen_iid_gaussian(1000, 0.01, seed=4)
    np.testing.assert_array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)
    spec = PlantedRelaxationSpec(
        n=1000, sigma0=0.01, shock_rate=300.0, boost=3.0, p=0.3, tau=0.0,
        shock_magnitude=10.0, seed=3,
    )
    np.testing.assert_array_equal(
        gen_planted_relaxation(spec).values, gen_planted_relaxation(spec).values
    )


def test_iid_mean_magnitude_and_independence():
    n, sigma0 = 200_000, 0.01
    returns = gen_iid_gaussian(n, sigma0, seed=7)
    vol = np.abs(returns.values)
    stderr = sigma0 * HALF_NORMAL_SD / math.sqrt(n)
    assert abs(vol.mean() - sigma0) < 3 * stderr
    # Lag-1 autocorrelation consistent with zero.
    x = vol - vol.mean()
    rho = float(np.dot(x[1:], x[:-1]) / np.dot(x, x))
    assert abs(rho) < 3 / math.sqrt(n)


def test_planted_without_boost_matches_background_scale():
    spec = PlantedRelaxationSpec(
        n=100_000, sigma0=0.02, shock_rate=50.0, boost=0.0, p=0.3, tau=0.0,
        shock_magnitude=10.0, seed=11,
    )
    returns = gen_planted_relaxation(spec)
    is_shock, _ = _replay_placement(spec)
    vol = np.abs(returns.values[~is_shock])
    stderr = spec.sigma0 * HALF_NORMAL_SD / math.sqrt(vol.size)
    assert abs(vol.mean() - spec.sigma0) < 3 * stderr


def test_planted_shock_values_are_exact():
    spec = PlantedRelaxationSpec(
        n=200_000, sigma0=0.01, shock_rate=100.0, boost=3.0, p=0.3, tau=0.0,
        shock_magnitude=10.0, seed=13,
    )
    returns = gen_planted_relaxation(spec)
    is_shock, _ = _replay_placement(spec)
    shocks = returns.values[is_shock]
    expected = spec.shock_magnitude * spec.sigma0
    assert np.all(np.abs(shocks) == expected)
    assert np.any(shocks > 0) and np.any(shocks < 0)
    # Poisson-consistent shock count.
    lam = spec.shock_rate * spec.n / 1e5
    assert abs(shocks.size - lam) < 4 * math.sqrt(lam)


def test_planted_kernel_and_tie_break():
    """Steps equidistant from two shocks use the after-shock kernel."""
    spec = PlantedRelaxationSpec(
        n=5000, sigma0=0.01, shock_rate=400.0, boost=3.0, p=0.3, tau=2.0,
        shock_magnitude=10.0, seed=17, boost_before=1.0, p_before=0.9,
        tau_before=0.0,
    )
    returns = gen_planted_relaxation(spec)
    is_shock, z = _replay_placement(spec)
    d_prev, d_next = _brute_distances(is_shock)
    scale = math.sqrt(math.pi / 2)
    n_checked = n_ties = 0
    for i in range(spec.n):
        if is_shock[i] or math.isinf(d_prev[i]) and math.isinf(d_next[i]):
            continue
        d = min(d_prev[i], d_next[i])
        if d_prev[i] <= d_next[i]:
            mu = spec.sigma0 + spec.sigma0 * spec.boost * (d + spec.tau) ** -spec.p
        else:
            mu = spec.sigma0 + spec.sigma0 * spec.boost_before * (
                d + spec.tau_before
            ) ** -spec.p_before
        assert returns.values[i] == pytest.approx(z[i] * (mu * scale), rel=1e-12)
        n_checked += 1
        if d_prev[i] == d_next[i] and not math.isinf(d):
            n_ties += 1
    assert n_checked > 3000
    assert n_ties > 0


def test_planted_first_neighbor_boost():
    spec = PlantedRelaxationSpec(
        n=400_000, sigma0=0.01, shock_rate=250.0, boost=3.0, p=0.3, tau=0.0,
        shock_magnitude=10.0, seed=19,
    )
    returns = gen_planted_relaxation(spec)
    is_shock, _ = _replay_placement(spec)
    after_one = np.zeros(spec.n, dtype=bool)
    after_one[1:] = is_shock[:-1]
    after_one &= ~is_shock
    sample = np.abs(returns.values[after_one])
    expected = spec.sigma0 * (1.0 + spec.boost)
    stderr = expected * HALF_NORMAL_SD / math.sqrt(sample.size)
    assert sample.size > 500
    assert abs(sample.mean() - expected) < 3 * stderr


def test_spec_validation():
    good = dict(
        n=100, sigma0=0.01, shock_rate=50.0, boost=3.0, p=0.3, tau=0.0,
        shock_magnitude=10.0, seed=0,
    )
    PlantedRelaxationSpec(**good)
    for field, bad in (
        ("n", 1),
        ("sigma0", 0.0),
        ("shock_rate", 60_000.0),
        ("boost", -1.0),
        ("p", 1.7),
        ("p", 0.0),
        ("tau", -2.0),
        ("shock_magnitude", 0.0),
        ("slots_per_day", 0),
        ("p_before", 1.6),
        ("boost_before", -0.5),
    ):
        with pytest.raises(ValueError):
            PlantedRelaxationSpec(**{**good, field: bad})
    with pytest.raises(ValueError):
        gen_iid_gaussian(1, 0.01, seed=0)
    # The grid is refused before any "% slots_per_day" can warn of a division by zero.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^slots_per_day must be >= 1$"):
            gen_iid_gaussian(10, 0.01, seed=0, slots_per_day=0)


def test_modulation_identity_and_scaling():
    base = gen_iid_gaussian(600, 0.01, seed=23, slots_per_day=6)
    same = gen_intraday_modulated(base, np.ones(6))
    np.testing.assert_array_equal(same.values, base.values)
    factors = np.array([2.0, 0.5, 1.0, 1.5, 0.75, 0.25])
    scaled = gen_intraday_modulated(base, factors)
    np.testing.assert_array_equal(scaled.values, base.values * factors[base.slot_index])
    with pytest.raises(ValueError):
        gen_intraday_modulated(base, np.ones(5))
    with pytest.raises(ValueError):
        gen_intraday_modulated(base, np.array([1.0, 1.0, 1.0, 1.0, 1.0, -1.0]))


def test_daily_price_round_trip(tmp_path):
    returns = gen_iid_gaussian(5000, 0.01, seed=29)
    prices = returns_to_prices(returns, p0=250.0)
    assert len(prices) == 5001
    assert prices.cadence == "daily"
    assert prices.prices[0] == 250.0
    path = str(tmp_path / "daily.csv")
    write_price_csv(prices, path)
    with open(path, "r", encoding="utf-8") as fh:
        parsed = parse_price_csv(fh)
    back = log_returns(parsed)
    np.testing.assert_allclose(back.values, returns.values, rtol=0, atol=1e-12)


def test_intraday_price_round_trip(tmp_path):
    returns = gen_iid_gaussian(3000, 0.01, seed=31, slots_per_day=30)
    prices = returns_to_prices(returns)
    assert prices.cadence == "1min"
    assert prices.slots_per_day == 30
    path = str(tmp_path / "intraday.csv")
    write_price_csv(prices, path)
    with open(path, "r", encoding="utf-8") as fh:
        parsed = parse_price_csv(fh)
    assert parsed.slots_per_day == 30
    assert parsed.cadence == "1min"
    back = log_returns(parsed)
    np.testing.assert_allclose(back.values, returns.values, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(back.slot_index, returns.slot_index)


def _loop_write_price_csv(prices, path):
    """Frozen copy of the row-by-row writer that ``write_price_csv`` replaced."""
    unit = "D" if prices.cadence == "daily" else "s"
    stamps = np.datetime_as_string(prices.timestamps, unit=unit)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("timestamp,price\n")
        for t, p in zip(stamps, prices.prices):
            fh.write(f"{t},{float(p)!r}\n")


@pytest.mark.parametrize("slots_per_day", [1, 30])
def test_write_price_csv_bytes_match_loop_writer(tmp_path, slots_per_day):
    returns = gen_iid_gaussian(2000, 0.01, seed=37, slots_per_day=slots_per_day)
    prices = returns_to_prices(returns, p0=123.456)
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    write_price_csv(prices, str(new))
    _loop_write_price_csv(prices, str(old))
    assert new.read_bytes() == old.read_bytes()


def _price_series(seconds, prices, daily):
    return PriceSeries(
        timestamps=np.array(seconds, dtype=np.int64).view("datetime64[s]"),
        prices=np.array(prices, dtype=np.float64),
        cadence="daily" if daily else "1min",
        slots_per_day=1,
        slot_index=np.zeros(len(seconds), dtype=np.int32),
    )


def _write_both(prices, directory):
    new, old = directory / "new.csv", directory / "old.csv"
    write_price_csv(prices, str(new))
    _loop_write_price_csv(prices, str(old))
    return new.read_bytes(), old.read_bytes()


_INT64_MAX = 2**63 - 1
# Seconds since 1970 of days worth drawing on their own: 0001-01-01,
# 1900-02-28 (no leap day follows), 1969-12-31T23:59:59, 2000-02-28 and
# 2000-02-29 (a leap day), 9999-12-31T23:59:00, and the first second
# after NaT, the smallest stamp numpy has.
_STARTS = st.sampled_from(
    [-62135596800, -2203977600, -1, 951696000, 951782400, 253402300740, -_INT64_MAX]
) | st.integers(-_INT64_MAX, _INT64_MAX)
# Steps within a minute, of a minute or a day, and of many days.
_STEPS = st.integers(1, 59) | st.sampled_from([60, 86_400, 366 * 86_400]) | st.integers(1, 40_000 * 86_400)
# Prices from the least subnormal up: whole numbers (those of 1e16 and
# more print with an exponent) and fractions, also in exponent form.
_PRICES = st.floats(5e-324, 1e300) | st.integers(1, 10**20).map(float) | st.sampled_from([1e16, 1e-05, 0.1, 2.5])
_MOST_ROWS = 40


@given(
    st.booleans(),
    _STARTS,
    st.lists(_STEPS, min_size=1, max_size=_MOST_ROWS - 1),
    st.lists(_PRICES, min_size=_MOST_ROWS, max_size=_MOST_ROWS),
    st.integers(1, 8),
)
@example(False, -62135596800, [59, 86_341, 31], [5e-324, 1e300, 1.0, 1e16], 2)
@example(True, 951696000, [86_400, 86_400, 1], [0.1, 2.5, 1e-05, 123.0], 3)
@example(False, -_INT64_MAX, [1, 60, 40_000 * 86_400], [1.5] * 4, 1)
@example(False, 253402300740, [59, 1, 60], [1.5] * 4, 3)
@settings(max_examples=300, deadline=None)
def test_write_price_csv_bytes_match_loop_writer_on_any_series(tmp_path_factory, daily, start, steps, prices, block):
    # A small block makes most series span several blocks.
    seconds = [start]
    for step in steps:
        seconds.append(seconds[-1] + step)
    shift = max(seconds[-1] - _INT64_MAX, 0)
    series = _price_series([t - shift for t in seconds], prices[: len(seconds)], daily)
    with mock.patch.object(synth, "_BLOCK", block):
        new, old = _write_both(series, tmp_path_factory.mktemp("csv"))
    assert new == old


@pytest.mark.parametrize("daily", [True, False])
@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_write_price_csv_bytes_match_loop_writer_at_the_block_edge(tmp_path, daily, extra):
    # From 1890 to about 2160, in steps of a second to three days.
    n = synth._BLOCK + extra
    rng = np.random.default_rng(41)
    seconds = -2524608000 + np.cumsum(rng.integers(1, 3 * 86_400, n))
    prices = rng.lognormal(3.0, 8.0, n)
    prices[::3] = np.ceil(prices[::3])
    new, old = _write_both(_price_series(seconds, prices, daily), tmp_path)
    assert new.count(b"\n") == n + 1
    assert new == old


def test_write_price_csv_memory_grows_with_the_block_not_the_file(tmp_path):
    # The whole-file writer held every line's text and the joined file at
    # once, about three times as much for 200k rows as for one block.
    prices = returns_to_prices(gen_iid_gaussian(200_000 - 1, 0.01, seed=43, slots_per_day=390))
    block = _price_series(prices.timestamps[: synth._BLOCK].view(np.int64), prices.prices[: synth._BLOCK], False)
    peaks = []
    for series in (block, prices):
        tracemalloc.start()
        try:
            write_price_csv(series, str(tmp_path / "prices.csv"))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert (tmp_path / "prices.csv").stat().st_size > 7e6
    assert peaks[1] < 1.2 * peaks[0]
