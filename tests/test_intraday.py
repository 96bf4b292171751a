"""Intraday seasonality pattern estimation/removal tests."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volrelax import (
    DailyCadence,
    EmptySlot,
    IntradayPattern,
    SlotMismatch,
    VolatilitySeries,
    absolute_volatility,
    estimate_pattern,
    gen_iid_gaussian,
    gen_intraday_modulated,
    remove_pattern,
)
from volrelax import intraday
from volrelax.intraday import read_pattern_tsv, write_pattern_tsv

from _reference import brute_pattern


def _vol(values, slots, slots_per_day):
    return VolatilitySeries(
        values=np.asarray(values, dtype=np.float64),
        slot_index=np.asarray(slots, dtype=np.int32),
        slots_per_day=slots_per_day,
        cadence="1min",
    )


def test_estimate_two_slot_hand_case():
    vol = _vol([1.0, 3.0, 1.0, 3.0], [0, 1, 0, 1], 2)
    pattern = estimate_pattern(vol)
    np.testing.assert_allclose(pattern.factors, [0.5, 1.5])


def test_estimate_matches_brute_force():
    rng = np.random.default_rng(11)
    slots = np.tile(np.arange(6, dtype=np.int32), 40)
    values = rng.exponential(0.01, slots.size)
    pattern = estimate_pattern(_vol(values, slots, 6))
    expected = brute_pattern(values.tolist(), slots.tolist(), 6)
    np.testing.assert_allclose(pattern.factors, expected, rtol=1e-12)


def test_estimate_rejects_daily():
    vol = _vol([1.0, 2.0], [0, 0], 1)
    with pytest.raises(DailyCadence):
        estimate_pattern(vol)


def test_estimate_rejects_empty_slot():
    vol = _vol([1.0, 2.0], [0, 0], 2)
    with pytest.raises(EmptySlot):
        estimate_pattern(vol)


@pytest.mark.parametrize(
    ("values", "zero"),
    [([1.0, 0.0, 2.0, 4.0, 0.0, 3.0], [1]), ([0.0] * 6, [0, 1, 2])],
)
def test_estimate_rejects_slot_of_zero_volatility(values, zero):
    # A zero factor would divide by zero; all zeros would average to 0/0,
    # a RuntimeWarning that the pytest configuration makes a failure.
    vol = _vol(values, [0, 1, 2, 0, 1, 2], 3)
    with pytest.raises(EmptySlot, match=rf"^only zero volatility in slot\(s\) \{zero}$"):
        estimate_pattern(vol)


def test_pattern_validates_factors():
    with pytest.raises(ValueError):
        IntradayPattern(factors=np.array([0.5, 2.0]), slots_per_day=2)  # mean != 1
    with pytest.raises(ValueError):
        IntradayPattern(factors=np.array([2.0, 0.0]), slots_per_day=2)
    with pytest.raises(ValueError):
        IntradayPattern(factors=np.array([1.0]), slots_per_day=2)


def test_remove_flattens_slot_means():
    rng = np.random.default_rng(2)
    slots = np.tile(np.arange(8, dtype=np.int32), 500)
    factors = 0.5 + rng.random(8)
    values = rng.exponential(0.01, slots.size) * factors[slots]
    vol = _vol(values, slots, 8)
    adjusted = remove_pattern(vol, estimate_pattern(vol))
    assert adjusted.adjusted
    slot_means = np.bincount(slots, weights=adjusted.values) / np.bincount(slots)
    assert np.ptp(slot_means) < 1e-10 * slot_means.mean()


@given(
    st.integers(1, 300),
    st.integers(2, 12),
    st.integers(1, 64),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_remove_pattern_in_blocks_equals_one_gather(n, slots_per_day, block, seed):
    # Blocks of 1 to 64 values: the series is below one block, a multiple
    # of it, or not.
    rng = np.random.default_rng(seed)
    factors = rng.uniform(0.3, 3.0, slots_per_day)
    pattern = IntradayPattern(factors=factors / factors.mean(), slots_per_day=slots_per_day)
    slots = rng.integers(0, slots_per_day, n).astype(np.int32)
    vol = _vol(rng.exponential(0.01, n) * 10.0 ** rng.integers(-8, 9, n), slots, slots_per_day)
    want = vol.values / pattern.factors[vol.slot_index]
    with mock.patch.object(intraday, "_BLOCK", block):
        got = remove_pattern(vol, pattern)
    assert got.values.tobytes() == want.tobytes()
    assert got.adjusted and got.slot_index is vol.slot_index


def _bincount_pattern(vol):
    """The pattern as it was estimated before it went a block at a time, frozen
    as the reference: two bincounts over the whole slot index."""
    counts = np.bincount(vol.slot_index, minlength=vol.slots_per_day)
    if np.any(counts == 0):
        raise EmptySlot(f"no observations in slot(s) {np.flatnonzero(counts == 0).tolist()}")
    means = np.bincount(vol.slot_index, weights=vol.values, minlength=vol.slots_per_day) / counts
    if np.any(means == 0):
        raise EmptySlot(f"only zero volatility in slot(s) {np.flatnonzero(means == 0).tolist()}")
    return means / means.mean()


@given(
    st.integers(1, 300),
    st.integers(2, 12),
    st.integers(1, 64),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_estimate_pattern_in_blocks_equals_bincount(n, slots_per_day, block, seed):
    # Values over 17 decades, so that the order of the additions shows in the
    # sums; a short series leaves slots empty, and zeros leave some only zero.
    rng = np.random.default_rng(seed)
    slots = rng.integers(0, slots_per_day, n).astype(np.int32)
    values = rng.exponential(0.01, n) * 10.0 ** rng.integers(-8, 9, n) * (rng.random(n) < 0.9)
    vol = _vol(values, slots, slots_per_day)
    try:
        want = _bincount_pattern(vol).tobytes()
    except EmptySlot as exc:
        want = str(exc)
    with mock.patch.object(intraday, "_BLOCK", block):
        try:
            got = estimate_pattern(vol).factors.tobytes()
        except EmptySlot as exc:
            got = str(exc)
    assert got == want


def test_estimate_pattern_holds_no_intp_copy_of_the_slots():
    # 1M values on 390 slots: each bincount of the whole int32 slot index
    # cast it to an 8 MB intp copy.  A block at a time, the peak is a block's.
    import tracemalloc

    n = 1_000_000
    rng = np.random.default_rng(4)
    vol = _vol(rng.exponential(0.01, n), (np.arange(n) % 390).astype(np.int32), 390)
    tracemalloc.start()
    try:
        pattern = estimate_pattern(vol)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pattern.factors.tobytes() == _bincount_pattern(vol).tobytes()
    assert peak < 8 * intraday._BLOCK + 65_536


def test_remove_rejects_mismatched_grid():
    vol = _vol([1.0, 2.0], [0, 1], 2)
    pattern = IntradayPattern(factors=np.array([0.8, 1.0, 1.2]), slots_per_day=3)
    with pytest.raises(SlotMismatch):
        remove_pattern(vol, pattern)


def test_planted_factor_recovery():
    slots_per_day, days = 24, 2000
    true = 0.6 + 0.8 * (2.0 * (np.arange(slots_per_day) + 0.5) / slots_per_day - 1.0) ** 2
    true = true / true.mean()
    base = gen_iid_gaussian(slots_per_day * days, 0.01, seed=9, slots_per_day=slots_per_day)
    vol = absolute_volatility(gen_intraday_modulated(base, true))
    estimated = estimate_pattern(vol).factors
    # Monte-Carlo std error of a half-normal slot mean, per slot.
    stderr = np.sqrt(np.pi / 2 - 1) / np.sqrt(days)
    assert np.all(np.abs(estimated - true) < 3 * stderr * true)


def test_pattern_tsv_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    raw = 0.5 + rng.random(10)
    pattern = IntradayPattern(factors=raw / raw.mean(), slots_per_day=10)
    path = str(tmp_path / "pattern.tsv")
    write_pattern_tsv(pattern, path)
    back = read_pattern_tsv(path)
    assert back.slots_per_day == 10
    np.testing.assert_array_equal(back.factors, pattern.factors)
    # A header with no slot row under it is no pattern.
    with open(path, "w") as fh:
        fh.write("slot\tfactor\n")
    with pytest.raises(ValueError, match="^a pattern needs at least one slot$"):
        read_pattern_tsv(path)


@given(st.integers(2, 9), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_estimated_factors_average_to_one(slots_per_day, seed):
    rng = np.random.default_rng(seed)
    slots = np.tile(np.arange(slots_per_day, dtype=np.int32), 30)
    values = rng.exponential(1.0, slots.size)
    pattern = estimate_pattern(_vol(values, slots, slots_per_day))
    assert abs(float(pattern.factors.mean()) - 1.0) <= 1e-12
    assert np.all(pattern.factors > 0)
