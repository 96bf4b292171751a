"""Conditioned profiles, cumulatives and two-threshold counts."""

import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volrelax import (
    ConditionedProfile,
    DegenerateZ,
    EventSet,
    MalformedRow,
    NoEvents,
    VolatilitySeries,
    cumulative,
    gen_iid_gaussian,
    gen_planted_relaxation,
    mean_volatility,
    omori_counts,
    PlantedRelaxationSpec,
    remanent_profile,
    reverse,
    select_events,
)
from volrelax import profiles
from volrelax.profiles import (
    _conditional_sums,
    _profile_from_indices,
    read_omori_tsv,
    read_profile_tsv,
    write_omori_tsv,
    write_profile_tsv,
)

from _reference import brute_cumulative, brute_omori, brute_profile


def _vol(values):
    return VolatilitySeries(
        values=np.asarray(values, dtype=np.float64),
        slot_index=np.zeros(len(values), dtype=np.int32),
        slots_per_day=1,
        cadence="daily",
    )


def _event_set(indices, magnitudes, zeta_abs=0.5, zeta_multiple=2.0):
    indices = np.asarray(indices)
    return EventSet(
        indices=indices,
        zeta_multiple=zeta_multiple,
        zeta_abs=zeta_abs,
        magnitudes=np.asarray(magnitudes, dtype=np.float64),
        signs=np.zeros(indices.size, dtype=np.int8),
        origins=np.full(indices.size, "unlabeled"),
    )


def _assert_profile_matches_brute(vol, events, max_lag, atol=1e-12):
    profile = remanent_profile(vol, events, max_lag)
    return profile, _assert_matches_brute(profile, vol.values, events.indices, max_lag, atol)


def _assert_matches_brute(profile, values, indices, max_lag, atol):
    ref = brute_profile(values.tolist(), indices.tolist(), max_lag)
    assert profile.sigma == pytest.approx(ref["sigma"], rel=1e-12)
    assert profile.Z == pytest.approx(ref["z"], rel=1e-12)
    for got, want, counts in (
        (profile.v_minus, ref["v_minus"], ref["count_minus"]),
        (profile.v_plus, ref["v_plus"], ref["count_plus"]),
    ):
        for t in range(max_lag + 1):
            if want[t] is None:
                assert np.isnan(got[t])
                assert counts[t] == 0
            else:
                assert got[t] == pytest.approx(want[t], abs=atol)
    np.testing.assert_array_equal(profile.counts_minus, ref["count_minus"])
    np.testing.assert_array_equal(profile.counts_plus, ref["count_plus"])
    return ref


def test_single_event_hand_series():
    values = [0.1, 0.3, 0.2, 0.1, 2.0, 0.5, 0.3, 0.2, 0.1, 0.1, 0.2, 0.1]
    vol = _vol(values)
    events = _event_set([4], [2.0])
    profile, _ = _assert_profile_matches_brute(vol, events, 3)
    assert profile.v_minus[0] == 1.0
    assert profile.v_plus[0] == 1.0
    sigma = np.mean(values)
    z = 2.0 - sigma
    assert profile.v_plus[1] == pytest.approx((0.5 - sigma) / z, abs=1e-15)
    assert profile.v_minus[1] == pytest.approx((0.1 - sigma) / z, abs=1e-15)


def test_edge_event_gets_nan_out_of_bounds():
    vol = _vol([2.0, 0.1, 0.1, 0.1, 0.1, 0.1])
    events = _event_set([0], [2.0])
    profile, _ = _assert_profile_matches_brute(vol, events, 4)
    assert np.all(np.isnan(profile.v_minus[1:]))
    assert np.all(profile.counts_minus[1:] == 0)
    assert not np.any(np.isnan(profile.v_plus))


def test_profile_matches_brute_on_random_series():
    rng = np.random.default_rng(7)
    vol = _vol(rng.exponential(0.01, 3000))
    events = select_events(vol, 2.0)
    assert len(events) > 20
    _assert_profile_matches_brute(vol, events, 60)
    # A bootstrap replica: resampled indices, unsorted, with repeats.
    resampled = events.indices[rng.integers(0, len(events), len(events))]
    assert np.unique(resampled).size < resampled.size
    sigma = float(np.mean(vol.values))
    profile = _profile_from_indices(vol.values, resampled, 60, sigma)
    _assert_matches_brute(profile, vol.values, resampled, 60, 1e-12)


def _chunked_where_sums(values, indices, max_lag, chunk_cells):
    """The per-side index-arithmetic gather that the padded-window
    engine replaced, frozen as the reference for bit-exact output."""
    n = values.size
    n_lags = max_lag + 1
    lags = np.arange(n_lags, dtype=np.int64)
    sums_m = np.zeros(n_lags)
    sums_p = np.zeros(n_lags)
    cnts_m = np.zeros(n_lags, dtype=np.int64)
    cnts_p = np.zeros(n_lags, dtype=np.int64)
    chunk = max(1, chunk_cells // n_lags)
    for lo in range(0, indices.size, chunk):
        e = indices[lo : lo + chunk, None]
        after = e + lags
        ok = after < n
        sums_p += np.where(ok, values[np.where(ok, after, 0)], 0.0).sum(axis=0)
        cnts_p += ok.sum(axis=0)
        before = e - lags
        ok = before >= 0
        sums_m += np.where(ok, values[np.where(ok, before, 0)], 0.0).sum(axis=0)
        cnts_m += ok.sum(axis=0)
    return sums_m, cnts_m, sums_p, cnts_p


@st.composite
def _sums_case(draw):
    # Series shorter and longer than a window (2*max_lag + 1), events within
    # max_lag of either edge or both, and repeats, in any order.
    n = draw(st.integers(1, 300) | st.integers(301, 3000))
    max_lag = draw(st.integers(1, 400))
    indices = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=60))
    indices += draw(st.lists(st.sampled_from([0, n - 1]), max_size=3))
    near_edge = st.integers(0, min(n, max_lag) - 1) | st.integers(max(0, n - max_lag), n - 1)
    indices += draw(st.lists(near_edge, max_size=8))
    indices += draw(st.lists(st.sampled_from(indices), max_size=5))
    indices = draw(st.permutations(indices))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        values = rng.exponential(0.01, n)
    else:
        values = (rng.random(n) < 0.3).astype(np.float64)
    chunk_cells = draw(st.integers(1, 2000))
    return values, np.asarray(indices, dtype=np.int64), max_lag, chunk_cells


@settings(max_examples=300, deadline=None)
@given(_sums_case())
def test_conditional_sums_bit_identical_to_chunked_where_gather(case):
    values, indices, max_lag, chunk_cells = case
    want = _chunked_where_sums(values, indices, max_lag, chunk_cells)
    # A small chunk makes the engine accumulate across chunk boundaries.
    with mock.patch.object(profiles, "_CHUNK_CELLS", chunk_cells):
        got = _conditional_sums(values, indices, max_lag)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert np.array_equal(g, w)


def _one_gather_per_chunk_sums(values, indices, max_lag, chunk_cells):
    """Each chunk of events gathered and summed at once: the accumulation
    that block-wise gathering replaced, frozen as the reference."""
    windows = np.lib.stride_tricks.sliding_window_view(np.pad(values, max_lag), 2 * max_lag + 1)
    acc = np.zeros(2 * max_lag + 1)
    chunk = max(1, chunk_cells // (max_lag + 1))
    for lo in range(0, indices.size, chunk):
        acc += windows[indices[lo : lo + chunk]].sum(axis=0)
    return acc[max_lag::-1], acc[max_lag:]


@st.composite
def _blocks_case(draw):
    values, indices, max_lag, chunk_cells = draw(_sums_case())
    # Values over many decades, so that any change in the order of the
    # additions shows in the last bits.
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = values * 10.0 ** rng.integers(-8, 9, values.size)
    return values, indices, max_lag, chunk_cells, draw(st.integers(1, 3000))


@settings(max_examples=300, deadline=None)
@given(_blocks_case())
def test_conditional_sums_in_blocks_bit_identical_to_one_gather_per_chunk(case):
    values, indices, max_lag, chunk_cells, block_cells = case
    want = _one_gather_per_chunk_sums(values, indices, max_lag, chunk_cells)
    # Small chunks and blocks put both kinds of boundary inside the event list.
    with mock.patch.object(profiles, "_CHUNK_CELLS", chunk_cells), mock.patch.object(
        profiles, "_BLOCK_CELLS", block_cells
    ):
        sums_m, _, sums_p, _ = _conditional_sums(values, indices, max_lag)
    assert sums_m.tobytes() == want[0].tobytes()
    assert sums_p.tobytes() == want[1].tobytes()


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_conditional_sums_memory_does_not_grow_with_events():
    # One chunk gathered at once held events x (2*max_lag + 1) cells: 32 MB
    # for the 20,000 events here.  Gathered in blocks, 20 times as many
    # events cost only their sorted copy.
    rng = np.random.default_rng(5)
    values = rng.exponential(0.01, 100_000)
    few, many = (rng.integers(0, values.size, k) for k in (1_000, 20_000))
    peak_few = _traced_peak(_conditional_sums, values, few, 100)
    peak_many = _traced_peak(_conditional_sums, values, many, 100)
    assert peak_many < peak_few + 2 * many.nbytes


def test_conditional_sums_hold_no_padded_copy_of_the_series():
    # A padded copy of this 400k series alone took 3.2 MB, twice the bound.
    # Interior windows view the series; the edges' padded copies take 4*max_lag
    # values each; the block gathered takes 64K cells.
    rng = np.random.default_rng(6)
    values = rng.exponential(0.01, 400_000)
    indices = np.concatenate(([0, 7, 999, values.size - 1000, values.size - 1], rng.integers(0, values.size, 5_000)))
    peak = _traced_peak(_conditional_sums, values, indices, 1000)
    assert peak < values.nbytes / 2


def test_profile_normalization_is_exact():
    returns = gen_planted_relaxation(
        PlantedRelaxationSpec(
            n=50_000, sigma0=0.01, shock_rate=100.0, boost=3.0, p=0.3, tau=0.0,
            shock_magnitude=10.0, seed=3,
        )
    )
    vol = _vol(np.abs(returns.values))
    profile = remanent_profile(vol, select_events(vol, 4.0), 200)
    assert profile.v_minus[0] == 1.0
    assert profile.v_plus[0] == 1.0


def test_profile_rejects_empty_event_set():
    vol = _vol([1.0, 1.0, 1.0, 5.0])
    with pytest.raises(NoEvents):
        remanent_profile(vol, select_events(vol, 3.0), 2)


def test_profile_rejects_below_average_events():
    values = np.ones(100)
    values[50] = 30.0
    events = _event_set([10, 20], [1.0, 1.0], zeta_abs=0.5)
    with pytest.raises(DegenerateZ):
        remanent_profile(_vol(values), events, 5)


def test_cumulative_hand_case():
    profile = ConditionedProfile(
        max_lag=2,
        v_minus=np.array([1.0, 0.5, 0.25]),
        v_plus=np.array([1.0, 0.5, 0.25]),
        counts_minus=np.array([4, 4, 4]),
        counts_plus=np.array([4, 4, 4]),
        Z=1.0,
        sigma=1.0,
        n_events=4,
    )
    cum = cumulative(profile)
    np.testing.assert_array_equal(cum.V_plus, [0.0, 0.5, 0.75])
    np.testing.assert_array_equal(cum.V_minus, [0.0, 0.5, 0.75])
    np.testing.assert_array_equal(cum.lags, [0, 1, 2])


def test_cumulative_partial_sum_identity():
    rng = np.random.default_rng(8)
    vol = _vol(rng.exponential(0.01, 4000))
    profile = remanent_profile(vol, select_events(vol, 2.0), 50)
    cum = cumulative(profile)
    # Exact identity, not approximate: V accumulates sequentially.
    for V, v in ((cum.V_plus, profile.v_plus), (cum.V_minus, profile.v_minus)):
        for t in range(1, 51):
            assert V[t] == V[t - 1] + v[t]
    ref = brute_cumulative([1.0] + profile.v_plus[1:].tolist())
    np.testing.assert_allclose(cum.V_plus, ref, atol=1e-12)


def test_cumulative_of_power_profile_tracks_integral():
    """v(t) = t^-0.3 accumulates like the continuous integral of t^-0.3."""
    T = 4000
    t = np.arange(1, T + 1, dtype=np.float64)
    v = t ** -0.3
    profile = ConditionedProfile(
        max_lag=T,
        v_minus=np.concatenate(([1.0], v)),
        v_plus=np.concatenate(([1.0], v)),
        counts_minus=np.full(T + 1, 9),
        counts_plus=np.full(T + 1, 9),
        Z=1.0,
        sigma=1.0,
        n_events=9,
    )
    V = cumulative(profile).V_plus[1:]
    integral = ((t + 0.5) ** 0.7 - 0.5 ** 0.7) / 0.7
    rel = np.abs(V - integral) / integral
    assert np.all(rel[99:] < 0.02)


def test_omori_hand_case():
    values = np.array([1, 1, 1, 100, 1, 5, 1, 1, 5, 1, 1, 1], dtype=np.float64)
    vol = _vol(values)
    sigma = mean_volatility(vol)
    mainshocks = select_events(vol, 5.0)
    np.testing.assert_array_equal(mainshocks.indices, [3])
    omori = omori_counts(vol, mainshocks, 0.3, 6)
    np.testing.assert_array_equal(omori.N_plus, [0, 0, 1, 1, 1, 2, 2])
    np.testing.assert_array_equal(omori.N_minus, np.zeros(7))
    assert omori.n_mainshocks == 1
    assert omori.zeta1 == pytest.approx(0.3 * sigma)


def test_side_is_the_curve_before_or_after():
    values = np.array([1, 1, 1, 100, 1, 5, 1, 1, 5, 1, 1, 1], dtype=np.float64)
    vol = _vol(values)
    mainshocks = select_events(vol, 5.0)
    cum = cumulative(remanent_profile(vol, mainshocks, 6))
    omori = omori_counts(vol, mainshocks, 0.3, 6)
    for curves, minus, plus in ((cum, cum.V_minus, cum.V_plus), (omori, omori.N_minus, omori.N_plus)):
        assert curves.side("-") is minus
        assert curves.side("+") is plus
        for bad in ("x", "", "+-", "before"):
            message = f"side must be '-' or '+', got {bad!r}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                curves.side(bad)


def test_omori_matches_brute_on_random_series():
    rng = np.random.default_rng(12)
    values = rng.exponential(0.01, 4000)
    values[rng.integers(0, 4000, 25)] *= 40.0
    vol = _vol(values)
    sigma = mean_volatility(vol)
    mainshocks = select_events(vol, 6.0)
    assert len(mainshocks) >= 10
    omori = omori_counts(vol, mainshocks, 2.0, 50)
    ref_m, ref_p = brute_omori(
        values.tolist(), mainshocks.indices.tolist(), 2.0 * sigma, 50
    )
    np.testing.assert_allclose(omori.N_minus, ref_m, atol=1e-12)
    np.testing.assert_allclose(omori.N_plus, ref_p, atol=1e-12)


def test_omori_threshold_ordering_is_enforced():
    vol = _vol(np.concatenate((np.ones(50), [20.0], np.ones(50))))
    mainshocks = select_events(vol, 5.0)
    for bad in (5.0, 7.0, 0.0, -1.0):
        with pytest.raises(ValueError):
            omori_counts(vol, mainshocks, bad, 10)


def test_time_reversed_profile_swaps_sides():
    rng = np.random.default_rng(4)
    values = rng.exponential(0.01, 6000)
    vol = _vol(values)
    events = select_events(vol, 3.0)
    n = len(vol)
    rev_vol = _vol(values[::-1].copy())
    rev_events = _event_set(
        np.sort(n - 1 - events.indices),
        events.magnitudes[::-1],
        zeta_abs=events.zeta_abs,
        zeta_multiple=events.zeta_multiple,
    )
    T = 80
    fwd = remanent_profile(vol, events, T)
    bwd = remanent_profile(rev_vol, rev_events, T)
    np.testing.assert_allclose(bwd.v_plus, fwd.v_minus, atol=1e-12)
    np.testing.assert_allclose(bwd.v_minus, fwd.v_plus, atol=1e-12)
    # Exceedance counts swap exactly: 0/1 sums carry no rounding.
    om_f = omori_counts(vol, events, 1.5, T)
    om_b = omori_counts(rev_vol, rev_events, 1.5, T)
    np.testing.assert_array_equal(om_b.N_plus, om_f.N_minus)
    np.testing.assert_array_equal(om_b.N_minus, om_f.N_plus)


def test_reverse_returns_round_trip_profiles():
    returns = gen_iid_gaussian(5000, 0.01, seed=6)
    rev = reverse(returns)
    vol = _vol(np.abs(returns.values))
    rvol = _vol(np.abs(rev.values))
    events = select_events(vol, 2.5)
    rev_events = _event_set(
        np.sort(len(vol) - 1 - events.indices),
        events.magnitudes[::-1],
        zeta_abs=events.zeta_abs,
    )
    fwd = remanent_profile(vol, events, 40)
    bwd = remanent_profile(rvol, rev_events, 40)
    np.testing.assert_allclose(bwd.v_plus, fwd.v_minus, atol=1e-12)


def test_profile_invariants_are_enforced():
    base = dict(
        max_lag=1,
        counts_minus=np.array([2, 2]),
        counts_plus=np.array([2, 2]),
        Z=1.0,
        sigma=1.0,
        n_events=2,
    )
    with pytest.raises(ValueError):
        ConditionedProfile(v_minus=np.array([0.9, 0.1]), v_plus=np.array([1.0, 0.1]), **base)
    with pytest.raises(ValueError):
        ConditionedProfile(
            max_lag=1,
            v_minus=np.array([1.0, 0.1]),
            v_plus=np.array([1.0, 0.1]),
            counts_minus=np.array([2, 3]),
            counts_plus=np.array([2, 2]),
            Z=1.0,
            sigma=1.0,
            n_events=2,
        )


def test_profile_tsv_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    vol = _vol(rng.exponential(0.01, 2000))
    profile = remanent_profile(vol, select_events(vol, 2.0), 30)
    cum = cumulative(profile)
    path = str(tmp_path / "profile.tsv")
    write_profile_tsv(cum, path)
    cols = read_profile_tsv(path)
    np.testing.assert_array_equal(cols["t"], np.arange(31))
    np.testing.assert_array_equal(cols["v_minus"], profile.v_minus)
    np.testing.assert_array_equal(cols["v_plus"], profile.v_plus)
    np.testing.assert_array_equal(cols["V_minus"], cum.V_minus)
    np.testing.assert_array_equal(cols["V_plus"], cum.V_plus)
    np.testing.assert_array_equal(cols["count_minus"], profile.counts_minus)


def test_omori_tsv_round_trip(tmp_path):
    rng = np.random.default_rng(10)
    values = rng.exponential(0.01, 2000)
    values[rng.integers(0, 2000, 12)] *= 50.0
    vol = _vol(values)
    mainshocks = select_events(vol, 6.0)
    cum = cumulative(remanent_profile(vol, mainshocks, 30))
    omori = omori_counts(vol, mainshocks, 2.0, 30)
    path = str(tmp_path / "omori.tsv")
    write_omori_tsv(cum, omori, path)
    cols = read_omori_tsv(path)
    np.testing.assert_array_equal(cols["N_minus"], omori.N_minus)
    np.testing.assert_array_equal(cols["N_plus"], omori.N_plus)


def test_tsv_reader_rejects_foreign_files(tmp_path):
    path = tmp_path / "other.tsv"
    path.write_text("a\tb\n1\t2\n")
    with pytest.raises(MalformedRow):
        read_profile_tsv(str(path))
