"""Offset power-law fitting, its Nelder-Mead search and bootstrap errors."""

import re
import struct
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import optimize

from volrelax import (
    BootstrapUnstable,
    EventSet,
    InsufficientPositivePoints,
    NonConvergence,
    VolatilitySeries,
    bootstrap_errors,
    cumulative,
    fit_cumulative,
    fit_offset_power_law,
    format_with_stderr,
    gen_planted_relaxation,
    log_spaced_lags,
    PlantedRelaxationSpec,
    remanent_profile,
    select_events,
)
import volrelax.optimize
from volrelax import fitting
from volrelax.fitting import (
    FIT_COLUMNS,
    fit_report_row,
    read_fit_tsv,
    write_fit_tsv,
)
from volrelax.errors import MalformedRow, VolrelaxError


def _curve(p, tau, A=1.0, t_max=500):
    t = np.arange(t_max + 1, dtype=np.float64)
    q = 1.0 - p
    if tau > 0:
        V = A * ((t + tau) ** q - tau ** q) / q
    else:
        V = A * t ** q / q
    V[0] = 0.0
    return np.arange(t_max + 1, dtype=np.int64), V


def test_log_spaced_lags_small_range_is_dense():
    np.testing.assert_array_equal(log_spaced_lags(3, 20), np.arange(3, 21))


def test_log_spaced_lags_covers_endpoints():
    lags = log_spaced_lags(5, 1000)
    assert lags[0] == 5
    assert lags[-1] == 1000
    assert lags.size >= 30
    assert np.all(np.diff(lags) > 0)


def test_log_spaced_lags_validates_range():
    with pytest.raises(ValueError):
        log_spaced_lags(0, 10)
    with pytest.raises(ValueError):
        log_spaced_lags(10, 5)


def test_recovers_offset_curve():
    lags, V = _curve(0.47, 9.06)
    fit = fit_offset_power_law(lags, V, t_min=1)
    assert fit.p == pytest.approx(0.47, abs=1e-6)
    assert fit.tau == pytest.approx(9.06, rel=1e-4)
    assert fit.A == pytest.approx(1.0, rel=1e-6)
    assert fit.rms_log_residual < 1e-7
    assert fit.method == "full_fit"


def test_recovers_pure_power_with_pinned_offset():
    lags, V = _curve(0.3, 0.0, A=2.0)
    fit = fit_offset_power_law(lags, V, t_min=1, tau_mode="fixed_zero")
    assert fit.p == pytest.approx(0.3, abs=1e-8)
    assert fit.tau == 0.0
    assert fit.A == pytest.approx(2.0, rel=1e-8)


def test_recovers_log_limit_curve():
    t = np.arange(501, dtype=np.float64)
    V = np.log1p(t / 5.0)
    fit = fit_offset_power_law(np.arange(501, dtype=np.int64), V, t_min=1)
    assert fit.p == pytest.approx(1.0, abs=1e-3)


def test_fit_is_scale_invariant():
    lags, V = _curve(0.6, 4.0)
    a = fit_offset_power_law(lags, V, t_min=2)
    b = fit_offset_power_law(lags, 10.0 * V, t_min=2)
    # The loss only sees the shape, so the optimizer path is identical.
    assert a.p == b.p
    assert a.tau == b.tau
    assert b.A == pytest.approx(10.0 * a.A, rel=1e-12)


def test_fit_range_validation():
    lags, V = _curve(0.5, 1.0, t_max=100)
    with pytest.raises(ValueError):
        fit_offset_power_law(lags, V, t_min=0)
    with pytest.raises(ValueError):
        fit_offset_power_law(lags, V, t_min=50, t_max=20)
    with pytest.raises(ValueError):
        fit_offset_power_law(lags, V, t_min=1, t_max=101)
    with pytest.raises(ValueError):
        fit_offset_power_law(lags, V, t_min=1, tau_mode="pinned")


_BAD_CURVES = {
    "empty": (np.arange(0), np.arange(0.0), "lags is empty"),
    "lengths": (np.arange(40), np.ones(39), "lags and values differ in length: 40 and 39"),
    "values_2d": (np.arange(40), np.ones((40, 2)), "must be 1-D, got shapes (40,) and (40, 2)"),
    "descending": (np.arange(40)[::-1], np.ones(40), "lags must be strictly ascending"),
}


@pytest.mark.parametrize("case", list(_BAD_CURVES))
@pytest.mark.parametrize(
    "fit",
    [
        lambda lags, V: fit_offset_power_law(lags, V, t_min=1, t_max=30),
    ],
    ids=["fit_offset_power_law"],
)
def test_fits_reject_malformed_curves(fit, case):
    lags, V, message = _BAD_CURVES[case]
    with pytest.raises(ValueError, match=re.escape(message)):
        fit(lags, V)


def test_fit_rejects_nonpositive_curves():
    lags = np.arange(101, dtype=np.int64)
    with pytest.raises(InsufficientPositivePoints):
        fit_offset_power_law(lags, -np.ones(101), t_min=1)
    with pytest.raises(InsufficientPositivePoints):
        fit_offset_power_law(lags, np.full(101, np.nan), t_min=1)


def test_fit_rejects_tiny_samples():
    lags = np.arange(9, dtype=np.int64)
    V = np.arange(9, dtype=np.float64) ** 0.7
    with pytest.raises(InsufficientPositivePoints):
        fit_offset_power_law(lags, V, t_min=1)


def test_fit_reports_nonconvergence(monkeypatch):
    monkeypatch.setattr(fitting, "_MAX_ITER", 1)
    lags, V = _curve(0.5, 3.0)
    with pytest.raises(NonConvergence):
        fit_offset_power_law(lags, V, t_min=1)


@given(
    st.floats(0.1, 1.25),
    st.floats(0.5, 30.0),
    st.floats(0.1, 10.0),
)
@settings(max_examples=10, deadline=None)
def test_fit_recovers_random_noiseless_curves(p, tau, A):
    assume(abs(1.0 - p) > 0.05)
    lags, V = _curve(p, tau, A=A, t_max=400)
    fit = fit_offset_power_law(lags, V, t_min=1)
    assert fit.p == pytest.approx(p, abs=1e-3)


def _bump_vol(n, center, boost=3.0, p=0.3, width=120, base=0.01):
    values = np.full(n, base)
    d = np.arange(1, width + 1, dtype=np.float64)
    kernel = base * boost * d ** -p
    values[center] = 12 * base
    values[center + 1 : center + width + 1] += kernel
    values[center - width : center] += kernel[::-1]
    return VolatilitySeries(
        values=values,
        slot_index=np.zeros(n, dtype=np.int32),
        slots_per_day=1,
        cadence="daily",
    )


def _single_event_set(vol, index):
    return EventSet(
        indices=np.array([index]),
        zeta_multiple=5.0,
        zeta_abs=5.0 * float(np.mean(vol.values)),
        magnitudes=np.array([vol.values[index]]),
        signs=np.zeros(1, dtype=np.int8),
        origins=np.full(1, "unlabeled"),
    )


def test_bootstrap_single_event_has_zero_stderr():
    vol = _bump_vol(400, 200)
    events = _single_event_set(vol, 200)
    cfg = dict(max_lag=100, t_min=2, t_max=80, tau_mode="fixed_zero")
    boot = bootstrap_errors(vol, events, B=5, seed=0, **cfg)
    assert boot.n_failed == 0
    assert boot.stderr_minus == 0.0
    assert boot.stderr_plus == 0.0
    assert np.all(boot.p_minus == boot.p_minus[0])


def test_bootstrap_replicas_are_seed_stable():
    returns = gen_planted_relaxation(
        PlantedRelaxationSpec(
            n=40_000, sigma0=0.01, shock_rate=150.0, boost=3.0, p=0.3, tau=0.0,
            shock_magnitude=10.0, seed=5,
        )
    )
    vol = VolatilitySeries(
        values=np.abs(returns.values),
        slot_index=returns.slot_index,
        slots_per_day=1,
        cadence="daily",
    )
    events = select_events(vol, 5.0)
    cfg = dict(max_lag=100, t_min=2, t_max=50, tau_mode="fixed_zero")
    small = bootstrap_errors(vol, events, B=10, seed=42, **cfg)
    large = bootstrap_errors(vol, events, B=11, seed=42, **cfg)
    # Per-replica seeding: the first B replicas never change.
    np.testing.assert_array_equal(small.p_minus, large.p_minus[:10])
    np.testing.assert_array_equal(small.p_plus, large.p_plus[:10])
    assert small.stderr_minus > 0
    repeat = bootstrap_errors(vol, events, B=10, seed=42, **cfg)
    assert repeat.stderr_minus == small.stderr_minus
    assert repeat.stderr_plus == small.stderr_plus


def test_bootstrap_flags_unstable_event_sets():
    vol = _bump_vol(2400, 1200)
    # Second "event" hugs the left edge: replicas drawing only that one
    # cannot produce a fittable curve.
    values = vol.values.copy()
    values[2] = 12 * 0.01
    vol = VolatilitySeries(
        values=values,
        slot_index=np.zeros(2400, dtype=np.int32),
        slots_per_day=1,
        cadence="daily",
    )
    events = EventSet(
        indices=np.array([2, 1200]),
        zeta_multiple=5.0,
        zeta_abs=5.0 * float(np.mean(values)),
        magnitudes=values[[2, 1200]],
        signs=np.zeros(2, dtype=np.int8),
        origins=np.full(2, "unlabeled"),
    )
    cfg = dict(max_lag=100, t_min=2, t_max=80, tau_mode="fixed_zero")
    with pytest.raises(BootstrapUnstable):
        bootstrap_errors(vol, events, B=40, seed=1, **cfg)


_EDGE_N = 2400
_EDGE_CENTER = 1200


def _edge_vol_and_events(odd):
    """A good event at the centre and one ``odd`` event that fails alone.

    ``left`` sits at index 2, so a replica drawing only it has no ``-``
    curve beyond lag 2 (its ``+`` curve fits); ``right`` mirrors it at
    the other edge; ``low`` sits below the mean volatility, so a
    replica drawing only it has a degenerate ``Z`` and no profile.
    """
    base = 0.01
    values = np.full(_EDGE_N, base)
    kernel = base * 3.0 * np.arange(1, 121, dtype=np.float64) ** -0.3
    for c in (2, _EDGE_CENTER, _EDGE_N - 3):
        values[c] = 12 * base
        hi = min(c + 120, _EDGE_N - 1)
        values[c + 1 : hi + 1] += kernel[: hi - c]
        lo = max(c - 120, 0)
        values[lo:c] += kernel[: c - lo][::-1]
    values[600] = 0.001
    vol = VolatilitySeries(
        values=values,
        slot_index=np.zeros(_EDGE_N, dtype=np.int32),
        slots_per_day=1,
        cadence="daily",
    )
    at = {"left": 2, "right": _EDGE_N - 3, "low": 600}[odd]
    idx = np.array(sorted([at, _EDGE_CENTER]))
    events = EventSet(
        indices=idx,
        zeta_multiple=5.0,
        zeta_abs=0.0005,
        magnitudes=values[idx],
        signs=np.zeros(2, dtype=np.int8),
        origins=np.full(2, "unlabeled"),
    )
    return vol, events, int(np.searchsorted(idx, at))


def _replicas_drawing_only(event, seed, B):
    """The replicas whose two draws, ``default_rng(seed + r)``, are both ``event``."""
    return [
        r for r in range(B) if np.all(np.random.default_rng(seed + r).integers(0, 2, 2) == event)
    ]


def _replica(vol, events, event):
    """The cumulative profile of a replica that drew ``event`` twice."""
    idx = events.indices[[event, event]]
    return cumulative(fitting._profile_from_indices(vol.values, idx, 100, float(np.mean(vol.values))))


@pytest.mark.parametrize("odd", ["left", "right", "low"])
def test_bootstrap_failed_replica_leaves_nan_and_counts_once(odd):
    vol, events, at = _edge_vol_and_events(odd)
    cfg = dict(max_lag=100, t_min=2, t_max=80, tau_mode="fixed_zero")
    B = 10
    seed = next(s for s in range(1000) if len(_replicas_drawing_only(at, s, B)) == 1)
    (bad,) = _replicas_drawing_only(at, seed, B)
    boot = bootstrap_errors(vol, events, B=B, seed=seed, **cfg)
    assert boot.n_failed == 1
    good = np.arange(B) != bad
    assert np.all(np.isfinite(boot.p_minus[good]))
    assert np.all(np.isfinite(boot.p_plus[good]))
    assert np.isnan(boot.p_plus[bad])
    if odd == "right":
        # Only the + side failed: the - exponent is kept.
        assert boot.p_minus[bad] == fit_cumulative(_replica(vol, events, at), "-", 2, 80, "fixed_zero").p
    else:
        assert np.isnan(boot.p_minus[bad])
    if odd == "left":
        # The + side alone would fit; a failed - side drops it too.
        assert np.isfinite(fit_cumulative(_replica(vol, events, at), "+", 2, 80, "fixed_zero").p)
    assert boot.stderr_minus == float(np.std(boot.p_minus[~np.isnan(boot.p_minus)], ddof=1))
    assert boot.stderr_plus == float(np.std(boot.p_plus[good], ddof=1))


def test_bootstrap_unstable_message_counts_failed_replicas():
    vol, events, at = _edge_vol_and_events("left")
    cfg = dict(max_lag=100, t_min=2, t_max=80, tau_mode="fixed_zero")
    B = 10
    seed = next(s for s in range(1000) if len(_replicas_drawing_only(at, s, B)) >= 2)
    n_bad = len(_replicas_drawing_only(at, seed, B))
    with pytest.raises(BootstrapUnstable) as info:
        bootstrap_errors(vol, events, B=B, seed=seed, **cfg)
    assert str(info.value) == f"{n_bad}/{B} bootstrap replicas failed to fit"
    # The form the benchmark tracer parses for fitting.bootstrap_replicas_failed.
    hit = re.search(r"(\d+)/\d+ bootstrap replicas failed", str(info.value))
    assert int(hit.group(1)) == n_bad


def test_bootstrap_validates_arguments():
    vol = _bump_vol(400, 200)
    events = _single_event_set(vol, 200)
    cfg = dict(max_lag=100, t_min=2, t_max=80, tau_mode="fixed_zero")
    with pytest.raises(ValueError):
        bootstrap_errors(vol, events, B=1, seed=0, **cfg)


def test_format_with_stderr():
    assert format_with_stderr(0.47, 0.04) == "0.47(4)"
    assert format_with_stderr(0.2, 0.011) == "0.20(1)"
    assert format_with_stderr(0.105, 0.096) == "0.1(1)"
    assert format_with_stderr(1.234, 0.25) == "1.2(2)"
    assert format_with_stderr(12.3, 2.0) == "12(2)"
    assert format_with_stderr(0.47, None) == "0.47"
    assert format_with_stderr(0.47, 0.0) == "0.47"


def test_fit_report_round_trip(tmp_path):
    lags, V = _curve(0.47, 9.06)
    fit = fit_offset_power_law(lags, V, t_min=1)
    rows = [
        fit_report_row("-", 4.0, "all", "all", fit),
        fit_report_row("+", 4.0, "all", "crash", None, "NoEvents"),
    ]
    path = str(tmp_path / "fits.tsv")
    write_fit_tsv(rows, path)
    back = read_fit_tsv(path)
    assert len(back) == 2
    assert back[0]["side"] == "-"
    assert back[0]["p"] == fit.p
    assert back[0]["tau"] == fit.tau
    assert back[0]["method"] == "full_fit"
    assert np.isnan(back[0]["p_stderr"])
    assert back[1]["method"] == "failed:NoEvents"
    assert np.isnan(back[1]["p"])
    assert back[1]["t_min"] == 0


def test_fit_report_reader_rejects_foreign_files(tmp_path):
    path = tmp_path / "foreign.tsv"
    path.write_text("a\tb\n1\t2\n")
    with pytest.raises(MalformedRow):
        read_fit_tsv(str(path))
    assert len(FIT_COLUMNS) == 12


def test_fit_report_reader_decodes_as_the_input_readers_do(tmp_path):
    lags, V = _curve(0.47, 9.06)
    rows = [fit_report_row("-", 4.0, "all", "all", fit_offset_power_law(lags, V, t_min=1))]
    path = tmp_path / "fits.tsv"
    write_fit_tsv(rows, str(path))
    written = path.read_bytes()
    # A byte-order mark is dropped.
    bom = tmp_path / "bom.tsv"
    bom.write_bytes(b"\xef\xbb\xbf" + written)
    assert repr(read_fit_tsv(str(bom))) == repr(read_fit_tsv(str(path)))  # p_stderr is nan
    # A byte that is not UTF-8 names the file and its line, in any line ending.
    for eol in (b"\n", b"\r\n", b"\r"):
        bad = tmp_path / "bad.tsv"
        bad.write_bytes(written.replace(b"full_fit", b"full_fit\xe9").replace(b"\n", eol))
        with pytest.raises(MalformedRow, match=rf"^{re.escape(str(bad))} line 2: byte 0xe9 is not UTF-8$"):
            read_fit_tsv(str(bad))


def test_fit_cumulative_runs_on_real_profiles():
    returns = gen_planted_relaxation(
        PlantedRelaxationSpec(
            n=60_000, sigma0=0.01, shock_rate=120.0, boost=3.0, p=0.3, tau=0.0,
            shock_magnitude=10.0, seed=2,
        )
    )
    vol = VolatilitySeries(
        values=np.abs(returns.values),
        slot_index=returns.slot_index,
        slots_per_day=1,
        cadence="daily",
    )
    cum = cumulative(remanent_profile(vol, select_events(vol, 5.0), 200))
    minus = fit_cumulative(cum, "-", t_min=2, t_max=50, tau_mode="fixed_zero")
    plus = fit_cumulative(cum, "+", t_min=2, t_max=50, tau_mode="fixed_zero")
    assert 0.1 < minus.p < 0.6
    assert 0.1 < plus.p < 0.6


def test_overflowing_amplitude_emits_no_warning():
    # A saturating, step-like curve drives the best shape to p ~ 100,
    # where ln A exceeds the float range.
    lags = np.arange(101, dtype=np.int64)
    V = 1.0 - np.exp(-lags / 20.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = fit_offset_power_law(lags, V, t_min=5)
    assert fit.p > 50
    # exp(ln A) overflowed without a warning.  Refusing such a fit is
    # left open: see ROADMAP, "Smaller fixes".
    assert fit.A == np.inf


def _draw_log_v(draw, t):
    """A ``log V`` sample on ``t``, from a clean or a hostile curve."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["power", "noisy", "flat", "step", "saturating", "random"]))
    if kind in ("power", "noisy"):
        log_v = draw(st.floats(-1.0, 2.0)) * np.log(t + draw(st.floats(0.0, 50.0)))
        if kind == "noisy":
            log_v = log_v + rng.normal(0.0, draw(st.floats(0.01, 1.0)), t.size)
    elif kind == "flat":
        log_v = np.full(t.size, draw(st.floats(-5.0, 5.0)))
    elif kind == "step":
        log_v = np.where(t < draw(st.sampled_from(t.tolist())), 0.0, draw(st.floats(0.1, 20.0)))
    elif kind == "saturating":
        log_v = np.log1p(-np.exp(-t / draw(st.floats(1.0, 100.0))))
    else:
        log_v = rng.normal(0.0, 5.0, t.size)
    return log_v


def _draw_t(draw):
    n = draw(st.integers(10, 40))
    return np.unique(np.rint(np.geomspace(1.0, draw(st.integers(n, 1000)), n)))


@st.composite
def _loss_problems(draw):
    """``(t, log V)`` as the fit samples them, on clean and hostile curves."""
    t = _draw_t(draw)
    return t, _draw_log_v(draw, t)


@st.composite
def _sample_stacks(draw):
    """1-3 samples ``(t, log_v)``, each with 1-3 curves stacked on one ``t``."""
    stacks = []
    for _ in range(draw(st.integers(1, 3))):
        t = _draw_t(draw)
        rows = [_draw_log_v(draw, t) for _ in range(draw(st.integers(1, 3)))]
        stacks.append((t, np.array(rows)))
    return stacks


def _fit_objective(t, log_v, dim):
    """The objective a fit minimizes, over ``(p, sqrt(tau))`` or ``(p,)``."""
    if dim == 2:
        return lambda x: _frozen_loss(t, log_v, x[0], x[1] * x[1])
    return lambda x: _frozen_loss(t, log_v, x[0], 0.0)


_BUDGETS = st.integers(1, 80) | st.just(10_000)
# Zero coordinates take scipy's zdelt branch; p0 >= 1 with tau = 0
# starts in the penalty region; p0 ~ 1 with tau > 0 in the log limit.
_START_P = (
    st.sampled_from([0.0, 1.0, 1.2, -1.0, 0.5, 2.0])
    | st.floats(-1.0, 3.0)
    | st.floats(-2e-6, 2e-6).map(lambda e: 1.0 + e)
)
_START_ROOT_TAU = st.sampled_from([0.0]) | st.floats(0.0, 10.0)


@given(
    _loss_problems(),
    st.sampled_from([1, 2]),
    _START_P,
    _START_ROOT_TAU,
    _BUDGETS,
    _BUDGETS,
    st.sampled_from([(1e-8, 1e-16), (1e-4, 1e-4)]),
)
@settings(max_examples=150, deadline=None)
def test_nelder_mead_matches_scipy_step_for_step(problem, dim, p0, r0, maxfev, maxiter, tols):
    # Small budgets stop a run anywhere, also partway through a shrink.
    t, log_v = problem
    fun = _fit_objective(t, log_v, dim)
    x0 = np.array([p0, r0][:dim])
    options = {"xatol": tols[0], "fatol": tols[1], "maxiter": maxiter, "maxfev": maxfev}
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        want = optimize.minimize(fun, x0, method="Nelder-Mead", options=options)
        got = volrelax.optimize.minimize(fun, x0, **options)
    assert np.array_equal(got.x, want.x)
    assert got.fun == want.fun
    assert got.nfev == want.nfev
    assert got.nit == want.nit
    assert got.success == want.success


def _bowl_with_bit_noise(modulus, calls):
    """``(x - 1)^2 [+ (y - 2)^2]`` plus ``1e-15 * (bits % modulus)`` per
    coordinate.  Near the minimum neighbouring points differ by a few ULP
    of loss, more than the fits' ``fatol``, so a collapsed simplex can
    cycle to the end of its budget, as the fits' searches at ``tau = 0`` do.
    Each point evaluated is appended to ``calls``."""

    def fun(x):
        coords = [float(c) for c in x]
        calls.append(tuple(coords))
        bowl = sum((c - centre) ** 2 for c, centre in zip(coords, (1.0, 2.0)))
        return bowl + 1e-15 * sum(struct.unpack("<q", struct.pack("<d", c))[0] % modulus for c in coords)

    return fun


_STALL_BUDGETS = st.integers(150, 1500) | st.just(10_000)


def _ends_in_a_cycle(points, longest=100):
    """Whether the last evaluated points repeat, three times over, with a
    period of at most ``longest`` points: a search whose state came back."""
    return any(points[-2 * q :] == points[-3 * q : -q] for q in range(1, min(longest, len(points) // 3) + 1))


@given(
    st.sampled_from([1, 2]),
    st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
    st.sampled_from([7, 13]),
    _STALL_BUDGETS,
    _STALL_BUDGETS,
)
@example(2, (0.3, 0.7), 7, 10_000, 10_000)
@example(1, (2.644407133494, 0.0), 13, 10_000, 10_000)
@example(2, (1.875, 0.03125), 7, 10_000, 10_000)  # converges slowly: 2,007 calls
@example(2, (2.9375, 1e-06), 7, 10_000, 10_000)  # creeps to the cap: 10,000 calls
@settings(max_examples=60, deadline=None)
def test_stalled_search_matches_scipy(dim, start, modulus, maxfev, maxiter):
    # A cycle's skipped periods leave every count and the stop where scipy
    # has them.  Only a search whose state repeats has periods to skip: with
    # a 10,000 budget such a search asks for a few hundred losses, and any
    # other search asks for every loss that scipy's does.
    x0 = np.array(start[:dim])
    options = {"xatol": fitting._XATOL, "fatol": fitting._XATOL**2, "maxiter": maxiter, "maxfev": maxfev}
    points: list = []
    want = optimize.minimize(_bowl_with_bit_noise(modulus, points), x0, method="Nelder-Mead", options=options)
    calls: list = []
    got = volrelax.optimize.minimize(_bowl_with_bit_noise(modulus, calls), x0, **options)
    assert np.array_equal(got.x, want.x)
    assert got.fun == want.fun
    assert got.nfev == want.nfev
    assert got.nit == want.nit
    assert got.success == want.success
    if not _ends_in_a_cycle(points):
        assert calls == points
    elif maxfev == maxiter == 10_000:
        assert len(calls) < 1_000


@pytest.mark.parametrize(
    "start, calls_wanted, nit, success",
    [((1.875, 0.03125), 2_007, 1_008, True), ((2.9375, 1e-06), 10_000, 5_000, False)],
)
def test_search_without_a_cycle_asks_for_every_loss(start, calls_wanted, nit, success):
    # Neither search repeats a state: one converges slowly, the other
    # creeps to the cap.  So nothing is skipped, though both run long.
    calls: list = []
    res = volrelax.optimize.minimize(
        _bowl_with_bit_noise(7, calls), np.array(start), xatol=fitting._XATOL,
        fatol=fitting._XATOL**2, maxiter=fitting._MAX_ITER, maxfev=fitting._MAX_ITER,
    )
    assert len(calls) == res.nfev == calls_wanted
    assert (res.nit, res.success) == (nit, success)
    assert not _ends_in_a_cycle(calls)


def test_fit_budget_counts_a_stalled_search_without_running_it():
    # The fits' cap of _MAX_ITER evaluations is scipy's nfev: a search that
    # stalls reaches it, though it asks for far fewer losses.
    for dim, x0, modulus in ((2, [0.3, 0.7], 7), (1, [2.644407133494], 13)):
        calls: list = []
        res = volrelax.optimize.minimize(
            _bowl_with_bit_noise(modulus, calls), np.array(x0), xatol=fitting._XATOL,
            fatol=fitting._XATOL**2, maxiter=fitting._MAX_ITER, maxfev=fitting._MAX_ITER,
        )
        assert res.nfev == fitting._MAX_ITER and not res.success
        assert len(calls) < 1_000


def _frozen_search(x0, *, xatol, fatol, maxiter, maxfev):
    """``optimize.search`` as it was before the scalar bodies: one loop for
    any size, each vertex a list of floats."""
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    n = len(x0)
    sim = [[float(c) for c in x0]]
    for k in range(n):
        y = list(sim[0])
        y[k] = (1 + 0.05) * y[k] if y[k] != 0 else 0.00025
        sim.append(y)
    fsim = [float("inf")] * (n + 1)
    nfev = 0
    for k in range(min(n + 1, maxfev)):
        fsim[k] = yield sim[k]
        nfev += 1
    nit = 1
    stalled, last, mark = 0, None, None
    while True:
        order = sorted(range(n + 1), key=lambda i: (fsim[i] != fsim[i], fsim[i]))
        sim, fsim = [sim[i] for i in order], [fsim[i] for i in order]
        if nfev >= maxfev or nit >= maxiter:
            break
        s0, f0 = sim[0], fsim[0]
        x_close = all(abs(c - c0) <= xatol for v in sim[1:] for c, c0 in zip(v, s0))
        if x_close and all(abs(f0 - fv) <= fatol for fv in fsim[1:]):
            break
        if x_close:
            bits = struct.pack(f"{(n + 1) ** 2}d", *fsim, *(c for v in sim for c in v))
            for seen in (last, mark):
                if seen and seen[0] == bits:
                    di, df = nit - seen[1], nfev - seen[2]
                    k = max(min((maxfev - nfev) // df, (maxiter - nit) // di) - 1, 0)
                    nit, nfev = nit + k * di, nfev + k * df
                    break
            stalled, last = stalled + 1, (bits, nit, nfev)
            mark = last if stalled & (stalled - 1) == 0 else mark
        xbar = s0
        for v in sim[1:-1]:
            xbar = [a + b for a, b in zip(xbar, v)]
        xbar = [a / n for a in xbar]
        worst = sim[-1]
        xr = [(1 + rho) * b - rho * w for b, w in zip(xbar, worst)]
        fxr = yield xr
        nfev += 1
        shrink = False
        if fxr < fsim[0]:
            if nfev >= maxfev:
                continue
            xe = [(1 + rho * chi) * b - rho * chi * w for b, w in zip(xbar, worst)]
            fxe = yield xe
            nfev += 1
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        elif fxr < fsim[-1]:
            if nfev >= maxfev:
                continue
            xc = [(1 + psi * rho) * b - psi * rho * w for b, w in zip(xbar, worst)]
            fxc = yield xc
            nfev += 1
            if fxc <= fxr:
                sim[-1], fsim[-1] = xc, fxc
            else:
                shrink = True
        else:
            if nfev >= maxfev:
                continue
            xcc = [(1 - psi) * b + psi * w for b, w in zip(xbar, worst)]
            fxcc = yield xcc
            nfev += 1
            if fxcc < fsim[-1]:
                sim[-1], fsim[-1] = xcc, fxcc
            else:
                shrink = True
        if shrink:
            for j in range(1, n + 1):
                sim[j] = [a + sigma * (b - a) for a, b in zip(s0, sim[j])]
                if nfev >= maxfev:
                    break
                fsim[j] = yield sim[j]
                nfev += 1
            else:
                nit += 1
        else:
            nit += 1
    return volrelax.optimize.MinimizeResult(
        x=np.array(sim[0]),
        fun=fsim[-1] if fsim[-1] != fsim[-1] else fsim[0],
        nit=nit,
        nfev=nfev,
        success=nfev < maxfev and nit < maxiter,
    )


@st.composite
def _hostile_objectives(draw):
    """A bowl whose loss is NaN on a half-plane of the last coordinate or
    at scattered points, ``+inf`` on a half-plane of the first, and rounded
    to a grid (exact ties; a grid of 1e9 makes the loss flat)."""
    centre = draw(st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)))
    grid = draw(st.sampled_from([0.0, 1e-3, 0.25, 1e9]))
    nan_above = draw(st.none() | st.floats(-1.0, 3.0))
    inf_below = draw(st.none() | st.floats(-3.0, 1.0))
    nan_every = draw(st.sampled_from([None, 2, 3, 7]))

    def fun(x):
        if nan_above is not None and x[-1] > nan_above:
            return float("nan")
        if inf_below is not None and x[0] < inf_below:
            return float("inf")
        if nan_every and sum(struct.unpack(f"<{len(x)}q", struct.pack(f"<{len(x)}d", *x))) % nan_every == 0:
            return float("nan")
        d = [c - c0 for c, c0 in zip(x, centre)]
        loss = d[0] * d[0] if len(d) == 1 else d[0] * d[0] + d[1] * d[1]
        if grid and np.isfinite(loss):
            loss = float(np.rint(loss / grid) * grid)
        return loss

    return fun


def _run_search(steps, fun):
    """Drive a search with ``fun``: the bit patterns of the points it asked
    for, and its result."""
    points = []
    try:
        x = next(steps)
        while True:
            points.append(struct.pack(f"{len(x)}d", *x))
            x = steps.send(fun(x))
    except StopIteration as stop:
        return points, stop.value


_COORDS = st.sampled_from([0.0, -0.0]) | st.floats(-3.0, 3.0)


@given(
    _hostile_objectives(),
    st.lists(_COORDS, min_size=1, max_size=2),
    _BUDGETS,
    _BUDGETS,
    st.sampled_from([(1e-8, 1e-16), (1e-4, 1e-4), (1e-2, 0.0)]),
)
@example(lambda x: 0.0, [0.0, -0.0], 10_000, 10_000, (1e-8, 1e-16))
@settings(max_examples=300, deadline=None)
def test_search_equals_the_frozen_search(fun, x0, maxfev, maxiter, tols):
    # Every point asked for, bit for bit, and the result: NaN, +inf and
    # tied losses put the vertices in every order the stable NaN-last sort
    # can give, and small budgets stop a search anywhere.
    options = {"xatol": tols[0], "fatol": tols[1], "maxiter": maxiter, "maxfev": maxfev}
    got_points, got = _run_search(volrelax.optimize.search(np.array(x0), **options), fun)
    want_points, want = _run_search(_frozen_search(np.array(x0), **options), fun)
    assert got_points == want_points
    assert got.x.tobytes() == want.x.tobytes()
    assert struct.pack("d", got.fun) == struct.pack("d", want.fun)
    assert (got.nit, got.nfev, got.success) == (want.nit, want.nfev, want.success)


@pytest.mark.parametrize("x0", [[], [0.5, 1.0, 2.0]])
def test_search_refuses_other_sizes(x0):
    with pytest.raises(ValueError, match="1 or 2 parameters"):
        next(volrelax.optimize.search(np.array(x0), xatol=1e-8, fatol=1e-16, maxiter=10, maxfev=10))


@st.composite
def _descents(draw):
    """Samples and 1-8 starts ``(s, row, x0)`` on them, of one or two dimensions."""
    samples = draw(_sample_stacks())
    starts = []
    for _ in range(draw(st.integers(1, 8))):
        s = draw(st.integers(0, len(samples) - 1))
        row = draw(st.integers(0, len(samples[s][1]) - 1))
        x0 = np.array([draw(_START_P), draw(_START_ROOT_TAU)][: draw(st.sampled_from([1, 2]))])
        starts.append((s, row, x0))
    return samples, starts


@given(_descents(), _BUDGETS)
@settings(max_examples=100, deadline=None)
def test_descend_equals_minimize_per_search(descents, budget):
    # A small budget ends the searches of one lock step in different
    # rounds, some partway through a shrink.
    samples, starts = descents
    with mock.patch.object(fitting, "_MAX_ITER", budget):
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            got = fitting._descend(samples, starts)
    assert len(got) == len(starts)
    for (s, row, x0), res in zip(starts, got):
        t, log_v = samples[s]
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            want = volrelax.optimize.minimize(
                _fit_objective(t, log_v[row], x0.size), x0, xatol=fitting._XATOL,
                fatol=fitting._XATOL**2, maxiter=budget, maxfev=budget,
            )
        assert np.array_equal(res.x, want.x)
        assert res.fun == want.fun or (np.isnan(res.fun) and np.isnan(want.fun))
        assert res.nfev == want.nfev
        assert res.nit == want.nit
        assert res.success == want.success


def _frozen_select_sample(lags, values, t_min, t_max):
    """``_select_sample`` as it was before the lock-step searches."""
    sample = log_spaced_lags(t_min, t_max)
    pos = np.searchsorted(lags, sample)
    ok = (pos < lags.size) & (lags[np.minimum(pos, lags.size - 1)] == sample)
    sample, pos = sample[ok], pos[ok]
    if sample.size == 0:
        raise InsufficientPositivePoints("no computed lags in the fit range")
    v = values[pos]
    good = np.isfinite(v) & (v > 0)
    n_bad = int(sample.size - good.sum())
    if n_bad > 0.2 * sample.size:
        raise InsufficientPositivePoints(
            f"{n_bad}/{sample.size} sampled points are nonpositive or undefined"
        )
    if int(good.sum()) < 10:
        raise InsufficientPositivePoints(
            f"need >= 10 positive points in [{t_min}, {t_max}], got {int(good.sum())}"
        )
    return sample[good].astype(np.float64), np.log(v[good])


def _frozen_fit(
    lags, values, t_min=5, t_max=None, tau_mode="free",
    minimize=volrelax.optimize.minimize,
):
    """``fit_offset_power_law`` as it was before the lock-step searches: one
    start after the other, each descended by ``minimize``."""
    lags = np.asarray(lags, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    if t_max is None:
        t_max = int(lags[-1])
    if not 1 <= t_min <= t_max <= int(lags[-1]):
        raise ValueError(f"fit range [{t_min}, {t_max}] not within computed lags")
    if tau_mode not in ("free", "fixed_zero"):
        raise ValueError(f"tau_mode must be 'free' or 'fixed_zero', got {tau_mode!r}")
    t, log_v = _frozen_select_sample(lags, values, t_min, t_max)
    free_tau = tau_mode == "free"
    if free_tau:
        starts = [(p0, tau0) for p0 in fitting._P_GRID for tau0 in fitting._TAU_GRID]
    else:
        starts = [(p0, 0.0) for p0 in fitting._P_GRID]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        coarse = sorted(
            range(len(starts)), key=lambda i: (_frozen_loss(t, log_v, *starts[i]), i)
        )[: fitting._N_STARTS]
        best = None
        for i in coarse:
            p0, tau0 = starts[i]
            x0 = np.array([p0, np.sqrt(tau0)]) if free_tau else np.array([p0])
            res = minimize(
                _fit_objective(t, log_v, x0.size), x0, xatol=fitting._XATOL,
                fatol=fitting._XATOL**2, maxiter=fitting._MAX_ITER, maxfev=fitting._MAX_ITER,
            )
            if not res.success or res.fun >= fitting._PENALTY / 2:
                continue
            if best is None or res.fun < best[0]:
                tau_hat = float(res.x[1] ** 2) if free_tau else 0.0
                best = (float(res.fun), float(res.x[0]), tau_hat)
            if best is not None and best[0] == 0.0:
                break
        if best is None:
            raise NonConvergence(
                f"no start converged within {fitting._MAX_ITER} iterations "
                f"at tolerance {fitting._XATOL}"
            )
        loss, p_hat, tau_hat = best
        ln_g = _frozen_log_model(t, p_hat, tau_hat)
        ln_a = float(np.mean(log_v - ln_g))
        resid = log_v - ln_g - ln_a
        A = float(np.exp(ln_a))
    return fitting.PowerLawFit(
        A=A,
        p=p_hat,
        tau=tau_hat,
        fit_range=(int(t_min), int(t_max)),
        rms_log_residual=float(np.sqrt(np.mean(resid * resid))),
    )


def _frozen_bootstrap(vol, events, max_lag, B, seed, t_min, t_max, tau_mode):
    """``bootstrap_errors`` as it was before the lock-step searches."""
    sigma = float(np.mean(vol.values))
    n_ev = len(events)
    p_m = np.full(B, np.nan)
    p_p = np.full(B, np.nan)
    n_failed = 0
    for r in range(B):
        rng = np.random.default_rng(seed + r)
        idx = events.indices[rng.integers(0, n_ev, n_ev)]
        try:
            cum = cumulative(fitting._profile_from_indices(vol.values, idx, max_lag, sigma))
            for side, p in (("-", p_m), ("+", p_p)):
                p[r] = _frozen_fit(cum.lags, cum.side(side), t_min, t_max, tau_mode).p
        except VolrelaxError:
            n_failed += 1
    if n_failed > 0.1 * B:
        raise BootstrapUnstable(f"{n_failed}/{B} bootstrap replicas failed to fit")
    ok_m, ok_p = ~np.isnan(p_m), ~np.isnan(p_p)
    return fitting.BootstrapResult(
        p_minus=p_m,
        p_plus=p_p,
        stderr_minus=float(np.std(p_m[ok_m], ddof=1)),
        stderr_plus=float(np.std(p_p[ok_p], ddof=1)),
        n_failed=n_failed,
        n_replicas=B,
    )


def _outcome(call):
    """What ``call()`` gives, compared exactly: the repr of its result
    (bit patterns for arrays), or the type and message of its error."""
    try:
        result = call()
    except (ValueError, VolrelaxError) as exc:
        return type(exc), str(exc)
    if isinstance(result, Exception):
        return type(result), str(result)
    if isinstance(result, fitting.BootstrapResult):
        return (
            result.p_minus.tobytes(), result.p_plus.tobytes(), repr(result.stderr_minus),
            repr(result.stderr_plus), result.n_failed, result.n_replicas,
        )
    return repr(result)


@st.composite
def _curves(draw):
    """A curve ``(lags, values)`` that fits, fits badly, or fails to fit."""
    n = draw(st.integers(12, 400))
    step = draw(st.sampled_from([1, 1, 2, 3]))
    lags = np.arange(0, n * step, step, dtype=np.int64)
    t = lags.astype(np.float64)
    kind = draw(st.sampled_from(["offset", "pure", "log", "saturating", "noisy", "negative"]))
    p = draw(st.floats(0.05, 1.5))
    tau = draw(st.floats(0.5, 30.0))
    if kind == "offset" and abs(1.0 - p) > 1e-3:
        V = ((t + tau) ** (1.0 - p) - tau ** (1.0 - p)) / (1.0 - p)
    elif kind in ("pure", "offset"):
        V = t ** 0.6
    elif kind == "log":
        V = np.log1p(t / tau)
    elif kind == "saturating":
        V = 1.0 - np.exp(-t / tau)
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        V = t ** p * np.exp(rng.normal(0.0, 0.3, t.size))
        if kind == "negative":
            V[rng.random(t.size) < draw(st.floats(0.0, 0.5))] *= -1.0
    return lags, V


@given(
    # Some curves drawn more than once, as a bootstrap's replicas of few events are.
    st.lists(_curves(), min_size=1, max_size=5).flatmap(
        lambda curves: st.lists(st.sampled_from(curves), min_size=1, max_size=8)
    ),
    st.integers(1, 6),
    st.sampled_from([None, 30, 60]),
    st.sampled_from(["free", "fixed_zero"]),
)
@settings(max_examples=40, deadline=None)
def test_fit_many_equals_the_sequential_fit(curves, t_min, t_max, tau_mode):
    with mock.patch.object(fitting, "_descend", wraps=fitting._descend) as descend:
        got = fitting._fit_many(curves, t_min, t_max, tau_mode)
    assert len(got) == len(curves)
    for (lags, V), fit in zip(curves, got):
        want = _outcome(lambda: _frozen_fit(lags, V, t_min, t_max, tau_mode))
        assert _outcome(lambda: fit) == want
    # Each distinct sample is searched once.
    distinct = set()
    for lags, V in curves:
        try:
            t, log_v, t_hi = fitting._select_sample(lags, V, t_min, t_max, tau_mode)
        except (ValueError, VolrelaxError):
            continue
        distinct.add((t.tobytes(), log_v.tobytes(), t_hi))
    searches = len(descend.call_args.args[1]) if descend.called else 0
    assert searches == fitting._N_STARTS * len(distinct)


def _planted_events(seed, threshold):
    returns = gen_planted_relaxation(
        PlantedRelaxationSpec(
            n=6_000, sigma0=0.01, shock_rate=150.0, boost=3.0, p=0.3, tau=0.0,
            shock_magnitude=10.0, seed=seed,
        )
    )
    vol = VolatilitySeries(
        values=np.abs(returns.values),
        slot_index=returns.slot_index,
        slots_per_day=1,
        cadence="daily",
    )
    return vol, select_events(vol, threshold)


@given(
    st.sampled_from(["planted", "left", "right", "low"]),
    st.integers(2, 8),
    st.integers(0, 2**20),
    st.sampled_from([(1, None), (2, 30), (5, 50)]),
    st.sampled_from(["free", "fixed_zero"]),
)
@settings(max_examples=20, deadline=None)
def test_bootstrap_equals_the_sequential_bootstrap(source, B, seed, fit_range, tau_mode):
    if source == "planted":
        vol, events = _planted_events(seed % 3, 5.0)
    else:
        vol, events, _ = _edge_vol_and_events(source)
    fit_args = (fit_range[0], fit_range[1], tau_mode)
    got = _outcome(lambda: bootstrap_errors(vol, events, 60, B, seed, *fit_args))
    assert got == _outcome(lambda: _frozen_bootstrap(vol, events, 60, B, seed, *fit_args))


@pytest.mark.parametrize(
    ("V", "tau_mode"),
    [
        (_curve(0.47, 9.06)[1], "free"),
        (_curve(0.3, 0.0, A=2.0)[1], "fixed_zero"),
        (np.log1p(np.arange(501) / 5.0), "free"),
        (1.0 - np.exp(-np.arange(501) / 20.0), "free"),
        (np.arange(501) ** 0.6 * np.exp(np.random.default_rng(3).normal(0, 0.2, 501)), "free"),
        (np.arange(501) ** 0.6 * np.exp(np.random.default_rng(4).normal(0, 0.2, 501)), "fixed_zero"),
    ],
)
def test_fit_equals_the_fit_with_scipy_nelder_mead(V, tau_mode):
    # The lock-step fit against one start after the other, each descended
    # by scipy's Nelder-Mead.
    lags = np.arange(V.size, dtype=np.int64)
    ours = fit_offset_power_law(lags, V, t_min=2, tau_mode=tau_mode)

    def scipy_minimize(fun, x0, **options):
        return optimize.minimize(fun, x0, method="Nelder-Mead", options=options)

    theirs = _frozen_fit(lags, V, t_min=2, tau_mode=tau_mode, minimize=scipy_minimize)
    assert ours == theirs


def _frozen_log_model(t, p, tau):
    """``_log_model`` and ``_loss`` as they were before the lean loss."""
    q = 1.0 - p
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if tau > 0.0:
            if abs(q) < fitting._LOG_LIMIT_EPS:
                ln_g = np.log(np.log1p(t / tau))
            else:
                g = np.power(tau, q) * np.expm1(q * np.log1p(t / tau)) / q
                ln_g = np.log(g)
        else:
            if q < fitting._LOG_LIMIT_EPS:
                return None
            ln_g = q * np.log(t) - np.log(q)
    if not np.all(np.isfinite(ln_g)):
        return None
    return ln_g


def _frozen_loss(t, log_v, p, tau):
    ln_g = _frozen_log_model(t, p, tau)
    if ln_g is None:
        return fitting._PENALTY
    d = log_v - ln_g
    r = d - d.mean()
    return float(np.mean(r * r))


_EXPONENTS = (
    st.floats(-3.0, 3.0)
    | st.sampled_from([-1.0, 0.5, 2.0])  # q = 2, 0.5, -1: powers numpy may special-case
    | st.floats(-2e-6, 2e-6).map(lambda e: 1.0 + e)  # around the log limit
    | st.floats(1.0, 500.0)  # p >= 1: the penalty region when tau = 0
    | st.floats(-1e200, -1e150)  # r * r overflows when tau = 0
)
_OFFSETS = (
    st.just(0.0)
    | st.floats(0.0, 1e4)
    | st.floats(5e-324, 1e-300)  # denormal and tiny
    | st.floats(1e300, 1.7976931348623157e308)  # t / tau underflows, tau^q overflows
)


def test_losses_take_scalar_powers_at_simple_exponents():
    # numpy's power can take a fast path for a simple scalar exponent (-1,
    # 0.5 and 2 with numpy 2.4) that rounds differently from the same power
    # on arrays; every row of _losses must be the one-row (scalar) result.
    t = np.unique(np.rint(np.geomspace(1.0, 1000.0, 30)))
    log_v = 0.4 * np.log(t + 3.0)
    taus = np.geomspace(1e-3, 1e4, 200)
    for q in sorted({k / 4 for k in range(-12, 13)} | {k / 3 for k in range(-6, 7)}):
        if q == 0.0:
            continue  # the log limit
        p = 1.0 - q
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            got = fitting._losses(
                t, np.tile(log_v, (taus.size, 1)), np.full(taus.size, p), taus, fitting._OFFSET
            )
            want = [_frozen_loss(t, log_v, p, tau) for tau in taus.tolist()]
        assert got.tolist() == want, q


def test_evaluate_in_blocks_equals_one_point_at_a_time():
    # More points than one block of rows, all on one sample and branch.
    t = np.unique(np.rint(np.geomspace(1.0, 300.0, 30)))
    log_v = np.array([0.7 * np.log(t + 3.0), 0.4 * np.log(t)])
    points = [(0, k % 2, 0.05 + 0.001 * k, 1.0 + 0.01 * k) for k in range(700)]
    got = fitting._evaluate([(t, log_v)], points)
    assert got == [fitting._evaluate([(t, log_v)], [point])[0] for point in points]


@given(_sample_stacks(), st.lists(st.tuples(_EXPONENTS, _OFFSETS), min_size=1, max_size=12))
@settings(max_examples=400, deadline=None)
def test_loss_equals_the_frozen_loss(stacks, params):
    # Every (p, tau) on every curve: the rows of one _losses call share
    # a sample and a branch, and each equals the frozen loss bit for bit.
    t, log_v = stacks[0]
    points = [(row, p, tau) for row in range(len(log_v)) for p, tau in params]
    by_branch = {}
    for point in points:
        by_branch.setdefault(fitting._branch(*point[1:]), []).append(point)
    for branch, group in by_branch.items():
        rows, ps, taus = (list(c) for c in zip(*group))
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            got = fitting._losses(t, log_v[rows], np.array(ps), np.array(taus), branch)
            want = [_frozen_loss(t, log_v[row], p, tau) for row, p, tau in group]
        assert got.shape == (len(group),)
        for loss, frozen in zip(got.tolist(), want):
            assert loss == frozen or (np.isnan(loss) and np.isnan(frozen))
    for p, tau in params:
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            ln_g = fitting._ln_g(t, np.array([p]), np.array([tau]), fitting._branch(p, tau))
        frozen = _frozen_log_model(t, p, tau)
        assert (ln_g is None or not np.isfinite(ln_g).all()) == (frozen is None)
        if frozen is not None:
            assert np.array_equal(ln_g[0], frozen)
