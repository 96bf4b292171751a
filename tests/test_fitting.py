"""Offset power-law fitting, tail slopes and bootstrap errors."""

import types
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import optimize

from volrelax import (
    BootstrapUnstable,
    EventSet,
    FitConfig,
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
    tail_slope,
)
import volrelax.optimize
from volrelax import fitting
from volrelax.fitting import (
    FIT_COLUMNS,
    fit_report_row,
    read_fit_tsv,
    write_fit_tsv,
)
from volrelax.errors import MalformedRow


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
    lags = log_spaced_lags(5, 1000, 30)
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


def test_fit_subsample_is_stable():
    lags, V = _curve(0.35, 12.0, t_max=2000)
    a = fit_offset_power_law(lags, V, t_min=1, n_points=30)
    b = fit_offset_power_law(lags, V, t_min=1, n_points=60)
    assert a.p == pytest.approx(b.p, abs=1e-5)


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


def test_tail_slope_exact_power():
    lags, V = _curve(0.3, 0.0, A=3.0, t_max=1000)
    fit = tail_slope(lags, V, 10, 1000)
    assert fit.p == pytest.approx(0.3, abs=1e-12)
    # _curve folds the 1/(1-p) integration constant into the curve.
    assert fit.A == pytest.approx(3.0 / 0.7, rel=1e-10)
    assert fit.method == "tail_slope"


def test_tail_slope_constant_curve():
    lags = np.arange(101, dtype=np.int64)
    fit = tail_slope(lags, np.full(101, 7.0), 10, 100)
    assert fit.p == pytest.approx(1.0, abs=1e-12)


def test_tail_slope_approximates_offset_curve_at_large_lag():
    lags, V = _curve(0.3, 5.0, t_max=10_000)
    fit = tail_slope(lags, V, 2000, 10_000)
    assert fit.p == pytest.approx(0.3, abs=0.02)


def test_tail_slope_needs_points():
    lags = np.arange(101, dtype=np.int64)
    V = np.concatenate((np.ones(4), -np.ones(97)))
    with pytest.raises(InsufficientPositivePoints):
        tail_slope(lags, V, 1, 100)


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
    cfg = FitConfig(max_lag=100, t_min=2, t_max=80, tau_mode="fixed_zero")
    boot = bootstrap_errors(vol, events, cfg, B=5, seed=0)
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
    cfg = FitConfig(max_lag=100, t_min=2, t_max=50, tau_mode="fixed_zero")
    small = bootstrap_errors(vol, events, cfg, B=10, seed=42)
    large = bootstrap_errors(vol, events, cfg, B=11, seed=42)
    # Per-replica seeding: the first B replicas never change.
    np.testing.assert_array_equal(small.p_minus, large.p_minus[:10])
    np.testing.assert_array_equal(small.p_plus, large.p_plus[:10])
    assert small.stderr_minus > 0
    repeat = bootstrap_errors(vol, events, cfg, B=10, seed=42)
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
    cfg = FitConfig(max_lag=100, t_min=2, t_max=80, tau_mode="fixed_zero")
    with pytest.raises(BootstrapUnstable):
        bootstrap_errors(vol, events, cfg, B=40, seed=1)


def test_bootstrap_validates_arguments():
    vol = _bump_vol(400, 200)
    events = _single_event_set(vol, 200)
    cfg = FitConfig(max_lag=100, t_min=2, t_max=80, tau_mode="fixed_zero")
    with pytest.raises(ValueError):
        bootstrap_errors(vol, events, cfg, B=1, seed=0)


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


@st.composite
def _loss_problems(draw):
    """``(t, log V)`` as the fit samples them, on clean and hostile curves."""
    n = draw(st.integers(10, 40))
    t = np.unique(np.rint(np.geomspace(1.0, draw(st.integers(n, 1000)), n)))
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
    return t, log_v


def _fit_objective(t, log_v, dim):
    """The objective ``fit_offset_power_law`` hands to the optimizer."""
    if dim == 2:
        return lambda x: fitting._loss(t, log_v, x[0], x[1] * x[1])
    return lambda x: fitting._loss(t, log_v, x[0], 0.0)


_BUDGETS = st.integers(1, 80) | st.just(10_000)


@given(
    _loss_problems(),
    st.sampled_from([1, 2]),
    # Zero coordinates take scipy's zdelt branch; p0 >= 1 with tau = 0
    # starts in the penalty region.
    st.sampled_from([0.0, 1.0, 1.2]) | st.floats(-1.0, 3.0),
    st.sampled_from([0.0]) | st.floats(0.0, 10.0),
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
def test_fit_equals_the_fit_with_scipy_nelder_mead(monkeypatch, V, tau_mode):
    lags = np.arange(V.size, dtype=np.int64)
    ours = fit_offset_power_law(lags, V, t_min=2, tau_mode=tau_mode)

    def scipy_minimize(fun, x0, **options):
        return optimize.minimize(fun, x0, method="Nelder-Mead", options=options)

    monkeypatch.setattr(fitting, "optimize", types.SimpleNamespace(minimize=scipy_minimize))
    theirs = fit_offset_power_law(lags, V, t_min=2, tau_mode=tau_mode)
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


@given(_loss_problems(), _EXPONENTS, _OFFSETS)
@settings(max_examples=400, deadline=None)
def test_loss_equals_the_frozen_loss(problem, p, tau):
    t, log_v = problem
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        got = fitting._loss(t, log_v, p, tau)
        want = _frozen_loss(t, log_v, p, tau)
    assert type(got) is float
    assert got == want or (np.isnan(got) and np.isnan(want))
    ln_g = fitting._log_model(t, p, tau)
    frozen = _frozen_log_model(t, p, tau)
    assert (ln_g is None) == (frozen is None)
    if ln_g is not None:
        assert np.array_equal(ln_g, frozen)
