"""Acceptance gate: one test per shipped guarantee, in order.

Each test prints a single ``[PASS]``/``[FAIL]`` line (visible with
``pytest -s`` and in failure output) before asserting, so the whole
gate reads as a checklist.  Tolerances are part of the contract; do
not loosen them to make a failing build green.
"""

import math
import os
import time

import numpy as np
import pytest

from volrelax import (
    EventSet,
    PlantedRelaxationSpec,
    absolute_volatility,
    cumulative,
    estimate_pattern,
    fit_cumulative,
    fit_offset_power_law,
    gen_iid_gaussian,
    gen_intraday_modulated,
    gen_planted_relaxation,
    mean_volatility,
    omori_counts,
    remanent_profile,
    remove_pattern,
    select_events,
    shuffle_surrogate,
)
from volrelax.cli import main
from volrelax.fitting import read_fit_tsv

from _reference import brute_omori, brute_profile


def _gate(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _vol(values):
    from volrelax import VolatilitySeries

    values = np.asarray(values, dtype=np.float64)
    return VolatilitySeries(
        values=values,
        slot_index=np.zeros(values.size, dtype=np.int32),
        slots_per_day=1,
        cadence="daily",
    )


def _planted(n, seed, **overrides):
    spec = dict(
        n=n, sigma0=0.01, shock_rate=50.0, boost=3.0, p=0.3, tau=0.0,
        shock_magnitude=10.0, seed=seed,
    )
    spec.update(overrides)
    return gen_planted_relaxation(PlantedRelaxationSpec(**spec))


def _mirrored(events, n):
    return EventSet(
        indices=np.sort(n - 1 - events.indices),
        zeta_multiple=events.zeta_multiple,
        zeta_abs=events.zeta_abs,
        magnitudes=events.magnitudes[::-1],
        signs=events.signs[::-1],
        origins=events.origins[::-1],
    )


def test_criterion_01_normalization():
    """v(0) must equal 1 to within 1e-12 on every nondegenerate run."""
    worst = 0.0
    runs = []
    runs.append((_vol(np.abs(gen_iid_gaussian(50_000, 0.01, seed=1).values)), 2.5))
    runs.append((_vol(np.abs(_planted(100_000, seed=2).values)), 6.0))
    runs.append((_vol(np.abs(shuffle_surrogate(_planted(100_000, seed=3), 0).values)), 3.0))
    intraday = gen_intraday_modulated(
        gen_iid_gaussian(48_000, 0.01, seed=4, slots_per_day=48),
        0.5 + np.linspace(0, 1, 48),
    )
    ivol = absolute_volatility(intraday)
    runs.append((remove_pattern(ivol, estimate_pattern(ivol)), 2.5))
    for vol, m in runs:
        profile = remanent_profile(vol, select_events(vol, m), 100)
        worst = max(worst, abs(profile.v_minus[0] - 1.0), abs(profile.v_plus[0] - 1.0))
    _gate(
        "criterion 01 normalization",
        worst <= 1e-12,
        f"max |v(0) - 1| = {worst:.3g} over {len(runs)} runs (<= 1e-12)",
    )


def test_criterion_02_brute_force_oracle():
    """Profiles, cumulatives and counts match a double-loop reference."""
    t0 = time.perf_counter()
    max_lag, m, m1 = 50, 3.0, 1.5
    worst = 0.0
    for k in range(10):
        if k < 5:
            returns = gen_iid_gaussian(10_000, 0.01, seed=100 + k)
        else:
            returns = _planted(10_000, seed=200 + k)
        vol = _vol(np.abs(returns.values))
        sigma = mean_volatility(vol)
        events = select_events(vol, m)
        profile = remanent_profile(vol, events, max_lag)
        cum = cumulative(profile)
        ref = brute_profile(vol.values.tolist(), events.indices.tolist(), max_lag)
        for got, want in (
            (profile.v_minus, ref["v_minus"]),
            (profile.v_plus, ref["v_plus"]),
        ):
            for t in range(max_lag + 1):
                assert (want[t] is None) == bool(np.isnan(got[t]))
                if want[t] is not None:
                    worst = max(worst, abs(got[t] - want[t]))
        ref_V = np.cumsum([ref["v_plus"][t] for t in range(1, max_lag + 1)])
        worst = max(worst, float(np.max(np.abs(cum.V_plus[1:] - ref_V))))
        omori = omori_counts(vol, events, m1, max_lag)
        ref_m, ref_p = brute_omori(
            vol.values.tolist(), events.indices.tolist(), m1 * sigma, max_lag
        )
        worst = max(worst, float(np.max(np.abs(omori.N_minus - ref_m))))
        worst = max(worst, float(np.max(np.abs(omori.N_plus - ref_p))))
    elapsed = time.perf_counter() - t0
    _gate(
        "criterion 02 brute-force oracle",
        worst <= 1e-12 and elapsed < 10.0,
        f"max deviation {worst:.3g} (<= 1e-12), runtime {elapsed:.2f}s (< 10s)",
    )


def test_criterion_03_time_reversal():
    """Reversal swaps the two sides: v and N exchange exactly."""
    worst = 0.0
    exact = True
    cases = [
        np.abs(gen_iid_gaussian(100_000, 0.01, seed=5).values),
        np.abs(_planted(100_000, seed=6, p_before=0.5).values),
    ]
    for values in cases:
        vol = _vol(values)
        rev = _vol(values[::-1].copy())
        events = select_events(vol, 4.0)
        rev_events = _mirrored(events, values.size)
        T = 200
        fwd = remanent_profile(vol, events, T)
        bwd = remanent_profile(rev, rev_events, T)
        for a, b in ((bwd.v_plus, fwd.v_minus), (bwd.v_minus, fwd.v_plus)):
            good = ~np.isnan(a)
            assert np.array_equal(good, ~np.isnan(b))
            worst = max(worst, float(np.max(np.abs(a[good] - b[good]))))
        om_f = omori_counts(vol, events, 2.0, T)
        om_b = omori_counts(rev, rev_events, 2.0, T)
        exact &= bool(
            np.array_equal(om_b.N_plus, om_f.N_minus)
            and np.array_equal(om_b.N_minus, om_f.N_plus)
        )
    _gate(
        "criterion 03 time reversal",
        worst <= 1e-12 and exact,
        f"max |v swap error| = {worst:.3g} (<= 1e-12), N swap exact = {exact}",
    )


def test_criterion_04_null_model():
    """Independent data shows no relaxation signal above 0.01."""
    means = []
    iid = _vol(np.abs(gen_iid_gaussian(1_000_000, 0.01, seed=7).values))
    profile = remanent_profile(iid, select_events(iid, 4.0), 100)
    means.append(float(np.nanmean(profile.v_minus[1:101])))
    means.append(float(np.nanmean(profile.v_plus[1:101])))
    shuffled = _vol(np.abs(shuffle_surrogate(_planted(1_000_000, seed=1), 0).values))
    profile = remanent_profile(shuffled, select_events(shuffled, 4.0), 100)
    means.append(float(np.nanmean(profile.v_minus[1:101])))
    means.append(float(np.nanmean(profile.v_plus[1:101])))
    worst = max(abs(x) for x in means)
    _gate(
        "criterion 04 null model",
        worst < 0.01,
        f"max |mean v(1..100)| = {worst:.4f} over iid + shuffled planted (< 0.01)",
    )


def test_criterion_05_planted_recovery_cli(tmp_path):
    """The full pipeline recovers a planted exponent of 0.3."""
    t0 = time.perf_counter()
    csv = str(tmp_path / "planted.csv")
    out = str(tmp_path / "out")
    assert main(["synth", "--mode", "planted", "--n", "1000000", "--seed", "1",
                 "--out", csv]) == 0
    rc = main(
        [
            "analyze", "--input", csv, "--out", out,
            "--thresholds", "6", "--max-lag", "1000",
            "--fit-min", "2", "--fit-max", "30", "--tau", "zero",
        ]
    )
    assert rc == 0
    rows = {r["side"]: r for r in read_fit_tsv(os.path.join(out, "fits.tsv"))}
    p_minus, p_plus = rows["-"]["p"], rows["+"]["p"]
    elapsed = time.perf_counter() - t0
    ok = (
        abs(p_minus - 0.3) <= 0.05
        and abs(p_plus - 0.3) <= 0.05
        and abs(p_minus - p_plus) < 0.03
        and elapsed < 60.0
    )
    _gate(
        "criterion 05 planted recovery",
        ok,
        f"p- = {p_minus:.3f}, p+ = {p_plus:.3f} (target 0.30 +/- 0.05, "
        f"|diff| = {abs(p_minus - p_plus):.3f} < 0.03), runtime {elapsed:.1f}s (< 60s)",
    )


def test_criterion_06_asymmetric_plant():
    """Side-dependent decay (0.5 before vs 0.3 after) shows up as p- > p+."""
    returns = _planted(1_000_000, seed=1, p_before=0.5)
    vol = _vol(np.abs(returns.values))
    cum = cumulative(remanent_profile(vol, select_events(vol, 6.0), 1000))
    p_minus = fit_cumulative(cum, "-", t_min=2, t_max=30, tau_mode="fixed_zero").p
    p_plus = fit_cumulative(cum, "+", t_min=2, t_max=30, tau_mode="fixed_zero").p
    gap = p_minus - p_plus
    _gate(
        "criterion 06 asymmetric plant",
        gap > 0.1,
        f"p- = {p_minus:.3f}, p+ = {p_plus:.3f}, gap = {gap:.3f} (> 0.1)",
    )


def test_criterion_07_fit_self_consistency():
    """Noiseless curves from the fitted family give back their parameters."""
    details = []
    ok = True
    t = np.arange(501, dtype=np.float64)
    lags = np.arange(501, dtype=np.int64)
    for p, tau in ((0.47, 9.06), (0.77, 3.78)):
        q = 1.0 - p
        V = ((t + tau) ** q - tau ** q) / q
        V[0] = 0.0
        fit = fit_offset_power_law(lags, V, t_min=1)
        ok &= abs(fit.p - p) <= 1e-3 and abs(fit.tau - tau) <= 0.01 * tau
        details.append(
            f"(p={p}, tau={tau}) -> ({fit.p:.6f}, {fit.tau:.4f})"
        )
    V_log = np.log1p(t / 5.0)
    fit = fit_offset_power_law(lags, V_log, t_min=1)
    ok &= abs(fit.p - 1.0) <= 1e-3
    details.append(f"log-limit -> p = {fit.p:.6f}")
    _gate(
        "criterion 07 fit self-consistency",
        ok,
        "; ".join(details) + " (p within 1e-3, tau within 1%)",
    )


def test_criterion_08_intraday_round_trip():
    """Modulate, estimate, remove: the seasonality machinery is lossless."""
    S, days = 48, 4000
    true = 0.6 + 0.8 * (2.0 * (np.arange(S) + 0.5) / S - 1.0) ** 2
    true = true / true.mean()

    base = gen_iid_gaussian(S * days, 0.01, seed=1, slots_per_day=S)
    vol = absolute_volatility(gen_intraday_modulated(base, true))
    est = estimate_pattern(vol).factors
    se = np.sqrt(np.pi / 2 - 1) / np.sqrt(days) * true
    worst_se = float(np.max(np.abs(est - true) / se))

    adj = remove_pattern(vol, estimate_pattern(vol))
    means = np.bincount(adj.slot_index, weights=adj.values) / np.bincount(adj.slot_index)
    spread = float(np.ptp(means))

    returns = _planted(S * 20_000, seed=2, slots_per_day=S)
    raw_vol = _vol(np.abs(returns.values))
    mod_vol = absolute_volatility(gen_intraday_modulated(returns, true))
    adj_vol = remove_pattern(mod_vol, estimate_pattern(mod_vol))
    shifts = []
    for side in ("-", "+"):
        fits = []
        for v in (raw_vol, adj_vol):
            cum = cumulative(remanent_profile(v, select_events(v, 6.0), 1000))
            fits.append(fit_cumulative(cum, side, t_min=2, t_max=30, tau_mode="fixed_zero").p)
        shifts.append(abs(fits[1] - fits[0]))

    ok = worst_se < 3.0 and spread < 1e-10 and max(shifts) < 0.03
    _gate(
        "criterion 08 intraday round trip",
        ok,
        f"worst factor deviation {worst_se:.2f} MC stderr (< 3), "
        f"slot-mean spread {spread:.2e} (< 1e-10), "
        f"p shift {max(shifts):.4f} (< 0.03)",
    )


def test_criterion_09_determinism(tmp_path):
    """Identical configurations produce byte-identical output trees."""
    csv1, csv2 = str(tmp_path / "d1.csv"), str(tmp_path / "d2.csv")
    synth = ["synth", "--mode", "planted", "--n", "50000", "--seed", "1",
             "--shock-rate", "100", "--out"]
    assert main(synth + [csv1]) == 0
    assert main(synth + [csv2]) == 0
    with open(csv1, "rb") as a, open(csv2, "rb") as b:
        same_csv = a.read() == b.read()

    def run(kind, out):
        if kind == "analyze":
            argv = ["analyze", "--input", csv1, "--out", out, "--thresholds", "5",
                    "--max-lag", "150", "--fit-min", "2", "--fit-max", "60",
                    "--tau", "zero", "--bootstrap", "6", "--seed", "3"]
        else:
            argv = ["omori", "--input", csv1, "--out", out, "--main-threshold", "6",
                    "--z1-thresholds", "2,3", "--max-lag", "60", "--fit-min", "2",
                    "--fit-max", "50", "--tau", "zero"]
        assert main(argv) == 0
        snapshot = {}
        for name in sorted(os.listdir(out)):
            with open(os.path.join(out, name), "rb") as fh:
                snapshot[name] = fh.read()
        return snapshot

    identical = same_csv
    for kind in ("analyze", "omori"):
        s1 = run(kind, str(tmp_path / f"{kind}_1"))
        s2 = run(kind, str(tmp_path / f"{kind}_2"))
        identical &= s1.keys() == s2.keys() and all(s1[k] == s2[k] for k in s1)
    _gate(
        "criterion 09 determinism",
        identical,
        "synth CSV + analyze (with bootstrap) + omori reruns byte-identical",
    )


# Reference exponents for the optional real-data check: daily DAX, all
# events, thresholds 2/4/6/8 sigma, offset left free.  Each entry is
# (p, quoted error) per side; agreement is reported, never gated.
_DAX_DAILY_REFERENCE = {
    2.0: ((0.41, 0.03), (0.40, 0.02)),
    4.0: ((0.47, 0.04), (0.42, 0.03)),
    6.0: ((0.60, 0.05), (0.45, 0.05)),
    8.0: ((0.77, 0.07), (0.46, 0.05)),
}


@pytest.mark.skipif(
    "VOLRELAX_DAX_CSV" not in os.environ,
    reason="optional real-data track: set VOLRELAX_DAX_CSV to a daily DAX price CSV",
)
def test_criterion_10_real_data_report(tmp_path):
    """Run the full pipeline on user-supplied daily DAX data and report
    (without gating) how the fitted exponents compare to the reference."""
    out = str(tmp_path / "out")
    rc = main(
        [
            "analyze", "--input", os.environ["VOLRELAX_DAX_CSV"], "--out", out,
            "--thresholds", "2,4,6,8", "--max-lag", "100", "--tau", "free",
            "--labels", "builtin:dax_daily", "--split", "origin",
        ]
    )
    assert rc in (0, 3)
    rows = read_fit_tsv(os.path.join(out, "fits.tsv"))
    emitted = {
        (r["zeta_multiple"], r["side"]): r
        for r in rows
        if r["origin_filter"] == "all" and r["sign_filter"] == "all"
    }
    lines = []
    for m, (ref_minus, ref_plus) in sorted(_DAX_DAILY_REFERENCE.items()):
        for side, (ref_p, ref_err) in (("-", ref_minus), ("+", ref_plus)):
            row = emitted.get((m, side))
            if row is None or not np.isfinite(row["p"]):
                lines.append(f"z{m:g} {side}: no fit")
                continue
            delta = abs(row["p"] - ref_p)
            verdict = "within" if delta <= 3 * ref_err else "outside"
            lines.append(
                f"z{m:g} {side}: p = {row['p']:.3f} vs {ref_p:.2f}({int(ref_err*100)}) "
                f"-> {verdict} 3x error"
            )
    _gate(
        "criterion 10 real-data report",
        len(emitted) > 0,
        "pipeline emitted p per threshold; " + "; ".join(lines),
    )
