"""Golden outputs: stored values of five small runs through the CLI.

- The daily plant ``synth --mode planted --n 12500 --shock-rate 500
  --seed 1``, run with ``analyze --bootstrap 20 --seed 1`` (the daily
  benchmark command): every cell of ``fits.tsv`` and ``signal_check.tsv``.
  With 5 replicas a start grid of ``tau`` up to 75 instead of 50 moved the
  z2 ``+`` ``p_stderr`` by 8.8e-7 relative, inside the fit bound; with 20
  it moves it from 32.2079 to 32.2206.
- The 1-min plant of ``test_metamorphic.py`` (``--slots-per-day 390 --n
  40000``), run with ``analyze --thresholds 2,4,6``, which removes its
  intraday pattern: every cell of ``fits.tsv``, and ``profile_z4.tsv`` at
  the lags stored below.
- The daily plant, run with ``analyze --bootstrap 20 --seed 1 --tau zero
  --fit-min 2 --fit-max 30 --thresholds 2,4,6`` (the pinned-offset fit the
  minute-scale exponents take): every cell of ``fits.tsv`` and
  ``signal_check.tsv``.
- The daily plant, run with ``analyze --labels builtin:dax_daily --split
  origin``: every cell of ``fits.tsv`` and ``signal_check.tsv``, whose
  ``exogenous`` rows at z2 hold the plant's events on the label dates.
- The daily plant, run with the CI's ``omori --main-threshold 6
  --z1-thresholds 2,3 --max-lag 60 --fit-min 2 --fit-max 50 --tau zero``:
  every cell of ``fits.tsv``, and ``omori_z6_z12.tsv`` at the lags stored
  below.

Text and integer cells compare exactly.  Float cells compare at the
metamorphic tests' bounds: profile values (and ``mean_v``, a mean of them)
to 1e-11 of the largest finite magnitude of their stored column, fit values
to 1e-6 relative.  A non-finite cell must keep its value (``nan`` stays
``nan``).  The tables are the output text with tabs shown as spaces; a
change that moves these outputs on purpose updates them and says why.
"""

import math

from volrelax.cli import main
from volrelax.fitting import FIT_COLUMNS

PROFILE_ATOL = 1e-11  # times the largest finite magnitude of the stored column
FIT_RTOL = 1e-6
SIGNAL_COLUMNS = {"zeta_multiple": float, "split": str, "side": str, "mean_v": float, "flag": str}
PROFILE_COLUMNS = {
    "t": int, "v_minus": float, "v_plus": float, "V_minus": float, "V_plus": float,
    "count_minus": int, "count_plus": int,
}
OMORI_COLUMNS = {**PROFILE_COLUMNS, "N_minus": float, "N_plus": float}

DAILY_FITS = """\
side zeta_multiple origin_filter sign_filter p p_stderr tau A t_min t_max method rms_log_residual
- 2.0 all all 0.6802789591218273 0.22940524073662094 7.2409772964512 0.5634853031365936 5 100 full_fit 0.02206379131959856
+ 2.0 all all 1.4921993083873648 32.20785746604381 41.93368878711053 30.35206117848046 5 100 full_fit 0.01891287685174202
- 4.0 all all 1.1350179600103107 1.180581999043714 6.291147712331707 2.0133174939286986 5 100 full_fit 0.036296369619248474
+ 4.0 all all 1.1826921203899623 1.3821456691833245 8.656075424269593 2.9010896582344943 5 100 full_fit 0.022274530486588968
- 6.0 all all 0.6104052486579392 nan 7.18881027555861 0.5799834172379666 5 100 full_fit 0.10755184306536754
+ 6.0 all all 116.32124126707076 nan 596.8203993426314 inf 5 100 full_fit 0.20758239917034593
- 8.0 all all nan nan nan nan 0 0 failed:NoEvents nan
+ 8.0 all all nan nan nan nan 0 0 failed:NoEvents nan
"""

DAILY_SIGNAL = """\
zeta_multiple split side mean_v flag
2.0 all - 0.043185586700136065 signal
2.0 all + 0.04278581203032717 signal
4.0 all - 0.035023983927999665 signal
4.0 all + 0.038564701192765345 signal
6.0 all - 0.054893408792018594 signal
6.0 all + 0.01401215003097567 signal
"""

PINNED_FITS = """\
side zeta_multiple origin_filter sign_filter p p_stderr tau A t_min t_max method rms_log_residual
- 2.0 all all 0.24687121391296463 0.034821865435074276 0.0 0.1367606439171664 2 30 full_fit 0.03671370509369506
+ 2.0 all all 0.18988995552063037 0.032724816571239095 0.0 0.12051676297741111 2 30 full_fit 0.0281267981530813
- 4.0 all all 0.40396547317504883 0.033051222195303494 0.0 0.20188038963893373 2 30 full_fit 0.05101653949133528
+ 4.0 all all 0.3777619838714611 0.0470421586441058 0.0 0.20219464025719663 2 30 full_fit 0.026682328179899482
- 6.0 all all 0.28260754376649855 0.404107871466475 0.0 0.17207323987602927 2 30 full_fit 0.1204839949098527
+ 6.0 all all 0.6270613230019798 0.1455133143917516 0.0 0.17473398315184852 2 30 full_fit 0.17267110287520238
"""

PINNED_SIGNAL = """\
zeta_multiple split side mean_v flag
2.0 all - 0.043185586700136065 signal
2.0 all + 0.04278581203032717 signal
4.0 all - 0.035023983927999665 signal
4.0 all + 0.038564701192765345 signal
6.0 all - 0.054893408792018594 signal
6.0 all + 0.01401215003097567 signal
"""

MINUTE_FITS = """\
side zeta_multiple origin_filter sign_filter p p_stderr tau A t_min t_max method rms_log_residual
- 2.0 all all 1.9476008816669437 nan 66.78240813126133 339.59704613113837 5 1000 full_fit 0.015011519131411565
+ 2.0 all all 3.142526071703111 nan 123.5606868860751 346392.2950521732 5 1000 full_fit 0.01731432500862305
- 4.0 all all 1.7116320662259659 nan 21.063916334373953 28.79225780693506 5 1000 full_fit 0.041998022742123144
+ 4.0 all all 2.5154956798241166 nan 43.99002355622351 1843.62080066352 5 1000 full_fit 0.0759620744811617
- 6.0 all all 11.147781906457425 nan 119.06432374648213 1.8336524056137879e+22 5 1000 full_fit 0.5085900227945747
+ 6.0 all all 1.153975226161918 nan 6.07847084369622 1.4455027608673647 5 1000 full_fit 0.23699904281545112
"""

MINUTE_PROFILE_Z4 = """\
t v_minus v_plus V_minus V_plus count_minus count_plus
0 1.0 1.0 0.0 0.0 360 360
1 0.20142726195733524 0.20619485312519278 0.20142726195733524 0.20619485312519278 360 360
2 0.13642448485488137 0.13726194535780858 0.33785174681221664 0.34345679848300137 360 360
3 0.11961718685175513 0.10706177656582981 0.4574689336639718 0.4505185750488312 360 360
5 0.08978663150855382 0.07548522399832246 0.6749094628060774 0.6444173076199784 360 360
10 0.0640829211289579 0.0826797298650036 1.107239744802058 1.059327523814062 360 360
20 0.0416432091511326 0.04447229808389934 1.6864331545358484 1.6730523979513026 360 360
50 0.0090033467802296 0.02826679792095332 2.6732835148552168 2.577654641513017 360 360
100 -0.00024305038318356013 0.019091173904916787 3.358210722191134 3.3169239813440994 360 357
200 0.010363128455821699 0.003701863809597077 4.093373811681043 4.038768316322336 360 357
500 0.017387475979398125 0.0076117865822517465 4.04403048219309 3.9677569613899935 358 353
1000 -0.021459332117128173 -9.760719600146621e-05 4.261852531157444 3.0652980856164413 355 346
"""

SPLIT_FITS = """\
side zeta_multiple origin_filter sign_filter p p_stderr tau A t_min t_max method rms_log_residual
- 2.0 all all 0.6802789591218273 nan 7.2409772964512 0.5634853031365936 5 100 full_fit 0.02206379131959856
+ 2.0 all all 1.4921993083873648 nan 41.93368878711053 30.35206117848046 5 100 full_fit 0.01891287685174202
- 2.0 endogenous all 0.672319932471549 nan 7.104944682540412 0.5435160831004243 5 100 full_fit 0.0219500800399144
+ 2.0 endogenous all 1.6070708866154442 nan 46.689649204911504 54.97420532651948 5 100 full_fit 0.01837846109734902
- 2.0 exogenous all 5.422824657579717 nan 93.20449785271609 40696287650.02124 5 100 full_fit 0.0640122535845671
+ 2.0 exogenous all 0.33352876378853713 nan 2.3394977449736236e-23 0.3673989486757942 5 100 full_fit 0.3095246358029208
- 4.0 all all 1.1350179600103107 nan 6.291147712331707 2.0133174939286986 5 100 full_fit 0.036296369619248474
+ 4.0 all all 1.1826921203899623 nan 8.656075424269593 2.9010896582344943 5 100 full_fit 0.022274530486588968
- 4.0 endogenous all 1.1350179600103107 nan 6.291147712331707 2.0133174939286986 5 100 full_fit 0.036296369619248474
+ 4.0 endogenous all 1.1826921203899623 nan 8.656075424269593 2.9010896582344943 5 100 full_fit 0.022274530486588968
- 4.0 exogenous all nan nan nan nan 0 0 failed:NoEvents nan
+ 4.0 exogenous all nan nan nan nan 0 0 failed:NoEvents nan
- 6.0 all all 0.6104052486579392 nan 7.18881027555861 0.5799834172379666 5 100 full_fit 0.10755184306536754
+ 6.0 all all 116.32124126707076 nan 596.8203993426314 inf 5 100 full_fit 0.20758239917034593
- 6.0 endogenous all 0.6104052486579392 nan 7.18881027555861 0.5799834172379666 5 100 full_fit 0.10755184306536754
+ 6.0 endogenous all 116.32124126707076 nan 596.8203993426314 inf 5 100 full_fit 0.20758239917034593
- 6.0 exogenous all nan nan nan nan 0 0 failed:NoEvents nan
+ 6.0 exogenous all nan nan nan nan 0 0 failed:NoEvents nan
- 8.0 all all nan nan nan nan 0 0 failed:NoEvents nan
+ 8.0 all all nan nan nan nan 0 0 failed:NoEvents nan
- 8.0 endogenous all nan nan nan nan 0 0 failed:NoEvents nan
+ 8.0 endogenous all nan nan nan nan 0 0 failed:NoEvents nan
- 8.0 exogenous all nan nan nan nan 0 0 failed:NoEvents nan
+ 8.0 exogenous all nan nan nan nan 0 0 failed:NoEvents nan
"""

SPLIT_SIGNAL = """\
zeta_multiple split side mean_v flag
2.0 all - 0.043185586700136065 signal
2.0 all + 0.04278581203032717 signal
2.0 endogenous - 0.043000964683400714 signal
2.0 endogenous + 0.04263311549914567 signal
2.0 exogenous - 0.15726706322908943 signal
2.0 exogenous + 0.1367682342010529 signal
4.0 all - 0.035023983927999665 signal
4.0 all + 0.038564701192765345 signal
4.0 endogenous - 0.035023983927999665 signal
4.0 endogenous + 0.038564701192765345 signal
6.0 all - 0.054893408792018594 signal
6.0 all + 0.01401215003097567 signal
6.0 endogenous - 0.054893408792018594 signal
6.0 endogenous + 0.01401215003097567 signal
"""

OMORI_FITS = """\
side zeta_multiple origin_filter sign_filter p p_stderr tau A t_min t_max method rms_log_residual
- 2.0 all all -0.004112929105758667 nan 0.0 0.27958590463370303 2 50 full_fit 0.1174846580619359
+ 2.0 all all 0.25674607872962946 nan 0.0 0.4161874780992989 2 50 full_fit 0.14955675326346624
- 3.0 all all 0.20468391478061676 nan 0.0 0.199726047088793 2 50 full_fit 0.1055516967015161
+ 3.0 all all 0.7862304663658138 nan 0.0 0.18942188620073705 2 50 full_fit 0.1617252462291053
"""

OMORI_Z6_Z12 = """\
t v_minus v_plus V_minus V_plus count_minus count_plus N_minus N_plus
0 1.0 1.0 0.0 0.0 2 2 0.0 0.0
1 0.2888679536930142 0.33890404244700784 0.2888679536930142 0.33890404244700784 2 2 0.5 0.5
2 0.016710665540766015 0.18127240964867614 0.3055786192337802 0.520176452095684 2 2 0.5 1.0
3 0.1741075219071389 -0.027264292793734112 0.4796861411409191 0.49291215930194987 2 2 1.0 1.0
5 0.05012523717647457 0.04289069700414689 0.8431937421612378 0.8304926144791119 2 2 1.5 1.5
10 0.21819458928356752 0.023902901707052455 1.4465149393518764 1.1589603047502566 2 2 3.0 3.5
20 0.20614107595422082 -0.010416773411706258 2.1947807902309946 1.7088087136501195 2 2 6.0 6.0
30 0.1925030664149055 -0.1171275917413755 2.9509481077670863 1.0997144956945772 2 2 9.0 6.0
50 0.002636230177821937 -0.024479040152096357 3.9315141610102606 1.8101190795675373 2 2 12.5 9.5
60 0.01949771486506393 -0.03059780101201953 4.905011107670585 1.7492374602624319 2 2 14.5 11.0
"""


def _run(tmp_path_factory, synth_options, options, command="analyze"):
    """``synth --mode planted --shock-rate 500 --seed 1`` with ``synth_options``,
    then ``command`` (``analyze``) on it; the exit code and output dir."""
    work = tmp_path_factory.mktemp("golden")
    csv, out = str(work / "plant.csv"), work / "out"
    synth = ["synth", "--mode", "planted", "--shock-rate", "500", "--seed", "1", *synth_options]
    assert main([*synth, "--out", csv]) == 0
    return main([command, "--input", csv, "--out", str(out), *options]), out


def _table(text: str) -> list[list[str]]:
    return [line.split() for line in text.splitlines()]


def _assert_cells(path, want_text, kinds, tolerance, lags=False):
    """The cells of the TSV at ``path`` equal the stored table ``want_text``
    (with ``lags``, only the output rows whose ``t`` the table stores)."""
    want = _table(want_text)
    got = [line.split("\t") for line in path.read_text(encoding="utf-8").splitlines()]
    assert got[0] == want[0] == list(kinds)
    rows = got[1:]
    if lags:
        stored = {row[0] for row in want[1:]}
        rows = [row for row in rows if row[0] in stored]
    assert len(rows) == len(want) - 1
    for col, (key, kind) in enumerate(kinds.items()):
        w_col, g_col = [row[col] for row in want[1:]], [row[col] for row in rows]
        if kind is not float:
            assert [kind(g) for g in g_col] == [kind(w) for w in w_col], (path.name, key)
            continue
        w_vals, g_vals = [float(w) for w in w_col], [float(g) for g in g_col]
        bound = tolerance(w_vals)
        for g, w in zip(g_vals, w_vals):
            if math.isfinite(w):
                assert abs(g - w) <= bound(w), (path.name, key, g, w)
            else:
                assert g == w or (math.isnan(g) and math.isnan(w)), (path.name, key, g, w)


def _fit_bound(column):
    return lambda w: FIT_RTOL * abs(w)


def _profile_bound(column):
    scale = max((abs(w) for w in column if math.isfinite(w)), default=0.0)
    return lambda w: PROFILE_ATOL * scale


def test_daily_plant_with_bootstrap_keeps_its_golden_values(tmp_path_factory):
    rc, out = _run(tmp_path_factory, ["--n", "12500"], ["--bootstrap", "20", "--seed", "1"])
    assert rc == 3  # z6's bootstrap is unstable and z8 selects no events
    _assert_cells(out / "fits.tsv", DAILY_FITS, FIT_COLUMNS, _fit_bound)
    _assert_cells(out / "signal_check.tsv", DAILY_SIGNAL, SIGNAL_COLUMNS, _profile_bound)


def test_daily_plant_with_pinned_offset_keeps_its_golden_values(tmp_path_factory):
    pinned = [
        "--bootstrap", "20", "--seed", "1", "--tau", "zero",
        "--fit-min", "2", "--fit-max", "30", "--thresholds", "2,4,6",
    ]
    rc, out = _run(tmp_path_factory, ["--n", "12500"], pinned)
    assert rc == 0
    _assert_cells(out / "fits.tsv", PINNED_FITS, FIT_COLUMNS, _fit_bound)
    _assert_cells(out / "signal_check.tsv", PINNED_SIGNAL, SIGNAL_COLUMNS, _profile_bound)


def test_minute_plant_keeps_its_golden_values(tmp_path_factory):
    rc, out = _run(tmp_path_factory, ["--n", "40000", "--slots-per-day", "390"], ["--thresholds", "2,4,6"])
    assert rc == 0
    assert (out / "pattern.tsv").is_file()
    _assert_cells(out / "fits.tsv", MINUTE_FITS, FIT_COLUMNS, _fit_bound)
    _assert_cells(out / "profile_z4.tsv", MINUTE_PROFILE_Z4, PROFILE_COLUMNS, _profile_bound, lags=True)


def test_daily_plant_split_by_origin_keeps_its_golden_values(tmp_path_factory):
    labelled = ["--labels", "builtin:dax_daily", "--split", "origin"]
    rc, out = _run(tmp_path_factory, ["--n", "12500"], labelled)
    assert rc == 3  # z8 selects no events, nor z4 and z6 on the label dates
    _assert_cells(out / "fits.tsv", SPLIT_FITS, FIT_COLUMNS, _fit_bound)
    _assert_cells(out / "signal_check.tsv", SPLIT_SIGNAL, SIGNAL_COLUMNS, _profile_bound)


def test_daily_plant_omori_keeps_its_golden_values(tmp_path_factory):
    options = [
        "--main-threshold", "6", "--z1-thresholds", "2,3", "--max-lag", "60",
        "--fit-min", "2", "--fit-max", "50", "--tau", "zero",
    ]
    rc, out = _run(tmp_path_factory, ["--n", "12500"], options, command="omori")
    assert rc == 0
    _assert_cells(out / "fits.tsv", OMORI_FITS, FIT_COLUMNS, _fit_bound)
    _assert_cells(out / "omori_z6_z12.tsv", OMORI_Z6_Z12, OMORI_COLUMNS, _profile_bound, lags=True)
