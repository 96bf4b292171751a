"""End-to-end CLI tests: exit codes, outputs, config layering, determinism."""

import ast
import contextlib
import filecmp
import io
import os
import re
import stat
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

import volrelax
from volrelax import cli
from volrelax.cli import main
from volrelax.fitting import read_fit_tsv
from volrelax.intraday import read_pattern_tsv
from volrelax.profiles import read_omori_tsv, read_profile_tsv


@pytest.fixture(scope="module")
def planted_csv(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("data") / "planted.csv")
    rc = main(
        [
            "synth", "--mode", "planted", "--n", "50000", "--seed", "1",
            "--shock-rate", "100", "--out", path,
        ]
    )
    assert rc == 0
    return path


@pytest.fixture(scope="module")
def iid_csv(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("data") / "iid.csv")
    assert main(["synth", "--mode", "iid", "--n", "20000", "--out", path]) == 0
    return path


def _analyze(csv, out, *extra):
    return main(
        [
            "analyze", "--input", csv, "--out", out,
            "--thresholds", "5", "--max-lag", "150",
            "--fit-min", "2", "--fit-max", "60", "--tau", "zero",
            *extra,
        ]
    )


def _dir_snapshot(path):
    out = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            out[name] = fh.read()
    return out


def test_analyze_happy_path(planted_csv, tmp_path):
    out = str(tmp_path / "run")
    assert _analyze(planted_csv, out) == 0
    names = sorted(os.listdir(out))
    assert names == ["config.echo", "fits.tsv", "profile_z5.tsv", "signal_check.tsv"]
    rows = read_fit_tsv(os.path.join(out, "fits.tsv"))
    assert [r["side"] for r in rows] == ["-", "+"]
    for row in rows:
        assert row["method"] == "full_fit"
        assert 0.0 < row["p"] < 1.0
        assert row["tau"] == 0.0
        assert row["t_min"] == 2 and row["t_max"] == 60
    cols = read_profile_tsv(os.path.join(out, "profile_z5.tsv"))
    assert cols["v_minus"][0] == 1.0 and cols["v_plus"][0] == 1.0


def test_analyze_is_byte_deterministic(planted_csv, tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert _analyze(planted_csv, out1, "--bootstrap", "4") == 0
    assert _analyze(planted_csv, out2, "--bootstrap", "4") == 0
    snap1, snap2 = _dir_snapshot(out1), _dir_snapshot(out2)
    assert snap1.keys() == snap2.keys()
    for name in snap1:
        assert snap1[name] == snap2[name], f"{name} differs between runs"


def test_config_echo_reproduces_run(planted_csv, tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert _analyze(planted_csv, out1) == 0
    echo = os.path.join(out1, "config.echo")
    assert main(["analyze", "--config", echo, "--out", out2]) == 0
    assert filecmp.cmp(
        os.path.join(out1, "fits.tsv"), os.path.join(out2, "fits.tsv"), shallow=False
    )
    assert filecmp.cmp(
        os.path.join(out1, "profile_z5.tsv"),
        os.path.join(out2, "profile_z5.tsv"),
        shallow=False,
    )


# Each command echoes only the keys it takes.
_ECHO_CASES = {
    "analyze": (
        ["--thresholds", "4,5", "--max-lag", "150", "--fit-min", "2", "--fit-max", "60",
         "--tau", "zero"],
        """\
bootstrap = 0
cadence = daily
command = analyze
drop_session_crossing = false
fit_max = 60
fit_min = 2
input = {input}
labels = {labels}
max_lag = 150
min_separation = 0
no_intraday_removal = false
seed = 0
slots_per_day = 1
split = all
surrogate = none
tau = zero
thresholds = 4.0,5.0
""",
    ),
    "omori": (
        ["--main-threshold", "6", "--z1-thresholds", "2,3", "--max-lag", "60", "--fit-min", "2",
         "--fit-max", "50", "--tau", "zero"],
        """\
cadence = daily
command = omori
drop_session_crossing = false
fit_max = 50
fit_min = 2
input = {input}
main_threshold = 6.0
max_lag = 60
no_intraday_removal = false
seed = 0
slots_per_day = 1
surrogate = none
tau = zero
z1_thresholds = 2.0,3.0
""",
    ),
    "pattern": (
        [],
        """\
cadence = 1min
command = pattern
drop_session_crossing = false
input = {input}
no_intraday_removal = false
seed = 0
slots_per_day = 30
surrogate = none
""",
    ),
    "events": (
        ["--thresholds", "5"],
        """\
cadence = 1min
command = events
drop_session_crossing = false
input = {input}
labels = {labels}
min_separation = 0
no_intraday_removal = false
seed = 0
slots_per_day = 30
surrogate = none
thresholds = 5.0
""",
    ),
}

# Files each command writes; on intraday input only pattern dumps pattern.tsv.
_ECHO_FILES = {
    "analyze": ["config.echo", "fits.tsv", "profile_z4.tsv", "profile_z5.tsv", "signal_check.tsv"],
    "omori": ["config.echo", "fits.tsv", "omori_z6_z12.tsv", "omori_z6_z13.tsv"],
    "pattern": ["config.echo", "pattern.tsv"],
    "events": ["config.echo", "events_z5.tsv"],
}


@pytest.fixture(scope="module")
def intraday_csv(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("data") / "intraday.csv")
    assert main(
        ["synth", "--mode", "modulated", "--n", "6000", "--slots-per-day", "30", "--out", path]
    ) == 0
    return path


@pytest.mark.parametrize("command", sorted(_ECHO_CASES))
def test_config_echo_text_and_round_trip(command, request, tmp_path):
    intraday = command in ("pattern", "events")
    csv = request.getfixturevalue("intraday_csv" if intraday else "planted_csv")
    flags, template = _ECHO_CASES[command]
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main([command, "--input", csv, "--out", out1, *flags]) == 0
    echo = os.path.join(out1, "config.echo")
    expected = template.format(input=csv, labels="")  # keeps "labels = " unstripped
    assert open(echo, encoding="utf-8", newline="").read() == expected
    assert sorted(os.listdir(out1)) == _ECHO_FILES[command]
    assert main([command, "--config", echo, "--out", out2]) == 0
    assert _dir_snapshot(out1) == _dir_snapshot(out2)


def test_flags_override_config_file(planted_csv, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"command = analyze\ninput = {planted_csv}\nthresholds = 4\n"
        "max-lag = 150\nfit-min = 2\nfit-max = 60\ntau = zero\n"
    )
    out = str(tmp_path / "out")
    assert main(["analyze", "--config", str(cfg), "--out", out, "--thresholds", "5"]) == 0
    echo = open(os.path.join(out, "config.echo"), encoding="utf-8").read()
    assert "thresholds = 5.0\n" in echo
    assert os.path.exists(os.path.join(out, "profile_z5.tsv"))
    assert not os.path.exists(os.path.join(out, "profile_z4.tsv"))


def test_bootstrap_fills_stderr_column(planted_csv, tmp_path):
    out = str(tmp_path / "run")
    assert _analyze(planted_csv, out, "--bootstrap", "6") == 0
    for row in read_fit_tsv(os.path.join(out, "fits.tsv")):
        assert np.isfinite(row["p_stderr"])
        assert row["p_stderr"] > 0


def test_invalid_configurations_exit_1(planted_csv, tmp_path, capsys):
    out = str(tmp_path / "out")
    nan_cfg = tmp_path / "nan.cfg"
    nan_cfg.write_text(f"command = analyze\ninput = {planted_csv}\nthresholds = 2,nan\n")
    inf_cfg = tmp_path / "inf.cfg"
    inf_cfg.write_text(f"command = analyze\ninput = {planted_csv}\nthresholds = inf\n")
    omori_cfg = tmp_path / "omori.cfg"
    omori_cfg.write_text(f"command = omori\ninput = {planted_csv}\nmain-threshold = nan\n")
    no_pair_cfg = tmp_path / "no_pair.cfg"
    no_pair_cfg.write_text(f"input {planted_csv}\n")
    maybe_cfg = tmp_path / "maybe.cfg"
    maybe_cfg.write_text(f"input = {planted_csv}\nno_intraday_removal = maybe\n")
    # argparse refuses a bad --tau flag itself; a config file's value reaches the option table.
    sideways_cfg = tmp_path / "sideways.cfg"
    sideways_cfg.write_text(f"input = {planted_csv}\ntau = sideways\n")
    missing_labels = str(tmp_path / "missing_labels.csv")
    cases = [
        ["analyze", "--out", out],  # no input
        ["analyze", "--input", planted_csv],  # no out
        ["analyze", "--input", planted_csv, "--out", out, "--thresholds", "0.5,2"],
        ["analyze", "--input", planted_csv, "--out", out, "--thresholds", "4,4"],
        ["analyze", "--input", planted_csv, "--out", out, "--fit-min", "9", "--fit-max", "3"],
        ["analyze", "--input", planted_csv, "--out", out, "--split", "origin"],
        ["analyze", "--input", str(tmp_path / "missing.csv"), "--out", out],
        ["analyze", "--input", planted_csv, "--out", out, "--labels", "builtin:victorian_rail"],
        ["omori", "--input", planted_csv, "--out", out, "--main-threshold", "4",
         "--z1-thresholds", "5"],
        ["analyze", "--input", planted_csv, "--out", out, "--max-lag", "20",
         "--fit-min", "2", "--fit-max", "60"],
        ["analyze", "--input", planted_csv, "--out", out, "--thresholds", "nan"],
        ["analyze", "--input", planted_csv, "--out", out, "--thresholds", "inf"],
        ["analyze", "--input", planted_csv, "--out", out, "--thresholds", "2,nan"],
        ["omori", "--input", planted_csv, "--out", out, "--main-threshold", "nan"],
        ["omori", "--input", planted_csv, "--out", out, "--main-threshold", "inf"],
        ["analyze", "--config", str(nan_cfg), "--out", out],
        ["analyze", "--config", str(inf_cfg), "--out", out],
        ["omori", "--config", str(omori_cfg), "--out", out],
        # numpy refuses a negative seed; the option table refuses it first.
        ["analyze", "--input", planted_csv, "--out", out, "--seed", "-1", "--surrogate", "shuffle"],
        ["events", "--input", planted_csv, "--out", out, "--seed", "-1", "--surrogate", "shuffle"],
        ["analyze", "--input", planted_csv, "--out", out, "--seed", "-1", "--bootstrap", "3"],
        # The option table refuses a slot count below 1 before the stamps are read.
        ["analyze", "--input", planted_csv, "--out", out, "--cadence", "1min", "--slots-per-day", "0"],
        ["analyze", "--input", planted_csv, "--out", out, "--cadence", "1min", "--slots-per-day", "-2"],
        # One replica has no spread: its p_stderr would be NaN.
        ["analyze", "--input", planted_csv, "--out", out, "--bootstrap", "1"],
    ]
    # Refusals whose error line is pinned.
    worded = [
        (["analyze", "--config", str(no_pair_cfg), "--out", out], f"{no_pair_cfg} line 1: expected 'key = value'"),
        (["events", "--input", planted_csv, "--out", out, "--labels", missing_labels],
         f"cannot read label file {missing_labels}: [Errno 2] No such file or directory: '{missing_labels}'"),
        (["events", "--input", planted_csv, "--out", out, "--labels", "builtin:nope"],
         f"no packaged label table 'nope'; available: {volrelax.packaged_label_names()}"),
        (["analyze", "--config", str(maybe_cfg), "--out", out], "--no-intraday-removal: invalid value 'maybe'"),
        (["analyze", "--config", str(sideways_cfg), "--out", out],
         "--tau: expected one of ('free', 'zero'), got 'sideways'"),
        (["omori", "--input", planted_csv, "--out", out, "--main-threshold", "4", "--z1-thresholds", "0,3"],
         "aftershock threshold 0 must be above 0 and below the main threshold 4"),
    ]
    for argv, want in [(argv, None) for argv in cases] + worded:
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        assert want is None or err == f"error: {want}\n"
        assert not os.path.exists(out), argv
        if argv[0] == "omori" and "--z1-thresholds" not in argv:
            assert "--main-threshold" in err, err


@pytest.mark.parametrize("char", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
def test_config_value_holding_a_character_text_mode_does_not_end_a_line_at(char, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(f"command = analyze\ninput = in{char}put.csv\n".encode("utf-8"))
    assert cli._read_config_file(str(cfg)) == {"command": "analyze", "input": f"in{char}put.csv"}


def test_bad_flag_value_exits_1(planted_csv, tmp_path):
    rc = main(
        ["analyze", "--input", planted_csv, "--out", str(tmp_path / "o"),
         "--tau", "sometimes"]
    )
    assert rc == 1


def test_unknown_config_key_exits_1(planted_csv, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"input = {planted_csv}\nverbosity = 11\n")
    assert main(["analyze", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1


# The options each run subcommand takes besides --config, and for each
# option that some of them lack, a value the others accept.
_SHARED = ("input", "cadence", "slots_per_day", "no_intraday_removal", "seed", "surrogate",
           "out", "drop_session_crossing")
_SELECT = ("thresholds", "labels", "min_separation")
_FIT = ("max_lag", "fit_min", "fit_max", "tau")
_TAKES = {
    "analyze": (*_SHARED, *_SELECT, *_FIT, "bootstrap", "split"),
    "omori": (*_SHARED, *_FIT, "main_threshold", "z1_thresholds"),
    "pattern": _SHARED,
    "events": (*_SHARED, *_SELECT),
}
_VALUES = {
    "thresholds": "5", "labels": "builtin:dax_daily", "min_separation": "3", "max_lag": "60",
    "fit_min": "2", "fit_max": "50", "tau": "zero", "bootstrap": "5", "split": "sign",
    "main_threshold": "6", "z1_thresholds": "2,3",
}
_NOT_TAKEN = [
    (command, key) for command, keys in _TAKES.items() for key in _VALUES if key not in keys
]


@pytest.mark.parametrize("command,key", _NOT_TAKEN)
def test_options_a_command_does_not_read_are_refused(command, key, planted_csv, tmp_path, capsys):
    out = str(tmp_path / "out")
    flag = "--" + key.replace("_", "-")
    assert main([command, "--input", planted_csv, "--out", out, flag, _VALUES[key]]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"command = {command}\n{key} = {_VALUES[key]}\n")
    assert main([command, "--config", str(cfg), "--input", planted_csv, "--out", out]) == 1
    assert capsys.readouterr().err == f"error: unknown config keys: {key}\n"
    assert not os.path.exists(out)


_ANALYZE_FLAGS = [
    "--help", "--input", "--cadence", "--slots-per-day", "--thresholds",
    "--no-intraday-removal", "--labels", "--max-lag", "--fit-min", "--fit-max", "--tau",
    "--bootstrap", "--seed", "--surrogate", "--split", "--out", "--min-separation",
    "--drop-session-crossing", "--config",
]


@pytest.mark.parametrize("command", sorted(_TAKES))
def test_help_lists_exactly_the_options_taken(command, capsys):
    with pytest.raises(SystemExit) as stop:
        main([command, "--help"])
    assert stop.value.code == 0
    listed = re.findall(r"^  (?:-h, )?(--[a-z0-9-]+)", capsys.readouterr().out, re.M)
    taken = {"--help", "--config", *("--" + k.replace("_", "-") for k in _TAKES[command])}
    assert sorted(listed) == sorted(taken)
    if command == "analyze":
        assert listed == _ANALYZE_FLAGS


def test_config_command_mismatch_exits_1(planted_csv, tmp_path):
    cfg = tmp_path / "mismatch.cfg"
    cfg.write_text(f"command = analyze\ninput = {planted_csv}\n")
    assert main(["omori", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1


def test_data_errors_exit_2(planted_csv, tmp_path, capsys):
    out = str(tmp_path / "out")
    bad_row = tmp_path / "bad_row.csv"
    bad_row.write_text("2000-01-03,100.0\n2000-01-04\n")
    bad_price = tmp_path / "bad_price.csv"
    bad_price.write_text("2000-01-03,100.0\n2000-01-04,-5.0\n")
    short = tmp_path / "short.csv"
    short.write_text("2000-01-03,100.0\n")
    for path in (bad_row, bad_price, short):
        assert main(["analyze", "--input", str(path), "--out", out]) == 2, path
    # Two hours apart over midnight: intraday stamps whose one step crosses a session.
    crossing = tmp_path / "crossing.csv"
    crossing.write_text("2000-01-03T23:00:00,100.0\n2000-01-04T01:00:00,101.0\n")
    capsys.readouterr()
    argv = ["analyze", "--input", str(crossing), "--out", out, "--no-intraday-removal", "--drop-session-crossing"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "data error: TooShort: no returns left after dropping session-crossing steps\n"
    assert not os.path.exists(out)


# --cadence and --slots-per-day check what the stamps give: each case's flag
# contradicts its file, and the error line names both values.
_CONTRADICTIONS = [
    ("planted_csv", ["events", "--slots-per-day", "5"], "--slots-per-day 5, but the stamps give 1"),
    ("planted_csv", ["analyze", "--cadence", "1min"], "--cadence 1min, but the stamps give daily"),
    ("planted_csv", ["analyze", "--cadence", "weekly"], "--cadence weekly, but the stamps give daily"),
    ("intraday_csv", ["pattern", "--cadence", "5min"], "--cadence 5min, but the stamps give 1min"),
    ("intraday_csv", ["pattern", "--cadence", "daily"], "--cadence daily, but the stamps give 1min"),
    ("intraday_csv", ["omori", "--slots-per-day", "29"], "--slots-per-day 29, but the stamps give 30"),
    ("intraday_csv", ["events", "--cadence", "1min", "--slots-per-day", "390"],
     "--slots-per-day 390, but the stamps give 30"),
]


@pytest.mark.parametrize("data,argv,want", _CONTRADICTIONS)
def test_cadence_or_slots_that_contradict_the_stamps_exit_2(data, argv, want, request, tmp_path, capsys):
    csv = request.getfixturevalue(data)
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([*argv, "--input", csv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"data error: SlotMismatch: {want}\n"
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize(
    "data,argv,stamped",
    [
        ("planted_csv", ["analyze", "--thresholds", "5", "--max-lag", "60", "--split", "sign"], ["daily", "1"]),
        ("intraday_csv", ["events", "--thresholds", "4"], ["1min", "30"]),
    ],
)
def test_cadence_and_slots_that_agree_with_the_stamps_change_no_byte(data, argv, stamped, request, tmp_path, capsys):
    csv = request.getfixturevalue(data)
    plain, checked = str(tmp_path / "plain"), str(tmp_path / "checked")
    capsys.readouterr()
    assert main([*argv, "--input", csv, "--out", plain]) == 0
    stdout = capsys.readouterr().out
    assert main([*argv, "--input", csv, "--out", checked, "--cadence", stamped[0], "--slots-per-day", stamped[1]]) == 0
    assert capsys.readouterr().out == stdout.replace(plain, checked)
    assert _dir_snapshot(checked) == _dir_snapshot(plain)


def test_echo_of_a_cadence_outside_the_common_ones_reads_back(tmp_path):
    # 300 days of 20 stamps 30 s apart: the stamps give the cadence "30s".
    day = np.datetime64("2000-01-03T09:30:00") + np.arange(20) * np.timedelta64(30, "s")
    stamps = (day + np.arange(300)[:, None] * np.timedelta64(1, "D")).ravel()
    prices = np.exp(np.cumsum(np.random.default_rng(1).normal(0, 1e-3, stamps.size)))
    csv = tmp_path / "30s.csv"
    csv.write_text("".join(f"{t},{p!r}\n" for t, p in zip(stamps.astype(str), prices.tolist())))
    first, again = tmp_path / "first", tmp_path / "again"
    assert main(["pattern", "--input", str(csv), "--out", str(first)]) == 0
    assert "cadence = 30s\n" in (first / "config.echo").read_text()
    assert main(["pattern", "--config", str(first / "config.echo"), "--out", str(again)]) == 0
    assert _dir_snapshot(first) == _dir_snapshot(again)


def test_drop_session_crossing_with_pattern_removal_covers_all_but_the_last_slot(tmp_path, capsys):
    # Each day's last slot holds only the overnight return, so the dropped
    # series has no return there and the pattern ends one slot earlier.
    csv = str(tmp_path / "minute.csv")
    argv = ["--slots-per-day", "390", "--n", "40000", "--shock-rate", "500", "--seed", "1"]
    assert main(["synth", "--mode", "planted", *argv, "--out", csv]) == 0
    out = tmp_path / "run"
    capsys.readouterr()
    assert main(["analyze", "--input", csv, "--out", str(out), "--thresholds", "4", "--max-lag", "100",
                 "--drop-session-crossing"]) == 0
    assert capsys.readouterr().err == ""
    pattern = read_pattern_tsv(str(out / "pattern.tsv"))
    assert pattern.slots_per_day == 389 and np.all(pattern.factors > 0)
    assert "slots_per_day = 390\n" in (out / "config.echo").read_text()


def test_input_that_is_not_utf8_is_a_data_error(tmp_path, capsys):
    path = tmp_path / "latin1.csv"
    # "\xa4" is the euro sign in Latin-9 and not UTF-8.
    path.write_bytes(b"timestamp,price\n2000-01-03,1\n2000-01-04,2 \xa4\n")
    assert main(["events", "--input", str(path), "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.err == "data error: MalformedRow: line 3: byte 0xa4 is not UTF-8\n"
    assert captured.out == ""


def _labels_of_events(csv, tmp_path):
    """A label file naming every other z=5 event date of ``csv`` exogenous."""
    out = str(tmp_path / "events")
    assert main(["events", "--input", csv, "--out", out, "--thresholds", "5"]) == 0
    with open(os.path.join(out, "events_z5.tsv"), encoding="utf-8") as fh:
        dates = [line.split("\t")[1][:10] for line in fh.read().splitlines()[1:]]
    return "# dates, origins\n" + "".join(f"{d},exogenous\n" for d in dates[::2])


def test_byte_order_mark_is_dropped_from_label_config_and_factors_files(planted_csv, tmp_path):
    # Each file is run as written, then with a BOM prepended, at the same path.
    labels, config = tmp_path / "labels.csv", tmp_path / "run.cfg"
    argv = ["--input", planted_csv, "--labels", str(labels), "--config", str(config)]
    files = {
        labels: _labels_of_events(planted_csv, tmp_path),
        config: "thresholds = 5\nmax-lag = 150\nfit-min = 2\nfit-max = 60\ntau = zero\nsplit = origin\n",
    }
    for path, text in files.items():
        path.write_text(text, encoding="utf-8")
    assert main(["analyze", *argv, "--out", str(tmp_path / "plain")]) == 0
    for path, text in files.items():
        path.write_text("\ufeff" + text, encoding="utf-8")
        out = str(tmp_path / f"bom_{path.name}")
        assert main(["analyze", *argv, "--out", out]) == 0
        assert _dir_snapshot(out) == _dir_snapshot(str(tmp_path / "plain"))
        path.write_text(text, encoding="utf-8")
    assert "profile_z5_exogenous.tsv" in os.listdir(out)

    factors = tmp_path / "factors.txt"
    csvs = []
    for prefix in ("", "\ufeff"):
        factors.write_text(prefix + "2.0\n0.5\n1.0\n0.5\n", encoding="utf-8")
        csvs.append(tmp_path / f"mod{len(csvs)}.csv")
        assert main(
            ["synth", "--mode", "modulated", "--n", "400", "--slots-per-day", "4",
             "--factors", str(factors), "--out", str(csvs[-1])]
        ) == 0
    assert csvs[0].read_bytes() == csvs[1].read_bytes()


def test_input_files_that_are_not_utf8_exit_with_one_line(planted_csv, tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    # Line 2 ends in "\xa4", the euro sign in Latin-9 and not UTF-8.
    bad.write_bytes(b"# a comment\n2000-01-05,exogenous \xa4\n")
    out = str(tmp_path / "out")
    capsys.readouterr()
    assert main(["events", "--input", planted_csv, "--out", out, "--labels", str(bad)]) == 2
    assert capsys.readouterr().err == "data error: MalformedRow: label line 2: byte 0xa4 is not UTF-8\n"
    assert main(["events", "--input", planted_csv, "--out", out, "--config", str(bad)]) == 1
    assert capsys.readouterr().err == f"error: cannot read config file {bad}: line 2: byte 0xa4 is not UTF-8\n"
    assert not os.path.exists(out)
    csv = str(tmp_path / "mod.csv")
    argv = ["synth", "--mode", "modulated", "--slots-per-day", "2", "--factors", str(bad), "--out", csv]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: cannot read factors file {bad}: line 2: byte 0xa4 is not UTF-8\n"
    assert not os.path.exists(csv)


def test_unmatched_label_dates_print_one_warning_line_each(planted_csv, tmp_path, capsys):
    assert main(["events", "--input", planted_csv, "--out", str(tmp_path / "ev"), "--thresholds", "4,5"]) == 0

    def dates(m):
        rows = (tmp_path / "ev" / f"events_z{m}.tsv").read_text().splitlines()[1:]
        return {row.split("\t")[1][:10] for row in rows}

    # A z4 event date that is no z5 event matches at one threshold of the run, so it does not warn.
    z4_only = min(dates(4) - dates(5))
    labels = tmp_path / "labels.csv"
    labels.write_text(
        f"1962-05-29,exogenous\n{z4_only},exogenous\n1962-05-30,endogenous\n1962-05-29,exogenous\n"
    )
    want = (
        "warning: label date 1962-05-29 matched no event\n"
        "warning: label date 1962-05-30 matched no event\n"
    )
    capsys.readouterr()
    for run in range(2):
        out = str(tmp_path / f"out{run}")
        # Each run warns again; a warning filter set to "error" does not end it.
        with warnings.catch_warnings():
            warnings.simplefilter("error" if run else "default")
            assert main(
                ["events", "--input", planted_csv, "--out", out, "--thresholds", "4,5", "--labels", str(labels)]
            ) == 0
        assert capsys.readouterr().err == want


@pytest.mark.parametrize("command", ["analyze", "omori", "pattern", "events"])
def test_zero_volatility_series_is_refused_before_out_is_made(command, tmp_path, capsys):
    flat = tmp_path / "flat.csv"
    days = np.datetime64("2000-01-03") + np.arange(300)
    flat.write_text("timestamp,price\n" + "".join(f"{day},100.0\n" for day in days))
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([command, "--input", str(flat), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: EmptySeries: ") and err.count("\n") == 1, err
    assert not out.exists()


@pytest.mark.parametrize("command", ["analyze", "omori", "pattern", "events", "synth"])
def test_out_that_cannot_be_created_exits_1(command, planted_csv, intraday_csv, tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("keep")
    if command == "synth":
        cases = [(str(blocker / "x.csv"), "cannot write"), (str(tmp_path), "cannot write")]
        argv = ["synth", "--mode", "iid", "--n", "100"]
    else:
        cases = [(str(blocker), "cannot create output directory"),
                 (str(blocker / "sub"), "cannot create output directory")]
        argv = [command, "--input", intraday_csv if command == "pattern" else planted_csv]
    capsys.readouterr()
    for out, message in cases:
        assert main([*argv, "--out", out]) == 1, out
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {message} {out}: ") and captured.err.count("\n") == 1
        assert captured.out == ""
    assert blocker.read_text() == "keep"


@pytest.mark.parametrize("command", ["analyze", "omori", "pattern", "events"])
def test_out_blocked_by_a_file_is_refused_before_the_input_is_read(command, tmp_path, monkeypatch, capsys):
    def no_read(*args, **kwargs):
        raise AssertionError("the input was read")

    monkeypatch.setattr(volrelax.cli, "read_price_csv", no_read)
    blocker = tmp_path / "file"
    blocker.write_text("keep")
    capsys.readouterr()
    for out in (blocker, blocker / "sub", blocker / "sub" / "deeper"):
        assert main([command, "--input", str(tmp_path / "never_read.csv"), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot create output directory {out}: ")
        assert captured.err.count("\n") == 1 and captured.out == ""
    assert sorted(os.listdir(tmp_path)) == ["file"] and blocker.read_text() == "keep"


def test_out_is_created_only_after_the_input_parses(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("timestamp,price\n2000-01-03,1\n2000-01-04,oops\n")
    for out in (tmp_path / "out", tmp_path / "new" / "out"):
        assert main(["analyze", "--input", str(bad), "--out", str(out)]) == 2
        assert not out.exists() and not (tmp_path / "new").exists()


def _zero_slot_csv(path):
    """Four one-minute slots a day for 200 days; every return from slot 1 is zero."""
    rng = np.random.default_rng(3)
    days = np.datetime64("2000-01-03T09:30") + np.arange(200).repeat(4) * np.timedelta64(1, "D")
    stamps = days + np.tile(np.arange(4), 200) * np.timedelta64(1, "m")
    prices = 100.0 * np.exp(np.cumsum(rng.normal(0.0, 1e-3, stamps.size)))
    prices[2::4] = prices[1::4]
    path.write_text("".join(f"{t},{p!r}\n" for t, p in zip(stamps.astype(str), prices.tolist())))


@pytest.mark.parametrize("command", ["analyze", "pattern"])
def test_slot_of_zero_volatility_is_a_data_error(command, tmp_path, capsys):
    csv = tmp_path / "zero_slot.csv"
    _zero_slot_csv(csv)
    assert main([command, "--input", str(csv), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "data error: EmptySlot: only zero volatility in slot(s) [1]\n"


def test_pattern_of_daily_data_is_a_data_error(iid_csv, tmp_path, capsys):
    # Daily data has no intraday pattern to dump, with removal on or off.
    for extra in ([], ["--no-intraday-removal"]):
        assert main(["pattern", "--input", iid_csv, "--out", str(tmp_path / "out"), *extra]) == 2
        assert capsys.readouterr().err == "data error: DailyCadence: series has a single slot per day\n"


def test_no_events_exits_3_with_markers(iid_csv, tmp_path):
    out = str(tmp_path / "out")
    rc = main(
        ["analyze", "--input", iid_csv, "--out", out, "--thresholds", "40",
         "--max-lag", "100"]
    )
    assert rc == 3
    rows = read_fit_tsv(os.path.join(out, "fits.tsv"))
    assert len(rows) == 2
    for row in rows:
        assert row["method"] == "failed:NoEvents"
        assert np.isnan(row["p"])
    assert not os.path.exists(os.path.join(out, "profile_z40.tsv"))


def test_events_command_lists_events(planted_csv, tmp_path):
    out = str(tmp_path / "out")
    assert main(
        ["events", "--input", planted_csv, "--out", out, "--thresholds", "5"]
    ) == 0
    lines = open(os.path.join(out, "events_z5.tsv"), encoding="utf-8").read().splitlines()
    assert lines[0] == "index\ttimestamp\tmagnitude\tsign\torigin"
    assert len(lines) > 30
    for line in lines[1:]:
        index, stamp, magnitude, sign, origin = line.split("\t")
        assert sign in ("crash", "rally")
        assert origin == "unlabeled"
        assert float(magnitude) > 0
        assert stamp.startswith("2000") or stamp > "2000"


@pytest.mark.parametrize(
    ("argv", "kept"),
    [
        (["analyze", "--thresholds", "5"], False),
        (["omori"], False),
        (["events", "--thresholds", "5"], True),
        (["analyze", "--thresholds", "5", "--labels", "builtin:dax_daily"], True),
    ],
)
def test_return_stamps_are_kept_only_to_label_or_list_events(planted_csv, tmp_path, argv, kept):
    # 8 bytes a return that an analyze without labels never reads.
    args = cli._build_parser().parse_args([*argv, "--input", planted_csv, "--out", str(tmp_path / "out")])
    _, _, returns, vol = cli._prepare_run(args)
    if kept:
        stamps = volrelax.read_price_csv(planted_csv).timestamps[:-1]
        assert returns.timestamps.tobytes() == stamps.tobytes()
        assert np.shares_memory(vol.timestamps, returns.timestamps)
    else:
        assert returns.timestamps is None and vol.timestamps is None


def test_events_list_and_labels_read_the_return_stamps(planted_csv, tmp_path):
    stamps = np.datetime_as_string(volrelax.read_price_csv(planted_csv).timestamps, unit="s")

    def events(*extra):
        out = tmp_path / f"out{len(extra)}"
        assert main(["events", "--input", planted_csv, "--out", str(out), "--thresholds", "5", *extra]) == 0
        return [line.split("\t") for line in (out / "events_z5.tsv").read_text().splitlines()[1:]]

    rows = events()
    assert len(rows) > 30
    assert [row[1] for row in rows] == [stamps[int(row[0])] for row in rows]
    labels = tmp_path / "labels.csv"
    labels.write_text("".join(f"{row[1][:10]},exogenous\n" for row in rows[::3]))
    labelled = events("--labels", str(labels))
    assert [row[:4] for row in labelled] == [row[:4] for row in rows]
    assert [row[4] for row in labelled] == ["endogenous" if i % 3 else "exogenous" for i in range(len(rows))]


def test_origin_split_with_labels(planted_csv, tmp_path):
    events_out = str(tmp_path / "events")
    assert main(
        ["events", "--input", planted_csv, "--out", events_out, "--thresholds", "5"]
    ) == 0
    lines = open(
        os.path.join(events_out, "events_z5.tsv"), encoding="utf-8"
    ).read().splitlines()[1:]
    dates = [line.split("\t")[1][:10] for line in lines]
    labels = tmp_path / "labels.csv"
    labels.write_text("".join(f"{d},exogenous\n" for d in dates[::2]))

    out = str(tmp_path / "out")
    rc = _analyze(
        planted_csv, out, "--split", "origin", "--labels", str(labels)
    )
    assert rc == 0
    names = sorted(os.listdir(out))
    assert "profile_z5.tsv" in names
    assert "profile_z5_endogenous.tsv" in names
    assert "profile_z5_exogenous.tsv" in names
    rows = read_fit_tsv(os.path.join(out, "fits.tsv"))
    assert sorted({r["origin_filter"] for r in rows}) == ["all", "endogenous", "exogenous"]


def test_sign_split(planted_csv, tmp_path):
    out = str(tmp_path / "out")
    assert _analyze(planted_csv, out, "--split", "sign") == 0
    names = sorted(os.listdir(out))
    assert "profile_z5_crash.tsv" in names
    assert "profile_z5_rally.tsv" in names
    rows = read_fit_tsv(os.path.join(out, "fits.tsv"))
    assert sorted({r["sign_filter"] for r in rows}) == ["all", "crash", "rally"]


def test_shuffle_surrogate_flattens_profiles(planted_csv, tmp_path):
    raw_out = str(tmp_path / "raw")
    null_out = str(tmp_path / "null")
    args = ["--thresholds", "4", "--max-lag", "100", "--fit-min", "2", "--tau", "zero"]
    assert main(["analyze", "--input", planted_csv, "--out", raw_out, *args]) == 0
    # Fits on the shuffled null may legitimately fail (nothing decays),
    # which reports exit 3 with marker rows; both outcomes keep outputs.
    rc = main(
        ["analyze", "--input", planted_csv, "--out", null_out,
         "--surrogate", "shuffle", *args]
    )
    assert rc in (0, 3)

    def flags(path):
        lines = open(os.path.join(path, "signal_check.tsv"), encoding="utf-8").read().splitlines()
        return [line.split("\t")[4] for line in lines[1:]]

    assert all(f == "zero_consistent" for f in flags(null_out))
    assert "signal" in flags(raw_out)


def test_signal_check_flags_a_profile_without_lags_as_undefined(tmp_path, capsys):
    # The only return above 20 sigma is the last: no lag after it is in the
    # series, so the "+" profile is NaN throughout and its fit fails.
    returns = np.random.default_rng(0).normal(0.0, 0.01, 1999)
    returns[-1] = 1.0
    prices = 100.0 * np.exp(np.concatenate(([0.0], np.cumsum(returns))))
    stamps = np.datetime64("2000-01-03") + np.arange(2000)
    csv = tmp_path / "daily.csv"
    csv.write_text("timestamp,price\n" + "".join(f"{d},{p!r}\n" for d, p in zip(stamps, prices.tolist())))
    out = str(tmp_path / "out")
    assert main(["analyze", "--input", str(csv), "--out", out, "--thresholds", "20", "--max-lag", "50"]) == 3
    lines = open(os.path.join(out, "signal_check.tsv"), encoding="utf-8").read().splitlines()
    rows = {row[2]: row for row in (line.split("\t") for line in lines[1:])}
    assert rows["+"] == ["20.0", "all", "+", "nan", "undefined"]
    assert rows["-"][3] != "nan" and rows["-"][4] in ("signal", "zero_consistent")


@pytest.mark.parametrize("max_lag", [60, 150])
def test_signal_check_mean_v_is_the_mean_of_the_written_profile(planted_csv, tmp_path, max_lag):
    # mean_v is the NaN-skipping mean of v over lags 1 to min(100, max_lag),
    # read back from the run's own profile files.
    out = str(tmp_path / "out")
    argv = ["analyze", "--input", planted_csv, "--out", out, "--thresholds", "4,5", "--max-lag", str(max_lag)]
    assert main([*argv, "--fit-min", "2", "--fit-max", "50", "--tau", "zero"]) == 0
    lines = open(os.path.join(out, "signal_check.tsv"), encoding="utf-8").read().splitlines()
    assert len(lines) == 5
    hi = min(100, max_lag)
    for m, _, side, mean_v, _ in (line.split("\t") for line in lines[1:]):
        profile = read_profile_tsv(os.path.join(out, f"profile_z{float(m):g}.tsv"))
        assert profile["t"].tolist() == list(range(max_lag + 1))
        v = profile["v_minus" if side == "-" else "v_plus"]
        assert float(mean_v) == float(np.nanmean(v[1 : hi + 1])), (m, side)


def test_omori_command(planted_csv, tmp_path):
    out = str(tmp_path / "out")
    rc = main(
        [
            "omori", "--input", planted_csv, "--out", out,
            "--main-threshold", "6", "--z1-thresholds", "2,3",
            "--max-lag", "60", "--fit-min", "2", "--fit-max", "50", "--tau", "zero",
        ]
    )
    assert rc == 0
    names = sorted(os.listdir(out))
    assert "omori_z6_z12.tsv" in names
    assert "omori_z6_z13.tsv" in names
    rows = read_fit_tsv(os.path.join(out, "fits.tsv"))
    assert len(rows) == 4
    assert sorted({r["zeta_multiple"] for r in rows}) == [2.0, 3.0]
    cols = read_omori_tsv(os.path.join(out, "omori_z6_z12.tsv"))
    assert np.all(np.diff(cols["N_plus"]) >= 0)
    assert np.all(cols["N_plus"] <= cols["t"])
    assert cols["N_plus"][-1] > 0


def _traced_cli_calls():
    """``CLI_CALLS`` of the benchmark's tracer, read from its source without running it."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    (value,) = [
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["CLI_CALLS"]
    ]
    return ast.literal_eval(value)


def test_every_layer_call_the_tracer_wraps_goes_through_cli(intraday_csv, daily_csv, tmp_path, monkeypatch):
    # perfbench/tracing.py times each layer by swapping its name on volrelax.cli.
    # A layer call that no longer goes through that global leaves the layer's
    # metrics at 0 without an error, so every name must be reached through it.
    names = [name for _, name in _traced_cli_calls()]
    assert len(names) == 16
    calls = dict.fromkeys(names, 0)

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return call

    for name in names:
        monkeypatch.setattr(cli, name, counted(name, getattr(cli, name)))
    intraday = ["--input", intraday_csv, "--thresholds", "4", "--max-lag", "50", "--fit-max", "30"]
    # The i.i.d. intraday series leaves too few positive points to fit (exit 3),
    # after every layer has run.
    assert main(["analyze", *intraday, "--out", str(tmp_path / "intraday")]) == 3
    daily = ["--input", daily_csv, "--thresholds", "4", "--bootstrap", "2"]
    assert main(["analyze", *daily, "--out", str(tmp_path / "daily")]) == 0
    assert [name for name, n in calls.items() if n == 0] == []


@pytest.fixture(scope="module")
def daily_csv(tmp_path_factory):
    """The 50-year daily series of the benchmark's daily workload."""
    path = str(tmp_path_factory.mktemp("data") / "daily.csv")
    assert main(
        ["synth", "--mode", "planted", "--n", "12500", "--seed", "1", "--shock-rate", "500",
         "--out", path]
    ) == 0
    return path


_FIT_HEADER = (
    "side\tzeta_multiple\torigin_filter\tsign_filter\tp\tp_stderr\ttau\tA\tt_min\tt_max\t"
    "method\trms_log_residual\n"
)
_OMORI_FIT = ["--max-lag", "60", "--fit-min", "2", "--fit-max", "50", "--tau", "zero"]


def _marker(side, m, error):
    return f"{side}\t{m}\tall\tall\tnan\tnan\tnan\tnan\t0\t0\tfailed:{error}\tnan\n"


def _run(capsys, argv):
    """Exit code, stdout lines and fits.tsv text of one in-process run."""
    capsys.readouterr()
    rc = main(argv)
    captured = capsys.readouterr()
    assert captured.err == ""
    out = argv[argv.index("--out") + 1]
    with open(os.path.join(out, "fits.tsv"), encoding="utf-8", newline="") as fh:
        return rc, captured.out.splitlines(), fh.read()


def test_bootstrap_failure_keeps_the_point_fits(daily_csv, tmp_path, capsys):
    # 2 of 5 replicas of the two z=6 events fail to fit: BootstrapUnstable.
    out = str(tmp_path / "out")
    rc, stdout, fits = _run(
        capsys, ["analyze", "--input", daily_csv, "--out", out, "--thresholds", "6", "--bootstrap", "5"]
    )
    assert rc == 3
    assert stdout == [
        "z6 all: bootstrap failed: BootstrapUnstable: 2/5 bootstrap replicas failed to fit",
        "z6 all -: p=0.61 tau=7.189 A=0.58 range=[5,100] rms=0.108 (full_fit)",
        "z6 all +: p=116 tau=596.8 A=inf range=[5,100] rms=0.208 (full_fit)",
        "signal check: 0/2 profiles consistent with zero signal",
        f"wrote {out}",
    ]
    assert fits == _FIT_HEADER + (
        "-\t6.0\tall\tall\t0.6104052486579392\tnan\t7.18881027555861\t0.5799834172379666\t5\t100\t"
        "full_fit\t0.10755184306536754\n"
        "+\t6.0\tall\tall\t116.32124126707076\tnan\t596.8203993426314\tinf\t5\t100\t"
        "full_fit\t0.20758239917034593\n"
    )


def test_omori_without_mainshocks_writes_marker_rows(daily_csv, tmp_path, capsys):
    out = str(tmp_path / "out")
    rc, stdout, fits = _run(
        capsys,
        ["omori", "--input", daily_csv, "--out", out, "--main-threshold", "1000",
         "--z1-thresholds", "2,3", *_OMORI_FIT],
    )
    assert rc == 3
    assert stdout == ["mainshock selection failed: NoEvents: cannot condition on an empty event set"]
    assert fits == _FIT_HEADER + "".join(
        _marker(side, m, "NoEvents") for m in ("2.0", "3.0") for side in "-+"
    )
    assert sorted(os.listdir(out)) == ["config.echo", "fits.tsv"]


def test_omori_fit_failure_keeps_the_other_fits(daily_csv, tmp_path, capsys):
    # Two mainshocks above 6 sigma; none of their neighbours reaches 5.9 sigma.
    out = str(tmp_path / "out")
    rc, stdout, fits = _run(
        capsys,
        ["omori", "--input", daily_csv, "--out", out, "--main-threshold", "6",
         "--z1-thresholds", "2,5.9", *_OMORI_FIT],
    )
    assert rc == 3
    assert stdout == [
        "2 mainshocks above 6 sigma",
        "z1=2 -: p=-0.00411 tau=0 A=0.2796 range=[2,50] rms=0.117 (full_fit)",
        "z1=2 +: p=0.257 tau=0 A=0.4162 range=[2,50] rms=0.15 (full_fit)",
        "z1=5.9 -: fit failed: InsufficientPositivePoints",
        "z1=5.9 +: fit failed: InsufficientPositivePoints",
        f"wrote {out}",
    ]
    assert fits == _FIT_HEADER + (
        "-\t2.0\tall\tall\t-0.004112928493968049\tnan\t0.0\t0.2795859049450902\t2\t50\t"
        "full_fit\t0.1174846580619359\n"
        "+\t2.0\tall\tall\t0.25674607514805703\tnan\t0.0\t0.416187475906714\t2\t50\t"
        "full_fit\t0.14955675326346624\n"
        + _marker("-", "5.9", "InsufficientPositivePoints")
        + _marker("+", "5.9", "InsufficientPositivePoints")
    )
    assert sorted(os.listdir(out)) == ["config.echo", "fits.tsv", "omori_z6_z12.tsv", "omori_z6_z15.9.tsv"]


def test_min_separation_declusters_events(daily_csv, tmp_path, capsys):
    counts = {}
    for sep in ("0", "30"):
        capsys.readouterr()
        out = str(tmp_path / f"events{sep}")
        argv = ["events", "--input", daily_csv, "--out", out, "--thresholds", "2,4,6"]
        assert main([*argv, "--min-separation", sep]) == 0
        counts[sep] = capsys.readouterr().out.splitlines()
        assert counts[sep][-1] == f"wrote {out}"
    assert counts["0"][:3] == ["z2: 1422 events", "z4: 120 events", "z6: 2 events"]
    assert counts["30"][:3] == ["z2: 304 events", "z4: 63 events", "z6: 2 events"]
    indices = np.loadtxt(
        os.path.join(tmp_path, "events30", "events_z4.tsv"), dtype=np.int64, usecols=0, skiprows=1
    )
    assert np.all(np.diff(indices) >= 30)

    out = str(tmp_path / "analyze")
    rc, stdout, fits = _run(
        capsys,
        ["analyze", "--input", daily_csv, "--out", out, "--thresholds", "4",
         "--min-separation", "30", *_OMORI_FIT],
    )
    assert rc == 0
    assert stdout == [
        "z4 all -: p=0.357 tau=0 A=0.1097 range=[2,50] rms=0.0691 (full_fit)",
        "z4 all +: p=0.407 tau=0 A=0.2166 range=[2,50] rms=0.051 (full_fit)",
        "signal check: 0/2 profiles consistent with zero signal",
        f"wrote {out}",
    ]
    assert fits == _FIT_HEADER + (
        "-\t4.0\tall\tall\t0.3565646146587429\tnan\t0.0\t0.10971773649783466\t2\t50\t"
        "full_fit\t0.06907569665877783\n"
        "+\t4.0\tall\tall\t0.4067969488284078\tnan\t0.0\t0.21662973957295512\t2\t50\t"
        "full_fit\t0.05100624881456333\n"
    )


def test_pattern_command(tmp_path):
    csv = str(tmp_path / "mod.csv")
    assert main(
        ["synth", "--mode", "modulated", "--n", "6000", "--slots-per-day", "30",
         "--out", csv]
    ) == 0
    out = str(tmp_path / "out")
    assert main(["pattern", "--input", csv, "--out", out]) == 0
    pattern = read_pattern_tsv(os.path.join(out, "pattern.tsv"))
    assert pattern.slots_per_day == 30
    # The default synthetic day is U-shaped: edges louder than the middle.
    assert pattern.factors[0] > pattern.factors[15]
    assert pattern.factors[-1] > pattern.factors[15]


def test_synth_modes_produce_parseable_csv(tmp_path):
    from volrelax import read_price_csv

    for mode, extra in (
        ("iid", []),
        ("planted", ["--tau", "1.5", "--p-before", "0.5"]),
        ("modulated", ["--slots-per-day", "12"]),
    ):
        path = str(tmp_path / f"{mode}.csv")
        assert main(["synth", "--mode", mode, "--n", "3000", "--out", path, *extra]) == 0
        prices = read_price_csv(path)
        assert len(prices) == 3001


def test_synth_writes_100000_returns_by_default(tmp_path, capsys):
    path = str(tmp_path / "iid.csv")
    capsys.readouterr()
    assert main(["synth", "--mode", "iid", "--out", path]) == 0
    assert capsys.readouterr().out == f"wrote {path} (100001 records)\n"
    with open(path, "rb") as fh:
        assert sum(1 for _ in fh) == 1 + 100_001  # the header, then one line per price


def test_synth_factor_file(tmp_path):
    factors = tmp_path / "factors.txt"
    factors.write_text("2.0\n0.5\n1.0\n0.5\n")
    path = str(tmp_path / "mod.csv")
    assert main(
        ["synth", "--mode", "modulated", "--n", "4000", "--slots-per-day", "4",
         "--factors", str(factors), "--out", path]
    ) == 0
    out = str(tmp_path / "out")
    assert main(["pattern", "--input", path, "--out", out]) == 0
    estimated = read_pattern_tsv(os.path.join(out, "pattern.tsv")).factors
    assert estimated[0] > estimated[1]


@pytest.fixture
def umask_022():
    """The umask 022 under which a new file is made ``0o644``."""
    old = os.umask(0o022)
    yield
    os.umask(old)


def test_rerun_makes_new_files_and_leaves_open_handles_on_the_old(planted_csv, tmp_path, umask_022):
    out = tmp_path / "run"
    assert _analyze(planted_csv, str(out)) == 0
    old = _dir_snapshot(out)
    (out / "fits.tsv").chmod(0o600)
    with open(out / "fits.tsv", "rb") as fits, open(out / "config.echo", "rb") as echo:
        assert _analyze(planted_csv, str(out), "--thresholds", "4") == 0
        assert fits.read() == old["fits.tsv"] and echo.read() == old["config.echo"]
    assert stat.S_IMODE(os.stat(out / "fits.tsv").st_mode) == 0o600  # the new file keeps the mode
    new = _dir_snapshot(out)
    assert new["fits.tsv"] != old["fits.tsv"] and new["config.echo"] != old["config.echo"]
    fresh = tmp_path / "fresh"
    assert _analyze(planted_csv, str(fresh), "--thresholds", "4") == 0
    assert _dir_snapshot(fresh)["fits.tsv"] == new["fits.tsv"]


@pytest.fixture
def synth_bytes(tmp_path):
    """``synth`` argv without ``--out``, and the bytes it writes to a new regular file."""
    argv = ["synth", "--mode", "iid", "--n", "3000", "--seed", "1"]
    plain = tmp_path / "plain.csv"
    assert main([*argv, "--out", str(plain)]) == 0
    return argv, plain.read_bytes()


def test_synth_into_a_file_keeps_its_mode(synth_bytes, tmp_path, umask_022):
    argv, want = synth_bytes
    path = tmp_path / "private.csv"
    path.write_text("old\n")
    path.chmod(0o600)
    assert main([*argv, "--out", str(path)]) == 0
    assert stat.S_IMODE(os.stat(path).st_mode) == 0o600
    assert path.read_bytes() == want


@pytest.mark.skipif(os.geteuid() != 0, reason="only the superuser can give a file to another user")
def test_synth_into_another_users_file_keeps_its_owner(synth_bytes, tmp_path):
    argv, want = synth_bytes
    path = tmp_path / "theirs.csv"
    path.write_text("old\n")
    os.chown(path, 1, -1)
    assert main([*argv, "--out", str(path)]) == 0
    assert os.stat(path).st_uid == 1
    assert path.read_bytes() == want


def test_synth_into_a_fifo_writes_through_it(synth_bytes, tmp_path):
    argv, want = synth_bytes
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    assert main([*argv, "--out", str(fifo)]) == 0
    reader.join(timeout=30)
    assert not reader.is_alive() and got == [want]
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)


def test_synth_into_a_symlink_writes_its_target(synth_bytes, tmp_path):
    argv, want = synth_bytes
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    target.write_text("old\n")
    link.symlink_to(target)
    assert main([*argv, "--out", str(link)]) == 0
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == want


def test_synth_into_a_hard_linked_file_rewrites_both_names(synth_bytes, tmp_path):
    argv, want = synth_bytes
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    first.write_text("old\n")
    os.link(first, second)
    assert main([*argv, "--out", str(first)]) == 0
    assert os.path.samefile(first, second)
    assert first.read_bytes() == want and second.read_bytes() == want


@pytest.mark.skipif(os.geteuid() == 0, reason="the superuser may write a read-only file")
def test_synth_into_a_read_only_file_exits_1(synth_bytes, tmp_path, capsys):
    argv, _ = synth_bytes
    path = tmp_path / "read_only.csv"
    path.write_text("keep\n")
    path.chmod(0o444)
    capsys.readouterr()
    assert main([*argv, "--out", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write {path}: ") and captured.err.count("\n") == 1
    assert path.read_text() == "keep\n"


def test_synth_invalid_args_exit_1(tmp_path, capsys):
    out = str(tmp_path / "x.csv")
    assert main(["synth", "--out", out]) == 1  # missing mode
    assert main(["synth", "--mode", "iid"]) == 1  # missing out
    assert main(["synth", "--mode", "planted", "--p", "1.7", "--out", out]) == 1
    assert main(["synth", "--mode", "planted", "--shock-rate", "90000", "--out", out]) == 1
    capsys.readouterr()
    for slots in ("0", "-2"):  # refused before "% slots_per_day" can warn
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["synth", "--mode", "iid", "--slots-per-day", slots, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err == "error: --slots-per-day must be >= 1\n", err
    assert not os.path.exists(out)
    missing = str(tmp_path / "missing.txt")
    capsys.readouterr()
    assert main(["synth", "--mode", "modulated", "--factors", missing, "--out", out]) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot read factors file {missing}:")
    bad = tmp_path / "f.txt"
    bad.write_text("2.0 0.5\nabc\n")
    assert main(["synth", "--mode", "modulated", "--factors", str(bad), "--out", out]) == 1
    assert capsys.readouterr().err == f"error: cannot read factors file {bad}: line 2: bad factor 'abc'\n"
    assert not os.path.exists(out)


_WITHOUT_SCIPY = """
import sys
import warnings
import volrelax.cli
assert "scipy" not in sys.modules, "importing volrelax.cli imported scipy"
sys.modules["scipy"] = None  # from here on every scipy import raises ImportError
csv, out = sys.argv[1:]
rc = volrelax.cli.main(
    ["synth", "--mode", "planted", "--n", "12500", "--seed", "1",
     "--shock-rate", "500", "--out", csv]
)
assert rc == 0, rc
sys.exit(volrelax.cli.main(["analyze", "--bootstrap", "3", "--input", csv, "--out", out]))
"""


def test_commands_run_without_scipy(tmp_path):
    # scipy is a test dependency only: synth and a bootstrapped analyze
    # must run in an interpreter where any scipy import fails.
    src = os.path.dirname(os.path.dirname(volrelax.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    csv, out = str(tmp_path / "daily.csv"), str(tmp_path / "run")
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_SCIPY, csv, out],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode in (0, 3), proc.stderr
    assert os.path.getsize(os.path.join(out, "fits.tsv")) > 0


_MODULES_A_RUN_LOADS = """
import sys
import numpy
watched = ("numpy.random", "numpy.ma", "_hashlib")
with_numpy = [name for name in watched if name in sys.modules]
import volrelax.cli
rc = volrelax.cli.main(sys.argv[1:])
print((with_numpy, [name for name in watched if name in sys.modules and name not in with_numpy]), file=sys.stderr)
sys.exit(rc)
"""
# The runs that go through every layer an analysis loads: a bootstrap,
# aftershock counts, an event list, and labels split by origin.
_FRESH_RUNS = {
    "analyze --bootstrap": ["analyze", "--bootstrap", "3"],
    "omori": ["omori", "--main-threshold", "6", "--z1-thresholds", "2,4"],
    "events": ["events", "--thresholds", "2,4,6,8"],
    "analyze --split origin": ["analyze", "--split", "origin", "--labels", "builtin:dax_daily"],
}


@pytest.mark.parametrize("run", sorted(_FRESH_RUNS))
def test_a_run_loads_neither_numpy_random_nor_numpy_ma(run, daily_csv, tmp_path):
    # The bootstrap draws numpy's stream without numpy.random, whose import
    # maps OpenSSL (secrets -> hmac -> _hashlib), and no layer calls what
    # imports numpy.ma on numpy 2 (np.unique, np.isin).  A fresh interpreter,
    # because this one may have imported them already; a name that
    # `import numpy` itself loads (numpy 1.x loads numpy.random and
    # numpy.ma) is not watched.
    src = os.path.dirname(os.path.dirname(volrelax.__file__))
    argv = [*_FRESH_RUNS[run], "--input", daily_csv, "--out", str(tmp_path / "run")]
    proc = subprocess.run(
        [sys.executable, "-c", _MODULES_A_RUN_LOADS, *argv],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode in (0, 3), proc.stderr
    with_numpy, loaded = ast.literal_eval(proc.stderr.splitlines()[-1])
    if len(with_numpy) == 3:
        pytest.skip(f"numpy {np.__version__} imports {', '.join(with_numpy)} with numpy itself")
    assert loaded == []


# A command of each kind that prints a report: a fit report, and an event count per threshold.
_REPORTS = {"analyze": ["analyze", "--bootstrap", "3"], "events": ["events", "--thresholds", "2,4,6,8"]}


@pytest.mark.parametrize("closed", ["after the first line", "before the first line"])
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("command", sorted(_REPORTS))
def test_a_closed_stdout_ends_the_report_not_the_run(command, unbuffered, closed, daily_csv, tmp_path):
    # The reader of stdout goes away: the run still writes every file, exits
    # by its usual rule and prints nothing to stderr.  A reader that reads
    # one line and closes may close after the last write; one closed before
    # the process starts always meets the first line's flush.
    argv = [*_REPORTS[command], "--input", daily_csv]
    want_out = io.StringIO()
    with contextlib.redirect_stdout(want_out):
        want_rc = main([*argv, "--out", str(tmp_path / "open")])
    src = os.path.dirname(os.path.dirname(volrelax.__file__))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env.update({"PYTHONPATH": src, **({"PYTHONUNBUFFERED": "1"} if unbuffered else {})})
    read_end, write_end = os.pipe()
    if closed == "before the first line":
        os.close(read_end)
    proc = subprocess.Popen(
        [sys.executable, "-m", "volrelax", *argv, "--out", str(tmp_path / "closed")],
        stdout=write_end, stderr=subprocess.PIPE, env=env,
    )
    os.close(write_end)
    if closed == "after the first line":
        with os.fdopen(read_end, "rb") as reader:
            assert reader.readline().decode() == want_out.getvalue().splitlines(keepends=True)[0]
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=300) == want_rc
    assert err == b""
    assert _dir_snapshot(tmp_path / "closed") == _dir_snapshot(tmp_path / "open")


# The input fuzz: analyze, omori, pattern and events on small CSVs of eight
# kinds, with each kind of label file, config file and --out target, and any
# subset of the command's options, each with an edge value.
_FUZZ_LABELS = {
    "valid": "# matched or not\n{dates}",
    "bom": "\ufeff{dates}",
    "not utf-8": "{dates}1999-01-04,exogenous,caf\udce9\n",
    "unmatched": "1962-05-29,exogenous\n1962-05-30,endogenous\n",
}
_FUZZ_CONFIGS = {
    "bom": "\ufeff# run\nseed = 3\n",
    "not utf-8": "seed = 3\n# r\udce9sum\udce9\n",
    "unknown key": "seed = 3\nverbosity = 11\n",
}
# Typical values of each option that takes a number or a cadence; an option
# with choices takes each of them.  The fuzz also tries 0, -1, 1, nan and text.
_FUZZ_TYPICAL = {
    "cadence": ("1min", "5min", "daily"), "slots_per_day": ("30",), "thresholds": ("2,4",),
    "max_lag": ("40",), "fit_min": ("3",), "fit_max": ("30",), "bootstrap": ("3",), "seed": ("7",),
    "min_separation": ("3",), "main_threshold": ("6",), "z1_thresholds": ("2,3",),
}


def _fuzz_values(option):
    """A flag's strategy (``None``: no value), or an option's edge values."""
    if option.conv is cli._bool:
        return st.none()
    typical = option.choices or _FUZZ_TYPICAL[option.key]
    return st.sampled_from(["0", "-1", "1", *typical, "nan", "ten"])


# Every option of the run commands but the files the fuzz draws on its own.
_FUZZ_VALUES = {
    o.key: _fuzz_values(o) for o in cli._OPTIONS
    if set(o.commands) & set(cli._RUN) and o.key not in ("input", "out", "config", "labels")
}
# A few options at a time, so that most runs get past the option checks.
_FUZZ_OPTIONS = st.lists(st.sampled_from(sorted(_FUZZ_VALUES)), unique=True, max_size=4).flatmap(
    lambda keys: st.fixed_dictionaries({key: _FUZZ_VALUES[key] for key in keys})
)
# Values that keep a run small where the fuzz draws none.
_FUZZ_BASE = {
    "thresholds": "4", "max_lag": "40", "fit_min": "2", "fit_max": "30", "tau": "zero",
    "main_threshold": "6", "z1_thresholds": "2,3",
}
# The start of the name of a file each command writes when it exits 0 or 3.
_FUZZ_WRITES = {"analyze": "fits.tsv", "omori": "fits.tsv", "pattern": "pattern.tsv", "events": "events_z"}


def _write_csv(path, stamps, prices):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("timestamp,price\n")
        fh.writelines(f"{t},{p!r}\n" for t, p in zip(stamps, prices.tolist()))


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """Small CSVs of each kind, each with ten of its dates as label lines."""
    root = tmp_path_factory.mktemp("fuzz")
    made = {}
    for name, argv in (
        ("daily", ["--mode", "planted", "--n", "3000", "--seed", "2", "--shock-rate", "500"]),
        ("intraday", ["--mode", "modulated", "--n", "3000", "--slots-per-day", "30", "--seed", "2"]),
    ):
        made[name] = str(root / f"{name}.csv")
        assert main(["synth", *argv, "--out", made[name]]) == 0
    daily, intraday = (volrelax.read_price_csv(made[name]) for name in ("daily", "intraday"))
    days, px = daily.timestamps.astype("datetime64[D]"), daily.prices
    rng = np.random.default_rng(2)
    zeros, huge = px.copy(), px.copy()
    zeros[1000:1200] = zeros[999]  # a run of 200 zero returns
    huge[1500:] *= 1e6  # one return of ln(1e6)
    gaps = rng.random(len(intraday)) > 0.2
    gaps[300:330] = False  # and one whole day missing
    twice = np.insert(np.arange(px.size), 1500, 1499)  # one stamp written twice
    five = intraday.timestamps.astype("datetime64[D]") + np.timedelta64(9, "h")
    five = five + intraday.slot_index * np.timedelta64(5, "m")
    for name, stamps, prices in (
        ("gappy", intraday.timestamps[gaps], intraday.prices[gaps]),
        ("zero run", days, zeros),
        ("t-distributed", days, 100.0 * np.exp(np.cumsum(0.01 * rng.standard_t(3, px.size)))),
        ("huge return", days, huge),
        ("duplicate stamp", days[twice], px[twice]),
        ("5min", five, intraday.prices),
    ):
        made[name] = str(root / f"{name}.csv")
        unit = "D" if stamps.dtype == np.dtype("datetime64[D]") else "s"
        _write_csv(made[name], np.datetime_as_string(stamps, unit=unit), prices)
    inputs = {}
    for name, path in made.items():
        with open(path, encoding="utf-8") as fh:
            dates = sorted({line[:10] for line in fh})[::7][:10]
        inputs[name] = (path, "".join(f"{d},{('exogenous', 'endogenous')[i % 2]}\n" for i, d in enumerate(dates)))
    return inputs


def _fuzz_run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


_FUZZ_PLAIN = {"labels": None, "config": None, "out_kind": "new"}


@given(
    command=st.sampled_from(cli._RUN),
    data=st.sampled_from(["daily", "intraday", "gappy", "zero run", "t-distributed", "huge return",
                          "duplicate stamp", "5min"]),
    labels=st.sampled_from([None, *_FUZZ_LABELS]),
    config=st.sampled_from([None, *_FUZZ_CONFIGS]),
    out_kind=st.sampled_from(["new", "directory", "file"]),
    options=_FUZZ_OPTIONS,
)
# Two inputs that once escaped main as tracebacks: a negative seed reaching
# numpy, and a zero slot count on daily dates declared intraday.
@example(command="analyze", data="daily", options={"seed": "-1", "surrogate": "shuffle"}, **_FUZZ_PLAIN)
@example(command="events", data="daily", options={"cadence": "1min", "slots_per_day": "0"}, **_FUZZ_PLAIN)
@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_input_files_give_a_tree_or_one_error_line(
    fuzz_inputs, tmp_path_factory, command, data, labels, config, out_kind, options
):
    root = tmp_path_factory.mktemp("case")
    csv, dates = fuzz_inputs[data]
    argv = [command, "--input", csv]
    takes = {o.key for o in cli._OPTIONS if command in o.commands}
    for key, value in {**_FUZZ_BASE, **options}.items():
        if key in takes:
            flag = "--" + key.replace("_", "-")
            argv += [flag] if value is None else [flag, value]
    files = {}
    if labels is not None and "labels" in takes:
        files[root / "labels.csv"] = _FUZZ_LABELS[labels].format(dates=dates)
        argv += ["--labels", str(root / "labels.csv")]
    if config is not None:
        files[root / "run.cfg"] = _FUZZ_CONFIGS[config]
        argv += ["--config", str(root / "run.cfg")]
    for path, text in files.items():
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
    out = root / "out"
    if out_kind == "directory":
        out.mkdir()
        (out / "stale.txt").write_text("left alone")
    elif out_kind == "file":
        out.write_text("left alone")

    rc, stdout, stderr = _fuzz_run([*argv, "--out", str(out)])
    event(f"{command} exit {rc}")
    assert rc in (0, 1, 2, 3)
    lines = stderr.splitlines()
    assert all(line.startswith("warning: label date ") for line in lines[: len(lines) - (rc in (1, 2))])
    if rc in (1, 2):
        assert not lines[-1].startswith("warning:"), stderr
        if rc == 1 and out_kind == "new":
            assert not out.exists()
        return
    written = sorted(os.listdir(out))
    assert any(name.startswith(_FUZZ_WRITES[command]) for name in written), written
    if command in ("analyze", "omori"):
        # Exit 3 exactly when a fit failed: a row is a marker, or a bootstrapped row has no stderr.
        boot = command == "analyze" and options.get("bootstrap", "0") != "0"
        rows = read_fit_tsv(str(out / "fits.tsv"))
        lost = any(r["method"].startswith("failed:") or (boot and np.isnan(r["p_stderr"])) for r in rows)
        assert (rc == 3) == lost, rows
    # A rerun into a fresh directory, with every BOM taken out of the files, writes the same tree.
    for path, text in files.items():
        path.write_bytes(text.removeprefix("\ufeff").encode("utf-8", "surrogateescape"))
    again = root / "again"
    rerun = _fuzz_run([*argv, "--out", str(again)])
    assert rerun == (rc, stdout.replace(str(out), str(again)), stderr)
    snapshot = _dir_snapshot(str(out))
    snapshot.pop("stale.txt", None)
    assert snapshot == _dir_snapshot(str(again))
