"""End-to-end CLI tests: exit codes, outputs, config layering, determinism."""

import filecmp
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import volrelax
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
    ]
    for argv in cases:
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        if argv[0] == "omori" and "--z1-thresholds" not in argv:
            assert "--main-threshold" in err, err


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


def test_data_errors_exit_2(tmp_path):
    out = str(tmp_path / "out")
    bad_row = tmp_path / "bad_row.csv"
    bad_row.write_text("2000-01-03,100.0\n2000-01-04\n")
    bad_price = tmp_path / "bad_price.csv"
    bad_price.write_text("2000-01-03,100.0\n2000-01-04,-5.0\n")
    short = tmp_path / "short.csv"
    short.write_text("2000-01-03,100.0\n")
    for path in (bad_row, bad_price, short):
        assert main(["analyze", "--input", str(path), "--out", out]) == 2, path


def test_input_that_is_not_utf8_is_a_data_error(tmp_path, capsys):
    path = tmp_path / "latin1.csv"
    # "\xa4" is the euro sign in Latin-9 and not UTF-8.
    path.write_bytes(b"timestamp,price\n2000-01-03,1\n2000-01-04,2 \xa4\n")
    assert main(["events", "--input", str(path), "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.err == "data error: MalformedRow: line 3: byte 0xa4 is not UTF-8\n"
    assert captured.out == ""


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


def test_synth_invalid_args_exit_1(tmp_path, capsys):
    out = str(tmp_path / "x.csv")
    assert main(["synth", "--out", out]) == 1  # missing mode
    assert main(["synth", "--mode", "iid"]) == 1  # missing out
    assert main(["synth", "--mode", "planted", "--p", "1.7", "--out", out]) == 1
    assert main(["synth", "--mode", "planted", "--shock-rate", "90000", "--out", out]) == 1
    missing = str(tmp_path / "missing.txt")
    capsys.readouterr()
    assert main(["synth", "--mode", "modulated", "--factors", missing, "--out", out]) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot read factors file {missing}:")


_WITHOUT_SCIPY = """
import sys
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
