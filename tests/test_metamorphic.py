"""Metamorphic relations through the CLI.

Each relation transforms the input (the CSV, a label file or the
thresholds) in a way whose effect on the output is known, runs
``analyze`` in-process on both, and checks the outputs against each
other, so no oracle is needed.  The input is the daily plant ``synth
--mode planted --n 12500 --shock-rate 500 --seed 1``, and for three
relations the 1-min plant ``synth --mode planted --slots-per-day 390
--n 40000 --shock-rate 500 --seed 1``, analysed with its intraday
pattern removed.  Every tolerance
below was fixed before the relation was first run: a fit turns a change
of about 1e-12 in a profile into about 1e-7 in ``p``, ``tau`` and ``A``,
so no fit tolerance is tighter than 1e-6.  The relations that change
only how the input is written (header, line ends, label order) or which
other thresholds run are byte for byte.
"""

import math
import os

import numpy as np
import pytest

from volrelax.cli import main

THRESHOLDS = "2,4,6"
PROFILE_ATOL = 1e-11  # times the largest finite magnitude of the column
FIT_RTOL = 1e-6


def _synth(tmp_path_factory, *options):
    """The stamps and price cells of ``synth --mode planted --shock-rate
    500 --seed 1`` with ``options``, as the generator wrote them."""
    path = tmp_path_factory.mktemp("plant") / "plant.csv"
    argv = ["synth", "--mode", "planted", "--shock-rate", "500", "--seed", "1", *options]
    assert main([*argv, "--out", str(path)]) == 0
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    assert header == "timestamp,price"
    stamps, prices = zip(*(row.split(",") for row in rows))
    return list(stamps), list(prices)


@pytest.fixture(scope="module")
def plant(tmp_path_factory):
    return _synth(tmp_path_factory, "--n", "12500")


@pytest.fixture(scope="module")
def minute_plant(tmp_path_factory):
    return _synth(tmp_path_factory, "--n", "40000", "--slots-per-day", "390")


def _write_csv(path, stamps, prices, header=True, eol="\n"):
    """The CSV of ``stamps`` and ``prices``, its lines ended by ``eol``."""
    text = "timestamp,price\n" * header + "".join(f"{s},{p}\n" for s, p in zip(stamps, prices))
    path.write_bytes(text.replace("\n", eol).encode())
    return str(path)


def _tree(out) -> dict[str, bytes]:
    return {name: (out / name).read_bytes() for name in sorted(os.listdir(out))}


def _analyze(tmp_path_factory, stamps, prices, thresholds=THRESHOLDS, *options, header=True, eol="\n"):
    """Run ``analyze`` with ``options`` on the CSV of ``stamps`` and
    ``prices`` (see :func:`_write_csv`); the exit code and the output tree."""
    work = tmp_path_factory.mktemp("run")
    csv = _write_csv(work / "in.csv", stamps, prices, header, eol)
    out = work / "out"
    rc = main(["analyze", "--input", csv, "--out", str(out), "--thresholds", thresholds, *options])
    return rc, _tree(out)


@pytest.fixture(scope="module")
def base(plant, tmp_path_factory):
    return _analyze(tmp_path_factory, *plant)


@pytest.fixture(scope="module")
def minute_base(minute_plant, tmp_path_factory):
    return _analyze(tmp_path_factory, *minute_plant)


def _rows(data: bytes) -> list[list[str]]:
    return [line.split("\t") for line in data.decode("utf-8").splitlines()]


def _same_number(a: str, b: str, rtol: float) -> bool:
    x, y = float(a), float(b)
    if not (math.isfinite(x) and math.isfinite(y)):
        return a == b  # non-finite values must be equal
    return abs(x - y) <= rtol * abs(x)


def _assert_same_tree(got, want, echoed):
    """Equal files, byte for byte, but for the lines of ``config.echo``,
    which differ exactly at the keys ``echoed``."""
    assert got.keys() == want.keys()
    for name in got:
        if name != "config.echo":
            assert got[name] == want[name], name
    echo, want_echo = (t["config.echo"].decode().splitlines() for t in (got, want))
    assert len(echo) == len(want_echo)
    assert [a.split(" = ")[0] for a, b in zip(echo, want_echo) if a != b] == echoed


def test_dates_shifted_a_week_give_the_same_tree(plant, base, tmp_path_factory):
    stamps, prices = plant
    shifted = np.datetime_as_string(np.array(stamps, dtype="datetime64[D]") + 7, unit="D")
    rc, tree = _analyze(tmp_path_factory, shifted.tolist(), prices)
    assert rc == base[0]
    assert tree.keys() == base[1].keys()
    for name in tree:
        if name != "config.echo":
            assert tree[name] == base[1][name], name
    echo, base_echo = (t["config.echo"].decode().splitlines() for t in (tree, base[1]))
    assert len(echo) == len(base_echo)
    differ = [a.split(" = ")[0] for a, b in zip(echo, base_echo) if a != b]
    assert differ == ["input"]


def test_minute_dates_shifted_a_week_give_the_same_tree(minute_plant, minute_base, tmp_path_factory):
    stamps, prices = minute_plant
    shifted = np.datetime_as_string(np.array(stamps, dtype="datetime64[s]") + np.timedelta64(7, "D"), unit="s")
    rc, tree = _analyze(tmp_path_factory, shifted.tolist(), prices)
    assert rc == minute_base[0]
    assert "pattern.tsv" in tree
    _assert_same_tree(tree, minute_base[1], ["input"])


def test_minute_crlf_copy_gives_the_same_tree(minute_plant, minute_base, tmp_path_factory):
    rc, tree = _analyze(tmp_path_factory, *minute_plant, eol="\r\n")
    assert rc == minute_base[0]
    _assert_same_tree(tree, minute_base[1], ["input"])


def test_minute_one_threshold_alone_gives_its_rows_of_the_full_run(minute_plant, minute_base, tmp_path_factory):
    _, tree = _analyze(tmp_path_factory, *minute_plant, thresholds="4")
    for name in ("profile_z4.tsv", "pattern.tsv"):
        assert tree[name] == minute_base[1][name], name
    for name, column in (("fits.tsv", 1), ("signal_check.tsv", 0)):
        full = minute_base[1][name].splitlines(keepends=True)
        z4 = [full[0]] + [line for line in full[1:] if line.split(b"\t")[column] == b"4.0"]
        assert len(z4) > 1
        assert tree[name].splitlines(keepends=True) == z4, name


def test_csv_without_its_header_gives_the_same_tree(plant, base, tmp_path_factory):
    rc, tree = _analyze(tmp_path_factory, *plant, header=False)
    assert rc == base[0]
    _assert_same_tree(tree, base[1], ["input"])


def test_crlf_copy_gives_the_same_tree(plant, base, tmp_path_factory):
    rc, tree = _analyze(tmp_path_factory, *plant, eol="\r\n")
    assert rc == base[0]
    _assert_same_tree(tree, base[1], ["input"])


def test_one_threshold_alone_gives_its_rows_of_the_full_run(plant, base, tmp_path_factory):
    _, tree = _analyze(tmp_path_factory, *plant, thresholds="4")
    assert tree["profile_z4.tsv"] == base[1]["profile_z4.tsv"]
    for name, column in (("fits.tsv", 1), ("signal_check.tsv", 0)):
        full = base[1][name].splitlines(keepends=True)
        z4 = [full[0]] + [line for line in full[1:] if line.split(b"\t")[column] == b"4.0"]
        assert len(z4) > 1
        assert tree[name].splitlines(keepends=True) == z4, name


def test_one_threshold_alone_gives_its_bootstrap_rows_of_the_full_run(plant, tmp_path_factory):
    # Exit codes differ: the full run's z6 bootstrap fails (BootstrapUnstable).
    options = ("--bootstrap", "5", "--seed", "1")
    _, full = _analyze(tmp_path_factory, *plant, THRESHOLDS, *options)
    _, alone = _analyze(tmp_path_factory, *plant, "4", *options)
    assert alone["profile_z4.tsv"] == full["profile_z4.tsv"]
    header, *rows = full["fits.tsv"].splitlines(keepends=True)
    z4 = [header] + [line for line in rows if line.split(b"\t")[1] == b"4.0"]
    assert len(z4) == 3
    assert all(math.isfinite(float(row.split(b"\t")[5])) for row in z4[1:])  # p_stderr
    assert alone["fits.tsv"].splitlines(keepends=True) == z4


def test_label_rows_in_another_order_give_the_same_tree(plant, tmp_path_factory):
    work = tmp_path_factory.mktemp("labels")
    csv = _write_csv(work / "in.csv", *plant)
    assert main(["events", "--input", csv, "--out", str(work / "events"), "--thresholds", "4,6"]) == 0
    z4, z6 = (
        [line.split("\t")[1][:10] for line in (work / "events" / name).read_text().splitlines()[1:]]
        for name in ("events_z4.tsv", "events_z6.tsv")
    )
    # Distinct dates, since a repeated date is last-wins: the z6 events
    # and every twelfth z4 event, their origins alternating.
    dates = z6 + [d for d in z4[::12] if d not in z6]
    assert len(set(dates)) == 12
    rows = [f"{d},{('endogenous', 'exogenous')[i % 2]}\n" for i, d in enumerate(dates)]
    trees = []
    for name, order in (("a.csv", rows), ("b.csv", rows[::-1])):
        (work / name).write_text("".join(order))
        out = work / f"out_{name}"
        argv = ["analyze", "--input", csv, "--out", str(out), "--thresholds", "4,6"]
        assert main([*argv, "--split", "origin", "--labels", str(work / name)]) == 3
        trees.append(_tree(out))
    assert {"profile_z6_endogenous.tsv", "profile_z6_exogenous.tsv"} <= trees[0].keys()
    _assert_same_tree(*trees, ["labels"])


@pytest.mark.parametrize("factor", [8.0, 3.0])
def test_prices_scaled_give_the_same_profiles_and_fits(plant, base, tmp_path_factory, factor):
    stamps, prices = plant
    rc, tree = _analyze(tmp_path_factory, stamps, [repr(float(p) * factor) for p in prices])
    assert rc == base[0]
    assert tree.keys() == base[1].keys()
    profiles = [name for name in tree if name.startswith("profile_")]
    assert profiles
    for name in profiles:
        got, want = np.array(_rows(tree[name])[1:], float), np.array(_rows(base[1][name])[1:], float)
        assert got.shape == want.shape
        for col in range(want.shape[1]):
            g, w = got[:, col], want[:, col]
            finite = np.isfinite(w)
            assert np.array_equal(g[~finite], w[~finite], equal_nan=True), (name, col)
            scale = np.max(np.abs(w[finite]), initial=0.0)
            assert np.all(np.abs(g[finite] - w[finite]) <= PROFILE_ATOL * scale), (name, col)
    got, want = _rows(tree["fits.tsv"]), _rows(base[1]["fits.tsv"])
    assert got[0] == want[0] and len(got) == len(want)
    header = want[0]
    for g_row, w_row in zip(got[1:], want[1:]):
        for key, g, w in zip(header, g_row, w_row):
            if key in ("p", "tau", "A", "rms_log_residual"):
                assert _same_number(g, w, FIT_RTOL), (key, g, w)
            elif key != "p_stderr":
                assert g == w, (key, g, w)


def test_prices_reversed_swap_the_sides(plant, base, tmp_path_factory):
    stamps, prices = plant
    rc, tree = _analyze(tmp_path_factory, stamps, prices[::-1])
    assert rc == base[0]
    got, want = _rows(tree["fits.tsv"]), _rows(base[1]["fits.tsv"])
    assert got[0] == want[0] and len(got) == len(want)
    header = want[0]
    side, p, method = (header.index(key) for key in ("side", "p", "method"))
    for k in range(1, len(want), 2):  # each (threshold, split) has a "-" row, then a "+" row
        assert [want[k][side], want[k + 1][side]] == ["-", "+"]
        for g_row, w_row in ((got[k], want[k + 1]), (got[k + 1], want[k])):
            assert g_row[method] == w_row[method]
            assert _same_number(g_row[p], w_row[p], FIT_RTOL), (g_row, w_row)
