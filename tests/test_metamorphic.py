"""Metamorphic relations through the CLI.

Each relation transforms the input CSV in a way whose effect on the
output is known, runs ``analyze`` (no bootstrap) in-process on both, and
checks the outputs against each other, so no oracle is needed.  The
input is the daily plant ``synth --mode planted --n 12500 --shock-rate
500 --seed 1``.  Every tolerance below was fixed before the relation was
first run: a fit turns a change of about 1e-12 in a profile into about
1e-7 in ``p``, ``tau`` and ``A``, so no fit tolerance is tighter than 1e-6.
"""

import math
import os

import numpy as np
import pytest

from volrelax.cli import main

THRESHOLDS = "2,4,6"
PROFILE_ATOL = 1e-11  # times the largest finite magnitude of the column
FIT_RTOL = 1e-6


@pytest.fixture(scope="module")
def plant(tmp_path_factory):
    """The plant's stamps and price cells, as the generator wrote them."""
    path = tmp_path_factory.mktemp("plant") / "daily.csv"
    argv = ["synth", "--mode", "planted", "--n", "12500", "--shock-rate", "500", "--seed", "1"]
    assert main([*argv, "--out", str(path)]) == 0
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    assert header == "timestamp,price"
    stamps, prices = zip(*(row.split(",") for row in rows))
    return list(stamps), list(prices)


def _analyze(tmp_path_factory, stamps, prices, thresholds=THRESHOLDS):
    """Run ``analyze`` on the CSV of ``stamps`` and ``prices``; the exit code
    and the output tree as ``{name: bytes}``."""
    work = tmp_path_factory.mktemp("run")
    csv = work / "in.csv"
    csv.write_text("timestamp,price\n" + "".join(f"{s},{p}\n" for s, p in zip(stamps, prices)))
    out = work / "out"
    rc = main(["analyze", "--input", str(csv), "--out", str(out), "--thresholds", thresholds])
    return rc, {name: (out / name).read_bytes() for name in sorted(os.listdir(out))}


@pytest.fixture(scope="module")
def base(plant, tmp_path_factory):
    return _analyze(tmp_path_factory, *plant)


def _rows(data: bytes) -> list[list[str]]:
    return [line.split("\t") for line in data.decode("utf-8").splitlines()]


def _same_number(a: str, b: str, rtol: float) -> bool:
    x, y = float(a), float(b)
    if not (math.isfinite(x) and math.isfinite(y)):
        return a == b  # non-finite values must be equal
    return abs(x - y) <= rtol * abs(x)


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


def test_one_threshold_alone_gives_its_rows_of_the_full_run(plant, base, tmp_path_factory):
    _, tree = _analyze(tmp_path_factory, *plant, thresholds="4")
    assert tree["profile_z4.tsv"] == base[1]["profile_z4.tsv"]
    for name, column in (("fits.tsv", 1), ("signal_check.tsv", 0)):
        full = base[1][name].splitlines(keepends=True)
        z4 = [full[0]] + [line for line in full[1:] if line.split(b"\t")[column] == b"4.0"]
        assert len(z4) > 1
        assert tree[name].splitlines(keepends=True) == z4, name


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
