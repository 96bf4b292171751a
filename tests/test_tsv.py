"""Output tables: exact writer bytes and reader errors."""

from unittest import mock

import pytest

from volrelax import tsv
from volrelax.errors import MalformedRow, NoEvents
from volrelax.fitting import PowerLawFit, fit_report_row, read_fit_tsv, write_fit_tsv
from volrelax.intraday import IntradayPattern, read_pattern_tsv, write_pattern_tsv
from volrelax.profiles import (
    ConditionedProfile,
    CumulativeProfile,
    OmoriProfile,
    read_omori_tsv,
    read_profile_tsv,
    write_omori_tsv,
    write_profile_tsv,
)

NAN, INF = float("nan"), float("inf")

PROFILE_HEADER = "t\tv_minus\tv_plus\tV_minus\tV_plus\tcount_minus\tcount_plus"
FIT_HEADER = (
    "side\tzeta_multiple\torigin_filter\tsign_filter\tp\tp_stderr\ttau\tA\tt_min\tt_max"
    "\tmethod\trms_log_residual"
)


def _cum():
    profile = ConditionedProfile(
        max_lag=2,
        v_minus=[1.0, NAN, 0.1],
        v_plus=[1.0, INF, -INF],
        counts_minus=[3, 2, 0],
        counts_plus=[3, 3, 1],
        Z=0.5,
        sigma=0.01,
        n_events=3,
    )
    return CumulativeProfile(profile=profile, V_minus=[0.0, NAN, 1 / 3], V_plus=[0.0, INF, NAN])


def _read(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return fh.read()


def test_profile_and_omori_writer_bytes(tmp_path):
    cum = _cum()
    path = str(tmp_path / "profile.tsv")
    write_profile_tsv(cum, path)
    rows = (
        "0\t1.0\t1.0\t0.0\t0.0\t3\t3\n"
        "1\tnan\tinf\tnan\tinf\t2\t3\n"
        "2\t0.1\t-inf\t0.3333333333333333\tnan\t0\t1\n"
    )
    assert _read(path) == PROFILE_HEADER + "\n" + rows

    omori = OmoriProfile(
        max_lag=2, N_minus=[0.0, 0.5, 1.25], N_plus=[0.0, 1.0, NAN], zeta_main=0.12,
        zeta1=0.04, zeta_main_multiple=12.0, zeta1_multiple=4.0, n_mainshocks=3,
    )
    path = str(tmp_path / "omori.tsv")
    write_omori_tsv(cum, omori, path)
    extra = ["\t0.0\t0.0", "\t0.5\t1.0", "\t1.25\tnan"]
    expected = "".join(line + tail + "\n" for line, tail in zip(rows.splitlines(), extra))
    assert _read(path) == PROFILE_HEADER + "\tN_minus\tN_plus\n" + expected


def test_fit_writer_bytes(tmp_path):
    fit = PowerLawFit(A=INF, p=-INF, tau=0.0, fit_range=(2, 30), rms_log_residual=0.25)
    rows = [
        fit_report_row("-", 4, "all", "crash", fit),
        fit_report_row("+", 4.5, "exogenous", "all", NoEvents("no events")),
    ]
    path = str(tmp_path / "fits.tsv")
    write_fit_tsv(rows, path)
    assert _read(path) == (
        FIT_HEADER + "\n"
        "-\t4.0\tall\tcrash\t-inf\tnan\t0.0\tinf\t2\t30\tfull_fit\t0.25\n"
        "+\t4.5\texogenous\tall\tnan\tnan\tnan\tnan\t0\t0\tfailed:NoEvents\tnan\n"
    )


def test_pattern_writer_bytes(tmp_path):
    path = str(tmp_path / "pattern.tsv")
    write_pattern_tsv(IntradayPattern(factors=[1 / 3, 5 / 3], slots_per_day=2), path)
    assert _read(path) == "slot\tfactor\n0\t0.3333333333333333\n1\t1.6666666666666667\n"


# reader, header, one valid row
_READERS = {
    "profile": (read_profile_tsv, PROFILE_HEADER, "0\t1.0\t1.0\t0.0\t0.0\t3\t3"),
    "omori": (
        read_omori_tsv,
        PROFILE_HEADER + "\tN_minus\tN_plus",
        "0\t1.0\t1.0\t0.0\t0.0\t3\t3\t0.0\t0.0",
    ),
    "fit": (read_fit_tsv, FIT_HEADER, "+\t4.0\tall\tall\tnan\tnan\tnan\tnan\t0\t0\tfailed:X\tnan"),
    "pattern": (read_pattern_tsv, "slot\tfactor", "0\t1.0"),
}


def _replace_field(row, k, value):
    cells = row.split("\t")
    cells[k] = value
    return "\t".join(cells)


@pytest.mark.parametrize("name", sorted(_READERS))
def test_readers_reject_malformed_files_naming_the_line(name, tmp_path):
    reader, header, row = _READERS[name]
    path = tmp_path / f"{name}.tsv"
    path.write_text(f"{header}\n{row}\n")
    reader(str(path))  # the valid file reads
    short = "\t".join(row.split("\t")[:-1])
    bad = [
        (1, ""),
        (1, f"wrong\theader\n{row}\n"),
        (3, f"{header}\n{row}\n{short}\n"),
        (3, f"{header}\n{row}\n{_replace_field(row, 1, 'oops')}\n"),
        (2, f"{header}\n{row}\t1\n"),
    ]
    if name != "fit":  # the fit report's first column is text
        bad.append((2, f"{header}\n{_replace_field(row, 0, '1.5')}\n"))
    for line, text in bad:
        path.write_text(text)
        with pytest.raises(MalformedRow) as info:
            reader(str(path))
        assert str(info.value).startswith(f"{path} line {line}: "), (text, str(info.value))


@pytest.mark.parametrize("char", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
def test_text_cell_holding_a_character_text_mode_does_not_end_a_line_at(char, tmp_path):
    path = str(tmp_path / "table.tsv")
    tsv.write_tsv(path, ("name", "x"), [[f"a{char}b", "c"], [1.0, 2.0]])
    assert tsv.read_tsv(path, {"name": str, "x": float}) == {"name": [f"a{char}b", "c"], "x": [1.0, 2.0]}


def test_table_read_partway_names_the_line_from_where_the_read_began(tmp_path):
    # read_tsv decodes as the input readers do.  Handed a file with its first
    # line read, it names a bad byte on file line 1501 as line 1500 of what it
    # read; counted in the bytes the text stream's decoder held, it was line 468.
    rows = ["slot\tfactor"] + [f"{i}\t1.0" for i in range(2000)]
    rows[1500] += "\udcff"
    path = tmp_path / "pattern.tsv"
    path.write_bytes("\n".join(rows).encode("utf-8", "surrogateescape"))

    def open_partway(*args, **kwargs):
        fh = open(*args, **kwargs)
        fh.readline()
        return fh

    with mock.patch.object(tsv, "open", open_partway, create=True):
        with pytest.raises(MalformedRow, match=rf"^{path} line 1500: byte 0xff is not UTF-8$"):
            read_pattern_tsv(str(path))
