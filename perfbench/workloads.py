"""The benchmark's workloads: inputs made from a seed, the ``volrelax``
command each input is given to, and the check each output must pass.

Inputs are written with ``volrelax.synth`` from the checkout under test,
so the time to make them (``setup_s``) moves with that layer.  The checks
read outputs with their own parsers, not with the library's readers.
"""

from __future__ import annotations

import hashlib
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

PLANTED_P = 0.3
P_TOLERANCE = 0.05  # criterion 05's tolerance on the recovered exponent
THRESHOLDS = (2.0, 4.0, 6.0, 8.0)
FIT_COLUMNS = (
    "side", "zeta_multiple", "origin_filter", "sign_filter", "p", "p_stderr",
    "tau", "A", "t_min", "t_max", "method", "rms_log_residual",
)


class CheckFailed(Exception):
    """An output did not pass its workload's check."""


@dataclass(frozen=True)
class Sizes:
    """Input sizes; ``FULL`` is the benchmark, the self-test shrinks them."""

    minute_n: int = 1_000_000
    minute_max_lag: int = 1000
    daily_n: int = 12_500
    bootstrap: int = 20


FULL = Sizes()
# The daily series is always generator seed 1 (the one the workload was
# sized on); the run seed drives its bootstrap resampling.  One daily
# series' fit cost swings by more than 2x between generator seeds, far
# beyond any bound, while a fixed series keeps nfev within ~15%.
DAILY_SERIES_SEED = 1


@dataclass
class Job:
    """One workload's ``volrelax`` command on its generated input."""

    kind: str
    args: list[str]
    out: Path
    input: Path
    sizes: dict = field(default_factory=dict)
    digest: str | None = None  # output-tree digest of the first run


@dataclass
class Outcome:
    attempted: int
    failed: int
    p_abs_err: float | None = None


def u_shaped_factors(slots: int) -> np.ndarray:
    """High at the open and close, low over lunch: ``0.6 + 0.8 x^2``."""
    x = 2.0 * (np.arange(slots) + 0.5) / slots - 1.0
    return 0.6 + 0.8 * x * x


def _planted(synth, n: int, seed: int, slots: int, shock_rate: float):
    spec = synth.PlantedRelaxationSpec(
        n=n, sigma0=0.01, shock_rate=shock_rate, boost=3.0, p=PLANTED_P, tau=0.0,
        shock_magnitude=10.0, seed=seed, slots_per_day=slots,
    )
    return synth.gen_planted_relaxation(spec)


def prepare(name: str, work: Path, seed: int, sizes: Sizes = FULL):
    """Make the input of workload ``name`` under ``work``.

    Returns the job, the set-up's own layer split (``synth.*``) and the
    generated price series, which ``check_csv`` compares the file with.
    """
    from volrelax import synth

    work.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    if name == "minute_analyze":
        rets = _planted(synth, sizes.minute_n, seed, 390, 50.0)
        rets = synth.gen_intraday_modulated(rets, u_shaped_factors(390))
        args = ["analyze", "--thresholds", "2,4,6,8", "--max-lag", str(sizes.minute_max_lag),
                "--fit-min", "2", "--fit-max", "30", "--tau", "zero"]
    elif name == "daily_bootstrap":
        rets = _planted(synth, sizes.daily_n, DAILY_SERIES_SEED, 1, 500.0)
        args = ["analyze", "--bootstrap", str(sizes.bootstrap), "--seed", str(seed)]
    else:
        raise ValueError(f"unknown workload {name!r}")
    prices = synth.returns_to_prices(rets)
    t1 = time.perf_counter()
    path = work / f"{name}.csv"
    synth.write_price_csv(prices, str(path))
    t2 = time.perf_counter()
    rows = len(prices)
    # |R| is one float64 per return; computed, not measured.
    sz = {"rows": rows, "csv_bytes": path.stat().st_size, "abs_r_bytes_computed": 8 * (rows - 1)}
    out = work / f"out_{name}"
    job = Job(name, [*args, "--input", str(path), "--out", str(out)], out, path, sz)
    split = {"synth.generate_s": t1 - t0, "synth.write_s": t2 - t1, "synth.bytes": sz["csv_bytes"]}
    return job, split, prices


def clear_output(job: Job) -> None:
    if job.out.is_dir():
        shutil.rmtree(job.out)
    elif job.out.exists():
        job.out.unlink()


def tree_digest(path: Path) -> str:
    """sha256 over relative names and bytes of every file under ``path``."""
    h = hashlib.sha256()
    files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
    for f in files:
        h.update(str(f.relative_to(path) if path.is_dir() else f.name).encode() + b"\0")
        with open(f, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
        h.update(b"\0")
    return h.hexdigest()


def read_fits(path: Path) -> list[dict]:
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or tuple(lines[0].split("\t")) != FIT_COLUMNS:
        raise CheckFailed(f"{path.name}: unexpected header")
    rows = []
    for line in lines[1:]:
        parts = line.split("\t")
        if len(parts) != len(FIT_COLUMNS):
            raise CheckFailed(f"{path.name}: bad row {line!r}")
        row = dict(zip(FIT_COLUMNS, parts))
        for key in ("zeta_multiple", "p", "p_stderr", "A"):
            row[key] = float(row[key])
        rows.append(row)
    return rows


def row_failed(row: dict, bootstrap: bool) -> bool:
    """A marker row, a non-finite ``p`` or ``A``, or a missing stderr."""
    return (
        row["method"].startswith("failed:")
        or not (math.isfinite(row["p"]) and math.isfinite(row["A"]))
        or (bootstrap and not math.isfinite(row["p_stderr"]))
    )


def _check_rows(rows: list[dict]) -> None:
    got = sorted((r["zeta_multiple"], r["side"]) for r in rows)
    want = sorted((m, s) for m in THRESHOLDS for s in "-+")
    if got != want:
        raise CheckFailed(f"fits.tsv rows {got} != {want}")


def _check_minute(job: Job, code: int) -> Outcome:
    if code != 0:
        raise CheckFailed(f"exit code {code}, expected 0")
    names = {"config.echo", "fits.tsv", "signal_check.tsv", "pattern.tsv"}
    names |= {f"profile_z{m:g}.tsv" for m in THRESHOLDS}
    _check_files(job.out, names)
    rows = read_fits(job.out / "fits.tsv")
    _check_rows(rows)
    failed = sum(row_failed(r, bootstrap=False) for r in rows)
    if failed:
        raise CheckFailed(f"{failed} of {len(rows)} fits failed")
    err = max(abs(r["p"] - PLANTED_P) for r in rows if r["zeta_multiple"] == 6.0)
    if not err <= P_TOLERANCE:
        raise CheckFailed(f"p_abs_err {err} at z=6 exceeds {P_TOLERANCE}")
    return Outcome(len(rows), 0, err)


def _check_daily(job: Job, code: int) -> Outcome:
    if code not in (0, 3):
        raise CheckFailed(f"exit code {code}, expected 0 or 3")
    rows = read_fits(job.out / "fits.tsv")
    _check_rows(rows)
    # A threshold keeps its profile unless selection or profiling failed,
    # which marks both of its rows.
    profiled = sorted({r["zeta_multiple"] for r in rows if not r["method"].startswith("failed:")})
    names = {"config.echo", "fits.tsv", "signal_check.tsv"}
    names |= {f"profile_z{m:g}.tsv" for m in profiled}
    _check_files(job.out, names)
    signal = (job.out / "signal_check.tsv").read_text(encoding="utf-8").splitlines()
    if len(signal) != 1 + 2 * len(profiled):
        raise CheckFailed(f"signal_check.tsv has {len(signal) - 1} rows for {len(profiled)} profiles")
    # The CLI exits 3 exactly when a row is a marker or lost its bootstrap.
    reported = any(
        r["method"].startswith("failed:") or not math.isfinite(r["p_stderr"]) for r in rows
    )
    if (code == 3) != reported:
        raise CheckFailed(f"exit code {code} disagrees with the failure rows in fits.tsv")
    return Outcome(len(rows), sum(row_failed(r, bootstrap=True) for r in rows))


def check_csv(path: Path, prices) -> None:
    """The CSV ``write_price_csv`` wrote reads back as exactly ``prices``.

    Values are compared as floats, not bytes, so a writer may change
    the formatting.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        pairs = [line.rstrip("\n").split(",") for line in fh]
    if header != "timestamp,price\n":
        raise CheckFailed(f"{path.name}: unexpected header {header!r}")
    if len(pairs) != len(prices.prices):
        raise CheckFailed(f"{path.name}: {len(pairs)} rows, expected {len(prices.prices)}")
    stamps = np.array([p[0] for p in pairs], dtype="datetime64[s]")
    values = np.array([float(p[1]) for p in pairs])
    if not np.array_equal(stamps, prices.timestamps):
        raise CheckFailed(f"{path.name}: timestamps differ from the generated series")
    if not np.array_equal(values, prices.prices):
        bad = int(np.flatnonzero(values != prices.prices)[0])
        raise CheckFailed(
            f"{path.name}: price {bad} reads {values[bad]!r}, generated {prices.prices[bad]!r}"
        )


def _check_files(out: Path, names: set[str]) -> None:
    got = {p.name for p in out.iterdir()} if out.is_dir() else set()
    if got != names:
        raise CheckFailed(f"output files {sorted(got)}, expected {sorted(names)}")


_CHECKS = {
    "minute_analyze": _check_minute,
    "daily_bootstrap": _check_daily,
}


def check(job: Job, code: int) -> Outcome:
    """Check one run's output; every run of a job must give the same tree."""
    outcome = _CHECKS[job.kind](job, code)
    digest = tree_digest(job.out)
    if job.digest is None:
        job.digest = digest
    elif digest != job.digest:
        raise CheckFailed(f"{job.out.name}: output differs from the first run of this input")
    return outcome
