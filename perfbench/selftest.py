"""Self-test of the benchmark harness on tiny inputs (a few seconds).

    python3 perfbench/selftest.py

Runs every workload's command once untraced and once traced on shrunken
inputs, so each check path and the per-layer derivation run end to end.
Then it corrupts outputs, one per check, and requires each check to
fail.  Exits 0 when every step behaves, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import run
from tracing import COUNT_KEYS, PER_LAYER, SELF_KEYS, layer_metrics
from workloads import CheckFailed, Sizes, check, check_csv, prepare

TINY = Sizes(minute_n=100_000, minute_max_lag=100, daily_n=2_000, bootstrap=3)
SEED = 1


def _must_fail(label: str, job, code: int) -> None:
    try:
        check(job, code)
    except CheckFailed as exc:
        print(f"ok    {label}: {exc}")
        return
    raise AssertionError(f"{label}: the check passed a corrupted output")


def _rewrite(path: Path, old: str, new: str) -> None:
    text = path.read_text(encoding="utf-8")
    if old not in text:
        raise AssertionError(f"{path.name}: {old!r} not found")
    path.write_text(text.replace(old, new, 1), encoding="utf-8")


def _check_benchmark_json() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    def pairs(key: str) -> list[tuple[str, str]]:
        return [(m["name"], m["unit"]) for m in spec[key]]

    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        raise AssertionError("BENCHMARK.json workloads differ from run.WORKLOADS")
    if pairs("end_to_end") != list(run.END_TO_END) or pairs("per_layer") != list(PER_LAYER):
        raise AssertionError("BENCHMARK.json metrics differ from what run.py reports")
    print("ok    BENCHMARK.json lists the workloads and metrics run.py reports")


def _drive(name: str, work: Path):
    runner = run.Runner(work)
    try:
        job, _split, prices = prepare(name, work, SEED, TINY)
        check_csv(job.input, prices)
        untraced = runner.run(job)
        traced = runner.run(job, traced=True)
    finally:
        runner.close()
    m = layer_metrics(traced["trace"])
    if traced["trace"]["missing"]:
        raise AssertionError(f"{name}: untraced layer calls {traced['trace']['missing']}")
    if set(m) != {key for key, _unit in PER_LAYER}:
        raise AssertionError(f"{name}: per-layer keys differ from PER_LAYER")
    parts = sum(m[k] for k in SELF_KEYS)
    whole = m["cli.import_s"] + m["cli.main_s"]
    if abs(parts - whole) > 1e-6:
        raise AssertionError(f"{name}: self times add to {parts}, import + main is {whole}")
    counts = {k: m[k] for k in COUNT_KEYS}
    print(f"ok    {name}: {runner.attempted} results checked, traced counts {json.dumps(counts)}")
    return job, [traced, untraced], prices


def main() -> int:
    if not (run.SRC / "volrelax" / "__init__.py").is_file():
        print(f"error: no volrelax sources at {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    work = run.ROOT / "perfbench" / "_work" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    try:
        _check_benchmark_json()
        minute, _, prices = _drive("minute_analyze", work / "minute")
        daily, runs, _ = _drive("daily_bootstrap", work / "daily")

        again = json.loads(json.dumps(runs[0]))
        again["trace"]["nfev"] += 1
        try:
            run._per_layer([runs[0], again, runs[1]], {})
        except run.CountsDiffer as exc:
            print(f"ok    daily_bootstrap nfev repeat: {exc}")
        else:
            raise AssertionError("traced runs with different nfev were accepted")

        _rewrite(minute.out / "config.echo", "fit_min = 2", "fit_min = 3")
        _must_fail("minute_analyze digest differs between runs", minute, 0)
        minute.digest = None
        _must_fail("minute_analyze exit code", minute, 3)
        (minute.out / "pattern.tsv").unlink()
        _must_fail("minute_analyze file set", minute, 0)
        minute.out.joinpath("pattern.tsv").write_text("", encoding="utf-8")
        fits = minute.out / "fits.tsv"
        row6 = next(line for line in fits.read_text().splitlines() if line.startswith("-\t6.0\t"))
        _rewrite(fits, row6, row6.replace(row6.split("\t")[4], "0.9", 1))
        _must_fail("minute_analyze p_abs_err", minute, 0)

        daily.digest = None
        _must_fail("daily_bootstrap exit code", daily, 2)
        lines = (daily.out / "fits.tsv").read_text().splitlines()
        (daily.out / "fits.tsv").write_text("\n".join(lines[:-1]) + "\n")
        _must_fail("daily_bootstrap row count", daily, 3)

        text = minute.input.read_text()
        last = text.rstrip("\n").rsplit(",", 1)[1]
        minute.input.write_text(text.replace(last, repr(float(last) * (1 + 1e-15)), 1))
        try:
            check_csv(minute.input, prices)
        except CheckFailed as exc:
            print(f"ok    input CSV read-back values: {exc}")
        else:
            raise AssertionError("input CSV read-back: a changed price was accepted")
    except AssertionError as exc:
        print(f"FAIL  {exc}")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
