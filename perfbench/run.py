"""volrelax benchmark: time ``volrelax`` commands end to end or layer by layer.

Run from the root of a checkout (the program under test is ``src/volrelax``):

    python3 perfbench/run.py --workload minute_analyze --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload minute_analyze --seed 1 --seconds 45 --trace 1

Load model: a closed loop with one caller.  Each command is one child
process ``python3 -m volrelax ...``, started only after the previous one
exited, with numeric thread pools capped at the CPUs this process may
use.  Commands are forked by ``perfbench/spawner.py`` so that their peak
RSS is their own.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` runs
the same commands through ``perfbench/tracing.py`` and reports the
per-layer metrics.  Every output is checked; a failed check prints a
result with ``"correct": false`` and exits 1.  The last line of stdout
is the JSON result; the lines before it give the environment, the input
sizes and a readable summary.  See ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import COUNT_KEYS, PER_LAYER, SELF_KEYS, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("minute_analyze", "daily_bootstrap")
MIN_SETUPS = 3  # set-up is repeated at least this often, and for >= 3 s
END_TO_END = (("wall_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))
UNITS = dict(END_TO_END + PER_LAYER)


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _llc_bytes() -> int | None:
    """Size of the highest cache level of CPU 0, read from /sys."""
    best = None
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1:], 1)
        value = int(size.rstrip("KMG")) * scale
        if best is None or level > best[0]:
            best = (level, value)
    return None if best is None else best[1]


def _child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(_nproc())
    return env


class Runner:
    """Runs and checks a workload's commands, one at a time.

    Create it before loading numpy or any input: its spawner process is
    forked at that point, and every child's peak RSS starts from the
    spawner's.  Close it to stop the spawner.
    """

    def __init__(self, work: Path) -> None:
        self.work = work
        self.env = _child_env()
        self.attempted = 0
        self.failed = 0
        self.p_abs_err: list[float] = []
        self._spawner = subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def close(self) -> None:
        self._spawner.stdin.close()
        self._spawner.wait()
        self._spawner.stdout.close()

    def run(self, job, traced: bool = False) -> dict:
        """One child process; returns its wall time, peak RSS and trace."""
        from workloads import check, clear_output

        clear_output(job)
        self.work.mkdir(parents=True, exist_ok=True)
        trace_path = self.work / "trace.json"
        if traced:
            cmd = [sys.executable, str(ROOT / "perfbench" / "tracing.py"), str(trace_path)]
        else:
            cmd = [sys.executable, "-m", "volrelax"]
        request = {"cmd": [*cmd, *job.args], "env": self.env, "cwd": str(ROOT),
                   "log": str(self.work / "command.log")}
        self._spawner.stdin.write(json.dumps(request) + "\n")
        self._spawner.stdin.flush()
        record = json.loads(self._spawner.stdout.readline())
        try:
            outcome = check(job, record.pop("code"))
        except Exception:
            self.attempted += 1
            self.failed += 1
            raise
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        if outcome.p_abs_err is not None:
            self.p_abs_err.append(outcome.p_abs_err)
        if traced:
            record["trace"] = json.loads(trace_path.read_text(encoding="utf-8"))
        return record


def _setup(name: str, work: Path, seed: int):
    """Make the input several times; returns the job, median time, split."""
    from workloads import CheckFailed, check_csv, prepare, tree_digest

    times, splits, first = [], [], None
    while len(times) < MIN_SETUPS or sum(times) < 3.0:
        t0 = time.perf_counter()
        job, split, prices = prepare(name, work, seed)
        times.append(time.perf_counter() - t0)
        splits.append(split)
        made = tree_digest(job.input)
        if first is None:
            check_csv(job.input, prices)
            first = made
        elif made != first:
            raise CheckFailed("set-up made a different input from the same seed")
    split = {k: statistics.median(s[k] for s in splits) for k in splits[0]}
    return job, statistics.median(times), split, len(times)


def _measure(runner: Runner, job, seconds: float, traced: bool) -> list[dict]:
    """Runs until ``seconds`` have gone, at least two of the measured kind.

    A traced measurement interleaves untraced runs, the reference for
    the tracing overhead.
    """
    runs: list[dict] = []
    t0 = time.perf_counter()
    while len(runs) < 2 * (1 + traced) or time.perf_counter() - t0 < seconds:
        runs.append(runner.run(job, traced=traced and len(runs) % 2 == 0))
    return runs


def _end_to_end(runs: list[dict], setup_s: float) -> dict[str, float]:
    return {
        "wall_s": statistics.median(r["wall_s"] for r in runs),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "setup_s": setup_s,
    }


def _per_layer(runs: list[dict], split: dict) -> tuple[dict[str, float], list[str]]:
    """Median of each per-layer metric over the traced runs.

    Counts must repeat exactly on every traced run.
    """
    notes: set[str] = set()
    traced: list[dict[str, float]] = []
    for rec in runs:
        trace = rec.get("trace")
        if trace is None:
            continue
        m = layer_metrics(trace)
        m["trace.wall_s"] = rec["wall_s"]
        m["trace.unaccounted_s"] = rec["wall_s"] - trace["import_s"] - trace["main_s"]
        if traced and any(m[c] != traced[0][c] for c in COUNT_KEYS):
            diff = {c: (traced[0][c], m[c]) for c in COUNT_KEYS if m[c] != traced[0][c]}
            raise CountsDiffer(f"counts differ between traced runs: {diff}")
        if trace["missing"]:
            notes.add(f"not traced, missing from volrelax.cli: {trace['missing']}")
        traced.append(m)
    metrics = {key: statistics.median(m[key] for m in traced) for key in traced[0]}
    parts = " ".join(f"{sum(m[k] for k in SELF_KEYS):.3f}/{m['trace.wall_s']:.3f}" for m in traced)
    notes.add(f"import + layer self + cli.self / traced wall, per traced run (s): {parts}")
    for key, value in split.items():
        metrics[key] += value
    untraced = statistics.median(r["wall_s"] for r in runs if "trace" not in r)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - untraced
    return metrics, sorted(notes)


class CountsDiffer(Exception):
    """A count differs between traced runs of the same input."""


def _parse(argv: list[str]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    if not (SRC / "volrelax" / "__init__.py").is_file():
        print(f"error: no volrelax sources at {SRC}; run from a checkout", file=sys.stderr)
        return 2
    work = ROOT / "perfbench" / "_work" / f"{args.workload}-{os.getpid()}"
    runner = Runner(work)  # before numpy: see Runner
    try:
        return _benchmark(args, runner, work)
    finally:
        runner.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run's files are still there


def _benchmark(args: argparse.Namespace, runner: Runner, work: Path) -> int:
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy
    import volrelax

    if Path(volrelax.__file__).resolve().parent != (SRC / "volrelax").resolve():
        print(f"error: imported volrelax from {volrelax.__file__}", file=sys.stderr)
        return 2
    from workloads import CheckFailed

    env = {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": _nproc(), "llc_bytes": _llc_bytes(),
        "machine": platform.machine(), "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
    }
    print("env " + json.dumps(env), flush=True)
    correct, notes = True, []
    try:
        job, setup_s, split, n_setups = _setup(args.workload, work, args.seed)
        runs = _measure(runner, job, args.seconds, bool(args.trace))
        print("sizes " + json.dumps(job.sizes), flush=True)
        if args.trace:
            metrics, notes = _per_layer(runs, split)
        else:
            metrics = _end_to_end(runs, setup_s)
    except (CheckFailed, CountsDiffer) as exc:
        print(f"check failed: {exc}", flush=True)
        correct, metrics = False, {}
    if correct:
        print(f"{args.workload}: {len(runs)} timed commands, {n_setups} set-ups")
        walls = [r["wall_s"] for r in runs]
        print("  command walls (s): " + " ".join(
            f"{r['wall_s']:.3f}{'T' if 'trace' in r else ''}" for r in runs))
        print(f"  min {min(walls):.3f} s, median {statistics.median(walls):.3f} s")
        for note in notes:
            print(f"  {note}")
        for key, value in metrics.items():
            print(f"  {key:<34} {value:14.6f} {UNITS[key]}")
        print(f"  {'fail_frac':<34} {runner.failed / runner.attempted:14.6f} "
              f"({runner.failed}/{runner.attempted} results)")
        if runner.p_abs_err:
            print(f"  {'p_abs_err (z=6)':<34} {max(runner.p_abs_err):14.6f}")
    result = {
        "correct": correct,
        "attempted": max(runner.attempted, 1),
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
