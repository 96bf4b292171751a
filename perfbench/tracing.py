"""Span tracing of one ``volrelax`` command, from outside the library.

Run as a script, this file is the traced child process of the benchmark:

    PYTHONPATH=src python3 perfbench/tracing.py TRACE.json analyze --input ...

It times ``import volrelax.cli`` in the fresh interpreter, replaces the
layer functions that ``volrelax.cli`` and ``volrelax.fitting`` call by
span-recording wrappers (under the names those modules call them by),
runs ``cli.main(argv)`` in-process and writes the spans to TRACE.json
when ``main`` returns.  The pipeline that runs is the untraced one;
only the module attributes are swapped.

Imported, it turns such a trace file into the per-layer metrics
(``layer_metrics``).  It imports nothing from ``volrelax`` at module
level, so importing it does not distort ``cli.import_s``.
"""

from __future__ import annotations

import functools
import json
import math
import re
import sys
import time

# Layer functions wrapped in ``volrelax.cli``, as (layer, name).  Only the
# functions the benchmark's ``analyze`` commands reach are listed; the
# ``synth.*`` metrics come from the benchmark's own set-up.
CLI_CALLS = (
    ("series", "read_price_csv"),
    ("series", "log_returns"),
    ("series", "absolute_volatility"),
    ("series", "mean_volatility"),
    ("intraday", "estimate_pattern"),
    ("intraday", "remove_pattern"),
    ("intraday", "write_pattern_tsv"),
    ("events", "select_events"),
    ("events", "classify_sign"),
    ("events", "filter_events"),
    ("profiles", "remanent_profile"),
    ("profiles", "cumulative"),
    ("profiles", "write_profile_tsv"),
    ("fitting", "fit_cumulative"),
    ("fitting", "bootstrap_errors"),
    ("fitting", "write_fit_tsv"),
)

# Span name -> the per-layer time metric its self time is added to.
# Fits are split by context in ``layer_metrics`` (point fit vs replica).
SELF_METRIC = {
    "series.read_price_csv": "series.parse_s",
    "series.log_returns": "series.returns_s",
    "series.absolute_volatility": "series.returns_s",
    "series.mean_volatility": "series.returns_s",
    "intraday.estimate_pattern": "intraday.s",
    "intraday.remove_pattern": "intraday.s",
    "intraday.write_pattern_tsv": "intraday.s",
    "events.select_events": "events.select_s",
    "events.classify_sign": "events.select_s",
    "events.filter_events": "events.select_s",
    "profiles.remanent_profile": "profiles.profile_s",
    "profiles.cumulative": "profiles.cumulative_s",
    "profiles.write_profile_tsv": "profiles.write_s",
    "fitting.fit_cumulative": "fitting.fit_s",
    "fitting.bootstrap_errors": "fitting.bootstrap_self_s",
    "fitting.write_fit_tsv": "fitting.write_s",
}

# The metrics whose sum, with cli.import_s, is the traced process's
# import + main time: every span's self time lands in exactly one.
SELF_KEYS = tuple(sorted(set(SELF_METRIC.values()))) + (
    "fitting.bootstrap_fit_s", "cli.import_s", "cli.self_s",
)

# Every per-layer metric, in report order, with its unit.
PER_LAYER = (
    ("series.parse_s", "s"), ("series.rows", "count"), ("series.returns_s", "s"),
    ("intraday.s", "s"),
    ("events.select_s", "s"), ("events.n_events", "count"),
    ("profiles.profile_s", "s"), ("profiles.calls", "count"), ("profiles.cells", "count"),
    ("profiles.cumulative_s", "s"), ("profiles.write_s", "s"),
    ("fitting.fit_s", "s"), ("fitting.fits", "count"), ("fitting.fits_failed", "count"),
    ("fitting.fits_nonfinite", "count"), ("fitting.nfev", "count"),
    ("fitting.bootstrap_s", "s"), ("fitting.bootstrap_fit_s", "s"),
    ("fitting.bootstrap_self_s", "s"), ("fitting.bootstrap_replicas_failed", "count"),
    ("fitting.write_s", "s"),
    ("synth.generate_s", "s"), ("synth.write_s", "s"), ("synth.bytes", "bytes"),
    ("cli.import_s", "s"), ("cli.main_s", "s"), ("cli.self_s", "s"),
    ("trace.wall_s", "s"), ("trace.unaccounted_s", "s"), ("trace.overhead_s", "s"),
)
COUNT_KEYS = tuple(name for name, unit in PER_LAYER if unit != "s")

_UNSTABLE = re.compile(r"(\d+)/\d+ bootstrap replicas failed")


class Tracer:
    """In-memory span recorder for one single-threaded command."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.nfev = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "parent": self._stack[-1] if self._stack else None,
                "name": name,
                "start": time.perf_counter(),
            }
            self.spans.append(span)
            self._stack.append(span["id"])
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span["error"] = type(exc).__name__
                span["message"] = str(exc)
                raise
            finally:
                self._stack.pop()
                span["end"] = time.perf_counter()
            span.update(_describe(name, args, result))
            return result

        return traced

    def count_nfev(self, minimize):
        @functools.wraps(minimize)
        def counted(*args, **kwargs):
            res = minimize(*args, **kwargs)
            self.nfev += int(res.nfev)
            return res

        return counted


def _describe(name: str, args: tuple, result) -> dict:
    """Counts recorded at a layer boundary, from its arguments and result."""
    if name == "series.read_price_csv":
        return {"rows": len(result.prices)}
    if name == "events.select_events":
        return {"events": len(result)}
    if name == "profiles.remanent_profile":
        _vol, events, max_lag = args[:3]
        return {"cells": len(events) * (int(max_lag) + 1)}
    if name == "fitting.fit_cumulative":
        return {"nonfinite": not (math.isfinite(result.p) and math.isfinite(result.A))}
    if name == "fitting.bootstrap_errors":
        return {"replicas_failed": int(result.n_failed)}
    return {}


def install(tracer: Tracer, cli, fitting) -> list[str]:
    """Swap the layer calls of ``cli`` and ``fitting`` for traced ones.

    Returns the listed names ``cli`` no longer has, so that a renamed
    layer function shows up in the report instead of as a silent zero.
    """
    missing = []
    for layer, attr in CLI_CALLS:
        if hasattr(cli, attr):
            setattr(cli, attr, tracer.wrap(f"{layer}.{attr}", getattr(cli, attr)))
        else:
            missing.append(attr)
    # bootstrap_errors refits each replica through the module global.
    fitting.fit_cumulative = tracer.wrap("fitting.fit_cumulative", fitting.fit_cumulative)
    fitting.optimize.minimize = tracer.count_nfev(fitting.optimize.minimize)
    return missing


def _self_times(spans: list[dict]) -> dict[int, float]:
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one traced command, except the ``trace.*`` ones
    that need the process wall time."""
    spans = trace["spans"]
    own = _self_times(spans)
    by_id = {s["id"]: s for s in spans}
    m: dict[str, float] = {name: 0 if unit != "s" else 0.0 for name, unit in PER_LAYER}
    for s in spans:
        name, dur = s["name"], s["end"] - s["start"]
        key = SELF_METRIC[name]
        if name == "fitting.fit_cumulative":
            m["fitting.fits"] += 1
            m["fitting.fits_failed"] += "error" in s
            m["fitting.fits_nonfinite"] += bool(s.get("nonfinite"))
            parent = by_id.get(s["parent"])
            if parent is not None and parent["name"] == "fitting.bootstrap_errors":
                key = "fitting.bootstrap_fit_s"
        elif name == "fitting.bootstrap_errors":
            m["fitting.bootstrap_s"] += dur
            if "error" in s:
                hit = _UNSTABLE.search(s["message"])
                m["fitting.bootstrap_replicas_failed"] += int(hit.group(1)) if hit else 0
            else:
                m["fitting.bootstrap_replicas_failed"] += s["replicas_failed"]
        elif name == "profiles.remanent_profile":
            m["profiles.calls"] += 1
            m["profiles.cells"] += s.get("cells", 0)
        m[key] += own[s["id"]]
        m["series.rows"] += s.get("rows", 0)
        m["events.n_events"] += s.get("events", 0)
    top = sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
    m["fitting.nfev"] = trace["nfev"]
    m["cli.import_s"] = trace["import_s"]
    m["cli.main_s"] = trace["main_s"]
    m["cli.self_s"] = trace["main_s"] - top
    return m


def _main(argv: list[str]) -> int:
    out_path, args = argv[0], argv[1:]
    t0 = time.perf_counter()
    import volrelax.cli as cli
    import volrelax.fitting as fitting

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    missing = install(tracer, cli, fitting)
    t0 = time.perf_counter()
    code = cli.main(args)
    main_s = time.perf_counter() - t0
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "import_s": import_s,
                "main_s": main_s,
                "nfev": tracer.nfev,
                "missing": missing,
                "spans": tracer.spans,
            },
            fh,
        )
    return code


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
