"""Command-line pipeline: analyze / omori / pattern / events / synth.

A run reads one price CSV, extracts returns and volatility, optionally
removes the intraday pattern, selects large-volatility events per
threshold, and writes plot-ready TSVs plus a fit report into the output
directory.  Runs are fully deterministic: identical configuration and
input produce byte-identical output directories.

Every option is declared once, in ``_OPTIONS``: its key, converter,
default, help and the subcommands that take it.  The table builds the
argument parser, reads ``--config`` files (flat ``key = value`` lines,
flags win), fills the checked :class:`RunConfig` whose attributes are
the option keys, and writes ``config.echo`` into the output directory.
That file records the effective configuration and is itself a valid
config file.  ``synth`` writes no output directory and no echo.

Exit codes: 0 success, 1 invalid configuration or a file it names that
cannot be used, 2 data error, 3 a fit failed: a ``fits.tsv`` row is a
``failed:`` marker, or the run took ``--bootstrap`` and a row's ``p_stderr``
is NaN (partial outputs are kept).  Exits 1 and 2 print one error line.
A stdout whose reader has gone ends the report, not the run.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import warnings
from dataclasses import dataclass, fields, replace
from typing import Callable, Iterator

import numpy as np

from .errors import DataError, FitError, LabelDateUnmatched, MalformedRow, SlotMismatch

# The benchmark tracer (perfbench/tracing.py) swaps several of these names
# in this module to time each layer, so call them through these globals.
from .events import (
    EventSet, apply_labels, classify_sign, decluster, filter_events, load_packaged_labels,
    read_label_file, select_events, sign_label,
)
from .fitting import bootstrap_errors, fit_cumulative, fit_offset_power_law, fit_report_row, write_fit_tsv
from .intraday import estimate_pattern, remove_pattern, write_pattern_tsv
from .profiles import cumulative, omori_counts, remanent_profile, write_omori_tsv, write_profile_tsv
from .series import (
    _read_lines, absolute_volatility, log_returns, mean_volatility, read_price_csv,
    shuffle_surrogate,
)
from .synth import (
    PlantedRelaxationSpec, gen_iid_gaussian, gen_intraday_modulated, gen_planted_relaxation,
    returns_to_prices, write_price_csv,
)
from .tsv import _open_for_rewrite, write_tsv

__all__ = ["main", "RunConfig"]

# A profile is flagged zero_consistent when |mean v(t)| over the lags 1..min(100, max_lag)
# that hold a value is below this bound, which is fixed: it ignores the event count.
_NULL_BOUND = 0.01


class _ConfigError(Exception):
    """Invalid configuration; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        raise _ConfigError(message)


class RunConfig(argparse.Namespace):
    """Effective configuration of one run: ``command`` plus one attribute
    per option key of that subcommand (defaults < config file < flags)."""


# ---------------------------------------------------------------------------
# options


def _bool(s: str) -> bool:
    low = s.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(s)


def _floats(s: str) -> tuple[float, ...]:
    return tuple(float(part) for part in s.split(",") if part.strip())


_RUN = ("analyze", "omori", "pattern", "events")
_ALL = (*_RUN, "synth")
_SELECT = ("analyze", "events")  # select events per threshold
_FIT = ("analyze", "omori")  # compute profiles and fit them


@dataclass(frozen=True)
class _Option:
    """``--key`` on the command line, ``key = value`` in a config file."""

    key: str
    conv: Callable[[str], object]
    default: object = None
    help: str | None = None
    commands: tuple[str, ...] = _RUN
    choices: tuple[str, ...] | None = None
    required: bool = False
    minimum: int | None = None

    @property
    def flag(self) -> str:
        return "--" + self.key.replace("_", "-")

    def convert(self, raw: str):
        if self.choices is not None and raw not in self.choices:
            raise _ConfigError(f"{self.flag}: expected one of {self.choices}, got {raw!r}")
        try:
            return self.conv(raw)
        except ValueError:
            raise _ConfigError(f"{self.flag}: invalid value {raw!r}") from None


# Order is --help order.  ``config`` names the file itself, so it is
# neither a config-file key nor echoed.
_OPTIONS = (
    _Option("input", str, help="price CSV (timestamp,price)", required=True),
    _Option("cadence", str, None, "check: the cadence the stamps must give (1min, 5min, daily, ...)"),
    _Option("slots_per_day", int, None, "check: the times of day the stamps must give", minimum=1),
    _Option("thresholds", _floats, (2.0, 4.0, 6.0, 8.0), "comma list of sigma multiples (default 2,4,6,8)", _SELECT),
    _Option("no_intraday_removal", _bool, False, "keep the raw intraday pattern"),
    _Option("labels", str, None, "label file, or builtin:<name>", _SELECT),
    _Option("max_lag", int, None, "profile horizon T (default 1000 intraday, 100 daily)", _FIT, minimum=1),
    _Option("fit_min", int, 5, "first lag used in fits (default 5)", _FIT, minimum=1),
    _Option("fit_max", int, None, "last lag used in fits (default: max lag)", _FIT),
    _Option("tau", str, "free", "fit the offset or pin it to 0", _FIT, ("free", "zero")),
    _Option("bootstrap", int, 0, "bootstrap replicas for p stderr (0 = off)", ("analyze",), minimum=0),
    _Option("seed", int, 0, "seed for surrogate/bootstrap (default 0)", minimum=0),
    _Option("surrogate", str, "none", "replace returns by a shuffled surrogate", choices=("none", "shuffle")),
    _Option("split", str, "all", "also compute crash/rally or endo/exo splits", ("analyze",), ("all", "sign", "origin")),
    _Option("out", str, None, "output directory", required=True),
    _Option("min_separation", int, 0, "decluster events closer than this many steps", _SELECT, minimum=0),
    _Option("drop_session_crossing", _bool, False, "drop overnight returns"),
    _Option("mode", str, commands=("synth",), choices=("iid", "planted", "modulated"), required=True),
    _Option("n", int, 100_000, "number of returns (default 100000)", ("synth",)),
    _Option("sigma0", float, 0.01, "mean |return| scale (default 0.01)", ("synth",)),
    _Option("seed", int, 0, commands=("synth",), minimum=0),
    _Option("slots_per_day", int, 1, commands=("synth",), minimum=1),
    _Option("shock_rate", float, 50.0, "expected shocks per 1e5 steps", ("synth",)),
    _Option("boost", float, 3.0, "relaxation kernel amplitude B", ("synth",)),
    _Option("p", float, 0.3, "planted exponent", ("synth",)),
    _Option("tau", float, 0.0, "planted offset", ("synth",)),
    _Option("shock_magnitude", float, 10.0, "shock size in sigma0 units", ("synth",)),
    _Option("boost_before", float, None, "override B on the approach side", ("synth",)),
    _Option("p_before", float, None, "override p on the approach side", ("synth",)),
    _Option("tau_before", float, None, "override tau on the approach side", ("synth",)),
    _Option("factors", str, None, "file with one slot factor per line (modulated mode)", ("synth",)),
    _Option("out", str, None, "output CSV path", ("synth",), required=True),
    _Option("config", str, None, "flat key=value config file (flags win)", _ALL),
    _Option("main_threshold", float, 12.0, "mainshock sigma multiple (default 12)", ("omori",)),
    _Option("z1_thresholds", _floats, (2.0, 3.0, 4.0, 5.0), "aftershock sigma multiples (default 2,3,4,5)", ("omori",)),
)


def _read_file(kind: str, path: str) -> list[str]:
    """The lines of a config or factors file; one that cannot be read is exit 1."""
    try:
        with open(path, "rb") as fh:
            return _read_lines(fh)
    except (OSError, MalformedRow) as exc:
        raise _ConfigError(f"cannot read {kind} file {path}: {exc}") from None


def _read_config_file(path: str) -> dict[str, str]:
    pairs: dict[str, str] = {}
    for lineno, line in enumerate(_read_file("config", path), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise _ConfigError(f"{path} line {lineno}: expected 'key = value'")
        key, value = stripped.split("=", 1)
        pairs[key.strip().replace("-", "_")] = value.strip()
    return pairs


def _run_config(args: argparse.Namespace) -> RunConfig:
    """Overlay hard defaults < config file < explicit flags, then check."""
    command = args.command
    file_pairs = _read_config_file(args.config) if args.config else {}
    file_cmd = file_pairs.pop("command", command)
    if file_cmd != command:
        raise _ConfigError(f"config file is for command {file_cmd!r}, not {command!r}")
    options = [o for o in _OPTIONS if command in o.commands and o.key != "config"]
    unknown = sorted(set(file_pairs) - {o.key for o in options})
    if unknown:
        raise _ConfigError(f"unknown config keys: {', '.join(unknown)}")
    c = RunConfig(command=command)
    for o in options:
        raw = getattr(args, o.key)
        if raw is None:
            raw = file_pairs.get(o.key) or None
        value = o.default if raw is None else o.convert(raw)
        if o.required and not value:
            raise _ConfigError(f"{o.flag} is required")
        if o.minimum is not None and value is not None and value < o.minimum:
            raise _ConfigError(f"{o.flag} must be >= {o.minimum}")
        setattr(c, o.key, value)
    # Each check runs only for the commands that take its options.
    t = getattr(c, "thresholds", None)
    if t is not None and not (t and 1 < t[0] and t[-1] < math.inf and all(a < b for a, b in zip(t, t[1:]))):
        raise _ConfigError("thresholds must be finite, > 1 and strictly increasing")
    if getattr(c, "fit_max", None) is not None and c.fit_max < c.fit_min:
        raise _ConfigError("--fit-max must be >= --fit-min")
    if "main_threshold" in c:
        if not 1 < c.main_threshold < math.inf:
            raise _ConfigError("--main-threshold must be finite and > 1")
        for m1 in c.z1_thresholds:
            if not 0 < m1 < c.main_threshold:
                raise _ConfigError(
                    f"aftershock threshold {m1:g} must be above 0 and below the main "
                    f"threshold {c.main_threshold:g}"
                )
    if getattr(c, "split", None) == "origin" and not c.labels:
        raise _ConfigError("--split origin requires --labels")
    if getattr(c, "bootstrap", 0) == 1:  # bootstrap_errors needs two replicas
        raise _ConfigError("--bootstrap must be 0 or >= 2")
    return c


def _echo_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(repr(float(x)) for x in value)
    return str(value)


# ---------------------------------------------------------------------------
# pipeline pieces


def _load_labels(spec: str):
    try:
        if spec.startswith("builtin:"):
            return load_packaged_labels(spec[len("builtin:") :])
        return read_label_file(spec)
    except KeyError as exc:
        raise _ConfigError(exc.args[0]) from None
    except OSError as exc:
        raise _ConfigError(f"cannot read label file {spec}: {exc}") from None


def _make_out_dir(out: str) -> None:
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise _ConfigError(f"cannot create output directory {out}: {exc}") from None


def _prepare_run(args: argparse.Namespace):
    """Configure, load and de-season; write ``config.echo`` and ``pattern.tsv``.

    The configuration comes back with the data's cadence and slot count (which
    ``--cadence`` and ``--slots-per-day`` only check) and, for the commands that
    fit, ``max_lag`` and ``fit_max`` filled in and checked.
    events writes no ``pattern.tsv``; pattern always writes one.
    """
    c = _run_config(args)
    labels = _load_labels(c.labels) if getattr(c, "labels", None) else None
    head = c.out  # the deepest part of --out that exists: a file there is refused before the read
    while head and not os.path.lexists(head):
        head = os.path.dirname(head)
    if head and not os.path.isdir(head):
        _make_out_dir(c.out)  # fails, creating nothing
    try:
        prices = read_price_csv(c.input)
    except OSError as exc:
        raise _ConfigError(f"cannot read input {c.input}: {exc}") from None
    for key in ("cadence", "slots_per_day"):  # the stamps decide; a flag only checks them
        stamped, flagged = getattr(prices, key), getattr(c, key)
        if flagged not in (None, stamped):
            raise SlotMismatch(f"--{key.replace('_', '-')} {flagged}, but the stamps give {stamped}")
        setattr(c, key, stamped)
    returns = log_returns(prices, include_session_crossing=not c.drop_session_crossing)
    del prices  # the returns view its slots and stamps; free its 8-byte prices
    if labels is None and c.command != "events":  # nothing else reads the stamps: free 8 bytes a record
        returns = replace(returns, timestamps=None)
    if c.surrogate == "shuffle":
        returns = shuffle_surrogate(returns, c.seed)
    vol = absolute_volatility(returns)
    pattern = None
    if not c.no_intraday_removal and vol.cadence != "daily":
        pattern = estimate_pattern(vol)
        vol = remove_pattern(vol, pattern)
    mean_volatility(vol)  # a zero-volatility series is EmptySeries (exit 2) before --out is made
    if pattern is None and c.command == "pattern":
        # Intraday data with removal off: estimate only to dump; daily raises DailyCadence (exit 2).
        pattern = estimate_pattern(vol)
    if "max_lag" in c:
        c.max_lag = c.max_lag or (100 if vol.cadence == "daily" else 1000)
        c.fit_max = c.max_lag if c.fit_max is None else c.fit_max
        if not c.fit_min <= c.fit_max <= c.max_lag:
            raise _ConfigError(
                f"fit range [{c.fit_min}, {c.fit_max}] must lie within computed lags [1, {c.max_lag}]"
            )
    _make_out_dir(c.out)
    echo = os.path.join(c.out, "config.echo")
    with _open_for_rewrite(echo, "w", encoding="utf-8", newline="\n") as fh:
        for key, value in sorted(vars(c).items()):
            if key != "out":
                fh.write(f"{key} = {_echo_value(value)}\n")
    if pattern is not None and c.command != "events":
        write_pattern_tsv(pattern, os.path.join(c.out, "pattern.tsv"))
    return c, labels, returns, vol


def _fit_args(c: RunConfig) -> tuple[int, int, str]:
    """``t_min, t_max, tau_mode`` of every fit of the run."""
    return c.fit_min, c.fit_max, "fixed_zero" if c.tau == "zero" else "free"


# --split value -> (name, origin filter, sign filter) of each event subset besides all events
_SPLITS = {
    "all": (),
    "sign": (("crash", None, "crash"), ("rally", None, "rally")),
    "origin": (("endogenous", "endogenous", None), ("exogenous", "exogenous", None)),
}


def _select_and_tag(c: RunConfig, vol, returns, labels) -> Iterator[tuple[float, EventSet]]:
    """Each threshold with its events, signed, declustered and labelled; after
    the last, each label date that matched no event at any threshold prints
    one ``warning:`` line."""
    unmatched = None  # the warnings every threshold so far raised, in label order
    for m in c.thresholds:
        events = classify_sign(select_events(vol, m), returns)
        if c.min_separation:
            events = decluster(events, c.min_separation)
        if labels is not None:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", LabelDateUnmatched)
                events = apply_labels(events, labels, returns.timestamps)
            notes = dict.fromkeys(str(w.message) for w in caught)
            unmatched = notes if unmatched is None else {n: None for n in unmatched if n in notes}
        yield m, events
    for note in unmatched or ():
        print(f"warning: {note}", file=sys.stderr)


def _say(line: str) -> None:
    """Print one line of the report on stdout, flushed, so that a reader gone away
    shows here and not at exit.  Then the rest of the report goes to the null device:
    the run still writes its files and exits by its usual rule, printing nothing about it."""
    try:
        print(line, flush=True)
    except BrokenPipeError:
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())  # what the buffer still holds is flushed there too
        os.close(null)


def _fit_sides(tag: str, fit_side, rows: list, m: float, origin="all", sign="all", boot=None) -> None:
    """Fit both sides of one curve with ``fit_side(side)``, append their rows (a marker
    row for a failed fit) and print their lines; ``boot``, if given, holds the stderr of ``p``."""
    for side in "-+":
        try:
            fit = fit_side(side)
        except FitError as exc:
            rows.append(fit_report_row(side, m, origin, sign, exc))
            _say(f"{tag} {side}: fit failed: {type(exc).__name__}")
            continue
        if boot is not None:
            fit = replace(fit, p_stderr=boot.stderr_minus if side == "-" else boot.stderr_plus)
        rows.append(fit_report_row(side, m, origin, sign, fit))
        _say(f"{tag} {side}: {fit.summary()}")


def _write_fits(c: RunConfig, rows: list[tuple]) -> int:
    """Write ``fits.tsv``; return the exit status its rows give, 3 or 0 (see the module docstring)."""
    write_fit_tsv(rows, os.path.join(c.out, "fits.tsv"))
    boot = getattr(c, "bootstrap", 0)  # row[10] is the method, row[5] p_stderr
    return 3 if any(row[10].startswith("failed:") or (boot and math.isnan(row[5])) for row in rows) else 0


def _null_check_rows(m: float, split: str, profile, max_lag: int) -> list[tuple]:
    hi = min(100, max_lag)
    rows = []
    for side, v in (("-", profile.v_minus), ("+", profile.v_plus)):
        window = v[1 : hi + 1]
        if np.all(np.isnan(window)):
            mean_v, flag = float("nan"), "undefined"
        else:
            mean_v = float(np.nanmean(window))
            flag = "zero_consistent" if abs(mean_v) < _NULL_BOUND else "signal"
        rows.append((float(m), split, side, mean_v, flag))
    return rows


# ---------------------------------------------------------------------------
# subcommands


def _cmd_analyze(args: argparse.Namespace) -> int:
    c, labels, returns, vol = _prepare_run(args)
    fit_args = _fit_args(c)
    fit_rows: list[tuple] = []
    signal_rows: list[tuple] = []
    for m, events in _select_and_tag(c, vol, returns, labels):
        for split, origin, sign in (("all", None, None), *_SPLITS[c.split]):
            subset = filter_events(events, sign=sign, origin=origin)
            suffix = "" if split == "all" else f"_{split}"
            key = (m, origin or "all", sign or "all")
            try:
                profile = remanent_profile(vol, subset, c.max_lag)
            except DataError as exc:
                fit_rows += (fit_report_row(side, *key, exc) for side in "-+")
                _say(f"z{m:g} {split}: profile failed: {type(exc).__name__}: {exc}")
                continue
            cum = cumulative(profile)
            write_profile_tsv(cum, os.path.join(c.out, f"profile_z{m:g}{suffix}.tsv"))
            signal_rows += _null_check_rows(m, split, profile, c.max_lag)
            boot = None
            if c.bootstrap:
                try:
                    boot = bootstrap_errors(vol, subset, c.max_lag, c.bootstrap, c.seed, *fit_args)
                except (FitError, DataError) as exc:
                    _say(f"z{m:g} {split}: bootstrap failed: {type(exc).__name__}: {exc}")
            fit_side = lambda side: fit_cumulative(cum, side, *fit_args)  # noqa: E731
            _fit_sides(f"z{m:g} {split}", fit_side, fit_rows, *key, boot)
    status = _write_fits(c, fit_rows)
    header = ("zeta_multiple", "split", "side", "mean_v", "flag")
    write_tsv(os.path.join(c.out, "signal_check.tsv"), header, zip(*signal_rows))
    n_zero = sum(1 for r in signal_rows if r[4] == "zero_consistent")
    _say(f"signal check: {n_zero}/{len(signal_rows)} profiles consistent with zero signal")
    _say(f"wrote {c.out}")
    return status


def _cmd_omori(args: argparse.Namespace) -> int:
    c, _, _, vol = _prepare_run(args)
    fit_args = _fit_args(c)
    m = c.main_threshold
    fit_rows: list[tuple] = []
    try:
        mainshocks = select_events(vol, m)
        cum = cumulative(remanent_profile(vol, mainshocks, c.max_lag))
    except DataError as exc:
        fit_rows = [fit_report_row(side, m1, "all", "all", exc) for m1 in c.z1_thresholds for side in "-+"]
        _say(f"mainshock selection failed: {type(exc).__name__}: {exc}")
        return _write_fits(c, fit_rows)
    _say(f"{len(mainshocks)} mainshocks above {m:g} sigma")
    for m1 in c.z1_thresholds:
        omori = omori_counts(vol, mainshocks, m1, c.max_lag)
        write_omori_tsv(cum, omori, os.path.join(c.out, f"omori_z{m:g}_z1{m1:g}.tsv"))
        fit_side = lambda side: fit_offset_power_law(cum.lags, omori.side(side), *fit_args)  # noqa: E731
        _fit_sides(f"z1={m1:g}", fit_side, fit_rows, m1)
    status = _write_fits(c, fit_rows)
    _say(f"wrote {c.out}")
    return status


def _cmd_pattern(args: argparse.Namespace) -> int:
    c = _prepare_run(args)[0]
    _say(f"wrote {c.out}")
    return 0


def _cmd_events(args: argparse.Namespace) -> int:
    c, labels, returns, vol = _prepare_run(args)
    for m, events in _select_and_tag(c, vol, returns, labels):
        stamps = np.datetime_as_string(returns.timestamps[events.indices], unit="s")
        signs = [sign_label(s) for s in events.signs]
        columns = [events.indices, stamps, events.magnitudes, signs, events.origins]
        header = ("index", "timestamp", "magnitude", "sign", "origin")
        write_tsv(os.path.join(c.out, f"events_z{m:g}.tsv"), header, columns)
        _say(f"z{m:g}: {len(events)} events")
    _say(f"wrote {c.out}")
    return 0


def _slot_factors(c: RunConfig) -> np.ndarray:
    """The ``--factors`` file, or by default a U-shaped day: high at the
    open and close, low over lunch."""
    if not c.factors:
        x = 2.0 * (np.arange(c.slots_per_day) + 0.5) / c.slots_per_day - 1.0
        return 0.6 + 0.8 * x * x
    factors = []
    for lineno, line in enumerate(_read_file("factors", c.factors), start=1):
        for word in line.split():
            try:
                factors.append(float(word))
            except ValueError:
                raise _ConfigError(f"cannot read factors file {c.factors}: line {lineno}: bad factor {word!r}") from None
    return np.asarray(factors, dtype=np.float64)


def _cmd_synth(args: argparse.Namespace) -> int:
    c = _run_config(args)
    try:
        if c.mode == "planted":
            spec = {f.name: getattr(c, f.name) for f in fields(PlantedRelaxationSpec)}
            rets = gen_planted_relaxation(PlantedRelaxationSpec(**spec))
        else:
            rets = gen_iid_gaussian(c.n, c.sigma0, c.seed, c.slots_per_day)
        if c.mode == "modulated":
            rets = gen_intraday_modulated(rets, _slot_factors(c))
    except ValueError as exc:
        raise _ConfigError(str(exc)) from None
    prices = returns_to_prices(rets)
    try:
        os.makedirs(os.path.dirname(c.out) or ".", exist_ok=True)
        write_price_csv(prices, c.out)
    except OSError as exc:
        raise _ConfigError(f"cannot write {c.out}: {exc}") from None
    _say(f"wrote {c.out} ({len(prices)} records)")
    return 0


# ---------------------------------------------------------------------------
# parser

_COMMANDS = {
    "analyze": (_cmd_analyze, "profiles + fits for each threshold"),
    "omori": (_cmd_omori, "two-threshold aftershock counts around 12-sigma mainshocks"),
    "pattern": (_cmd_pattern, "dump the intraday pattern"),
    "events": (_cmd_events, "list selected events per threshold"),
    "synth": (_cmd_synth, "generate a synthetic price CSV"),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="volrelax", description="Event-conditioned volatility relaxation analysis.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for o in _OPTIONS:
            if command not in o.commands:
                continue
            if o.conv is _bool:
                p.add_argument(o.flag, action="store_const", const="true", help=o.help)
            else:
                p.add_argument(o.flag, choices=o.choices, help=o.help)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command][0](args)
    except _ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
