"""Command-line interface.

SUBCOMMANDS decides what each subcommand reads: its config keys, and with
them the flags of FLAGS that set those keys (no abbreviated flags).  Channel
rates come from flags (--gh1/--gv1/--g1 for line 1 and --gh2/--gv2/--g2 for
line 2) or from a JSON config file (--config); flags override the file.

Exit codes: 0 success, 1 bad usage or input, 2 no finite lifetime (for
lifetime and optimal-state, or one past t_max), 3 validation failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .dynamics import ChannelParams, entry_logs_over_slow, superop_over_slow
from .entanglement import (
    conditional_state,
    lifetime_lhs,
    max_lifetime,
    negativity,
    optimal_state,
    x_state_traces,
)
from .sinkhorn import decompose, unital_lambdas

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NO_LIFETIME = 2
EXIT_VALIDATION = 3

# evolve works through its time grid this many rows at a time: enough for
# the stacked numpy calls to amortize, few enough to keep the stacks small.
# Larger blocks save per-call costs in x_state_traces, but negativity's
# separability certificate clears only whole blocks: on 5000 rows with a
# custom state, blocks of 1024 cleared 2952 rows (256: 3208), and the
# evolve child took no less time (median 202-204 ms against 200 ms, 60
# alternating runs) and peaked 1.3 MiB higher (36.1 MiB against 34.8), on
# a shared 2-vCPU VM
EVOLVE_BLOCK = 256

_JOB_KEYS = ("line1", "line2", "t_max", "output_path", "format")
# each subcommand's help and the config keys it reads; any other key in the
# file is refused.  It takes the flags of those keys, --config when it reads
# any, and sinkhorn also its required --t
SUBCOMMANDS = {
    "lifetime": ("maximal conditional entanglement lifetime of the two lines", _JOB_KEYS),
    "optimal-state": ("initial state that stays entangled the longest", _JOB_KEYS),
    "evolve": ("negativity and detection probability along a time grid",
               (*_JOB_KEYS, "steps", "initial_state")),
    "sinkhorn": ("normal form of line 1 at a given time", ("line1", "output_path")),
    "validate": ("replay all closed forms against independent checks", ()),
}
# the flags that set each key, and their argparse options: a line's three
# set its gamma_h, gamma_v and gamma, and every other flag's dest is its key
FLAGS = {
    "line1": (("--gh1", "--gv1", "--g1"), {"type": float}),
    "line2": (("--gh2", "--gv2", "--g2"), {"type": float}),
    "t_max": (("--t-max",), {"type": float}),
    "output_path": (("--out",), {"dest": "output_path", "metavar": "OUT"}),
    "format": (("--format",), {"choices": ("csv", "json")}),
    "steps": (("--steps",), {"type": int}),
}


class _Job(NamedTuple):
    line1: ChannelParams
    line2: ChannelParams
    t_max: float | None = None
    steps: int = 200
    initial_state: np.ndarray | None = None
    output_path: str | None = None
    format: str = "csv"


class JobConfig(_Job):
    """One job's settings, each checked on construction, by _make and _replace too."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> JobConfig:
        self = super().__new__(cls, *args, **kwargs)
        # no array holds more than sys.maxsize bytes, so no grid of more 8-byte times
        if not 2 <= self.steps <= sys.maxsize // 8:
            raise ValueError(f"steps must be >= 2 and <= {sys.maxsize // 8}, got {self.steps!r}")
        if self.t_max is not None and not 0.0 < self.t_max <= sys.float_info.max:
            raise ValueError(f"t_max must be finite and > 0, got {self.t_max!r}")
        if self.format not in ("csv", "json"):
            raise ValueError(f"format must be 'csv' or 'json', got {self.format!r}")
        return self

    @classmethod
    def _make(cls, iterable) -> JobConfig:
        return cls(*iterable)


def _typed(value, types: tuple, what: str, where: str):
    """value, refused with where named unless its exact type (a bool is no int) is in types."""
    if type(value) not in types:
        raise ValueError(f"{where} must be {what}, got {value!r}")
    return value


def _parse_custom_state(entries) -> np.ndarray:
    pairs = type(entries) is list and all(
        type(pair) is list and len(pair) == 2 and all(type(x) in (int, float) for x in pair)
        for pair in entries
    )
    values = np.asarray(entries, dtype=float) if pairs else None
    if values is None or values.shape != (16, 2) or not np.isfinite(values).all():
        raise ValueError("initial_state needs 16 finite [re, im] number pairs (row-major 4x4)")
    return (values[:, 0] + 1j * values[:, 1]).reshape(4, 4)


def _read_keys(entry, keys: tuple[str, ...], where: str) -> dict:
    """entry, refused unless it is a JSON object whose keys all lie in keys."""
    if not isinstance(entry, dict):
        raise ValueError(f"{where} must be a JSON object, got {entry!r}")
    unread = sorted(set(entry).difference(keys))
    if unread:
        raise ValueError(f"{where} does not read {unread[0]!r}, only {sorted(keys)}")
    return entry


def _load_config(args: argparse.Namespace) -> JobConfig:
    raw = json.loads(Path(args.config).read_text()) if args.config is not None else {}
    keys = SUBCOMMANDS[args.command][1]
    raw = _read_keys(raw, keys, f"{args.command} --config")
    # a flag the subcommand does not take is absent from args
    flags = vars(args)

    def line(key: str) -> ChannelParams:
        names = ("gamma_h", "gamma_v", "gamma")
        entry = dict(_read_keys(raw.get(key, {}), names, key))
        for name, value in entry.items():
            _typed(value, (int, float), "a number", f"{key}.{name}")
            # False for NaN, inf, negatives and ints past the double range alike
            if not 0.0 <= value <= sys.float_info.max:
                raise ValueError(f"{key}.{name} must be finite and >= 0, got {value!r}")
        # a rate flag's dest is its name: gh1 for --gh1
        for name, flag in zip(names, FLAGS[key][0]):
            if flags.get(flag[2:]) is not None:
                entry[name] = flags[flag[2:]]
        return ChannelParams(**{name: float(entry.get(name, 0.0)) for name in names})

    # every file value is checked, also where a flag overrides it below
    steps = _typed(raw.get("steps", 200), (int, float), "an integer", "steps")
    if type(steps) is float and not steps.is_integer():  # 2.0 is one; 2.9, inf and nan are not
        raise ValueError(f"steps must be an integer, got {steps!r}")
    initial_state = raw.get("initial_state")
    cfg = JobConfig(
        line1=line("line1"),
        line2=line("line2"),
        t_max=_typed(raw.get("t_max"), (int, float, type(None)), "a number or null", "t_max"),
        steps=int(steps),
        initial_state=None if initial_state is None else _parse_custom_state(initial_state),
        output_path=_typed(
            raw.get("output_path"), (str, type(None)), "a string or null", "output_path"
        ),
        format=_typed(raw.get("format", "csv"), (str,), "a string", "format"),
    )
    # a line's flags are read above; one at a time, in the table's order,
    # so a bad --t-max is named before a bad --steps.  _replace builds
    # through the constructor, which checks them
    for key in keys:
        if flags.get(key) is not None:
            cfg = cfg._replace(**{key: flags[key]})
    return cfg


def _write(cfg: JobConfig, record: dict, columns: dict[str, list] | None = None) -> None:
    """Write one result to cfg.output_path, or to stdout without one.

    As JSON, record is written whole.  As CSV, columns (an ordered mapping
    of equal-length lists, each of one type) becomes a header and one row
    per index, floats with 17 significant digits and ints as they are.  A
    result without columns has no CSV form and is always written as JSON.
    """
    if columns is None or cfg.format == "json":
        # NaN and Infinity are not JSON: refuse them instead of printing them
        text = json.dumps(record, indent=2, allow_nan=False) + "\n"
    else:
        rows = list(zip(*columns.values()))
        # each column's format from its first value; %.17g is format(x, ".17g")
        row_format = ",".join("%.17g" if isinstance(x, float) else "%d" for x in rows[0])
        text = "\n".join([",".join(columns), *(row_format % row for row in rows)]) + "\n"
    if cfg.output_path is None:
        sys.stdout.write(text)
    else:
        Path(cfg.output_path).write_text(text)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_lifetime(cfg: JobConfig) -> int:
    result = max_lifetime(cfg.line1, cfg.line2)
    if result.tau is None or (cfg.t_max is not None and result.tau > cfg.t_max):
        # without a cap, the search's end and g there (inf and 2 without depolarization)
        end, g_end = result.bracket[1], result.residual
        if cfg.t_max is not None:
            end, g_end = cfg.t_max, lifetime_lhs(cfg.line1, cfg.line2, cfg.t_max)
        print(f"no finite lifetime up to t = {end:.6g} (g = {g_end:.6g} there)", file=sys.stderr)
        return EXIT_NO_LIFETIME
    lam1 = unital_lambdas(cfg.line1, result.tau)
    lam2 = unital_lambdas(cfg.line2, result.tau)
    record = {
        "tau": result.tau,
        "bracket": list(result.bracket),
        "residual": result.residual,
        "iterations": result.iterations,
        "evaluations": result.evaluations,
        "lambdas": {"line1": list(lam1), "line2": list(lam2)},
    }
    row = {"tau": result.tau, "residual": result.residual, "iterations": result.iterations}
    for line, lam in (("1", lam1), ("2", lam2)):
        for axis, value in zip("xyz", lam):
            row[f"lambda{line}_{axis}"] = value
    _write(cfg, record, {c: [v] for c, v in row.items()})
    return EXIT_OK


def cmd_optimal_state(cfg: JobConfig) -> int:
    result = max_lifetime(cfg.line1, cfg.line2)
    if result.tau is None or (cfg.t_max is not None and result.tau > cfg.t_max):
        print("no finite lifetime, optimal state undefined", file=sys.stderr)
        return EXIT_NO_LIFETIME
    state = optimal_state(cfg.line1, cfg.line2, result.tau)
    b1, b2 = state.filter_shapes
    record = {
        "tau": result.tau,
        "psi": [[z.real, z.imag] for z in state.psi],
        "schmidt_coefficients": list(state.schmidt_coefficients),
        "b1_diag": list(b1),
        "b2_diag": list(b2),
    }
    row = {"tau": result.tau}
    for k, z in enumerate(state.psi):
        row[f"psi{k}_re"] = z.real
        row[f"psi{k}_im"] = z.imag
    row["schmidt_1"], row["schmidt_2"] = state.schmidt_coefficients
    row["b1_h"], row["b1_v"] = b1
    row["b2_h"], row["b2_v"] = b2
    _write(cfg, record, {c: [v] for c, v in row.items()})
    return EXIT_OK


def cmd_evolve(cfg: JobConfig) -> int:
    result = max_lifetime(cfg.line1, cfg.line2)
    if result.tau is None:
        print("no finite lifetime, nothing to trace out", file=sys.stderr)
        return EXIT_NO_LIFETIME
    # 2 tau may lie past the double range where tau does not
    t_max = cfg.t_max if cfg.t_max is not None else min(2.0 * result.tau, sys.float_info.max)
    # the two standard states a|HH> + b|VV>, each by its log(a^2 / b^2)
    standard = {
        "psi_plus": 0.0,
        "optimal": optimal_state(cfg.line1, cfg.line2, result.tau).log_weight_ratio,
    }

    # Column order is part of the output contract; a custom state appends
    # its two columns after the standard five.
    ordered = ["t", "negativity_psi_plus", "negativity_optimal",
               "detection_prob_psi_plus", "detection_prob_optimal"]
    if cfg.initial_state is not None:
        ordered += ["negativity_custom", "detection_prob_custom"]
    table: dict[str, list[float]] = {c: [] for c in ordered}
    table["t"] = np.linspace(0.0, t_max, cfg.steps).tolist()
    # equal rates give equal entries and maps: two identical lines are formed once
    same = cfg.line2 == cfg.line1
    for start in range(0, cfg.steps, EVOLVE_BLOCK):
        block = table["t"][start : start + EVOLVE_BLOCK]
        entries1 = entry_logs_over_slow(cfg.line1, block)
        entries2 = entries1 if same else entry_logs_over_slow(cfg.line2, block)
        slow = entries1[0] * entries2[0]
        for name, log_weight_ratio in standard.items():
            neg, prob = x_state_traces(log_weight_ratio, entries1[1], entries2[1])
            table[f"negativity_{name}"].extend(neg.tolist())
            table[f"detection_prob_{name}"].extend((slow * prob).tolist())
        if cfg.initial_state is not None:
            # the maps over their slow modes give the same conditional state
            # and stay finite where the photons are surely lost
            maps1 = superop_over_slow(cfg.line1, block, entries1)[1]
            maps2 = maps1 if same else superop_over_slow(cfg.line2, block, entries2)[1]
            conditional, prob = conditional_state(maps1, maps2, cfg.initial_state)
            table["negativity_custom"].extend(negativity(conditional).tolist())
            table["detection_prob_custom"].extend((slow * prob).tolist())
    _write(cfg, table, table)
    return EXIT_OK


def cmd_sinkhorn(cfg: JobConfig, t: float) -> int:
    # decompose's fields in their order, but upsilon; json writes a_diag's tuple as a list
    record = {"t": t, **decompose(cfg.line1, t)._asdict()}
    del record["upsilon"]
    _write(cfg, record)
    return EXIT_OK


def cmd_validate() -> int:
    # imported here, so the other subcommands do not load the replay suites
    from .validate import run_all

    results = run_all()
    for result in results:
        print(result.line())
    failed = [result for result in results if not result.passed]
    for result in failed:
        print(f"validation failed: {result.name} at {result.worst_case}", file=sys.stderr)
    return EXIT_VALIDATION if failed else EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    # The convention here reserves exit code 2 for "no finite lifetime".
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qsink",
        allow_abbrev=False,
        description="Entanglement lifetimes under depolarization and polarization-dependent loss.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (helptext, keys) in SUBCOMMANDS.items():
        sub = subs.add_parser(name, help=helptext, allow_abbrev=False)
        for flags, options in (FLAGS[key] for key in keys if key in FLAGS):
            for flag in flags:
                sub.add_argument(flag, default=None, **options)
        if keys:
            sub.add_argument("--config", default=None)
        if name == "sinkhorn":
            # line 1 at one time, always printed as JSON
            sub.add_argument("--t", type=float, required=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "validate":
            return cmd_validate()
        cfg = _load_config(args)
        if args.command == "sinkhorn":
            return cmd_sinkhorn(cfg, args.t)
        # formed per call from the module's bindings, which perfbench's tracer rebinds
        jobs = {"lifetime": cmd_lifetime, "optimal-state": cmd_optimal_state, "evolve": cmd_evolve}
        return jobs[args.command](cfg)
    # a RuntimeError is decompose's failed self-check; a JSONDecodeError is a ValueError;
    # a MemoryError is a grid of more steps than memory holds
    except (ValueError, OverflowError, RuntimeError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
