"""Command-line interface.

Subcommands: lifetime, optimal-state, evolve, sinkhorn, validate.  Channel
rates come from flags (--gh1/--gv1/--g1 for line 1 and --gh2/--gv2/--g2 for
line 2) or from a JSON config file (--config); flags override the file.
Each subcommand accepts only the flags and config keys it reads (no
abbreviated flags): sinkhorn reads line 1 and --t and always prints JSON,
only evolve reads --steps, and validate takes no flags at all.

Exit codes: 0 success, 1 bad usage or input, 2 no finite lifetime (for
lifetime and optimal-state, below t_max), 3 validation failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .dynamics import ChannelParams, superop_over_slow
from .entanglement import (
    PSI_PLUS,
    conditional_state,
    max_lifetime,
    negativity,
    optimal_state,
)
from .sinkhorn import decompose, unital_lambdas
from .validate import run_all

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NO_LIFETIME = 2
EXIT_VALIDATION = 3

# evolve works through its time grid this many rows at a time: enough for
# the stacked numpy calls to amortize, few enough to keep the stacks small
EVOLVE_BLOCK = 256

# the config keys each subcommand reads; any other key in the file is refused
_JOB_KEYS = {"line1", "line2", "t_max", "output_path", "format"}
CONFIG_KEYS = {"lifetime": _JOB_KEYS, "optimal-state": _JOB_KEYS,
               "evolve": _JOB_KEYS | {"steps", "initial_state"},
               "sinkhorn": {"line1", "output_path"}}


@dataclass(frozen=True)
class JobConfig:
    line1: ChannelParams
    line2: ChannelParams
    t_max: float | None = None
    steps: int = 200
    initial_state: np.ndarray | None = None
    output_path: str | None = None
    format: str = "csv"

    def __post_init__(self) -> None:
        if self.steps < 2:
            raise ValueError(f"steps must be >= 2, got {self.steps!r}")
        if self.t_max is not None and not 0.0 < self.t_max <= sys.float_info.max:
            raise ValueError(f"t_max must be finite and > 0, got {self.t_max!r}")
        if self.format not in ("csv", "json"):
            raise ValueError(f"format must be 'csv' or 'json', got {self.format!r}")


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


def _read_keys(entry, keys: set[str], where: str) -> dict:
    """entry, refused unless it is a JSON object whose keys all lie in keys."""
    if not isinstance(entry, dict):
        raise ValueError(f"{where} must be a JSON object, got {entry!r}")
    unread = sorted(set(entry) - keys)
    if unread:
        raise ValueError(f"{where} does not read {unread[0]!r}, only {sorted(keys)}")
    return entry


def _load_config(args: argparse.Namespace) -> JobConfig:
    raw = json.loads(Path(args.config).read_text()) if args.config is not None else {}
    raw = _read_keys(raw, CONFIG_KEYS[args.command], f"{args.command} --config")
    # a flag the subcommand does not take is absent from args
    flags = vars(args)

    def line(key: str, suffix: str) -> ChannelParams:
        entry = dict(_read_keys(raw.get(key, {}), {"gamma_h", "gamma_v", "gamma"}, key))
        for name, value in entry.items():
            _typed(value, (int, float), "a number", f"{key}.{name}")
            # False for NaN, inf, negatives and ints past the double range alike
            if not 0.0 <= value <= sys.float_info.max:
                raise ValueError(f"{key}.{name} must be finite and >= 0, got {value!r}")
        for name, flag in (("gamma_h", "gh"), ("gamma_v", "gv"), ("gamma", "g")):
            if flags.get(flag + suffix) is not None:
                entry[name] = flags[flag + suffix]
        return ChannelParams(
            gamma_h=float(entry.get("gamma_h", 0.0)),
            gamma_v=float(entry.get("gamma_v", 0.0)),
            gamma=float(entry.get("gamma", 0.0)),
        )

    # every file value is checked, also where a flag overrides it below
    steps = _typed(raw.get("steps", 200), (int, float), "an integer", "steps")
    if type(steps) is float and not steps.is_integer():  # 2.0 is one; 2.9, inf and nan are not
        raise ValueError(f"steps must be an integer, got {steps!r}")
    initial_state = raw.get("initial_state")
    cfg = JobConfig(
        line1=line("line1", "1"),
        line2=line("line2", "2"),
        t_max=_typed(raw.get("t_max"), (int, float, type(None)), "a number or null", "t_max"),
        steps=int(steps),
        initial_state=None if initial_state is None else _parse_custom_state(initial_state),
        output_path=_typed(
            raw.get("output_path"), (str, type(None)), "a string or null", "output_path"
        ),
        format=_typed(raw.get("format", "csv"), (str,), "a string", "format"),
    )
    for flag, field in (("t_max", "t_max"), ("steps", "steps"),
                        ("out", "output_path"), ("format", "format")):
        if flags.get(flag) is not None:
            cfg = replace(cfg, **{field: flags[flag]})
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
    result = max_lifetime(cfg.line1, cfg.line2, cfg.t_max)
    if result.tau is None:
        print(
            f"no finite lifetime up to t = {result.bracket[1]:.6g} (g = {result.residual:.6g} there)",
            file=sys.stderr,
        )
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
    result = max_lifetime(cfg.line1, cfg.line2, cfg.t_max)
    if result.tau is None:
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
    t_max = cfg.t_max if cfg.t_max is not None else 2.0 * result.tau
    opt = optimal_state(cfg.line1, cfg.line2, result.tau)

    states: list[tuple[str, np.ndarray]] = [
        ("psi_plus", np.outer(PSI_PLUS, PSI_PLUS.conj())),
        ("optimal", opt.rho),
    ]
    if cfg.initial_state is not None:
        states.append(("custom", cfg.initial_state))

    # Column order is part of the output contract; a custom state appends
    # its two columns after the standard five.
    ordered = ["t", "negativity_psi_plus", "negativity_optimal",
               "detection_prob_psi_plus", "detection_prob_optimal"]
    if len(states) > 2:
        ordered += ["negativity_custom", "detection_prob_custom"]
    table: dict[str, list[float]] = {c: [] for c in ordered}
    table["t"] = np.linspace(0.0, t_max, cfg.steps).tolist()
    # the states (S, 1, 4, 4) against each block's maps (T, 4, 4): (S, T) results
    initial = np.stack([rho for _, rho in states])[:, None]
    for start in range(0, cfg.steps, EVOLVE_BLOCK):
        block = table["t"][start : start + EVOLVE_BLOCK]
        slow1, m1 = superop_over_slow(cfg.line1, block)
        slow2, m2 = superop_over_slow(cfg.line2, block)
        # the maps over their slow modes give the same conditional state
        # and stay finite where the photons are surely lost
        conditional, prob = conditional_state(m1, m2, initial)
        for (name, _), neg, det in zip(states, negativity(conditional), slow1 * slow2 * prob):
            table[f"negativity_{name}"].extend(neg.tolist())
            table[f"detection_prob_{name}"].extend(det.tolist())
    _write(cfg, table, table)
    return EXIT_OK


def cmd_sinkhorn(cfg: JobConfig, t: float) -> int:
    dec = decompose(cfg.line1, t)
    record = {
        "t": t,
        "s": dec.s,
        "a_diag": list(dec.a_diag),
        "log_b_scale": dec.log_b_scale,
        "lambda_x": dec.lambda_x,
        "lambda_y": dec.lambda_y,
        "lambda_z": dec.lambda_z,
        "self_check": dec.self_check,
    }
    _write(cfg, record)
    return EXIT_OK


def cmd_validate() -> int:
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


def _add_rates(sub: argparse.ArgumentParser, suffix: str) -> None:
    for flag in ("--gh", "--gv", "--g"):
        sub.add_argument(flag + suffix, type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qsink",
        allow_abbrev=False,
        description="Entanglement lifetimes under depolarization and polarization-dependent loss.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("lifetime", "maximal conditional entanglement lifetime of the two lines"),
        ("optimal-state", "initial state that stays entangled the longest"),
        ("evolve", "negativity and detection probability along a time grid"),
        ("sinkhorn", "normal form of line 1 at a given time"),
        ("validate", "replay all closed forms against independent checks"),
    ):
        sub = subs.add_parser(name, help=helptext, allow_abbrev=False)
        # each subcommand takes only the flags it reads; validate runs its
        # one fixed grid and takes none
        if name == "validate":
            continue
        _add_rates(sub, "1")
        sub.add_argument("--out", default=None)
        sub.add_argument("--config", default=None)
        if name == "sinkhorn":
            # line 1 at one time, always printed as JSON
            sub.add_argument("--t", type=float, required=True)
            continue
        _add_rates(sub, "2")
        sub.add_argument("--t-max", type=float, default=None)
        sub.add_argument("--format", choices=("csv", "json"), default=None)
        if name == "evolve":
            sub.add_argument("--steps", type=int, default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "validate":
            return cmd_validate()
        cfg = _load_config(args)
        if args.command == "lifetime":
            return cmd_lifetime(cfg)
        if args.command == "optimal-state":
            return cmd_optimal_state(cfg)
        if args.command == "evolve":
            return cmd_evolve(cfg)
        if args.command == "sinkhorn":
            return cmd_sinkhorn(cfg, args.t)
    # a RuntimeError is decompose's failed self-check
    except (ValueError, OverflowError, RuntimeError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    raise AssertionError("unreachable")


if __name__ == "__main__":
    raise SystemExit(main())
