"""Command-line interface.

Subcommands: lifetime, optimal-state, evolve, sinkhorn, validate.  Channel
rates come from flags (--gh1/--gv1/--g1 for line 1 and --gh2/--gv2/--g2 for
line 2) or from a JSON config file (--config); flags override the file.

Exit codes: 0 success, 1 bad usage or input, 2 no finite lifetime below
t_max, 3 validation failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .dynamics import ChannelParams, ptm_at, ptm_over_slow
from .entanglement import (
    PSI_PLUS,
    conditional_state,
    max_lifetime,
    negativity,
    optimal_state,
)
from .sinkhorn import decompose, log_fixed_point_diagonal
from .validate import normal_form_residuals, run_all

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NO_LIFETIME = 2
EXIT_VALIDATION = 3

# evolve works through its time grid this many rows at a time: enough for
# the stacked numpy calls to amortize, few enough to keep the stacks small
EVOLVE_BLOCK = 256


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
        if self.t_max is not None and self.t_max <= 0.0:
            raise ValueError(f"t_max must be > 0, got {self.t_max!r}")
        if self.format not in ("csv", "json"):
            raise ValueError(f"format must be 'csv' or 'json', got {self.format!r}")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _parse_custom_state(entries) -> np.ndarray:
    try:
        values = np.asarray(entries, dtype=float)
    except (TypeError, ValueError):
        values = None
    if values is None or values.shape != (16, 2):
        raise ValueError("a custom state needs 16 [re, im] entries (row-major 4x4)")
    return (values[:, 0] + 1j * values[:, 1]).reshape(4, 4)


def _load_config(args: argparse.Namespace) -> JobConfig:
    raw: dict = {}
    if args.config is not None:
        raw = json.loads(Path(args.config).read_text())

    def line(key: str, flags: tuple) -> ChannelParams:
        entry = dict(raw.get(key, {}))
        for name, value in zip(("gamma_h", "gamma_v", "gamma"), flags):
            if value is not None:
                entry[name] = value
        return ChannelParams(
            gamma_h=float(entry.get("gamma_h", 0.0)),
            gamma_v=float(entry.get("gamma_v", 0.0)),
            gamma=float(entry.get("gamma", 0.0)),
        )

    initial_state = raw.get("initial_state")
    if initial_state is not None:
        initial_state = _parse_custom_state(initial_state)

    cfg = JobConfig(
        line1=line("line1", (args.gh1, args.gv1, args.g1)),
        line2=line("line2", (args.gh2, args.gv2, args.g2)),
        t_max=raw.get("t_max"),
        steps=int(raw.get("steps", 200)),
        initial_state=initial_state,
        output_path=raw.get("output_path"),
        format=raw.get("format", "csv"),
    )
    if getattr(args, "t_max", None) is not None:
        cfg = replace(cfg, t_max=args.t_max)
    if getattr(args, "steps", None) is not None:
        cfg = replace(cfg, steps=args.steps)
    if getattr(args, "out", None) is not None:
        cfg = replace(cfg, output_path=args.out)
    if getattr(args, "format", None) is not None:
        cfg = replace(cfg, format=args.format)
    return cfg


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _record_out(record: dict, columns: list[str], cfg: JobConfig) -> None:
    if cfg.format == "json":
        _emit(json.dumps(record, indent=2) + "\n", cfg.output_path)
    else:
        header = ",".join(columns)
        row = ",".join(
            _fmt(record[c]) if isinstance(record[c], float) else str(record[c])
            for c in columns
        )
        _emit(header + "\n" + row + "\n", cfg.output_path)


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
    from .sinkhorn import unital_lambdas

    lam1 = unital_lambdas(cfg.line1, result.tau)
    lam2 = unital_lambdas(cfg.line2, result.tau)
    if cfg.format == "json":
        record = {
            "tau": result.tau,
            "bracket": list(result.bracket),
            "residual": result.residual,
            "iterations": result.iterations,
            "post_root_sign_changes": result.post_root_sign_changes,
            "lambdas": {"line1": list(lam1), "line2": list(lam2)},
        }
        _emit(json.dumps(record, indent=2) + "\n", cfg.output_path)
        return EXIT_OK
    record = {
        "tau": result.tau,
        "residual": result.residual,
        "iterations": result.iterations,
        "lambda1_x": lam1[0],
        "lambda1_y": lam1[1],
        "lambda1_z": lam1[2],
        "lambda2_x": lam2[0],
        "lambda2_y": lam2[1],
        "lambda2_z": lam2[2],
    }
    _record_out(record, list(record), cfg)
    return EXIT_OK


def cmd_optimal_state(cfg: JobConfig) -> int:
    result = max_lifetime(cfg.line1, cfg.line2, cfg.t_max)
    if result.tau is None:
        print("no finite lifetime, optimal state undefined", file=sys.stderr)
        return EXIT_NO_LIFETIME
    state = optimal_state(cfg.line1, cfg.line2, result.tau)
    # B is proportional to sqrt(S), S = diag(1 + s, 1 - s): print that shape
    b1 = [math.sqrt(math.exp(x)) for x in log_fixed_point_diagonal(cfg.line1, result.tau)]
    b2 = [math.sqrt(math.exp(x)) for x in log_fixed_point_diagonal(cfg.line2, result.tau)]
    if cfg.format == "json":
        record = {
            "tau": result.tau,
            "psi": [[z.real, z.imag] for z in state.psi],
            "schmidt_coefficients": list(state.schmidt_coefficients),
            "b1_diag": b1,
            "b2_diag": b2,
        }
        _emit(json.dumps(record, indent=2) + "\n", cfg.output_path)
        return EXIT_OK
    record = {"tau": result.tau}
    for k, z in enumerate(state.psi):
        record[f"psi{k}_re"] = z.real
        record[f"psi{k}_im"] = z.imag
    record["schmidt_1"] = state.schmidt_coefficients[0]
    record["schmidt_2"] = state.schmidt_coefficients[1]
    record["b1_h"], record["b1_v"] = b1
    record["b2_h"], record["b2_v"] = b2
    _record_out(record, list(record), cfg)
    return EXIT_OK


def _stacked_maps(params: ChannelParams, times: list[float]) -> tuple[np.ndarray, np.ndarray]:
    """Slow modes (T,) and transfer matrices over them (T, 4, 4) of one line."""
    slows, maps = zip(*(ptm_over_slow(params, t) for t in times))
    return np.array(slows), np.stack(maps)


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
    for start in range(0, cfg.steps, EVOLVE_BLOCK):
        block = table["t"][start : start + EVOLVE_BLOCK]
        slow1, m1 = _stacked_maps(cfg.line1, block)
        slow2, m2 = _stacked_maps(cfg.line2, block)
        for name, rho in states:
            # the maps over their slow modes give the same conditional state
            # and stay finite where the photons are surely lost
            conditional, prob = conditional_state(m1, m2, rho)
            table[f"negativity_{name}"].extend(negativity(conditional).tolist())
            table[f"detection_prob_{name}"].extend((slow1 * slow2 * prob).tolist())
    if cfg.format == "json":
        _emit(json.dumps({c: table[c] for c in ordered}, indent=2) + "\n", cfg.output_path)
        return EXIT_OK
    lines = [",".join(ordered)]
    for k in range(cfg.steps):
        lines.append(",".join(_fmt(table[c][k]) for c in ordered))
    _emit("\n".join(lines) + "\n", cfg.output_path)
    return EXIT_OK


def cmd_sinkhorn(cfg: JobConfig, t: float) -> int:
    dec = decompose(cfg.line1, t)
    record = {
        "t": t,
        "s": dec.s,
        "a_diag": [float(x.real) for x in np.diag(dec.a_op)],
        "b_diag": [float(x.real) for x in np.diag(dec.b_op)],
        "lambda_x": dec.lambda_x,
        "lambda_y": dec.lambda_y,
        "lambda_z": dec.lambda_z,
        "residuals": normal_form_residuals(dec, ptm_at(cfg.line1, t)),
    }
    _emit(json.dumps(record, indent=2) + "\n", cfg.output_path)
    return EXIT_OK


def cmd_validate() -> int:
    results = run_all()
    for result in results:
        print(result.line())
    if all(r.passed for r in results):
        return EXIT_OK
    for result in results:
        if not result.passed:
            print(f"validation failed: {result.name} at {result.worst_case}", file=sys.stderr)
    return EXIT_VALIDATION


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    # The convention here reserves exit code 2 for "no finite lifetime".
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _add_common(sub: argparse.ArgumentParser) -> None:
    for flag, dest in (
        ("--gh1", "gh1"), ("--gv1", "gv1"), ("--g1", "g1"),
        ("--gh2", "gh2"), ("--gv2", "gv2"), ("--g2", "g2"),
    ):
        sub.add_argument(flag, dest=dest, type=float, default=None)
    sub.add_argument("--t-max", dest="t_max", type=float, default=None)
    sub.add_argument("--steps", type=int, default=None)
    sub.add_argument("--out", default=None)
    sub.add_argument("--format", choices=("csv", "json"), default=None)
    sub.add_argument("--config", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qsink",
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
        sub = subs.add_parser(name, help=helptext)
        # validate runs its one fixed grid: it takes no rates, config or output flags
        if name != "validate":
            _add_common(sub)
        if name == "sinkhorn":
            sub.add_argument("--t", type=float, required=True)
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
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    raise AssertionError("unreachable")


if __name__ == "__main__":
    raise SystemExit(main())
