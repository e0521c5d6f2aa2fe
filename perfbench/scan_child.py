"""The `scan` workload's library sweep, as in the README's Library section.

For every config: `max_lifetime` on the two lines, then `optimal_state` at
the root.  Each config is timed around those two calls only.  Exceptions of
any type are recorded per config and the sweep goes on, so the caller can
classify every config.  Usage as a child process:

    PYTHONPATH=src python3 perfbench/scan_child.py CONFIGS.json RESULTS.json

The functions are looked up through their modules at call time, so the
traced run sees the wrappers it installs there.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter

from qsink import dynamics, entanglement


def _line(rates: list[float]) -> dynamics.ChannelParams:
    return dynamics.ChannelParams(gamma_h=rates[0], gamma_v=rates[1], gamma=rates[2])


def sweep(configs: list[dict]) -> list[dict]:
    """One result record per config: tau, psi, error and latency_s."""
    results = []
    for config in configs:
        line1, line2 = _line(config["line1"]), _line(config["line2"])
        record: dict = {"tau": None, "psi": None, "error": None}
        stage = "max_lifetime"
        start = perf_counter()
        try:
            tau = entanglement.max_lifetime(line1, line2).tau
            record["tau"] = tau
            if tau is not None:
                stage = "optimal_state"
                psi = entanglement.optimal_state(line1, line2, tau).psi
                record["psi"] = [[float(z.real), float(z.imag)] for z in psi]
        except Exception as exc:  # every failure is data for the caller
            record["error"] = {"stage": stage, "type": type(exc).__name__, "message": str(exc)}
        record["latency_s"] = perf_counter() - start
        results.append(record)
    return results


def main(argv: list[str]) -> int:
    configs = json.loads(Path(argv[0]).read_text())
    Path(argv[1]).write_text(json.dumps(sweep(configs)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
