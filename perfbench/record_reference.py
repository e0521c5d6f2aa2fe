"""Record `reference.json`, the seed-commit answers the output checks compare to.

    python3 perfbench/record_reference.py

Runs the current `src/` in process: the reference lines' `evolve` trace
(every 50th row, standard columns), their lifetime and optimal state, and
the `scan` sweep's tau for the development seed.  Run it on the commit
whose answers should become the reference, never to make a check pass.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DEV_SEED = 0
ROW_STRIDE = 50


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    import scan_child
    from qsink import cli, dynamics, entanglement

    line = dynamics.ChannelParams(*workloads.EVOLVE_LINE)
    tau = entanglement.max_lifetime(line, line).tau
    psi = entanglement.optimal_state(line, line, tau).psi

    out = BENCH_DIR / "_work" / "reference-evolve.csv"
    out.parent.mkdir(exist_ok=True)
    rates = [*workloads.rate_flags(workloads.EVOLVE_LINE, "1"), *workloads.rate_flags(workloads.EVOLVE_LINE, "2")]
    if cli.main(["evolve", *rates, "--steps", str(workloads.EVOLVE_STEPS), "--out", str(out)]) != 0:
        raise RuntimeError("evolve failed on the reference lines")
    lines = out.read_text().splitlines()[1:]
    picked = sorted({*range(0, len(lines), ROW_STRIDE), len(lines) - 1})
    rows = [[k, *map(float, lines[k].split(","))] for k in picked]

    configs = workloads.scan_configs(DEV_SEED)
    results = scan_child.sweep([{"line1": c["line1"], "line2": c["line2"]} for c in configs])

    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                            text=True).stdout.strip()
    reference = {
        "commit": commit,
        "evolve": {"tau": tau, "optimal_psi": [[z.real, z.imag] for z in psi], "rows": rows},
        "scan": {"seed": DEV_SEED, "tau": [r["tau"] for r in results]},
    }
    (BENCH_DIR / "reference.json").write_text(json.dumps(reference) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
