"""Run the benchmark over several seeds and summarize the spread per metric.

    python3 perfbench/collect.py --workloads evolve scan validate \
        --seeds 1 2 3 4 5 6 7 8 9 10 [--trace 0] [--out perfbench/results/NAME.json]

Each run is `perfbench/run.py` with BENCHMARK.json's run_seconds.  For each
workload and metric it reports the median, the quartiles from
`statistics.quantiles(values, n=4)` and the quartile spread (Q3 - Q1) / median
next to the metric's bound.  With --out it also stores every run's result
line and run record, so the file is a result a later change can cite.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    lines = proc.stdout.splitlines()
    return json.loads(lines[0])["run_record"] | json.loads(lines[1]), json.loads(lines[-1])


def summarize(values: list[float], bound: float | None) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    summary = {"median": median, "q1": q1, "q3": q3, "bound": bound}
    if median:
        summary["spread"] = (q3 - q1) / abs(median)
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    record = {"run_seconds": spec["run_seconds"], "trace": args.trace, "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            info, result = run_once(workload, seed, spec["run_seconds"], args.trace)
            runs.append({"seed": seed, "info": info, "result": result})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                             if k in bounds and bounds[k] is not None),
                  flush=True)
        metrics = {}
        if len(runs) > 1:
            for name in runs[0]["result"]["metrics"]:
                values = [r["result"]["metrics"][name]["value"] for r in runs]
                metrics[name] = summarize(values, bounds.get(name))
                if bounds.get(name) is not None:
                    m = metrics[name]
                    print(f"  {name:16s} median {m['median']:.6g} spread {m.get('spread', 0):.4f}"
                          f" (bound {m['bound']}, a third {m['bound'] / 3:.4f})", flush=True)
        record["workloads"][workload] = {"metrics": metrics, "runs": runs}
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
