"""Self-test of the benchmark harness (not of qsink).

    python3 perfbench/selftest.py

Checks that the input generators are deterministic per seed, that the
tracer leaves every `qsink` name as it found it, that traced, untraced and
child-process passes give the same outputs, that a run prints every metric
BENCHMARK.json names, and that a checkout without the sources makes the
benchmark exit non-zero without a result, and that a run's attempted and
failed counts depend on the seed alone.  Takes about two minutes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import run  # sets the BLAS thread variables before numpy loads
import tracer
import workloads

BENCH_DIR = run.BENCH_DIR
ROOT = run.ROOT


def check(condition: bool, what: str) -> None:
    if not condition:
        raise RuntimeError(f"self-test failed: {what}")
    print(f"[PASS] {what}")


def test_generators() -> None:
    check(workloads.scan_configs(3) == workloads.scan_configs(3), "scan configs repeat for a seed")
    check(workloads.scan_configs(3) != workloads.scan_configs(4), "scan configs differ across seeds")
    rho = workloads.custom_state(3)
    check((rho == workloads.custom_state(3)).all(), "custom state repeats for a seed")
    x_pattern = [(0, 0), (1, 1), (2, 2), (3, 3), (0, 3), (3, 0), (1, 2), (2, 1)]
    off_x = max(abs(rho[i, j]) for i in range(4) for j in range(4) if (i, j) not in x_pattern)
    low = workloads.np.linalg.eigvalsh(rho)[0]
    check(off_x > 1e-3 and low > 0.0 and abs(workloads.np.trace(rho) - 1.0) < 1e-12,
          "custom state is a valid non-X state")


def _snapshot() -> dict:
    return {(m.__name__, attr): value for m in tracer.qsink_modules()
            for attr, value in vars(m).items()}


def test_traced_equals_untraced(work: Path) -> None:
    import qsink.cli  # noqa: F401  (loads every traced module)

    before = _snapshot()
    for cls in (workloads.Evolve, workloads.Scan, workloads.Validate):
        workload = cls(work, 3)
        _, _, code, stdout, _ = run.run_child(workload.child_argv())
        child = workload.fingerprint(workload.child_output(stdout))
        untraced = workload.fingerprint(workload.run_inprocess()[1])
        with tracer.Tracer(run.TRACE_HOOKS) as active:
            traced = workload.fingerprint(workload.run_inprocess()[1])
        check(code == 0 and child == untraced == traced and len(traced) > 0,
              f"{cls.name}: child, untraced and traced outputs are identical")
        check(active.summary() and len(active.starts) > 0, f"{cls.name}: traced pass recorded spans")
        after = _snapshot()
        check(after.keys() == before.keys() and all(after[k] is before[k] for k in before),
              f"{cls.name}: every qsink name is the original again after tracing")


def _result(argv: list[str], cwd: Path) -> tuple[int, str]:
    proc = subprocess.run([sys.executable, *argv], cwd=cwd, capture_output=True, text=True,
                          timeout=180)
    return proc.returncode, proc.stdout


def test_metrics_present() -> dict:
    """Every named metric in the result line; returns the result lines by (workload, trace)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    results = {}
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        names = {m["name"] for m in spec[key]}
        for workload in workloads.WORKLOADS:
            code, stdout = _result(["perfbench/run.py", "--workload", workload, "--seed", "5",
                                    "--seconds", "1", "--trace", str(trace)], ROOT)
            result = json.loads(stdout.splitlines()[-1]) if code == 0 else {}
            check(set(result) == {"correct", "attempted", "failed", "metrics"}
                  and set(result["metrics"]) == names,
                  f"{workload} --trace {trace}: result line has every {key} metric")
            results[workload, trace] = result
    return results


def test_counts_fixed_per_seed(short: dict) -> None:
    """attempted and failed depend on the seed, not on the passes a run fits in."""
    code, stdout = _result(["perfbench/run.py", "--workload", "scan", "--seed", "5",
                            "--seconds", "4", "--trace", "0"], ROOT)
    longer = json.loads(stdout.splitlines()[-1]) if code == 0 else {}
    counts = [(r.get("attempted"), r.get("failed"))
              for r in (short["scan", 0], short["scan", 1], longer)]
    check(counts[0][0] == workloads.SCAN_CONFIGS and counts[0][1] > 0
          and counts[0] == counts[1] == counts[2],
          "scan: attempted and failed are the same for 1 s, 4 s and traced runs of a seed")


def test_fails_without_sources(work: Path) -> None:
    bare = work / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, stdout = _result(["perfbench/run.py", "--workload", "scan", "--seed", "0",
                            "--seconds", "1", "--trace", "0"], bare)
    shutil.rmtree(bare)
    check(code != 0 and '"metrics"' not in stdout, "without src/ the run exits non-zero, no result")


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    os.environ.pop("QSINK_VALIDATE_GRID", None)
    sys.path.insert(0, str(run.SRC))
    test_generators()
    test_traced_equals_untraced(run.WORK)
    test_counts_fixed_per_seed(test_metrics_present())
    test_fails_without_sources(run.WORK)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
