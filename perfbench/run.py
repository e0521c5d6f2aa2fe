"""qsink benchmark: one workload per run, end-to-end or traced per layer.

    python3 perfbench/run.py --workload {evolve,scan,validate} --seed N \
        --seconds S --trace {0,1}

Run from a source checkout: qsink is imported from `src/`, nothing is
installed.  With `--trace 0` each pass of the workload is a child process
(BLAS threads set to 1), repeated for S seconds after set-up is timed; the
medians give the end-to-end metrics.  With `--trace 1` passes run inside
this process, alternating untraced and traced, and the traced ones give the
per-layer metrics.  Every output is checked outside the timed regions.
Report lines go first; the last line of stdout is the JSON result
{"correct", "attempted", "failed", "metrics"}.  Exits 2 without a result
when the qsink sources are missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "_work"

BLAS_THREADS = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
}
# Thread counts are fixed before numpy loads, in this process and its children.
os.environ.update(BLAS_THREADS)
import workloads  # noqa: E402  (this directory is first on sys.path)

MACHINE_NOTE = "no CPU pinning, frequency control or cache dropping was used"
SETUP_BLOCKS = 5
IMPORTS_PER_BLOCK = 3
IMPORTTIME_REPEATS = 3
MIN_PASSES = 3
MIN_TRACED_PAIRS = 2
CHILD_TIMEOUT_S = 120
CALIBRATION_NOMINAL_S = 0.25

# Metric names and units, as BENCHMARK.json at the checkout root declares them.
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}


class ChildTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise ChildTimeout


def child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC), **BLAS_THREADS)
    env.pop("QSINK_VALIDATE_GRID", None)
    return env


def run_child(argv: list[str]) -> tuple[float, float, int, bytes, bytes]:
    """Run one child to completion: (wall_s, peak_rss_mb, exit code, stdout, stderr)."""
    out_path, err_path = WORK / "child.out", WORK / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        signal.signal(signal.SIGALRM, _on_alarm)
        signal.alarm(CHILD_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except ChildTimeout:
            proc.kill()
            proc.wait()
            raise
        finally:
            signal.alarm(0)
        wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode, out_path.read_bytes(), err_path.read_bytes()


def _import_child() -> list[str]:
    return [sys.executable, "-c", "import qsink.cli"]


def importtime_split() -> tuple[float, float]:
    """(numpy, rest of `import qsink.cli`) cumulative seconds from -X importtime."""
    _, _, code, _, err = run_child([sys.executable, "-X", "importtime", "-c", "import qsink.cli"])
    cumulative = {}
    for line in err.decode().splitlines():
        if line.startswith("import time:") and "|" in line:
            _, cum, name = line.split("|")
            if cum.strip().isdigit():
                cumulative[name.strip()] = int(cum) * 1e-6
    if code != 0 or "qsink.cli" not in cumulative or "numpy" not in cumulative:
        raise RuntimeError("import qsink.cli failed under -X importtime")
    return cumulative["numpy"], cumulative["qsink.cli"] - cumulative["numpy"]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def run_record(args: argparse.Namespace) -> dict:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown (not a git checkout)"
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": commit, "python": platform.python_version(),
        "numpy": numpy.__version__, "nproc": os.cpu_count(), "blas_threads": BLAS_THREADS,
        "calibration_nominal_s": CALIBRATION_NOMINAL_S, "note": MACHINE_NOTE,
    }


class Calibration:
    """Scales child wall times to a machine of fixed speed.

    On a shared machine other tenants slow every process by tens of percent,
    in phases of a few seconds.  A calibration child (`calibrate.py`, no
    qsink) runs before and after each timed block; the block's times are
    scaled by CALIBRATION_NOMINAL_S over the mean of those two, so they read
    as seconds on a machine where the calibration takes CALIBRATION_NOMINAL_S.
    """

    def __init__(self) -> None:
        self.samples = [self._measure()]

    @staticmethod
    def _measure() -> float:
        wall, _, code, _, err = run_child([sys.executable, str(BENCH_DIR / "calibrate.py")])
        if code != 0:
            raise RuntimeError(f"calibration child failed: {err.decode(errors='replace')}")
        return wall

    def scale_since_last(self) -> float:
        """Factor for the block timed since the previous calibration."""
        self.samples.append(self._measure())
        return CALIBRATION_NOMINAL_S / (0.5 * (self.samples[-2] + self.samples[-1]))


def end_to_end(workload, args: argparse.Namespace) -> tuple[dict, workloads.Tally, dict]:
    run_child(_import_child())  # warm-up: byte-compile, fill the page cache
    calibration = Calibration()
    setup, raw_setup = [], []
    for _ in range(SETUP_BLOCKS):
        block = []
        for _ in range(IMPORTS_PER_BLOCK):
            wall, _, code, _, err = run_child(_import_child())
            if code != 0:
                raise RuntimeError(f"import qsink.cli failed: {err.decode(errors='replace')}")
            block.append(wall)
        scale = calibration.scale_since_last()
        setup += [wall * scale for wall in block]
        raw_setup += block

    walls, raw_walls, rss, per_s, latencies = [], [], [], [], []
    tally, first = workloads.Tally(), None
    deadline = perf_counter() + args.seconds
    while len(walls) < MIN_PASSES or perf_counter() < deadline:
        wall, peak, code, stdout, _ = run_child(workload.child_argv())
        scale = calibration.scale_since_last()
        output = workload.child_output(stdout)
        verdict = workload.check(code, output)
        fingerprint = workload.fingerprint(output)
        first = fingerprint if first is None else first
        tally.add(verdict, fingerprint == first)
        walls.append(wall * scale)
        raw_walls.append(wall)
        rss.append(peak)
        per_s.append((verdict.answers if fingerprint == first else 0) / (wall * scale))
        latencies += [latency * scale for latency in verdict.latencies_s]

    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "answers_per_s": statistics.median(per_s),
        "peak_rss_mb": statistics.median(rss),
    }
    extra = {"passes": len(walls), "setup_children": len(setup),
             "raw_setup_s": statistics.median(raw_setup), "raw_wall_s": statistics.median(raw_walls),
             "calibration_s": statistics.median(calibration.samples),
             "calibration_children": len(calibration.samples)}
    if latencies:
        extra["item_p50_ms"] = statistics.median(latencies) * 1e3
        extra["item_p99_ms"] = percentile(latencies, 99.0) * 1e3
        extra["item_samples"] = len(latencies)
    return metrics, tally, extra


def _rk4_steps(args, kwargs, result, counters) -> None:
    """Sum of ceil(t / dt) over oracle calls, with the oracle's own step rules."""
    import inspect

    from qsink import dynamics

    bound = inspect.signature(dynamics.ptm_via_integration).bind(*args, **kwargs).arguments
    params, t, dt = bound["params"], bound["t"], bound.get("dt")
    if t == 0.0:
        return
    if dt is None:
        dt = 1e-4 / params.max_rate if params.max_rate > 0.0 else 1e-4
    counters["rk4_steps"] += min(max(1, math.ceil(t / dt)), dynamics.MAX_RK4_STEPS)


def _count_root(args, kwargs, result, counters) -> None:
    counters["roots"] += result.tau is not None


TRACE_HOOKS = {"dynamics.ptm_via_integration": _rk4_steps, "entanglement.max_lifetime": _count_root}


def layer_metrics(tracer, cli_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass (set-up and overhead come later)."""
    spans = tracer.summary()
    metrics = {}
    for metric in PER_LAYER_UNITS:
        name, _, field = metric.rpartition(".")
        if field in ("calls", "busy_s", "errors"):
            metrics[metric] = spans.get(name, {}).get(field, 0)
    roots = tracer.counters["roots"]
    metrics.update({
        "dynamics.ptm_via_integration.rk4_steps": tracer.counters["rk4_steps"],
        # two pd_inverse calls per fixed-point step, both bound in qsink.sinkhorn
        "sinkhorn.fixed_point_iterate.iterations":
            tracer.binding_calls[("qsink.sinkhorn", "linalg.pd_inverse")] / 2,
        "entanglement.g_evals_per_root": metrics["entanglement.lifetime_lhs.calls"] / roots
            if roots else 0.0,
        "cli.main.self_s": sum(s["self_s"] for name, s in spans.items() if name.startswith("cli.")),
        "cli.output_bytes": cli_bytes,
    })
    return metrics


def traced(workload, args: argparse.Namespace) -> tuple[dict, workloads.Tally, dict]:
    import tracer as tracing

    imports = [importtime_split() for _ in range(IMPORTTIME_REPEATS)]

    workload.run_inprocess()  # warm-up: lazy imports and first-call set-up
    untraced_walls, traced_walls, per_pass = [], [], []
    tally, last = workloads.Tally(), None
    deadline = perf_counter() + args.seconds
    while len(traced_walls) < MIN_TRACED_PAIRS or perf_counter() < deadline:
        start = perf_counter()
        code, output, _ = workload.run_inprocess()
        untraced_walls.append(perf_counter() - start)
        expected = workload.fingerprint(output)

        with tracing.Tracer(TRACE_HOOKS) as tracer:
            start = perf_counter()
            code, output, cli_bytes = workload.run_inprocess()
            traced_walls.append(perf_counter() - start)
        verdict = workload.check(code, output)
        tally.add(verdict, workload.fingerprint(output) == expected)
        per_pass.append(layer_metrics(tracer, cli_bytes))
        last = tracer
    last.save(WORK / f"spans-{workload.name}.npz")

    metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    metrics["setup.numpy_import_s"] = statistics.median(n for n, _ in imports)
    metrics["setup.qsink_import_s"] = statistics.median(q for _, q in imports)
    metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(untraced_walls)
    extra = {"traced_passes": len(traced_walls),
             "untraced_wall_s": statistics.median(untraced_walls),
             "traced_wall_s": statistics.median(traced_walls)}
    return metrics, tally, extra


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("evolve", "scan", "validate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qsink" / "cli.py").is_file():
        print(f"qsink sources not found under {SRC}", file=sys.stderr)
        return 2

    os.environ.pop("QSINK_VALIDATE_GRID", None)
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](WORK, args.seed)
    measure = traced if args.trace else end_to_end
    metrics, tally, extra = measure(workload, args)
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    metrics = {name: metrics[name] for name in units}

    print(json.dumps({"run_record": run_record(args)}))
    print(json.dumps({"report": {**extra, **tally.report()}}))
    for name, value in metrics.items():
        print(f"{args.workload:9s} {name:42s} {value:>16.6g} {units[name]}")
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
