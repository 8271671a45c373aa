"""Benchmark of barypoly: one workload per run, end-to-end or traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep_small_p --seed 1 --seconds 20 --trace 0

With --trace 0 the last line of standard output is one JSON object with the
end-to-end metrics (setup_s, op_p50_ms, ops_per_s, peak_rss_mb); with
--trace 1 it holds the per-layer metrics of a separate traced run.  The full
record, with the environment, goes to .perfbench-out/.  Every process
started here runs BLAS and OpenMP at one thread.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from timing import calibrate, rescaled

WORKLOADS = ("sweep_small_p", "sweep_large_p", "cli")
SETUP_STARTS = 7  # fresh starts per run; setup_s is their median
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
RUN_DEADLINE_S = 170  # every worker is killed once the run is this old
OUT_DIR = ".perfbench-out"


class BenchError(RuntimeError):
    pass


def _start(cmd: list[str], env: dict, root: Path, deadline: float) -> tuple[float, dict | None]:
    """Run one worker; return seconds until it printed READY and its final record."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=root, text=True)
    watchdog = threading.Timer(max(deadline - t0, 1.0), proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first.strip() != "READY":
        raise BenchError(f"worker failed during set-up (exit {proc.returncode}): {(first + rest).strip()[-2000:]}")
    lines = rest.strip().splitlines()
    record = json.loads(lines[-1]) if lines else None
    if record is not None and "crash" in record:
        raise BenchError(f"worker crashed:\n{record['crash']}")
    if record is None and "setup" not in cmd:
        raise BenchError(f"worker ended without a result (exit {proc.returncode})")
    return ready, record


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "barypoly" / "__init__.py").is_file():
        print("error: run from the root of a barypoly checkout (src/barypoly not found)", file=sys.stderr)
        return 2
    out = root / OUT_DIR
    out.mkdir(exist_ok=True)
    os.environ.update(THREAD_ENV)  # before the calibration kernel loads numpy here
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    # bytecode caches are written as for any user, so only the first start compiles
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONHASHSEED"] = "0"
    worker = [sys.executable, str(Path(__file__).resolve().with_name("worker.py")),
              "--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--out", str(out), "--mode"]

    deadline = time.perf_counter() + RUN_DEADLINE_S
    try:
        if args.trace:
            _, record = _start(worker + ["trace"], env, root, deadline)
            metrics = record["metrics"]
        else:
            setups, calibrations = [], [calibrate(args.workload)]
            for _ in range(SETUP_STARTS - 1):
                setups.append(_start(worker + ["setup"], env, root, deadline)[0])
                calibrations.append(calibrate(args.workload))
            ready, record = _start(worker + ["timed"], env, root, deadline)
            setups.append(ready)
            # the timed worker calibrates right after READY
            calibrations.append(record["calibration_seconds"][0])
            ops = rescaled(record["op_seconds"], record["calibration_seconds"], args.workload)
            record.update(setup_seconds=setups, setup_calibration_seconds=calibrations)
            record["wall_clock_metrics"] = {
                "setup_s": statistics.median(setups),
                "op_p50_ms": 1e3 * statistics.median(record["op_seconds"]),
                "ops_per_s": record["attempted"] / sum(record["op_seconds"]),
            }
            metrics = {
                "setup_s": {"value": statistics.median(rescaled(setups, calibrations, args.workload)), "unit": "s"},
                "op_p50_ms": {"value": 1e3 * statistics.median(ops), "unit": "ms"},
                "ops_per_s": {"value": record["attempted"] / sum(ops), "unit": "1/s"},
                "peak_rss_mb": {"value": record["peak_rss_kb"] / 1024.0, "unit": "MB"},
            }
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for err in record["errors"]:
        print(f"output check failed: {err}", file=sys.stderr)
    result = {
        "correct": not record["errors"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }
    record.update(result, workload=args.workload, seed=args.seed, trace=args.trace)
    path = out / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"# env {json.dumps(record['env'])}")
    print(f"# full record: {path.relative_to(root)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
