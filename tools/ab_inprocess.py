"""In-process A/B timer of barypoly: named specs run from two source trees.

Usage, from anywhere:

    python3 tools/ab_inprocess.py PARENT_TREE CHANGE_TREE [--json]

A tree is a checkout (or an unpacked `git archive`) with src/barypoly in it.
In each of 10 sets, each spec runs in one fresh process per tree, the two
processes back to back and the tree that goes first alternating from set to
set.  A process imports barypoly from its tree's src, makes one warm-up call
of the spec and then times 30 calls with time.perf_counter; it reports their
median.  Per spec the script prints, over the sets, each side's median and
quartiles of those medians, the ratio change / parent of the two medians, and
the number of sets in which the change was faster.  --json prints the same as
one JSON object.  Uses the standard library and numpy only; BLAS and OpenMP
run at one thread, as in perfbench.

The specs:
    default     default_suite() at its defaults (the `barypoly verify` sweep)
    large_p     default_suite(p_values=(256, 1024), seeds_per_p=4)
    p1024x100   default_suite(p_values=(1024,), seeds_per_p=100)
    p16_32x100  default_suite(p_values=(16, 32), seeds_per_p=100)
    one_record  trajectory_checks on the record of `verify --weights
                0.3,0.08,0.06,0.04,0.01` (200 steps)
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

SPECS = ("default", "large_p", "p1024x100", "p16_32x100", "one_record")
SETS = 10
REPS = 30
ONE_RECORD_WEIGHTS = (0.3, 0.08, 0.06, 0.04, 0.01)
THREAD_ENV = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                                     "NUMEXPR_NUM_THREADS")}


def _spec_call(bp, spec: str):
    # the call that one timed repetition of spec makes
    if spec == "one_record":
        t0 = bp.WeightTuple.of(ONE_RECORD_WEIGHTS)
        record = bp.run_trajectory(bp.conjugate_of(t0), 200, bp.solve_alpha(t0.p))
        return lambda: bp.trajectory_checks(record)
    kwargs = {"default": {}, "large_p": dict(p_values=(256, 1024), seeds_per_p=4),
              "p1024x100": dict(p_values=(1024,), seeds_per_p=100),
              "p16_32x100": dict(p_values=(16, 32), seeds_per_p=100)}[spec]
    return lambda: bp.default_suite(**kwargs)


def _child(tree: str, spec: str) -> None:
    # One fresh process: the median of REPS timed calls, in ms, on stdout.
    src = Path(tree).resolve() / "src"
    sys.path.insert(0, str(src))
    import barypoly as bp

    if not Path(bp.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"imported barypoly from {bp.__file__}, not from {src}")
    call = _spec_call(bp, spec)
    call()
    times = []
    for _ in range(REPS):
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    print(1e3 * statistics.median(times))


def _run(tree: str, spec: str) -> float:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"} | THREAD_ENV
    out = subprocess.run([sys.executable, __file__, "--child", tree, spec],
                         env=env, capture_output=True, text=True, check=True)
    return float(out.stdout.split()[-1])


def _summary(xs: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": statistics.median(xs), "q1": q1, "q3": q3}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--child"]:
        _child(argv[1], argv[2])
        return 0
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="source tree of the parent (holds src/barypoly)")
    ap.add_argument("change", help="source tree of the change (holds src/barypoly)")
    ap.add_argument("--json", action="store_true", help="print one JSON object instead of the table")
    args = ap.parse_args(argv)
    for tree in (args.parent, args.change):
        if not (Path(tree) / "src" / "barypoly" / "__init__.py").is_file():
            ap.error(f"{tree} holds no src/barypoly")

    times = {spec: {"parent": [], "change": []} for spec in SPECS}
    for i in range(SETS):
        for spec in SPECS:
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                times[spec][side].append(_run(getattr(args, side), spec))

    report = {}
    for spec in SPECS:
        parent, change = times[spec]["parent"], times[spec]["change"]
        report[spec] = {
            "parent_ms": _summary(parent), "change_ms": _summary(change),
            "ratio": statistics.median(change) / statistics.median(parent),
            "change_faster_sets": sum(c < p for p, c in zip(parent, change)), "sets": SETS,
            "reps": REPS, "raw_ms": times[spec]}
    if args.json:
        print(json.dumps(report, indent=1))
        return 0
    print(f"{'spec':<12} {'parent ms (q1-q3)':>24} {'change ms (q1-q3)':>24} {'ratio':>7} {'wins':>6}")
    for spec, r in report.items():
        cells = [f"{s['median']:.3f} ({s['q1']:.3f}-{s['q3']:.3f})" for s in (r["parent_ms"], r["change_ms"])]
        print(f"{spec:<12} {cells[0]:>24} {cells[1]:>24} {r['ratio']:>7.3f} "
              f"{r['change_faster_sets']:>3}/{r['sets']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
