"""In-process A/B timer of barypoly: named specs run from two source trees.

Usage, from anywhere:

    python3 tools/ab_inprocess.py PARENT_TREE CHANGE_TREE [--json]

A tree is a checkout (or an unpacked `git archive`) with src/barypoly in it.
In each of 10 sets, each spec runs in one fresh process that imports both
trees' barypoly under distinct package names, makes one warm-up call of the
spec from each, and then times 30 call pairs with time.perf_counter, the tree
that goes first alternating from pair to pair (and the first pair's order from
set to set).  Interleaving the two trees call by call in one process puts both
under the same host state, which drifts between processes.  Per spec the
script prints, over the sets, each side's median and quartiles of the set
medians, the ratio change / parent of the two medians, the number of sets
whose median the change won and the number of call pairs it won.  --json
prints the same as one JSON object, with every call's time.  Uses the
standard library and numpy only; BLAS and OpenMP run at one thread, as in
perfbench.

The specs:
    default     default_suite() at its defaults (the `barypoly verify` sweep)
    large_p     default_suite(p_values=(256, 1024), seeds_per_p=4)
    p1024x100   default_suite(p_values=(1024,), seeds_per_p=100)
    p16_32x100  default_suite(p_values=(16, 32), seeds_per_p=100)
    one_record  trajectory_checks on the record of `verify --weights
                0.3,0.08,0.06,0.04,0.01` (200 steps)
    static      default_suite(checks=...) with the checks of the tree's
                analysis._CHECKS that take "p_values", the checks of the
                stationary tuple, at the default p values
"""
from __future__ import annotations

import argparse
import importlib.util
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

SPECS = ("default", "large_p", "p1024x100", "p16_32x100", "one_record", "static")
SIDES = ("parent", "change")
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
              "p16_32x100": dict(p_values=(16, 32), seeds_per_p=100),
              "static": dict(checks=[name for name, (_, takes) in bp.analysis._CHECKS.items()
                                     if takes == "p_values"])}[spec]
    return lambda: bp.default_suite(**kwargs)


def _load(tree: str, name: str):
    # barypoly of the tree's src, imported as the package `name`; its modules
    # import one another relatively, so they load under that name too
    pkg = Path(tree).resolve() / "src" / "barypoly"
    spec = importlib.util.spec_from_file_location(name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    if not Path(module.analysis.__file__).resolve().is_relative_to(pkg):
        raise SystemExit(f"{name} loaded its analysis from {module.analysis.__file__}, not from {pkg}")
    return module


def _child(parent: str, change: str, spec: str, first: int) -> None:
    # One fresh process: the times of REPS call pairs, in ms, as JSON on
    # stdout; side `first` goes first in pair 0, the other side in pair 1.
    calls = [_spec_call(_load(tree, f"barypoly_{side}"), spec) for side, tree in zip(SIDES, (parent, change))]
    for call in calls:
        call()
    times = ([], [])
    for i in range(REPS):
        for side in (first, 1 - first) if i % 2 == 0 else (1 - first, first):
            t0 = time.perf_counter()
            calls[side]()
            times[side].append(1e3 * (time.perf_counter() - t0))
    print(json.dumps(dict(zip(SIDES, times))))


def _run(parent: str, change: str, spec: str, first: int) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"} | THREAD_ENV
    out = subprocess.run([sys.executable, __file__, "--child", parent, change, spec, str(first)],
                         env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def _summary(xs: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": statistics.median(xs), "q1": q1, "q3": q3}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--child"]:
        _child(argv[1], argv[2], argv[3], int(argv[4]))
        return 0
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="source tree of the parent (holds src/barypoly)")
    ap.add_argument("change", help="source tree of the change (holds src/barypoly)")
    ap.add_argument("--json", action="store_true", help="print one JSON object instead of the table")
    args = ap.parse_args(argv)
    for tree in (args.parent, args.change):
        if not (Path(tree) / "src" / "barypoly" / "__init__.py").is_file():
            ap.error(f"{tree} holds no src/barypoly")

    runs = {spec: [] for spec in SPECS}
    for i in range(SETS):
        for spec in SPECS:
            runs[spec].append(_run(args.parent, args.change, spec, i % 2))

    report = {}
    for spec in SPECS:
        sets = runs[spec]
        medians = {side: [statistics.median(s[side]) for s in sets] for side in SIDES}
        report[spec] = {
            "parent_ms": _summary(medians["parent"]), "change_ms": _summary(medians["change"]),
            "ratio": statistics.median(medians["change"]) / statistics.median(medians["parent"]),
            "change_faster_sets": sum(c < p for p, c in zip(medians["parent"], medians["change"])),
            "sets": SETS,
            "change_faster_pairs": sum(c < p for s in sets for p, c in zip(s["parent"], s["change"])),
            "pairs": SETS * REPS, "raw_ms": sets}
    if args.json:
        print(json.dumps(report, indent=1))
        return 0
    print(f"{'spec':<12} {'parent ms (q1-q3)':>24} {'change ms (q1-q3)':>24} {'ratio':>7} {'sets':>6} {'pairs':>8}")
    for spec, r in report.items():
        cells = [f"{s['median']:.3f} ({s['q1']:.3f}-{s['q3']:.3f})" for s in (r["parent_ms"], r["change_ms"])]
        print(f"{spec:<12} {cells[0]:>24} {cells[1]:>24} {r['ratio']:>7.3f} "
              f"{r['change_faster_sets']:>3}/{r['sets']} {r['change_faster_pairs']:>4}/{r['pairs']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
