"""Timing helpers: a blocking child-process timer and the machine-speed calibration.

The machine the benchmark was built on runs the same code at speeds up to
1.4x apart, switching every few seconds.  Each end-to-end time is therefore
rescaled to a reference speed: a fixed calibration kernel is timed right
before and right after the measured interval, and the interval is
multiplied by CALIBRATION_REF_S over the mean of the two kernel times.
"""
from __future__ import annotations

import functools
import math
import random
import subprocess
import threading
import time

# The kernels' times on the reference machine: their medians on the
# benchmark's build machine (2 vCPU, Python 3.11, numpy 2.4, one BLAS thread).
CALIBRATION_REF_S = {False: 0.022, True: 0.044}
# workloads whose op spends about half its time in dense products
DENSE_WORKLOADS = ("sweep_large_p",)
DENSE_P = 1024
DENSE_PRODUCTS = 40


@functools.cache
def _states() -> tuple:
    rng = random.Random(20261017)
    return tuple(tuple(rng.uniform(0.01, 0.99) for _ in range(5)) for _ in range(4000))


@functools.cache
def _dense():
    import numpy as np

    return np.full((DENSE_P, DENSE_P), -0.5), np.ones(DENSE_P)


def calibrate(workload: str) -> float:
    """Wall seconds of the fixed calibration kernel.

    The kernel does in plain Python what the program mostly does: log sums
    with fsum, expm1, small tuples, a dict and a sort.  It slows down with
    the machine the way the program does; a tight integer loop tracked the
    program's speed half as well (per-op spread 11 % against 5.6 %).  For
    the DENSE_WORKLOADS it also takes DENSE_PRODUCTS products of a dense
    p = 1024 matrix, about as long as the Python part: spectral_check at
    p = 1024 is such a product loop, memory-bound, and its speed follows the
    memory system, not the interpreter.  The matrix is kept for the life of
    the process (8 MB of resident memory): made afresh per call, it
    sometimes stayed in the heap beside the program's own and moved the
    peak by 8 MB in one run of ten.
    """
    dense = workload in DENSE_WORKLOADS
    states = _states()
    matrix, vector = _dense() if dense else (None, None)
    t0 = time.perf_counter()
    rows, latest = [], {}
    for j, u in enumerate(states):
        total = math.fsum(math.log(v) for v in u)
        nxt = tuple(-math.expm1(total - math.log(v)) for v in u)
        rows.append(nxt)
        latest[j % 1000] = nxt
    rows.sort()
    for _ in range(DENSE_PRODUCTS if dense else 0):
        matrix @ vector
    return time.perf_counter() - t0


def rescaled(seconds: list[float], calibrations: list[float], workload: str) -> list[float]:
    """Interval i, with calibrations[i] before it and calibrations[i + 1] after, at reference speed."""
    ref = CALIBRATION_REF_S[workload in DENSE_WORKLOADS]
    return [s * 2 * ref / (calibrations[i] + calibrations[i + 1]) for i, s in enumerate(seconds)]


def run_child(argv: list[str], timeout_s: float, **popen_kwargs) -> tuple[int, float]:
    """Run argv to completion; return its exit code and wall seconds.

    subprocess.run(timeout=...) polls for the exit with sleeps of up to
    50 ms, which would quantize every measured time; the wait here blocks
    in waitpid instead, and a timer kills the child if it overstays.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, **popen_kwargs)
    watchdog = threading.Timer(timeout_s, proc.kill)
    watchdog.start()
    try:
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return code, time.perf_counter() - t0
