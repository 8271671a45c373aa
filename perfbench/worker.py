"""One benchmark process: set up a workload, time it, then check its outputs.

run.py starts this script; it is not meant to be run by hand.  It prints
READY once set-up is done (imports, inputs, one warm-up operation).  In
"setup" mode it then exits; in "timed" mode it runs whole rounds of the
workload's operations until --seconds have passed, checks every output
outside the timed region and prints one JSON line; in "trace" mode it
hands over to layers.trace_run.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import functools
import glob
import io
import json
import os
import platform
import random
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

# checks and layers live beside this file; they are imported after the timed
# region so that set-up times only the program's own imports
sys.path.insert(0, str(Path(__file__).resolve().parent))

from timing import calibrate, run_child  # noqa: E402

# default_suite's shipped defaults, which `barypoly verify` also uses.
SMALL_P = dict(p_values=(3, 4, 5, 6, 7, 8), seeds_per_p=100, max_steps=400)
LARGE_P = dict(p_values=(256, 1024), seeds_per_p=4, max_steps=400)
# `dual` is left out: its CSV fails the mpmath check on every input (see
# README, "Known faults"), so it cannot run in a cycle that must not fail.
CLI_COMMANDS = ("alpha", "trajectory", "verify", "figure")
TRAJECTORY_STEPS = 200
COMMAND_TIMEOUT_S = 60


class Sweep:
    """One op is a default_suite call with its own rng_seed.

    sweep_small_p draws the rng_seeds from --seed.  Every sweep_large_p op
    fails on the known phase_alternation fault, so its rng_seeds are the op
    indices 0, 1, 2, ... whatever --seed is: the failure count then cannot
    depend on the seed.
    """

    def __init__(self, name: str, seed: int, workdir: Path):
        self.name = name
        self.spec = SMALL_P if name == "sweep_small_p" else LARGE_P
        self.allow_known_fault = name == "sweep_large_p"
        self._gen = None if self.allow_known_fault else random.Random(f"{name}:{seed}")
        self._rng_seeds: list[int] = []
        self.outputs: list = []

    def rng_seed(self, k: int) -> int:
        if self._gen is None:
            return k
        while len(self._rng_seeds) <= k:
            self._rng_seeds.append(self._gen.randrange(2**32))
        return self._rng_seeds[k]

    def sweep_spec(self) -> dict:
        return dict(self.spec, rng_seed=self.rng_seed(1))

    def setup(self) -> None:
        from barypoly import analysis

        self.analysis = analysis
        analysis.default_suite(rng_seed=self.rng_seed(0), **self.spec)

    def op(self, k: int):
        return self.analysis.default_suite(rng_seed=self.rng_seed(k), **self.spec)

    def round_ops(self, k: int) -> list:
        """The ops of round k, each a call that returns its own wall seconds."""
        return [functools.partial(self._timed_op, k)]

    def _timed_op(self, k: int) -> float:
        t0 = time.perf_counter()
        out = self.op(k)
        elapsed = time.perf_counter() - t0
        self.outputs.append(out)
        return elapsed

    def check_outputs(self, outputs) -> tuple[int, list[str]]:
        import checks

        traj_names = _trajectory_check_names()
        expected = [n for n in self.analysis.KNOWN_CHECKS
                    if n != "unique_fixed_point_grid" or 3 in self.spec["p_values"]]
        swept = len(self.spec["p_values"]) * self.spec["seeds_per_p"]
        failed, errors = 0, []
        for results in outputs:
            failed += any(not r.passed for r in results)
            try:
                checks.check_sweep(results, expected, traj_names, swept, self.allow_known_fault)
            except checks.OutputError as exc:
                errors.append(str(exc))
        return failed, errors

    def check(self) -> tuple[int, list[str]]:
        import checks

        failed, errors = self.check_outputs(self.outputs)
        control = self.analysis.default_suite(rng_seed=self.rng_seed(1), inject_fault=True, **self.spec)
        try:
            checks.check_negative_control(control)
        except checks.OutputError as exc:
            errors.append(str(exc))
        return failed, errors

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Cli:
    """One op is a fresh `python -m barypoly.cli` process; a round runs each command once."""

    commands = CLI_COMMANDS

    def __init__(self, name: str, seed: int, workdir: Path):
        self.name = name
        self.seed = seed
        self.dir = workdir
        self.runs: list[tuple[int, str, int]] = []  # (round, command, exit code)

    def inputs(self, k: int) -> dict:
        g = random.Random(f"cli:{self.seed}:{k}")

        def weights(lo: float, hi: float) -> list[float]:
            return [float(f"{g.uniform(lo, hi):.6f}") for _ in range(5)]

        return {
            "alpha": g.randint(3, 64),
            "trajectory": weights(0.02, 0.98),
            "verify": weights(0.02, 0.98),
            # near-equal small weights keep both superposed families near
            # 60-140 drawn polygons, so the figure costs the same every round
            "figure": weights(0.12, 0.18),
        }

    def sweep_spec(self) -> dict:
        # the traced run's sweep-based metrics use p = 5, like the commands
        return dict(p_values=(5,), seeds_per_p=12, max_steps=200,
                    rng_seed=random.Random(f"cli:{self.seed}").randrange(2**32))

    def out_path(self, k: int, cmd: str, tag: str = "") -> Path:
        return self.dir / f"r{k}-{cmd}{tag}.{'svg' if cmd == 'figure' else 'csv'}"

    def argv(self, k: int, cmd: str, tag: str = "") -> list[str]:
        """Arguments for barypoly.cli.main."""
        inp = self.inputs(k)
        if cmd == "alpha":
            return ["alpha", "--p", str(inp["alpha"]), "--json"]
        w = ",".join(f"{v:.6f}" for v in inp[cmd])
        if cmd == "verify":
            return ["verify", "--weights", w]
        if cmd == "figure":
            return ["figure", "--weights", w, "--superpose", "--out", str(self.out_path(k, cmd, tag))]
        return [cmd, "--weights", w, "--steps", str(TRAJECTORY_STEPS), "--out", str(self.out_path(k, cmd, tag))]

    def stdout_path(self, k: int, cmd: str, tag: str = "") -> Path:
        return self.dir / f"r{k}-{cmd}{tag}.stdout"

    def run_command(self, k: int, cmd: str, tag: str = "") -> tuple[float, int]:
        argv = [sys.executable, "-m", "barypoly.cli", *self.argv(k, cmd, tag)]
        with open(self.stdout_path(k, cmd, tag), "wb") as out, open(self.dir / "stderr.log", "ab") as err:
            code, elapsed = run_child(argv, COMMAND_TIMEOUT_S, stdout=out, stderr=err)
        return elapsed, code

    def setup(self) -> None:
        self.run_command(0, "alpha")

    def round_ops(self, k: int) -> list:
        """The ops of round k, each a call that returns its own wall seconds."""
        return [functools.partial(self._timed_command, k, cmd) for cmd in self.commands]

    def _timed_command(self, k: int, cmd: str) -> float:
        elapsed, code = self.run_command(k, cmd)
        self.runs.append((k, cmd, code))
        return elapsed

    def check_command(self, k: int, cmd: str, code: int, stdout: str, traj_names, rerun: bytes | None) -> None:
        import checks

        if code != 0:
            raise checks.OutputError(f"exit code {code}")
        inp = self.inputs(k)
        if cmd == "alpha":
            checks.check_alpha_json(stdout, inp["alpha"])
        elif cmd == "trajectory":
            text = self.out_path(k, cmd).read_text(encoding="utf-8")
            checks.check_trajectory_csv(text, inp[cmd], TRAJECTORY_STEPS, stdout)
        elif cmd == "verify":
            checks.check_verify_output(stdout, code, traj_names)
        else:
            checks.check_svg(self.out_path(k, cmd).read_bytes(), stdout, rerun)

    def check_outputs(self, outputs, rerun: bytes | None = None) -> tuple[int, list[str]]:
        """outputs: (round, command, exit code, stdout); rerun: the first round's figure, made again."""
        import checks

        traj_names = _trajectory_check_names()
        failed, errors = 0, []
        for k, cmd, code, stdout in outputs:
            failed += code != 0
            again = rerun if (k, cmd) == (outputs[0][0], "figure") else None
            try:
                self.check_command(k, cmd, code, stdout, traj_names, again)
            except (checks.OutputError, ValueError, KeyError, OSError) as exc:
                errors.append(f"{cmd} round {k}: {exc}")
        return failed, errors

    def check(self) -> tuple[int, list[str]]:
        # a second figure run on the first round must write identical bytes
        first = self.runs[0][0]
        self.run_command(first, "figure", "-rerun")
        outputs = [(k, cmd, code, self.stdout_path(k, cmd).read_text(encoding="utf-8"))
                   for k, cmd, code in self.runs]
        return self.check_outputs(outputs, self.out_path(first, "figure", "-rerun").read_bytes())

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    def run_in_process(self, main, k: int, cmd: str) -> tuple[int, str]:
        """barypoly.cli.main on one command of round k, stdout captured."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(self.argv(k, cmd))
        return code, buf.getvalue()


def _trajectory_check_names() -> list[str]:
    from barypoly import ConjugateTuple, run_trajectory, solve_alpha, trajectory_checks

    probe = run_trajectory(ConjugateTuple.of((0.2, 0.5, 0.8)), 10, solve_alpha(3))
    return [r.name for r in trajectory_checks(probe)]


def make_workload(name: str, seed: int, workdir: Path):
    return (Cli if name == "cli" else Sweep)(name, seed, workdir)


def _openblas_threads() -> int | None:
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def env_record() -> dict:
    """Thread setting and versions the figures were measured with."""
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads_in_use": _openblas_threads(),
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def timed_pass(wl, seconds: float) -> dict:
    """Whole rounds until `seconds` have passed, a calibration loop between ops."""
    times: list[float] = []
    calibrations = [calibrate(wl.name)]
    start = time.perf_counter()
    k = 1
    while True:
        for op in wl.round_ops(k):
            times.append(op())
            calibrations.append(calibrate(wl.name))
        k += 1
        if time.perf_counter() - start >= seconds:
            break
    wall = time.perf_counter() - start
    peak = wl.peak_rss_kb()
    failed, errors = wl.check()
    return {
        "attempted": len(times),
        "failed": failed,
        "errors": errors,
        "op_seconds": times,
        "calibration_seconds": calibrations,
        "wall_seconds": wall,
        "peak_rss_kb": peak,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "timed", "trace"))
    ap.add_argument("--out", required=True, help="directory for outputs, traces and working files")
    args = ap.parse_args(argv)

    out = Path(args.out)
    workdir = out / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        wl = make_workload(args.workload, args.seed, workdir)
        wl.setup()
        print("READY", flush=True)
        if args.mode == "setup":
            return 0
        if args.mode == "trace":
            import layers

            cli_wl = wl if args.workload == "cli" else Cli("cli", args.seed, workdir)
            record = layers.trace_run(wl, cli_wl, out / f"trace-{args.workload}-seed{args.seed}.json")
        else:
            record = timed_pass(wl, args.seconds)
        record["env"] = env_record()
    except Exception:  # report to run.py rather than die without a result line
        record = {"crash": traceback.format_exc()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
