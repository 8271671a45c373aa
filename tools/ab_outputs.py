"""Output A/B check of barypoly: two source trees must give the same bytes.

Usage, from anywhere:

    python3 tools/ab_outputs.py PARENT_TREE CHANGE_TREE

A tree is a checkout (or an unpacked `git archive`) with src/barypoly in it.
Both trees' barypoly are imported into this process under distinct package
names, as tools/ab_inprocess.py does, and compared on:

  - the JSON report of default_suite for every spec of SUITE_SPECS, with
    every check and with each check of KNOWN_CHECKS alone;
  - the states and the JSON of trajectory_checks of a clean record at every
    p of RECORD_P and every step count of RECORD_STEPS, and of its edits: its
    _perturbed_record and the hand edits of RECORD_EDITS, each built with
    dataclasses.replace on the record, so that both trees check the same
    input;
  - every field of the _Batch that _run_batch builds, its cached arrays
    (valid, low, high, pair_noise) included, by dtype, shape and sha256 of
    the bytes: at every p of BATCH_P and every step count of RECORD_STEPS,
    for each family of _seed_families and for all families in one batch;
  - every invocation of CLI_CASES, run as `python -m barypoly.cli` of the
    tree in a fresh temporary directory per tree that holds INPUT_FILES:
    stdout, stderr, exit code and every file the directory holds afterwards.

An exception is compared by its type and message.  The script prints the
counts compared, or the first difference, and exits 1 on a difference.
Uses the standard library and numpy only.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from ab_inprocess import THREAD_ENV, _load

SUITE_SPECS = (
    {},
    *({"rng_seed": s} for s in range(100, 108)),
    {"p_values": (256, 1024), "seeds_per_p": 4},
    {"p_values": (16, 32), "seeds_per_p": 100},
    {"p_values": (1024,), "seeds_per_p": 100},
    {"p_values": (64,), "seeds_per_p": 200},
    {"inject_fault": True},
    {"p_values": (3, 8), "seeds_per_p": 20, "rng_seed": 9, "inject_fault": True},
    {"max_steps": 0},
    {"max_steps": 3},
)
RECORD_P = (3, 4, 5, 8, 16, 64, 1024)
RECORD_STEPS = (0, 1, 400)
BATCH_P = (2, 3, 4, 5, 8, 16, 32, 33, 64, 256, 1024)
BATCH_ROWS = 8


def _edited_state_2(record, edit):
    # the record with state 2 replaced by edit(state 2), if it has one
    if len(record) < 3:
        return None
    states = record.states.copy()
    states[2] = edit(states[2])
    return dataclasses.replace(record, states=states)


def _halved_saturation_component_1(record):
    # the record with component 1 of its saturating state set to half of
    # component 0, if it saturated: an unsorted state whose least component
    # is not its first
    if record.saturation_values is None:
        return None
    values = record.saturation_values.copy()
    values[1] = values[0] / 2
    return dataclasses.replace(record, saturation_values=values)


# Hand edits of a record: name -> edit(record), None where the record has no
# field to edit.  The saturating state's code flipped, its components
# mirrored, 1 - v, and its component 1 halved against component 0; state 2's
# two smallest components swapped, and its smallest nudged up by a relative
# 1e-9.
RECORD_EDITS = {
    "flipped_saturation_phase": lambda rec: None if rec.saturation_phase is None else dataclasses.replace(
        rec, saturation_phase=-rec.saturation_phase),
    "mirrored_saturation_values": lambda rec: None if rec.saturation_values is None else dataclasses.replace(
        rec, saturation_values=1.0 - rec.saturation_values),
    "halved_saturation_component_1": _halved_saturation_component_1,
    "swapped_pair_at_2": lambda rec: _edited_state_2(rec, lambda u: u[[1, 0, *range(2, len(u))]]),
    "nudged_1e-9_at_2": lambda rec: _edited_state_2(rec, lambda u: u * np.r_[1.0 + 1e-9, np.ones(len(u) - 1)]),
}

SEED = "0.3,0.08,0.06,0.04,0.01"
INPUT_FILES = {
    "points.json": "[[0.0, 0.0], [2.0, 0.1], [1.7, 1.3], [-0.4, 0.9]]\n",
    "config.json": json.dumps({"p": 5, "weights": [0.2, 0.5, 0.7], "max_steps": 3, "seed": 4,
                               "output_dir": "figs"}) + "\n",
    "unknown_key.json": '{"bogus": 1}\n',
    "wrong_type.json": '{"p": "five"}\n',
}
CLI_CASES = (
    ["--help"], [],
    *([cmd, "--help"] for cmd in ("alpha", "trajectory", "dual", "verify", "figure")),
    *([cmd, "--bogus"] for cmd in ("alpha", "trajectory", "dual", "verify", "figure")),
    ["alpha"], ["trajectory"], ["dual"], ["figure"],
    ["alpha", "--p", "7"], ["alpha", "--p", "7", "--json"], ["alpha", "--p", "2"],
    ["trajectory", "--weights", SEED, "--steps", "100"],
    ["trajectory", "--weights", "0.15,0.5,0.85", "--out", "trajectory.csv"],
    ["trajectory", "--weights", "0.5,1.5"],
    ["dual", "--weights", SEED, "--steps", "60"],
    ["dual", "--weights", "0.3,0.4"],
    ["dual", "--weights", "0.2,0.5,0.7,0.4", "--points-file", "points.json", "--out", "dual.csv"],
    ["verify", "--weights", "0.2,0.5,0.7,0.8", "--json"],
    ["verify", "--weights", "0.2,0.5,0.7", "--inject-fault", "--json"],
    ["verify", "--weights", "0.2,0.5,0.7", "--p", "3"],
    ["verify", "--p", "5", "--seeds", "10", "--json"],
    ["verify", "--p", "4", "--seeds", "5", "--inject-fault"],
    ["verify", "--seeds", "3", "--seed", "2", "--out", "report.json"],
    ["verify", "--p", "5", "--check", "spectral", "--check", "contraction_certificates"],
    ["verify", "--check", "nope"],
    ["verify", "--p", "4", "--check", "unique_fixed_point_grid"],
    ["alpha", "--config", "config.json"],
    ["trajectory", "--config", "config.json"],
    ["verify", "--config", "config.json", "--json"],
    ["figure", "--config", "config.json"],
    ["alpha", "--config", "unknown_key.json"],
    ["alpha", "--config", "wrong_type.json"],
    ["alpha", "--config", "missing.json"],
    ["figure", "--weights", "0.2,0.5,0.7", "--superpose"],
    ["figure", "--weights", "0.2,0.5,0.7,0.4", "--order", "2", "--points-file", "points.json", "--out", "fig.svg"],
    ["figure", "--weights", "0.2,0.5,0.7", "--superpose", "--order", "1"],
    ["figure", "--weights", "0.2,0.5,0.7", "--order", "-1"],
)


def _outcome(fn) -> str:
    # fn's JSON, or its exception's type and message
    try:
        return json.dumps(fn(), sort_keys=True)
    except Exception as exc:  # noqa: BLE001 - an exception is an outcome to compare
        return f"raises {type(exc).__name__}: {exc}"


def _seed_families(p: int, alpha: float) -> dict[str, np.ndarray]:
    # name -> (BATCH_ROWS, p) seeds strictly inside (0, 1)
    rng = np.random.default_rng(p)
    shape = (BATCH_ROWS, p)
    edge = rng.uniform(1e-12, 1e-9, size=shape)
    return {
        "uniform": rng.uniform(1e-3, 1.0 - 1e-3, size=shape),
        "alpha+-1e-3": alpha * (1.0 + 1e-3 * rng.uniform(-1.0, 1.0, size=shape)),
        "alpha+-1e-9": alpha * (1.0 + 1e-9 * rng.uniform(-1.0, 1.0, size=shape)),
        "within_1e-9_of_0_or_1": np.where(rng.uniform(size=shape) < 0.5, edge, 1.0 - edge),
        "tied": rng.choice([0.2, alpha, 0.7], size=shape),
        "at_alpha": np.full(shape, alpha),
    }


def _batch_fields(batch) -> str:
    # dtype, shape and sha256 of every field of a _Batch and of its cached arrays
    names = [f.name for f in dataclasses.fields(batch)] + ["valid", "low", "high", "pair_noise"]
    arrays = {name: np.asarray(getattr(batch, name)) for name in names}
    return "; ".join(f"{name} {a.dtype} {a.shape} {hashlib.sha256(a.tobytes()).hexdigest()}"
                     for name, a in arrays.items())


def _reports(bp, known: tuple[str, ...]):
    # (label, outcome) of every report of one tree's barypoly
    for spec in SUITE_SPECS:
        for checks in (None, *([name] for name in known)):
            yield (f"default_suite(**{spec}, checks={checks})",
                   _outcome(lambda: [r.as_json() for r in bp.default_suite(**spec, checks=checks)]))
    for p in RECORD_P:
        seed = np.random.default_rng(p).uniform(1e-3, 1.0 - 1e-3, size=p)
        for steps in RECORD_STEPS:
            record = bp.run_trajectory(bp.ConjugateTuple.of(seed), steps, bp.solve_alpha(p))
            yield f"run_trajectory p={p} steps={steps}", record.states.tobytes().hex()
            edited = {"clean": record, "perturbed": bp.analysis._perturbed_record(record)}
            edited |= {name: edit(record) for name, edit in RECORD_EDITS.items()}
            for label, rec in edited.items():
                yield (f"trajectory_checks {label} p={p} steps={steps}",
                       "no such record" if rec is None else
                       _outcome(lambda: [r.as_json() for r in bp.trajectory_checks(rec)]))
    for p in BATCH_P:
        alpha = bp.solve_alpha(p)
        families = _seed_families(p, alpha)
        families["all"] = np.concatenate(list(families.values()))
        for name, u0 in families.items():
            for steps in RECORD_STEPS:
                yield f"_run_batch {name} p={p} steps={steps}", _batch_fields(bp.dynamics._run_batch(u0, steps, alpha))


def _cli_run(tree: str, argv: list[str]) -> dict:
    # one invocation in a fresh directory holding INPUT_FILES: its streams,
    # exit code and the files the directory holds afterwards
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"} | THREAD_ENV
    env["PYTHONPATH"] = str(Path(tree).resolve() / "src")
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in INPUT_FILES.items():
            Path(tmp, name).write_text(text, encoding="utf-8")
        out = subprocess.run([sys.executable, "-m", "barypoly.cli", *argv], cwd=tmp, env=env,
                             capture_output=True, timeout=120)
        files = {str(f.relative_to(tmp)): f.read_bytes().hex() for f in sorted(Path(tmp).rglob("*")) if f.is_file()}
    return {"exit_code": out.returncode, "stdout": out.stdout.decode(), "stderr": out.stderr.decode(),
            "files": files}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2 or argv[0].startswith("-"):
        print("usage: python3 tools/ab_outputs.py PARENT_TREE CHANGE_TREE", file=sys.stderr)
        return 2
    for tree in argv:
        if not (Path(tree) / "src" / "barypoly" / "__init__.py").is_file():
            print(f"{tree} holds no src/barypoly", file=sys.stderr)
            return 2
    parent, change = (_load(tree, f"barypoly_{side}") for tree, side in zip(argv, ("parent", "change")))
    if parent.KNOWN_CHECKS != change.KNOWN_CHECKS:
        print(f"KNOWN_CHECKS differ: {parent.KNOWN_CHECKS} against {change.KNOWN_CHECKS}")
        return 1
    compared = 0
    for (label, want), (_, got) in zip(*(_reports(bp, parent.KNOWN_CHECKS) for bp in (parent, change))):
        if got != want:
            print(f"first difference: {label}\n  parent: {want[:2000]}\n  change: {got[:2000]}")
            return 1
        compared += 1
    files = 0
    for case in CLI_CASES:
        want, got = (_cli_run(tree, case) for tree in argv)
        for key in want:
            if got[key] != want[key]:
                print(f"first difference: barypoly {' '.join(case)}: {key}\n  parent: {str(want[key])[:2000]}\n"
                      f"  change: {str(got[key])[:2000]}")
                return 1
        files += len(want["files"]) - len(INPUT_FILES)
    print(f"no difference: {compared} reports, record states and batches, {len(CLI_CASES)} CLI invocations "
          f"(stdout, stderr, exit code, {files} written files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
