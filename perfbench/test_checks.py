"""The benchmark's output checks accept real program output and reject corrupted output.

Run from the root of the checkout:  python3 -m pytest perfbench -q
"""
from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
from barypoly import analysis, cli  # noqa: E402

WEIGHTS = [0.413, 0.07, 0.655, 0.29, 0.902]
DUAL_WEIGHTS = [0.3, 0.08, 0.06, 0.04, 0.01]


def _main(capsys, argv):
    code = cli.main(argv)
    return code, capsys.readouterr().out


def _nudge(text: str, row: int, col: int) -> str:
    """Move one CSV value by a billionth of its size (at least 1e-9)."""
    lines = text.splitlines()
    cells = lines[row].split(",")
    x = float(cells[col])
    delta = max(abs(x) * 1e-9, 1e-9)
    cells[col] = repr(x - delta if x > 0.5 else x + delta)
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def test_alpha_json(capsys):
    code, out = _main(capsys, ["alpha", "--p", "7", "--json"])
    assert code == 0
    checks.check_alpha_json(out, 7)
    with pytest.raises(checks.OutputError):
        checks.check_alpha_json(out, 8)
    for key in ("alpha", "lambda_repulsive", "beta", "stationary_weight"):
        d = json.loads(out)
        d[key] *= 1 + 1e-9
        with pytest.raises(checks.OutputError):
            checks.check_alpha_json(json.dumps(d), 7)


def test_trajectory_csv(tmp_path, capsys):
    path = tmp_path / "t.csv"
    code, note = _main(capsys, ["trajectory", "--weights", ",".join(map(str, WEIGHTS)),
                                "--steps", "200", "--out", str(path)])
    assert code == 0
    text = path.read_text()
    checks.check_trajectory_csv(text, WEIGHTS, 200, note)
    rows = len(text.splitlines()) - 1
    assert rows >= 4
    for row, col in ((1, 1), (3, 2), (rows, 5), (2, 6)):  # u values and a spread
        with pytest.raises(checks.OutputError):
            checks.check_trajectory_csv(_nudge(text, row, col), WEIGHTS, 200, note)
    flipped = text.replace(",below\n", ",above\n", 1)
    assert flipped != text
    with pytest.raises(checks.OutputError):
        checks.check_trajectory_csv(flipped, WEIGHTS, 200, note)
    with pytest.raises(checks.OutputError):
        checks.check_trajectory_csv(text, WEIGHTS, 200, note.replace(f"{rows} states", f"{rows + 1} states"))
    truncated = "\n".join(text.splitlines()[:-1]) + "\n"
    with pytest.raises(checks.OutputError):
        checks.check_trajectory_csv(truncated, WEIGHTS, 200, note)


def test_dual_csv_oracle_accepts_exact_rows_and_rejects_a_nudge():
    mp = checks.mp_dual_sequence(DUAL_WEIGHTS, 30)
    lines = ["m,g_1,g_2,distance"]
    for m, (x, y) in enumerate(mp):
        lines.append(f"{m},{float(x)!r},{float(y)!r},{float(checks.mpmath.hypot(x, y))!r}")
    text = "\n".join(lines) + "\n"
    checks.check_dual_csv(text, DUAL_WEIGHTS, 30)
    for row, col in ((1, 1), (10, 2), (5, 3)):
        with pytest.raises(checks.OutputError):
            checks.check_dual_csv(_nudge(text, row, col), DUAL_WEIGHTS, 30)


def test_dual_csv_of_the_program_misses_the_oracle(tmp_path, capsys):
    # Known fault: geometry._advance_log_u takes log(-expm1(a)), which loses
    # log(1 - t) once t is below about 1e-8; G_7 of the README's reference
    # seed comes out 3.7e-3 away from its 50-digit value.
    path = tmp_path / "d.csv"
    code, _ = _main(capsys, ["dual", "--weights", ",".join(map(str, DUAL_WEIGHTS)),
                             "--steps", "60", "--out", str(path)])
    assert code == 0
    with pytest.raises(checks.OutputError, match="dual row 7"):
        checks.check_dual_csv(path.read_text(), DUAL_WEIGHTS, 60)


def test_verify_output(capsys):
    code, out = _main(capsys, ["verify", "--weights", ",".join(map(str, WEIGHTS))])
    names = list(analysis._TRAJ_CHECKS)
    checks.check_verify_output(out, code, names)
    with pytest.raises(checks.OutputError):
        checks.check_verify_output(out.replace("PASS ratio_monotone", "FAIL ratio_monotone"), code, names)
    with pytest.raises(checks.OutputError):
        checks.check_verify_output(out, 1, names)
    with pytest.raises(checks.OutputError):
        checks.check_verify_output(out.replace("PASS order_preserved\n", ""), code, names)


def test_svg(tmp_path, capsys):
    argv = ["figure", "--weights", "0.15,0.12,0.17,0.14,0.16", "--superpose"]
    code, note = _main(capsys, argv + ["--out", str(tmp_path / "a.svg")])
    _main(capsys, argv + ["--out", str(tmp_path / "b.svg")])
    data, rerun = (tmp_path / "a.svg").read_bytes(), (tmp_path / "b.svg").read_bytes()
    assert code == 0
    checks.check_svg(data, note, rerun)
    i = data.index(b"points=") + 10
    changed = data[:i] + bytes([data[i] ^ 1]) + data[i + 1:]
    with pytest.raises(checks.OutputError, match="different bytes"):
        checks.check_svg(data, note, changed)
    lines = data.splitlines(keepends=True)
    dropped = b"".join(line for j, line in enumerate(lines) if j != 4)
    with pytest.raises(checks.OutputError, match="polylines"):
        checks.check_svg(dropped, note)
    with pytest.raises(checks.OutputError, match="parse"):
        checks.check_svg(data[: len(data) // 2], note)


def test_sweep_verdicts():
    results = analysis.default_suite(p_values=(3, 4), seeds_per_p=5, rng_seed=3)
    names = [r.name for r in results]
    traj = list(analysis._TRAJ_CHECKS)
    assert checks.check_sweep(results, names, traj, 10, allow_known_fault=False) is False

    def replaced(i, **changes):
        out = list(results)
        out[i] = dataclasses.replace(out[i], **changes)
        return out

    flipped = replaced(names.index("ratio_monotone"), passed=False)
    with pytest.raises(checks.OutputError):
        checks.check_sweep(flipped, names, traj, 10, allow_known_fault=True)
    i = names.index("order_preserved")
    short = replaced(i, witness={**results[i].witness, "trajectories": 9})
    with pytest.raises(checks.OutputError):
        checks.check_sweep(short, names, traj, 10, allow_known_fault=False)
    with pytest.raises(checks.OutputError):
        checks.check_sweep(results[1:], names, traj, 10, allow_known_fault=False)

    i = names.index("phase_alternation")
    fault = replaced(i, passed=False, witness={"trajectories": 10, "violations": 10,
                                               "first_failure": {"p": 3, "reason": checks.KNOWN_FAULT[1]}})
    assert checks.check_sweep(fault, names, traj, 10, allow_known_fault=True) is True
    with pytest.raises(checks.OutputError):
        checks.check_sweep(fault, names, traj, 10, allow_known_fault=False)


def test_negative_control():
    clean = analysis.default_suite(p_values=(3,), seeds_per_p=3, rng_seed=1)
    with pytest.raises(checks.OutputError):
        checks.check_negative_control(clean)
    checks.check_negative_control(analysis.default_suite(p_values=(3,), seeds_per_p=3, rng_seed=1, inject_fault=True))


def test_rescaled_times_follow_the_calibration_kernel():
    import timing

    ref = timing.CALIBRATION_REF_S[False]
    # a kernel that ran twice as slow around an interval halves it
    assert timing.rescaled([1.0, 1.0], [2 * ref, 2 * ref, ref], "cli") == [0.5, pytest.approx(2 / 3)]


def test_benchmark_json_lists_what_the_runs_print():
    import layers

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)
    assert layers.CHECK_NAMES == analysis.KNOWN_CHECKS
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "op_p50_ms", "ops_per_s", "peak_rss_mb"}
    assert [w["name"] for w in spec["workloads"]] == ["sweep_small_p", "sweep_large_p", "cli"]


def test_run_refuses_a_directory_without_the_program(tmp_path):
    import shutil
    import subprocess

    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli", "--seed", "1",
                           "--seconds", "1"], cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
