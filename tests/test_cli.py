import ast
import doctest
import importlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import barypoly
from barypoly import ConjugateTuple, conjugate_step
from barypoly.cli import main

REF_WEIGHTS = "0.3,0.08,0.06,0.04,0.01"


def test_no_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2


def test_alpha_text_output(capsys):
    assert main(["alpha", "--p", "5"]) == 0
    out = capsys.readouterr().out
    alpha_line = next(line for line in out.splitlines() if line.startswith("alpha = "))
    assert float(alpha_line.split("=")[1]) == pytest.approx(0.7244919590005157, abs=1e-15)
    assert "repulsive eigenvalue" in out


def test_alpha_json_output(capsys):
    import dataclasses

    assert main(["alpha", "--p", "4", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["p"] == 4
    assert payload["alpha"] == pytest.approx(0.6823278038280193, abs=1e-14)
    assert payload["stationary_weight"] == pytest.approx(1.0 - payload["alpha"])
    # the certificate's fields, in their order, then the stationary weight
    fields = [f.name for f in dataclasses.fields(barypoly.StationaryCertificate)]
    assert list(payload) == fields + ["stationary_weight"]


def test_alpha_rejects_small_p(capsys):
    assert main(["alpha", "--p", "2"]) == 2
    assert capsys.readouterr().err == "error: the instability certificate requires p >= 3, got 2\n"


def test_alpha_requires_p():
    with pytest.raises(SystemExit) as err:
        main(["alpha"])
    assert err.value.code == 2


def test_config_file_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"p": 2}))
    assert main(["alpha", "--config", str(cfg), "--p", "5"]) == 0
    assert "p = 5" in capsys.readouterr().out
    cfg.write_text(json.dumps({"p": 6}))
    assert main(["alpha", "--config", str(cfg)]) == 0
    assert "p = 6" in capsys.readouterr().out


@pytest.mark.parametrize("command, flag, text, key, in_file, from_flag", [
    ("alpha", "--p", "5", "p", 6, 5),
    ("verify", "--p", "5", "p", 6, 5),
    ("trajectory", "--weights", "0.2,0.5", "weights", [0.3, 0.4], (0.2, 0.5)),
    ("dual", "--weights", "0.2,0.5", "weights", [0.3, 0.4], (0.2, 0.5)),
    ("verify", "--weights", "0.2,0.5", "weights", [0.3, 0.4], (0.2, 0.5)),
    ("figure", "--weights", "0.2,0.5", "weights", [0.3, 0.4], (0.2, 0.5)),
    ("trajectory", "--steps", "7", "max_steps", 12, 7),
    ("dual", "--steps", "7", "max_steps", 12, 7),
    ("verify", "--steps", "7", "max_steps", 12, 7),
    ("verify", "--seed", "3", "seed", 9, 3),
    ("figure", "--out-dir", "from_flag", "output_dir", "in_file", "from_flag"),
])
def test_each_config_flag_beats_the_file_and_an_absent_one_keeps_it(
        command, flag, text, key, in_file, from_flag, tmp_path):
    # Each flag writes its own config key over the --config file's value;
    # without the flag the file's value stands, and every other key keeps its
    # default.
    from barypoly import cli

    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({key: in_file}))
    for argv, want in (([flag, text], from_flag), ([], tuple(in_file) if key == "weights" else in_file)):
        args = cli._build_parser().parse_args([command, "--config", str(cfg), *argv])
        assert cli._resolve_config(args) == cli.RunConfig(**{key: want}), argv


@pytest.mark.parametrize("command, usage", [("trajectory", "[--steps STEPS]"), ("dual", "[--steps STEPS]"),
                                            ("verify", "[--steps STEPS]"), ("figure", "[--out-dir OUT_DIR]")])
def test_flags_that_write_a_config_key_keep_their_metavar(command, usage, capsys):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    out = capsys.readouterr().out
    assert usage in out.split("\n\n")[0]
    assert f"  {usage[1:-1]}  " in out


def test_config_file_errors(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["alpha", "--config", str(missing), "--p", "4"]) == 2
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["alpha", "--config", str(broken), "--p", "4"]) == 2
    non_object = tmp_path / "list.json"
    non_object.write_text("[1, 2]")
    assert main(["alpha", "--config", str(non_object), "--p", "4"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "command, config, key",
    [
        ("alpha", {"p": "5"}, "p"),
        ("trajectory", {"weights": 5}, "weights"),
        ("trajectory", {"weights": [0.3, None]}, "weights"),
        ("trajectory", {"weights": [0.3, 0.2], "max_steps": "7"}, "max_steps"),
        ("trajectory", {"weights": [0.3, 0.2], "max_steps": True}, "max_steps"),
        ("dual", {"weights": [0.3, 0.2, 0.1], "points": 3}, "points"),
        ("figure", {"weights": [0.3, 0.4, 0.5], "points": [[True, 0], [0, 1], [1, 1]]}, "points"),
        ("figure", {"weights": [0.3, 0.4, 0.5], "points": [["a", 0], [0, 1], [1, 1]]}, "points"),
        ("dual", {"weights": [0.3, 0.4, 0.5], "points": [[0, 0], [0, None], [1, 1]]}, "points"),
        ("alpha", {"p": 5, "bogus": 1}, "bogus"),
        ("alpha", {"p": 5, "dim": 2}, "dim"),
    ],
    ids=["p_string", "weights_number", "weights_null_entry", "max_steps_string",
         "max_steps_bool", "points_number", "points_bool_coordinate", "points_string_coordinate",
         "points_null_coordinate", "unknown_key", "dim_key"],
)
def test_malformed_config_is_an_input_error(tmp_path, capsys, command, config, key):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(config))
    assert main([command, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and repr(key) in err


def test_points_file_of_the_wrong_type_is_an_input_error(tmp_path, capsys):
    pts = tmp_path / "points.json"
    for content in (3, [1, 2, 3]):
        pts.write_text(json.dumps(content))
        assert main(["dual", "--weights", "0.2,0.3,0.4", "--points-file", str(pts)]) == 2
        assert "'points'" in capsys.readouterr().err


def test_trajectory_csv_roundtrip(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    assert main(["trajectory", "--weights", REF_WEIGHTS, "--steps", "50",
                 "--out", str(out)]) == 0
    note = capsys.readouterr().out
    assert "saturated at step" in note
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "m,u_1,u_2,u_3,u_4,u_5,spread,phase"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == [str(m) for m in range(len(rows))]
    assert all(r[-1] in ("below", "above", "mixed") for r in rows)
    # 17 significant digits make the CSV a lossless record: stepping a parsed
    # row reproduces the next row bit for bit
    for cur, nxt in zip(rows, rows[1:]):
        u = ConjugateTuple.of(float(v) for v in cur[1:6])
        stepped = conjugate_step(u)
        assert [v.hex() for v in stepped.u] == [float(v).hex() for v in nxt[1:6]]


def test_trajectory_and_verify_weights_output_is_pinned(capsys, tmp_path, monkeypatch):
    # stdout, stderr and exit code of trajectory and verify --weights runs,
    # byte for byte, as captured before the trajectory record held arrays,
    # and of dual runs as captured before the dual stopped at a repeated
    # state; a case's files are written to the working directory first
    golden = json.loads((Path(__file__).parent / "golden_cli.json").read_text(encoding="utf-8"))
    assert {case["argv"][0] for case in golden} == {"trajectory", "verify", "dual"}
    monkeypatch.chdir(tmp_path)
    for case in golden:
        for name, text in case.get("files", {}).items():
            Path(name).write_text(text, encoding="utf-8")
        code = main(case["argv"])
        out, err = capsys.readouterr()
        assert (code, out, err) == (case["exit_code"], case["stdout"], case["stderr"]), case["argv"]


def test_trajectory_to_stdout(capsys):
    assert main(["trajectory", "--weights", "0.4,0.5,0.6", "--steps", "3"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("m,u_1,u_2,u_3,spread,phase")
    assert "recorded" in captured.err


@pytest.mark.parametrize("command", ["trajectory", "dual"])
def test_csv_out_moves_the_note_to_stdout(command, tmp_path, capsys):
    # The CSV goes to stdout and the note to stderr, with no --out and with
    # --out -; with --out FILE the file holds the CSV and stdout the note.
    argv = [command, "--weights", "0.4,0.5,0.6", "--steps", "3"]
    assert main(argv) == 0
    csv, note = capsys.readouterr()
    assert csv.startswith("m,") and note
    assert main(argv + ["--out", "-"]) == 0
    assert capsys.readouterr() == (csv, note)
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr() == (note, "")
    assert out.read_bytes() == csv.encode("utf-8")


def test_trajectory_rejects_bad_weights(capsys):
    assert main(["trajectory", "--weights", "0.4,1.5,0.6"]) == 2
    assert "inside (0, 1)" in capsys.readouterr().err


def test_a_weight_whose_conjugate_rounds_to_1_is_named(capsys):
    # 1 - 1e-300 rounds to 1: the error names the weight the user typed
    for command in ("trajectory", "verify"):
        assert main([command, "--weights", "1e-300,0.5,0.5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: weight 1e-300: 1 - t rounds to 1, outside (0, 1)\n"


def test_dual_csv(tmp_path, capsys):
    out = tmp_path / "dual.csv"
    assert main(["dual", "--weights", REF_WEIGHTS, "--steps", "60",
                 "--out", str(out)]) == 0
    assert "fitted log-distance rate" in capsys.readouterr().out
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "m,g_1,g_2,distance"
    assert len(lines) == 62
    final_distance = float(lines[-1].split(",")[-1])
    assert final_distance < 1e-8


def test_verify_single_trajectory(capsys):
    assert main(["verify", "--weights", "0.2,0.5,0.7,0.8"]) == 0
    out = capsys.readouterr().out
    assert "PASS order_preserved" in out
    assert "PASS even_odd_limits" in out
    assert "all checks passed" in out


def test_verify_sweep_json_report(tmp_path, capsys):
    report = tmp_path / "report.json"
    assert main(["verify", "--p", "4", "--seeds", "3", "--json",
                 "--out", str(report)]) == 0
    capsys.readouterr()
    payload = json.loads(report.read_text())
    assert payload["passed"] is True
    assert payload["config"]["p_values"] == [4]
    names = [c["name"] for c in payload["checks"]]
    assert "order_preserved" in names and "polygon_collapse" in names


def test_verify_polygon_collapse_at_p_1024(capsys):
    assert main(["verify", "--p", "1024", "--seeds", "4", "--check", "polygon_collapse", "--json"]) == 0
    (check,) = json.loads(capsys.readouterr().out)["checks"]
    assert check["name"] == "polygon_collapse" and check["passed"]
    assert check["witness"]["p_audited"] == [1024] and check["witness"]["tuples"] == 4


@pytest.mark.parametrize("p", ["32", "64", "256", "1024"])
def test_verify_passes_past_saturation(p, capsys):
    # the orbits saturate within a few steps, at p >= 256 at the first, and
    # phase_alternation decides them by the saturating state's phase
    assert main(["verify", "--p", p]) == 0
    assert "all checks passed" in capsys.readouterr().out


def test_verify_check_filter(capsys):
    assert main(["verify", "--p", "3", "--seeds", "2", "--check", "fixed_point"]) == 0
    out = capsys.readouterr().out
    assert "PASS fixed_point" in out
    assert "order_preserved" not in out


def test_verify_unknown_check(capsys):
    for argv in (["verify"], ["verify", "--weights", "0.2,0.5,0.7"]):
        assert main(argv + ["--check", "bogus"]) == 2
        assert "unknown checks" in capsys.readouterr().err


def test_verify_grid_check_without_p3_is_an_input_error(capsys):
    assert main(["verify", "--p", "4", "--check", "unique_fixed_point_grid"]) == 2
    captured = capsys.readouterr()
    assert "all checks passed" not in captured.out
    assert "unique_fixed_point_grid" in captured.err and "[4]" in captured.err


def test_verify_weights_with_only_static_checks_is_an_input_error(capsys):
    assert main(["verify", "--weights", "0.2,0.5,0.7", "--check", "spectral"]) == 2
    captured = capsys.readouterr()
    assert "all checks passed" not in captured.out
    assert "spectral" in captured.err and "trajectory checks" in captured.err


def test_verify_instability_growth_shows_what_it_audited(capsys):
    assert main(["verify", "--p", "8", "--check", "instability_growth", "--json"]) == 0
    (check,) = json.loads(capsys.readouterr().out)["checks"]
    assert check["witness"] == {"p_audited": [8]}


def test_verify_inject_fault_fails(capsys):
    for argv in (["--p", "4", "--seeds", "2"], ["--weights", "0.2,0.5,0.7"]):
        assert main(["verify", *argv, "--inject-fault"]) == 1
        assert "CHECK FAILURES PRESENT" in capsys.readouterr().out
        assert main(["verify", *argv, "--inject-fault", "--json"]) == 1
        assert json.loads(capsys.readouterr().out)["config"]["inject_fault"] is True


def test_verify_weights_at_p2_is_an_input_error(capsys):
    # these three orbits once ended in exit 1 or in two different errors
    for weights in ("0.99999,0.5", "0.4,0.6", "0.0005,0.3"):
        assert main(["verify", "--weights", weights]) == 2
        captured = capsys.readouterr()
        assert "FAIL" not in captured.out and "PASS" not in captured.out
        assert captured.err == "error: verification sweeps require p >= 3\n"


def test_verify_rejects_a_sweep_of_no_seeds(capsys):
    for seeds in ("0", "-3"):
        assert main(["verify", "--seeds", seeds]) == 2
        assert "seeds_per_p" in capsys.readouterr().err


def test_verify_rejects_negative_steps_for_every_check(capsys):
    # a selection that steps no trajectory rejects them as well
    for check in ("spectral", "order_preserved"):
        assert main(["verify", "--steps", "-3", "--check", check]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: max_steps must be >= 0, got -3\n"


def test_verify_rejects_a_negative_seed(capsys):
    assert main(["verify", "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: rng_seed must be >= 0, got -1\n"


def test_verify_passes_explicit_steps_through(monkeypatch, capsys):
    from barypoly import analysis

    seen = []
    real_suite = analysis.default_suite

    def recording_suite(**kwargs):
        seen.append(kwargs["max_steps"])
        return real_suite(**kwargs)

    # verify imports default_suite when it runs, so it reads the patched name
    monkeypatch.setattr(analysis, "default_suite", recording_suite)
    base = ["verify", "--p", "3", "--seeds", "1", "--check", "fixed_point", "--json"]
    recorded = []
    for steps in ("199", "200", "201", None):
        assert main(base + (["--steps", steps] if steps else [])) == 0
        recorded.append(json.loads(capsys.readouterr().out)["config"]["max_steps"])
    # the sweep runs the steps its JSON config records
    assert seen == recorded == [199, 200, 201, 400]
    # a single trajectory keeps its own default of 200 steps
    assert main(["verify", "--weights", "0.2,0.5,0.8", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["max_steps"] == 200


@pytest.mark.parametrize("argv", [
    ["alpha", "--p", "5", "--seed", "3"],
    ["trajectory", "--weights", "0.3,0.2,0.1", "--seed", "3"],
    ["trajectory", "--weights", "0.3,0.2,0.1", "--p", "17"],
    ["dual", "--weights", "0.3,0.2,0.1", "--p", "5"],
    ["figure", "--weights", "0.3,0.2,0.1", "--p", "5"],
    ["figure", "--weights", "0.3,0.2,0.1", "--seed", "3"],
], ids=lambda argv: f"{argv[0]}{argv[-2]}")
def test_a_flag_the_subcommand_never_reads_is_a_usage_error(argv, capsys):
    # only alpha and verify read --p, and only verify --seed; no flag is
    # abbreviated, so dual and figure do not read --p as --points-file
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--p", "17"], ["--seed", "9"], ["--seeds", "3"],
                                   ["--p", "17", "--seeds", "3", "--seed", "9"]], ids=" ".join)
def test_verify_weights_rejects_the_sweep_flags(flags, tmp_path, capsys):
    # --weights checks one trajectory, which reads none of the sweep's flags
    with pytest.raises(SystemExit) as err:
        main(["verify", "--weights", "0.2,0.5,0.7", *flags, "--json"])
    assert err.value.code == 2
    assert "--p, --seed and --seeds set up a sweep; verify --weights checks one trajectory" in capsys.readouterr().err
    # the config keys stay shared: a config's p and seed do not stop a --weights run
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"p": 17, "seed": 9}))
    assert main(["verify", "--weights", "0.2,0.5,0.7", "--config", str(cfg), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["weights"] == [0.2, 0.5, 0.7]


@pytest.mark.parametrize("argv, message", [
    (["alpha"], "alpha needs --p"),
    (["verify", "--weights", "0.2,0.5,0.7", "--p", "3"], "--p, --seed and --seeds set up a sweep"),
    (["figure", "--weights", "0.3,0.2,0.1", "--superpose", "--order", "3"], "it takes no --order"),
], ids=lambda v: v[0] if isinstance(v, list) else None)
def test_a_subcommand_usage_error_prints_that_subcommand_usage(argv, message, capsys):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines[0].startswith(f"usage: barypoly {argv[0]} [-h] [--config CONFIG]")
    assert lines[-1].startswith(f"barypoly {argv[0]}: error: ") and message in lines[-1]


def test_figure_single_order(tmp_path, capsys):
    assert main(["figure", "--weights", REF_WEIGHTS, "--out-dir", str(tmp_path)]) == 0
    assert "wrote" in capsys.readouterr().out
    svg = (tmp_path / "figure_order0.svg").read_text()
    assert svg.startswith("<?xml")
    assert "<polyline" in svg and "<circle" in svg
    assert "#1f77b4" in svg and "#d62728" not in svg


def test_figure_superposed(tmp_path, capsys):
    assert main(["figure", "--weights", "0.03,0.02,0.03,0.02,0.01", "--superpose",
                 "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    svg = (tmp_path / "figure_superposed.svg").read_text()
    assert "#1f77b4" in svg and "#d62728" in svg


def test_figure_order_is_a_non_negative_order_without_superpose(tmp_path, capsys):
    for extra, message in ((["--order", "-1"], "--order must be >= 0, got -1"),
                           (["--superpose", "--order", "3"], "it takes no --order"),
                           (["--superpose", "--order", "0"], "it takes no --order")):
        with pytest.raises(SystemExit) as exc:
            main(["figure", "--weights", REF_WEIGHTS, "--out-dir", str(tmp_path), *extra])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_figure_order_past_saturation_is_an_input_error(tmp_path, capsys):
    # the derived weights of the reference seed leave (0, 1) before order 40
    assert main(["figure", "--weights", REF_WEIGHTS, "--order", "40",
                 "--out-dir", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "(0, 1)" in captured.err
    assert not list(tmp_path.iterdir())


def test_figure_rejects_non_planar_points(tmp_path, capsys):
    pts = tmp_path / "points.json"
    pts.write_text(json.dumps([[0, 0, 0], [1, 0, 0], [0, 1, 0]]))
    assert main(["figure", "--weights", "0.2,0.3,0.4",
                 "--points-file", str(pts)]) == 2
    assert "planar" in capsys.readouterr().err


def test_figure_rejects_duplicate_points(tmp_path, capsys):
    pts = tmp_path / "points.json"
    pts.write_text(json.dumps([[0, 0], [0, 0], [1, 0]]))
    assert main(["figure", "--weights", "0.2,0.3,0.4",
                 "--points-file", str(pts)]) == 2
    assert "distinct" in capsys.readouterr().err


def test_module_entry_point():
    # the child imports the package under test, installed or not
    src = str(Path(barypoly.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "barypoly.cli", "alpha", "--p", "3"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    alpha_line = next(
        line for line in proc.stdout.splitlines() if line.startswith("alpha = ")
    )
    assert float(alpha_line.split("=")[1]) == pytest.approx(0.6180339887498949, abs=1e-15)


def _run_fresh(code):
    # a fresh interpreter on the package under test, installed or not, so
    # that sys.modules shows exactly what the code imported
    src = str(Path(barypoly.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr


def test_alpha_help_and_the_stationary_names_do_not_load_numpy():
    _run_fresh("""
import contextlib, io, sys
from barypoly.cli import main

def exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code

with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    assert exit_code(["alpha", "--p", "5", "--json"]) == 0
    assert exit_code(["alpha", "--p", "5"]) == 0
    assert exit_code(["--help"]) == 0
    assert exit_code(["alpha"]) == 2
import barypoly
assert barypoly.certificate(4).p == 4 and 0.0 < barypoly.solve_alpha(9) < 1.0
assert "numpy" not in sys.modules, sorted(sys.modules)
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    assert main(["trajectory", "--weights", "0.2,0.5,0.8", "--steps", "3"]) == 0
assert "numpy" in sys.modules
""")


def test_package_names_load_from_their_home_modules():
    assert barypoly.__all__ == [
        "__version__",
        "CheckResult", "ConjugateTuple", "DualSequenceRecord",
        "KNOWN_CHECKS", "PointSet", "SaturationError", "StationaryCertificate",
        "TrajectoryRecord", "WeightTuple",
        "centroid", "certificate", "conjugate_of", "conjugate_step",
        "default_suite", "derived_step", "dual_sequence",
        "limit_point", "polygon_step", "run_trajectory", "solve_alpha", "spectral_check",
        "trajectory_checks", "weight_orders",
    ]
    _run_fresh("""
import importlib, sys
import barypoly
assert "barypoly.geometry" not in sys.modules
assert barypoly.geometry is importlib.import_module("barypoly.geometry")
from barypoly import analysis, cli, dynamics, geometry, stationary
for mod in (analysis, cli, dynamics, geometry, stationary):
    assert mod is sys.modules[mod.__name__]
assert set(barypoly.__all__) <= set(dir(barypoly))
for name in barypoly.__all__[1:]:
    [home] = [m for m in (analysis, dynamics, geometry, stationary) if name in m.__all__]
    assert getattr(barypoly, name) is getattr(home, name), name
star = {}
exec("from barypoly import *", star)
assert set(barypoly.__all__) <= set(star)
try:
    barypoly.nonexistent
except AttributeError:
    pass
else:
    raise AssertionError("barypoly.nonexistent resolved")
""")


def test_source_modules_use_every_name_they_import():
    # A deletion that strands an import leaves a dead name: every name an
    # import binds appears as a Name in its module or as a string in its
    # __all__.  A from __future__ import binds no name.  A deletion that
    # strands a private helper leaves one too: every top-level _name that a
    # module defines is read somewhere in the package, as a name, an
    # attribute or an imported name.
    src = Path(__file__).resolve().parents[1] / "src" / "barypoly"
    paths = sorted(src.glob("*.py"))
    assert paths
    private, read = {}, set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
        bound = {
            alias.asname or alias.name.split(".")[0]
            for node in imports
            if not isinstance(node, ast.ImportFrom) or node.module != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        exported = {
            node.value
            for stmt in tree.body
            if isinstance(stmt, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in stmt.targets)
            for node in ast.walk(stmt.value)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
        }
        assert bound <= used | exported, (path.name, sorted(bound - used - exported))
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [node.id for t in targets for node in ast.walk(t) if isinstance(node, ast.Name)]
            else:
                continue
            private.update((name, path.name) for name in names if name.startswith("_") and not name.startswith("__"))
        read |= {alias.name for node in imports for alias in node.names}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert private
    assert not {name: home for name, home in private.items() if name not in read}


def test_arithmetic_errors_other_than_saturation_propagate(monkeypatch):
    from barypoly import cli

    def fault(args):
        raise ZeroDivisionError("a fault, not an input error")

    monkeypatch.setattr(cli, "cmd_alpha", fault)
    with pytest.raises(ZeroDivisionError):
        main(["alpha", "--p", "3"])


def _readme():
    return (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _readme_blocks(lang):
    return re.findall(rf"```{lang}\n(.*?)```", _readme(), flags=re.S)


def test_readme_entry_points_are_exported():
    # README's "Main entry points" list: one bullet per module, each name in
    # backticks after the module's own
    section = _readme().split("Main entry points:\n\n", 1)[1].split("\n\n", 1)[0]
    listed = {
        module: re.findall(r"`(\w+)`", names)
        for module, names in re.findall(r"^- `(\w+)`:(.*?)(?=^- |\Z)", section, flags=re.M | re.S)
    }
    assert sorted(listed) == ["analysis", "dynamics", "geometry", "stationary"]
    for module, names in listed.items():
        home = importlib.import_module(f"barypoly.{module}")
        for name in names:
            assert name in barypoly.__all__, name
            assert getattr(barypoly, name) is getattr(home, name), name


def _readme_commands():
    # The lines of the README's sh blocks that run barypoly, and the echo
    # lines that write the files they read.
    return [
        shlex.split(line, comments=True)
        for block in _readme_blocks("sh")
        for line in block.splitlines()
        if line.startswith(("barypoly ", "echo "))
    ]


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    ran = []
    for argv in _readme_commands():
        if argv[0] == "echo":
            text, redirect, path = argv[1:]
            assert redirect == ">"
            Path(path).write_text(text + "\n")
            continue
        expected = 1 if "--inject-fault" in argv else 0
        assert main(argv[1:]) == expected, argv
        ran.append(argv)
    capsys.readouterr()
    assert any("--config" in argv for argv in ran)
    assert any("--inject-fault" in argv for argv in ran)


def test_readme_library_example_runs():
    # Each python block without its closing fence, which doctest would read
    # as the expected output of the last example.
    blocks = _readme_blocks("python")
    assert blocks
    runner = doctest.DocTestRunner()
    for block in blocks:
        runner.run(doctest.DocTestParser().get_doctest(block, {}, "README.md", "README.md", 0))
    result = runner.summarize(verbose=False)
    assert result.attempted > 0 and result.failed == 0
