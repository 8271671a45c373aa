import doctest
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
    assert main(["alpha", "--p", "4", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["p"] == 4
    assert payload["alpha"] == pytest.approx(0.6823278038280193, abs=1e-14)
    assert payload["stationary_weight"] == pytest.approx(1.0 - payload["alpha"])


def test_alpha_rejects_small_p(capsys):
    assert main(["alpha", "--p", "2"]) == 2
    assert "requires p >= 3" in capsys.readouterr().err


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
        ("alpha", {"p": 5, "bogus": 1}, "bogus"),
        ("alpha", {"p": 5, "dim": 2}, "dim"),
    ],
    ids=["p_string", "weights_number", "weights_null_entry", "max_steps_string",
         "max_steps_bool", "points_number", "unknown_key", "dim_key"],
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


def test_trajectory_to_stdout(capsys):
    assert main(["trajectory", "--weights", "0.4,0.5,0.6", "--steps", "3"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("m,u_1,u_2,u_3,spread,phase")
    assert "recorded" in captured.err


def test_trajectory_rejects_bad_weights(capsys):
    assert main(["trajectory", "--weights", "0.4,1.5,0.6"]) == 2
    assert "inside (0, 1)" in capsys.readouterr().err


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
    assert check["witness"] == {"p_audited": []}


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


def test_verify_passes_explicit_steps_through(monkeypatch, capsys):
    import barypoly.cli as cli

    seen = []
    real_suite = cli.default_suite

    def recording_suite(**kwargs):
        seen.append(kwargs["max_steps"])
        return real_suite(**kwargs)

    monkeypatch.setattr(cli, "default_suite", recording_suite)
    base = ["verify", "--p", "3", "--seeds", "1", "--check", "fixed_point"]
    for steps in (199, 200, 201):
        assert main(base + ["--steps", str(steps)]) == 0
    assert main(base) == 0
    assert seen == [199, 200, 201, 400]
    capsys.readouterr()
    # a single trajectory keeps its own default of 200 steps
    assert main(["verify", "--weights", "0.2,0.5,0.8", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["max_steps"] == 200


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


def _readme_blocks(lang):
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return re.findall(rf"```{lang}\n(.*?)```", text, flags=re.S)


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
