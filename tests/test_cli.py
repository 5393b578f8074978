"""CLI subcommands, exit codes, and the simulate/reconstruct/evaluate chain."""

import json
import re
import sys

import numpy as np
import pytest

from tenserecon import cli
from tenserecon.harness import SENSOR_CSV_HEADER
from tenserecon.lstm import init_model, save_model
from tenserecon.sensors import (BendCalibration, bending_strain, default_stretch_table,
                                save_calibration)
from tenserecon.topology import load_topology


@pytest.fixture(scope="module")
def model_path(tmp_path_factory, noisy_model):
    path = tmp_path_factory.mktemp("model") / "lstm.json"
    save_model(noisy_model, path)
    return str(path)


@pytest.fixture(scope="module")
def session_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("session")
    sensors, truth = d / "s.csv", d / "t.jsonl"
    assert cli.cli(["simulate", "--seed", "1", "--sensors-out", str(sensors),
                    "--truth-out", str(truth)]) == cli.EXIT_OK
    return str(sensors), str(truth)


def test_no_command_prints_help(capsys):
    assert cli.cli([]) == cli.EXIT_USAGE
    assert "usage" in capsys.readouterr().out.lower()


def test_unknown_command_is_usage_error(capsys):
    assert cli.cli(["frobnicate"]) == cli.EXIT_USAGE


def test_unknown_flag_is_usage_error():
    assert cli.cli(["topology", "--bogus"]) == cli.EXIT_USAGE


def test_topology_emit_and_validate(tmp_path, capsys):
    out = tmp_path / "topo.json"
    assert cli.cli(["topology", "--out", str(out)]) == cli.EXIT_OK
    topo = load_topology(out)
    assert len(topo.tendons) == 24
    capsys.readouterr()
    assert cli.cli(["validate-topology", str(out)]) == cli.EXIT_OK
    assert capsys.readouterr().out == "ok\n"

    doc = json.loads(out.read_text())
    doc["tendons"] = doc["tendons"][:-1]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert cli.cli(["validate-topology", str(bad)]) == cli.EXIT_DATA
    assert capsys.readouterr().out.startswith("violation: ")


def test_topology_prints_the_file_it_would_write(tmp_path, capsys):
    out = tmp_path / "topo.json"
    assert cli.cli(["topology", "--strut-length", "0.17", "--out", str(out)]) == cli.EXIT_OK
    capsys.readouterr()
    assert cli.cli(["topology", "--strut-length", "0.17"]) == cli.EXIT_OK
    assert capsys.readouterr().out == out.read_text()


def test_main_exits_with_the_command_code(tmp_path, monkeypatch, capsys):
    # main() is the [project.scripts] entry point
    out = tmp_path / "topo.json"
    monkeypatch.setattr(sys, "argv", ["tenserecon", "topology", "--out", str(out)])
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == cli.EXIT_OK and out.exists()
    monkeypatch.setattr(sys, "argv", ["tenserecon", "validate-topology", str(tmp_path)])
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == cli.EXIT_DATA


def test_fit_bend_reports_r_squared(tmp_path, capsys):
    data = tmp_path / "bend.csv"
    xs = np.linspace(-1.0, 0.0, 120)
    lines = ["dr_ratio,strain"]
    lines += [f"{float(x)!r},{float(bending_strain(float(x)))!r}" for x in xs]
    data.write_text("\n".join(lines) + "\n")
    out = tmp_path / "cal.json"
    assert cli.cli(["fit-bend", str(data), "--out", str(out)]) == cli.EXIT_OK
    printed = capsys.readouterr().out
    r2 = float([ln for ln in printed.splitlines() if ln.startswith("R^2")][0]
               .split("=")[1])
    assert r2 >= 0.9999
    assert out.exists()


def test_fit_bend_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("dr_ratio,strain\n0.0,alpha\n")
    assert cli.cli(["fit-bend", str(bad)]) == cli.EXIT_DATA
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("dr,strain\n0.0,0.0\n", "line 1: bad header 'dr,strain'; expected 'dr_ratio,strain'"),
    ("dr_ratio,strain\n-0.5,0.1\n\n0.0,x\n", "line 4: non-numeric cell: "),
    ("dr_ratio,strain\n-0.5,0.1\n0.0,0.0,0.0\n", "line 3: expected 2 columns"),
    ("dr_ratio,strain\n-0.5,0.1\n0.0,nan\n", "line 3: non-finite cell in '0.0,nan'"),
    ("dr_ratio,strain\ninf,0.1\n", "line 2: non-finite cell in 'inf,0.1'"),
    ("dr_ratio,strain\n-1_0,0.1\n", "line 2: '_' or a non-ASCII character in a number"),
    ("dr_ratio,strain\n-0.5,\u0661\n", "line 2: '_' or a non-ASCII character in a number"),
    (" dr_ratio,strain\n-0.5,0.1\n",
     "line 1: bad header ' dr_ratio,strain'; expected 'dr_ratio,strain'"),
    ("dr_ratio,strain\n-0.5,0.1\n \n", "line 3: expected 2 columns, found 1"),
], ids=["bad-header", "after-blank-line", "three-columns", "nan", "inf", "underscore",
        "non-ascii-digit", "padded-header", "whitespace-line"])
def test_fit_bend_error_names_line(tmp_path, capsys, text, message):
    bad = tmp_path / "bad.csv"
    bad.write_text(text, encoding="utf-8")
    assert cli.cli(["fit-bend", str(bad)]) == cli.EXIT_DATA
    assert capsys.readouterr().err.startswith(f"error: {message}")


def test_missing_file_is_data_error(capsys):
    assert cli.cli(["fit-bend", "/nonexistent/x.csv"]) == cli.EXIT_DATA


def test_simulate_reconstruct_evaluate_chain(tmp_path, model_path, capsys):
    sensors = tmp_path / "s.csv"
    truth = tmp_path / "t.jsonl"
    assert cli.cli(["simulate", "--seed", "5", "--sensors-out", str(sensors),
                    "--truth-out", str(truth)]) == cli.EXIT_OK

    frames = tmp_path / "f.jsonl"
    assert cli.cli(["reconstruct", str(sensors), "--model", model_path,
                    "--prior-weight", "1.0", "--clamp",
                    "--out", str(frames)]) == cli.EXIT_OK

    metrics = tmp_path / "m.json"
    assert cli.cli(["evaluate", "--est", str(frames), "--truth", str(truth),
                    "--out", str(metrics)]) == cli.EXIT_OK
    report = json.loads(metrics.read_text())
    assert 0.0 < report["rmse_node_height_mm"] < 60.0
    assert 0.0 < report["rmse_system_mm"] < 60.0
    assert report["frames_evaluated"] == 300


def test_evaluate_mismatched_frames_exits_2(tmp_path, model_path, capsys):
    sensors = tmp_path / "s.csv"
    truth = tmp_path / "t.jsonl"
    cli.cli(["simulate", "--seed", "6", "--sensors-out", str(sensors),
             "--truth-out", str(truth)])
    short = tmp_path / "short.jsonl"
    lines = truth.read_text().splitlines()
    short.write_text("\n".join(lines[:100]) + "\n")
    code = cli.cli(["evaluate", "--est", str(short), "--truth", str(truth)])
    assert code == cli.EXIT_DATA
    assert "common timestamp range" in capsys.readouterr().err


def test_train_lstm_writes_model(tmp_path, capsys):
    out = tmp_path / "m.json"
    code = cli.cli(["train-lstm", "--out", str(out), "--epochs", "2",
                    "--hidden-size", "8", "--seed", "1"])
    assert code == cli.EXIT_OK
    assert out.exists()
    printed = capsys.readouterr().out
    assert "epoch,train_loss,val_loss" in printed


def test_train_lstm_noise_band_reaches_the_data(tmp_path, capsys):
    argv = ["train-lstm", "--epochs", "1", "--hidden-size", "4", "--seed", "1"]
    clean, noisy = tmp_path / "clean.json", tmp_path / "noisy.json"
    assert cli.cli(argv + ["--out", str(clean)]) == cli.EXIT_OK
    assert cli.cli(argv + ["--out", str(noisy), "--noise-band", "-0.2", "0.1"]) == cli.EXIT_OK
    assert noisy.read_bytes() != clean.read_bytes()


def test_simulate_saved_defaults_give_the_same_session(tmp_path):
    cal, table = tmp_path / "cal.json", tmp_path / "table.json"
    save_calibration(BendCalibration(), cal)
    stretch = default_stretch_table()
    table.write_text(json.dumps({"strain": stretch.strain.tolist(),
                                 "dr_ratio": stretch.dr_ratio.tolist()}))
    outputs = []
    for name, extra in (("default", []),
                        ("saved", ["--calibration", str(cal), "--stretch-table", str(table)])):
        outputs.append((tmp_path / f"{name}.csv", tmp_path / f"{name}.jsonl"))
        assert cli.cli(["simulate", "--seed", "2", "--sensors-out", str(outputs[-1][0]),
                        "--truth-out", str(outputs[-1][1])] + extra) == cli.EXIT_OK
    (csv_a, truth_a), (csv_b, truth_b) = outputs
    assert csv_b.read_bytes() == csv_a.read_bytes()
    assert truth_b.read_bytes() == truth_a.read_bytes()


def test_reconstruct_sensor_error_names_frame(capsys, tmp_path, model_path, session_files):
    # without --clamp a noisy regime crossing leaves the bending domain
    code = cli.cli(["reconstruct", session_files[0], "--model", model_path,
                    "--out", str(tmp_path / "f.jsonl")])
    assert code == cli.EXIT_DATA
    assert re.match(r"error: t=\d+ ms: sensor \d+: dR/R = \S+ outside calibration domain",
                    capsys.readouterr().err)


def test_reconstruct_nonconvergence_exits_3(tmp_path, model_path):
    sensors = tmp_path / "s.csv"
    truth = tmp_path / "t.jsonl"
    cli.cli(["simulate", "--seed", "9", "--sensors-out", str(sensors),
             "--truth-out", str(truth)])
    frames = tmp_path / "f.jsonl"
    # one damped iteration cannot fit a noisy frame; frames are still written
    code = cli.cli(["reconstruct", str(sensors), "--model", model_path,
                    "--max-iterations", "1", "--clamp", "--out", str(frames)])
    assert code == cli.EXIT_NOCONV
    assert len(frames.read_text().splitlines()) == 300


def test_reconstruct_of_no_frames_exits_0(tmp_path, model_path, capsys):
    # an empty frame table has no truth value; none of its frames failed
    sensors, frames = tmp_path / "s.csv", tmp_path / "f.jsonl"
    sensors.write_text(SENSOR_CSV_HEADER + "\n")
    code = cli.cli(["reconstruct", str(sensors), "--model", model_path, "--out", str(frames)])
    assert code == cli.EXIT_OK
    assert frames.read_text() == "# no frames\n"
    assert capsys.readouterr().out == f"wrote {frames} (0 frames, 0 converged)\n"


def test_unreadable_input_path_is_data_error(tmp_path, capsys):
    code = cli.cli(["evaluate", "--est", str(tmp_path), "--truth", str(tmp_path)])
    assert code == cli.EXIT_DATA
    assert capsys.readouterr().err.startswith("error: ")


def test_evaluate_frame_without_converged_names_line(tmp_path, capsys):
    truth = tmp_path / "t.jsonl"
    cli.cli(["simulate", "--seed", "3", "--sensors-out", str(tmp_path / "s.csv"),
             "--truth-out", str(truth)])
    lines = truth.read_text().splitlines()
    doc = json.loads(lines[4])
    del doc["converged"]
    lines[4] = json.dumps(doc)
    est = tmp_path / "est.jsonl"
    est.write_text("\n".join(lines) + "\n")
    assert cli.cli(["evaluate", "--est", str(est), "--truth", str(truth)]) == cli.EXIT_DATA
    assert "line 5" in capsys.readouterr().err


def test_evaluate_agrees_with_run_all(tmp_path, capsys):
    outdir = tmp_path / "run"
    code = cli.cli(["run-all", "--seed", "7", "--epochs", "5", "--outdir", str(outdir)])
    assert code in (cli.EXIT_OK, cli.EXIT_NOCONV)
    run_lines = capsys.readouterr().out.splitlines()[:4]

    metrics = tmp_path / "m.json"
    assert cli.cli(["evaluate", "--est", str(outdir / "frames.jsonl"),
                    "--truth", str(outdir / "truth.jsonl"),
                    "--out", str(metrics)]) == cli.EXIT_OK
    eval_lines = capsys.readouterr().out.splitlines()
    assert metrics.read_bytes() == (outdir / "metrics.json").read_bytes()
    assert eval_lines == [f"wrote {metrics}"] + run_lines
    assert [ln.split(":")[0] for ln in run_lines] == [
        "node height RMSE", "face height RMSE", "system RMSE", "converged"]


def test_run_all_with_model_reproduces_trained_run(tmp_path, capsys):
    trained, reused = tmp_path / "trained", tmp_path / "reused"
    code = cli.cli(["run-all", "--seed", "7", "--epochs", "3", "--outdir", str(trained)])
    assert code in (cli.EXIT_OK, cli.EXIT_NOCONV)
    assert cli.cli(["run-all", "--seed", "7", "--model", str(trained / "lstm.json"),
                    "--outdir", str(reused)]) == code
    names = sorted(p.name for p in trained.iterdir())
    assert len(names) == 8 and sorted(p.name for p in reused.iterdir()) == names
    for name in names:
        assert (reused / name).read_bytes() == (trained / name).read_bytes(), name


def test_reconstruct_of_run_all_sensors_writes_its_frames(tmp_path):
    # the session parsed from sensors.csv reconstructs to the same bytes as
    # the one generate_session handed run-all in memory
    outdir, out = tmp_path / "run", tmp_path / "frames.jsonl"
    code = cli.cli(["run-all", "--seed", "7", "--epochs", "3", "--outdir", str(outdir)])
    assert code in (cli.EXIT_OK, cli.EXIT_NOCONV)
    assert cli.cli(["reconstruct", str(outdir / "sensors.csv"), "--model",
                    str(outdir / "lstm.json"), "--prior-weight", "1", "--clamp",
                    "--out", str(out)]) == code
    assert out.read_bytes() == (outdir / "frames.jsonl").read_bytes()


def test_scenario_flag_drives_simulate(tmp_path):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({
        "sample_rate_hz": 10.0, "seed": 11,
        "noise": {"kind": "uniform", "seed": 11},
        "keyframes": [{"t_ms": 0, "displacements": {}},
                      {"t_ms": 2000, "displacements": {"8": [0.0, 0.0, -0.01]}}],
    }))
    sensors = tmp_path / "s.csv"
    assert cli.cli(["simulate", "--scenario", str(scenario), "--sensors-out", str(sensors),
                    "--truth-out", str(tmp_path / "t.jsonl")]) == cli.EXIT_OK
    assert len(sensors.read_text().splitlines()) == 21  # header + 2 s at 10 Hz


@pytest.mark.parametrize("doc, message", [
    ({"keyframes": [{"t_ms": 0, "displacements": {}},
                    {"t_ms": 500, "displacements": {"8": [0.0, -0.01]}}]},
     "keyframe t_ms=500, node 8: displacement must be 3 finite numbers"),
    ({"sample_rate_hz": float("nan")}, "sample_rate_hz must be finite and > 0, got nan"),
    ({"sample_rate_hz": float("inf")}, "sample_rate_hz must be finite and > 0, got inf"),
    ({"sample_rate_hz": 2000.0}, "frame timestamps are whole milliseconds"),
], ids=["two-number-displacement", "nan-rate", "inf-rate", "rate-above-1000-hz"])
def test_malformed_scenario_is_data_error(tmp_path, capsys, doc, message):
    full = {"sample_rate_hz": 10.0, "noise": {"kind": "uniform", "seed": 1},
            "keyframes": [{"t_ms": 0, "displacements": {}},
                          {"t_ms": 500, "displacements": {"8": [0.0, 0.0, -0.01]}}]}
    full.update(doc)
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(full))  # json writes NaN/Infinity literals
    code = cli.cli(["simulate", "--scenario", str(scenario), "--sensors-out",
                    str(tmp_path / "s.csv"), "--truth-out", str(tmp_path / "t.jsonl")])
    assert code == cli.EXIT_DATA
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command, doc", [
    ("simulate", {"noise": [1]}),
    ("simulate", {"keyframes": [{"t_ms": 0, "displacements": [1]}]}),
    ("reconstruct", {"norm": [1]}),
], ids=["scenario-noise-list", "scenario-displacements-list", "model-norm-list"])
def test_nested_list_in_json_input_is_data_error(tmp_path, capsys, model_path,
                                                 session_files, command, doc):
    # .get and .items on a list raise AttributeError; it must not escape as a traceback
    if command == "simulate":
        path = tmp_path / "scenario.json"
        full = {"sample_rate_hz": 10.0, "noise": {"kind": "none"},
                "keyframes": [{"t_ms": 0, "displacements": {}},
                              {"t_ms": 500, "displacements": {}}]}
        argv = ["simulate", "--scenario", str(path), "--sensors-out",
                str(tmp_path / "s.csv"), "--truth-out", str(tmp_path / "t.jsonl")]
    else:
        path = tmp_path / "lstm.json"
        with open(model_path, encoding="utf-8") as fh:
            full = json.load(fh)
        argv = ["reconstruct", session_files[0], "--model", str(path),
                "--out", str(tmp_path / "f.jsonl")]
    path.write_text(json.dumps({**full, **doc}))
    assert cli.cli(argv) == cli.EXIT_DATA
    assert f"error: malformed {path}" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("edit, message", [
    ({"norm": {"input_high": None}}, "input_low and input_high must be given together"),
    ({"norm": {"input_low": [-1.0, -1.0, -1.0]}}, "input_low has shape (3,), expected (2,)"),
    ({"norm": {"input_low": [-1.0]}}, "input_low has shape (1,), expected (2,)"),
    ({"norm": {"input_low": [float("nan"), -1.0]}}, "input_low contains non-finite values"),
    ({"norm": {"input_high": [float("inf"), 1.0]}}, "input_high contains non-finite values"),
    ({"norm": {"input_low": [1e3, -1.0]}}, "input_low exceeds input_high"),
    ({"norm": {"input_mean": [float("nan"), 0.0]}}, "input_mean contains non-finite values"),
    ({"norm": {"input_scale": [0.0, 1.0]}}, "input_scale must be > 0"),
    ({"norm": {"input_scale": [float("inf"), 1.0]}}, "input_scale contains non-finite values"),
    ({"norm": {"target_mean": float("nan")}}, "target_mean is not finite"),
    ({"norm": {"target_scale": 0.0}}, "target_scale must be finite and > 0, got 0.0"),
    ({"norm": {"target_scale": float("inf")}}, "target_scale must be finite and > 0, got inf"),
    ({"weights": {"b_out": float("nan")}}, "b_out is not finite"),
], ids=["one-sided-hull", "hull-too-long", "hull-too-short", "nan-hull", "inf-hull",
        "inverted-hull", "nan-input-mean", "zero-input-scale", "inf-input-scale",
        "nan-target-mean", "zero-target-scale", "inf-target-scale", "nan-b-out"])
def test_bad_model_normalization_is_data_error(tmp_path, capsys, model_path, session_files,
                                               edit, message):
    # each of these once reached prediction: a traceback from np.clip, a silent
    # one-bound clip, a divide-by-zero warning, or a data error blamed on a sensor
    with open(model_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    for block, values in edit.items():
        doc[block].update(values)
    path = tmp_path / "lstm.json"
    path.write_text(json.dumps(doc))  # json writes NaN/Infinity literals
    code = cli.cli(["reconstruct", session_files[0], "--model", str(path), "--clamp",
                    "--out", str(tmp_path / "f.jsonl")])
    assert code == cli.EXIT_DATA
    assert f"error: {path}: {message}" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("command", ["reconstruct", "run-all"])
def test_model_input_size_other_than_two_is_data_error(tmp_path, capsys, session_files,
                                                       command):
    # its weights fit its own D, so it once loaded and failed at frame 0, blamed
    # on all 24 sensors: "t=0 ms: stretching sensors [0, 1, ..., 23]: ..."
    path = tmp_path / "lstm.json"
    save_model(init_model(3, 4, 5, seed=0), path)
    if command == "reconstruct":
        argv = ["reconstruct", session_files[0], "--model", str(path),
                "--out", str(tmp_path / "f.jsonl")]
    else:
        argv = ["run-all", "--model", str(path), "--outdir", str(tmp_path / "ra")]
    assert cli.cli(argv) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert f"error: {path}: model input size D=3" in err
    assert "sensor" not in err and "t=0 ms" not in err
    assert not (tmp_path / "f.jsonl").exists()
    # run-all loads its model before it writes anything
    assert not [name for name in ("topology.json", "scenario.json", "sensors.csv",
                                  "truth.jsonl", "frames.jsonl")
                if (tmp_path / "ra" / name).exists()]


def test_scenario_legacy_seed_loads_and_unknown_noise_kind_rejected(tmp_path, capsys):
    doc = {"sample_rate_hz": 10.0, "seed": 11,  # top-level seed from older writers
           "noise": {"kind": "uniform", "seed": 11},
           "keyframes": [{"t_ms": 0, "displacements": {}},
                         {"t_ms": 500, "displacements": {"8": [0.0, 0.0, -0.01]}}]}
    scenario = tmp_path / "scenario.json"
    argv = ["simulate", "--scenario", str(scenario), "--sensors-out",
            str(tmp_path / "s.csv"), "--truth-out", str(tmp_path / "t.jsonl")]
    scenario.write_text(json.dumps(doc))
    assert cli.cli(argv) == cli.EXIT_OK
    doc["noise"]["kind"] = "gaussian"
    scenario.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli.cli(argv) == cli.EXIT_DATA
    assert "unknown noise kind 'gaussian'" in capsys.readouterr().err


def _shift_k(rows):
    for row in rows:
        row["k"] += 1


@pytest.mark.parametrize("command", ["simulate", "reconstruct", "evaluate", "run-all",
                                     "validate-topology"])
def test_invalid_topology_file_is_data_error(tmp_path, capsys, model_path,
                                             session_files, command):
    good = tmp_path / "topo.json"
    assert cli.cli(["topology", "--out", str(good)]) == cli.EXIT_OK
    bad = tmp_path / "bad.json"
    sensors, truth = session_files
    argv = {
        "simulate": ["simulate", "--sensors-out", str(tmp_path / "s.csv"),
                     "--truth-out", str(tmp_path / "t.jsonl"), "--topology", str(bad)],
        "reconstruct": ["reconstruct", sensors, "--model", model_path,
                        "--out", str(tmp_path / "f.jsonl"), "--topology", str(bad)],
        "evaluate": ["evaluate", "--est", truth, "--truth", truth, "--topology", str(bad)],
        "run-all": ["run-all", "--model", model_path, "--outdir", str(tmp_path / "run"),
                    "--topology", str(bad)],
        "validate-topology": ["validate-topology", str(bad)],
    }[command]
    indices = f"malformed {bad}: tendon indices must be 0..23, each once; got "
    defects = [  # edit of the tendon rows, and what the error must say
        (lambda rows: rows[5].update(j=15), "tendon 5 joins unknown node 15"),
        (_shift_k, indices + "[1, 2, 3, "),
        (lambda rows: rows[5].update(k=4), indices + "[0, 1, 2, 3, 4, 4, 6, "),
    ]
    for edit, message in defects:
        doc = json.loads(good.read_text())
        edit(doc["tendons"])
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        assert cli.cli(argv) == cli.EXIT_DATA, message
        printed = capsys.readouterr()
        # validate-topology reports a violation on stdout; every other error is on stderr
        violation = command == "validate-topology" and not message.startswith("malformed")
        assert message in (printed.out if violation else printed.err)


@pytest.mark.parametrize("command, flag, value", [
    ("reconstruct", "--prior-weight", ["-1"]),
    ("reconstruct", "--max-iterations", ["-1"]),
    ("train-lstm", "--noise-band", ["0.1", "-0.1"]),
    ("train-lstm", "--window", ["0"]),
    ("train-lstm", "--epochs", ["0"]),
    ("train-lstm", "--epochs", ["-1"]),
    ("train-lstm", "--learning-rate", ["-1"]),
    ("train-lstm", "--hidden-size", ["0"]),
    ("train-lstm", "--seed", ["-1"]),
    ("run-all", "--epochs", ["0"]),
    ("topology", "--strut-length", ["-1"]),
    ("topology", "--strut-length", ["nan"]),
], ids=["prior-weight", "max-iterations", "noise-band", "window", "epochs-0",
        "epochs-negative", "learning-rate", "hidden-size", "seed", "run-all-epochs",
        "strut-length-negative", "strut-length-nan"])
def test_bad_numeric_flag_is_usage_error(tmp_path, capsys, model_path,
                                         session_files, command, flag, value):
    argv = {
        "reconstruct": ["reconstruct", session_files[0], "--model", model_path,
                        "--out", str(tmp_path / "f.jsonl")],
        "train-lstm": ["train-lstm", "--out", str(tmp_path / "m.json"), "--epochs", "1"],
        "run-all": ["run-all", "--model", model_path, "--outdir", str(tmp_path / "run")],
        "topology": ["topology", "--out", str(tmp_path / "t.json")],
    }[command]
    assert cli.cli(argv + [flag] + value) == cli.EXIT_USAGE
    assert f"argument {flag}:" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["--config", "cfg.json", "topology"],
    ["--seed", "5", "topology"],
    ["topology", "--seed", "5"],
    ["evaluate", "--est", "f.jsonl", "--truth", "t.jsonl", "--seed", "5"],
    ["simulate", "--scenario", "s.json", "--seed", "3"],
    ["simulate", "--scenario", "s.json", "--seed", "0"],
    ["simulate", "--scenario", "s.json", "--no-noise"],
    ["simulate", "--seed", "3", "--no-noise"],
    ["reconstruct", "s.csv"],
    ["run-all", "--model", "m.json", "--epochs", "60"],
    ["topology", "--validate", "t.json", "--out", "x.json", "--strut-length", "0.5"],
    ["validate-topology", "t.json", "--out", "x.json"],
], ids=["config", "seed-before-command", "topology-seed", "evaluate-seed",
        "scenario-seed", "scenario-seed-0", "scenario-no-noise", "seed-no-noise",
        "reconstruct-no-model", "run-all-model-epochs", "topology-validate",
        "validate-topology-out"])
def test_unread_or_missing_flag_is_usage_error(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert cli.cli(argv) == cli.EXIT_USAGE
    assert "error:" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["reconstruct", "evaluate", "fit-bend"])
def test_non_utf8_line_file_is_data_error(tmp_path, capsys, model_path, session_files,
                                          command):
    sensors, truth = session_files
    bad = tmp_path / "bad.txt"
    source = {"reconstruct": sensors, "evaluate": truth, "fit-bend": None}[command]
    if source is None:
        bad.write_bytes(b"dr_ratio,strain\xff\n0.0,0.0\n")
    else:  # a 0xff byte in the first line
        with open(source, "rb") as fh:
            bad.write_bytes(b"\xff" + fh.read())
    argv = {
        "reconstruct": ["reconstruct", str(bad), "--model", model_path,
                        "--out", str(tmp_path / "f.jsonl")],
        "evaluate": ["evaluate", "--est", str(bad), "--truth", truth],
        "fit-bend": ["fit-bend", str(bad)],
    }[command]
    assert cli.cli(argv) == cli.EXIT_DATA
    assert f"error: {bad} is not UTF-8 text" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == [bad]


@pytest.mark.parametrize("est_nodes, truth_nodes, message", [
    (11, 12, "error: estimate frames have 11 nodes; the topology has 12\n"),
    (11, 11, "error: estimate frames have 11 nodes; the topology has 12\n"),
    ((12, 11), 12, "error: line 2: 11 nodes; the first frame has 12\n"),
], ids=["estimate-short", "both-short", "estimate-mixed"])
def test_evaluate_wrong_node_count_is_data_error(tmp_path, capsys, session_files,
                                                 est_nodes, truth_nodes, message):
    # an int keeps that many nodes in every frame; a tuple, frame by frame and
    # then its last count for the rest
    truth_rows = [json.loads(ln) for ln in open(session_files[1], encoding="utf-8")]
    paths = []
    for name, nodes in (("est", est_nodes), ("truth", truth_nodes)):
        counts = nodes if isinstance(nodes, tuple) else (nodes,)
        path = tmp_path / f"{name}.jsonl"
        path.write_text("".join(
            json.dumps({**row, "coords_m": row["coords_m"][:counts[min(k, len(counts) - 1)]]})
            + "\n" for k, row in enumerate(truth_rows)))
        paths.append(str(path))
    assert cli.cli(["evaluate", "--est", paths[0], "--truth", paths[1]]) == cli.EXIT_DATA
    assert capsys.readouterr().err == message
