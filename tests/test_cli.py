"""CLI subcommands, exit codes, and the simulate/reconstruct/evaluate chain."""

import json

import numpy as np
import pytest

from tenserecon import cli
from tenserecon.lstm import save_model
from tenserecon.sensors import bending_strain
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
    assert cli.cli(["topology", "--validate", str(out)]) == cli.EXIT_OK
    assert "ok" in capsys.readouterr().out

    doc = json.loads(out.read_text())
    doc["tendons"] = doc["tendons"][:-1]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert cli.cli(["topology", "--validate", str(bad)]) == cli.EXIT_DATA


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


@pytest.mark.parametrize("command", ["simulate", "reconstruct", "evaluate", "run-all"])
def test_invalid_topology_file_is_data_error(tmp_path, capsys, model_path,
                                             session_files, command):
    good = tmp_path / "topo.json"
    assert cli.cli(["topology", "--out", str(good)]) == cli.EXIT_OK
    doc = json.loads(good.read_text())
    doc["tendons"][5]["j"] = 15
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    sensors, truth = session_files
    argv = {
        "simulate": ["simulate", "--sensors-out", str(tmp_path / "s.csv"),
                     "--truth-out", str(tmp_path / "t.jsonl")],
        "reconstruct": ["reconstruct", sensors, "--model", model_path,
                        "--out", str(tmp_path / "f.jsonl")],
        "evaluate": ["evaluate", "--est", truth, "--truth", truth],
        "run-all": ["run-all", "--model", model_path, "--outdir", str(tmp_path / "run")],
    }[command]
    capsys.readouterr()
    assert cli.cli(argv + ["--topology", str(bad)]) == cli.EXIT_DATA
    assert "tendon 5 joins unknown node 15" in capsys.readouterr().err


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
], ids=["config", "seed-before-command", "topology-seed", "evaluate-seed",
        "scenario-seed", "scenario-seed-0", "scenario-no-noise", "seed-no-noise",
        "reconstruct-no-model", "run-all-model-epochs"])
def test_unread_or_missing_flag_is_usage_error(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert cli.cli(argv) == cli.EXIT_USAGE
    assert "error:" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())
