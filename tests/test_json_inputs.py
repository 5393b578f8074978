"""Every JSON input format rejects a malformed file with its own error naming the path."""

import json
import time

import numpy as np
import pytest

from tenserecon import cli
from tenserecon.errors import CalibrationError, ModelFormatError, TopologyError
from tenserecon.lstm import Normalization, init_model, load_model, save_model
from tenserecon.sensors import (
    BendCalibration,
    default_stretch_table,
    load_calibration,
    load_stretch_table,
    save_calibration,
)
from tenserecon.simulator import MAX_FRAMES, load_scenario, press_scenario, save_scenario
from tenserecon.topology import build_canonical, load_topology, save_topology


def _save_stretch_table(path):
    table = default_stretch_table()
    path.write_text(json.dumps({"strain": table.strain.tolist(),
                                "dr_ratio": table.dr_ratio.tolist()}))


# loader, its error, a writer of a valid file, and one nested value replaced by a list
FORMATS = {
    "calibration": (load_calibration, CalibrationError,
                    lambda p: save_calibration(BendCalibration(), p),
                    {"coefficients": [[1.0]] * 6}),
    "stretch-table": (load_stretch_table, CalibrationError, _save_stretch_table,
                      {"strain": [[0.0], [0.5, 1.0]]}),
    "scenario": (load_scenario, TopologyError,
                 lambda p: save_scenario(press_scenario(build_canonical()), p),
                 {"noise": [1]}),
    "topology": (load_topology, TopologyError,
                 lambda p: save_topology(build_canonical(), p),
                 {"tendons": [[1]]}),
    "model": (load_model, ModelFormatError,
              lambda p: save_model(init_model(2, 3, 4, seed=0, norm=Normalization(
                  np.zeros(2), np.ones(2), input_low=-np.ones(2), input_high=np.ones(2))), p),
              {"norm": [1]}),
}


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("damage", ["truncated", "not-utf8", "top-level-list", "nested-list"])
def test_malformed_file_raises_format_error_naming_path(tmp_path, fmt, damage):
    load, error, save, nested = FORMATS[fmt]
    path = tmp_path / f"{fmt}.json"
    save(path)
    assert load(path) is not None  # the undamaged file loads
    text = path.read_text()
    if damage == "truncated":
        path.write_text(text[: len(text) // 2])
    elif damage == "not-utf8":
        path.write_bytes(b"\xff" + text.encode())
    elif damage == "top-level-list":
        path.write_text("[1]")
    else:
        path.write_text(json.dumps({**json.loads(text), **nested}))
    with pytest.raises(error) as err:
        load(path)
    expected = "malformed" if damage.endswith("list") else "unparseable"
    assert f"{expected} {path}" in str(err.value)


# Python's json reads NaN and Infinity; the calibration models must not
NON_FINITE = {
    "calibration": ("coefficients", "coefficients must be finite"),
    "stretch-table": ("strain", "stretch table values must be finite"),
}


@pytest.mark.parametrize("fmt", NON_FINITE)
@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["NaN", "Infinity"])
def test_non_finite_literal_is_calibration_error(tmp_path, capsys, fmt, value):
    load, _, save, _ = FORMATS[fmt]
    key, message = NON_FINITE[fmt]
    path = tmp_path / f"{fmt}.json"
    save(path)
    doc = json.loads(path.read_text())
    doc[key][-1] = value  # the last entry, which a strictly-increasing check passes
    path.write_text(json.dumps(doc))
    assert ("NaN" if value != value else "Infinity") in path.read_text()
    with pytest.raises(CalibrationError, match=message):
        load(path)
    sensors, truth = tmp_path / "s.csv", tmp_path / "t.jsonl"
    assert cli.cli(["simulate", f"--{fmt}", str(path), "--sensors-out", str(sensors),
                    "--truth-out", str(truth)]) == cli.EXIT_DATA
    assert capsys.readouterr().err.startswith(f"error: {path}: {message}")
    assert not sensors.exists() and not truth.exists()


# reader, and the key path of one integer field in the file its writer gives
INTEGER_FIELDS = {
    "scenario-t_ms": ("scenario", ("keyframes", 1, "t_ms")),
    "scenario-noise-seed": ("scenario", ("noise", "seed")),
    "topology-tendon-k": ("topology", ("tendons", 0, "k")),
    "topology-tendon-i": ("topology", ("tendons", 0, "i")),
    "topology-tendon-j": ("topology", ("tendons", 0, "j")),
    "topology-strut": ("topology", ("struts", 0, 1)),
    "topology-anchored": ("topology", ("anchored", 0)),
    "model-version": ("model", ("version",)),
    "model-D": ("model", ("D",)),
    "model-H": ("model", ("H",)),
    "model-window": ("model", ("window",)),
}


def _saved_doc(tmp_path, fmt):
    """The format's file path, written valid, and its parsed document."""
    path = tmp_path / f"{fmt}.json"
    FORMATS[fmt][2](path)
    return path, json.loads(path.read_text())


def _set(doc, key_path, value):
    """Replace the value at key_path in doc and return the value it held."""
    *parents, key = key_path
    for parent in parents:
        doc = doc[parent]
    old, doc[key] = doc[key], value
    return old


def _load_with(tmp_path, field_table, field, value, held=None):
    """The path and the error of the field's reader on its file with the field set to
    value, after checking that the valid file holds a value of type ``held`` there."""
    fmt, key_path = field_table[field]
    load, error, _, _ = FORMATS[fmt]
    path, doc = _saved_doc(tmp_path, fmt)
    old = _set(doc, key_path, value)
    assert held is None or type(old) is held
    path.write_text(json.dumps(doc))
    with pytest.raises(error) as err:
        load(path)
    return path, err.value


@pytest.mark.parametrize("field", INTEGER_FIELDS)
@pytest.mark.parametrize("value", [5000.7, True, "5000", 2**63, -2**63 - 1, 10**400],
                         ids=["float", "true", "string", "2**63", "below-int64", "10**400"])
def test_integer_field_must_be_json_integer(tmp_path, field, value):
    # int() once took 5000.7 as 5000, true as 1 and "5000" as 5000, and the range went
    # unchecked until a later cast failed or wrapped
    path, err = _load_with(tmp_path, INTEGER_FIELDS, field, value, held=int)
    assert str(err) == f"malformed {path}: {value!r} is not an integer inside int64"


@pytest.mark.parametrize("t_ms", [2**63, 10**400], ids=["2**63", "10**400"])
def test_keyframe_time_outside_int64_is_one_line_data_error(tmp_path, capsys, t_ms):
    # 10**400 once ended simulate in an OverflowError traceback
    path, doc = _saved_doc(tmp_path, "scenario")
    doc["keyframes"][-1]["t_ms"] = t_ms
    path.write_text(json.dumps(doc))
    assert cli.cli(["simulate", "--scenario", str(path), "--sensors-out",
                    str(tmp_path / "s.csv"), "--truth-out", str(tmp_path / "t.jsonl")]) \
        == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err == f"error: malformed {path}: {t_ms} is not an integer inside int64\n"


def _weight(name, *index):
    return ("model", ("weights", name, *index))


# reader, and the key path of one float field in the file its writer gives
NUMBER_FIELDS = {
    "calibration-coefficient": ("calibration", ("coefficients", 2)),
    "calibration-domain": ("calibration", ("domain", 0)),
    "stretch-table-strain": ("stretch-table", ("strain", 1)),
    "stretch-table-dr_ratio": ("stretch-table", ("dr_ratio", 1)),
    "scenario-sample-rate": ("scenario", ("sample_rate_hz",)),
    "scenario-noise-band": ("scenario", ("noise", "band", 0)),
    "scenario-displacement": ("scenario", ("keyframes", 1, "displacements", "4", 2)),
    "topology-strut-length": ("topology", ("strut_length_m",)),
    "topology-rest-length": ("topology", ("tendons", 0, "rest_length_m")),
    "topology-nominal-coords": ("topology", ("nominal_coords_m", 3, 1)),
    "model-input_mean": ("model", ("norm", "input_mean", 0)),
    "model-input_scale": ("model", ("norm", "input_scale", 1)),
    "model-target_mean": ("model", ("norm", "target_mean")),
    "model-target_scale": ("model", ("norm", "target_scale")),
    "model-input_low": ("model", ("norm", "input_low", 0)),
    "model-input_high": ("model", ("norm", "input_high", 1)),
    **{f"model-{name}": _weight(name, 1, 2) for name in ("w_f", "w_i", "w_h", "w_o")},
    **{f"model-{name}": _weight(name, 1) for name in ("b_f", "b_i", "b_o", "w_out")},
    "model-b_out": _weight("b_out"),
}


@pytest.mark.parametrize("field", NUMBER_FIELDS)
@pytest.mark.parametrize("value", ["0.5", True, None, 10**400],
                         ids=["string", "true", "null", "10**400"])
def test_number_field_must_be_json_number(tmp_path, field, value):
    # float() once took "0.5" and true, np.array(..., dtype=float) also null, and an
    # integer no float holds raised an OverflowError that no reader caught
    path, err = _load_with(tmp_path, NUMBER_FIELDS, field, value, held=float)
    assert str(err) == f"malformed {path}: {value!r} is not a JSON number a float holds"


def test_session_over_the_frame_cap_is_rejected_before_it_is_built(tmp_path):
    # 10**15 fits int64, but 10**13 frames at 10 Hz were once built one timestamp at a time
    path, doc = _saved_doc(tmp_path, "scenario")
    doc["keyframes"][-1]["t_ms"] = 10**15
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    with pytest.raises(TopologyError) as err:
        load_scenario(path)
    assert time.perf_counter() - start < 1.0
    assert str(err.value) == f"{path}: more than {MAX_FRAMES} frames at 10 Hz"


@pytest.mark.parametrize("key", ["04", " 4", "+4", "0_4", "\u0664"],
                         ids=["zero-padded", "space", "plus", "underscore", "arabic-indic"])
def test_scenario_node_key_must_be_canonical(tmp_path, key):
    # int() reads each of these as node 4, whose zero displacement once silently
    # replaced the press of the key "4" in the same keyframe
    path, doc = _saved_doc(tmp_path, "scenario")
    doc["keyframes"][1]["displacements"][key] = [0, 0, 0]
    path.write_text(json.dumps(doc))
    with pytest.raises(TopologyError) as err:
        load_scenario(path)
    assert str(err.value) == \
        f"malformed {path}: node key {key!r} is not a canonical decimal integer"


def _reverse_strain(doc):
    doc["strain"].reverse()


def _zero_input_scale(doc):
    doc["norm"]["input_scale"][0] = 0.0


def _invert_noise_band(doc):
    doc["noise"]["band"] = [0.1, -0.1]


# an edit that only a check of the format's own constructor rejects, the class
# that check raises, and its message
CONSTRUCTOR_CHECKS = {
    "stretch-table": (_reverse_strain, CalibrationError,
                      "stretch table columns must increase strictly"),
    "model": (_zero_input_scale, ModelFormatError, "input_scale must be > 0"),
    "scenario": (_invert_noise_band, CalibrationError,
                 "noise band must satisfy lo < hi, got (0.1, -0.1)"),
}


@pytest.mark.parametrize("fmt", CONSTRUCTOR_CHECKS)
def test_constructor_check_names_path_and_keeps_class(tmp_path, fmt):
    load, _, save, _ = FORMATS[fmt]
    edit, error, message = CONSTRUCTOR_CHECKS[fmt]
    path = tmp_path / f"{fmt}.json"
    save(path)
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(error) as err:
        load(path)
    assert type(err.value) is error
    assert str(err.value) == f"{path}: {message}"
