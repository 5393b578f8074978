"""Every JSON input format rejects a malformed file with its own error naming the path."""

import json

import pytest

from tenserecon.errors import CalibrationError, ModelFormatError, TopologyError
from tenserecon.lstm import init_model, load_model, save_model
from tenserecon.sensors import (
    BendCalibration,
    default_stretch_table,
    load_calibration,
    load_stretch_table,
    save_calibration,
)
from tenserecon.simulator import load_scenario, press_scenario, save_scenario
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
              lambda p: save_model(init_model(2, 3, 4, seed=0), p),
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
