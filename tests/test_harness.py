"""CSV ingestion, RMSE metrics, and frame export formats."""

import io
import json
import math

import numpy as np
import pytest

from tenserecon.errors import DataFormatError, MetricsError
from tenserecon.harness import (
    SENSOR_CSV_HEADER,
    evaluate,
    export_frames,
    load_frames,
    parse_sensor_csv,
    tendon_length_series,
    write_length_series_csv,
    write_sensor_csv,
)
from tenserecon.reconstruction import StateFrame, nominal_state, solve
from tenserecon.sensors import SensorFrame
from tenserecon.topology import build_canonical, edge_lengths, tendon_triangles


@pytest.fixture(scope="module")
def topo():
    return build_canonical(0.30)


def csv_stream(rows):
    return io.StringIO("\n".join([SENSOR_CSV_HEADER] + rows) + "\n")


def row(ts, values):
    return ",".join([str(ts)] + [repr(float(v)) for v in values])


def state(ts, coords, topo):
    return StateFrame(timestamp_ms=ts, coords=coords, anchored=topo.anchored)


class TestParse:
    def test_two_valid_rows(self):
        frames = parse_sensor_csv(csv_stream([
            row(0, np.full(24, 5.8e6)),
            row(100, np.full(24, 5.9e6)),
        ]))
        assert len(frames) == 2
        assert frames[0].timestamp_ms == 0
        assert frames[1].resistances[0] == 5.9e6

    def test_wrong_arity_names_line(self):
        with pytest.raises(DataFormatError) as err:
            parse_sensor_csv(csv_stream([row(0, np.full(23, 5.8e6))]))
        assert err.value.line == 2

    def test_scientific_notation_exact(self):
        frames = parse_sensor_csv(csv_stream([
            ",".join(["0"] + ["5.8e6"] * 24),
        ]))
        assert np.all(frames[0].resistances == 5.8e6)

    def test_crlf_and_trailing_newline(self):
        text = SENSOR_CSV_HEADER + "\r\n" + row(0, np.full(24, 1e6)) + "\r\n\r\n"
        frames = parse_sensor_csv(io.StringIO(text))
        assert len(frames) == 1

    def test_crlf_file_keeps_line_numbers(self, tmp_path):
        path = tmp_path / "s.csv"
        good, bad = row(0, np.full(24, 1e6)), row(0, np.full(24, 1e6))
        path.write_bytes((SENSOR_CSV_HEADER + "\r\n" + good + "\r\n" + bad + "\r\n").encode())
        with pytest.raises(DataFormatError) as err:
            parse_sensor_csv(path)
        assert err.value.line == 3
        path.write_bytes((SENSOR_CSV_HEADER + "\r\n" + good + "\r\n\r\n").encode())
        assert len(parse_sensor_csv(path)) == 1

    def test_bad_header(self):
        with pytest.raises(DataFormatError) as err:
            parse_sensor_csv(io.StringIO("time,r0\n"))
        assert err.value.line == 1

    def test_non_numeric_cell_names_line(self):
        rows = [row(0, np.full(24, 1e6)),
                row(100, np.full(24, 1e6)).replace("1000000.0", "banana", 1)]
        with pytest.raises(DataFormatError) as err:
            parse_sensor_csv(csv_stream(rows))
        assert err.value.line == 3

    def test_nan_cell_rejected(self):
        # zero and negative cells break the same rule as nan
        for sensor, cell in [(0, "nan"), (7, "0.0"), (23, "-1000000.0")]:
            values = ["1000000.0"] * 24
            values[sensor] = cell
            with pytest.raises(DataFormatError) as err:
                parse_sensor_csv(csv_stream([",".join(["0"] + values)]))
            assert err.value.line == 2
            assert f"sensor {sensor}: resistance must be finite and > 0" in str(err.value)

    def test_non_monotone_timestamps(self):
        with pytest.raises(DataFormatError) as err:
            parse_sensor_csv(csv_stream([
                row(100, np.full(24, 1e6)), row(100, np.full(24, 1e6))]))
        assert err.value.line == 3

    def test_write_parse_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(8)
        frames = [SensorFrame(timestamp_ms=i * 100,
                              resistances=rng.uniform(1e5, 9e6, size=24))
                  for i in range(10)]
        path = tmp_path / "sensors.csv"
        write_sensor_csv(frames, path)
        back = parse_sensor_csv(path)
        for a, b in zip(frames, back):
            assert a.timestamp_ms == b.timestamp_ms
            assert np.array_equal(a.resistances, b.resistances)


class TestRmse:
    def test_identical_streams_are_zero(self, topo):
        frames = [state(i * 100, topo.nominal_coords, topo) for i in range(3)]
        report = evaluate(frames, frames, topo)
        assert report.rmse_node_height_mm == 0.0
        assert report.rmse_face_height_mm == 0.0
        assert report.rmse_system_mm == 0.0

    def test_node_rmse_hand_value(self, topo):
        # one node off by 9 mm in z among 9 free nodes: sqrt(81/9) = 3 mm
        est = topo.nominal_coords.copy()
        est[5, 2] += 0.009
        a = [state(0, est, topo)]
        b = [state(0, topo.nominal_coords, topo)]
        assert evaluate(a, b, topo).rmse_node_height_mm == pytest.approx(3.0, rel=1e-12)

    def test_face_rmse_uniform_lift(self, topo):
        # oracle: recompute from the face composition directly
        est = topo.nominal_coords.copy()
        free = list(topo.free_nodes)
        est[free, 2] += 0.010
        tris = tendon_triangles(topo)
        per_face = []
        for tri in tris:
            n_free = sum(1 for n in tri if n in free)
            per_face.append(10.0 * n_free / 3.0)
        expected = math.sqrt(sum(v ** 2 for v in per_face) / len(per_face))
        a = [state(0, est, topo)]
        b = [state(0, topo.nominal_coords, topo)]
        assert evaluate(a, b, topo).rmse_face_height_mm == pytest.approx(expected, rel=1e-12)
        # the anchored face contributes zero
        anchored_face = [v for tri, v in zip(tris, per_face)
                         if set(tri) == topo.anchored]
        assert anchored_face == [0.0]

    def test_system_rmse_hand_value(self, topo):
        # one node off by (3,0,4) mm: sqrt(25/27) mm over 9 free nodes
        est = topo.nominal_coords.copy()
        est[7] += np.array([0.003, 0.0, 0.004])
        a = [state(0, est, topo)]
        b = [state(0, topo.nominal_coords, topo)]
        assert evaluate(a, b, topo).rmse_system_mm == pytest.approx(
            math.sqrt(25.0 / 27.0), rel=1e-12)

    def test_system_rmse_matches_brute_force(self, topo):
        rng = np.random.default_rng(4)
        free = list(topo.free_nodes)
        est, truth = [], []
        for i in range(5):
            e = topo.nominal_coords.copy()
            g = topo.nominal_coords.copy()
            e[free] += rng.normal(scale=0.01, size=(9, 3))
            g[free] += rng.normal(scale=0.01, size=(9, 3))
            est.append(state(i * 100, e, topo))
            truth.append(state(i * 100, g, topo))
        total = 0.0
        count = 0
        for a, b in zip(est, truth):
            for n in free:
                for ax in range(3):
                    total += (a.coords[n, ax] - b.coords[n, ax]) ** 2
                    count += 1
        expected = math.sqrt(total / count) * 1000.0
        assert evaluate(est, truth, topo).rmse_system_mm == pytest.approx(expected, rel=1e-12)

    def test_reorder_invariance(self, topo):
        rng = np.random.default_rng(5)
        free = list(topo.free_nodes)
        est, truth = [], []
        for i in range(6):
            e = topo.nominal_coords.copy()
            e[free] += rng.normal(scale=0.01, size=(9, 3))
            est.append(state(i * 100, e, topo))
            truth.append(state(i * 100, topo.nominal_coords, topo))
        perm = [3, 0, 5, 1, 4, 2]
        base = evaluate(est, truth, topo)
        shuffled = evaluate([est[i] for i in perm], [truth[i] for i in perm], topo)
        for field in ("rmse_node_height_mm", "rmse_face_height_mm", "rmse_system_mm"):
            assert getattr(shuffled, field) == pytest.approx(getattr(base, field), rel=1e-15)

    def test_misaligned_streams_diagnosed(self, topo):
        est = [state(i * 100, topo.nominal_coords, topo) for i in range(5)]
        truth = [state(i * 100, topo.nominal_coords, topo) for i in range(3)]
        with pytest.raises(MetricsError) as err:
            evaluate(est, truth, topo)
        assert "common timestamp range" in str(err.value)

    def test_empty_streams_rejected(self, topo):
        with pytest.raises(MetricsError):
            evaluate([], [], topo)


class TestSeries:
    def test_constant_stream_flat(self, topo):
        frames = [state(i * 100, topo.nominal_coords, topo) for i in range(4)]
        ts, series = tendon_length_series(frames, topo)
        assert series.shape == (4, 24)
        assert np.all(series == series[0])

    def test_nominal_values(self, topo):
        _, series = tendon_length_series([state(0, topo.nominal_coords, topo)], topo)
        assert np.max(np.abs(series - 0.30 * math.sqrt(6.0) / 4.0)) < 1e-12

    def test_csv_written(self, topo, tmp_path):
        frames = [state(i * 100, topo.nominal_coords, topo) for i in range(3)]
        path = tmp_path / "series.csv"
        write_length_series_csv(frames, topo, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("t_ms,len00,")
        assert len(lines) == 4


class TestExport:
    def test_round_trip_bit_exact(self, topo, tmp_path):
        results = []
        rng = np.random.default_rng(1)
        for i in range(5):
            coords = topo.nominal_coords.copy()
            free = list(topo.free_nodes)
            coords[free] += rng.normal(scale=0.01, size=(9, 3))
            results.append(solve(nominal_state(topo, i * 100),
                                 edge_lengths(topo, coords), topo))
        path = tmp_path / "frames.jsonl"
        export_frames(results, path)
        back = load_frames(path, anchored=topo.anchored)
        assert len(back) == 5
        for r, d in zip(results, back):
            assert np.array_equal(r.state.coords, d["state"].coords)
            assert d["converged"] == r.converged
            assert d["residual_norm"] == r.residual_norm

    def test_empty_stream_writes_comment(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        export_frames([], path)
        assert path.read_text() == "# no frames\n"
        assert load_frames(path) == []

    def test_three_hundred_frames_three_hundred_lines(self, topo, tmp_path):
        frames = [state(i * 100, topo.nominal_coords, topo) for i in range(300)]
        path = tmp_path / "f.jsonl"
        export_frames(frames, path)
        assert len(path.read_text().splitlines()) == 300

    def test_bad_record_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"t_ms": 0, "converged": true, "coords_m": [[0,0,0]]}\n'
                        'not json\n')
        with pytest.raises(DataFormatError) as err:
            load_frames(path)
        assert err.value.line == 2

    @pytest.mark.parametrize("converged", [None, '"false"', "1", "null"],
                             ids=["missing", "string", "number", "null"])
    def test_converged_must_be_json_boolean(self, tmp_path, converged):
        good = '{"t_ms": 0, "converged": false, "coords_m": [[0,0,0]]}'
        field = "" if converged is None else f'"converged": {converged}, '
        bad = '{"t_ms": 100, ' + field + '"coords_m": [[0,0,0]]}'
        path = tmp_path / "bad.jsonl"
        path.write_text(good + "\n" + bad + "\n")
        with pytest.raises(DataFormatError) as err:
            load_frames(path)
        assert err.value.line == 2
        assert "converged" in str(err.value)

    @pytest.mark.parametrize("t_ms", ["0.5", "100.0", "true", '"100"'],
                             ids=["fraction", "float", "bool", "string"])
    def test_t_ms_must_be_json_integer(self, tmp_path, t_ms):
        good = '{"t_ms": 0, "converged": false, "coords_m": [[0,0,0]]}'
        bad = '{"t_ms": ' + t_ms + ', "converged": false, "coords_m": [[0,0,0]]}'
        path = tmp_path / "bad.jsonl"
        path.write_text(good + "\n" + bad + "\n")
        with pytest.raises(DataFormatError) as err:
            load_frames(path)
        assert err.value.line == 2
        assert "t_ms" in str(err.value)

    def test_wrong_coords_shape_is_data_error(self, topo, tmp_path):
        path = tmp_path / "bad.jsonl"
        export_frames([state(0, topo.nominal_coords, topo)], path)
        doc = json.loads(path.read_text())
        doc["coords_m"] = [row[:2] for row in doc["coords_m"]]  # 12x2
        path.write_text(path.read_text() + json.dumps(doc) + "\n")
        with pytest.raises(DataFormatError) as err:
            load_frames(path, anchored=topo.anchored)
        assert err.value.line == 2
        assert "Nx3" in str(err.value)


class TestEvaluate:
    def test_report_fields(self, topo):
        est = [state(i * 100, topo.nominal_coords, topo) for i in range(4)]
        report = evaluate(est, est, topo, converged_flags=[True, True, False, True])
        assert report.frames_evaluated == 4
        assert report.converged_fraction == 0.75
        assert report.rmse_node_height_mm == 0.0
        assert len(report.per_frame_node_height_mm) == 4
        doc = report.to_json_dict()
        assert "definitions" in doc and len(doc["definitions"]) == 3
