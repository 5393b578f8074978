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
    write_length_series_csv,
    write_sensor_csv,
)
from tenserecon.reconstruction import (SolveResult, Tracker, frame_table, nominal_state,
                                       solve)
from tenserecon.sensors import BendCalibration, SensorSession, default_stretch_table
from tenserecon.simulator import generate_session, press_scenario
from tenserecon.topology import build_canonical, edge_lengths, tendon_triangles


@pytest.fixture(scope="module")
def topo():
    return build_canonical(0.30)


def csv_stream(rows):
    return io.StringIO("\n".join([SENSOR_CSV_HEADER] + rows) + "\n")


def row(ts, values):
    return ",".join([str(ts)] + [repr(float(v)) for v in values])


def table(frames):
    """A ground-truth frame table of (t_ms, coords) pairs."""
    stamps, coords = zip(*frames)
    return frame_table(stamps, coords)


def results_table(results):
    """The frame table of per-frame SolveResults, one row per result, 100 ms apart from 0."""
    return frame_table(100 * np.arange(len(results)),
                       [r.state.coords for r in results], [r.converged for r in results],
                       [r.iterations for r in results], [r.residual_norm for r in results])


def no_frames(topo):
    return frame_table([], np.empty((0, *topo.nominal_coords.shape)))


class TestParse:
    def test_two_valid_rows(self):
        frames = parse_sensor_csv(csv_stream([
            row(0, np.full(24, 5.8e6)),
            row(100, np.full(24, 5.9e6)),
        ]))
        assert len(frames) == 2
        assert frames.timestamps_ms.tolist() == [0, 100]
        assert frames.resistances[1, 0] == 5.9e6

    def test_wrong_arity_names_line(self):
        with pytest.raises(DataFormatError) as err:
            parse_sensor_csv(csv_stream([row(0, np.full(23, 5.8e6))]))
        assert err.value.line == 2

    def test_scientific_notation_exact(self):
        frames = parse_sensor_csv(csv_stream([
            ",".join(["0"] + ["5.8e6"] * 24),
        ]))
        assert np.all(frames.resistances == 5.8e6)

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

    def test_empty_file_is_missing_header(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("")
        with pytest.raises(DataFormatError) as err:
            parse_sensor_csv(path)
        assert str(err.value) == "line 1: empty file: missing header"
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
        assert str(err.value) == "line 3: timestamp 100 not after previous 100"
        assert err.value.line == 3

    def test_bad_frame_line_skips_blank_lines(self):
        values = ["1000000.0"] * 24
        values[6] = "-2.0"
        with pytest.raises(DataFormatError) as err:
            parse_sensor_csv(csv_stream([row(0, np.full(24, 1e6)), "", "",
                                         ",".join(["100"] + values)]))
        assert str(err.value) == \
            "line 5: sensor 6: resistance must be finite and > 0, got -2.0"

    @pytest.mark.parametrize("later", [
        ",".join(["400"] + ["1000000.0"] * 23 + ["banana"]),
        ",".join(["4.5"] + ["1000000.0"] * 24),
        ",".join(["400"] + ["1000000.0"] * 23),
        ",".join([str(2**63)] + ["1000000.0"] * 24),
    ], ids=["non-numeric-cell", "non-integer-timestamp", "short-row", "int64-overflow"])
    def test_first_bad_line_in_file_order_is_named(self, later):
        # the session check of the rows parsed so far runs before a later
        # line's own fault is reported
        values = ["1000000.0"] * 24
        values[2] = "nan"
        rows = [row(0, np.full(24, 1e6)), ",".join(["100"] + values),
                row(200, np.full(24, 1e6)), later]
        with pytest.raises(DataFormatError) as err:
            parse_sensor_csv(csv_stream(rows))
        assert str(err.value) == "line 3: sensor 2: resistance must be finite and > 0, got nan"
        rows[1] = row(100, np.full(24, 1e6))
        with pytest.raises(DataFormatError) as err:
            parse_sensor_csv(csv_stream(rows))
        assert err.value.line == 5

    def test_timestamp_outside_int64_names_line(self):
        for t_ms in (2**63, -2**63 - 1):
            with pytest.raises(DataFormatError) as err:
                parse_sensor_csv(csv_stream([row(t_ms, np.full(24, 1e6))]))
            assert str(err.value) == f"line 2: {t_ms} is not an integer inside int64"
        frames = parse_sensor_csv(csv_stream([row(-2**63, np.full(24, 1e6)),
                                              row(2**63 - 1, np.full(24, 1e6))]))
        assert frames.timestamps_ms.tolist() == [-2**63, 2**63 - 1]

    def test_header_only_is_an_empty_session(self):
        frames = parse_sensor_csv(csv_stream([]))
        assert len(frames) == 0
        assert frames.resistances.shape == (0, 24)

    def test_write_parse_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(8)
        session = SensorSession(np.arange(10) * 100, rng.uniform(1e5, 9e6, size=(10, 24)))
        path = tmp_path / "sensors.csv"
        write_sensor_csv(session, path)
        back = parse_sensor_csv(path)
        assert np.array_equal(back.timestamps_ms, session.timestamps_ms)
        assert np.array_equal(back.resistances, session.resistances)


class TestRmse:
    def test_identical_streams_are_zero(self, topo):
        frames = table((i * 100, topo.nominal_coords) for i in range(3))
        report = evaluate(frames, frames, topo)
        assert report.rmse_node_height_mm == 0.0
        assert report.rmse_face_height_mm == 0.0
        assert report.rmse_system_mm == 0.0

    def test_node_rmse_hand_value(self, topo):
        # one node off by 9 mm in z among 9 free nodes: sqrt(81/9) = 3 mm
        est = topo.nominal_coords.copy()
        est[5, 2] += 0.009
        a = table([(0, est)])
        b = table([(0, topo.nominal_coords)])
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
        a = table([(0, est)])
        b = table([(0, topo.nominal_coords)])
        face = evaluate(a, b, topo).rmse_face_height_mm
        assert face == pytest.approx(expected, rel=1e-12)
        # the anchored face contributes zero
        anchored_face = [v for tri, v in zip(tris, per_face)
                         if set(tri) == topo.anchored]
        assert anchored_face == [0.0]

    def test_system_rmse_hand_value(self, topo):
        # one node off by (3,0,4) mm: sqrt(25/27) mm over 9 free nodes
        est = topo.nominal_coords.copy()
        est[7] += np.array([0.003, 0.0, 0.004])
        a = table([(0, est)])
        b = table([(0, topo.nominal_coords)])
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
            est.append((i * 100, e))
            truth.append((i * 100, g))
        total = 0.0
        count = 0
        for (_, a), (_, b) in zip(est, truth):
            for n in free:
                for ax in range(3):
                    total += (a[n, ax] - b[n, ax]) ** 2
                    count += 1
        expected = math.sqrt(total / count) * 1000.0
        system = evaluate(table(est), table(truth), topo).rmse_system_mm
        assert system == pytest.approx(expected, rel=1e-12)

    def test_reorder_invariance(self, topo):
        rng = np.random.default_rng(5)
        free = list(topo.free_nodes)
        est, truth = [], []
        for i in range(6):
            e = topo.nominal_coords.copy()
            e[free] += rng.normal(scale=0.01, size=(9, 3))
            est.append((i * 100, e))
            truth.append((i * 100, topo.nominal_coords))
        perm = [3, 0, 5, 1, 4, 2]
        base = evaluate(table(est), table(truth), topo)
        shuffled = evaluate(table(est[i] for i in perm), table(truth[i] for i in perm), topo)
        for field in ("rmse_node_height_mm", "rmse_face_height_mm", "rmse_system_mm"):
            assert getattr(shuffled, field) == pytest.approx(getattr(base, field), rel=1e-15)

    def test_misaligned_streams_diagnosed(self, topo):
        est = table((i * 100, topo.nominal_coords) for i in range(5))
        truth = table((i * 100, topo.nominal_coords) for i in range(3))
        with pytest.raises(MetricsError) as err:
            evaluate(est, truth, topo)
        assert "common timestamp range" in str(err.value)

    def test_empty_streams_rejected(self, topo):
        with pytest.raises(MetricsError):
            evaluate(no_frames(topo), no_frames(topo), topo)


def length_series(frames, topo, path):
    """write_length_series_csv's file read back: (timestamps, (frames, 24) lengths)."""
    write_length_series_csv(frames, topo, path)
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return rows[:, 0], rows[:, 1:]


class TestSeries:
    def test_constant_stream_flat(self, topo, tmp_path):
        frames = table((i * 100, topo.nominal_coords) for i in range(4))
        ts, series = length_series(frames, topo, tmp_path / "series.csv")
        assert ts.tolist() == [0, 100, 200, 300]
        assert series.shape == (4, 24)
        assert np.all(series == series[0])

    def test_nominal_values(self, topo, tmp_path):
        _, series = length_series(table([(0, topo.nominal_coords)]), topo,
                                  tmp_path / "series.csv")
        assert np.max(np.abs(series - 0.30 * math.sqrt(6.0) / 4.0)) < 1e-12

    def test_empty_stream_rejected(self, topo, tmp_path):
        with pytest.raises(MetricsError, match="no frames"):
            write_length_series_csv(no_frames(topo), topo, tmp_path / "series.csv")

    def test_csv_written(self, topo, tmp_path):
        frames = table((i * 100, topo.nominal_coords) for i in range(3))
        path = tmp_path / "series.csv"
        write_length_series_csv(frames, topo, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("t_ms,len00,")
        assert len(lines) == 4


def ref_export_frames(frames, path):
    """The frames JSONL writer as a plain loop: one json.dumps per frame."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if not len(frames):
            fh.write("# no frames\n")
        for r in frames:
            fh.write(json.dumps({"t_ms": int(r.t_ms), "converged": bool(r.converged),
                                 "iters": int(r.iters), "residual_norm": float(r.residual_norm),
                                 "coords_m": r.coords.tolist()}) + "\n")


def press_truth(topo, seed=0):
    truth, _ = generate_session(press_scenario(topo, seed=seed), topo, BendCalibration(),
                                default_stretch_table())
    return truth


def tracked_with_failed_frame(topo):
    tracker = Tracker(topo)
    lengths = edge_lengths(topo, press_truth(topo)[30].coords)
    results = [tracker.process(lengths),
               tracker.process(np.full(24, -1.0)),  # fails: re-emits the warm state
               tracker.process(lengths * 1.001)]
    assert results[1].error and not results[1].converged
    return results_table(results)


def edge_residual_norms(topo):
    """Frames whose residual norms are spelled unlike a plain repr, or only just like one."""
    return results_table([
        SolveResult(state=nominal_state(topo), converged=False, iterations=k,
                    residual_norm=norm, residuals=np.zeros(30))
        for k, norm in enumerate((math.inf, 1e16, 5e-324, np.float64(0.1), math.nan))])


def frames_file(tmp_path, *records):
    """A frames JSONL file of the given JSON lines."""
    path = tmp_path / "frames.jsonl"
    path.write_text("".join(r + "\n" for r in records))
    return path


class TestExport:
    @pytest.mark.parametrize("stream", [press_truth, tracked_with_failed_frame,
                                        edge_residual_norms, no_frames],
                             ids=["press-truth-with-holds", "solve-results-with-failure",
                                  "edge-residual-norms", "empty"])
    def test_matches_per_frame_reference_writer(self, topo, tmp_path, stream):
        frames = stream(topo)
        if stream is press_truth:  # held frames repeat their run's coordinate bits
            assert sum(a.coords.tobytes() == b.coords.tobytes()
                       for a, b in zip(frames, frames[1:])) > 100
        elif stream is tracked_with_failed_frame:  # the failed frame repeats the warm state
            assert frames.coords[1].tobytes() == frames.coords[0].tobytes()
        export_frames(frames, tmp_path / "fast.jsonl")
        ref_export_frames(frames, tmp_path / "ref.jsonl")
        assert (tmp_path / "fast.jsonl").read_bytes() == (tmp_path / "ref.jsonl").read_bytes()

    def test_lines_follow_coordinate_bits_not_objects(self, topo, tmp_path):
        zero, neg = topo.nominal_coords.copy(), topo.nominal_coords.copy()
        zero[5, 0], neg[5, 0] = 0.0, -0.0
        frames = table([(0, zero), (0, zero.copy()), (0, neg)])
        path = tmp_path / "f.jsonl"
        export_frames(frames, path)
        ref_export_frames(frames, tmp_path / "ref.jsonl")
        lines = path.read_text().splitlines()
        assert path.read_bytes() == (tmp_path / "ref.jsonl").read_bytes()
        assert lines[0] == lines[1] and lines[1] != lines[2] and "[-0.0, " in lines[2]

    def test_press_truth_encodes_each_distinct_shape_once(self, topo, tmp_path, monkeypatch):
        # seed 7: 300 frames in 101 runs, and the release ramp retraces the
        # press ramp's shapes, so only 54 coordinate bit patterns
        truth = press_truth(topo, seed=7)
        assert len({c.tobytes() for c in truth.coords}) == 54
        dumps, encoded = json.dumps, []

        def counted(obj, **kw):
            encoded.append(obj)
            return dumps(obj, **kw)

        monkeypatch.setattr(json, "dumps", counted)
        export_frames(truth, tmp_path / "truth.jsonl")
        monkeypatch.undo()
        assert len(encoded) == 54
        ref_export_frames(truth, tmp_path / "ref.jsonl")
        assert (tmp_path / "truth.jsonl").read_bytes() == (tmp_path / "ref.jsonl").read_bytes()

    def test_round_trip_bit_exact(self, topo, tmp_path):
        results = []
        rng = np.random.default_rng(1)
        for i in range(5):
            coords = topo.nominal_coords.copy()
            free = list(topo.free_nodes)
            coords[free] += rng.normal(scale=0.01, size=(9, 3))
            results.append(solve(nominal_state(topo),
                                 edge_lengths(topo, coords), topo))
        frames = results_table(results)
        path = tmp_path / "frames.jsonl"
        export_frames(frames, path)
        back = load_frames(path)
        assert back.dtype == frames.dtype and len(back) == 5
        for name in frames.dtype.names:
            assert np.array_equal(back[name], frames[name]), name
        assert not back.flags.writeable

    def test_empty_stream_writes_comment(self, topo, tmp_path):
        path = tmp_path / "empty.jsonl"
        export_frames(no_frames(topo), path)
        assert path.read_text() == "# no frames\n"
        assert len(load_frames(path)) == 0

    def test_three_hundred_frames_three_hundred_lines(self, topo, tmp_path):
        frames = table((i * 100, topo.nominal_coords) for i in range(300))
        path = tmp_path / "f.jsonl"
        export_frames(frames, path)
        assert len(path.read_text().splitlines()) == 300

    @pytest.mark.parametrize("record", ["[0, true]", "5", "null", '"t_ms"'])
    def test_record_must_be_json_object(self, tmp_path, record):
        with pytest.raises(DataFormatError) as err:
            load_frames(frames_file(tmp_path, TestLoad.GOOD, record))
        assert str(err.value).startswith("line 2: bad frame record: ")

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
        export_frames(table([(0, topo.nominal_coords)]), path)
        doc = json.loads(path.read_text())
        doc["coords_m"] = [row[:2] for row in doc["coords_m"]]  # 12x2
        path.write_text(path.read_text() + json.dumps(doc) + "\n")
        with pytest.raises(DataFormatError) as err:
            load_frames(path)
        assert err.value.line == 2
        assert "Nx3" in str(err.value)


class TestLoad:
    GOOD = '{"t_ms": 0, "converged": true, "coords_m": [[0,0,0]]}'

    def test_t_ms_outside_int64_names_line(self, tmp_path):
        for t_ms in (2**63, -2**63 - 1, 2**70):
            bad = self.GOOD.replace('"t_ms": 0', f'"t_ms": {t_ms}')
            with pytest.raises(DataFormatError) as err:
                load_frames(frames_file(tmp_path, self.GOOD, bad))
            assert str(err.value) == \
                f'line 2: "t_ms" must be a JSON integer in the int64 range, got {t_ms}'
        path = frames_file(tmp_path, *(self.GOOD.replace('"t_ms": 0', f'"t_ms": {t_ms}')
                                       for t_ms in (-2**63, 2**63 - 1)))
        assert load_frames(path).t_ms.tolist() == [-2**63, 2**63 - 1]

    @pytest.mark.parametrize("field, value, message", [
        ("iters", "1.5", '"iters" must be a JSON integer in the int64 range, got 1.5'),
        ("iters", "true", '"iters" must be a JSON integer in the int64 range, got True'),
        ("iters", str(2**63), f'"iters" must be a JSON integer in the int64 range, got {2**63}'),
        ("residual_norm", '"0.1"', '"residual_norm" must be a JSON number a float holds, '
                                   'got \'0.1\''),
        ("residual_norm", "null",
         '"residual_norm" must be a JSON number a float holds, got None'),
        ("residual_norm", str(10**400),  # no float holds it
         f'"residual_norm" must be a JSON number a float holds, got {10**400}'),
    ])
    def test_solver_fields_must_be_json_numbers(self, tmp_path, field, value, message):
        bad = self.GOOD.replace("{", '{"' + field + '": ' + value + ", ", 1)
        with pytest.raises(DataFormatError) as err:
            load_frames(frames_file(tmp_path, self.GOOD, bad))
        assert str(err.value) == f"line 2: {message}"

    @pytest.mark.parametrize("coord", ['"0.106"', "true"], ids=["string", "bool"])
    def test_coordinates_must_be_json_numbers(self, tmp_path, coord):
        bad = self.GOOD.replace("[[0,0,0]]", f"[[0,{coord},0]]")
        with pytest.raises(DataFormatError) as err:
            load_frames(frames_file(tmp_path, self.GOOD, bad))
        assert str(err.value) == \
            f'line 2: "coords_m" must hold JSON numbers, got [[0, {json.loads(coord)!r}, 0]]'

    def test_coordinate_no_float_holds_names_line(self, tmp_path):
        bad = self.GOOD.replace("[[0,0,0]]", f"[[0,{10**400},0]]")
        with pytest.raises(DataFormatError) as err:
            load_frames(frames_file(tmp_path, self.GOOD, bad))
        assert str(err.value) == \
            f'line 2: "coords_m" must hold JSON numbers, got [[0, {10**400}, 0]]'

    def test_solver_fields_default_to_ground_truth(self, tmp_path):
        failed = '{"t_ms": 100, "converged": false, "iters": 0, "residual_norm": NaN, ' \
                 '"coords_m": [[0,0,0]]}'
        frames = load_frames(frames_file(tmp_path, self.GOOD, failed))
        assert frames.iters.tolist() == [0, 0] and frames.converged.tolist() == [True, False]
        assert frames.residual_norm[0] == 0.0 and math.isnan(frames.residual_norm[1])

    def test_node_count_change_names_first_differing_line(self, topo, tmp_path):
        path = tmp_path / "f.jsonl"
        export_frames(table((i * 100, topo.nominal_coords) for i in range(4)), path)
        lines = path.read_text().splitlines()
        for k in (2, 3):
            doc = json.loads(lines[k])
            lines[k] = json.dumps({**doc, "coords_m": doc["coords_m"][:11]})
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError) as err:
            load_frames(path)
        assert str(err.value) == "line 3: 11 nodes; the first frame has 12"


class TestEvaluate:
    def test_report_fields(self, topo):
        est = frame_table([0, 100, 200, 300], [topo.nominal_coords] * 4,
                          converged=[True, True, False, True])
        report = evaluate(est, est, topo)
        assert report.frames_evaluated == 4
        assert report.converged_fraction == 0.75
        assert report.rmse_node_height_mm == 0.0
        assert len(report.per_frame_node_height_mm) == 4
        doc = report.to_json_dict()
        assert "definitions" in doc and len(doc["definitions"]) == 3
