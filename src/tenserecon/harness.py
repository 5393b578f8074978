"""Frame ingestion, RMSE metrics, and export formats.

Sensor CSV:   header ``t_ms,r00,...,r23``, one resistance frame per row,
              UTF-8, LF or CRLF, floats in full round-trip precision.
Frame JSONL:  one JSON object per line:
              {"t_ms", "converged", "iters", "residual_norm", "coords_m"}.
              Ground-truth files carry the same shape with trivial solver
              fields.  An empty stream exports as a single comment line.

Reported metrics (all millimeters, free nodes only, frame-averaged):
  node height RMSE   z-axis error per free node
  face height RMSE   centroid-z error per tendon-triangle face
  system RMSE        all three coordinates per free node
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError, MetricsError, SensorDomainError, TopologyError, read_lines
from .reconstruction import SolveResult, StateFrame
from .sensors import N_SENSORS, SensorFrame
from .topology import Topology, tendon_triangles

SENSOR_CSV_HEADER = "t_ms," + ",".join(f"r{k:02d}" for k in range(N_SENSORS))

NODE_RMSE_DEFINITION = ("node height RMSE: sqrt(mean over frames and free nodes of "
                        "squared z error), mm")
FACE_RMSE_DEFINITION = ("face height RMSE: sqrt(mean over frames and tendon-triangle "
                        "faces of squared face-centroid z error), mm")
SYSTEM_RMSE_DEFINITION = ("system RMSE: sqrt(mean over frames, free nodes and xyz "
                          "of squared coordinate error), mm")


def parse_sensor_csv(source) -> list[SensorFrame]:
    """Parse a sensor CSV stream or path into timestamped frames.

    Rejections (wrong arity, non-numeric cells, a resistance SensorFrame
    rejects, non-monotone timestamps, bad header) raise DataFormatError
    naming the 1-based line.
    """
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        return parse_sensor_csv(read_lines(source))

    frames: list[SensorFrame] = []
    header = None
    for lineno, raw in enumerate(source, start=1):
        line = raw.rstrip("\r\n")
        if header is None:
            if line != SENSOR_CSV_HEADER:
                raise DataFormatError(
                    f"bad header; expected {SENSOR_CSV_HEADER!r}", line=lineno)
            header = line
            continue
        if line == "":
            continue  # tolerate trailing newline
        cells = line.split(",")
        if len(cells) != N_SENSORS + 1:
            raise DataFormatError(
                f"expected {N_SENSORS + 1} columns, found {len(cells)}", line=lineno)
        try:
            frame = SensorFrame(timestamp_ms=int(cells[0]),
                                resistances=np.array([float(c) for c in cells[1:]]))
        except (ValueError, SensorDomainError) as exc:
            raise DataFormatError(str(exc), line=lineno) from exc
        if frames and frame.timestamp_ms <= frames[-1].timestamp_ms:
            raise DataFormatError(f"timestamp {frame.timestamp_ms} not after previous "
                                  f"{frames[-1].timestamp_ms}", line=lineno)
        frames.append(frame)
    if header is None:
        raise DataFormatError("empty file: missing header", line=1)
    return frames


def write_sensor_csv(frames, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(SENSOR_CSV_HEADER + "\n")
        for f in frames:
            cells = [str(int(f.timestamp_ms))] + [repr(float(v)) for v in f.resistances]
            fh.write(",".join(cells) + "\n")


def _result_to_json_dict(r) -> dict:
    if isinstance(r, SolveResult):
        return {
            "t_ms": int(r.state.timestamp_ms),
            "converged": bool(r.converged),
            "iters": int(r.iterations),
            "residual_norm": float(r.residual_norm),
            "coords_m": [[float(x) for x in row] for row in r.state.coords],
        }
    return {  # plain StateFrame (ground truth)
        "t_ms": int(r.timestamp_ms),
        "converged": True,
        "iters": 0,
        "residual_norm": 0.0,
        "coords_m": [[float(x) for x in row] for row in r.coords],
    }


def export_frames(results, path) -> None:
    """Write SolveResults or StateFrames as JSON lines; bit-exact on re-load."""
    rows = [_result_to_json_dict(r) for r in results]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if not rows:
            fh.write("# no frames\n")
            return
        for row in rows:
            fh.write(json.dumps(row) + "\n")


def load_frames(path, anchored=frozenset()) -> list[dict]:
    """Read a frames JSONL file into dicts with a parsed StateFrame under "state".

    A record needs a JSON integer "t_ms", a JSON boolean "converged" and an
    Nx3 "coords_m"; anything else raises DataFormatError naming the 1-based
    line.
    """
    out = []
    for lineno, raw in enumerate(read_lines(path), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            doc = json.loads(line)
            t_ms, converged = doc["t_ms"], doc["converged"]
            if type(t_ms) is not int:
                raise DataFormatError(
                    f'"t_ms" must be a JSON integer, got {t_ms!r}', line=lineno)
            if not isinstance(converged, bool):
                raise DataFormatError(
                    f'"converged" must be a JSON boolean, got {converged!r}',
                    line=lineno)
            doc["state"] = StateFrame(timestamp_ms=t_ms,
                                      coords=np.array(doc["coords_m"], dtype=float),
                                      anchored=anchored)
        except (json.JSONDecodeError, KeyError, TypeError, ValueError,
                TopologyError) as exc:
            raise DataFormatError(f"bad frame record: {exc}", line=lineno) from exc
        out.append(doc)
    return out


def _aligned(est, truth, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Stack both streams in timestamp order; they must share every timestamp and
    hold n_nodes nodes in every frame."""
    est = sorted(est, key=lambda s: int(s.timestamp_ms))
    truth = sorted(truth, key=lambda s: int(s.timestamp_ms))
    if not est or not truth:
        raise MetricsError("empty estimate or truth stream")
    est_ts = [int(s.timestamp_ms) for s in est]
    truth_ts = [int(s.timestamp_ms) for s in truth]
    if est_ts != truth_ts:
        overlap = sorted(set(est_ts) & set(truth_ts))
        span = f"[{overlap[0]}..{overlap[-1]}] ({len(overlap)} frames)" if overlap else "empty"
        raise MetricsError(
            f"misaligned streams: {len(est)} estimate vs {len(truth)} truth frames; "
            f"common timestamp range {span}")
    for name, stream in (("estimate", est), ("truth", truth)):
        counts = sorted({len(s.coords) for s in stream})
        if counts != [n_nodes]:
            raise MetricsError(f"{name} frames have {counts} nodes; the topology has {n_nodes}")
    return (np.stack([s.coords for s in est]),
            np.stack([s.coords for s in truth]))


def _rms_mm(err: np.ndarray) -> float:
    return float(np.sqrt(np.mean(err ** 2)) * 1000.0)


def _face_dz(a: np.ndarray, b: np.ndarray, t: Topology) -> np.ndarray:
    """Face-centroid z errors, (faces, frames) in C order: the order the RMSE sums in."""
    tris = np.array(tendon_triangles(t), dtype=int)
    if not len(tris):
        raise MetricsError("topology has no tendon-triangle faces")
    return np.ascontiguousarray((a[:, tris, 2].mean(axis=2) - b[:, tris, 2].mean(axis=2)).T)


def tendon_length_series(states, t: Topology) -> tuple[np.ndarray, np.ndarray]:
    """Per-tendon length series: (timestamps_ms, lengths (n_frames, 24))."""
    from .topology import edge_lengths

    states = list(states)
    if not states:
        raise MetricsError("no states to tabulate")
    ts = np.array([int(s.timestamp_ms) for s in states])
    series = np.stack([edge_lengths(t, s) for s in states])
    return ts, series


def write_length_series_csv(states, t: Topology, path) -> None:
    ts, series = tendon_length_series(states, t)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t_ms," + ",".join(f"len{k:02d}" for k in range(series.shape[1])) + "\n")
        for row_ts, row in zip(ts, series):
            fh.write(",".join([str(int(row_ts))] + [repr(float(v)) for v in row]) + "\n")


@dataclass(frozen=True)
class MetricsReport:
    """Headline RMSEs plus per-frame traces for plotting."""

    rmse_node_height_mm: float
    rmse_face_height_mm: float
    rmse_system_mm: float
    frames_evaluated: int
    converged_fraction: float
    per_frame_node_height_mm: tuple[float, ...]

    def to_json_dict(self) -> dict:
        return {
            "definitions": [NODE_RMSE_DEFINITION, FACE_RMSE_DEFINITION,
                            SYSTEM_RMSE_DEFINITION],
            "rmse_node_height_mm": self.rmse_node_height_mm,
            "rmse_face_height_mm": self.rmse_face_height_mm,
            "rmse_system_mm": self.rmse_system_mm,
            "frames_evaluated": self.frames_evaluated,
            "converged_fraction": self.converged_fraction,
            "per_frame_node_height_mm": list(self.per_frame_node_height_mm),
        }


def evaluate(est_states, truth_states, t: Topology,
             converged_flags=None) -> MetricsReport:
    """Compute the full metrics report over aligned estimate/truth streams."""
    a, b = _aligned(est_states, truth_states, len(t.nominal_coords))
    d = (a - b)[:, list(t.free_nodes)]
    dz = d[:, :, 2]
    per_frame = tuple(float(v) for v in np.sqrt(np.mean(dz ** 2, axis=1)) * 1000.0)
    if converged_flags is None:
        conv = 1.0
    else:
        flags = list(converged_flags)
        conv = float(sum(bool(f) for f in flags) / len(flags)) if flags else 0.0
    return MetricsReport(
        rmse_node_height_mm=_rms_mm(dz),
        rmse_face_height_mm=_rms_mm(_face_dz(a, b, t)),
        rmse_system_mm=_rms_mm(d),
        frames_evaluated=len(a),
        converged_fraction=conv,
        per_frame_node_height_mm=per_frame,
    )
