"""Frame ingestion, RMSE metrics, and export formats.

Sensor CSV:   header ``t_ms,r00,...,r23``, one SensorSession frame per row,
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
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DataFormatError, MetricsError, SensorDomainError, TopologyError, read_lines
from .reconstruction import SolveResult, StateFrame
from .sensors import N_SENSORS, SensorSession
from .topology import Topology, edge_lengths, tendon_triangles

SENSOR_CSV_HEADER = "t_ms," + ",".join(f"r{k:02d}" for k in range(N_SENSORS))

NODE_RMSE_DEFINITION = ("node height RMSE: sqrt(mean over frames and free nodes of "
                        "squared z error), mm")
FACE_RMSE_DEFINITION = ("face height RMSE: sqrt(mean over frames and tendon-triangle "
                        "faces of squared face-centroid z error), mm")
SYSTEM_RMSE_DEFINITION = ("system RMSE: sqrt(mean over frames, free nodes and xyz "
                          "of squared coordinate error), mm")


def read_csv_rows(source, header: str):
    """Yield (1-based line number, cells) for each non-blank row of a CSV stream
    or path.  A first line other than ``header``, a cell count other than its,
    and '_' or a non-ASCII character (number spellings only Python accepts) are
    each a DataFormatError naming the line."""
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        source = read_lines(source)
    width = header.count(",") + 1
    lineno = 0
    for lineno, raw in enumerate(source, start=1):
        line = raw.rstrip("\r\n")
        if lineno == 1:
            if line != header:
                raise DataFormatError(f"bad header {line!r}; expected {header!r}", line=1)
            continue
        if line == "":
            continue
        if "_" in line or not line.isascii():
            raise DataFormatError("'_' or a non-ASCII character in a number", line=lineno)
        cells = line.split(",")
        if len(cells) != width:
            raise DataFormatError(f"expected {width} columns, found {len(cells)}", line=lineno)
        yield lineno, cells
    if lineno == 0:
        raise DataFormatError("empty file: missing header", line=1)


def write_csv_rows(path, header: str, rows) -> None:
    """Write ``header``, then each row of Python numbers in full-precision repr."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(map(repr, row)) + "\n")


def parse_sensor_csv(source) -> SensorSession:
    """A sensor CSV stream or path as its SensorSession; beyond read_csv_rows' checks, a bad
    number or a frame the session rejects is a DataFormatError naming the first such line."""
    lines, stamps, rows, fault = [], [], [], None
    try:
        for lineno, cells in read_csv_rows(source, SENSOR_CSV_HEADER):
            try:
                t_ms, row = int(cells[0]), [float(c) for c in cells[1:]]
                if not -2**63 <= t_ms < 2**63:
                    raise ValueError(f"timestamp {t_ms} outside the int64 range")
            except ValueError as exc:
                raise DataFormatError(str(exc), line=lineno) from exc
            lines.append(lineno)
            stamps.append(t_ms)
            rows.append(row)
    except DataFormatError as exc:
        fault = exc
    try:
        session = SensorSession(stamps, np.reshape(rows, (len(rows), N_SENSORS)))
    except SensorDomainError as exc:
        raise DataFormatError(str(SensorDomainError(exc.detail, exc.sensor)),
                              line=lines[exc.frame]) from exc
    if fault is not None:
        raise fault
    return session


def write_sensor_csv(session: SensorSession, path) -> None:
    rows = zip(session.timestamps_ms.tolist(), session.resistances.tolist())
    write_csv_rows(path, SENSOR_CSV_HEADER, ([t_ms, *r] for t_ms, r in rows))


def export_frames(results, path) -> None:
    """Write SolveResults or StateFrames as JSON lines; bit-exact on re-load.

    A StateFrame is ground truth and gets trivial solver fields.  Coordinates
    are JSON-encoded once per distinct coordinates object (held truth frames
    share the object of the frame before them), and each line is
    byte-identical to json.dumps of the whole record.
    """
    results = list(results)  # keeps each coordinates object, and so its id(), alive
    encoded: dict[int, str] = {}
    lines = []
    for r in results:
        state, converged, iters, residual_norm = (
            (r.state, r.converged, r.iterations, float(r.residual_norm))
            if isinstance(r, SolveResult) else (r, True, 0, 0.0))
        coords = encoded.get(id(state.coords))
        if coords is None:
            coords = encoded[id(state.coords)] = json.dumps(state.coords.tolist())
        # repr is json.dumps's text for a finite float, without a call's overhead
        norm = repr(residual_norm) if math.isfinite(residual_norm) else json.dumps(residual_norm)
        lines.append(f'{{"t_ms": {int(state.timestamp_ms)}, '
                     f'"converged": {"true" if converged else "false"}, "iters": {int(iters)}, '
                     f'"residual_norm": {norm}, "coords_m": {coords}}}')
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n" if lines else "# no frames\n")


def load_frames(path) -> list[dict]:
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
                                      coords=np.array(doc["coords_m"], dtype=float))
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
    states = list(states)
    if not states:
        raise MetricsError("no states to tabulate")
    ts = np.array([int(s.timestamp_ms) for s in states])
    return ts, edge_lengths(t, np.stack([s.coords for s in states]))


def write_length_series_csv(states, t: Topology, path) -> None:
    ts, series = tendon_length_series(states, t)
    write_csv_rows(path, "t_ms," + ",".join(f"len{k:02d}" for k in range(series.shape[1])),
                   ([row_ts, *row] for row_ts, row in zip(ts.tolist(), series.tolist())))


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
        return {"definitions": [NODE_RMSE_DEFINITION, FACE_RMSE_DEFINITION,
                                SYSTEM_RMSE_DEFINITION], **asdict(self)}


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
