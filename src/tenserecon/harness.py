"""Frame ingestion, RMSE metrics, and export formats.

Sensor CSV:   header ``t_ms,r00,...,r23``, one SensorSession frame per row,
              UTF-8, LF or CRLF, floats in full round-trip precision.
Frame JSONL:  one JSON object per row of a ``reconstruction.frame_table``:
              {"t_ms", "converged", "iters", "residual_norm", "coords_m"}.
              Ground-truth tables carry trivial solver fields.  An empty
              table exports as a single comment line.

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

from .errors import (DataFormatError, MetricsError, SensorDomainError, TopologyError, json_float,
                     json_floats, json_int, read_lines)
from .reconstruction import StateFrame, frame_table
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
                t_ms, row = json_int(int(cells[0])), [float(c) for c in cells[1:]]
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


def export_frames(frames: np.recarray, path) -> None:
    """Write a frame table as JSON lines; bit-exact on re-load.

    Coordinates are JSON-encoded once per distinct bit pattern (held and
    returning truth frames repeat earlier shapes), and each line is
    byte-identical to json.dumps of the whole record.
    """
    encoded: dict[bytes, str] = {}
    lines = []
    for (t_ms, converged, iters, residual_norm), xyz in zip(
            frames[["t_ms", "converged", "iters", "residual_norm"]].tolist(), frames.coords):
        key = xyz.tobytes()
        coords = encoded.get(key)
        if coords is None:
            coords = encoded[key] = json.dumps(xyz.tolist())
        # repr is json.dumps's text for a finite float, without a call's overhead
        norm = repr(residual_norm) if math.isfinite(residual_norm) else json.dumps(residual_norm)
        lines.append(f'{{"t_ms": {t_ms}, "converged": {"true" if converged else "false"}, '
                     f'"iters": {iters}, "residual_norm": {norm}, "coords_m": {coords}}}')
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n" if lines else "# no frames\n")


def _json_bool(value) -> bool:
    if type(value) is not bool:
        raise ValueError(f"{value!r} is not a JSON boolean")
    return value


# a frame record's fields: what each must be, and its reader
_RECORD = {"t_ms": ("be a JSON integer in the int64 range", json_int),
           "converged": ("be a JSON boolean", _json_bool),
           "iters": ("be a JSON integer in the int64 range", json_int),
           "residual_norm": ("be a JSON number a float holds", json_float),
           "coords_m": ("hold JSON numbers", json_floats)}


def load_frames(path) -> np.recarray:
    """Read a frames JSONL file into a frame table.

    A record needs a JSON integer "t_ms", a JSON boolean "converged" and an
    Nx3 "coords_m" of JSON numbers with the first record's N; "iters", a
    JSON integer, and "residual_norm", a JSON number (NaN for a failed frame),
    default to ground truth's 0 and 0.0, as errors.json_int and json_float read
    them.  Anything else raises DataFormatError naming the 1-based line.
    """
    records, coords = [], []
    for lineno, raw in enumerate(read_lines(path), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            doc = {"iters": 0, "residual_norm": 0.0, **json.loads(line)}
            record = []
            for key, (kind, read) in _RECORD.items():
                try:
                    record.append(read(doc[key]))
                except ValueError:
                    raise DataFormatError(f'"{key}" must {kind}, got {doc[key]!r}', lineno)
            state = StateFrame(record.pop())
        except (KeyError, TypeError, ValueError, TopologyError) as exc:
            raise DataFormatError(f"bad frame record: {exc}", line=lineno) from exc
        if coords and len(state.coords) != len(coords[0]):
            raise DataFormatError(f"{len(state.coords)} nodes; the first frame has "
                                  f"{len(coords[0])}", line=lineno)
        records.append(record)
        coords.append(state.coords)
    t_ms, converged, iters, norms = zip(*records) if records else ([],) * 4
    return frame_table(t_ms, np.stack(coords) if coords else np.empty((0, 0, 3)),
                       converged, iters, norms)


def _aligned(est, truth, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Both tables' coordinates in timestamp order; they must share every timestamp
    and hold n_nodes nodes."""
    if not len(est) or not len(truth):
        raise MetricsError("empty estimate or truth stream")
    est, truth = (f[np.argsort(f.t_ms, kind="stable")] for f in (est, truth))
    if not np.array_equal(est.t_ms, truth.t_ms):
        overlap = np.intersect1d(est.t_ms, truth.t_ms).tolist()
        span = f"[{overlap[0]}..{overlap[-1]}] ({len(overlap)} frames)" if overlap else "empty"
        raise MetricsError(
            f"misaligned streams: {len(est)} estimate vs {len(truth)} truth frames; "
            f"common timestamp range {span}")
    for name, frames in (("estimate", est), ("truth", truth)):
        if frames.coords.shape[1] != n_nodes:
            raise MetricsError(f"{name} frames have {frames.coords.shape[1]} nodes; "
                               f"the topology has {n_nodes}")
    return est.coords, truth.coords


def _rms_mm(err: np.ndarray) -> float:
    return float(np.sqrt(np.mean(err ** 2)) * 1000.0)


def _face_dz(a: np.ndarray, b: np.ndarray, t: Topology) -> np.ndarray:
    """Face-centroid z errors, (faces, frames) in C order: the order the RMSE sums in."""
    tris = np.array(tendon_triangles(t), dtype=int)
    if not len(tris):
        raise MetricsError("topology has no tendon-triangle faces")
    return np.ascontiguousarray((a[:, tris, 2].mean(axis=2) - b[:, tris, 2].mean(axis=2)).T)


def write_length_series_csv(frames: np.recarray, t: Topology, path) -> None:
    """Write each frame's timestamp and its 24 tendon lengths, one row per frame."""
    if not len(frames):
        raise MetricsError("no frames to tabulate")
    series = edge_lengths(t, frames.coords)
    write_csv_rows(path, "t_ms," + ",".join(f"len{k:02d}" for k in range(series.shape[1])),
                   ([t_ms, *row] for t_ms, row in zip(frames.t_ms.tolist(), series.tolist())))


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


def evaluate(est: np.recarray, truth: np.recarray, t: Topology) -> MetricsReport:
    """Compute the full metrics report of an estimate frame table against its
    aligned truth table; converged_fraction is the estimate's."""
    a, b = _aligned(est, truth, len(t.nominal_coords))
    d = (a - b)[:, list(t.free_nodes)]
    dz = d[:, :, 2]
    per_frame = tuple(float(v) for v in np.sqrt(np.mean(dz ** 2, axis=1)) * 1000.0)
    return MetricsReport(
        rmse_node_height_mm=_rms_mm(dz),
        rmse_face_height_mm=_rms_mm(_face_dz(a, b, t)),
        rmse_system_mm=_rms_mm(d),
        frames_evaluated=len(a),
        converged_fraction=float(np.mean(est.converged)),
        per_frame_node_height_mm=per_frame,
    )
