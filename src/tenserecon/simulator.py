"""Synthetic deformation scenarios and sensor streams.

Replaces the physical rig: ground-truth shapes come from kinematic
constraint projection (struts stay rigid, anchors stay put, tendons follow),
and sensor resistances come from inverting the strain models over the whole
session and adding banded dR/R noise.  A session takes one timeline pass, one
projection per run of identical frames, one length pass and one sensor pass.
Everything is deterministic for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import (CalibrationError, RelaxationError, SensorDomainError, TopologyError,
                     read_json, write_json)
from .reconstruction import StateFrame
from .sensors import BendCalibration, SensorFrame, StretchTable, bend_inverse
from .topology import Topology, edge_lengths, edge_pass, length_jacobian, tendon_triangles

DEFAULT_NOISE_BAND = (-0.23, 0.13)  # observed dR/R noise envelope
DEFAULT_BASELINE_OHMS = 5.8e6
DEFORM_TOL = 1e-10  # m; deform's strut projection stops once every gap is smaller
DEFORM_MAX_ITER = 100
MAX_SAMPLE_RATE_HZ = 1000.0  # frame timestamps are whole milliseconds


@dataclass(frozen=True)
class NoiseModel:
    """Additive dR/R noise: kind "uniform" draws over band, "none" adds nothing."""

    kind: str = "uniform"
    band: tuple[float, float] = DEFAULT_NOISE_BAND
    seed: int = 0

    def __post_init__(self):
        lo, hi = self.band
        if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
            raise CalibrationError(f"noise band must satisfy lo < hi, got {self.band}")
        if self.kind not in ("uniform", "none"):
            raise CalibrationError(f"unknown noise kind {self.kind!r}")

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        if self.kind == "none":
            return np.zeros(size)
        return rng.uniform(*self.band, size=size)


@dataclass(frozen=True)
class Scenario:
    """Keyframed displacement timeline sampled at a fixed rate.

    Each keyframe maps node id -> displacement vector (m) at time t_ms;
    nodes not named in a keyframe have zero target there.  Displacements
    interpolate linearly between keyframes.  Sampling covers t in
    [0, last keyframe) at sample_rate_hz, at most one frame per millisecond
    because frame timestamps are whole milliseconds; the noise model holds
    the seed.
    """

    keyframes: tuple[tuple[int, dict[int, tuple[float, float, float]]], ...]
    sample_rate_hz: float = 10.0
    noise: NoiseModel = field(default_factory=NoiseModel)

    def __post_init__(self):
        times = [t for t, _ in self.keyframes]
        if not times or any(b <= a for a, b in zip(times, times[1:])):
            raise TopologyError("keyframes must be nonempty and strictly time-ordered")
        if not (np.isfinite(self.sample_rate_hz) and self.sample_rate_hz > 0):
            raise TopologyError(
                f"sample_rate_hz must be finite and > 0, got {self.sample_rate_hz}")
        if self.sample_rate_hz > MAX_SAMPLE_RATE_HZ:
            raise TopologyError(
                f"sample_rate_hz must be <= {MAX_SAMPLE_RATE_HZ:g}, got {self.sample_rate_hz}: "
                "frame timestamps are whole milliseconds")
        for t_ms, disp in self.keyframes:
            for node, vec in disp.items():
                if np.shape(vec) != (3,) or not np.all(np.isfinite(vec)):
                    raise TopologyError(f"keyframe t_ms={t_ms}, node {node}: displacement "
                                        f"must be 3 finite numbers, got {vec}")

    def timeline(self, stamps) -> tuple[list[int], np.ndarray]:
        """The named nodes, ascending, and their (stamps, nodes, 3) displacements."""
        nodes = sorted({n for _, d in self.keyframes for n in d})
        times = np.array([t for t, _ in self.keyframes], dtype=float)
        stamps = np.asarray(stamps, dtype=float)
        out = np.empty((len(stamps), len(nodes), 3))
        for k, n in enumerate(nodes):
            track = np.array([d.get(n, (0.0, 0.0, 0.0)) for _, d in self.keyframes],
                             dtype=float)
            for ax in range(3):
                out[:, k, ax] = np.interp(stamps, times, track[:, ax])
        return nodes, out


def deform(t: Topology, displacements: dict[int, np.ndarray]) -> np.ndarray:
    """Displace nodes, then project back onto the rigid-strut manifold.

    Raw displacements are applied to the named nodes; a least-norm Newton
    iteration (at most DEFORM_MAX_ITER steps) then restores every strut to
    its rigid length within DEFORM_TOL while anchors stay fixed and the
    correction stays minimal.  Tendons are free to change length.  Returns
    12x3 coordinates.
    """
    for n in displacements:
        if n in t.anchored:
            raise TopologyError(f"cannot displace anchored node {n}")
        if n not in range(len(t.nominal_coords)):
            raise TopologyError(f"unknown node id {n}")

    coords = t.nominal_coords.copy()
    for n, vec in displacements.items():
        coords[n] = coords[n] + np.asarray(vec, dtype=float)

    m = t.strut_members
    for _ in range(DEFORM_MAX_ITER):
        e, d = edge_pass(m, coords)
        gaps = d - t.strut_length
        if np.abs(gaps).max() < DEFORM_TOL:
            return coords
        if d.min() < 1e-9:
            n = np.flatnonzero(d < 1e-9)[0]
            raise RelaxationError(f"strut {m.i[n]}-{m.j[n]} collapsed during projection")
        jac = length_jacobian(m, e, d)
        # least-norm correction: move as little as possible to close the gaps
        step = jac.T @ np.linalg.solve(jac @ jac.T, gaps)
        coords[m.free] -= step.reshape(-1, 3)
    raise RelaxationError(
        f"strut projection did not reach {DEFORM_TOL} m in {DEFORM_MAX_ITER} iterations")


def generate_session(scenario: Scenario, t: Topology, cal: BendCalibration,
                     stretch_inverse: StretchTable
                     ) -> tuple[list[StateFrame], list[SensorFrame]]:
    """Sample the scenario timeline into paired truth and sensor streams.

    Returns (ground-truth StateFrames, SensorFrames), timestamp-aligned,
    sampled at scenario.sample_rate_hz over [0, last keyframe), every sensor
    resting at DEFAULT_BASELINE_OHMS.  Output is bit-reproducible per scenario.
    The timeline is evaluated at all frame times at once.  deform projects only
    a frame whose displacements differ in their bits from the previous frame's;
    a hold shares that frame's read-only coordinates.  The tendon lengths come
    from one pass over the (frames, 12, 3) stack, and the (frames, 24) strains
    L/L0 - 1 become resistances in one pass:
    compressive ones invert the bending polynomial, tensile ones the stretch
    table, and noise is added in dR/R space before R = R0 * (1 + dR/R).
    """
    duration_ms = scenario.keyframes[-1][0]
    n_frames = int(round(duration_ms / 1000.0 * scenario.sample_rate_hz))
    stamps = [int(round(k * 1000.0 / scenario.sample_rate_hz)) for k in range(n_frames)]
    nodes, disp = scenario.timeline(stamps)
    bits = disp.view(np.uint64)  # raw bits, so -0.0 and 0.0 are different displacements
    moved = np.r_[True, (bits[1:] != bits[:-1]).any(axis=(1, 2))]
    truth: list[StateFrame] = []
    for t_ms, vecs, project in zip(stamps, disp, moved):
        if project:  # else a hold, which keeps the previous frame's coords
            try:
                coords = deform(t, dict(zip(nodes, vecs)))
            except RelaxationError as exc:
                raise RelaxationError(f"t={t_ms} ms: {exc}") from exc
        truth.append(StateFrame(timestamp_ms=t_ms, coords=coords))

    lengths = edge_lengths(t, np.reshape([s.coords for s in truth], (-1, len(t.nodes), 3)))
    strains = lengths / t.rest_lengths() - 1.0
    # dead band keeps rounding-level strains on the stretch side,
    # matching the ties-go-to-stretching convention
    bending = strains < -1e-12
    dr = np.empty_like(strains)
    dr[bending] = _invert(partial(bend_inverse, cal=cal), strains, bending, truth)
    dr[~bending] = _invert(stretch_inverse.dr_from_strain, np.maximum(strains, 0.0),
                           ~bending, truth)
    rng = np.random.default_rng(scenario.noise.seed)
    dr = dr + scenario.noise.sample(rng, dr.shape)
    # noise can push dR/R through -1; floor keeps the frame physical
    resist = np.maximum(DEFAULT_BASELINE_OHMS * (1.0 + dr), 1.0)
    sensed = [SensorFrame(timestamp_ms=s.timestamp_ms, resistances=r)
              for s, r in zip(truth, resist)]
    return truth, sensed


def _invert(inverse, strains: np.ndarray, mask: np.ndarray, truth) -> np.ndarray:
    """inverse(strains[mask]); an entry out of its range names its frame and sensor."""
    try:
        return inverse(strains[mask])
    except SensorDomainError as exc:
        f, k = (int(i) for i in np.argwhere(mask)[exc.sensor])
        raise SensorDomainError(exc.detail, k, truth[f].timestamp_ms) from exc


def scenario_to_json_dict(sc: Scenario) -> dict:
    return {
        "sample_rate_hz": sc.sample_rate_hz,
        "noise": {"kind": sc.noise.kind, "band": list(sc.noise.band),
                  "seed": sc.noise.seed},
        "keyframes": [
            {"t_ms": t_ms,
             "displacements": {str(n): [float(v) for v in vec]
                               for n, vec in disp.items()}}
            for t_ms, disp in sc.keyframes
        ],
    }


def scenario_from_json_dict(d: dict) -> Scenario:
    noise = NoiseModel(kind=d["noise"].get("kind", "uniform"),
                       band=tuple(d["noise"].get("band", DEFAULT_NOISE_BAND)),
                       seed=int(d["noise"].get("seed", 0)))
    keyframes = tuple(
        (int(kf["t_ms"]),
         {int(n): tuple(float(v) for v in vec)
          for n, vec in kf["displacements"].items()})
        for kf in d["keyframes"]
    )
    return Scenario(keyframes=keyframes,
                    sample_rate_hz=float(d["sample_rate_hz"]), noise=noise)


def save_scenario(sc: Scenario, path) -> None:
    write_json(scenario_to_json_dict(sc), path)


def load_scenario(path) -> Scenario:
    return read_json(path, TopologyError, scenario_from_json_dict)


def press_scenario(t: Topology, depth: float = 0.030, seed: int = 0,
                   noise: NoiseModel | None = None,
                   sample_rate_hz: float = 10.0) -> Scenario:
    """Press the three top-face nodes down, hold, release: the demo scenario.

    The pressed nodes are the tendon triangle with the highest centroid,
    pushed ``depth`` meters straight down over 0-5 s, held to 15 s, released
    by 20 s, then at rest until 30 s.  ``seed`` seeds the default noise
    model; an explicit ``noise`` carries its own.
    """
    tris = tendon_triangles(t)
    top = max(tris, key=lambda tri: t.nominal_coords[list(tri), 2].mean())
    down = {n: (0.0, 0.0, -depth) for n in top}
    zero = {n: (0.0, 0.0, 0.0) for n in top}
    return Scenario(
        keyframes=(
            (0, zero), (5000, down), (15000, down), (20000, zero), (30000, zero),
        ),
        sample_rate_hz=sample_rate_hz,
        noise=noise if noise is not None else NoiseModel(seed=seed),
    )
