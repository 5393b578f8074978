"""Synthetic deformation scenarios and sensor streams.

Replaces the physical rig: ground-truth shapes come from kinematic
constraint projection (struts stay rigid, anchors stay put, tendons follow),
and a session's (frames, 24) resistances come from inverting the strain models
and adding banded dR/R noise.  A session takes one timeline pass, one stacked
projection of its distinct shapes (one per run of identical frames), and one
length pass and one sensor pass over those shapes before each frame gets its
own noise.  Everything is deterministic for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import (CalibrationError, RelaxationError, SensorDomainError, TopologyError,
                     read_json, write_json)
from .reconstruction import COINCIDENCE_LIMIT, frame_table
from .sensors import BendCalibration, SensorSession, StretchTable, bend_inverse
from .topology import Topology, edge_lengths, edge_pass, length_jacobian, tendon_triangles

DEFAULT_NOISE_BAND = (-0.23, 0.13)  # observed dR/R noise envelope
DEFAULT_BASELINE_OHMS = 5.8e6
DEFORM_TOL = 1e-10  # m; deform's strut projection stops once every gap is smaller
DEFORM_MAX_ITER = 100
MAX_SAMPLE_RATE_HZ = 1000.0  # frame timestamps are whole milliseconds
_NOT_REACHED = (f"strut projection did not reach {DEFORM_TOL} m in {DEFORM_MAX_ITER} "
                "iterations")


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
    correction stays minimal.  Tendons are free to change length.  Values
    that are (3,) vectors give one frame and return 12x3 coordinates.  Values
    that are (frames, 3) arrays give a stack and return (frames, 12, 3): one
    iteration over the whole stack, where each frame stops once its own
    struts are within DEFORM_TOL, so it gets the bits of its own one-frame
    call, and a failure is the earliest failing frame's error, ``frame`` its
    index.
    """
    for n in displacements:
        if n in t.anchored:
            raise TopologyError(f"cannot displace anchored node {n}")
        if n not in range(len(t.nominal_coords)):
            raise TopologyError(f"unknown node id {n}")
    if np.asarray(next(iter(displacements.values()), ())).ndim > 1:
        return _deform_stack(t, displacements)

    coords = t.nominal_coords.copy()
    for n, vec in displacements.items():
        coords[n] = coords[n] + np.asarray(vec, dtype=float)

    m = t.strut_members
    for _ in range(DEFORM_MAX_ITER):
        e, d = edge_pass(m, coords)
        gaps = d - t.strut_length
        if np.abs(gaps).max() < DEFORM_TOL:
            return coords
        if d.min() < COINCIDENCE_LIMIT:
            raise RelaxationError(_collapsed(m, d))
        jac = length_jacobian(m, e, d)
        # least-norm correction: move as little as possible to close the gaps
        step = jac.T @ np.linalg.solve(jac @ jac.T, gaps)
        coords[m.free] -= step.reshape(-1, 3)
    raise RelaxationError(_NOT_REACHED)


def _deform_stack(t: Topology, displacements: dict[int, np.ndarray]) -> np.ndarray:
    """deform of (frames, 3) displacements: the one-frame loop, run on the
    frames still projecting.  A frame that stops is written back and dropped.
    The one-frame call keeps its own loop: one loop serving both, with per-frame
    flags, a batched solve and row bookkeeping, took 1.25x as long per 45 mm
    draw (2-vCPU x86-64, one BLAS thread)."""
    try:
        vecs = np.array(list(displacements.values()), dtype=float)
    except ValueError as exc:  # ragged: frame counts differ, or a (3,) among them
        raise TopologyError(
            f"stacked displacements must share one (frames, 3) shape: {exc}") from exc
    if vecs.ndim != 3 or vecs.shape[2] != 3:
        raise TopologyError(f"stacked displacements must be (frames, 3), got {vecs.shape[1:]}")
    stack = np.empty((vecs.shape[1], *t.nominal_coords.shape))
    stack[...] = t.nominal_coords
    stack[:, list(displacements)] += vecs.swapaxes(0, 1)

    m = t.strut_members
    x, live = stack, np.arange(len(stack))  # the frames still projecting, their rows
    failed = {}  # row -> its error message
    for _ in range(DEFORM_MAX_ITER):
        e, d = edge_pass(m, x)
        gaps = d - t.strut_length
        done = np.abs(gaps).max(axis=1) < DEFORM_TOL
        stop = done | (d.min(axis=1) < COINCIDENCE_LIMIT)
        if stop.any():
            failed.update((int(live[r]), _collapsed(m, d[r]))
                          for r in np.flatnonzero(stop & ~done))
            stack[live[done]] = x[done]  # x is a copy once a frame has stopped
            x, e, d, gaps, live = x[~stop], e[~stop], d[~stop], gaps[~stop], live[~stop]
        if not len(live):
            break
        jac = length_jacobian(m, e, d)
        step = jac.mT @ np.linalg.solve(jac @ jac.mT, gaps[..., None])
        x[:, m.free] -= step.reshape(len(x), -1, 3)
    else:
        failed.update(dict.fromkeys(live.tolist(), _NOT_REACHED))
    if failed:
        r = min(failed)
        raise RelaxationError(failed[r], r)
    return stack


def _collapsed(m, d: np.ndarray) -> str:
    """The error of a projection whose strut lengths d include one below COINCIDENCE_LIMIT."""
    n = np.flatnonzero(d < COINCIDENCE_LIMIT)[0]
    return f"strut {m.i[n]}-{m.j[n]} collapsed during projection"


def generate_session(scenario: Scenario, t: Topology, cal: BendCalibration,
                     stretch_inverse: StretchTable) -> tuple[np.recarray, SensorSession]:
    """Sample the scenario timeline into paired truth and sensor streams.

    Returns (the ground-truth frame table, its SensorSession), timestamp-aligned,
    sampled at scenario.sample_rate_hz over [0, last keyframe), every sensor
    resting at DEFAULT_BASELINE_OHMS.  Output is bit-reproducible per scenario.
    The timeline is evaluated at all frame times at once.  A run of frames whose
    displacements agree in their bits is one shape: one stacked deform call
    projects every run's first frame, whose shape every frame of the run
    takes.  The shapes' tendon lengths come from one pass, and
    their strains L/L0 - 1 become dR/R in one pass: compressive ones invert the
    bending polynomial, tensile ones the stretch table.  Only then are the dR/R
    gathered to frames and each frame's noise added before R = R0 * (1 + dR/R).
    A projection or sensor error names the first frame of its run.
    """
    duration_ms = scenario.keyframes[-1][0]
    n_frames = int(round(duration_ms / 1000.0 * scenario.sample_rate_hz))
    stamps = [int(round(k * 1000.0 / scenario.sample_rate_hz)) for k in range(n_frames)]
    nodes, disp = scenario.timeline(stamps)
    bits = disp.view(np.uint64)  # raw bits, so -0.0 and 0.0 are different displacements
    moved = np.ones(n_frames, dtype=bool)
    moved[1:] = (bits[1:] != bits[:-1]).any(axis=(1, 2))
    first = np.flatnonzero(moved)  # each run's first frame
    try:
        # through the module global, so a wrapper around deform sees the call
        shapes = deform(t, dict(zip(nodes, disp[first].swapaxes(0, 1))))
    except RelaxationError as exc:
        f = int(first[exc.frame or 0])  # with no node named, the one run is unstacked
        raise RelaxationError(f"t={stamps[f]} ms: {exc}", f) from exc
    # naming no node, the dict is one unstacked frame: the one run's shape, if any
    shapes = np.reshape(shapes, (-1, *t.nominal_coords.shape))[:len(first)]

    lengths = edge_lengths(t, shapes)
    strains = lengths / t.rest_lengths() - 1.0
    # dead band keeps rounding-level strains on the stretch side,
    # matching the ties-go-to-stretching convention
    bending = strains < -1e-12
    dr = np.empty_like(strains)
    dr[bending] = _invert(partial(bend_inverse, cal=cal), strains, bending, first, stamps)
    dr[~bending] = _invert(stretch_inverse.dr_from_strain, np.maximum(strains, 0.0),
                           ~bending, first, stamps)
    run = np.cumsum(moved) - 1  # each frame's run
    dr = dr[run]
    rng = np.random.default_rng(scenario.noise.seed)
    dr = dr + scenario.noise.sample(rng, dr.shape)
    # noise can push dR/R through -1; floor keeps the frame physical
    resist = np.maximum(DEFAULT_BASELINE_OHMS * (1.0 + dr), 1.0)
    return frame_table(stamps, shapes[run]), SensorSession(stamps, resist)


def _invert(inverse, strains: np.ndarray, mask: np.ndarray, first, stamps) -> np.ndarray:
    """inverse(strains[mask]) of the runs' strains; an entry out of its range names the
    first frame of its run and its sensor."""
    try:
        return inverse(strains[mask])
    except SensorDomainError as exc:
        r, k = (int(i) for i in np.argwhere(mask)[exc.sensor])
        raise SensorDomainError(exc.detail, k, stamps[first[r]], int(first[r])) from exc


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
