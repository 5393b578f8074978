"""End-to-end composition: sensor frames -> strains -> lengths -> tracked states.

This is the software image of the live system: a resistance stream comes in,
per-sensor regime flags are chosen from the previously reconstructed shape,
strains go through the bending polynomial or the sequence model, and the
geometric solver tracks node positions frame to frame.  A regime is known
only once the previous frame is solved, so the sequence model runs first,
over all 24 channels of every frame, in one predict_strain call per session;
lstm.predict_strain owns the batch size and the split of its passes.
"""

from __future__ import annotations

import numpy as np

from .errors import SensorDomainError, TenseReconError
from .harness import MetricsReport, evaluate
from .lstm import LstmModel, predict_strain
from .reconstruction import SolveOptions, SolveResult, Tracker
from .sensors import (
    BendCalibration,
    Mode,
    N_SENSORS,
    SensorFrame,
    lengths_from_strain,
    select_mode,
    strains_from_frame,
)
from .topology import Topology, edge_lengths


def _session_dr(frames: list[SensorFrame]) -> np.ndarray:
    """The session's (frames, 24) dR/R = (R - R0) / R0, R0 its first frame;
    no other code forms dR/R, so the baseline rule lives here alone."""
    r0 = frames[0].resistances
    return (np.stack([f.resistances for f in frames]) - r0) / r0


def _stretch_strains(dr: np.ndarray, model: LstmModel) -> np.ndarray:
    """The model strain of every channel at every frame, (frames, 24), each
    from the window of dR/R ending at that frame, left-padded with the
    earliest sample until enough frames have arrived."""
    padded = np.concatenate([np.repeat(dr[:1], model.window - 1, axis=0), dr])
    # (frames, 24, window); a name import would put numpy's dispatch
    # wrapper, which has a __wrapped__, on this module
    windows = np.lib.stride_tricks.sliding_window_view(padded, model.window, axis=0)
    # still a view: a frame's row stride is its 24 channels' strides
    block = windows.reshape(-1, model.window).T
    return predict_strain(model, block).reshape(-1, N_SENSORS)


def reconstruct_session(frames, t: Topology, cal: BendCalibration,
                        model: LstmModel | None,
                        opts: SolveOptions = SolveOptions(), *,
                        clamp: bool = False) -> list[SolveResult]:
    """Track node positions through a sensor-frame stream.

    The session's first frame is the baseline (rest) frame for every dR/R.
    The first frame treats every sensor as stretching (the structure is
    pre-tensioned at rest); later frames pick each sensor's regime from the
    previously reconstructed tendon length against its rest length.  Model
    input windows are left-padded with the earliest sample until enough
    history accumulates, so every frame yields a result.  A sensor error
    names its frame: ``t=<ms> ms: sensor <k>: ...``.
    """
    frames = list(frames)
    if not frames:
        return []
    if model is None:
        raise TenseReconError("reconstruct_session needs a stretching model")

    dr = _session_dr(frames)
    stretch = _stretch_strains(dr, model)
    rest = t.rest_lengths()
    tracker = Tracker(t, opts)
    results: list[SolveResult] = []
    modes = [Mode.STRETCHING] * N_SENSORS

    for frame, dr_row, stretch_row in zip(frames, dr, stretch):
        try:
            strains = strains_from_frame(dr_row, cal, modes, stretch_row, clamp=clamp)
            lengths = lengths_from_strain(strains, t)
        except SensorDomainError as exc:
            raise SensorDomainError(exc.detail, exc.sensor, frame.timestamp_ms) from exc
        result = tracker.process(frame.timestamp_ms, lengths)
        results.append(result)
        prev = edge_lengths(t, result.state)
        modes = [select_mode(prev[k], rest[k]) for k in range(N_SENSORS)]
    return results


def evaluate_session(results, truth_frames, t: Topology) -> MetricsReport:
    """Metrics over tracked results against ground-truth states."""
    est_states = [r.state for r in results]
    flags = [r.converged for r in results]
    return evaluate(est_states, truth_frames, t, converged_flags=flags)
