"""End-to-end composition: sensor session -> strains -> lengths -> tracked states.

This is the software image of the live system: a session's (frames, 24)
resistances come in, per-sensor regime flags are chosen from the last solved shape,
strains go through the bending polynomial or the sequence model, and the
geometric solver tracks node positions frame to frame.  A regime is known
only once the previous frame is solved, so the sequence model runs first:
one predict_strain call turns the session's dR/R series into a model strain
for every channel of every frame, and owns the windows and their passes.
"""

from __future__ import annotations

import numpy as np

from .errors import SensorDomainError, TenseReconError, TopologyError
from .harness import MetricsReport, evaluate
from .lstm import LstmModel, predict_strain
from .reconstruction import SolveOptions, SolveResult, Tracker
from .sensors import (
    BendCalibration,
    Mode,
    N_SENSORS,
    SensorSession,
    lengths_from_strain,
    strains_from_frame,
)
from .topology import Topology, edge_lengths, rest_length_problems


_REGIME = {False: Mode.STRETCHING, True: Mode.BENDING}  # keyed on "shorter than rest"


def _session_dr(r: np.ndarray) -> np.ndarray:
    """The session's (frames, 24) dR/R = (R - R0) / R0, R0 its first frame's
    resistances; no other code forms dR/R, so the baseline rule lives here alone."""
    return (r - r[0]) / r[0]


def reconstruct_session(session: SensorSession, t: Topology, cal: BendCalibration,
                        model: LstmModel | None,
                        opts: SolveOptions = SolveOptions(), *,
                        clamp: bool = False) -> list[SolveResult]:
    """Track node positions through a session's sensor frames.

    The session's first frame is the baseline (rest) frame for every dR/R.
    The first frame treats every sensor as stretching (the structure is
    pre-tensioned at rest); later frames pick each sensor's regime from the
    previously reconstructed tendon length against its rest length.  A rest
    length that is not finite and > 0 is a TopologyError naming the tendon,
    raised before any frame.  The model's windows are left-padded with the
    first frame's dR/R until enough history accumulates, so every frame
    yields a result.  A sensor error names its frame:
    ``t=<ms> ms: sensor <k>: ...``.
    """
    if not len(session):
        return []
    if model is None:
        raise TenseReconError("reconstruct_session needs a stretching model")

    bad = rest_length_problems(t)
    if bad:
        raise TopologyError(bad[0])
    rest = t.rest_lengths()
    dr = _session_dr(session.resistances)
    stretch = predict_strain(model, dr)
    tracker = Tracker(t, opts)
    results: list[SolveResult] = []
    modes = [Mode.STRETCHING] * N_SENSORS

    for t_ms, dr_row, stretch_row in zip(session.timestamps_ms.tolist(), dr, stretch):
        try:
            strains = strains_from_frame(dr_row, cal, modes, stretch_row, clamp=clamp)
            lengths = lengths_from_strain(strains, t)
        except SensorDomainError as exc:
            raise SensorDomainError(exc.detail, exc.sensor, t_ms) from exc
        result = tracker.process(t_ms, lengths)
        results.append(result)
        shorter = edge_lengths(t, result.state.coords) < rest  # a tie stretches
        modes = [_REGIME[b] for b in shorter.tolist()]
    return results


def evaluate_session(results, truth_frames, t: Topology) -> MetricsReport:
    """Metrics over tracked results against ground-truth states."""
    est_states = [r.state for r in results]
    flags = [r.converged for r in results]
    return evaluate(est_states, truth_frames, t, converged_flags=flags)
