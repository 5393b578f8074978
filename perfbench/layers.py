"""Layer boundaries to trace, and the per-layer metrics derived from a trace.

Counts are per repeat (a session, a training run or a pass of cold
solves); "per frame" and "per epoch" figures divide by the frames or epochs
the traced repeats processed.  A boundary with no calls reads 0.
"""

from __future__ import annotations

import time

import numpy as np

from tenserecon import harness, lstm, pipeline, reconstruction, sensors, simulator, topology


def boundaries(tracer):
    """(span name, owner, attribute, kind, hooks) for every traced boundary."""
    samples = tracer.samples
    solves = samples.setdefault("solve", [])
    returns = samples.setdefault("frame_returns", [])
    modes = samples.setdefault("modes", [0, 0])
    stretching = sensors.Mode.STRETCHING

    def session_start(args, kwargs):
        returns.append(None)

    def frame_returned(result):
        returns.append(time.perf_counter())

    def count_modes(args, kwargs):
        flags = list(args[2] if len(args) > 2 else kwargs["modes"])
        modes[0] += sum(1 for m in flags if m is stretching)
        modes[1] += len(flags)

    def solved(result):
        solves.append((result.iterations, len(result.cost_history) - 1))

    return [
        ("pipeline.reconstruct_session", pipeline, "reconstruct_session", "span",
         {"before": session_start}),
        ("sensors.strains_from_frame", sensors, "strains_from_frame", "span",
         {"before": count_modes}),
        ("sensors.bend_inverse", sensors, "bend_inverse", "span", {}),
        ("sensors.bending_strain", sensors, "bending_strain", "count", {}),
        ("lstm.predict_strain", lstm, "predict_strain", "span", {}),
        ("lstm.train", lstm, "train", "span", {}),
        ("lstm.sequence_loss", lstm, "sequence_loss", "span", {}),
        ("reconstruction.Tracker.process", reconstruction.Tracker, "process", "span",
         {"after": frame_returned}),
        ("reconstruction.solve", reconstruction, "solve", "span", {"after": solved}),
        ("reconstruction.residuals", reconstruction, "residuals", "span", {}),
        ("reconstruction.jacobian", reconstruction, "jacobian", "span", {}),
        ("simulator.generate_session", simulator, "generate_session", "span", {}),
        ("simulator.deform", simulator, "deform", "span", {}),
        ("simulator.resistances_from_state", simulator, "resistances_from_state",
         "span", {}),
        ("topology.edge_lengths", topology, "edge_lengths", "span", {}),
        ("harness.write_sensor_csv", harness, "write_sensor_csv", "span", {}),
        ("harness.parse_sensor_csv", harness, "parse_sensor_csv", "span", {}),
        ("harness.export_frames", harness, "export_frames", "span", {}),
        ("harness.evaluate", harness, "evaluate", "span", {}),
    ]


# name -> (unit, better); the order is the order of BENCHMARK.json's per_layer
PER_LAYER = {
    "pipeline.reconstruct_session.self_ms_per_frame": ("ms", "lower"),
    "pipeline.frame_ms_p50": ("ms", "lower"),
    "pipeline.frame_ms_p95": ("ms", "lower"),
    "pipeline.stretching_share": ("ratio", "lower"),
    "sensors.strains_from_frame.self_ms_per_frame": ("ms", "lower"),
    "sensors.bend_inverse.calls": ("count", "lower"),
    "sensors.bend_inverse.ms_per_call": ("ms", "lower"),
    "sensors.bending_strain.calls": ("count", "lower"),
    "lstm.predict_strain.calls_per_frame": ("count", "lower"),
    "lstm.predict_strain.ms_per_frame": ("ms", "lower"),
    "lstm.sequence_loss.s_per_epoch": ("s", "lower"),
    "lstm.train.self_s_per_epoch": ("s", "lower"),
    "reconstruction.solve.calls": ("count", "lower"),
    "reconstruction.solve.self_ms": ("ms", "lower"),
    "reconstruction.residuals.calls": ("count", "lower"),
    "reconstruction.residuals.us_per_call": ("us", "lower"),
    "reconstruction.jacobian.calls": ("count", "lower"),
    "reconstruction.jacobian.us_per_call": ("us", "lower"),
    "reconstruction.iterations_per_solve": ("count", "lower"),
    "reconstruction.step_accept_ratio": ("ratio", "higher"),
    "simulator.deform.ms_per_call": ("ms", "lower"),
    "simulator.resistances_from_state.self_ms_per_frame": ("ms", "lower"),
    "topology.edge_lengths.us_per_call": ("us", "lower"),
    "harness.write_sensor_csv.ms": ("ms", "lower"),
    "harness.parse_sensor_csv.ms": ("ms", "lower"),
    "harness.export_frames.ms": ("ms", "lower"),
    "harness.evaluate.ms": ("ms", "lower"),
    "harness.bytes_written": ("bytes", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.reconstruct_unaccounted_share": ("ratio", "lower"),
}


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def _frame_intervals_ms(returns: list) -> list[float]:
    out = []
    prev = None
    for stamp in returns:
        if stamp is not None and prev is not None:
            out.append((stamp - prev) * 1e3)
        prev = stamp
    return out


def per_layer_metrics(tracer, traced, overhead_ratio: float) -> dict[str, float]:
    """Per-layer figures from a tracer and the traced repeats it recorded.

    overhead_ratio is the median of traced over untraced repeat wall time.
    """
    repeats = len(traced)
    frames = sum(r.frames for r in traced)
    epochs = sum(r.epochs for r in traced)
    calls, total, self_ = tracer.calls, tracer.total_s, tracer.self_s

    intervals = _frame_intervals_ms(tracer.samples["frame_returns"])
    stretching, sensed = tracer.samples["modes"]
    solves = tracer.samples["solve"]
    accepted = sum(a for _, a in solves)
    residuals_in_solve = sum(s.calls for s in tracer.spans
                             if s.name == "reconstruction.residuals"
                             and tracer.spans[s.parent].name == "reconstruction.solve")

    # the share of the benchmark's own reconstruct wall clock that no boundary
    # below reconstruct_session covers: that span's self time plus the cost of
    # its wrapper
    rec_wall = sum(r.reconstruct_wall_s for r in traced)
    rec_spans = [s for s in tracer.spans if s.name == "pipeline.reconstruct_session"]
    rec_accounted = sum(x.self_s for s in rec_spans for x in tracer.subtree(s)[1:])

    def per_call(name, scale):
        return _div(total(name), calls(name)) * scale

    return {
        "pipeline.reconstruct_session.self_ms_per_frame":
            _div(self_("pipeline.reconstruct_session"), frames) * 1e3,
        "pipeline.frame_ms_p50": float(np.percentile(intervals, 50)) if intervals else 0.0,
        "pipeline.frame_ms_p95": float(np.percentile(intervals, 95)) if intervals else 0.0,
        "pipeline.stretching_share": _div(stretching, sensed),
        "sensors.strains_from_frame.self_ms_per_frame":
            _div(self_("sensors.strains_from_frame"), frames) * 1e3,
        "sensors.bend_inverse.calls": _div(calls("sensors.bend_inverse"), repeats),
        "sensors.bend_inverse.ms_per_call": per_call("sensors.bend_inverse", 1e3),
        "sensors.bending_strain.calls": _div(calls("sensors.bending_strain"), repeats),
        "lstm.predict_strain.calls_per_frame": _div(calls("lstm.predict_strain"), frames),
        "lstm.predict_strain.ms_per_frame": _div(total("lstm.predict_strain"), frames) * 1e3,
        "lstm.sequence_loss.s_per_epoch": _div(total("lstm.sequence_loss"), epochs),
        "lstm.train.self_s_per_epoch": _div(self_("lstm.train"), epochs),
        "reconstruction.solve.calls": _div(calls("reconstruction.solve"), repeats),
        "reconstruction.solve.self_ms":
            _div(self_("reconstruction.solve"), calls("reconstruction.solve")) * 1e3,
        "reconstruction.residuals.calls": _div(calls("reconstruction.residuals"), repeats),
        "reconstruction.residuals.us_per_call": per_call("reconstruction.residuals", 1e6),
        "reconstruction.jacobian.calls": _div(calls("reconstruction.jacobian"), repeats),
        "reconstruction.jacobian.us_per_call": per_call("reconstruction.jacobian", 1e6),
        "reconstruction.iterations_per_solve":
            _div(sum(i for i, _ in solves), len(solves)),
        "reconstruction.step_accept_ratio":
            _div(accepted, residuals_in_solve - len(solves)),
        "simulator.deform.ms_per_call": per_call("simulator.deform", 1e3),
        "simulator.resistances_from_state.self_ms_per_frame":
            _div(self_("simulator.resistances_from_state"), frames) * 1e3,
        "topology.edge_lengths.us_per_call": per_call("topology.edge_lengths", 1e6),
        "harness.write_sensor_csv.ms": _div(total("harness.write_sensor_csv"), repeats) * 1e3,
        "harness.parse_sensor_csv.ms": _div(total("harness.parse_sensor_csv"), repeats) * 1e3,
        "harness.export_frames.ms": _div(total("harness.export_frames"), repeats) * 1e3,
        "harness.evaluate.ms": _div(total("harness.evaluate"), repeats) * 1e3,
        "harness.bytes_written": _div(sum(r.bytes_written for r in traced), repeats),
        "trace.overhead_ratio": overhead_ratio,
        "trace.reconstruct_unaccounted_share": _div(rec_wall - rec_accounted, rec_wall),
    }
