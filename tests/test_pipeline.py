"""End-to-end composition: baselines, mode dispatch, the exact loop."""

import dataclasses

import numpy as np
import pytest

from tenserecon import pipeline
from tenserecon.errors import ModelFormatError, SensorDomainError, TenseReconError, TopologyError
from tenserecon.lstm import init_model
from tenserecon.pipeline import reconstruct_session
from tenserecon.reconstruction import SolveOptions, Tracker, frame_table
from tenserecon.sensors import (BendCalibration, Mode, SensorSession, default_stretch_table,
                                lengths_from_strain, strains_from_frame)
from tenserecon.simulator import NoiseModel, Scenario, generate_session, press_scenario
from tenserecon.topology import build_canonical, edge_lengths


@pytest.fixture(scope="module")
def topo():
    return build_canonical(0.30)


@pytest.fixture(scope="module")
def clean_session(topo):
    sc = press_scenario(topo, seed=4, noise=NoiseModel(kind="none"))
    return generate_session(sc, topo, BendCalibration(), default_stretch_table())


def head(session, n):
    """The session's first n frames."""
    return SensorSession(session.timestamps_ms[:n], session.resistances[:n])


def test_every_frame_yields_a_result(topo, clean_session, clean_model):
    truth, sensed = clean_session
    results = reconstruct_session(sensed, topo, BendCalibration(), clean_model,
                                  SolveOptions(prior_weight=0.5), clamp=True)
    assert len(results) == len(sensed)
    assert results.t_ms.tolist() == sensed.timestamps_ms.tolist()
    assert not results.flags.writeable


def test_sensor_error_names_its_frame(topo, clean_session, clean_model, monkeypatch):
    _, sensed = clean_session
    exact = pipeline.strains_from_frame
    calls = []

    def fail_fourth(*args, **kwargs):
        calls.append(args)
        if len(calls) == 4:
            raise SensorDomainError("dR/R = 0.01 outside calibration domain", sensor=5)
        return exact(*args, **kwargs)

    monkeypatch.setattr(pipeline, "strains_from_frame", fail_fourth)
    with pytest.raises(SensorDomainError) as err:
        reconstruct_session(head(sensed, 10), topo, BendCalibration(), clean_model)
    assert str(err.value) == "t=300 ms: sensor 5: dR/R = 0.01 outside calibration domain"
    assert err.value.sensor == 5
    assert err.value.detail == "dR/R = 0.01 outside calibration domain"


def test_strain_error_names_its_frame(topo, clean_session, clean_model, monkeypatch):
    # lengths_from_strain holds the strain check, so its error is a sensor
    # error of the frame too
    _, sensed = clean_session
    calls = []

    def degenerate_third(*args, **kwargs):
        calls.append(args)
        out = np.zeros(24)
        if len(calls) == 3:
            out[7] = -1.0
        return out

    monkeypatch.setattr(pipeline, "strains_from_frame", degenerate_third)
    with pytest.raises(SensorDomainError) as err:
        reconstruct_session(head(sensed, 10), topo, BendCalibration(), clean_model)
    assert str(err.value) == "t=200 ms: sensor 7: strain must be finite and > -1, got -1.0"
    assert err.value.sensor == 7


def test_regime_follows_previous_solved_lengths(topo, clean_session, clean_model,
                                                monkeypatch):
    # frame 0 is all stretching; frame n bends exactly the tendons that frame
    # n - 1 solved shorter than rest, and a tie stretches
    _, sensed = clean_session
    exact = pipeline.strains_from_frame
    seen = []

    def record(dr, cal, modes, stretch, *, clamp=False):
        seen.append(list(modes))
        return exact(dr, cal, modes, stretch, clamp=clamp)

    monkeypatch.setattr(pipeline, "strains_from_frame", record)
    results = reconstruct_session(sensed, topo, BendCalibration(), clean_model,
                                  SolveOptions(prior_weight=0.5), clamp=True)
    assert len(seen) == len(results) == len(sensed)
    assert seen[0] == [Mode.STRETCHING] * 24
    rest = topo.rest_lengths()
    ties = bending = 0
    for modes, prev in zip(seen[1:], results):
        solved = edge_lengths(topo, prev.coords)
        assert [m is Mode.BENDING for m in modes] == (solved < rest).tolist()
        ties += int(np.sum(solved == rest))
        bending += int(np.sum(solved < rest))
    assert ties > 0 and bending > 0  # both rules were exercised


def test_missing_model_rejected(topo, clean_session):
    _, sensed = clean_session
    with pytest.raises(TenseReconError):
        reconstruct_session(sensed, topo, BendCalibration(), None)


def test_empty_stream_gives_empty_results(topo, clean_model):
    empty = SensorSession([], np.empty((0, 24)))
    results = reconstruct_session(empty, topo, BendCalibration(), clean_model)
    assert len(results) == 0 and results.coords.shape == (0, 12, 3)


def test_first_frame_is_near_nominal(topo, clean_session, clean_model):
    _, sensed = clean_session
    results = reconstruct_session(head(sensed, 1), topo, BendCalibration(),
                                  clean_model, SolveOptions(prior_weight=0.5),
                                  clamp=True)
    free = list(topo.free_nodes)
    err = np.sqrt(np.mean(np.sum(
        (results[0].coords[free] - topo.nominal_coords[free]) ** 2,
        axis=1)))
    assert err < 0.005  # at rest, within model-bias tolerance of nominal


def test_model_strains_come_from_the_session_series(topo, monkeypatch):
    # one predict_strain call takes the session's (frames, 24) dR/R, and
    # frame n hands strains_from_frame its dR/R row and row n of the model
    # strains; the frames solve at rest, so any resistances will do
    rng = np.random.default_rng(5)
    r = 5.8e6 * np.exp(rng.normal(scale=0.3, size=(6, 24)))
    session = SensorSession(100 * np.arange(6), r)
    stretch = rng.normal(size=(6, 24))
    calls, seen = [], []

    def record(dr, cal, modes, stretch_row, *, clamp=False):
        seen.append((np.array(dr), np.array(stretch_row)))
        return np.zeros(24)

    monkeypatch.setattr(pipeline, "predict_strain", lambda m, dr: calls.append((m, dr)) or stretch)
    monkeypatch.setattr(pipeline, "strains_from_frame", record)
    model = init_model(2, 4, 3, seed=0)
    reconstruct_session(session, topo, BendCalibration(), model)
    [(called_with, dr)] = calls
    assert called_with is model
    assert np.array_equal(dr, (r - r[0]) / r[0])
    assert len(seen) == len(session)
    for n, (dr_row, stretch_row) in enumerate(seen):
        assert np.array_equal(dr_row, dr[n])
        assert np.array_equal(stretch_row, stretch[n])


NO_NOISE = NoiseModel(kind="none")
LATERAL_PUSH = {8: (0.020, 0.0, 0.0)}


def exact_loop_rmse_mm(topo, sc):
    """Node-height RMSE of the public stages composed on a noise-free session
    with every approximation off: the regimes from the truth's strains (the
    generator's dead band), the stretch table's exact inverse in place of
    the model, and the tracker with neither a prior nor a residual stop."""
    cal, table = BendCalibration(), default_stretch_table()
    truth, sensed = generate_session(sc, topo, cal, table)
    rest = topo.rest_lengths()
    tracker = Tracker(topo, SolveOptions(residual_tolerance=0.0))
    coords, converged = [], []
    for state, dr in zip(truth, pipeline._session_dr(sensed.resistances)):
        bending = edge_lengths(topo, state.coords) / rest - 1.0 < -1e-12
        stretch = np.zeros(24)
        stretch[~bending] = table.strain_from_dr(dr[~bending])
        modes = [Mode.BENDING if b else Mode.STRETCHING for b in bending]
        lengths = lengths_from_strain(strains_from_frame(dr, cal, modes, stretch), topo)
        result = tracker.process(state.t_ms, lengths)
        coords.append(result.state.coords)
        converged.append(result.converged)
    results = frame_table(truth.t_ms, coords, converged)
    return pipeline.evaluate_session(results, truth, topo).rmse_node_height_mm


# a noise-free session does not depend on its seed, so the scenarios vary
@pytest.mark.parametrize("scenario", [
    pytest.param(lambda t: press_scenario(t, depth=0.010, noise=NO_NOISE), id="press-10mm"),
    pytest.param(lambda t: press_scenario(t, depth=0.020, noise=NO_NOISE), id="press-20mm"),
    pytest.param(lambda t: press_scenario(t, depth=0.040, noise=NO_NOISE), id="press-40mm"),
    pytest.param(lambda t: Scenario(((0, {}), (5000, LATERAL_PUSH), (30000, LATERAL_PUSH)),
                                    noise=NO_NOISE), id="lateral-push-held"),
])
def test_exact_stages_return_the_truth(topo, scenario):
    # resistance -> strain -> length -> position is exact when every stage
    # is; a change that breaks that anywhere in the chain fails here
    assert exact_loop_rmse_mm(topo, scenario(topo)) <= 1e-5


@pytest.mark.xfail(
    strict=True,
    reason="Back at the flexible rest shape (see test_reconstruction's "
           "test_null_space_is_internal_flex) the first rest frame after a "
           "40 mm sideways push stops on the step tolerance: the damping "
           "(1e-6 at the stop) dwarfs the flex direction's curvature, so the "
           "damped step is 1.9e-13 m and solve reports a stationary point at "
           "a residual norm of 2.5e-13 m, where the other frames reach about "
           "1e-16 m.  Nodes stay up to 2.3e-4 mm off for the rest of the "
           "session, 6.5e-5 mm node-height RMSE.")
def test_exact_stages_return_the_truth_after_a_sideways_release(topo):
    push = {8: (0.040, 0.0, 0.0)}
    sc = Scenario(((0, {}), (5000, push), (15000, push), (20000, {}), (30000, {})),
                  noise=NO_NOISE)
    assert exact_loop_rmse_mm(topo, sc) <= 1e-5


def test_model_error_is_raised_before_frame_0(topo, clean_session, monkeypatch):
    # a model that cannot take the stretch features is the model's error,
    # not one blamed on the sensors of the first frame
    _, sensed = clean_session
    solved = []
    monkeypatch.setattr(Tracker, "process", lambda *args: solved.append(args))
    with pytest.raises(ModelFormatError) as err:
        reconstruct_session(head(sensed, 5), topo, BendCalibration(), init_model(3, 4, 5, seed=0))
    assert not isinstance(err.value, SensorDomainError)
    assert solved == []


@pytest.mark.parametrize("bad", [0.0, np.nan], ids=["zero", "nan"])
def test_bad_rest_length_is_raised_before_frame_0(topo, clean_session, clean_model,
                                                  monkeypatch, bad):
    # a regime needs every rest length; a bad one would otherwise fail every frame
    tendons = list(topo.tendons)
    tendons[7] = dataclasses.replace(tendons[7], rest_length=bad)
    broken = dataclasses.replace(topo, tendons=tuple(tendons))
    solved = []
    monkeypatch.setattr(Tracker, "process", lambda *args: solved.append(args))
    with pytest.raises(TopologyError) as err:
        reconstruct_session(head(clean_session[1], 5), broken, BendCalibration(), clean_model)
    assert str(err.value) == f"tendon 7: rest length must be finite and > 0, got {bad}"
    assert solved == []


def test_programming_error_in_model_propagates(topo, clean_session, clean_model,
                                               monkeypatch):
    def broken(m, window):
        raise TypeError("broken model")

    monkeypatch.setattr(pipeline, "predict_strain", broken)
    with pytest.raises(TypeError, match="broken model"):
        reconstruct_session(head(clean_session[1], 5), topo, BendCalibration(), clean_model)
