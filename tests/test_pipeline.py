"""End-to-end composition details: baselines, padding, mode dispatch."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tenserecon import pipeline
from tenserecon.errors import ModelFormatError, SensorDomainError, TenseReconError
from tenserecon.lstm import init_model, predict_strain
from tenserecon.pipeline import STRETCH_BLOCK_FRAMES, reconstruct_session
from tenserecon.reconstruction import SolveOptions, Tracker
from tenserecon.sensors import BendCalibration, Mode, SensorFrame, default_stretch_table
from tenserecon.simulator import NoiseModel, generate_session, press_scenario
from tenserecon.topology import build_canonical, edge_lengths


@pytest.fixture(scope="module")
def topo():
    return build_canonical(0.30)


@pytest.fixture(scope="module")
def clean_session(topo):
    sc = press_scenario(topo, seed=4, noise=NoiseModel(kind="none"))
    return generate_session(sc, topo, BendCalibration(), default_stretch_table())


def test_every_frame_yields_a_result(topo, clean_session, clean_model):
    truth, sensed = clean_session
    results = reconstruct_session(sensed, topo, BendCalibration(), clean_model,
                                  SolveOptions(prior_weight=0.5), clamp=True)
    assert len(results) == len(sensed)
    assert [r.state.timestamp_ms for r in results] == \
        [f.timestamp_ms for f in sensed]


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
        reconstruct_session(sensed[:10], topo, BendCalibration(), clean_model)
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
        reconstruct_session(sensed[:10], topo, BendCalibration(), clean_model)
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
        solved = edge_lengths(topo, prev.state)
        assert [m is Mode.BENDING for m in modes] == (solved < rest).tolist()
        ties += int(np.sum(solved == rest))
        bending += int(np.sum(solved < rest))
    assert ties > 0 and bending > 0  # both rules were exercised


def test_missing_model_rejected(topo, clean_session):
    _, sensed = clean_session
    with pytest.raises(TenseReconError):
        reconstruct_session(sensed, topo, BendCalibration(), None)


def test_empty_stream_gives_empty_results(topo, clean_model):
    assert reconstruct_session([], topo, BendCalibration(), clean_model) == []


def test_first_frame_is_near_nominal(topo, clean_session, clean_model):
    _, sensed = clean_session
    results = reconstruct_session(sensed[:1], topo, BendCalibration(),
                                  clean_model, SolveOptions(prior_weight=0.5),
                                  clamp=True)
    free = list(topo.free_nodes)
    err = np.sqrt(np.mean(np.sum(
        (results[0].state.coords[free] - topo.nominal_coords[free]) ** 2,
        axis=1)))
    assert err < 0.005  # at rest, within model-bias tolerance of nominal


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**16), n_frames=st.integers(1, 3 * STRETCH_BLOCK_FRAMES + 5),
       window=st.integers(1, 24))
@example(seed=0, n_frames=3, window=20)  # fewer frames than the window
@example(seed=1, n_frames=STRETCH_BLOCK_FRAMES + 1, window=5)  # a one-frame last block
def test_session_model_strains_match_per_window_oracle(topo, seed, n_frames, window):
    # the model strains reconstruct_session hands strains_from_frame against
    # each frame's window, left-padded with the first sample, through
    # predict_strain one channel at a time; the frames solve at rest, so any
    # resistances will do
    rng = np.random.default_rng(seed)
    model = init_model(2, 8, window, seed=seed % 97)
    r = 5.8e6 * np.exp(rng.normal(scale=0.3, size=(n_frames, 24)))
    frames = [SensorFrame(100 * n, r[n]) for n in range(n_frames)]
    seen, batches = [], []

    def record(dr, cal, modes, stretch, *, clamp=False):
        seen.append((np.array(dr), np.array(stretch)))
        return np.zeros(24)

    def count(model, block):
        batches.append(block.shape[1])
        return predict_strain(model, block)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "strains_from_frame", record)
        mp.setattr(pipeline, "predict_strain", count)
        reconstruct_session(frames, topo, BendCalibration(), model)
    assert len(seen) == n_frames
    assert batches == [24 * min(STRETCH_BLOCK_FRAMES, n_frames - s)
                       for s in range(0, n_frames, STRETCH_BLOCK_FRAMES)]
    for n, (dr, stretch) in enumerate(seen):
        assert np.array_equal(dr, (r[n] - r[0]) / r[0])
        for k in range(24):
            idx = [max(m, 0) for m in range(n - window + 1, n + 1)]
            expected = predict_strain(model, (r[idx, k] - r[0, k]) / r[0, k])
            assert stretch[k] == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("window", [5, 20])
def test_stretch_windows_pad_with_the_first_row(window):
    # the padding is the session's first dR/R row, which is 0 only for a
    # frame-0 baseline; padding with zeros instead would pass the oracle
    # above, so here the first row is not zero
    rng = np.random.default_rng(window)
    model = init_model(2, 8, window, seed=3)
    dr = rng.uniform(-0.3, 0.3, size=(window + 3, 24))
    assert np.all(dr[0] != 0.0)
    got = pipeline._stretch_strains(dr, model)
    for n in range(len(dr)):
        padded = np.concatenate([np.repeat(dr[:1], window - 1, axis=0), dr[:n + 1]])
        win = padded[-window:]
        for k in range(24):
            assert got[n, k] == pytest.approx(predict_strain(model, win[:, k]), abs=1e-12)


def test_model_error_is_raised_before_frame_0(topo, clean_session, monkeypatch):
    # a model that cannot take the stretch features is the model's error,
    # not one blamed on the sensors of the first frame
    _, sensed = clean_session
    solved = []
    monkeypatch.setattr(Tracker, "process", lambda *args: solved.append(args))
    with pytest.raises(ModelFormatError) as err:
        reconstruct_session(sensed[:5], topo, BendCalibration(), init_model(3, 4, 5, seed=0))
    assert not isinstance(err.value, SensorDomainError)
    assert solved == []


def test_programming_error_in_model_propagates(topo, clean_session, clean_model,
                                               monkeypatch):
    def broken(m, window):
        raise TypeError("broken model")

    monkeypatch.setattr(pipeline, "predict_strain", broken)
    with pytest.raises(TypeError, match="broken model"):
        reconstruct_session(clean_session[1][:5], topo, BendCalibration(), clean_model)
