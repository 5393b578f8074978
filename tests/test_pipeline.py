"""End-to-end composition details: baselines, padding, mode dispatch."""

import numpy as np
import pytest

from tenserecon import pipeline
from tenserecon.errors import SensorDomainError, TenseReconError
from tenserecon.pipeline import reconstruct_session
from tenserecon.reconstruction import SolveOptions
from tenserecon.sensors import BendCalibration, default_stretch_table
from tenserecon.simulator import NoiseModel, generate_session, press_scenario
from tenserecon.topology import build_canonical


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
