"""Ground-truth deformation, sensor synthesis, and session generation."""

import numpy as np
import pytest

from tenserecon.errors import SensorDomainError, TopologyError
from tenserecon.sensors import (
    BendCalibration,
    bending_strain,
    default_stretch_table,
)
from tenserecon.simulator import (
    NoiseModel,
    Scenario,
    deform,
    generate_session,
    load_scenario,
    press_scenario,
    resistances_from_state,
    save_scenario,
    scenario_from_json_dict,
    scenario_to_json_dict,
)
from tenserecon.topology import build_canonical, edge_lengths


@pytest.fixture(scope="module")
def topo():
    return build_canonical(0.30)


def strut_lengths(topo, coords):
    return np.array([np.linalg.norm(coords[i] - coords[j]) for i, j in topo.struts])


class TestDeform:
    def test_zero_displacement_is_identity(self, topo):
        out = deform(topo, {})
        assert np.array_equal(out, topo.nominal_coords)

    def test_press_preserves_struts(self, topo):
        out = deform(topo, {8: np.array([0.0, 0.0, -0.030])})
        assert np.max(np.abs(strut_lengths(topo, out) - 0.30)) < 1e-10
        # the pressed node actually moved down
        assert out[8, 2] < topo.nominal_coords[8, 2] - 0.020

    def test_anchored_displacement_rejected(self, topo):
        with pytest.raises(TopologyError):
            deform(topo, {0: np.array([0.0, 0.0, 0.01])})

    def test_unknown_node_rejected(self, topo):
        with pytest.raises(TopologyError):
            deform(topo, {99: np.array([0.0, 0.0, 0.01])})

    def test_anchors_never_move(self, topo):
        rng = np.random.default_rng(3)
        for _ in range(10):
            disp = {n: rng.uniform(-0.03, 0.03, size=3) for n in topo.free_nodes}
            out = deform(topo, disp)
            anchors = sorted(topo.anchored)
            assert np.array_equal(out[anchors], topo.nominal_coords[anchors])


class TestResistances:
    def test_nominal_zero_noise_is_baseline(self, topo):
        baseline = np.full(24, 5.8e6)
        frame = resistances_from_state(
            topo.nominal_coords, topo, BendCalibration(), default_stretch_table(),
            baseline, NoiseModel(kind="none"))
        # at rest every strain is zero (to rounding), which routes to the
        # stretch table and gives dR/R = 0
        assert np.max(np.abs(frame.resistances - baseline) / baseline) < 1e-12

    def test_inverse_composition_round_trip(self, topo):
        # compressed tendons invert the bending polynomial, stretched ones
        # the table; both must round-trip through the forward models
        cal = BendCalibration()
        table = default_stretch_table()
        baseline = np.full(24, 5.8e6)
        coords = deform(topo, {4: np.array([0.0, 0.0, -0.030]),
                               8: np.array([0.01, 0.0, -0.020])})
        frame = resistances_from_state(coords, topo, cal, table, baseline,
                                       NoiseModel(kind="none"))
        eps_true = edge_lengths(topo, coords) / topo.rest_lengths() - 1.0
        dr = (frame.resistances - baseline) / baseline
        for k in range(24):
            if eps_true[k] < 0:
                assert bending_strain(float(dr[k]), cal) == pytest.approx(
                    eps_true[k], abs=1e-6)
            else:
                assert table.strain_from_dr(float(dr[k])) == pytest.approx(
                    eps_true[k], abs=1e-6)

    def test_fixed_seed_reproducible(self, topo):
        baseline = np.full(24, 5.8e6)
        noise = NoiseModel(seed=99)
        args = (topo.nominal_coords, topo, BendCalibration(),
                default_stretch_table(), baseline, noise)
        a = resistances_from_state(*args)
        b = resistances_from_state(*args)
        assert np.array_equal(a.resistances, b.resistances)

    def test_out_of_range_strain_tagged(self, topo):
        # shrink a rest length so the nominal state implies a huge stretch
        t2 = build_canonical(0.30, rest_lengths={5: 0.05})
        baseline = np.full(24, 5.8e6)
        with pytest.raises(SensorDomainError) as err:
            resistances_from_state(t2.nominal_coords, t2, BendCalibration(),
                                   default_stretch_table(), baseline,
                                   NoiseModel(kind="none"))
        assert err.value.sensor == 5


class TestNoiseModel:
    def test_uniform_band(self):
        rng = np.random.default_rng(0)
        s = NoiseModel(kind="uniform", band=(-0.23, 0.13)).sample(rng, 10000)
        assert s.min() >= -0.23 and s.max() <= 0.13
        assert abs(s.mean() - (-0.05)) < 0.01

    def test_bad_band_rejected(self):
        with pytest.raises(Exception):
            NoiseModel(band=(0.2, -0.2))


class TestSession:
    def test_thirty_seconds_at_ten_hz_gives_300_frames(self, topo):
        sc = press_scenario(topo, seed=1)
        truth, sensed = generate_session(sc, topo, BendCalibration(),
                                         default_stretch_table())
        assert len(truth) == 300 and len(sensed) == 300
        assert truth[0].timestamp_ms == 0
        assert truth[-1].timestamp_ms == 29900
        assert [a.timestamp_ms for a in truth] == [b.timestamp_ms for b in sensed]

    def test_press_traces_rise_and_fall(self, topo):
        sc = press_scenario(topo, seed=1, noise=NoiseModel(kind="none"))
        truth, _ = generate_session(sc, topo, BendCalibration(),
                                    default_stretch_table())
        lengths = np.stack([edge_lengths(topo, s) for s in truth])
        rest = topo.rest_lengths()
        dev = np.abs(lengths - rest)
        # anchored-triangle tendons (indices 0..2) stay at rest
        assert np.max(dev[:, :3]) < 1e-12
        # some tendon deviates during the hold and all return at the end
        assert np.max(dev[150]) > 0.005
        assert np.max(dev[-1]) < 1e-9

    def test_struts_conserved_every_frame(self, topo):
        sc = press_scenario(topo, seed=2)
        truth, _ = generate_session(sc, topo, BendCalibration(),
                                    default_stretch_table())
        for s in truth:
            assert np.max(np.abs(strut_lengths(topo, s.coords) - 0.30)) < 1e-9

    def test_anchors_immobile(self, topo):
        sc = press_scenario(topo, seed=2)
        truth, _ = generate_session(sc, topo, BendCalibration(),
                                    default_stretch_table())
        anchors = sorted(topo.anchored)
        for s in truth:
            assert np.array_equal(s.coords[anchors], topo.nominal_coords[anchors])

    def test_same_seed_bit_identical(self, topo):
        sc = press_scenario(topo, seed=7)
        t1, s1 = generate_session(sc, topo, BendCalibration(), default_stretch_table())
        t2, s2 = generate_session(sc, topo, BendCalibration(), default_stretch_table())
        for a, b in zip(s1, s2):
            assert np.array_equal(a.resistances, b.resistances)
        for a, b in zip(t1, t2):
            assert np.array_equal(a.coords, b.coords)


class TestScenarioFormat:
    def test_json_round_trip(self, topo, tmp_path):
        sc = press_scenario(topo, seed=5, depth=0.025)
        path = tmp_path / "scenario.json"
        save_scenario(sc, path)
        sc2 = load_scenario(path)
        assert sc2 == sc

    def test_dict_round_trip(self, topo):
        sc = press_scenario(topo, seed=5)
        assert scenario_from_json_dict(scenario_to_json_dict(sc)) == sc

    def test_unordered_keyframes_rejected(self):
        with pytest.raises(TopologyError):
            Scenario(keyframes=((1000, {}), (500, {})))

    def test_rate_above_one_frame_per_ms_rejected(self):
        # built directly, not simulated: an unbounded rate would loop over ~1e300 frames
        Scenario(keyframes=((0, {}), (1000, {})), sample_rate_hz=1000.0)
        with pytest.raises(TopologyError, match="frame timestamps are whole milliseconds"):
            Scenario(keyframes=((0, {}), (1000, {})), sample_rate_hz=1e300)

    def test_displacements_interpolate_linearly(self, topo):
        sc = Scenario(keyframes=(
            (0, {4: (0.0, 0.0, 0.0)}),
            (1000, {4: (0.0, 0.0, -0.030)}),
        ))
        d = sc.displacements_at(500)
        assert d[4] == pytest.approx([0.0, 0.0, -0.015])


class TestZeroNoiseEndToEnd:
    def test_tracking_exact_lengths_is_exact(self, topo):
        # the geometric half of the fidelity story: exact tendon lengths
        # track to machine precision
        from tenserecon.reconstruction import SolveOptions, track

        sc = press_scenario(topo, seed=3, noise=NoiseModel(kind="none"))
        truth, _ = generate_session(sc, topo, BendCalibration(),
                                    default_stretch_table())
        frames = [(s.timestamp_ms, edge_lengths(topo, s)) for s in truth]
        results = list(track(frames, topo, SolveOptions(residual_tolerance=0.0)))
        free = list(topo.free_nodes)
        worst = max(
            float(np.sqrt(np.mean(np.sum(
                (r.state.coords[free] - s.coords[free]) ** 2, axis=1))))
            for r, s in zip(results, truth))
        assert worst < 1e-6

    @pytest.mark.xfail(
        strict=True,
        reason="Through the full sensor pipeline the stretching regime runs "
               "a learned model whose bias is of order 1e-3 strain.  The "
               "flex direction of this structure is nearly unobservable "
               "from member lengths (smallest Jacobian singular value is 0 "
               "at rest and <= 0.03 along a 30 mm press), so model bias is "
               "amplified 30x-to-unbounded into node positions; millimeter "
               "fidelity would need strain bias below ~1e-5, which a "
               "learned regressor cannot guarantee.  The geometric half is "
               "exact (see test_tracking_exact_lengths_is_exact).")
    def test_full_pipeline_fidelity_1mm(self, topo, clean_model):
        from tenserecon.pipeline import reconstruct_session
        from tenserecon.reconstruction import SolveOptions

        sc = press_scenario(topo, seed=3, noise=NoiseModel(kind="none"))
        truth, sensed = generate_session(sc, topo, BendCalibration(),
                                         default_stretch_table())
        results = reconstruct_session(
            sensed, topo, BendCalibration(), clean_model,
            SolveOptions(residual_tolerance=0.0), clamp=True)
        free = list(topo.free_nodes)
        worst = max(
            float(np.sqrt(np.mean(np.sum(
                (r.state.coords[free] - s.coords[free]) ** 2, axis=1))))
            for r, s in zip(results, truth))
        assert worst <= 1e-3
