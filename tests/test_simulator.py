"""Ground-truth deformation, sensor synthesis, and session generation."""

import dataclasses
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tenserecon import simulator
from tenserecon.errors import RelaxationError, SensorDomainError, TopologyError
from tenserecon.harness import write_sensor_csv
from tenserecon.sensors import (
    BendCalibration,
    bending_strain,
    default_stretch_table,
    is_bending,
)
from tenserecon.simulator import (
    DEFAULT_BASELINE_OHMS,
    MAX_FRAMES,
    NoiseModel,
    Scenario,
    deform,
    generate_session,
    load_scenario,
    press_scenario,
    save_scenario,
    scenario_from_json_dict,
    scenario_to_json_dict,
)
from tenserecon.topology import build_canonical, edge_lengths

from reference_sensors import ref_displacements_at, ref_generate_session


@pytest.fixture(scope="module")
def topo():
    return build_canonical(0.30)


def with_rest_length(t, k, rest):
    """t with tendon k pre-strained to rest length ``rest`` (m)."""
    tendons = list(t.tendons)
    tendons[k] = dataclasses.replace(tendons[k], rest_length=rest)
    return dataclasses.replace(t, tendons=tuple(tendons))


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


STILL = ((0, {}), (1000, {}))  # keyframes holding the rest shape for 10 frames


# pushes one node in and pulls another out, so tendons bend and stretch
BOTH_REGIMES = Scenario(
    keyframes=((0, {}), (2000, {4: (0.0, 0.0, -0.030), 8: (0.01, 0.0, -0.020)}),
               (3000, {4: (0.0, 0.0, -0.030), 8: (0.01, 0.0, -0.020)}), (5000, {})),
    noise=NoiseModel(seed=11))


# 7 Hz, so most keyframe times fall between frames; two holds at one shape
# with a rest between them, and -0.0 where other keyframes have 0.0
PRESSED = {8: (0.0, 0.0, -0.020), 4: (0.005, 0.0, 0.0)}
HOLD_AND_RETURN = Scenario(
    keyframes=((0, {8: (0.0, -0.0, 0.0)}), (1500, PRESSED), (4000, PRESSED),
               (5200, {8: (0.0, 0.0, 0.0)}), (6000, PRESSED), (9000, PRESSED),
               (11000, {8: (0.0, -0.0, 0.0)})),
    sample_rate_hz=7.0, noise=NoiseModel(seed=5))


class TestResistances:
    def test_nominal_zero_noise_is_baseline(self, topo):
        sc = Scenario(keyframes=STILL, noise=NoiseModel(kind="none"))
        _, sensed = generate_session(sc, topo, BendCalibration(), default_stretch_table())
        # at rest every strain is zero (to rounding), which routes to the
        # stretch table and gives dR/R = 0
        r = sensed.resistances
        assert np.max(np.abs(r - DEFAULT_BASELINE_OHMS) / DEFAULT_BASELINE_OHMS) < 1e-12

    def test_inverse_composition_round_trip(self, topo):
        # compressed tendons invert the bending polynomial, stretched ones
        # the table; both must round-trip through the forward models
        cal = BendCalibration()
        table = default_stretch_table()
        sc = dataclasses.replace(BOTH_REGIMES, noise=NoiseModel(kind="none"))
        truth, sensed = generate_session(sc, topo, cal, table)
        lengths = np.stack([edge_lengths(topo, s.coords) for s in truth])
        eps_true = lengths / topo.rest_lengths() - 1.0
        dr = sensed.resistances / DEFAULT_BASELINE_OHMS - 1.0
        compressed = is_bending(eps_true)  # the dead band routes rest-level strains to stretch
        assert compressed.any() and (~compressed).any()
        assert bending_strain(dr[compressed], cal) == pytest.approx(
            eps_true[compressed], abs=1e-6)
        assert table.strain_from_dr(dr[~compressed]) == pytest.approx(
            eps_true[~compressed], abs=1e-6)

    def test_fixed_seed_reproducible(self, topo):
        sc = Scenario(keyframes=STILL, noise=NoiseModel(seed=99))
        args = (sc, topo, BendCalibration(), default_stretch_table())
        a = generate_session(*args)[1].resistances
        b = generate_session(*args)[1].resistances
        assert np.array_equal(a, b)
        assert not np.array_equal(a[0], a[1])  # each frame draws its own noise

    def test_out_of_range_strain_tagged(self):
        # shrink a rest length so the nominal state implies a huge stretch
        t2 = with_rest_length(build_canonical(0.30), 5, 0.05)
        sc = Scenario(keyframes=STILL, noise=NoiseModel(kind="none"))
        with pytest.raises(SensorDomainError, match=r"^t=0 ms: sensor 5: strain ") as err:
            generate_session(sc, t2, BendCalibration(), default_stretch_table())
        assert err.value.sensor == 5
        assert err.value.detail.startswith("strain ")  # untagged, for re-tagging

    def test_out_of_range_later_frame_names_frame_and_sensor(self, topo):
        # rest a stretched tendon at strain 0.99, so the press carries it off the
        # table's strain range [0, 1] only after some frames
        truth, _ = generate_session(press_scenario(topo, noise=NoiseModel(kind="none")),
                                    topo, BendCalibration(), default_stretch_table())
        lengths = np.stack([edge_lengths(topo, s.coords) for s in truth])
        k = int(np.argmax(lengths.max(axis=0) / lengths[0]))
        t2 = with_rest_length(topo, k, float(lengths[0, k]) / 1.99)
        first = int(np.argmax(lengths[:, k] / t2.rest_lengths()[k] - 1.0 > 1.0))
        assert first > 0
        with pytest.raises(SensorDomainError) as err:
            generate_session(press_scenario(t2, noise=NoiseModel(kind="none")),
                             t2, BendCalibration(), default_stretch_table())
        assert str(err.value).startswith(f"t={truth[first].t_ms} ms: sensor {k}: ")
        assert err.value.sensor == k and err.value.frame == first
        assert str(err.value).endswith(err.value.detail)
        assert not err.value.detail.startswith(("t=", "sensor"))


    @staticmethod
    def press_collapsing_strut_0_3(topo, monkeypatch, rows):
        """The press, with free node 3 put onto anchor 0 in the given rows of its
        stacked projection, so the real deform fails there."""
        exact = simulator.deform

        def collapse(t, displacements):
            onto_0 = np.zeros((len(next(iter(displacements.values()))), 3))
            onto_0[rows] = t.nominal_coords[0] - t.nominal_coords[3]
            return exact(t, {**displacements, 3: onto_0})

        monkeypatch.setattr(simulator, "deform", collapse)
        generate_session(press_scenario(topo), topo, BendCalibration(),
                         default_stretch_table())

    def test_relaxation_error_names_its_frame(self, topo, monkeypatch):
        # the ramp moves every frame, so row 2 of the stack is frame 2
        with pytest.raises(RelaxationError,
                           match=r"^t=200 ms: strut 0-3 collapsed during projection$") as err:
            self.press_collapsing_strut_0_3(topo, monkeypatch, [2])
        assert err.value.frame == 2

    def test_relaxation_error_after_a_hold_names_its_frame(self, topo, monkeypatch):
        # the press projects t=0 and the 50 ramp frames to 5000 ms, then keeps
        # that shape through the hold, so row 51 of its stack is at 15100 ms
        with pytest.raises(RelaxationError,
                           match=r"^t=15100 ms: strut 0-3 collapsed during projection$") as err:
            self.press_collapsing_strut_0_3(topo, monkeypatch, [51])
        assert err.value.frame == 151

    def test_two_failing_rows_name_the_earlier_frame(self, topo, monkeypatch):
        with pytest.raises(RelaxationError, match=r"^t=15100 ms: ") as err:
            self.press_collapsing_strut_0_3(topo, monkeypatch, [70, 51])
        assert err.value.frame == 151


def stack_rows(projections):
    """The rows of the one deform call a session made; a call naming no node is one frame."""
    (_, displacements), = [c.args for c in projections.call_args_list]
    return len(next(iter(displacements.values()))) if displacements else 1


def bits(displacements):
    """A displacement dict as (node, raw bytes) pairs, so -0.0 differs from 0.0."""
    return [(n, np.asarray(v, dtype=float).tobytes()) for n, v in displacements.items()]


def outcome(generate, *args):
    """Per frame (timestamp, coordinate bytes, sensor CSV line), or the error raised."""
    try:
        truth, sensed = generate(*args)
    except (RelaxationError, SensorDomainError) as exc:
        return type(exc), str(exc)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sensors.csv"
        write_sensor_csv(sensed, path)
        lines = path.read_text().splitlines()[1:]
    return [(t_ms, coords.tobytes(), line)
            for t_ms, coords, line in zip(truth.t_ms.tolist(), truth.coords, lines)]


# a few shared values, so that shapes repeat, with 0.0 and -0.0 both among them
COMPONENTS = st.sampled_from([0.0, -0.0, 0.006, -0.012]) | st.floats(-0.015, 0.015)


@st.composite
def keyframed_scenarios(draw):
    nodes = draw(st.lists(st.integers(3, 11), min_size=1, max_size=3, unique=True))
    vec = st.tuples(COMPONENTS, COMPONENTS, COMPONENTS)
    shape = st.fixed_dictionaries({}, optional={n: vec for n in nodes})
    shapes = [draw(shape), draw(shape)]
    # each drawn shape is kept for one or two keyframes, the second making a hold
    picks = [p for p, keep in draw(st.lists(
        st.tuples(st.integers(0, len(shapes) - 1), st.integers(1, 2)), min_size=1, max_size=4))
        for _ in range(keep)]
    n_keyframes = len(picks)
    gaps = draw(st.lists(st.integers(100, 700), min_size=n_keyframes - 1,
                         max_size=n_keyframes - 1))
    # a single keyframe needs a later time to cover any frame
    start = draw(st.integers(0, 400) if gaps else st.integers(300, 1500))
    times = [start + sum(gaps[:k]) for k in range(n_keyframes)]
    rate = draw(st.sampled_from([7.0, 10.0, 13.0]) | st.floats(2.0, 15.0))
    noise = draw(st.sampled_from([NoiseModel(kind="none"), NoiseModel(seed=3)]))
    return Scenario(keyframes=tuple((t, shapes[p]) for t, p in zip(times, picks)),
                    sample_rate_hz=rate, noise=noise)


class TestSessionMatchesScalarReference:
    """The one-pass session conversion against the parent's per-tendon loop."""

    @staticmethod
    def csv_bytes(session, path):
        write_sensor_csv(session, path)
        return path.read_bytes()

    @pytest.mark.parametrize("scenario", [
        pytest.param(lambda t: press_scenario(t, seed=7), id="press-noisy-seed7"),
        pytest.param(lambda t: press_scenario(t, seed=8), id="press-noisy-seed8"),
        pytest.param(lambda t: press_scenario(t, seed=7, noise=NoiseModel(kind="none")),
                     id="press-clean-seed7"),
        pytest.param(lambda t: press_scenario(t, seed=8, noise=NoiseModel(kind="none")),
                     id="press-clean-seed8"),
        pytest.param(lambda t: BOTH_REGIMES, id="custom-both-regimes"),
        pytest.param(lambda t: HOLD_AND_RETURN, id="custom-hold-and-return"),
    ])
    def test_sensor_csv_bit_identical(self, topo, scenario, tmp_path):
        sc = scenario(topo)
        cal, table = BendCalibration(), default_stretch_table()
        truth, sensed = generate_session(sc, topo, cal, table)
        ref_truth, ref_sensed = ref_generate_session(sc, topo, cal, table)
        assert self.csv_bytes(sensed, tmp_path / "a.csv") == \
            self.csv_bytes(ref_sensed, tmp_path / "b.csv")
        assert np.array_equal(truth.coords, ref_truth.coords)
        assert len(sensed) == len(ref_sensed) == len(truth)

    @settings(max_examples=25, deadline=None)
    @given(sc=keyframed_scenarios())
    def test_keyframed_session_bit_identical(self, topo, sc):
        """Holds, returns to an earlier shape, odd rates and single keyframes."""
        cal, table = BendCalibration(), default_stretch_table()
        with mock.patch.object(simulator, "deform", wraps=deform) as projections:
            got = outcome(generate_session, sc, topo, cal, table)
        assert got == outcome(ref_generate_session, sc, topo, cal, table)

        stamps = [t_ms for t_ms, _, _ in got] if isinstance(got, list) else []
        nodes, disp = sc.timeline(stamps)
        rows = [ref_displacements_at(sc, t_ms) for t_ms in stamps]
        for t_ms, row, ref in zip(stamps, disp, rows):
            assert bits(dict(zip(nodes, row))) == bits(ref)
        # one projection, its stack one row per run of bit-identical frames
        if stamps:
            assert stack_rows(projections) == 1 + sum(
                bits(a) != bits(b) for a, b in zip(rows, rows[1:]))

    def test_press_projects_each_distinct_shape_once(self, topo):
        with mock.patch.object(simulator, "deform", wraps=deform) as projections:
            truth, _ = generate_session(press_scenario(topo), topo, BendCalibration(),
                                        default_stretch_table())
        # t=0, the 50 ramp frames and the 50 release frames; holds and rest reuse
        assert stack_rows(projections) == 101
        assert truth.coords[51].tobytes() == truth.coords[50].tobytes()
        assert truth.coords[250].tobytes() == truth.coords[200].tobytes()
        assert not truth.flags.writeable and not truth[50].coords.flags.writeable

    def test_signed_zeros_are_different_shapes(self, topo):
        # the frames interpolate to x = 0.0, -0.0, 0.0: equal values, three bit patterns
        sc = Scenario(keyframes=((0, {4: (0.0, 0.0, 0.0)}), (100, {4: (-0.0, 0.0, 0.0)}),
                                 (300, {4: (-0.0, 0.0, 0.0)})))
        with mock.patch.object(simulator, "deform", wraps=deform) as projections:
            generate_session(sc, topo, BendCalibration(), default_stretch_table())
        assert stack_rows(projections) == 3

    def test_scenario_naming_no_node_is_one_rest_shape(self, topo):
        sc = Scenario(keyframes=STILL, noise=NoiseModel(kind="none"))
        with mock.patch.object(simulator, "deform", wraps=deform) as projections:
            truth, sensed = generate_session(sc, topo, BendCalibration(),
                                             default_stretch_table())
        assert stack_rows(projections) == 1 and len(truth) == len(sensed) == 10
        assert len({c.tobytes() for c in truth.coords}) == 1
        assert np.array_equal(truth[0].coords, topo.nominal_coords)

    def test_empty_session(self, topo):
        sc = Scenario(keyframes=((0, {}),))
        truth, sensed = generate_session(sc, topo, BendCalibration(), default_stretch_table())
        assert len(truth) == 0 and len(sensed) == 0
        assert sensed.resistances.shape == (0, 24)

    def test_empty_session_naming_a_node(self, topo):
        # deform gets a stack of no frames
        sc = Scenario(keyframes=((0, {4: (0.0, 0.0, -0.01)}),))
        with mock.patch.object(simulator, "deform", wraps=deform) as projections:
            truth, sensed = generate_session(sc, topo, BendCalibration(),
                                             default_stretch_table())
        assert stack_rows(projections) == 0
        assert len(truth) == 0 and sensed.resistances.shape == (0, 24)


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
        assert truth[0].t_ms == 0
        assert truth[-1].t_ms == 29900
        assert truth.t_ms.tolist() == sensed.timestamps_ms.tolist()

    def test_press_traces_rise_and_fall(self, topo):
        sc = press_scenario(topo, seed=1, noise=NoiseModel(kind="none"))
        truth, _ = generate_session(sc, topo, BendCalibration(),
                                    default_stretch_table())
        lengths = np.stack([edge_lengths(topo, s.coords) for s in truth])
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
        assert np.array_equal(s1.timestamps_ms, s2.timestamps_ms)
        assert np.array_equal(s1.resistances, s2.resistances)
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

    def test_session_over_the_frame_cap_rejected(self):
        Scenario(keyframes=((0, {}), (MAX_FRAMES, {})), sample_rate_hz=1000.0)
        with pytest.raises(TopologyError,
                           match=f"^more than {MAX_FRAMES} frames at 1000 Hz$"):
            Scenario(keyframes=((0, {}), (MAX_FRAMES + 1, {})), sample_rate_hz=1000.0)

    def test_displacements_interpolate_linearly(self, topo):
        sc = Scenario(keyframes=(
            (0, {4: (0.0, 0.0, 0.0)}),
            (1000, {4: (0.0, 0.0, -0.030)}),
        ))
        nodes, disp = sc.timeline([500])
        assert nodes == [4]
        assert disp[0, 0] == pytest.approx([0.0, 0.0, -0.015])


class TestZeroNoiseEndToEnd:
    def test_tracking_exact_lengths_is_exact(self, topo):
        # the geometric half of the fidelity story: exact tendon lengths
        # track to machine precision
        from tenserecon.reconstruction import SolveOptions, Tracker

        sc = press_scenario(topo, seed=3, noise=NoiseModel(kind="none"))
        truth, _ = generate_session(sc, topo, BendCalibration(),
                                    default_stretch_table())
        frames = [edge_lengths(topo, s.coords) for s in truth]
        tracker = Tracker(topo, SolveOptions(residual_tolerance=0.0))
        results = [tracker.process(lengths) for lengths in frames]
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
                (r.coords[free] - s.coords[free]) ** 2, axis=1))))
            for r, s in zip(results, truth))
        assert worst <= 1e-3
