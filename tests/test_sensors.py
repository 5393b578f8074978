"""Per-sensor math: bending polynomial, fits, dispatch."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tenserecon import sensors
from tenserecon.errors import CalibrationError, SensorDomainError
from tenserecon.lstm import predict_strain
from tenserecon.sensors import (
    BendCalibration,
    Mode,
    SensorSession,
    StretchTable,
    bend_inverse,
    _bend_peak,
    bending_strain,
    default_stretch_table,
    fit_bending_polynomial,
    lengths_from_strain,
    load_calibration,
    save_calibration,
    strains_from_frame,
)
from tenserecon.topology import build_canonical

from reference_sensors import (
    ref_bend_inverse,
    ref_bend_peak,
    ref_bending_strain,
    ref_dr_from_strain,
)


class TestBendingPolynomial:
    def test_value_at_zero_is_constant_term(self):
        assert bending_strain(0.0) == -0.0016

    def test_value_at_minus_one(self):
        assert bending_strain(-1.0) == pytest.approx(-0.9458, abs=5e-4)

    def test_out_of_domain_raises(self):
        with pytest.raises(SensorDomainError):
            bending_strain(0.5)

    def test_clamp_clips_to_edge(self):
        assert bending_strain(0.5, clamp=True) == bending_strain(0.0)
        assert bending_strain(-2.0, clamp=True) == bending_strain(-1.0)

    def test_horner_matches_power_sum(self):
        cal = BendCalibration()
        rng = np.random.default_rng(0)
        for x in rng.uniform(-1.0, 0.0, size=200):
            naive = sum(c * x ** (5 - p) for p, c in enumerate(cal.coefficients))
            assert bending_strain(float(x), cal) == pytest.approx(naive, rel=1e-12)

    def test_non_finite_rejected(self):
        with pytest.raises(SensorDomainError):
            bending_strain(float("nan"))


class TestBendInverse:
    def test_rest_strain_maps_to_near_zero_root(self):
        # independent oracle: bisect the polynomial on the decreasing branch
        # next to zero, where it falls from its local peak through 0
        lo, hi = -0.02, 0.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if bending_strain(mid) > 0.0:
                lo = mid
            else:
                hi = mid
        expected_root = 0.5 * (lo + hi)
        x = bend_inverse(0.0)
        assert x == pytest.approx(expected_root, abs=1e-9)
        assert abs(bending_strain(x)) < 1e-10
        # frozen value from the oracle above
        assert x == pytest.approx(-3.1028e-3, abs=1e-6)

    @pytest.mark.parametrize("strain", [-0.9, -0.5, -0.1, -0.01, -0.002, 0.0])
    def test_forward_round_trip(self, strain):
        x = bend_inverse(strain)
        assert bending_strain(x) == pytest.approx(strain, abs=1e-9)
        assert -1.0 <= x <= 0.0

    def test_deep_compression_uses_wide_branch(self):
        assert bend_inverse(-0.5) < -0.3

    def test_out_of_range_rejected(self):
        with pytest.raises(SensorDomainError):
            bend_inverse(-0.99)
        with pytest.raises(SensorDomainError):
            bend_inverse(0.5)


class TestBendInverseFastPath:
    """The bend peak is found once per calibration; inversions stay exact."""

    @staticmethod
    def counting(monkeypatch, name):
        calls = [0]
        inner = getattr(sensors, name)

        def wrapper(*args, **kwargs):
            calls[0] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(sensors, name, wrapper)
        return calls

    def test_cached_peak_equals_fresh_search(self):
        cal = BendCalibration()
        bend_inverse(-0.3, cal)
        assert cal.peak == _bend_peak(BendCalibration())

    @settings(max_examples=60, deadline=None)
    @given(u=st.floats(0.0, 1.0))
    def test_round_trips_both_branches(self, u):
        cal = BendCalibration()
        x_peak, y_peak = cal.peak
        y_lo, y_hi = bending_strain(-1.0, cal), bending_strain(0.0, cal)
        near = y_hi + u * (y_peak - y_hi)
        x = bend_inverse(near, cal)
        assert x_peak <= x <= 0.0
        assert bending_strain(x, cal) == pytest.approx(near, abs=1e-9)
        wide = y_lo + u * (y_hi - y_lo)
        x = bend_inverse(wide, cal)
        assert -1.0 <= x <= x_peak
        assert bending_strain(x, cal) == pytest.approx(wide, abs=1e-9)

    def test_calls_per_inversion_after_first(self, monkeypatch):
        cal = BendCalibration()
        peaks = self.counting(monkeypatch, "_bend_peak")
        calls = self.counting(monkeypatch, "bending_strain")
        bend_inverse(-0.3, cal)
        assert peaks[0] == 1  # the first inversion searches the domain for the peak
        for strain in np.linspace(-0.9, 0.0, 40):
            peaks[0] = calls[0] = 0
            bend_inverse(float(strain), cal)
            assert peaks[0] == 0
            assert calls[0] == 1  # the domain ends; the bisection evaluates the polynomial


class TestArraysMatchScalarReference:
    """Array evaluation and bisection against the scalar loop, entry by entry."""

    @settings(max_examples=60, deadline=None)
    @given(u=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30))
    def test_bend_inverse_both_branches(self, u):
        cal = BendCalibration()
        _, y_peak = cal.peak
        y_lo, y_hi = bending_strain(-1.0, cal), bending_strain(0.0, cal)
        u = np.array(u)
        strains = np.concatenate([y_hi + u * (y_peak - y_hi), y_lo + u * (y_hi - y_lo)])
        expected = [ref_bend_inverse(float(e), cal) for e in strains]
        assert bend_inverse(strains, cal).tolist() == expected
        assert bend_inverse(float(strains[0]), cal) == expected[0]

    @settings(max_examples=60, deadline=None)
    @given(x=st.lists(st.floats(-1.2, 0.2), min_size=1, max_size=30), clamp=st.booleans())
    def test_bending_strain(self, x, clamp):
        cal = BendCalibration()
        x = np.array(x)
        if not clamp:
            x = x[(x >= -1.0) & (x <= 0.0)]
        assert bending_strain(x, cal, clamp=clamp).tolist() == \
            [ref_bending_strain(float(v), cal, clamp=clamp) for v in x]

    def test_peak_equals_scalar_search(self):
        assert BendCalibration().peak == ref_bend_peak(BendCalibration())

    def test_stretch_table_lookup(self):
        table = default_stretch_table()
        e = np.random.default_rng(4).uniform(0.0, 1.0, size=500)
        assert table.dr_from_strain(e).tolist() == [ref_dr_from_strain(table, v) for v in e]

    def test_out_of_range_entry_named_by_index(self):
        cal = BendCalibration()
        strains = np.array([-0.1, -0.2, -0.99, 0.5])
        with pytest.raises(SensorDomainError, match=r"^sensor 2: strain -0\.99 outside") as err:
            bend_inverse(strains, cal)
        assert err.value.sensor == 2
        assert err.value.detail.startswith("strain -0.99 outside invertible range")
        with pytest.raises(SensorDomainError) as err:
            bending_strain(np.array([-0.5, np.nan]), cal, clamp=True)
        assert err.value.sensor == 1
        table = default_stretch_table()
        for bad in (5.0, -0.1, np.nan, np.inf, -np.inf):
            for lookup in (table.strain_from_dr, table.dr_from_strain):
                with pytest.raises(SensorDomainError,
                                   match=rf"^sensor 2: (dR/R|strain) {bad} outside") as err:
                    lookup(np.array([0.1, 0.2, bad]))
                assert err.value.sensor == 2
        with pytest.raises(SensorDomainError) as err:
            bend_inverse(-0.99, cal)  # a scalar carries no index
        assert err.value.sensor is None


class TestFit:
    def test_recovers_reference_coefficients(self):
        cal = BendCalibration()
        xs = np.linspace(-1.0, 0.0, 100)
        samples = [(float(x), bending_strain(float(x), cal)) for x in xs]
        fit, r2 = fit_bending_polynomial(samples)
        assert np.max(np.abs(np.array(fit.coefficients)
                             - np.array(cal.coefficients))) < 1e-6
        assert r2 >= 1.0 - 1e-12

    def test_too_few_samples(self):
        with pytest.raises(CalibrationError):
            fit_bending_polynomial([(0.0, 0.0)] * 6)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("column", [0, 1], ids=["dr_ratio", "strain"])
    def test_non_finite_sample_rejected(self, bad, column):
        samples = [[float(x), float(bending_strain(float(x)))]
                   for x in np.linspace(-1.0, 0.0, 20)]
        samples[5][column] = bad
        with pytest.raises(CalibrationError, match="sample 5 is not finite"):
            fit_bending_polynomial(samples)

    def test_too_few_distinct_x(self):
        pts = [(-0.1, 0.0)] * 4 + [(-0.2, 0.1)] * 4
        with pytest.raises(CalibrationError):
            fit_bending_polynomial(pts)

    def test_linear_data_recovered(self):
        xs = np.linspace(-1.0, 0.0, 50)
        fit, r2 = fit_bending_polynomial([(float(x), float(x)) for x in xs])
        c5, c4, c3, c2, c1, c0 = fit.coefficients
        assert abs(c1 - 1.0) < 1e-8
        assert max(abs(c) for c in (c5, c4, c3, c2, c0)) < 1e-8
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_random_polynomials_refit(self):
        rng = np.random.default_rng(42)
        xs = np.linspace(-1.0, 0.0, 80)
        for _ in range(20):
            coeffs = rng.uniform(-25.0, 25.0, size=6)
            ys = np.polyval(coeffs, xs)
            fit, _ = fit_bending_polynomial(list(zip(xs, ys)))
            assert np.max(np.abs(np.array(fit.coefficients) - coeffs)) < 1e-8

    def test_calibration_json_round_trip(self, tmp_path):
        cal, _ = fit_bending_polynomial(
            [(float(x), bending_strain(float(x))) for x in np.linspace(-1, 0, 40)])
        path = tmp_path / "cal.json"
        save_calibration(cal, path)
        cal2 = load_calibration(path)
        assert cal2 == cal


class TestModeAndLengths:
    def test_zero_strain_gives_rest_lengths(self):
        t = build_canonical(0.30)
        out = lengths_from_strain(np.zeros(24), t)
        assert np.array_equal(out, t.rest_lengths())

    def test_direct_arithmetic(self):
        t = build_canonical(0.30)
        t = replace(t, tendons=tuple(replace(td, rest_length=0.100) for td in t.tendons))
        eps = np.zeros(24)
        eps[5] = 0.1
        out = lengths_from_strain(eps, t)
        assert out[5] == pytest.approx(0.110, rel=1e-15)

    def test_degenerate_strain_rejected(self):
        eps = np.zeros(24)
        eps[3] = -1.0
        with pytest.raises(SensorDomainError,
                           match=r"^sensor 3: strain must be finite and > -1, got -1\.0$") as err:
            lengths_from_strain(eps, build_canonical(0.30))
        assert err.value.sensor == 3

    def test_strain_round_trip(self):
        t = build_canonical(0.30)
        rng = np.random.default_rng(9)
        for _ in range(20):
            eps = rng.uniform(-0.5, 0.8, size=24)
            lengths = lengths_from_strain(eps, t)
            back = lengths / t.rest_lengths() - 1.0
            assert np.max(np.abs(back - eps)) < 1e-12


class TestStretchTable:
    def test_round_trip(self):
        table = default_stretch_table()
        for e in (0.0, 0.01, 0.2, 0.6, 0.99):
            assert table.strain_from_dr(table.dr_from_strain(e)) == pytest.approx(e, abs=1e-9)

    def test_out_of_range(self):
        table = default_stretch_table()
        with pytest.raises(SensorDomainError):
            table.dr_from_strain(2.0)
        with pytest.raises(SensorDomainError):
            table.strain_from_dr(-0.1)

    def test_non_monotone_rejected(self):
        with pytest.raises(CalibrationError):
            StretchTable(strain=np.array([0.0, 0.1, 0.05]),
                         dr_ratio=np.array([0.0, 0.1, 0.2]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("column", ["strain", "dr_ratio"])
    def test_non_finite_rejected(self, bad, column):
        # NaN compares false, so the strictly-increasing check alone passes it
        cols = {"strain": np.array([0.0, 0.1, 0.2]), "dr_ratio": np.array([0.0, 0.1, 0.2])}
        cols[column][-1] = bad
        with pytest.raises(CalibrationError, match="stretch table values must be finite"):
            StretchTable(**cols)

    def test_compares_by_identity(self):
        # dataclass equality over array fields would raise on == and on hash()
        t, u = default_stretch_table(), default_stretch_table()
        assert t == t and t != default_stretch_table() and len({t, u}) == 2


class TestBendCalibration:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_coefficient_rejected(self, bad):
        coeffs = list(BendCalibration().coefficients)
        coeffs[2] = bad
        with pytest.raises(CalibrationError, match="coefficients must be finite"):
            BendCalibration(coefficients=tuple(coeffs))


class TestSensorSession:
    def test_arrays_are_read_only_copies(self):
        stamps, r = [0, 100, 250], np.full((3, 24), 5.8e6)
        session = SensorSession(stamps, r)
        assert len(session) == 3
        assert session.timestamps_ms.dtype == np.int64
        assert session.timestamps_ms.tolist() == stamps
        assert not session.timestamps_ms.flags.writeable
        assert not session.resistances.flags.writeable
        r[0, 0] = 1.0  # the caller's array stays its own
        assert r.flags.writeable and session.resistances[0, 0] == 5.8e6
        with pytest.raises(ValueError):
            session.resistances[1, 1] = 1.0

    def test_compares_by_identity(self):
        # dataclass equality over array fields would raise on == and on hash()
        a, b = (SensorSession([0, 100], np.full((2, 24), 5.8e6)) for _ in range(2))
        assert a == a and a != b and len({a, b}) == 2

    def test_empty_session(self):
        session = SensorSession([], np.empty((0, 24)))
        assert len(session) == 0
        assert session.resistances.shape == (0, 24)

    @pytest.mark.parametrize("stamps, shape", [
        ([0, 100], (2, 23)), ([0, 100], (3, 24)), ([0, 100], (48,)), ([[0, 100]], (2, 24))])
    def test_wrong_shape_rejected(self, stamps, shape):
        with pytest.raises(SensorDomainError,
                           match=r"^shapes .* are not \(n,\), \(n, 24\)$") as err:
            SensorSession(stamps, np.full(shape, 5.8e6))
        assert err.value.frame is None

    def test_duplicate_timestamp_names_the_second_frame(self):
        with pytest.raises(SensorDomainError) as err:
            SensorSession([0, 100, 100, 50], np.full((4, 24), 5.8e6))
        assert str(err.value) == "t=100 ms: timestamp 100 not after previous 100"
        assert err.value.frame == 2 and err.value.sensor is None

    @pytest.mark.parametrize("bad", [-1.0, 0.0, np.nan, np.inf])
    def test_bad_resistance_names_frame_and_sensor(self, bad):
        values = np.full((3, 24), 5.8e6)
        values[1, 17] = bad
        values[2, 3] = -1.0
        with pytest.raises(SensorDomainError) as err:
            SensorSession([0, 100, 200], values)
        assert str(err.value) == \
            f"t=100 ms: sensor 17: resistance must be finite and > 0, got {bad}"
        assert (err.value.frame, err.value.sensor) == (1, 17)

    def test_first_bad_frame_wins_and_its_resistance_before_its_timestamp(self):
        values = np.full((4, 24), 5.8e6)
        values[2, 5] = 0.0
        with pytest.raises(SensorDomainError) as err:
            SensorSession([0, 100, 100, 0], values)
        assert (err.value.frame, err.value.sensor) == (2, 5)
        with pytest.raises(SensorDomainError) as err:
            SensorSession([0, 100, 90, 300], values)
        assert (err.value.frame, err.value.sensor) == (2, 5)
        values[2, 5] = 5.8e6
        values[3, 0] = -1.0
        with pytest.raises(SensorDomainError) as err:
            SensorSession([0, 100, 90, 300], values)
        assert (err.value.frame, err.value.sensor) == (2, None)


class TestStrainsFromFrame:
    def test_baseline_frame_bending_gives_constant_term(self):
        modes = [Mode.BENDING] * 24
        out = strains_from_frame(np.zeros(24), BendCalibration(), modes, np.full(24, 0.3))
        assert np.all(out == -0.0016)

    def test_weight_sharing_constant_history(self, clean_model):
        modes = [Mode.STRETCHING] * 24
        stretch = predict_strain(clean_model, np.zeros((1, 24)))[0]
        out = strains_from_frame(np.zeros(24), BendCalibration(), modes, stretch)
        assert np.all(out == out[0])

    def test_nonpositive_resistance_tagged_with_index(self):
        values = np.full((1, 24), 5.8e6)
        values[0, 17] = -1.0
        with pytest.raises(SensorDomainError) as err:
            SensorSession([0], values)
        assert err.value.sensor == 17

    def test_out_of_domain_bending_tagged(self):
        modes = [Mode.BENDING] * 24
        dr = np.zeros(24)
        dr[4] = 0.55  # outside the bending domain
        with pytest.raises(SensorDomainError) as err:
            strains_from_frame(dr, BendCalibration(), modes, np.zeros(24))
        assert err.value.sensor == 4
        out = strains_from_frame(dr, BendCalibration(), modes, np.zeros(24), clamp=True)
        assert out[4] == -0.0016

    def test_out_of_domain_bending_in_subset_names_full_index(self):
        modes = [Mode.STRETCHING] * 24
        for k in (2, 4, 9):
            modes[k] = Mode.BENDING
        dr = np.zeros(24)
        dr[9] = 0.55
        with pytest.raises(SensorDomainError, match=r"^sensor 9: dR/R = 0\.55 outside") as err:
            strains_from_frame(dr, BendCalibration(), modes, np.zeros(24))
        assert err.value.sensor == 9

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**16), mode_bits=st.integers(0, 2**24 - 1),
           clamp=st.booleans())
    def test_batch_matches_per_sensor_oracle(self, seed, mode_bits, clamp):
        rng = np.random.default_rng(seed)
        modes = [Mode.BENDING if mode_bits >> k & 1 else Mode.STRETCHING
                 for k in range(24)]
        dr = rng.uniform(-0.7, 0.0, size=24)  # the bending domain
        stretch = rng.uniform(-1.5, 2.5, size=24) if clamp else rng.uniform(-0.9, 2.5, size=24)
        out = strains_from_frame(dr, BendCalibration(), modes, stretch, clamp=clamp)
        for k in range(24):
            if modes[k] is Mode.BENDING:
                expected = bending_strain(dr[k], BendCalibration(), clamp=clamp)
            else:
                expected = stretch[k]
            if clamp:
                expected = min(max(expected, -0.95), 2.0)
            assert out[k] == expected

    def test_programming_error_propagates(self, monkeypatch):
        def broken(x, cal, *, clamp=False):
            raise TypeError("broken polynomial")

        monkeypatch.setattr(sensors, "bending_strain", broken)
        with pytest.raises(TypeError, match="broken polynomial"):
            strains_from_frame(np.zeros(24), BendCalibration(), [Mode.BENDING] * 24,
                               np.zeros(24))
