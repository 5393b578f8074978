"""Gate math, BPTT gradients, training behavior, and model serialization."""

import dataclasses
import json
import threading
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tenserecon import lstm
from tenserecon.errors import DivergenceError, ModelFormatError
from tenserecon.lstm import (
    FORWARD_BATCH,
    Normalization,
    _backward_batch,
    _forward_batch,
    _normalize_windows,
    _sigmoid,
    features_from_window,
    forward_sequence,
    init_model,
    lstm_step,
    load_model,
    make_stretch_dataset,
    predict_strain,
    save_model,
    sequence_loss,
    train,
)
from tenserecon.simulator import DEFAULT_NOISE_BAND

from reference_lstm import ref_backward_batch, ref_forward_batch

PARAM_ARRAYS = ("w_f", "b_f", "w_i", "b_i", "w_h", "w_o", "b_o", "w_out")
BLOCK_FRAMES = FORWARD_BATCH // 24  # frames whose 24 channels fill one forward pass


def zero_model(d=2, h=4, window=3):
    m = init_model(d, h, window, seed=0)
    return dataclasses.replace(
        m, w_f=np.zeros_like(m.w_f), w_i=np.zeros_like(m.w_i),
        w_h=np.zeros_like(m.w_h), w_o=np.zeros_like(m.w_o),
        b_f=np.zeros_like(m.b_f), b_i=np.zeros_like(m.b_i),
        b_o=np.zeros_like(m.b_o), w_out=np.zeros_like(m.w_out), b_out=0.0)


def oracle_step(x, h_prev, c_prev, m):
    """Independent gate-by-gate recurrence, scalar loops only."""
    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    z = np.concatenate([x, h_prev])
    h_new = np.zeros(m.hidden_size)
    c_new = np.zeros(m.hidden_size)
    for r in range(m.hidden_size):
        f = sig(sum(m.w_f[r, c] * z[c] for c in range(len(z))) + m.b_f[r])
        i = sig(sum(m.w_i[r, c] * z[c] for c in range(len(z))) + m.b_i[r])
        g = np.tanh(sum(m.w_h[r, c] * z[c] for c in range(len(z))))
        c_new[r] = f * c_prev[r] + i * g
        o = sig(sum(m.w_o[r, c] * z[c] for c in range(len(z))) + m.b_o[r])
        h_new[r] = o * np.tanh(c_new[r])
    return h_new, c_new


class TestStep:
    def test_zero_parameters_halve_cell_state(self):
        m = zero_model()
        c_prev = np.array([1.0, -2.0, 0.5, 0.0])
        h, c = lstm_step(np.array([0.3, -0.7]), np.zeros(4), c_prev, m)
        assert np.allclose(c, 0.5 * c_prev, atol=1e-15)
        assert np.allclose(h, 0.5 * np.tanh(0.5 * c_prev), atol=1e-15)

    def test_zero_everything_gives_zero(self):
        m = zero_model()
        h, c = lstm_step(np.zeros(2), np.zeros(4), np.zeros(4), m)
        assert np.all(h == 0.0) and np.all(c == 0.0)

    def test_matches_independent_oracle(self):
        rng = np.random.default_rng(7)
        for seed in range(5):
            m = init_model(3, 6, 4, seed=seed)
            x = rng.normal(size=3)
            h0 = rng.normal(size=6)
            c0 = rng.normal(size=6)
            h, c = lstm_step(x, h0, c0, m)
            ho, co = oracle_step(x, h0, c0, m)
            assert np.max(np.abs(h - ho)) < 1e-12
            assert np.max(np.abs(c - co)) < 1e-12

    def test_shape_mismatch(self):
        m = init_model(2, 4, 3, seed=0)
        with pytest.raises(ModelFormatError):
            lstm_step(np.zeros(3), np.zeros(4), np.zeros(4), m)

    def test_non_finite_rejected(self):
        m = init_model(2, 4, 3, seed=0)
        with pytest.raises(DivergenceError):
            lstm_step(np.array([np.nan, 0.0]), np.zeros(4), np.zeros(4), m)

    def test_gate_outputs_bounded(self):
        rng = np.random.default_rng(1)
        for seed in range(10):
            m = init_model(2, 8, 3, seed=seed)
            x = rng.normal(scale=3.0, size=2)
            h0 = rng.normal(size=8)
            c0 = rng.normal(size=8)
            z = np.concatenate([x, h0])
            for w, b in ((m.w_f, m.b_f), (m.w_i, m.b_i), (m.w_o, m.b_o)):
                gate = 1.0 / (1.0 + np.exp(-(w @ z + b)))
                assert np.all(gate > 0.0) and np.all(gate < 1.0)
            h, c = lstm_step(x, h0, c0, m)
            assert np.all(np.abs(np.tanh(c)) < 1.0)

    def test_cell_contraction_with_closed_input_gate(self):
        rng = np.random.default_rng(5)
        m = init_model(2, 6, 3, seed=3)
        m = dataclasses.replace(m, b_i=np.full(6, -40.0))  # input gate ~ 0
        c0 = rng.normal(size=6)
        _, c1 = lstm_step(rng.normal(size=2), rng.normal(size=6), c0, m)
        assert np.all(np.abs(c1) <= np.abs(c0) + 1e-12)


def masked_sigmoid(z):
    """Reference logistic function: exp only of non-positive arguments."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class TestFusedPaths:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-700.0, 700.0), min_size=1, max_size=64))
    def test_sigmoid_matches_masked_form(self, values):
        z = np.array(values)
        assert np.max(np.abs(_sigmoid(z) - masked_sigmoid(z))) <= 4.4e-16

    def test_sigmoid_saturates_without_overflow_warning(self):
        with warnings.catch_warnings(), np.errstate(all="warn"):
            warnings.simplefilter("error")
            out = _sigmoid(np.array([-1e3, 1e3]))
        assert out.tolist() == [0.0, 1.0]

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**16), d=st.integers(1, 3), h=st.integers(1, 6),
           t=st.integers(1, 6), b=st.integers(1, 4))
    def test_forward_batch_matches_step_chain(self, seed, d, h, t, b):
        rng = np.random.default_rng(seed)
        m = init_model(d, h, t, seed=seed)
        m = dataclasses.replace(m, b_f=rng.normal(size=h), b_i=rng.normal(size=h),
                                b_o=rng.normal(size=h), b_out=float(rng.normal()))
        x = rng.normal(scale=2.0, size=(b, t, d))
        y = _forward_batch(m, x)
        for k in range(b):
            hk, ck = np.zeros(h), np.zeros(h)
            for step in range(t):
                hk, ck = lstm_step(x[k, step], hk, ck, m)
            assert y[k] == pytest.approx(float(hk @ m.w_out + m.b_out), abs=1e-12)

    def test_cache_is_kept_only_for_backprop(self):
        # inference returns predictions only; backprop runs its own cached
        # forward, which must predict the same bits
        m = init_model(2, 4, 5, seed=1)
        rng = np.random.default_rng(1)
        x = rng.normal(size=(3, 5, 2))
        y_lean = _forward_batch(m, x)
        y_kept, grads = _backward_batch(m, x, rng.normal(size=3))
        assert isinstance(y_lean, np.ndarray) and y_lean.shape == (3,)
        assert np.array_equal(y_lean, y_kept)
        assert set(grads) == set(PARAM_ARRAYS) | {"b_out"}

    def test_block_features_are_each_windows_own(self):
        block = np.random.default_rng(2).normal(scale=0.3, size=(7, 5))
        feats = features_from_window(block)
        assert feats.shape == (5, 7, 2)
        for k in range(5):
            assert np.array_equal(feats[k, :, 0], block[:, k])
            assert feats[k, 0, 1] == 0.0
            assert np.array_equal(feats[k, 1:, 1], np.diff(block[:, k]))
        with pytest.raises(ModelFormatError, match="must be a"):
            features_from_window(block[:, 0])


def serial_strains(m, dr):
    """predict_strain's contract as a serial loop: each frame's windows, cut
    from the series left-padded with its first row, frame by frame and a
    frame's channels in order, in passes of FORWARD_BATCH on one thread."""
    padded = np.concatenate([np.repeat(dr[:1], m.window - 1, axis=0), dr])
    block = np.concatenate([padded[f:f + m.window] for f in range(len(dr))], axis=1)
    return np.concatenate([
        forward_sequence(features_from_window(block[:, s:s + FORWARD_BATCH]), m)
        for s in range(0, block.shape[1], FORWARD_BATCH)]).reshape(dr.shape)


class TestPredictStrainSeries:
    """predict_strain takes a (frames, channels) dR/R series and gives each
    frame and channel the strain of the window ending there.  Its passes of
    FORWARD_BATCH windows, shared between the calling thread and one helper
    thread, are checked against the serial loop.  The tests share the passes
    whatever BLAS this process loaded, unless they say otherwise."""

    @pytest.fixture(autouse=True)
    def share_passes(self, monkeypatch):
        monkeypatch.setattr(lstm, "_SHARE_PASSES", True)

    @staticmethod
    def case(frames, seed=0):
        m = init_model(2, 8, 20, seed=seed)
        return m, np.random.default_rng(seed).normal(scale=0.2, size=(frames, 24))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**16), frames=st.integers(1, 3 * BLOCK_FRAMES + 5),
           channels=st.integers(1, 24), window=st.integers(1, 24))
    @example(seed=0, frames=3, channels=24, window=20)  # fewer frames than the window
    @example(seed=1, frames=BLOCK_FRAMES + 1, channels=24, window=5)  # a one-frame last pass
    def test_matches_per_window_oracle(self, seed, frames, channels, window):
        # each frame's strains against its windows cut by index, left-padded
        # with the first sample, in a batch of their own; and each forward
        # pass holds FORWARD_BATCH of the windows frame by frame and channel
        # by channel.  init_model's statistics (mean 0, scale 1, no hull)
        # leave the features as they are
        rng = np.random.default_rng(seed)
        m = init_model(2, 8, window, seed=seed % 97)
        dr = rng.normal(scale=0.3, size=(frames, channels))
        batches = []
        forward_batch = lstm._forward_batch

        def record_batch(model, x):
            batches.append(np.array(x))
            return forward_batch(model, x)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lstm, "_forward_batch", record_batch)
            got = predict_strain(m, dr)
        assert got.shape == (frames, channels)
        feats = []
        for n in range(frames):
            idx = [max(j, 0) for j in range(n - window + 1, n + 1)]
            frame_windows = features_from_window(dr[idx])
            feats.append(frame_windows)
            assert got[n] == pytest.approx(forward_sequence(frame_windows, m), abs=1e-12)
        feats = np.concatenate(feats)
        blocks = [feats[s:s + FORWARD_BATCH] for s in range(0, len(feats), FORWARD_BATCH)]
        order = [next(j for j, b in enumerate(blocks) if np.array_equal(x, b)) for x in batches]
        assert sorted(order) == list(range(len(blocks)))

    @pytest.mark.parametrize("window", [5, 20])
    def test_pads_with_the_first_row(self, window):
        # the padding is the series' first row, which is 0 only for a
        # frame-0 baseline; padding with zeros instead would pass an oracle
        # on such a series, so here the first row is not zero
        rng = np.random.default_rng(window)
        m = init_model(2, 8, window, seed=3)
        dr = rng.uniform(-0.3, 0.3, size=(window + 3, 24))
        assert np.all(dr[0] != 0.0)
        got = predict_strain(m, dr)
        for n in range(len(dr)):
            padded = np.concatenate([np.repeat(dr[:1], window - 1, axis=0), dr[:n + 1]])
            expected = forward_sequence(features_from_window(padded[-window:]), m)
            assert got[n] == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("series", [np.arange(60.0).reshape(10, 6)[::2, ::2],
                                        np.asfortranarray(np.arange(15.0).reshape(5, 3))],
                             ids=["strided", "fortran"])
    def test_window_block_of_any_layout(self, series):
        # the view's strides assume C order, so another layout is copied first
        expected = np.concatenate([series[f:f + 2] for f in range(len(series) - 1)], axis=1)
        assert np.array_equal(lstm._window_block(series, 2), expected)

    @pytest.mark.parametrize("share", [True, False], ids=["shared", "caller-only"])
    @pytest.mark.parametrize("frames", [1, BLOCK_FRAMES, BLOCK_FRAMES + 1,
                                        2 * BLOCK_FRAMES + 1, 300])
    def test_bit_identical_to_serial_block_loop(self, monkeypatch, frames, share):
        monkeypatch.setattr(lstm, "_SHARE_PASSES", share)
        m, dr = self.case(frames)
        got = predict_strain(m, dr)
        assert got.shape == (frames, 24)
        assert np.array_equal(got.view(np.uint64), serial_strains(m, dr).view(np.uint64))

    @pytest.mark.parametrize("failing", [{"helper"}, {"caller"}, {"caller", "helper"}],
                             ids=["helper", "caller", "both"])
    def test_pass_error_raised_after_join(self, monkeypatch, failing):
        # the caller's error wins over the helper's
        m, dr = self.case(300)
        caller = threading.current_thread()
        exact = lstm.forward_sequence

        def fail_on_a_side(window, model):
            side = "caller" if threading.current_thread() is caller else "helper"
            if side in failing:
                raise ValueError(f"{side} pass failed")
            return exact(window, model)

        monkeypatch.setattr(lstm, "forward_sequence", fail_on_a_side)
        before = threading.active_count()
        raised = "caller" if "caller" in failing else "helper"
        with pytest.raises(ValueError, match=f"^{raised} pass failed$"):
            predict_strain(m, dr)
        assert threading.active_count() == before

    def test_helper_keeps_callers_errstate(self):
        m, dr = self.case(2 * BLOCK_FRAMES)
        # only the helper's pass, the second, overflows in its first difference
        dr[BLOCK_FRAMES::2] = 1e308
        dr[BLOCK_FRAMES + 1::2] = -1e308
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            predict_strain(m, dr)

    @pytest.mark.parametrize("share, frames", [(False, 2 * BLOCK_FRAMES + 1),
                                               (True, BLOCK_FRAMES)],
                             ids=["unshared", "one-pass"])
    def test_passes_run_in_order_on_the_caller(self, monkeypatch, share, frames):
        # sharing needs _SHARE_PASSES and more than one pass
        monkeypatch.setattr(lstm, "_SHARE_PASSES", share)
        monkeypatch.setattr(threading, "Thread", None)  # starting one fails
        m, dr = self.case(frames)
        caller, exact, passes = threading.current_thread(), lstm.forward_sequence, []

        def on_caller(window, model):
            assert threading.current_thread() is caller
            passes.append(np.array(window))
            return exact(window, model)

        monkeypatch.setattr(lstm, "forward_sequence", on_caller)
        predict_strain(m, dr)
        windows = np.concatenate(passes)
        assert [len(p) for p in passes] == [min(FORWARD_BATCH, 24 * frames - s)
                                            for s in range(0, 24 * frames, FORWARD_BATCH)]
        # in frame order: the last window's newest sample is the last frame's
        assert np.array_equal(windows[:, -1, 0], dr.reshape(-1))

    @pytest.mark.parametrize("env, cpus, share", [
        ({}, 2, False),
        ({"OPENBLAS_NUM_THREADS": "1"}, 2, True),
        ({"OMP_NUM_THREADS": "1"}, 8, True),
        ({"OPENBLAS_NUM_THREADS": "1"}, 1, False),
        ({"GOTO_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}, 2, True),
        ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 2, False),
        ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": " 1 "}, 2, True),
        ({"OPENBLAS_NUM_THREADS": "x", "OMP_NUM_THREADS": ""}, 2, False),
    ])
    def test_shares_only_when_openblas_runs_on_one_of_several_cpus(self, env, cpus, share):
        assert lstm._share_passes(env, cpus) is share

    @pytest.mark.parametrize("shape", [(), (24,), (0, 24), (5, 0), (5, 24, 1)])
    def test_bad_series_rejected_before_any_pass(self, monkeypatch, shape):
        passes = []
        monkeypatch.setattr(lstm, "forward_sequence", lambda *args: passes.append(args))
        with pytest.raises(ModelFormatError, match=r"^dR/R series must be nonempty \(frames"):
            predict_strain(init_model(2, 8, 20, seed=0), np.zeros(shape))
        assert passes == []

    def test_model_shape_error_before_any_pass(self, monkeypatch):
        passes = []
        monkeypatch.setattr(lstm, "forward_sequence", lambda *args: passes.append(args))
        with pytest.raises(ModelFormatError, match="does not match"):
            predict_strain(init_model(3, 8, 20, seed=0), np.zeros((2 * BLOCK_FRAMES, 24)))
        assert passes == []


class TestLeanForwardMatchesReference:
    """The gate-major forward and backprop against the allocate-per-step forms
    in reference_lstm, bit for bit, including saturated gates."""

    @staticmethod
    def random_case(seed, b, h, t, weight_scale, input_scale):
        rng = np.random.default_rng(seed)
        m = init_model(2, h, t, seed=seed)
        m = dataclasses.replace(
            m, **{name: getattr(m, name) * weight_scale for name in ("w_f", "w_i", "w_h", "w_o")},
            b_f=rng.normal(scale=weight_scale, size=h), b_i=rng.normal(size=h),
            b_o=rng.normal(size=h), b_out=float(rng.normal()))
        return m, rng.normal(scale=input_scale, size=(b, t, 2)), rng.normal(size=b)

    cases = dict(seed=st.integers(0, 2**16), b=st.integers(1, 40), h=st.integers(1, 40),
                 t=st.integers(1, 25), weight_scale=st.floats(0.05, 20.0),
                 input_scale=st.floats(0.1, 10.0))

    @settings(max_examples=150, deadline=None)
    @given(**cases)
    def test_forward_bit_identical(self, seed, b, h, t, weight_scale, input_scale):
        m, x, _ = self.random_case(seed, b, h, t, weight_scale, input_scale)
        assert np.array_equal(_forward_batch(m, x), ref_forward_batch(m, x))

    @settings(max_examples=150, deadline=None)
    @given(**cases)
    def test_backward_bit_identical(self, seed, b, h, t, weight_scale, input_scale):
        m, x, targets = self.random_case(seed, b, h, t, weight_scale, input_scale)
        y, grads = _backward_batch(m, x, targets)
        y_ref, grads_ref = ref_backward_batch(m, x, targets)
        assert np.array_equal(y, y_ref)
        assert set(grads) == set(grads_ref) == set(PARAM_ARRAYS) | {"b_out"}
        for name in grads:
            assert np.array_equal(grads[name], grads_ref[name]), name

    @pytest.mark.parametrize("seed", [0, 7])
    def test_training_bit_identical(self, seed, monkeypatch):
        data = make_stretch_dataset(seed=seed, noise_band=DEFAULT_NOISE_BAND)
        lean, lean_report = train(data, epochs=3, seed=seed)
        monkeypatch.setattr(lstm, "_forward_batch", ref_forward_batch)
        monkeypatch.setattr(lstm, "_backward_batch", ref_backward_batch)
        ref, ref_report = train(data, epochs=3, seed=seed)
        for lean_losses, ref_losses in ((lean_report.train_losses, ref_report.train_losses),
                                        (lean_report.val_losses, ref_report.val_losses)):
            assert [v.hex() for v in lean_losses] == [v.hex() for v in ref_losses]
        assert lean_report.best_epoch == ref_report.best_epoch
        for name in PARAM_ARRAYS:
            assert np.array_equal(getattr(lean, name), getattr(ref, name))
        assert lean.b_out.hex() == ref.b_out.hex()


class TestForward:
    def test_zero_model_returns_denormalized_bias(self):
        m = zero_model()
        m = dataclasses.replace(
            m, b_out=0.25,
            norm=Normalization(input_mean=np.zeros(2), input_scale=np.ones(2),
                               target_mean=0.1, target_scale=2.0))
        out = forward_sequence(np.zeros((1, 3, 2)), m)
        assert out.shape == (1,)
        assert out[0] == pytest.approx(0.25 * 2.0 + 0.1, rel=1e-15)

    @pytest.mark.parametrize("shape", [(3, 2), (1, 3, 3), (1, 4, 2), (1, 1, 3, 2)])
    def test_takes_only_batches_of_the_model_window(self, shape):
        with pytest.raises(ModelFormatError, match=r"does not match \(n, T=3, D=2\)"):
            forward_sequence(np.zeros(shape), zero_model())

    def test_window_of_one_equals_explicit_step(self):
        m = init_model(2, 5, 1, seed=2)
        x = np.array([0.4, -0.2])
        h, _ = lstm_step(x, np.zeros(5), np.zeros(5), m)
        manual = float(h @ m.w_out + m.b_out)
        assert forward_sequence(x[None, None], m)[0] == pytest.approx(manual, rel=1e-14)

    def test_trained_toy_linear_map(self):
        # learn y = 2x from windows of constant x
        rng = np.random.default_rng(0)
        xs = rng.uniform(0.1, 1.0, size=400)
        windows = features_from_window(np.tile(xs, (5, 1)))
        targets = 2.0 * xs
        from tenserecon.lstm import SequenceDataset
        data = SequenceDataset(windows=windows, targets=targets,
                               train_idx=np.arange(300),
                               val_idx=np.arange(300, 400))
        model, _ = train(data, learning_rate=0.1, epochs=60, seed=1,
                         hidden_size=8)
        preds = forward_sequence(features_from_window(np.full((5, 3), [0.2, 0.5, 0.9])), model)
        assert preds == pytest.approx([0.4, 1.0, 1.8], rel=0.05)


class TestBackward:
    def test_gradients_match_finite_differences(self):
        # per-tensor vector relative error ||fd - g|| / max(||fd||, ||g||);
        # a per-component ratio would just measure truncation noise on
        # near-zero entries
        rng = np.random.default_rng(10)
        worst = 0.0
        for trial in range(20):
            m = init_model(2, 4, 5, seed=100 + trial)
            window = rng.normal(size=(5, 2))
            target = float(rng.normal())
            xn = _normalize_windows(m, window)[None]
            tn = np.array([(target - m.norm.target_mean) / m.norm.target_scale])
            grads = _backward_batch(m, xn, tn)[1]

            def loss(model):
                return sequence_loss(model, xn, tn)

            for name in PARAM_ARRAYS:
                arr = np.asarray(getattr(m, name), dtype=float)
                fd = np.zeros_like(arr)
                for fi in range(arr.size):
                    idx = np.unravel_index(fi, arr.shape)
                    eps = 1e-6
                    up = arr.copy(); up[idx] += eps
                    dn = arr.copy(); dn[idx] -= eps
                    lp = loss(dataclasses.replace(m, **{name: up}))
                    lm = loss(dataclasses.replace(m, **{name: dn}))
                    fd[idx] = (lp - lm) / (2.0 * eps)
                num = np.linalg.norm(fd - grads[name])
                den = max(np.linalg.norm(fd), np.linalg.norm(grads[name]), 1e-12)
                worst = max(worst, num / den)
            eps = 1e-6
            lp = loss(dataclasses.replace(m, b_out=m.b_out + eps))
            lm = loss(dataclasses.replace(m, b_out=m.b_out - eps))
            fd_b = (lp - lm) / (2.0 * eps)
            worst = max(worst, abs(fd_b - grads["b_out"])
                        / max(abs(fd_b), abs(grads["b_out"]), 1e-12))
        assert worst < 1e-5

    def test_zero_residual_stationary_readout_bias(self):
        m = init_model(2, 4, 3, seed=0)
        m = dataclasses.replace(m, w_out=np.zeros(4), b_out=0.0)
        # prediction is b_out = 0 (normalized); target chosen to match
        _, grads = _backward_batch(m, _normalize_windows(m, np.zeros((1, 3, 2))), np.zeros(1))
        assert grads["b_out"] == pytest.approx(0.0, abs=1e-15)

    def test_batch_gradient_is_mean_of_singles(self):
        rng = np.random.default_rng(3)
        m = init_model(2, 4, 6, seed=9)
        windows = rng.normal(size=(5, 6, 2))
        targets = rng.normal(size=5)
        _, batch = _backward_batch(m, windows, targets)
        for name in PARAM_ARRAYS + ("b_out",):
            acc = None
            for b in range(5):
                _, single = _backward_batch(m, windows[b:b + 1], targets[b:b + 1])
                acc = single[name] if acc is None else acc + single[name]
            assert np.allclose(batch[name], np.asarray(acc) / 5.0,
                               rtol=1e-12, atol=1e-14)


class TestTrain:
    def test_validation_loss_improves(self):
        data = make_stretch_dataset(seed=1, noise_band=None)
        _, report = train(data, learning_rate=0.1, epochs=20, seed=0,
                          hidden_size=16)
        assert min(report.val_losses) < report.val_losses[0]
        assert min(report.val_losses) <= 0.1 * report.val_losses[0]

    def test_zero_learning_rate_is_frozen(self):
        data = make_stretch_dataset(seed=1, noise_band=None, cycles=1)
        _, report = train(data, learning_rate=0.0, epochs=4, seed=0,
                          hidden_size=8)
        assert len(set(report.val_losses)) == 1
        assert len(set(report.train_losses)) == 1

    def test_same_seed_bit_identical(self):
        data = make_stretch_dataset(seed=2, noise_band=None, cycles=1)
        _, r1 = train(data, learning_rate=0.1, epochs=6, seed=5, hidden_size=8)
        _, r2 = train(data, learning_rate=0.1, epochs=6, seed=5, hidden_size=8)
        assert r1.train_losses == r2.train_losses
        assert r1.val_losses == r2.val_losses

    def test_dataset_windows_slide_one_sample_per_session(self):
        # each window of a pull session starts one sample after the one
        # before; the joins between the sessions are the only breaks
        w = make_stretch_dataset(seed=0).windows
        assert w.shape[1:] == (20, 2)
        assert np.all(w[:, 0, 1] == 0.0)
        slides = np.all(w[1:, :-1, 0] == w[:-1, 1:, 0], axis=1)
        assert np.count_nonzero(~slides) == len(lstm.STRETCH_RATES) - 1

    def test_window_longer_than_the_sessions_gives_no_windows(self):
        data = make_stretch_dataset(window=1000)
        assert data.windows.shape == (0, 1000, 2) and data.targets.shape == (0,)
        with pytest.raises(ModelFormatError, match="nonempty train and validation"):
            train(data, epochs=1)

    def test_held_out_error_mean_near_zero(self, clean_model_and_report):
        model, report = clean_model_and_report
        data = make_stretch_dataset(seed=0, noise_band=None)
        errs = forward_sequence(data.windows[data.val_idx], model) - data.targets[data.val_idx]
        assert abs(float(np.mean(errs))) < 0.02


class TestSerialization:
    def test_round_trip_forward_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        for trial in range(100):
            m = init_model(2, 3, 4, seed=trial)
            path = tmp_path / f"m{trial}.json"
            save_model(m, path)
            m2 = load_model(path)
            windows = rng.normal(size=(1, 4, 2))
            assert np.array_equal(forward_sequence(windows, m2), forward_sequence(windows, m))

    def test_truncated_file_rejected(self, tmp_path):
        m = init_model(2, 4, 3, seed=0)
        path = tmp_path / "m.json"
        save_model(m, path)
        blob = path.read_text()
        path.write_text(blob[: len(blob) // 2])
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_shape_mismatch_rejected(self, tmp_path):
        m = init_model(2, 4, 3, seed=0)
        path = tmp_path / "m.json"
        save_model(m, path)
        doc = json.loads(path.read_text())
        doc["H"] = 8  # declared hidden size no longer matches the arrays
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_version_mismatch_rejected(self, tmp_path):
        m = init_model(2, 4, 3, seed=0)
        path = tmp_path / "m.json"
        save_model(m, path)
        doc = json.loads(path.read_text())
        doc["version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_trained_model_hull_round_trips(self, tmp_path, clean_model):
        path = tmp_path / "m.json"
        save_model(clean_model, path)
        m2 = load_model(path)
        series = np.random.default_rng(4).uniform(-0.5, 1.5, size=(40, 20))
        assert np.array_equal(predict_strain(m2, series), predict_strain(clean_model, series))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestDivergence:
    def test_absurd_rate_raises_with_epoch(self):
        data = make_stretch_dataset(seed=3, noise_band=None, cycles=1)
        with pytest.raises(DivergenceError) as err:
            train(data, learning_rate=1e9, epochs=10, seed=0, hidden_size=8,
                  clip=0.0)
        assert err.value.epoch is not None

