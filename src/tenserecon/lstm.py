"""From-scratch LSTM regressor for the stretching regime.

Maps a window of normalized-resistance-change samples to a single tensile
strain.  Gates follow the standard formulation with one deliberate quirk:
the candidate cell state has no bias term.  Input features are the dR/R
sample plus its in-window first difference, a proxy for the stretch rate,
because the tensile response depends on how fast the tendon is pulled.

Training is plain mini-batch gradient descent with gradient-norm clipping,
deterministic for a fixed seed.  The model and its normalization statistics
serialize to a small versioned JSON file.

The batched kernels (_run_steps, _backward_batch) keep the four gates
gate-major, as one (4, B, H) block, so each gate op is one contiguous pass
rather than one pass per row of a (B, 4H) column slice.  They give the same
bits as the allocate-per-step forms kept in the tests, because only the
layout moved: each product keeps its form and operand layout (z @ w.T into
a C-ordered (B, 4H), and da.T @ z and da @ w from a C-ordered da; a
transposed product such as w @ z.T rounds differently), and each
elementwise expression keeps its operation order.

predict_strain takes a session's (frames, channels) dR/R series and runs its
windows in passes of FORWARD_BATCH.  When BLAS runs on one thread of several
CPUs, one helper thread shares the passes: a pass spends nearly all its time
in numpy's tanh and BLAS loops, which release the GIL.  Each pass holds the
windows a serial loop's would, so the strains are the same bits.
"""

from __future__ import annotations

import contextvars
import os
import threading
from dataclasses import dataclass, replace

import numpy as np

from .errors import DivergenceError, ModelFormatError, read_json, write_json
from .sensors import default_stretch_curve

MODEL_FORMAT_VERSION = 1
N_FEATURES = 2  # per sample, from features_from_window: dR/R and its difference

# The synthetic stretch sessions make_stretch_dataset trains on.
STRETCH_RATES = (0.05, 0.1, 0.2)  # pull rates, strain per second
STRETCH_MAX_STRAIN = 0.5
STRETCH_SAMPLE_RATE_HZ = 10.0
STRETCH_HOLD_S = 4.0
STRETCH_RATE_GAIN = 0.05  # dR/R gain per unit strain rate
VAL_FRACTION = 0.3  # tail of each session held out for validation
BATCH_SIZE = 32
# Windows per inference pass of predict_strain: 16 frames of 24 sensors.  A
# pass costs least per window at a few hundred windows, and a window's bits
# depend on the batch it is in (OpenBLAS tail kernels), so another size
# changes the session strains in the last bit.
FORWARD_BATCH = 384

_PARAM_NAMES = ("w_f", "b_f", "w_i", "b_i", "w_h", "w_o", "b_o", "w_out", "b_out")


def _sigmoid(z):
    # the logistic function through tanh: no overflow for large |z|, no masking
    return 0.5 * (1.0 + np.tanh(0.5 * z))


@dataclass(frozen=True)
class Normalization:
    """Per-feature z-score statistics, plus target scaling for the readout.

    input_low/input_high record the training input hull; prediction clips
    raw features into it so the network never extrapolates.
    """

    input_mean: np.ndarray
    input_scale: np.ndarray
    target_mean: float = 0.0
    target_scale: float = 1.0
    input_low: np.ndarray | None = None
    input_high: np.ndarray | None = None

    def validate(self, d: int) -> None:
        """Raise ModelFormatError unless these statistics fit D input features:
        finite means, finite positive scales, and either no hull or a finite
        D-entry input_low <= input_high."""
        lo, hi = self.input_low, self.input_high
        if (lo is None) != (hi is None):
            raise ModelFormatError("input_low and input_high must be given together")
        hull = () if lo is None else ("input_low", "input_high")
        for name in ("input_mean", "input_scale") + hull:
            arr = getattr(self, name)
            if np.shape(arr) != (d,):
                raise ModelFormatError(
                    f"{name} has shape {np.shape(arr)}, expected ({d},) for input_size {d}")
            if not np.all(np.isfinite(arr)):
                raise ModelFormatError(f"{name} contains non-finite values")
        if not np.all(self.input_scale > 0):
            raise ModelFormatError("input_scale must be > 0")
        if hull and np.any(lo > hi):
            raise ModelFormatError("input_low exceeds input_high")
        if not np.isfinite(self.target_mean):
            raise ModelFormatError("target_mean is not finite")
        if not (np.isfinite(self.target_scale) and self.target_scale > 0):
            raise ModelFormatError(f"target_scale must be finite and > 0, got {self.target_scale}")


@dataclass(frozen=True)
class LstmModel:
    """Gate weights, scalar readout head, window length, normalization."""

    input_size: int
    hidden_size: int
    window: int
    w_f: np.ndarray
    b_f: np.ndarray
    w_i: np.ndarray
    b_i: np.ndarray
    w_h: np.ndarray  # candidate cell weights; no bias by design
    w_o: np.ndarray
    b_o: np.ndarray
    w_out: np.ndarray
    b_out: float
    norm: Normalization

    def validate_shapes(self) -> None:
        d, h = self.input_size, self.hidden_size
        if h < 1 or self.window < 1:
            raise ModelFormatError(f"hidden_size {h} and window {self.window} must be >= 1")
        expect = {
            "w_f": (h, d + h), "w_i": (h, d + h), "w_h": (h, d + h), "w_o": (h, d + h),
            "b_f": (h,), "b_i": (h,), "b_o": (h,), "w_out": (h,),
        }
        for name, shape in expect.items():
            arr = getattr(self, name)
            if np.asarray(arr).shape != shape:
                raise ModelFormatError(
                    f"{name} has shape {np.asarray(arr).shape}, expected {shape}")
            if not np.all(np.isfinite(arr)):
                raise ModelFormatError(f"{name} contains non-finite values")
        if not np.isfinite(self.b_out):
            raise ModelFormatError("b_out is not finite")
        self.norm.validate(d)


def init_model(input_size: int = N_FEATURES, hidden_size: int = 32, window: int = 20,
               seed: int = 0, norm: Normalization | None = None) -> LstmModel:
    """Uniform +-1/sqrt(D+H) weight init, zero biases, seeded."""
    rng = np.random.default_rng(seed)
    d, h = input_size, hidden_size
    s = 1.0 / np.sqrt(d + h)

    def w():
        return rng.uniform(-s, s, size=(h, d + h))

    if norm is None:
        norm = Normalization(input_mean=np.zeros(d), input_scale=np.ones(d))
    m = LstmModel(
        input_size=d, hidden_size=h, window=window,
        w_f=w(), b_f=np.zeros(h),
        w_i=w(), b_i=np.zeros(h),
        w_h=w(),
        w_o=w(), b_o=np.zeros(h),
        w_out=rng.uniform(-s, s, size=h), b_out=0.0,
        norm=norm,
    )
    m.validate_shapes()
    return m


def lstm_step(x_t: np.ndarray, h_prev: np.ndarray, c_prev: np.ndarray,
              m: LstmModel) -> tuple[np.ndarray, np.ndarray]:
    """One recurrence step; returns (h_t, c_t).

    f = sig(W_f [x, h] + b_f)    how much old cell state survives
    i = sig(W_i [x, h] + b_i)    how much new candidate enters
    g = tanh(W_h [x, h])         candidate cell state (bias-free)
    c = f * c_prev + i * g
    o = sig(W_o [x, h] + b_o)
    h = o * tanh(c)
    """
    x_t = np.asarray(x_t, dtype=float)
    h_prev = np.asarray(h_prev, dtype=float)
    c_prev = np.asarray(c_prev, dtype=float)
    if x_t.shape != (m.input_size,) or h_prev.shape != (m.hidden_size,) \
            or c_prev.shape != (m.hidden_size,):
        raise ModelFormatError(
            f"step shapes {x_t.shape}/{h_prev.shape}/{c_prev.shape} do not match "
            f"model D={m.input_size} H={m.hidden_size}")
    if not (np.all(np.isfinite(x_t)) and np.all(np.isfinite(h_prev))
            and np.all(np.isfinite(c_prev))):
        raise DivergenceError("non-finite input to lstm_step")
    z = np.concatenate([x_t, h_prev])
    f = _sigmoid(m.w_f @ z + m.b_f)
    i = _sigmoid(m.w_i @ z + m.b_i)
    g = np.tanh(m.w_h @ z)
    c_t = f * c_prev + i * g
    o = _sigmoid(m.w_o @ z + m.b_o)
    h_t = o * np.tanh(c_t)
    return h_t, c_t


def _stacked_gates(m: LstmModel) -> tuple[np.ndarray, np.ndarray]:
    """Gate weights as one (4H, D+H) matrix, rows [f; i; o; g], and its bias."""
    return (np.concatenate([m.w_f, m.w_i, m.w_o, m.w_h]),
            np.concatenate([m.b_f, m.b_i, m.b_o, np.zeros(m.hidden_size)]))  # g has no bias


def _forward_gates(w: np.ndarray, bias: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The forward's copy of the stacked gates: the sigmoid's inner 0.5 folded
    into the f/i/o rows, and the bias as a (4, 1, H) gate-major block.

    A power-of-two scale commutes with rounding, so z @ (0.5 w).T + 0.5 b is
    0.5 (z @ w.T + b) bit for bit, and one tanh covers all four gates:
    sigmoid(a) = (tanh(a/2) + 1) * 0.5 needs only the +1 and the outer 0.5.
    A pre-activation small enough for the halving to round (a subnormal)
    gives sigmoid 0.5 either way.
    """
    hs = len(bias) // 4
    w = w.copy()
    w[:3 * hs] *= 0.5
    bias = bias.reshape(4, 1, hs).copy()
    bias[:3] *= 0.5
    return w, bias


def _step_buffers(z, gates, c_prev, c, tc, h) -> tuple:
    """One step's buffers, with the gate views, as _run_steps unpacks them."""
    return z, gates, gates[:3], *gates, c_prev, c, tc, h


def _run_steps(x: np.ndarray, w: np.ndarray, bias: np.ndarray, a: np.ndarray,
               steps) -> None:
    """The recurrence over normalized windows x (B, T, D), one _step_buffers
    tuple per step; the buffers passed in decide what a step keeps.

    Per step, x_t goes into z = [x_t, h_prev], and the product with the
    forward gates (_forward_gates) runs C-ordered into a (B, 4H).  One add
    then moves it, with the bias, into the gate-major gates (4, B, H), rows
    f, i, o, g, so that every gate op below is one contiguous pass where a
    column slice of a would take one pass per row.  The step leaves
    c = f * c_prev + i * g, tanh(c) in tc and h = o * tanh(c), in
    lstm_step's elementwise order.  c_prev may be c (updated in place), tc
    may sit in a (dead once the gates are formed), and h may sit inside the
    next step's z.
    """
    b, _, d = x.shape
    a_gates = a.reshape(b, 4, -1).transpose(1, 0, 2)
    for step, (z, gates, sig, f, i, o, g, c_prev, c, tc, h) in enumerate(steps):
        z[:, :d] = x[:, step, :]
        np.matmul(z, w.T, out=a)
        np.add(a_gates, bias, out=gates)
        np.tanh(gates, out=gates)
        sig += 1.0
        sig *= 0.5
        np.multiply(c_prev, f, out=c)
        np.multiply(i, g, out=tc)
        c += tc
        np.tanh(c, out=tc)
        np.multiply(o, tc, out=h)


def _forward_batch(m: LstmModel, x: np.ndarray) -> np.ndarray:
    """Inference over normalized windows x (B, T, D) -> normalized preds (B,).

    Every step gets the same buffers, made once per call and O(B H) with no
    T axis: z = [x_t, h] with h written in place, the product a, the gates,
    and the cell state c updated in place.  tanh(c), and at the end a
    contiguous copy of h for the readout, go into the head of a, which is
    dead once a step has formed its gates.
    """
    b, t, d = x.shape
    hs = m.hidden_size
    w, bias = _forward_gates(*_stacked_gates(m))
    z = np.zeros((b, d + hs))
    a = np.empty((b, 4 * hs))
    c = np.zeros((b, hs))
    tc = a.reshape(-1)[:b * hs].reshape(b, hs)
    h = z[:, d:]
    _run_steps(x, w, bias, a, [_step_buffers(z, np.empty((4, b, hs)), c, c, tc, h)] * t)
    np.copyto(tc, h)
    return tc @ m.w_out + m.b_out


def _normalize_windows(m: LstmModel, windows: np.ndarray) -> np.ndarray:
    return (windows - m.norm.input_mean) / m.norm.input_scale


def _clip_to_hull(m: LstmModel, windows: np.ndarray) -> np.ndarray:
    if m.norm.input_low is None or m.norm.input_high is None:
        return windows
    return np.clip(windows, m.norm.input_low, m.norm.input_high)


def features_from_window(block: np.ndarray) -> np.ndarray:
    """(T, n) block of n dR/R windows side by side -> (n, T, 2) raw features:
    each sample and its in-window first difference (first entry 0), so a
    window needs no sample older than its own first entry."""
    dr = np.asarray(block, dtype=float)
    if dr.ndim != 2:
        raise ModelFormatError(f"dr windows must be a (T, n) block, got shape {dr.shape}")
    cols = dr.T
    diff = np.zeros_like(cols)
    diff[:, 1:] = np.diff(cols, axis=1)
    return np.stack([cols, diff], axis=2)


def _window_block(series: np.ndarray, window: int) -> np.ndarray:
    """The read-only (window, n) view of every run of ``window`` rows of a
    (frames, channels) series, column run * channels + channel; n = 0 if short."""
    s = np.ascontiguousarray(series)
    frames, channels = s.shape
    return np.lib.stride_tricks.as_strided(s, (window, max(frames - window + 1, 0) * channels),
                                           (channels * s.itemsize, s.itemsize), writeable=False)


def _check_window_shape(m: LstmModel, shape: tuple) -> None:
    if len(shape) != 3 or shape[1:] != (m.window, m.input_size):
        raise ModelFormatError(
            f"window shape {shape} does not match (n, T={m.window}, D={m.input_size})")


def forward_sequence(windows: np.ndarray, m: LstmModel) -> np.ndarray:
    """Run an (n, T, D) batch of raw feature windows through the cell and
    readout, giving n strains.

    Windows are normalized with the model statistics, iterated from zero
    initial states, and the readout on the final hidden state is mapped back
    to physical strain.
    """
    w = np.asarray(windows, dtype=float)
    _check_window_shape(m, w.shape)
    y = _forward_batch(m, _normalize_windows(m, _clip_to_hull(m, w)))
    return y * m.norm.target_scale + m.norm.target_mean


def _share_passes(env, cpus: int) -> bool:
    """Whether a helper thread of passes gets a CPU of its own: OpenBLAS,
    which numpy's wheels ship, runs on one thread of several CPUs.  It takes
    the first positive of these variables when it loads, else one thread per
    CPU.  On a 2-vCPU x86-64 VM the helper cut a session's passes from 175
    to 110 ms with BLAS on one thread, and raised them from 165 to 216 ms
    with BLAS on its default two, whose worker takes the second CPU."""
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        n = env.get(var, "").strip()
        if n.isdigit() and int(n) > 0:
            return int(n) == 1 and cpus > 1
    return False


_SHARE_PASSES = _share_passes(os.environ, os.cpu_count() or 1)


def predict_strain(m: LstmModel, dr: np.ndarray) -> np.ndarray:
    """Strains from a (frames, channels) dR/R series, (frames, channels).

    A strain comes from its channel's m.window samples ending at its frame,
    the series left-padded with its first row.  The windows, frame-major,
    run through forward_sequence in passes of FORWARD_BATCH, which the
    caller shares with one helper thread when _SHARE_PASSES holds and there
    is more than one pass.  The helper runs in a copy of the caller's
    context (numpy's errstate is a context variable) and ends before this
    returns or raises; the caller's exception is raised, else the helper's.
    Only the caller enters this function, so a trace sees one span per call.
    """
    dr = np.asarray(dr, dtype=float)
    if dr.ndim != 2 or dr.size == 0:
        raise ModelFormatError(f"dR/R series must be nonempty (frames, channels), got {dr.shape}")
    block = _window_block(np.concatenate([np.repeat(dr[:1], m.window - 1, axis=0), dr]), m.window)
    _check_window_shape(m, (dr.size, m.window, N_FEATURES))
    starts = range(0, dr.size, FORWARD_BATCH)
    sharing = 2 if _SHARE_PASSES and len(starts) > 1 else 1  # the caller and 0 or 1 helper
    out = np.empty(dr.size)
    failed = [None] * sharing

    def run_passes(k: int) -> None:
        # features per pass: at most one pass's buffers per thread are live
        try:
            for s in starts[k::sharing]:
                out[s:s + FORWARD_BATCH] = forward_sequence(
                    features_from_window(block[:, s:s + FORWARD_BATCH]), m)
        except BaseException as exc:  # a thread's exception is otherwise lost
            failed[k] = exc

    helpers = [threading.Thread(target=contextvars.copy_context().run, args=(run_passes, k))
               for k in range(1, sharing)]
    for helper in helpers:
        helper.start()
    run_passes(0)
    for helper in helpers:
        helper.join()
    if any(failed):
        raise next(exc for exc in failed if exc)  # the caller's, else the helper's
    return out.reshape(dr.shape)


def _backward_batch(m: LstmModel, x: np.ndarray, targets: np.ndarray):
    """Mean-squared-error gradients over a normalized batch.

    Returns (preds_norm, grads dict) where the loss is
    mean((pred - target)^2) in normalized target space.  The forward runs
    _run_steps into per-step caches made once per call: z (T+1, B, D+H), the
    gate-major gates (T, 4, B, H), c (T+1, B, H) and tanh(c) (T, B, H).
    Each step writes its h straight into the next step's z, and the sweep
    reuses the forward's tanh(c).  The sweep writes the gate gradients
    gate-major too and copies them into a C-ordered (B, 4H) da, so the two
    products per step keep their matmul form: da.T @ z accumulates the gate
    weight gradients and da @ w carries the gradient back to the step's
    inputs.  Each gate derivative keeps its elementwise order, e.g.
    ((dc * c_prev) * f) * (1 - f), so the gradients are the same bits as
    the allocate-per-step form.
    """
    b, t, d = x.shape
    hs = m.hidden_size
    w, bias = _stacked_gates(m)
    zs = np.zeros((t + 1, b, d + hs))
    gates = np.empty((t, 4, b, hs))
    cs = np.zeros((t + 1, b, hs))
    tcs = np.empty((t, b, hs))
    steps = [_step_buffers(zs[s], gates[s], cs[s], cs[s + 1], tcs[s], zs[s + 1, :, d:])
             for s in range(t)]
    _run_steps(x, *_forward_gates(w, bias), np.empty((b, 4 * hs)), steps)
    h = np.ascontiguousarray(zs[t, :, d:])
    y = h @ m.w_out + m.b_out
    if not np.all(np.isfinite(y)):
        raise DivergenceError("non-finite forward pass during backprop")
    dy = 2.0 * (y - targets) / b

    g_w = np.zeros_like(w)
    g_b = np.zeros(4 * hs)
    dh = np.outer(dy, m.w_out)
    dc = np.zeros((b, hs))
    dgates = np.empty((4, b, hs))
    d_sig = dgates[:3]
    d_f, d_i, d_o, d_g = dgates
    one_minus = np.empty((4, b, hs))
    one_minus_sig, one_minus_g = one_minus[:3], one_minus[3]
    da = np.empty((b, 4 * hs))
    da_gates = da.reshape(b, 4, hs).transpose(1, 0, 2)
    dz = np.empty((b, d + hs))
    tmp = np.empty((b, hs))
    for z, _, sig, f, i, o, g, c_prev, _, tc, _ in reversed(steps):
        # dc = dc + dh * o * (1 - tc * tc)
        np.multiply(tc, tc, out=tmp)
        np.subtract(1.0, tmp, out=tmp)
        np.multiply(dh, o, out=d_f)
        d_f *= tmp
        dc += d_f
        # the gate gradients [((dc * c_prev) * f) * (1 - f), ((dc * g) * i) * (1 - i),
        #                     ((dh * tc) * o) * (1 - o), (dc * i) * (1 - g * g)]
        np.multiply(dc, c_prev, out=d_f)
        np.multiply(dc, g, out=d_i)
        np.multiply(dh, tc, out=d_o)
        np.multiply(dc, i, out=d_g)
        d_sig *= sig
        np.subtract(1.0, sig, out=one_minus_sig)
        np.multiply(g, g, out=one_minus_g)
        np.subtract(1.0, one_minus_g, out=one_minus_g)
        dgates *= one_minus
        da_gates[...] = dgates
        g_w += da.T @ z
        g_b += da.sum(axis=0)
        np.matmul(da, w, out=dz)
        dh = dz[:, d:]
        dc *= f
    grads = {"w_f": g_w[:hs], "b_f": g_b[:hs], "w_i": g_w[hs:2 * hs], "b_i": g_b[hs:2 * hs],
             "w_o": g_w[2 * hs:3 * hs], "b_o": g_b[2 * hs:3 * hs], "w_h": g_w[3 * hs:],
             "w_out": h.T @ dy, "b_out": float(dy.sum())}
    return y, grads


def sequence_loss(m: LstmModel, windows_norm: np.ndarray, targets_norm: np.ndarray) -> float:
    y = _forward_batch(m, windows_norm)
    return float(np.mean((y - targets_norm) ** 2))


@dataclass(frozen=True)
class SequenceDataset:
    """Windows (N, T, D) of raw features with scalar strain targets (N,)."""

    windows: np.ndarray
    targets: np.ndarray
    train_idx: np.ndarray
    val_idx: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.windows, dtype=float)
        t = np.asarray(self.targets, dtype=float)
        if w.ndim != 3 or len(w) != len(t):
            raise ModelFormatError(f"bad dataset shapes {w.shape} / {t.shape}")
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(t))):
            raise ModelFormatError("dataset contains non-finite values")


@dataclass(frozen=True)
class TrainReport:
    """Per-epoch losses (index 0 = before any update) and the best epoch."""

    train_losses: list[float]
    val_losses: list[float]
    best_epoch: int


def make_stretch_dataset(seed: int = 0, cycles: int = 2,
                         noise_band: tuple[float, float] | None = None,
                         window: int = 20) -> SequenceDataset:
    """Synthetic tensile sessions at several pull rates, windowed for training.

    Each of STRETCH_RATES gives ``cycles`` trapezoidal strain cycles (ramp
    up to STRETCH_MAX_STRAIN, hold STRETCH_HOLD_S, ramp down, hold) whose
    dR/R follows the default saturating curve times 1 + STRETCH_RATE_GAIN *
    strain rate; the holds put constant-input windows in distribution, like
    rest and hold phases of live sessions.  Optional uniform noise (in dR/R,
    over noise_band) emulates real sensor noise.  The last VAL_FRACTION of
    each trajectory is held out, so validation never overlaps training.
    """
    rng = np.random.default_rng(seed)
    dt = 1.0 / STRETCH_SAMPLE_RATE_HZ
    max_strain, hold_s = STRETCH_MAX_STRAIN, STRETCH_HOLD_S
    windows, targets, is_val = [], [], []
    for rate in STRETCH_RATES:
        ramp = max_strain / rate
        period = 2.0 * (ramp + hold_s)
        t = np.arange(0.0, period * cycles, dt)
        phase = t % period
        strain = np.where(
            phase < ramp, rate * phase,
            np.where(phase < ramp + hold_s, max_strain,
                     np.where(phase < 2.0 * ramp + hold_s,
                              max_strain - rate * (phase - ramp - hold_s), 0.0)))
        velocity = np.gradient(strain, dt)
        dr = default_stretch_curve(strain) * (1.0 + STRETCH_RATE_GAIN * velocity)
        if noise_band is not None:
            lo, hi = noise_band
            dr = dr + rng.uniform(lo, hi, size=len(dr))
        n_val_start = int(np.floor(len(t) * (1.0 - VAL_FRACTION)))
        last = np.arange(window - 1, len(t))  # final sample of each window
        windows.append(features_from_window(_window_block(dr[:, None], window)))
        targets.append(strain[last])
        is_val.append(last >= n_val_start)
    is_val = np.concatenate(is_val)
    return SequenceDataset(
        windows=np.concatenate(windows), targets=np.concatenate(targets),
        train_idx=np.flatnonzero(~is_val), val_idx=np.flatnonzero(is_val))


def _clipped_update(m: LstmModel, grads: dict, lr: float, clip: float) -> LstmModel:
    norm_sq = sum(float(np.sum(np.asarray(g) ** 2)) for g in grads.values())
    gnorm = np.sqrt(norm_sq)
    scale = lr * (clip / gnorm if (clip > 0 and gnorm > clip) else 1.0)
    updates = {name: getattr(m, name) - scale * grads[name] for name in _PARAM_NAMES}
    updates["b_out"] = float(updates["b_out"])
    return replace(m, **updates)


def train(data: SequenceDataset, learning_rate: float = 0.1, epochs: int = 200,
          seed: int = 0, hidden_size: int = 32,
          clip: float = 5.0) -> tuple[LstmModel, TrainReport]:
    """Mini-batch gradient descent; returns the best-validation model.

    Batches hold BATCH_SIZE training windows.  Normalization statistics come
    from the training split only.  Loss is the MSE in normalized target
    space; histories start with the untrained model (epoch 0).  A non-finite
    loss aborts with DivergenceError naming the epoch.  Two runs with the
    same seed and data are bit-identical.
    """
    if len(data.train_idx) == 0 or len(data.val_idx) == 0:
        raise ModelFormatError("dataset needs nonempty train and validation splits")
    window = data.windows.shape[1]
    d = data.windows.shape[2]

    x_train = data.windows[data.train_idx]
    flat = x_train.reshape(-1, d)
    mean = flat.mean(axis=0)
    scale = flat.std(axis=0)
    scale = np.where(scale > 0, scale, 1.0)
    t_mean = float(data.targets[data.train_idx].mean())
    t_scale = float(data.targets[data.train_idx].std()) or 1.0
    norm = Normalization(input_mean=mean, input_scale=scale,
                         target_mean=t_mean, target_scale=t_scale,
                         input_low=flat.min(axis=0), input_high=flat.max(axis=0))

    m = init_model(input_size=d, hidden_size=hidden_size, window=window,
                   seed=seed, norm=norm)
    # each split is normalized once, so no epoch gathers a copy of its
    # windows, and the raw training windows are dropped: less peak memory
    x_tr = _normalize_windows(m, x_train)
    del x_train, flat
    x_va = _normalize_windows(m, data.windows[data.val_idx])
    t_tr, t_va = ((data.targets[idx] - t_mean) / t_scale
                  for idx in (data.train_idx, data.val_idx))

    rng = np.random.default_rng(seed)
    train_losses = [sequence_loss(m, x_tr, t_tr)]
    val_losses = [sequence_loss(m, x_va, t_va)]
    best = (val_losses[0], 0, m)

    order = np.arange(len(x_tr))
    for epoch in range(1, epochs + 1):
        rng.shuffle(order)
        for start in range(0, len(order), BATCH_SIZE):
            batch = order[start:start + BATCH_SIZE]
            try:
                _, grads = _backward_batch(m, x_tr[batch], t_tr[batch])
            except DivergenceError as exc:
                raise DivergenceError(
                    f"training diverged at epoch {epoch}: {exc}", epoch=epoch
                ) from exc
            m = _clipped_update(m, grads, learning_rate, clip)
        tl = sequence_loss(m, x_tr, t_tr)
        vl = sequence_loss(m, x_va, t_va)
        if not (np.isfinite(tl) and np.isfinite(vl)):
            raise DivergenceError(f"loss became non-finite at epoch {epoch}", epoch=epoch)
        train_losses.append(tl)
        val_losses.append(vl)
        if vl < best[0]:
            best = (vl, epoch, m)

    report = TrainReport(train_losses=train_losses, val_losses=val_losses,
                         best_epoch=best[1])
    return best[2], report


def save_model(m: LstmModel, path) -> None:
    m.validate_shapes()
    write_json({
        "version": MODEL_FORMAT_VERSION,
        "D": m.input_size,
        "H": m.hidden_size,
        "window": m.window,
        "weights": {
            name: (np.asarray(getattr(m, name)).tolist()
                   if name != "b_out" else float(m.b_out))
            for name in _PARAM_NAMES
        },
        "norm": {
            "input_mean": [float(v) for v in m.norm.input_mean],
            "input_scale": [float(v) for v in m.norm.input_scale],
            "target_mean": m.norm.target_mean,
            "target_scale": m.norm.target_scale,
            "input_low": (None if m.norm.input_low is None
                          else [float(v) for v in m.norm.input_low]),
            "input_high": (None if m.norm.input_high is None
                           else [float(v) for v in m.norm.input_high]),
        },
    }, path, indent=None)


def load_model(path) -> LstmModel:
    m = read_json(path, ModelFormatError, _model_from_json_dict)
    if m.input_size != N_FEATURES:
        raise ModelFormatError(f"{path}: model input size D={m.input_size}, but "
                               f"stretch windows give D={N_FEATURES} features per sample")
    return m


def _model_from_json_dict(doc: dict) -> LstmModel:
    if doc["version"] != MODEL_FORMAT_VERSION:
        raise ModelFormatError(
            f"model format version {doc['version']} unsupported "
            f"(expected {MODEL_FORMAT_VERSION})")
    w, nd = doc["weights"], doc["norm"]
    lo, hi = nd.get("input_low"), nd.get("input_high")
    norm = Normalization(
        input_mean=np.array(nd["input_mean"], dtype=float),
        input_scale=np.array(nd["input_scale"], dtype=float),
        target_mean=float(nd["target_mean"]),
        target_scale=float(nd["target_scale"]),
        input_low=None if lo is None else np.array(lo, dtype=float),
        input_high=None if hi is None else np.array(hi, dtype=float),
    )
    m = LstmModel(
        input_size=int(doc["D"]), hidden_size=int(doc["H"]), window=int(doc["window"]),
        norm=norm, **{name: float(w[name]) if name == "b_out" else np.array(w[name], dtype=float)
                      for name in _PARAM_NAMES})
    m.validate_shapes()
    return m
