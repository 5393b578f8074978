"""Reference batched LSTM forward and backprop: the allocate-per-step forms.

Each step concatenates [x_t, h], multiplies by the stacked gate matrix, adds
the bias and applies the sigmoid and tanh to fresh column slices of the
(B, 4H) gates.  The backward sweep forms the gate gradients with fresh
temporaries and concatenates them.  The gate-major kernels in
``lstm._forward_batch`` and ``lstm._backward_batch`` must match these bit
for bit.
"""

import numpy as np

from tenserecon.errors import DivergenceError
from tenserecon.lstm import LstmModel, _sigmoid


def ref_forward_batch(m, x):
    """Normalized windows x (B, T, D) -> normalized predictions (B,)."""
    b, t, _ = x.shape
    hs = m.hidden_size
    w_t = m.w.T
    bias = np.concatenate([m.b, np.zeros(hs)])  # g has no bias
    h = np.zeros((b, hs))
    c = np.zeros((b, hs))
    for step in range(t):
        z = np.concatenate([x[:, step, :], h], axis=1)
        a = z @ w_t + bias
        a[:, :3 * hs] = _sigmoid(a[:, :3 * hs])
        a[:, 3 * hs:] = np.tanh(a[:, 3 * hs:])
        f, i, o, g = a[:, :hs], a[:, hs:2 * hs], a[:, 2 * hs:3 * hs], a[:, 3 * hs:]
        c = f * c + i * g
        h = o * np.tanh(c)
    return h @ m.w_out + m.b_out


def ref_backward_batch(m: LstmModel, x: np.ndarray, targets: np.ndarray):
    """Mean-squared-error gradients over a normalized batch.

    Returns (preds_norm, grads dict) where the loss is
    mean((pred - target)^2) in normalized target space.  The forward pass
    here keeps every step's inputs, gates and cell states for the backward
    sweep (inference uses the cache-free _forward_batch).  Per step, one
    product with the stacked gate matrix carries the gradient back to the
    step's inputs and one accumulates the gate weight gradients.
    """
    b, t, d = x.shape
    hs = m.hidden_size
    w, bias = m.w, np.concatenate([m.b, np.zeros(hs)])  # g has no bias
    h = np.zeros((b, hs))
    c = np.zeros((b, hs))
    cache = []
    for step in range(t):
        z = np.concatenate([x[:, step, :], h], axis=1)
        a = z @ w.T + bias
        a[:, :3 * hs] = _sigmoid(a[:, :3 * hs])
        a[:, 3 * hs:] = np.tanh(a[:, 3 * hs:])
        f, i, o, g = a[:, :hs], a[:, hs:2 * hs], a[:, 2 * hs:3 * hs], a[:, 3 * hs:]
        c_prev, c = c, f * c + i * g
        h = o * np.tanh(c)
        cache.append((z, a, c_prev, c))
    y = h @ m.w_out + m.b_out
    if not np.all(np.isfinite(y)):
        raise DivergenceError("non-finite forward pass during backprop")
    dy = 2.0 * (y - targets) / b

    g_w = np.zeros_like(w)
    g_b = np.zeros(4 * hs)
    dh = np.outer(dy, m.w_out)
    dc = np.zeros((b, hs))
    for z, a, c_prev, c_new in reversed(cache):
        f, i, o, g = a[:, :hs], a[:, hs:2 * hs], a[:, 2 * hs:3 * hs], a[:, 3 * hs:]
        tc = np.tanh(c_new)
        dc = dc + dh * o * (1.0 - tc * tc)
        da = np.concatenate([dc * c_prev * f * (1.0 - f), dc * g * i * (1.0 - i),
                             dh * tc * o * (1.0 - o), dc * i * (1.0 - g * g)], axis=1)
        g_w += da.T @ z
        g_b += da.sum(axis=0)
        dh = (da @ w)[:, d:]
        dc = dc * f
    grads = {"w": g_w, "b": g_b[:3 * hs], "w_out": h.T @ dy, "b_out": float(dy.sum())}
    return y, grads
