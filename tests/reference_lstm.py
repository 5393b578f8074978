"""Reference batched LSTM forward: the allocate-per-step form.

Each step concatenates [x_t, h], multiplies by the stacked gate matrix, adds
the bias and applies the sigmoid and tanh to fresh slices.  The in-place
inference forward in ``lstm._forward_batch`` must match it bit for bit.
"""

import numpy as np

from tenserecon.lstm import _sigmoid


def ref_forward_batch(m, x):
    """Normalized windows x (B, T, D) -> normalized predictions (B,)."""
    b, t, _ = x.shape
    hs = m.hidden_size
    w_t = np.concatenate([m.w_f, m.w_i, m.w_o, m.w_h]).T
    bias = np.concatenate([m.b_f, m.b_i, m.b_o, np.zeros(hs)])  # g has no bias
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
