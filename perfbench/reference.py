"""Plain-NumPy forward pass of MVFNet, kept apart from the library.

It reads only the parameter arrays and computes the same function as
`flowhar.model.full_forward` without autodiff: the convolution as a sum
over kernel taps, the LSTM with all input projections done in one matmul
per layer.  The operations are ordered differently from the library's, so
results agree to float32 rounding, not bit for bit.
"""

from __future__ import annotations

import numpy as np


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def _softmax(z, axis):
    e = np.exp(z - z.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def reference_forward(x, params, config):
    """(b, t, c) windows -> (final logits (b, k), grouped logits (b, n, k))."""
    p = {name: t.data for name, t in params.items()}
    x = np.asarray(x, dtype=config.dtype)
    x = (x - p["norm.mu"]) * (1.0 / p["norm.sigma"])
    for i in range(config.conv_layers):
        w, b = p[f"backbone.conv{i}.w"], p[f"backbone.conv{i}.b"]
        t_out = x.shape[1] - w.shape[0] + 1
        y = b + sum(x[:, j:j + t_out, :] @ w[j] for j in range(w.shape[0]))
        x = np.maximum(y, 0)
    hid = config.lstm_hidden
    for i in range(config.lstm_layers):
        wx, wh, b = (p[f"backbone.lstm{i}.{k}"] for k in ("wx", "wh", "b"))
        zx = x @ wx + b
        h = np.zeros((x.shape[0], hid), dtype=x.dtype)
        c = np.zeros_like(h)
        hs = []
        for step in range(x.shape[1]):
            z = zx[:, step] + h @ wh
            i_gate, f_gate = _sigmoid(z[:, :hid]), _sigmoid(z[:, hid:2 * hid])
            c = f_gate * c + i_gate * np.tanh(z[:, 2 * hid:3 * hid])
            h = _sigmoid(z[:, 3 * hid:]) * np.tanh(c)
            hs.append(h)
        x = np.stack(hs, axis=1)
    batch = x.shape[0]
    grouped = (x[:, -1] @ p["mvf.w"] + p["mvf.b"]).reshape(batch, config.n, config.k)
    v = _softmax(grouped, axis=2).reshape(batch, config.n * config.k)
    v = np.maximum(v @ p["voting.fc0.w"] + p["voting.fc0.b"], 0)
    v = np.maximum(v @ p["voting.fc1.w"] + p["voting.fc1.b"], 0)
    return v @ p["voting.fc2.w"] + p["voting.fc2.b"], grouped
