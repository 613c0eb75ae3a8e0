"""The fused LSTM op against the per-step graph it replaced.

`lstm_layer_steps` is the LSTM the backbone used to build out of per-step
elementwise ops (a list of (batch, in) tensors in, a list of hidden states
out), and `backbone_forward_steps` the backbone around it.  Both stay here
as the oracle: the fused op must equal them bit for bit, in values and in
every gradient, and so must whole training steps.
"""

import numpy as np
import pytest

from flowhar import model, trainer
from flowhar.autodiff import Tensor, conv1d, lstm
from flowhar.model import Adam, ModelConfig, init_params, params_by_prefix
from flowhar.trainer import train_phase1, train_phase2
from flowhar.views import ViewSchema


def lstm_layer_steps(xs, wx, wh, b, hidden):
    """Standard 4-gate LSTM over a list of (batch, in) tensors, one graph
    node per elementwise op.  Gate order: input, forget, cell, output."""
    batch = xs[0].shape[0]
    dt = xs[0].dtype
    h = Tensor(np.zeros((batch, hidden), dtype=dt))
    c = Tensor(np.zeros((batch, hidden), dtype=dt))
    out = []
    for x in xs:
        z = x @ wx + h @ wh + b
        i = z[:, 0:hidden].sigmoid()
        f = z[:, hidden:2 * hidden].sigmoid()
        g = z[:, 2 * hidden:3 * hidden].tanh()
        o = z[:, 3 * hidden:4 * hidden].sigmoid()
        c = f * c + i * g
        h = o * c.tanh()
        out.append(h)
    return out


def backbone_forward_steps(x, params, config):
    """model.backbone_forward as it was with the per-step LSTM."""
    if not isinstance(x, Tensor):
        x = Tensor(np.asarray(x, dtype=config.dtype))
    x = (x - params["norm.mu"]) * Tensor(1.0 / params["norm.sigma"].data)
    for i in range(config.conv_layers):
        x = conv1d(x, params[f"backbone.conv{i}.w"], params[f"backbone.conv{i}.b"]).relu()
    xs = [x[:, step, :] for step in range(x.shape[1])]
    for i in range(config.lstm_layers):
        xs = lstm_layer_steps(
            xs,
            params[f"backbone.lstm{i}.wx"],
            params[f"backbone.lstm{i}.wh"],
            params[f"backbone.lstm{i}.b"],
            config.lstm_hidden,
        )
    return xs[-1]


def _layer_weights(rng, layers, in_dim, hidden, dtype):
    weights = []
    for _ in range(layers):
        weights.append(tuple(
            Tensor(rng.uniform(-0.5, 0.5, shape).astype(dtype), requires_grad=True)
            for shape in ((in_dim, 4 * hidden), (hidden, 4 * hidden), (4 * hidden,))
        ))
        in_dim = hidden
    return weights


class TestFusedEqualsSteps:
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("layers", [1, 2])
    @pytest.mark.parametrize("batch", [1, 5])
    def test_values_and_gradients_bit_identical(self, dtype, layers, batch):
        rng = np.random.default_rng(layers * 10 + batch)
        steps, in_dim, hidden = 7, 3, 4
        x0 = rng.normal(size=(batch, steps, in_dim)).astype(dtype)
        weights = _layer_weights(rng, layers, in_dim, hidden, dtype)
        # a gradient on every step's output, so BPTT carries the full sum
        probe = rng.normal(size=(batch, steps, hidden)).astype(dtype)
        flat = [t for layer in weights for t in layer]

        x_fused = Tensor(x0.copy(), requires_grad=True)
        out = x_fused
        for wx, wh, b in weights:
            out = lstm(out, wx, wh, b)
        (out * Tensor(probe)).sum().backward()
        fused_grads = [t.grad.copy() for t in flat]
        fused_out = out.data
        for t in flat:
            t.zero_grad()

        x_steps = Tensor(x0.copy(), requires_grad=True)
        xs = [x_steps[:, step, :] for step in range(steps)]
        for wx, wh, b in weights:
            xs = lstm_layer_steps(xs, wx, wh, b, hidden)
        loss = None
        for step, h in enumerate(xs):
            term = (h * Tensor(probe[:, step, :])).sum()
            loss = term if loss is None else loss + term
        loss.backward()

        assert fused_out.dtype == np.dtype(dtype)
        assert np.array_equal(fused_out, np.stack([h.data for h in xs], axis=1))
        assert np.array_equal(x_fused.grad, x_steps.grad)
        for got, t in zip(fused_grads, flat):
            assert np.array_equal(got, t.grad)

    def test_no_graph_without_grad_inputs(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(2, 5, 3)))
        wx, wh, b = (Tensor(rng.normal(size=s)) for s in ((3, 8), (2, 8), (8,)))
        out = lstm(x, wx, wh, b)
        assert out._parents == () and out._backward is None
        assert out.shape == (2, 5, 2)


TINY = dict(conv_layers=2, conv_filters=3, conv_kernel=3, lstm_layers=2,
            lstm_hidden=5, voting_hidden=6)


def _train(monkeypatch, steps_oracle, dtype, steps=5):
    if steps_oracle:
        monkeypatch.setattr(model, "backbone_forward", backbone_forward_steps)
        monkeypatch.setattr(trainer, "backbone_forward", backbone_forward_steps)
    cfg = ModelConfig(t=12, c=4, k=3, n=2, dtype=dtype, **TINY)
    rng = np.random.default_rng(3)
    data = rng.normal(size=(8, cfg.t, cfg.c))
    labels = rng.integers(0, cfg.k, size=8)
    schema = ViewSchema(granularity="medium", views=((0, 1), (2, 3)))
    params = init_params(cfg, seed=4)
    model.set_normalization(params, data)
    opt1 = Adam(params_by_prefix(params, "backbone.", "mvf."), lr=1e-2)
    opt2 = Adam(params_by_prefix(params, "voting."), lr=1e-2)
    shuffle_rng = np.random.default_rng(5)
    losses = []
    for _ in range(steps):
        losses.append(train_phase1(data, labels, schema, params, cfg, opt1, shuffle_rng))
        losses.append(train_phase2(data, labels, params, cfg, opt2))
    preds, grouped = trainer.predict_batch(data, params, cfg)
    monkeypatch.undo()
    return losses, {k: v.data.copy() for k, v in params.items()}, preds, grouped


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_training_steps_bit_identical_to_steps_oracle(monkeypatch, dtype):
    fused = _train(monkeypatch, False, dtype)
    oracle = _train(monkeypatch, True, dtype)
    assert fused[0] == oracle[0]
    assert fused[1].keys() == oracle[1].keys()
    for name in fused[1]:
        assert np.array_equal(fused[1][name], oracle[1][name]), name
    assert np.array_equal(fused[2], oracle[2])
    assert np.array_equal(fused[3], oracle[3])
