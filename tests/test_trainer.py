"""Two-phase training loop tests: freeze semantics, determinism, toy runs."""

import numpy as np
import pytest

from flowhar.autodiff import Tensor, softmax_cross_entropy
from flowhar.dataset import Window
from flowhar.errors import ConfigError, InvalidInputError
from flowhar import trainer
from flowhar.model import Adam, ModelConfig, init_params, params_by_prefix
from flowhar.trainer import (
    TrainConfig,
    evaluate,
    fit,
    predict,
    predict_batch,
    stack_windows,
    train_phase1,
    train_phase2,
)
from flowhar.views import ViewSchema

TINY = dict(conv_layers=2, conv_filters=3, conv_kernel=3, lstm_layers=1,
            lstm_hidden=6, voting_hidden=6)


def tiny_setup(b=8, t=9, c=4, k=2, n=2, seed=0):
    cfg = ModelConfig(t=t, c=c, k=k, n=n, dtype="float64", **TINY)
    params = init_params(cfg, seed=seed)
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(b, t, c))
    labels = rng.integers(0, k, size=b)
    per_view = c // n
    schema = ViewSchema(
        granularity="medium",
        views=tuple(tuple(range(v * per_view, (v + 1) * per_view)) for v in range(n)),
    )
    return cfg, params, data, labels, schema


def snapshot(params, prefixes):
    return {
        name: t.data.copy()
        for name, t in params.items()
        if name.startswith(prefixes)
    }


def bit_identical(params, snap):
    return all(np.array_equal(params[name].data, arr) for name, arr in snap.items())


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.epochs == 300 and cfg.batch_size == 64

    def test_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(epochs=0)
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=1)


class TestPhase1:
    def test_voting_net_frozen(self):
        cfg, params, data, labels, schema = tiny_setup()
        opt = Adam(params_by_prefix(params, "backbone.", "mvf."))
        before = snapshot(params, ("voting.",))
        train_phase1(data, labels, schema, params, cfg, opt, np.random.default_rng(0))
        assert bit_identical(params, before)

    def test_backbone_updates(self):
        cfg, params, data, labels, schema = tiny_setup()
        opt = Adam(params_by_prefix(params, "backbone.", "mvf."))
        before = snapshot(params, ("backbone.", "mvf."))
        train_phase1(data, labels, schema, params, cfg, opt, np.random.default_rng(0))
        assert not bit_identical(params, before)

    def test_needs_two_samples(self):
        cfg, params, data, labels, schema = tiny_setup()
        opt = Adam(params_by_prefix(params, "backbone.", "mvf."))
        with pytest.raises(InvalidInputError):
            train_phase1(data[:1], labels[:1], schema, params, cfg, opt,
                         np.random.default_rng(0))

    def test_single_view_equals_plain_cross_entropy(self):
        # With one view covering every channel, shuffling permutes whole
        # samples with their labels, so the phase-1 loss equals plain
        # cross-entropy of the batch.
        cfg, params, data, labels, _ = tiny_setup(n=1)
        schema = ViewSchema(granularity="just_local", views=(tuple(range(4)),))
        from flowhar.model import backbone_forward, mvf_forward

        feats = backbone_forward(Tensor(data), params, cfg)
        grouped = mvf_forward(feats, params, cfg)
        reference = float(softmax_cross_entropy(grouped[:, 0, :], labels).data)
        opt = Adam(params_by_prefix(params, "backbone.", "mvf."))
        loss = train_phase1(data, labels, schema, params, cfg, opt,
                            np.random.default_rng(3))
        assert abs(loss - reference) < 1e-6

    def test_loss_decreases_on_toy_set(self):
        cfg, params, data, labels, schema = tiny_setup(b=16, seed=4)
        # make the problem separable: class signal in every channel
        data = np.where(labels[:, None, None] == 1, 1.0, -1.0) + 0.05 * data
        opt = Adam(params_by_prefix(params, "backbone.", "mvf."), lr=1e-2)
        losses = [
            train_phase1(data, labels, schema, params, cfg, opt,
                         np.random.default_rng(i))
            for i in range(30)
        ]
        assert np.mean(losses[-5:]) < np.mean(losses[:5])


class TestPhase2:
    def test_backbone_and_mvf_frozen(self):
        cfg, params, data, labels, _ = tiny_setup()
        opt = Adam(params_by_prefix(params, "voting."))
        before = snapshot(params, ("backbone.", "mvf."))
        grads_before = {
            name: None for name in params if name.startswith(("backbone.", "mvf."))
        }
        train_phase2(data, labels, params, cfg, opt)
        assert bit_identical(params, before)
        # no gradient accumulation on the frozen stages either
        for name in grads_before:
            assert params[name].grad is None

    def test_voting_updates(self):
        cfg, params, data, labels, _ = tiny_setup()
        opt = Adam(params_by_prefix(params, "voting."))
        before = snapshot(params, ("voting.",))
        train_phase2(data, labels, params, cfg, opt)
        assert not bit_identical(params, before)


class TestPredict:
    def test_constant_logit_shift_invariance(self):
        cfg, params, data, _, _ = tiny_setup()
        preds_a, _ = predict_batch(data, params, cfg)
        params["voting.fc2.b"].data += 7.5
        preds_b, _ = predict_batch(data, params, cfg)
        assert np.array_equal(preds_a, preds_b)

    def test_single_window(self):
        cfg, params, data, _, _ = tiny_setup()
        assert predict(data[0], params, cfg) in (0, 1)

    def test_tie_breaks_to_lowest(self):
        # force identical logits for every class
        cfg, params, data, _, _ = tiny_setup()
        params["voting.fc2.w"].data[:] = 0.0
        params["voting.fc2.b"].data[:] = 0.0
        preds, _ = predict_batch(data, params, cfg)
        assert np.all(preds == 0)


def _recording(monkeypatch, name):
    """Patch trainer.<name> to keep every result it returns."""
    results = []
    fn = getattr(trainer, name)

    def wrapper(*args):
        results.append(fn(*args))
        return results[-1]
    monkeypatch.setattr(trainer, name, wrapper)
    return results


class TestNoGraph:
    def test_predict_batch_builds_no_graph(self, monkeypatch):
        cfg, params, data, _, _ = tiny_setup()
        returned = _recording(monkeypatch, "full_forward")
        predict_batch(data, params, cfg)
        logits, grouped = returned[0]
        assert logits._parents == () and grouped._parents == ()
        assert all(t.grad is None for t in params.values())

    def test_phase2_graph_only_on_voting_net(self, monkeypatch):
        cfg, params, data, labels, _ = tiny_setup()
        feats = _recording(monkeypatch, "backbone_forward")
        grouped = _recording(monkeypatch, "mvf_forward")
        train_phase2(data, labels, params, cfg, Adam(params_by_prefix(params, "voting.")))
        assert feats[0]._parents == () and grouped[0]._parents == ()
        for name, t in params.items():
            assert (t.grad is not None) == name.startswith("voting."), name

    def test_phase2_after_phase1_keeps_phase1_grads(self):
        cfg, params, data, labels, schema = tiny_setup()
        opt1 = Adam(params_by_prefix(params, "backbone.", "mvf."))
        train_phase1(data, labels, schema, params, cfg, opt1, np.random.default_rng(0))
        grads = {k: t.grad.copy() for k, t in params.items() if t.grad is not None}
        assert grads and not any(k.startswith("voting.") for k in grads)
        train_phase2(data, labels, params, cfg, Adam(params_by_prefix(params, "voting.")))
        for name, g in grads.items():
            assert np.array_equal(params[name].grad, g), name


class TestFit:
    def _windows(self, b=12, t=9, c=4, k=2, seed=0):
        rng = np.random.default_rng(seed)
        out = []
        for i in range(b):
            label = i % k
            base = 1.0 if label else -1.0
            data = base + 0.05 * rng.normal(size=(t, c))
            out.append(Window(data=data, label=label, subject_id="s"))
        return out

    def test_empty_train_set(self):
        cfg = ModelConfig(t=9, c=4, k=2, n=2, **TINY)
        params = init_params(cfg, seed=0)
        schema = ViewSchema(granularity="medium", views=((0, 1), (2, 3)))
        with pytest.raises(InvalidInputError):
            fit([], schema, params, cfg, TrainConfig(epochs=1))

    def test_determinism(self):
        results = []
        for _ in range(2):
            cfg = ModelConfig(t=9, c=4, k=2, n=2, **TINY)
            params = init_params(cfg, seed=1)
            schema = ViewSchema(granularity="medium", views=((0, 1), (2, 3)))
            tc = TrainConfig(epochs=3, batch_size=4, lr=1e-3, seed=5)
            params, log = fit(self._windows(), schema, params, cfg, tc)
            results.append((snapshot(params, ("backbone.", "mvf.", "voting.")),
                            [r.loss_mvf1 for r in log.records]))
        assert results[0][1] == results[1][1]
        for name, arr in results[0][0].items():
            assert np.array_equal(arr, results[1][0][name])

    def test_log_has_both_losses_every_epoch(self):
        cfg = ModelConfig(t=9, c=4, k=2, n=2, **TINY)
        params = init_params(cfg, seed=1)
        schema = ViewSchema(granularity="medium", views=((0, 1), (2, 3)))
        tc = TrainConfig(epochs=4, batch_size=4, seed=0)
        _, log = fit(self._windows(), schema, params, cfg, tc)
        assert len(log.records) == 4
        for rec in log.records:
            assert rec.loss_mvf1 > 0.0 and rec.loss_mvf2 > 0.0

    def test_losses_average_over_steps_taken(self, monkeypatch):
        # 9 windows at batch 8 make a batch of 8 and a batch of 1; phase 1
        # skips the one-window batch, phase 2 trains on both.
        returned = {1: [], 2: []}
        for phase, fn in ((1, trainer.train_phase1), (2, trainer.train_phase2)):
            def recording(*args, _fn=fn, _out=returned[phase]):
                _out.append(_fn(*args))
                return _out[-1]
            monkeypatch.setattr(trainer, f"train_phase{phase}", recording)
        cfg = ModelConfig(t=9, c=4, k=2, n=2, **TINY)
        params = init_params(cfg, seed=1)
        schema = ViewSchema(granularity="medium", views=((0, 1), (2, 3)))
        tc = TrainConfig(epochs=1, batch_size=8, seed=0)
        _, log = fit(self._windows(b=9), schema, params, cfg, tc)
        assert len(returned[1]) == 1 and len(returned[2]) == 2
        assert log.records[0].loss_mvf1 == returned[1][0]
        assert log.records[0].loss_mvf2 == (returned[2][0] + returned[2][1]) / 2

    def test_toy_convergence_and_voting_quality(self):
        cfg = ModelConfig(t=9, c=4, k=2, n=2, dtype="float64", **TINY)
        params = init_params(cfg, seed=2)
        schema = ViewSchema(granularity="medium", views=((0, 1), (2, 3)))
        tc = TrainConfig(epochs=40, batch_size=8, lr=1e-2, seed=3)
        windows = self._windows(b=16)
        params, log = fit(windows, schema, params, cfg, tc)
        data, labels = stack_windows(windows, cfg.dtype)
        acc, view_acc, cm = evaluate(data, labels, params, cfg)
        assert acc >= 0.99
        assert cm.sum() == len(labels) and np.trace(cm) == round(acc * len(labels))
        # voting must not destroy the best single view's signal
        assert acc >= max(view_acc) - 0.02

    def test_checkpoint_cadence(self):
        cfg = ModelConfig(t=9, c=4, k=2, n=2, **TINY)
        params = init_params(cfg, seed=1)
        schema = ViewSchema(granularity="medium", views=((0, 1), (2, 3)))
        seen = []
        tc = TrainConfig(epochs=4, batch_size=4, seed=0, checkpoint_every=2)
        fit(self._windows(), schema, params, cfg, tc,
            checkpoint_fn=lambda epoch, p: seen.append(epoch))
        assert seen == [1, 3]


class TestEvaluate:
    def test_use_voting_flag(self):
        # The head is a property of the config: without a voting net the
        # overall prediction is logit group 0; per-view accuracies come from
        # the shared backbone + MVF layer either way.
        rng = np.random.default_rng(0)
        data = rng.normal(size=(6, 9, 4))
        labels = rng.integers(0, 2, size=6)
        vote_cfg = ModelConfig(t=9, c=4, k=2, n=1, dtype="float64", **TINY)
        head_cfg = ModelConfig(t=9, c=4, k=2, n=1, dtype="float64", voting=False, **TINY)
        vote_params = init_params(vote_cfg, seed=0)
        head_params = init_params(head_cfg, seed=0)
        acc_vote, views, cm_vote = evaluate(data, labels, vote_params, vote_cfg)
        acc_head, views2, cm_head = evaluate(data, labels, head_params, head_cfg)
        assert 0.0 <= acc_vote <= 1.0 and 0.0 <= acc_head <= 1.0
        assert views == views2 and len(views) == 1
        assert acc_head == views2[0]
        assert cm_vote.shape == cm_head.shape == (2, 2)
