"""Two-phase training loop tests: freeze semantics, determinism, toy runs."""

import concurrent.futures
import os
import sys
import threading

import numpy as np
import pytest

from flowhar.autodiff import Tensor, softmax_cross_entropy
from flowhar.dataset import Window
from flowhar.errors import ConfigError, InvalidInputError
from flowhar import trainer
from flowhar.model import (Adam, ModelConfig, backbone_forward, full_forward, init_params,
                           params_by_prefix)
from flowhar.trainer import (
    TrainConfig,
    evaluate,
    fit,
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
        with pytest.raises(ConfigError):
            TrainConfig(seed=-1)
        for lr in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ConfigError):
                TrainConfig(lr=lr)
        # Integers only (a bool is not one), and a real learning rate.
        for kwargs in ({"epochs": 2.5}, {"epochs": True}, {"epochs": "3"}, {"batch_size": 8.0},
                       {"batch_size": None}, {"seed": 1.5}, {"seed": False}, {"lr": "x"},
                       {"lr": None}, {"lr": True}):
            with pytest.raises(ConfigError):
                TrainConfig(**kwargs)


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
        schema = ViewSchema(views=(tuple(range(4)),))
        from flowhar.model import backbone_forward, mvf_forward

        feats = backbone_forward(Tensor(data), params, cfg)
        grouped = mvf_forward(feats, params, cfg)
        reference = float(softmax_cross_entropy(grouped[:, 0, :], labels).data)
        opt = Adam(params_by_prefix(params, "backbone.", "mvf."))
        loss, _ = train_phase1(data, labels, schema, params, cfg, opt,
                               np.random.default_rng(3))
        assert abs(loss - reference) < 1e-6

    def test_correct_counts_group0_before_the_update(self):
        # One view covering every channel: the shuffle permutes whole samples
        # with their labels, so the count equals the unshuffled batch's.
        cfg, params, data, labels, _ = tiny_setup(b=16, n=1)
        schema = ViewSchema(views=(tuple(range(4)),))
        _, grouped = full_forward(data, params, cfg)
        expected = np.count_nonzero(grouped.data[:, 0, :].argmax(axis=1) == labels)
        opt = Adam(params_by_prefix(params, "backbone.", "mvf."), lr=1e-1)
        _, correct = train_phase1(data, labels, schema, params, cfg, opt,
                                  np.random.default_rng(3))
        assert correct == expected

    def test_loss_decreases_on_toy_set(self):
        cfg, params, data, labels, schema = tiny_setup(b=16, seed=4)
        # make the problem separable: class signal in every channel
        data = np.where(labels[:, None, None] == 1, 1.0, -1.0) + 0.05 * data
        opt = Adam(params_by_prefix(params, "backbone.", "mvf."), lr=1e-2)
        losses = [
            train_phase1(data, labels, schema, params, cfg, opt,
                         np.random.default_rng(i))[0]
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

    def test_correct_counts_voting_logits_before_the_update(self):
        cfg, params, data, labels, _ = tiny_setup(b=16)
        logits, _ = full_forward(data, params, cfg)
        expected = np.count_nonzero(logits.data.argmax(axis=1) == labels)
        _, correct = train_phase2(data, labels, params, cfg,
                                  Adam(params_by_prefix(params, "voting."), lr=1e-1))
        assert correct == expected

    def test_voting_updates(self):
        cfg, params, data, labels, _ = tiny_setup()
        opt = Adam(params_by_prefix(params, "voting."))
        before = snapshot(params, ("voting.",))
        train_phase2(data, labels, params, cfg, opt)
        assert not bit_identical(params, before)


class TestInputDtype:
    def test_float64_batch_trains_like_its_float32_cast(self):
        # backbone_forward casts a batch to the config's dtype; the steps add
        # no cast of their own.
        cfg = ModelConfig(t=9, c=4, k=2, n=2, dtype="float32", **TINY)
        _, _, data, labels, schema = tiny_setup()
        runs = []
        for batch in (data.astype(np.float32), data):
            params = init_params(cfg, seed=0)
            opt1 = Adam(params_by_prefix(params, "backbone.", "mvf."))
            opt2 = Adam(params_by_prefix(params, "voting."))
            losses = (
                train_phase1(batch, labels, schema, params, cfg, opt1, np.random.default_rng(0)),
                train_phase2(batch, labels, params, cfg, opt2),
            )
            runs.append((losses, snapshot(params, ("backbone.", "mvf.", "voting."))))
        (losses32, params32), (losses64, params64) = runs
        assert losses64 == losses32
        for name, arr in params32.items():
            assert arr.dtype == np.float32 and np.array_equal(params64[name], arr), name


class TestPredict:
    def test_constant_logit_shift_invariance(self):
        cfg, params, data, _, _ = tiny_setup()
        preds_a, _ = predict_batch(data, params, cfg)
        params["voting.fc2.b"].data += 7.5
        preds_b, _ = predict_batch(data, params, cfg)
        assert np.array_equal(preds_a, preds_b)

    def test_single_window(self):
        cfg, params, data, _, _ = tiny_setup()
        preds, grouped = predict_batch(data[:1], params, cfg)
        assert preds.shape == (1,) and preds[0] in (0, 1)
        assert grouped.shape == (1, cfg.n, cfg.k)

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
        schema = ViewSchema(views=((0, 1), (2, 3)))
        with pytest.raises(InvalidInputError, match="empty training set"):
            fit(np.zeros((0, 9, 4)), np.zeros(0, np.int64), schema, params, cfg,
                TrainConfig(epochs=1))

    def test_labels_of_another_length(self):
        cfg = ModelConfig(t=9, c=4, k=2, n=2, **TINY)
        params = init_params(cfg, seed=0)
        schema = ViewSchema(views=((0, 1), (2, 3)))
        data, labels = stack_windows(self._windows(), cfg.dtype)
        with pytest.raises(InvalidInputError, match="12 windows but 11 labels"):
            fit(data, labels[:-1], schema, params, cfg, TrainConfig(epochs=1))

    def test_determinism(self):
        results = []
        for _ in range(2):
            cfg = ModelConfig(t=9, c=4, k=2, n=2, **TINY)
            params = init_params(cfg, seed=1)
            schema = ViewSchema(views=((0, 1), (2, 3)))
            tc = TrainConfig(epochs=3, batch_size=4, lr=1e-3, seed=5)
            log = fit(*stack_windows(self._windows(), cfg.dtype), schema, params, cfg, tc)
            results.append((snapshot(params, ("backbone.", "mvf.", "voting.")),
                            [r.loss_mvf1 for r in log.records]))
        assert results[0][1] == results[1][1]
        for name, arr in results[0][0].items():
            assert np.array_equal(arr, results[1][0][name])

    def test_log_has_both_losses_every_epoch(self):
        cfg = ModelConfig(t=9, c=4, k=2, n=2, **TINY)
        params = init_params(cfg, seed=1)
        schema = ViewSchema(views=((0, 1), (2, 3)))
        tc = TrainConfig(epochs=4, batch_size=4, seed=0)
        log = fit(*stack_windows(self._windows(), cfg.dtype), schema, params, cfg, tc)
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
        schema = ViewSchema(views=((0, 1), (2, 3)))
        tc = TrainConfig(epochs=1, batch_size=8, seed=0)
        log = fit(*stack_windows(self._windows(b=9), cfg.dtype), schema, params, cfg, tc)
        assert len(returned[1]) == 1 and len(returned[2]) == 2
        assert log.records[0].loss_mvf1 == returned[1][0][0]
        assert log.records[0].loss_mvf2 == (returned[2][0][0] + returned[2][1][0]) / 2

    @pytest.mark.parametrize("voting", [True, False])
    def test_train_accuracy_counts_the_steps_logits(self, monkeypatch, voting):
        # 9 windows at batch 8: a batch of 8 and a batch of 1.  With a voting
        # net, phase 2 scores both batches (9 windows); without one, phase 1
        # scores the batch of 8 only, since it skips the one-window batch.
        returned = {1: [], 2: []}
        for phase, fn in ((1, trainer.train_phase1), (2, trainer.train_phase2)):
            def recording(*args, _fn=fn, _out=returned[phase]):
                _out.append(_fn(*args))
                return _out[-1]
            monkeypatch.setattr(trainer, f"train_phase{phase}", recording)
        n = 2 if voting else 1
        cfg = ModelConfig(t=9, c=4, k=2, n=n, voting=voting, **TINY)
        params = init_params(cfg, seed=1)
        views = ((0, 1), (2, 3)) if voting else ((0, 1, 2, 3),)
        schema = ViewSchema(views=views)
        tc = TrainConfig(epochs=2, batch_size=8, seed=0)
        log = fit(*stack_windows(self._windows(b=9), cfg.dtype), schema, params, cfg, tc)
        scoring, scored = (returned[2], 9) if voting else (returned[1], 8)
        per_epoch = len(scoring) // 2
        for epoch, rec in enumerate(log.records):
            steps = scoring[epoch * per_epoch:(epoch + 1) * per_epoch]
            assert rec.train_accuracy == sum(correct for _, correct in steps) / scored
        assert len(returned[2]) == (4 if voting else 0)
        assert len(returned[1]) == 2

    def test_toy_convergence_and_voting_quality(self):
        cfg = ModelConfig(t=9, c=4, k=2, n=2, dtype="float64", **TINY)
        params = init_params(cfg, seed=2)
        schema = ViewSchema(views=((0, 1), (2, 3)))
        tc = TrainConfig(epochs=40, batch_size=8, lr=1e-2, seed=3)
        data, labels = stack_windows(self._windows(b=16), cfg.dtype)
        fit(data, labels, schema, params, cfg, tc)
        acc, view_acc, cm = evaluate(data, labels, params, cfg)
        assert acc >= 0.99
        assert cm.sum() == len(labels) and np.trace(cm) == round(acc * len(labels))
        # voting must not destroy the best single view's signal
        assert acc >= max(view_acc) - 0.02


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


# The paper's widths, 64/128/128, on short narrow windows: the widths decide
# whether predict_batch splits a batch, and a short window keeps the test cheap.
PAPER = dict(conv_filters=64, lstm_hidden=128, voting_hidden=128)


def usable_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def pool_sizes(monkeypatch):
    """Record the worker count of every thread pool predict_batch starts."""
    sizes = []
    real = concurrent.futures.ThreadPoolExecutor

    def spy(workers):
        sizes.append(workers)
        return real(workers)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", spy)
    return sizes


def paper_setup(b, t=24, c=9, k=5, n=3, seed=0):
    cfg = ModelConfig(t=t, c=c, k=k, n=n, **PAPER)
    params = init_params(cfg, seed=seed)
    rng = np.random.default_rng(seed)
    return cfg, params, rng.normal(size=(b, t, c)).astype(np.float32), rng.integers(0, k, b)


class TestThreadedPredict:
    @pytest.mark.parametrize("b, cpus, blocks", [
        (256, 2, 2), (257, 2, 2), (1000, 2, 2),
        (1000, 3, 3),  # 333, 333 and 334 rows, more threads than this host may have
        (300, 3, 2),  # 150 rows each: a third block would hold less than THREAD_MIN_WORK
    ])
    def test_equals_one_forward_over_the_batch(self, monkeypatch, b, cpus, blocks):
        cfg, params, data, _ = paper_setup(b)
        usable_cpus(monkeypatch, cpus)
        sizes = pool_sizes(monkeypatch)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # hand the GIL over often, so the blocks interleave
        try:
            preds, grouped = predict_batch(data, params, cfg)
        finally:
            sys.setswitchinterval(interval)
        assert sizes == [blocks - 1]
        logits, want = full_forward(data, params, cfg)
        assert np.array_equal(preds, np.argmax(logits.data, axis=1))
        assert np.array_equal(grouped, want.data)

    @pytest.mark.parametrize("t, c", [(24, 9), (64, 110)])
    def test_equals_one_forward_with_18_classes(self, monkeypatch, t, c):
        # OPPORTUNITY's 18 classes in 3 views: the fusion layer's product is
        # (rows, 128) @ (128, 54), which OpenBLAS 0.3.31 rounds differently
        # at 128 rows than at 256, so it must see the whole batch at once.
        cfg, params, data, _ = paper_setup(256, t=t, c=c, k=18)
        usable_cpus(monkeypatch, 2)
        sizes = pool_sizes(monkeypatch)
        preds, grouped = predict_batch(data, params, cfg)
        assert sizes == [1]
        logits, want = full_forward(data, params, cfg)
        assert np.array_equal(preds, np.argmax(logits.data, axis=1))
        assert np.array_equal(grouped, want.data)

    def test_criterion_7_batch_starts_no_pool(self, monkeypatch):
        cfg = ModelConfig(t=64, c=18, k=4, n=6, conv_filters=16, lstm_hidden=32,
                          voting_hidden=32)
        data = np.random.default_rng(0).normal(size=(180, cfg.t, cfg.c)).astype(np.float32)
        usable_cpus(monkeypatch, 2)
        sizes = pool_sizes(monkeypatch)
        preds, _ = predict_batch(data, init_params(cfg, seed=0), cfg)
        assert sizes == [] and preds.shape == (180,)

    @pytest.mark.parametrize("mask, cpus, pools", [(2, 1, []), (1, 2, [1]), (1, None, [])])
    def test_cpus_argument_replaces_the_affinity_mask(self, monkeypatch, mask, cpus, pools):
        cfg, params, data, _ = paper_setup(256)
        usable_cpus(monkeypatch, mask)
        sizes = pool_sizes(monkeypatch)
        preds, grouped = predict_batch(data, params, cfg, cpus)
        assert sizes == pools
        logits, want = full_forward(data, params, cfg)
        assert np.array_equal(preds, np.argmax(logits.data, axis=1))
        assert np.array_equal(grouped, want.data)

    def test_evaluate_same_with_one_and_two_cpus(self, monkeypatch):
        cfg, params, data, labels = paper_setup(600)  # batches of 256, 256 and 88
        results = []
        for cpus in (1, 2):
            usable_cpus(monkeypatch, cpus)
            sizes = pool_sizes(monkeypatch)
            results.append(evaluate(data, labels, params, cfg))
            assert sizes == ([] if cpus == 1 else [1, 1])
        (acc1, views1, cm1), (acc2, views2, cm2) = results
        assert acc1 == acc2 and views1 == views2 and np.array_equal(cm1, cm2)

    def test_error_in_a_pool_block_propagates_and_no_thread_is_left(self, monkeypatch):
        cfg, params, data, _ = paper_setup(256)
        usable_cpus(monkeypatch, 2)
        caller = threading.get_ident()

        def forward(x, p, c):
            if threading.get_ident() != caller:
                raise InvalidInputError("second block failed")
            return backbone_forward(x, p, c)
        monkeypatch.setattr(trainer, "backbone_forward", forward)
        before = threading.active_count()
        with pytest.raises(InvalidInputError, match="second block failed"):
            predict_batch(data, params, cfg)
        assert threading.active_count() == before
