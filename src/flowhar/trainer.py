"""Two-phase per-batch training of MVFNet.

Phase 1 shuffles the batch by view and trains the backbone + fusion layer,
supervising group j's logits with the label of the sample that donated view
j.  Phase 2 feeds the same batch unshuffled, freezes backbone + fusion, and
trains only the voting network on the true labels.  Freezing works through
detached parameters: phase 2 runs the backbone and fusion layer on detached
copies of their tensors, so those stages build no graph and see neither
updates nor gradient accumulation.  Prediction runs every stage on detached
parameters and builds no graph at all.  A model without a voting net (the
single-view baselines) trains phase 1 only; with one view covering every
channel that is plain cross-entropy training.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor, softmax_cross_entropy
from .errors import ConfigError, InvalidInputError
from .metrics import accuracy, confusion
from .model import (
    Adam,
    backbone_forward,
    full_forward,
    mvf_forward,
    params_by_prefix,
    set_normalization,
    voting_forward,
)
from .views import gen_shuffle_matrix, shuffle_batch


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 300
    batch_size: int = 64
    lr: float = 1e-3
    seed: int = 0
    checkpoint_every: int = 0  # epochs; 0 disables periodic checkpoints

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.batch_size < 2:
            raise ConfigError("batch size must be >= 2 for meaningful shuffles")


@dataclass
class EpochRecord:
    epoch: int
    loss_mvf1: float
    loss_mvf2: float
    train_accuracy: float
    test_accuracy: float | None = None
    test_view_accuracy: list = field(default_factory=list)
    test_confusion: np.ndarray | None = None


@dataclass
class TrainLog:
    records: list = field(default_factory=list)


def stack_windows(windows, dtype="float32"):
    data = np.stack([w.data for w in windows]).astype(dtype)
    labels = np.array([w.label for w in windows], dtype=np.int64)
    return data, labels


def train_phase1(data, labels, schema, params, config, opt, rng):
    """One shuffled step on backbone + MVF layer; voting net untouched.

    Loss is the sum over views of the batch-mean cross-entropy between group
    j's logits and view j's labels.
    """
    b = data.shape[0]
    if b < 2:
        raise InvalidInputError("phase 1 needs at least two samples")
    r = gen_shuffle_matrix(b, schema.n, rng)
    shuffled, view_labels = shuffle_batch(data, labels, schema, r)
    feats = backbone_forward(Tensor(shuffled.astype(config.dtype)), params, config)
    grouped = mvf_forward(feats, params, config)
    loss = None
    for j in range(schema.n):
        term = softmax_cross_entropy(grouped[:, j, :], view_labels[:, j])
        loss = term if loss is None else loss + term
    opt.zero_grad()
    loss.backward()
    opt.step()
    return float(loss.data)


def _detached(params):
    return {name: t.detach() for name, t in params.items()}


def train_phase2(data, labels, params, config, opt):
    """One unshuffled step on the voting net with backbone + MVF frozen."""
    frozen = _detached(params)
    feats = backbone_forward(Tensor(data.astype(config.dtype)), frozen, config)
    grouped = mvf_forward(feats, frozen, config)
    logits = voting_forward(grouped, params, config)
    loss = softmax_cross_entropy(logits, labels)
    opt.zero_grad()
    loss.backward()
    opt.step()
    return float(loss.data)


def predict_batch(data, params, config):
    """Final class index per sample (argmax of the config's head; ties ->
    lowest) plus the grouped logits."""
    logits, grouped = full_forward(data, _detached(params), config)
    return np.argmax(logits.data, axis=1), grouped.data


def predict(window_data, params, config):
    pred, _ = predict_batch(window_data[None, ...], params, config)
    return int(pred[0])


def _iter_batches(n, batch_size, rng):
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield order[start:start + batch_size]


def evaluate(data, labels, params, config, batch_size=256):
    """Overall accuracy, per-view group accuracies and the k x k confusion
    matrix of the overall predictions."""
    preds = []
    view_correct = np.zeros(config.n)
    for start in range(0, len(labels), batch_size):
        sl = slice(start, start + batch_size)
        batch_preds, grouped = predict_batch(data[sl], params, config)
        preds.append(batch_preds)
        group_preds = grouped.argmax(axis=2)
        view_correct += (group_preds == labels[sl][:, None]).sum(axis=0)
    cm = confusion(np.concatenate(preds), labels, config.k)
    return accuracy(cm), (view_correct / len(labels)).tolist(), cm


def fit(train_windows, schema, params, model_config, train_config,
        test_windows=None, checkpoint_fn=None):
    """Full training loop: for every batch, phase 1 then (when the model has
    a voting net) phase 2.

    Deterministic for a fixed (data, configs, seed).  Incomplete final
    batches are kept; their shuffle matrix simply has fewer rows.  Returns
    (params, TrainLog).
    """
    if not train_windows:
        raise InvalidInputError("empty training set")
    data, labels = stack_windows(train_windows, model_config.dtype)
    test = None
    if test_windows:
        test = stack_windows(test_windows, model_config.dtype)
    set_normalization(params, data)

    rng = np.random.default_rng(train_config.seed)
    opt1 = Adam(params_by_prefix(params, "backbone.", "mvf."), lr=train_config.lr)
    opt2 = None
    if model_config.voting:
        opt2 = Adam(params_by_prefix(params, "voting."), lr=train_config.lr)
    log = TrainLog()
    for epoch in range(train_config.epochs):
        losses1, losses2 = [], []
        for ix in _iter_batches(len(labels), train_config.batch_size, rng):
            batch = data[ix]
            batch_labels = labels[ix]
            if len(ix) >= 2:
                losses1.append(train_phase1(
                    batch, batch_labels, schema, params, model_config, opt1, rng
                ))
            if opt2 is not None:
                losses2.append(train_phase2(batch, batch_labels, params, model_config, opt2))
        train_acc, _, _ = evaluate(data, labels, params, model_config)
        record = EpochRecord(
            epoch=epoch,
            loss_mvf1=sum(losses1) / max(len(losses1), 1),
            loss_mvf2=sum(losses2) / max(len(losses2), 1),
            train_accuracy=train_acc,
        )
        if test is not None:
            (record.test_accuracy, record.test_view_accuracy,
             record.test_confusion) = evaluate(test[0], test[1], params, model_config)
        log.records.append(record)
        if (
            checkpoint_fn is not None
            and train_config.checkpoint_every
            and (epoch + 1) % train_config.checkpoint_every == 0
        ):
            checkpoint_fn(epoch, params)
    return params, log
