"""Two-phase per-batch training of MVFNet.

Phase 1 shuffles the batch by view and trains the backbone + fusion layer,
supervising group j's logits with the label of the sample that donated view
j.  Phase 2 feeds the same batch unshuffled, freezes backbone + fusion, and
trains only the voting network on the true labels.  Freezing works through
detached parameters: phase 2 runs the backbone and fusion layer on detached
copies of their tensors, so those stages build no graph and see neither
updates nor gradient accumulation.  Prediction runs every stage on detached
parameters and builds no graph at all; a large batch is split across
CPUs in threads.  A model without a voting net (the single-view
baselines) trains phase 1 only; with one view covering every channel that
is plain cross-entropy training.
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor, softmax_cross_entropy
from .errors import ConfigError, InvalidInputError
from .metrics import accuracy, confusion
from .model import (
    Adam,
    backbone_forward,
    full_forward,
    heads_forward,
    mvf_forward,
    params_by_prefix,
    require_integers,
    set_normalization,
    voting_forward,
)
from .views import gen_shuffle_matrix, shuffle_batch

EVAL_BATCH = 256  # windows per predict_batch call in evaluate; bounds its memory
# Rows x lstm_hidden that each of predict_batch's blocks must hold before the
# batch is split across threads.  On a 2-vCPU VM with one BLAS thread, two
# blocks took this share of one block's time: 1.5-1.7 at 2880 per block
# (criterion 7's widths, batch 180), 0.84-0.99 at 8192 and 0.62-0.79 at
# 16384 (the paper's widths, batch 256).  With less work per block the GIL
# handoffs cost about what the second CPU gains, or more.
THREAD_MIN_WORK = 1 << 14


def usable_cpus():
    """CPUs this process may run on: the size of its affinity mask, or the
    machine's CPU count where the platform has no such mask."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 300
    batch_size: int = 64
    lr: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        require_integers(self, "epochs", "batch_size", "seed")
        if isinstance(self.lr, bool) or not isinstance(self.lr, numbers.Real):
            raise ConfigError(f"lr must be a real number, not {self.lr!r}")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.batch_size < 2:
            raise ConfigError("batch size must be >= 2 for meaningful shuffles")
        if not 0.0 < self.lr < math.inf:  # NaN fails the comparison too
            raise ConfigError("lr must be positive and finite")
        if self.seed < 0:  # NumPy's generators take only non-negative seeds
            raise ConfigError("seed must be >= 0")


@dataclass
class EpochRecord:
    """One epoch's mean step losses and accuracies.  train_accuracy is the
    running accuracy over the epoch's training steps, from the logits each
    step computed before its update: phase 2's voting logits, or phase 1's
    logit group 0 for a model without a voting net."""

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
    data = np.array([w.data for w in windows], dtype=dtype)
    labels = np.array([w.label for w in windows], dtype=np.int64)
    return data, labels


def train_phase1(data, labels, schema, params, config, opt, rng):
    """One shuffled step on backbone + MVF layer; voting net untouched.

    Loss is the sum over views of the batch-mean cross-entropy between group
    j's logits and view j's labels.  Returns (loss, correct), correct being
    how many argmaxes of logit group 0 match view 0's labels.
    """
    b = data.shape[0]
    if b < 2:
        raise InvalidInputError("phase 1 needs at least two samples")
    r = gen_shuffle_matrix(b, schema.n, rng)
    shuffled, view_labels = shuffle_batch(data, labels, schema, r)
    feats = backbone_forward(shuffled, params, config)
    grouped = mvf_forward(feats, params, config)
    loss = None
    for j in range(schema.n):
        term = softmax_cross_entropy(grouped[:, j, :], view_labels[:, j])
        loss = term if loss is None else loss + term
    correct = int(np.count_nonzero(grouped.data[:, 0, :].argmax(axis=1) == view_labels[:, 0]))
    opt.zero_grad()
    loss.backward()
    opt.step()
    return float(loss.data), correct


def _detached(params):
    return {name: t.detach() for name, t in params.items()}


def train_phase2(data, labels, params, config, opt):
    """One unshuffled step on the voting net with backbone + MVF frozen.
    Returns (loss, correct), correct counted from the voting logits."""
    frozen = _detached(params)
    feats = backbone_forward(data, frozen, config)
    grouped = mvf_forward(feats, frozen, config)
    logits = voting_forward(grouped, params, config)
    loss = softmax_cross_entropy(logits, labels)
    correct = int(np.count_nonzero(logits.data.argmax(axis=1) == labels))
    opt.zero_grad()
    loss.backward()
    opt.step()
    return float(loss.data), correct


def predict_batch(data, params, config, cpus=None):
    """Final class index per sample (argmax of the config's head; ties ->
    lowest) plus the grouped logits.

    The backbone's rows are split into blocks of near-equal size, one per
    CPU of `cpus` (default: usable_cpus()), as long as each block holds at
    least THREAD_MIN_WORK rows x lstm_hidden.  The calling thread runs the
    first block and a pool of threads, shut down before this returns, runs
    the rest; the heads then run once on the whole batch's features.
    NumPy releases the GIL in its matmuls and ufuncs, and no op of the
    backbone mixes rows, so the result equals one forward pass over the
    whole batch bit for bit as long as the BLAS rounds a row of the
    backbone's products the same whatever the number of rows.  It does not
    always for the heads' products (see TestThreadedPredict's 18-class
    case), which is why they are not split.  tests/test_trainer.py::
    TestThreadedPredict checks the whole on the platform it runs on.  An
    exception in any block is raised here once every block has ended."""
    frozen = _detached(params)
    rows = len(data)
    cpus = usable_cpus() if cpus is None else cpus
    blocks = max(1, min(cpus, rows // math.ceil(THREAD_MIN_WORK / config.lstm_hidden)))
    bounds = [rows * i // blocks for i in range(blocks + 1)]
    first, *rest = [data[a:b] for a, b in zip(bounds[:-1], bounds[1:])]
    if not rest:
        logits, grouped = full_forward(first, frozen, config)
        return np.argmax(logits.data, axis=1), grouped.data
    # Imported here: its modules, logging among them, cost about 0.6 MB and
    # 7 ms in every process that imports flowhar, LOUO workers included.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(len(rest)) as pool:
        futures = [pool.submit(backbone_forward, part, frozen, config) for part in rest]
        feats = [backbone_forward(first, frozen, config)] + [f.result() for f in futures]
    logits, grouped = heads_forward(Tensor(np.concatenate([f.data for f in feats])), frozen,
                                    config)
    return np.argmax(logits.data, axis=1), grouped.data


def _iter_batches(n, batch_size, rng):
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield order[start:start + batch_size]


def evaluate(data, labels, params, config):
    """Overall accuracy, per-view group accuracies and the k x k confusion
    matrix of the overall predictions."""
    preds = []
    view_correct = np.zeros(config.n)
    for start in range(0, len(labels), EVAL_BATCH):
        sl = slice(start, start + EVAL_BATCH)
        batch_preds, grouped = predict_batch(data[sl], params, config)
        preds.append(batch_preds)
        group_preds = grouped.argmax(axis=2)
        view_correct += (group_preds == labels[sl][:, None]).sum(axis=0)
    cm = confusion(np.concatenate(preds), labels, config.k)
    return accuracy(cm), (view_correct / len(labels)).tolist(), cm


def fit(data, labels, schema, params, model_config, train_config, test=None):
    """Full training loop over (b, t, c) windows and their labels: for every
    batch, phase 1 then (when the model has a voting net) phase 2.  `test`
    is an optional (data, labels) pair scored after every epoch by
    evaluate; the training set is scored only by the steps themselves (see
    EpochRecord).

    Deterministic for a fixed (data, configs, seed).  Incomplete final
    batches are kept; their shuffle matrix simply has fewer rows.  Trains
    `params` in place and returns the TrainLog.
    """
    if len(data) == 0:
        raise InvalidInputError("empty training set")
    if len(data) != len(labels):
        raise InvalidInputError(f"{len(data)} windows but {len(labels)} labels")
    data = np.asarray(data, model_config.dtype)
    set_normalization(params, data)

    rng = np.random.default_rng(train_config.seed)
    opt1 = Adam(params_by_prefix(params, "backbone.", "mvf."), lr=train_config.lr)
    opt2 = None
    if model_config.voting:
        opt2 = Adam(params_by_prefix(params, "voting."), lr=train_config.lr)
    log = TrainLog()
    for epoch in range(train_config.epochs):
        losses1, losses2 = [], []
        correct = scored = 0
        for ix in _iter_batches(len(labels), train_config.batch_size, rng):
            batch = data[ix]
            batch_labels = labels[ix]
            if len(ix) >= 2:
                loss, hits = train_phase1(
                    batch, batch_labels, schema, params, model_config, opt1, rng
                )
                losses1.append(loss)
                if opt2 is None:
                    correct, scored = correct + hits, scored + len(ix)
            if opt2 is not None:
                loss, hits = train_phase2(batch, batch_labels, params, model_config, opt2)
                losses2.append(loss)
                correct, scored = correct + hits, scored + len(ix)
        record = EpochRecord(
            epoch=epoch,
            loss_mvf1=sum(losses1) / max(len(losses1), 1),
            loss_mvf2=sum(losses2) / max(len(losses2), 1),
            train_accuracy=correct / max(scored, 1),
        )
        if test is not None:
            (record.test_accuracy, record.test_view_accuracy,
             record.test_confusion) = evaluate(test[0], test[1], params, model_config)
        log.records.append(record)
    return log
