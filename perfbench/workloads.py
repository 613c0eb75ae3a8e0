"""The three benchmark workloads.

Each workload builds its inputs from the seed in `setup`, runs one timed
call in `op`, and checks that call's output in `inspect`, outside the
timed part.  WARMUP_CALLS untimed, checked calls precede the timed ones.
An "operation" is what `attempted` and `failed` count: a LOUO subject, an
ingested file, or a predicted batch.  The library is called
through its module attributes (`harness.run_louo`, `dataset.load_recording`,
`trainer.predict_batch`) so that a Tracer's wrappers see every call.

Why these three (see BENCHMARK.json):
  louo_c7      training at criterion-7 widths, where per-node Python
               overhead in autodiff costs more than FLOPs; M&C runs once
               inside run_louo's build_windows, a minor but visible share.
  ingest_opp5  the CLI data path over OPPORTUNITY-shaped files: parse,
               NaN fill, decimate, M&C on five IMUs, windowing; no autodiff.
  infer_opp5   predict_batch alone at the paper's widths, where FLOPs
               matter; M&C runs only in set-up.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from flowhar import dataset, harness, model, trainer
from flowhar.attitude import MahonyParams
from flowhar.harness import ExperimentConfig
from flowhar.model import ModelConfig, init_params, set_normalization
from flowhar.trainer import TrainConfig, stack_windows
from flowhar.views import ChannelLayout, build_schema

import inputs
from reference import reference_forward


@dataclass
class Outcome:
    """What one timed call did, as seen from outside the library."""

    attempted: int
    failed: int
    items: int  # throughput units: subjects, input rows or windows
    key: int  # which distinct input the call used
    fingerprint: str  # digest of the outputs, for bit-identity checks
    problems: list = field(default_factory=list)
    values: dict = field(default_factory=dict)


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str((a.dtype, a.shape)).encode())
        h.update(a.tobytes())
    return h.hexdigest()


class LouoC7:
    """run_louo in flow mode on the criterion-7 population."""

    name = "louo_c7"
    WARMUP_CALLS = 0  # one call is 13 s; its first-call costs are a small share
    # Four epochs: the loss falls below the first epoch's on every seed tried,
    # training is about three quarters of the time and M&C the rest.
    EPOCHS = 4

    def setup(self, seed, workdir):
        cfg = ExperimentConfig(
            mode="flow", granularity="medium", win_len=inputs.WIN_LEN, stride=inputs.STRIDE,
            label_map={i: i for i in range(4)}, num_classes=4,
            train=TrainConfig(epochs=self.EPOCHS, batch_size=64, lr=5e-4, seed=7),
            model_overrides=dict(conv_filters=16, lstm_hidden=32, voting_hidden=32),
        )
        return SimpleNamespace(recordings=inputs.criterion7_population(seed), cfg=cfg)

    def op(self, state, i):
        return harness.run_louo(state.recordings, state.cfg)

    def inspect(self, state, i, report):
        problems = []
        losses = []
        last = []
        for row in report.rows:
            if row.error is not None:
                problems.append(f"subject {row.subject}: {row.error}")
                continue
            seq = np.array([(r.loss_mvf1, r.loss_mvf2) for r in row.log.records])
            losses.append(seq)
            if len(seq) != self.EPOCHS or not np.all(np.isfinite(seq)):
                problems.append(f"subject {row.subject}: losses {seq.tolist()}")
            elif not seq[-1, 0] < seq[0, 0]:
                problems.append(
                    f"subject {row.subject}: last loss_mvf1 {seq[-1, 0]!r} "
                    f"not below first {seq[0, 0]!r}")
            last.append(seq[-1, 0])
        if len(report.rows) != 3:
            problems.append(f"{len(report.rows)} subjects, expected 3")
        failed = sum(row.error is not None for row in report.rows)
        return Outcome(
            attempted=len(report.rows), failed=failed, items=len(report.rows), key=0,
            fingerprint=_digest(*losses), problems=problems,
            values={"louo_loss_last_epoch": float(np.mean(last)) if last else float("nan")},
        )


class IngestOpp5:
    """load_recording -> interpolate_nans -> decimate -> build_windows("concat")
    over OPPORTUNITY-shaped files, as `flowhar louo/train/eval` load data."""

    name = "ingest_opp5"
    WARMUP_CALLS = 1
    FILES = 4
    ROWS = 900  # 30 s at 30 Hz per file
    # Median angle between the quaternion columns and synth_generate's truth.
    # The filter settles to about 1.2 degrees on these streams.
    ATTITUDE_BOUND_DEG = 3.0

    def setup(self, seed, workdir):
        spec = inputs.opportunity_spec()
        files = inputs.opportunity_files(workdir, seed, spec, self.FILES, self.ROWS)
        return SimpleNamespace(spec=spec, files=files)

    def op(self, state, i):
        f = state.files[i % len(state.files)]
        recordings = []
        for rec in dataset.load_recording(f.path, state.spec):
            rec = dataset.interpolate_nans(rec, inputs.MAX_GAP)
            recordings.append(dataset.decimate(rec, state.spec.decimate_factor))
        return dataset.build_windows(
            recordings, "concat", inputs.WIN_LEN, inputs.STRIDE, state.spec.label_map,
            MahonyParams(warmup_seconds=inputs.WARMUP_S),
        )

    def inspect(self, state, i, windows):
        key = i % len(state.files)
        f = state.files[key]
        problems = []
        if len(windows) != len(f.expected):
            problems.append(f"{f.path.name}: {len(windows)} windows, expected {len(f.expected)}")
            return Outcome(1, 0, f.rows, key, "", problems)
        data = np.stack([w.data for w in windows])
        labels = np.array([w.label for w in windows])
        if not np.array_equal(labels, [c for _, c in f.expected]):
            problems.append(f"{f.path.name}: window labels differ from the generator's")
        if not np.all(np.isfinite(data)):
            problems.append(f"{f.path.name}: non-finite window values")
        errors = []
        per_sensor = data.shape[2] // len(f.truth)
        for k, name in enumerate(f.truth):
            q = data[:, :, k * per_sensor + per_sensor - 4:(k + 1) * per_sensor]
            norm_err = np.abs(np.linalg.norm(q, axis=2) - 1.0).max()
            if norm_err > 1e-6:
                problems.append(f"{f.path.name} {name}: quaternion norm off by {norm_err:.2e}")
            truth = np.stack([f.truth[name][inputs.TRIM + s:inputs.TRIM + s + inputs.WIN_LEN]
                              for s, _ in f.expected])
            dots = np.minimum(1.0, np.abs((q * truth).sum(axis=2)))
            errors.append(np.degrees(2.0 * np.arccos(dots)).ravel())
        median_err = float(np.median(np.concatenate(errors)))
        if not median_err < self.ATTITUDE_BOUND_DEG:
            problems.append(f"{f.path.name}: median attitude error {median_err:.3f} deg "
                            f"(bound {self.ATTITUDE_BOUND_DEG})")
        return Outcome(1, 0, f.rows, key, _digest(data, labels), problems,
                       {"attitude_error_deg_p50": median_err})


class InferOpp5:
    """predict_batch over 5-IMU windows (110 channels, 18 classes, medium
    granularity, n=10) at the paper's default widths 64/128/128."""

    name = "infer_opp5"
    WARMUP_CALLS = 3  # one per distinct batch, so the reference checks run untimed
    ROWS = 1200  # 40 s: about 140 distinct windows at stride 8
    STRIDE = 8
    BATCH = 256
    DISTINCT_BATCHES = 3
    # float32 through 4 convolutions and a 2 x 60-step LSTM, summed in a
    # different order from the library's.
    RTOL, ATOL = 1e-5, 1e-6

    def setup(self, seed, workdir):
        spec = inputs.opportunity_spec()
        rec = inputs.opportunity_recording(seed, spec, self.ROWS)
        windows = dataset.build_windows(
            [rec], "concat", inputs.WIN_LEN, self.STRIDE, spec.label_map,
            MahonyParams(warmup_seconds=inputs.WARMUP_S),
        )
        layout = ChannelLayout(num_sensors=len(spec.sensors))
        schema = build_schema("medium", layout)
        config = ModelConfig(t=inputs.WIN_LEN, c=layout.num_channels, k=spec.num_classes,
                             n=schema.n)
        data, _ = stack_windows(windows, config.dtype)
        params = init_params(config, seed)
        set_normalization(params, data)
        rng = np.random.default_rng(seed)
        batches = [data[rng.integers(0, len(data), self.BATCH)]
                   for _ in range(self.DISTINCT_BATCHES)]
        return SimpleNamespace(config=config, params=params, batches=batches, reference={})

    def op(self, state, i):
        return trainer.predict_batch(state.batches[i % len(state.batches)],
                                     state.params, state.config)

    def inspect(self, state, i, result):
        key = i % len(state.batches)
        preds, grouped = result
        cfg = state.config
        problems = []
        if preds.shape != (self.BATCH,) or grouped.shape != (self.BATCH, cfg.n, cfg.k):
            problems.append(f"batch {i}: shapes {preds.shape} {grouped.shape}")
        elif not np.all(np.isfinite(grouped)):
            problems.append(f"batch {i}: non-finite grouped logits")
        elif key not in state.reference:
            batch = state.batches[key]
            ref_logits, ref_grouped = reference_forward(batch, state.params, cfg)
            logits, _ = model.full_forward(batch, state.params, cfg)
            state.reference[key] = True
            for label, got, want in (("logits", logits.data, ref_logits),
                                     ("grouped logits", grouped, ref_grouped)):
                if not np.allclose(got, want, rtol=self.RTOL, atol=self.ATOL):
                    diff = float(np.abs(got - want).max())
                    problems.append(f"batch {key}: {label} differ from the NumPy "
                                    f"reference by up to {diff:.3e}")
            if not np.array_equal(preds, np.argmax(logits.data, axis=1)):
                problems.append(f"batch {key}: predictions are not the argmax of the logits")
        return Outcome(1, 0, self.BATCH, key, _digest(preds, grouped), problems)


WORKLOADS = {w.name: w for w in (LouoC7(), IngestOpp5(), InferOpp5())}
