"""Experiment orchestration: leave-one-user-out sweeps over the ablation
modes (local-only, global-only, concatenation baseline, full fusion) and
report emission.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .attitude import MahonyParams
from .dataset import build_windows, louo_split
from .errors import ConfigError, FlowError
from .metrics import accuracy, weighted_f1
from .model import ModelConfig, init_params
from .trainer import TrainConfig, TrainLog, fit
from .views import ChannelLayout, ViewSchema, build_schema


@dataclass(frozen=True)
class ModeSpec:
    """What a pipeline mode decides: channel assembly, layout and head."""

    channels: str  # dataset.assemble_channels mode: "local", "global" or "concat"
    # Shuffled views + voting net.  False: one view covering every channel,
    # predictions from logit group 0.
    voting: bool

    def layout(self, num_sensors):
        return ChannelLayout(
            num_sensors,
            has_local=self.channels != "global",
            has_global=self.channels != "local",
        )

    def schema(self, granularity, layout):
        if self.voting:
            return build_schema(granularity, layout)
        return ViewSchema(granularity="single", views=(tuple(range(layout.num_channels)),))


MODE_SPECS = {
    "vL_only": ModeSpec("local", voting=False),
    "vG_only": ModeSpec("global", voting=False),
    "vL_plus_vG": ModeSpec("concat", voting=False),
    "flow": ModeSpec("concat", voting=True),
}
MODES = tuple(MODE_SPECS)


@dataclass(frozen=True)
class ExperimentConfig:
    mode: str = "flow"
    granularity: str = "medium"  # flow mode only
    win_len: int = 64
    stride: int = 32
    label_map: dict = field(default_factory=dict)
    num_classes: int = 0
    target_subjects: tuple = ()  # empty -> every subject in the data
    train: TrainConfig = field(default_factory=TrainConfig)
    mahony: MahonyParams = field(default_factory=MahonyParams)
    model_overrides: dict = field(default_factory=dict)  # ModelConfig kwargs
    output_dir: str | None = None
    resume: bool = False

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}")


@dataclass
class SubjectResult:
    subject: str
    accuracy: float | None
    weighted_f1: float | None
    confusion: np.ndarray | None
    log: TrainLog | None
    error: str | None = None
    params: dict | None = None


@dataclass
class ExperimentReport:
    mode: str
    seed: int
    rows: list
    average_accuracy: float
    average_f1: float
    wall_time_s: float
    config_echo: dict
    model_config: ModelConfig  # shared by every subject; what a checkpoint saves


def _write_atomic(path, text):
    """Write text through a temp file in the same directory, then os.replace
    it onto path: a run killed mid-write leaves the old file or none, never
    truncated JSON."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _result_key(cfg, model_config, windows):
    """sha256 of everything that decides a subject's result: the settings
    (mode, granularity, windowing, labels, training, filter and model
    configs) and the built windows' data, labels and subjects."""
    settings = {
        "mode": cfg.mode,
        "granularity": cfg.granularity,
        "win_len": cfg.win_len,
        "stride": cfg.stride,
        "label_map": sorted(cfg.label_map.items()),
        "num_classes": cfg.num_classes,
        "train": asdict(cfg.train),
        "mahony": asdict(cfg.mahony),
        "model": asdict(model_config),
    }
    h = hashlib.sha256(json.dumps(settings, sort_keys=True).encode())
    for w in windows:
        h.update(np.ascontiguousarray(w.data).tobytes())
    h.update(np.array([w.label for w in windows], dtype=np.int64).tobytes())
    h.update(json.dumps([w.subject_id for w in windows]).encode())
    return h.hexdigest()


def _evaluate_split(train_windows, test_windows, cfg, model_config, schema):
    params = init_params(model_config, cfg.train.seed)
    params, log = fit(train_windows, schema, params, model_config, cfg.train, test_windows)
    cm = log.records[-1].test_confusion
    return accuracy(cm), weighted_f1(cm), cm, log, params


def run_louo(recordings, cfg):
    """Leave-one-user-out sweep over every target subject.

    A failure in one subject's pipeline records an error row and the sweep
    continues.  With an output dir, each completed subject leaves a marker
    file keyed by _result_key; with cfg.resume, a subject whose marker has
    this run's key is read back instead of trained, and any other is redone.
    """
    start_time = time.time()
    mode_spec = MODE_SPECS[cfg.mode]
    layout = mode_spec.layout(len(next(iter(recordings)).sensors))
    schema = mode_spec.schema(cfg.granularity, layout)
    model_config = ModelConfig(
        t=cfg.win_len,
        c=layout.num_channels,
        k=cfg.num_classes,
        n=schema.n,
        voting=mode_spec.voting,
        **cfg.model_overrides,
    )
    windows = build_windows(
        recordings,
        mode_spec.channels,
        cfg.win_len,
        cfg.stride,
        cfg.label_map,
        cfg.mahony,
    )
    subjects = list(cfg.target_subjects) or sorted({w.subject_id for w in windows})

    key = _result_key(cfg, model_config, windows) if cfg.output_dir else None
    rows = []
    for subject in subjects:
        marker = None
        if cfg.output_dir:
            marker = pathlib.Path(cfg.output_dir) / f"subject_{subject}.done.json"
            saved = json.loads(marker.read_text()) if cfg.resume and marker.exists() else {}
            if saved.get("key") == key:
                rows.append(
                    SubjectResult(
                        subject=subject,
                        accuracy=saved["accuracy"],
                        weighted_f1=saved["weighted_f1"],
                        confusion=np.asarray(saved["confusion"]),
                        log=None,
                    )
                )
                continue
        try:
            train_w, test_w = louo_split(windows, subject)
            acc, f1, cm, log, params = _evaluate_split(
                train_w, test_w, cfg, model_config, schema
            )
            rows.append(
                SubjectResult(
                    subject=subject, accuracy=acc, weighted_f1=f1,
                    confusion=cm, log=log, params=params,
                )
            )
            if marker is not None:
                marker.parent.mkdir(parents=True, exist_ok=True)
                _write_atomic(
                    marker,
                    json.dumps(
                        {"key": key, "accuracy": acc, "weighted_f1": f1,
                         "confusion": cm.tolist()}
                    ),
                )
        except FlowError as exc:
            rows.append(
                SubjectResult(
                    subject=subject, accuracy=None, weighted_f1=None,
                    confusion=None, log=None, error=str(exc),
                )
            )
    ok = [r for r in rows if r.error is None]
    avg_acc = float(np.mean([r.accuracy for r in ok])) if ok else float("nan")
    avg_f1 = float(np.mean([r.weighted_f1 for r in ok])) if ok else float("nan")
    return ExperimentReport(
        mode=cfg.mode,
        seed=cfg.train.seed,
        rows=rows,
        average_accuracy=avg_acc,
        average_f1=avg_f1,
        wall_time_s=time.time() - start_time,
        config_echo={
            "mode": cfg.mode,
            "granularity": cfg.granularity,
            "win_len": cfg.win_len,
            "stride": cfg.stride,
            "epochs": cfg.train.epochs,
            "batch_size": cfg.train.batch_size,
            "lr": cfg.train.lr,
            "seed": cfg.train.seed,
        },
        model_config=model_config,
    )


def emit_report(report, out_dir):
    """Write summary.json, one confusion CSV per subject, and per-epoch curve
    files suitable for external plotting."""
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    summary = {
        "mode": report.mode,
        "seed": report.seed,
        "average_accuracy": report.average_accuracy,
        "average_f1": report.average_f1,
        "wall_time_s": report.wall_time_s,
        "config": report.config_echo,
        "rows": [
            {
                "subject": r.subject,
                "accuracy": r.accuracy,
                "weighted_f1": r.weighted_f1,
                "error": r.error,
            }
            for r in report.rows
        ],
    }
    _write_atomic(out / "summary.json", json.dumps(summary, indent=2))
    written = [out / "summary.json"]
    for r in report.rows:
        if r.confusion is not None:
            path = out / f"confusion_{r.subject}.csv"
            np.savetxt(path, r.confusion, fmt="%d", delimiter=",")
            written.append(path)
        if r.log is not None:
            path = out / f"curves_{r.subject}.csv"
            with open(path, "w") as fh:
                fh.write("epoch,loss_mvf1,loss_mvf2,train_acc,test_acc,test_view_acc\n")
                for rec in r.log.records:
                    views = ";".join(f"{v:.6f}" for v in rec.test_view_accuracy)
                    test_acc = "" if rec.test_accuracy is None else f"{rec.test_accuracy:.6f}"
                    fh.write(
                        f"{rec.epoch},{rec.loss_mvf1:.6f},{rec.loss_mvf2:.6f},"
                        f"{rec.train_accuracy:.6f},{test_acc},{views}\n"
                    )
            written.append(path)
    return written


def load_summary(out_dir):
    return json.loads((pathlib.Path(out_dir) / "summary.json").read_text())
