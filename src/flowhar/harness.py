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
import traceback
import warnings
from collections import Counter
from dataclasses import asdict, dataclass, field

import numpy as np

from .attitude import MahonyParams
from .dataset import build_windows
from .errors import ConfigError, FlowError, InvalidInputError
from .metrics import accuracy, weighted_f1
from .model import ModelConfig, init_params
from .trainer import TrainConfig, TrainLog, fit, stack_windows
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
    warmup_seconds: float = 1.0  # M&C warm-up trimmed from each recording
    model_overrides: dict = field(default_factory=dict)  # ModelConfig kwargs
    output_dir: str | None = None
    resume: bool = False

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}")
        # A repeat would train its subject twice and write its marker twice.
        repeated = [s for s, n in Counter(self.target_subjects).items() if n > 1]
        if repeated:
            raise ConfigError(f"target_subjects repeats {', '.join(map(str, repeated))}")
        MahonyParams(warmup_seconds=self.warmup_seconds)  # ConfigError for a bad warm-up


@dataclass
class SubjectResult:
    """One subject's outcome.  A row read back from a resume marker has no
    log or params; an error row has only the error."""

    subject: str
    accuracy: float | None = None
    weighted_f1: float | None = None
    confusion: np.ndarray | None = None
    log: TrainLog | None = None
    error: str | None = None
    params: dict | None = None


@dataclass
class ExperimentReport:
    config: ExperimentConfig
    rows: list
    average_accuracy: float
    average_f1: float
    wall_time_s: float
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


def _run_settings(cfg, model_config):
    """Every setting that decides a subject's result: the experiment config
    but for target_subjects, output_dir and resume, plus the model config
    under "model".  A field added to ExperimentConfig is included."""
    settings = asdict(cfg)
    for name in ("target_subjects", "output_dir", "resume"):
        del settings[name]
    settings["model"] = asdict(model_config)
    return settings


def _result_key(cfg, model_config, windows):
    """sha256 of _run_settings and the built windows' data, labels and
    subjects."""
    h = hashlib.sha256(json.dumps(_run_settings(cfg, model_config), sort_keys=True).encode())
    for w in windows:
        h.update(np.ascontiguousarray(w.data).tobytes())
    h.update(np.array([w.label for w in windows], dtype=np.int64).tobytes())
    h.update(json.dumps([w.subject_id for w in windows]).encode())
    return h.hexdigest()


def _saved_result(marker, subject, key):
    """The row a resume marker with this run's key holds, else None: a
    missing or unusable marker, or another run's, means training again."""
    try:
        saved = json.loads(marker.read_text())
        if saved["key"] == key:
            return SubjectResult(subject, saved["accuracy"], saved["weighted_f1"],
                                 np.asarray(saved["confusion"]))
    # not there, not JSON, not an object, or a field missing
    except (FileNotFoundError, ValueError, TypeError, KeyError):
        pass
    return None


# A worker's BLAS reads these once, when NumPy loads it, so they are set in
# the environment a worker starts with: one thread each keeps the workers
# from contending for the CPUs they share.
_WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _train_subjects(subjects, data, labels, subject_ids, schema, model_config, train_config):
    """Hold out each subject in turn and yield its SubjectResult: trained on
    every other subject's windows and scored on its own.  A FlowError in one
    subject gives an error row and the next subject is trained."""
    for subject in subjects:
        test = subject_ids == str(subject)
        try:
            if not test.any():
                raise InvalidInputError(f"no windows for target subject {str(subject)!r}")
            params = init_params(model_config, train_config.seed)
            log = fit(data[~test], labels[~test], schema, params, model_config, train_config,
                      test=(data[test], labels[test]))
        except FlowError as exc:
            yield SubjectResult(subject, error=str(exc))
            continue
        cm = log.records[-1].test_confusion
        yield SubjectResult(subject, accuracy(cm), weighted_f1(cm), cm, log, params=params)


def _worker(conn, subjects, shape, dtype, *share):
    """A spawned worker.  It reads the stacked windows from conn as raw
    bytes, then sends (row, warnings) for each of its subjects as it is
    trained, or, if its share raises, the traceback text.  The warnings are
    issued again by the parent, under the parent's filters."""
    with conn, warnings.catch_warnings(record=True) as seen:
        data = np.frombuffer(conn.recv_bytes(), dtype).reshape(shape)
        try:
            for row in _train_subjects(subjects, data, *share):
                conn.send((row, [(w.message, w.filename, w.lineno) for w in seen]))
                seen.clear()
        except Exception:
            conn.send(traceback.format_exc())


def _receive(conn):
    """The next row a worker sent; its warnings are issued here.  A worker
    that failed or died raises."""
    try:
        msg = conn.recv()
    except EOFError:
        raise RuntimeError("a LOUO worker exited before sending all its subjects") from None
    if isinstance(msg, str):
        raise RuntimeError(f"a LOUO worker raised:\n{msg}")
    row, warned = msg
    for message, filename, lineno in warned:
        warnings.warn_explicit(message, type(message), filename, lineno)
    return row


def _shares(todo, cpus):
    """Split the subject indices todo into shares, one per process, so that
    the processes finish together on `cpus` CPUs shared fairly.  With q, r =
    divmod(len(todo), cpus), the first len(todo) - r go round-robin into
    cpus shares of q, and each of the last r gets a share of its own: at
    most 2 * cpus - 1 shares, none longer than ceil(len(todo) / cpus), and
    the first holds todo[0].  [] for no subjects."""
    head = len(todo) - len(todo) % cpus
    return [todo[k:head:cpus] for k in range(min(cpus, head))] + [[i] for i in todo[head:]]


def _start_workers(shares, subjects, data, share):
    """One spawned process per share of subject indices, as (process, end of
    its pipe, indices still to receive); [] for no shares.  The processes are
    started, and their arguments pickled, in the calling thread, with
    _WORKER_ENV set in the environment they inherit.  Every process is
    started before any is sent the windows: a send waits for its worker to
    import NumPy and flowhar, and so those imports run side by side.  The
    windows go over the pipe straight from data's buffer: pickled with the
    arguments they would cost this process a transient copy or two of
    themselves.  Each worker then holds a copy of them."""
    if not shares:
        return []
    # Imported here: its dozen modules cost about 1 MB in every process that
    # imports flowhar, and only a parallel sweep needs them.
    import multiprocessing

    ctx = multiprocessing.get_context("spawn")
    saved = {name: os.environ.get(name) for name in _WORKER_ENV}
    os.environ.update(_WORKER_ENV)
    workers = []
    try:
        for indices in shares:
            conn, child_conn = ctx.Pipe()
            proc = ctx.Process(target=_worker, daemon=True, args=(
                child_conn, [subjects[i] for i in indices], data.shape, data.dtype, *share))
            proc.start()
            child_conn.close()  # the worker holds it now; EOF here means it died
            workers.append((proc, conn, list(indices)))
        for _, conn, _ in workers:
            conn.send_bytes(data)
    except BaseException:
        _stop_workers(workers)
        raise
    finally:
        for name, value in saved.items():
            if value is None:
                del os.environ[name]
            else:
                os.environ[name] = value
    return workers


def _stop_workers(workers):
    """Terminate and join every worker.  One that sent all its rows is
    exiting anyway; one still training, or blocked sending to a parent that
    raised, would otherwise outlive the sweep or hang a join."""
    for proc, conn, _ in workers:
        proc.terminate()
        proc.join()
        conn.close()


def _marker(cfg, subject):
    return pathlib.Path(cfg.output_dir) / f"subject_{subject}.done.json"


def run_louo(recordings, cfg):
    """Leave-one-user-out sweep over every target subject.

    A failure in one subject's pipeline records an error row and the sweep
    continues.  With an output dir, each completed subject leaves a marker
    file keyed by _result_key; with cfg.resume, a subject whose marker has
    this run's key is read back instead of trained, and any other is redone.

    The subjects to train are split by _shares over the usable CPUs.  This
    process trains the first share, the one holding the first subject, and
    one spawned process trains each other share.  With n subjects on c
    CPUs, the round-robin shares of n // c run beside one process for each
    of the n % c left over: at most 2c - 1 processes in all, and with one
    CPU no worker.  Each worker holds its own copy of the windows.  Rows,
    logs and params are the same bit for bit, and the rows come back in
    subject order.  Only this process writes markers.  Workers are spawned,
    so a script that calls run_louo needs the usual
    `if __name__ == "__main__":` guard.
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
        MahonyParams(warmup_seconds=cfg.warmup_seconds),
    )
    subjects = list(cfg.target_subjects) or sorted({w.subject_id for w in windows})
    key = _result_key(cfg, model_config, windows) if cfg.output_dir else None
    subject_ids = np.array([w.subject_id for w in windows], dtype=str)
    data, labels = stack_windows(windows, model_config.dtype)
    del windows  # the stack holds the data from here on

    rows = [None] * len(subjects)
    if cfg.output_dir and cfg.resume:
        rows = [_saved_result(_marker(cfg, subject), subject, key) for subject in subjects]
    todo = [i for i, row in enumerate(rows) if row is None]

    def finish(i, row):
        rows[i] = row
        if cfg.output_dir and row.error is None:
            marker = _marker(cfg, row.subject)
            marker.parent.mkdir(parents=True, exist_ok=True)
            _write_atomic(marker, json.dumps({
                "key": key, "accuracy": row.accuracy, "weighted_f1": row.weighted_f1,
                "confusion": row.confusion.tolist(),
            }))

    mine, *others = _shares(todo, _usable_cpus()) or [[]]
    share = (labels, subject_ids, schema, model_config, cfg.train)
    workers = _start_workers(others, subjects, data, share)
    try:
        for i, row in zip(mine, _train_subjects([subjects[i] for i in mine], data, *share)):
            finish(i, row)
            for _, conn, pending in workers:  # take what has arrived meanwhile
                while pending and conn.poll():
                    finish(pending.pop(0), _receive(conn))
        for _, conn, pending in workers:
            while pending:
                finish(pending.pop(0), _receive(conn))
    finally:
        _stop_workers(workers)
    ok = [r for r in rows if r.error is None]
    avg_acc = float(np.mean([r.accuracy for r in ok])) if ok else float("nan")
    avg_f1 = float(np.mean([r.weighted_f1 for r in ok])) if ok else float("nan")
    return ExperimentReport(
        config=cfg,
        rows=rows,
        average_accuracy=avg_acc,
        average_f1=avg_f1,
        wall_time_s=time.time() - start_time,
        model_config=model_config,
    )


def emit_report(report, out_dir):
    """Write summary.json, one confusion CSV per subject, and per-epoch curve
    files suitable for external plotting."""
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    summary = {
        "mode": report.config.mode,
        "seed": report.config.train.seed,
        "average_accuracy": report.average_accuracy,
        "average_f1": report.average_f1,
        "wall_time_s": report.wall_time_s,
        "config": _run_settings(report.config, report.model_config),
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
