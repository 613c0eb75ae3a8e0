"""Experiment orchestration tests: LOUO sweeps, ablation arms, reports."""

import contextlib
import json
import math
import multiprocessing
import multiprocessing.connection
import os
import pathlib
import pickle
import signal
import time
import warnings

import numpy as np
import pytest

from flowhar import harness, trainer
from flowhar.dataset import Window
from flowhar.errors import ConfigError, InvalidInputError
from flowhar.harness import (
    MODE_SPECS,
    MODES,
    ExperimentConfig,
    SubjectResult,
    emit_report,
    load_summary,
    run_louo,
)
from flowhar.model import ModelConfig, init_params
from flowhar.synth import SynthSpec, synth_population
from flowhar.trainer import TrainConfig, evaluate, fit, stack_windows
from flowhar.views import GRANULARITIES, ViewSchema

TINY_MODEL = dict(conv_filters=2, lstm_hidden=4, voting_hidden=4)


def tiny_population(num_users=2, seed=11):
    acts = [
        SynthSpec(duration_s=6.0, rate_hz=30.0, label=0,
                  accel_noise_std=0.02, gyro_noise_std=0.01, mag_noise_std=0.01),
        SynthSpec(duration_s=6.0, rate_hz=30.0, label=1,
                  lin_acc_amp_ned=(2.0, 0.0, 0.0), lin_acc_freq_hz=2.0,
                  accel_noise_std=0.02, gyro_noise_std=0.01, mag_noise_std=0.01),
    ]
    return synth_population(num_users, acts, rng_seed=seed)


def tiny_config(mode="vG_only", **kwargs):
    defaults = dict(
        mode=mode,
        granularity="medium",
        win_len=32,
        stride=16,
        label_map={0: 0, 1: 1},
        num_classes=2,
        train=TrainConfig(epochs=1, batch_size=8, lr=1e-3, seed=3),
        model_overrides=TINY_MODEL,
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


def usable_cpus(monkeypatch, n):
    """Make run_louo see n usable CPUs: 1 trains every subject in this
    process, n > 1 starts one worker per share but the first (_shares)."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


class TestExperimentConfig:
    def test_unknown_mode(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(mode="bogus")

    @pytest.mark.parametrize("targets", [("u0", "u0"), ("u0", "u1", "u0")])
    def test_repeated_target_subject(self, targets):
        with pytest.raises(ConfigError, match="target_subjects repeats u0"):
            ExperimentConfig(target_subjects=targets)

    @pytest.mark.parametrize("warmup", [-1.0, math.nan, math.inf])
    def test_bad_warmup(self, warmup):
        with pytest.raises(ConfigError, match="warmup_seconds"):
            ExperimentConfig(warmup_seconds=warmup)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"granularity": "bogus"}, "granularity"),
            ({"win_len": 0}, "win_len"),
            ({"win_len": 32.0}, "win_len"),
            ({"win_len": True}, "win_len"),
            ({"stride": 0}, "stride"),
            ({"stride": -16}, "stride"),
            ({"stride": "16"}, "stride"),
            ({"label_map": {1: 5}, "num_classes": 4}, "label map"),
            ({"label_map": {0: 0, 1: -1}, "num_classes": 2}, "label map"),
            ({"label_map": {0: 0, 1: 2}, "num_classes": 2}, "label map"),
        ],
    )
    def test_bad_windowing_or_labels(self, kwargs, message):
        with pytest.raises(ConfigError, match=message):
            tiny_config(**kwargs)

    @pytest.mark.parametrize("key", ["t", "c", "k", "n", "voting", "bogus"])
    def test_model_override_not_settable(self, key):
        with pytest.raises(ConfigError, match=f"model_overrides cannot set {key};"):
            ExperimentConfig(model_overrides={key: 5})


class TestModeSpecs:
    @pytest.mark.parametrize("mode", MODES)
    def test_layout_schema_and_head(self, mode):
        spec = MODE_SPECS[mode]
        layout = spec.layout(num_sensors=2)
        schema = spec.schema("medium", layout)
        assert layout.num_channels == {"local": 18, "global": 26, "concat": 44}[spec.channels]
        if spec.voting:
            assert schema.n == 4  # medium: local + global block per sensor
        else:
            assert schema.views == (tuple(range(layout.num_channels)),)

    def test_report_carries_model_config(self):
        report = run_louo(tiny_population(), tiny_config(target_subjects=("u0",)))
        cfg = report.model_config
        assert (cfg.n, cfg.voting, cfg.c, cfg.t, cfg.k) == (1, False, 13, 32, 2)


class TestRunBaseline:
    """Single-view baselines: fit with no voting net and one all-channel view."""

    def _windows(self, b=12, t=24, c=4, k=2, seed=0):
        rng = np.random.default_rng(seed)
        out = []
        for i in range(b):
            label = i % k
            data = (2.0 * label - 1.0) + 0.05 * rng.normal(size=(t, c))
            out.append(Window(data=data, label=label, subject_id="s"))
        return out

    def _fit(self, windows, epochs, lr, test=None):
        cfg = ModelConfig(t=24, c=4, k=2, n=1, conv_layers=2, conv_kernel=3,
                          lstm_layers=1, voting=False, **TINY_MODEL)
        schema = ViewSchema(views=((0, 1, 2, 3),))
        tc = TrainConfig(epochs=epochs, batch_size=8, lr=lr, seed=0)
        params = init_params(cfg, tc.seed)
        log = fit(*stack_windows(windows, cfg.dtype), schema, params, cfg, tc, test)
        return cfg, params, log

    def test_toy_train_accuracy(self):
        windows = self._windows()
        data, labels = stack_windows(self._windows(b=6, seed=1), "float32")
        cfg, params, log = self._fit(windows, epochs=30, lr=1e-2, test=(data, labels))
        assert log.records[-1].train_accuracy >= 0.99
        assert len(log.records) == 30
        # no voting net: nothing to build, no phase 2
        assert not any(name.startswith("voting.") for name in params)
        assert all(r.loss_mvf2 == 0.0 for r in log.records)
        acc, _, cm = evaluate(data, labels, params, cfg)
        assert acc == log.records[-1].test_accuracy >= 0.99
        assert np.array_equal(cm, log.records[-1].test_confusion)

    def test_determinism(self):
        windows = self._windows()
        _, p1, l1 = self._fit(windows, epochs=2, lr=1e-3)
        _, p2, l2 = self._fit(windows, epochs=2, lr=1e-3)
        for name in p1:
            assert np.array_equal(p1[name].data, p2[name].data)
        assert [r.loss_mvf1 for r in l1.records] == [r.loss_mvf1 for r in l2.records]


class TestRunLouo:
    def test_row_count_and_average(self):
        recs = tiny_population(num_users=3)
        report = run_louo(recs, tiny_config())
        assert len(report.rows) == 3
        accs = [r.accuracy for r in report.rows]
        assert abs(report.average_accuracy - np.mean(accs)) < 1e-12
        f1s = [r.weighted_f1 for r in report.rows]
        assert abs(report.average_f1 - np.mean(f1s)) < 1e-12

    def test_determinism(self):
        recs = tiny_population()
        a = run_louo(recs, tiny_config())
        b = run_louo(recs, tiny_config())
        assert [r.accuracy for r in a.rows] == [r.accuracy for r in b.rows]
        assert [r.weighted_f1 for r in a.rows] == [r.weighted_f1 for r in b.rows]

    def test_fit_scores_only_the_test_set(self, monkeypatch):
        # Train accuracy comes from the steps, so fit evaluates once per epoch
        # on the held-out subject and never on the training set.
        real = trainer.evaluate
        calls = []

        def counting(data, labels, params, config):
            calls.append(len(labels))
            return real(data, labels, params, config)

        monkeypatch.setattr(trainer, "evaluate", counting)
        usable_cpus(monkeypatch, 1)  # a worker's evaluate calls are not seen here
        train = TrainConfig(epochs=2, batch_size=8, lr=1e-3, seed=3)
        report = run_louo(tiny_population(num_users=3), tiny_config(train=train))
        held_out = [int(rec.test_confusion.sum()) for row in report.rows
                    for rec in row.log.records]
        assert len(held_out) == 3 * 2 and calls == held_out
        calls.clear()
        _, _, log = TestRunBaseline()._fit(TestRunBaseline()._windows(), epochs=2, lr=1e-3)
        assert calls == [] and len(log.records) == 2

    def test_bad_model_dtype_is_config_error(self):
        with pytest.raises(ConfigError, match="dtype must be float32 or float64, not 'banana'"):
            run_louo(tiny_population(), tiny_config(model_overrides={"dtype": "banana"}))

    def test_no_recordings_is_invalid_input(self):
        with pytest.raises(InvalidInputError, match="no recordings"):
            run_louo([], tiny_config())

    def test_failed_subject_isolated(self):
        recs = tiny_population()
        report = run_louo(recs, tiny_config(target_subjects=("u0", "nosuch")))
        by_subject = {r.subject: r for r in report.rows}
        assert by_subject["u0"].error is None
        assert by_subject["nosuch"].error is not None
        assert by_subject["nosuch"].accuracy is None
        # the average ignores the failed row
        assert report.average_accuracy == by_subject["u0"].accuracy

    # Granularity only affects flow mode; the other modes run at the default.
    @pytest.mark.parametrize("granularity, mode", [
        *((granularity, "flow") for granularity in GRANULARITIES),
        *(("medium", mode) for mode in MODES if mode != "flow"),
    ])
    def test_mode_granularity_coverage(self, granularity, mode):
        recs = tiny_population()
        cfg = tiny_config(mode=mode, granularity=granularity,
                          target_subjects=("u0",))
        report = run_louo(recs, cfg)
        assert report.rows[0].error is None
        assert 0.0 <= report.rows[0].accuracy <= 1.0

    def test_flow_just_local_runs(self):
        # just_local granularity in flow mode uses only the local blocks as
        # views even though the concat layout carries global channels too.
        recs = tiny_population()
        cfg = tiny_config(mode="flow", granularity="just_local",
                          target_subjects=("u0",))
        report = run_louo(recs, cfg)
        assert report.rows[0].error is None

    def test_resume_markers(self, tmp_path):
        recs = tiny_population()
        out = tmp_path / "sweep"
        cfg = tiny_config(output_dir=str(out))
        first = run_louo(recs, cfg)
        markers = sorted(p.name for p in out.glob("subject_*.done.json"))
        assert markers == ["subject_u0.done.json", "subject_u1.done.json"]
        resumed = run_louo(recs, tiny_config(output_dir=str(out), resume=True))
        assert [r.accuracy for r in resumed.rows] == [r.accuracy for r in first.rows]
        # resumed rows come from markers: no training logs attached
        assert all(r.log is None for r in resumed.rows)

    @pytest.mark.parametrize("change", [
        dict(train=TrainConfig(epochs=1, batch_size=8, lr=1e-3, seed=4)),
        dict(train=TrainConfig(epochs=2, batch_size=8, lr=1e-3, seed=3)),
        dict(mode="vL_only"),
        dict(warmup_seconds=2.0),
        dict(model_overrides=dict(TINY_MODEL, lstm_hidden=5)),
    ], ids=["seed", "epochs", "mode", "mahony", "model_overrides"])
    def test_resume_redoes_markers_of_another_config(self, tmp_path, change):
        recs = tiny_population()
        out = tmp_path / "sweep"
        run_louo(recs, tiny_config(output_dir=str(out)))
        resumed = run_louo(recs, tiny_config(output_dir=str(out), resume=True, **change))
        assert all(r.log is not None for r in resumed.rows)  # trained, not read back
        fresh = run_louo(recs, tiny_config(**change))
        assert [r.accuracy for r in resumed.rows] == [r.accuracy for r in fresh.rows]
        # the redone markers now carry this config's key
        again = run_louo(recs, tiny_config(output_dir=str(out), resume=True, **change))
        assert all(r.log is None for r in again.rows)

    def test_resume_redoes_markers_of_other_data(self, tmp_path):
        out = tmp_path / "sweep"
        run_louo(tiny_population(seed=11), tiny_config(output_dir=str(out)))
        resumed = run_louo(tiny_population(seed=12),
                           tiny_config(output_dir=str(out), resume=True))
        assert all(r.log is not None for r in resumed.rows)

    @pytest.mark.parametrize("damage", [
        "not_json", "not_object", "accuracy", "weighted_f1", "confusion",
    ])
    def test_resume_redoes_unusable_markers(self, tmp_path, damage):
        recs = tiny_population()
        out = tmp_path / "sweep"
        first = run_louo(recs, tiny_config(output_dir=str(out)))
        marker = out / "subject_u0.done.json"
        saved = json.loads(marker.read_text())
        if damage == "not_json":
            marker.write_text(marker.read_text()[:-1])
        elif damage == "not_object":
            marker.write_text("[1, 2]")
        else:  # this run's key, one field missing
            marker.write_text(json.dumps({k: v for k, v in saved.items() if k != damage}))
        resumed = run_louo(recs, tiny_config(output_dir=str(out), resume=True))
        assert resumed.rows[0].log is not None  # trained again
        assert resumed.rows[1].log is None  # its marker is whole
        assert [r.accuracy for r in resumed.rows] == [r.accuracy for r in first.rows]
        assert json.loads(marker.read_text()) == saved


@contextlib.contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the main thread after `seconds`, so a sweep that
    hangs on a worker fails its test instead of stalling the suite."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


# Stand-ins for harness._worker.  A spawned process finds them by importing
# this module, so they live at module level.

def _env_worker(conn, subjects, *share):
    """Send each subject an error row whose text is the worker's BLAS
    thread variables."""
    env = json.dumps({name: os.environ.get(name) for name in harness._WORKER_ENV})
    with conn:
        conn.recv_bytes()  # the windows
        for subject in subjects:
            conn.send((SubjectResult(subject, error=env), []))


def _raising_worker(conn, subjects, *share):
    """The real worker, with a fit that raises something other than a
    FlowError."""
    def broken(*args, **kwargs):
        raise ZeroDivisionError("broken fit")

    harness.fit = broken
    harness._worker(conn, subjects, *share)


def _warning_worker(conn, subjects, *share):
    """The real worker, with a share that warns before each row."""
    def warn_then_fail_rows(subjects, *share):
        for subject in subjects:
            warnings.warn("overflow in a worker", RuntimeWarning)
            yield SubjectResult(subject, error="not trained")

    harness._train_subjects = warn_then_fail_rows
    harness._worker(conn, subjects, *share)


def _blocked_worker(conn, subjects, *share):
    """Block in send: far more than a pipe holds, to a parent that reads
    only after its own share."""
    conn.recv_bytes()  # the windows
    conn.send(bytes(1 << 24))


def _fit_spy(monkeypatch, before=None):
    """Patch harness.fit in this process, not in workers, to call before()
    first; return the list of held-out label counts it was called with."""
    calls = []

    def spy(data, labels, *args, test=None):
        calls.append(len(test[1]))
        if before is not None:
            before()
        return fit(data, labels, *args, test=test)

    monkeypatch.setattr(harness, "fit", spy)
    return calls


def _fail():
    raise ValueError("fit failed in the parent")


def _wait_for_workers_to_exit():
    while multiprocessing.active_children():
        time.sleep(0.01)


class TestShares:
    @pytest.mark.parametrize("n, cpus, expected", [
        (3, 2, [[0], [1], [2]]),
        (4, 2, [[0, 2], [1, 3]]),
        (5, 2, [[0, 2], [1, 3], [4]]),
        (9, 4, [[0, 4], [1, 5], [2, 6], [3, 7], [8]]),
        (5, 1, [[0, 1, 2, 3, 4]]),
        (1, 4, [[0]]),
        (2, 3, [[0], [1]]),
        (0, 2, []),
    ])
    def test_table(self, n, cpus, expected):
        todo = [10 + i for i in range(n)]  # indices left to train need not start at 0
        shares = harness._shares(todo, cpus)
        assert shares == [[10 + i for i in share] for share in expected]
        assert sorted(i for share in shares for i in share) == todo
        assert len(shares) <= 2 * cpus - 1
        assert all(len(share) <= -(-n // cpus) for share in shares)
        if n:
            assert shares[0][0] == todo[0]
        if n <= cpus:  # one subject per process, as in a plain round-robin
            assert shares == [todo[k::n] for k in range(n)]


class TestParallelLouo:
    """run_louo trains the first of _shares(subjects to train, usable CPUs)
    itself and each other share in a spawned worker."""

    def _run(self, monkeypatch, cpus, out, before=None, num_users=3, **kwargs):
        usable_cpus(monkeypatch, cpus)
        fits = _fit_spy(monkeypatch, before)
        train = TrainConfig(epochs=2, batch_size=8, lr=1e-3, seed=3)
        with time_limit(120):
            report = run_louo(tiny_population(num_users=num_users),
                              tiny_config(mode="flow", train=train, output_dir=str(out), **kwargs))
        assert multiprocessing.active_children() == []
        return report, fits

    def test_processes_equal_one_cpu(self, tmp_path, monkeypatch):
        par, par_fits = self._run(monkeypatch, 2, tmp_path / "par")
        one, one_fits = self._run(monkeypatch, 1, tmp_path / "one")
        # One subject trained here and one in each of two workers; with one
        # CPU, all here.
        assert len(par_fits) == 1 and len(one_fits) == 3
        assert [r.subject for r in par.rows] == [r.subject for r in one.rows] == ["u0", "u1", "u2"]
        for a, b in zip(par.rows, one.rows):
            assert (a.accuracy, a.weighted_f1, a.error) == (b.accuracy, b.weighted_f1, b.error)
            assert np.array_equal(a.confusion, b.confusion)
            assert pickle.dumps(a.log) == pickle.dumps(b.log)
            assert a.params.keys() == b.params.keys()
            for name in a.params:
                assert a.params[name].data.dtype == b.params[name].data.dtype
                assert np.array_equal(a.params[name].data, b.params[name].data)
        for name in ("subject_u0.done.json", "subject_u1.done.json", "subject_u2.done.json"):
            assert (tmp_path / "par" / name).read_bytes() == (tmp_path / "one" / name).read_bytes()

    def test_uneven_shares_equal_one_cpu(self, tmp_path, monkeypatch):
        started = []
        start = harness._start_workers

        def recording_start(shares, *args):
            started.extend(shares)
            return start(shares, *args)

        monkeypatch.setattr(harness, "_start_workers", recording_start)
        par, par_fits = self._run(monkeypatch, 2, tmp_path / "par", num_users=5)
        # Shares [[0, 2], [1, 3], [4]]: u0 and u2 here, the rest in two workers.
        assert started == [[1, 3], [4]] and len(par_fits) == 2
        one, one_fits = self._run(monkeypatch, 1, tmp_path / "one", num_users=5)
        assert started == [[1, 3], [4]] and len(one_fits) == 5  # no worker on one CPU
        assert par_fits == one_fits[0:3:2]
        subjects = ["u0", "u1", "u2", "u3", "u4"]
        assert [r.subject for r in par.rows] == [r.subject for r in one.rows] == subjects
        for a, b in zip(par.rows, one.rows):
            assert (a.accuracy, a.weighted_f1, a.error) == (b.accuracy, b.weighted_f1, b.error)
            assert np.array_equal(a.confusion, b.confusion)
            assert pickle.dumps(a.log) == pickle.dumps(b.log)
            assert a.params.keys() == b.params.keys()
            for name in a.params:
                assert a.params[name].data.dtype == b.params[name].data.dtype
                assert np.array_equal(a.params[name].data, b.params[name].data)
        for subject in subjects:
            name = f"subject_{subject}.done.json"
            assert (tmp_path / "par" / name).read_bytes() == (tmp_path / "one" / name).read_bytes()

    def test_every_worker_started_before_windows_are_sent(self, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "_worker", _env_worker)
        running = []
        send_bytes = multiprocessing.connection.Connection.send_bytes

        def counting_send_bytes(conn, *args, **kwargs):
            running.append(len(multiprocessing.active_children()))
            return send_bytes(conn, *args, **kwargs)

        monkeypatch.setattr(multiprocessing.connection.Connection, "send_bytes",
                            counting_send_bytes)
        self._run(monkeypatch, 2, tmp_path / "sweep")
        assert running == [2, 2]

    def test_resumed_subjects_are_not_shared_out(self, tmp_path, monkeypatch):
        self._run(monkeypatch, 1, tmp_path / "sweep")
        (tmp_path / "sweep" / "subject_u1.done.json").unlink()
        report, fits = self._run(monkeypatch, 2, tmp_path / "sweep", resume=True)
        # One subject to train: w = 1, so no worker, and the rest read back.
        assert len(fits) == 1 and [r.log is None for r in report.rows] == [True, False, True]

    def test_error_row_from_worker(self, tmp_path, monkeypatch):
        # The worker sends its row and exits while u0 trains here: its pipe
        # then reads as ready (EOF) with nothing left to receive.
        report, fits = self._run(monkeypatch, 2, tmp_path / "sweep",
                                 before=_wait_for_workers_to_exit,
                                 target_subjects=("u0", "nosuch"))
        assert len(fits) == 1
        assert report.rows[0].error is None
        assert report.rows[1].error == "no windows for target subject 'nosuch'"

    def test_worker_blas_on_one_thread(self, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "_worker", _env_worker)
        before = {name: os.environ.get(name) for name in harness._WORKER_ENV}
        report, _ = self._run(monkeypatch, 2, tmp_path / "sweep")
        assert json.loads(report.rows[1].error) == dict.fromkeys(harness._WORKER_ENV, "1")
        assert {name: os.environ.get(name) for name in harness._WORKER_ENV} == before

    def test_worker_exception_raises(self, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "_worker", _raising_worker)
        with pytest.raises(RuntimeError, match="ZeroDivisionError: broken fit"):
            self._run(monkeypatch, 2, tmp_path / "sweep")
        assert multiprocessing.active_children() == []
        # u0, trained here, was marked before the worker's failure arrived.
        marked = {p.name for p in (tmp_path / "sweep").iterdir()}
        assert "subject_u0.done.json" in marked and "subject_u1.done.json" not in marked

    def test_parent_exception_stops_blocked_worker(self, tmp_path, monkeypatch):
        usable_cpus(monkeypatch, 2)
        _fit_spy(monkeypatch, _fail)
        monkeypatch.setattr(harness, "_worker", _blocked_worker)
        with time_limit(60), pytest.raises(ValueError, match="fit failed in the parent"):
            run_louo(tiny_population(num_users=3), tiny_config())
        assert multiprocessing.active_children() == []

    def test_worker_warnings_reach_the_parent(self, tmp_path, monkeypatch):
        # pytest turns RuntimeWarning into an error here, as in the serial sweep.
        monkeypatch.setattr(harness, "_worker", _warning_worker)
        with pytest.raises(RuntimeWarning, match="overflow in a worker"):
            self._run(monkeypatch, 2, tmp_path / "sweep")
        assert multiprocessing.active_children() == []


class _Killed(BaseException):
    """Stands in for the process dying mid-write."""


def _kill_write_of(monkeypatch, name_part):
    """Make Path.write_text die halfway through any file whose name contains
    name_part, leaving the first half of the text on disk."""
    real = pathlib.Path.write_text

    def write_text(self, data, *args, **kwargs):
        if name_part not in self.name:
            return real(self, data, *args, **kwargs)
        real(self, data[: len(data) // 2], *args, **kwargs)
        raise _Killed

    monkeypatch.setattr(pathlib.Path, "write_text", write_text)


class TestAtomicWrites:
    def test_killed_marker_write_leaves_no_marker(self, tmp_path, monkeypatch):
        recs = tiny_population()
        out = tmp_path / "sweep"
        fresh = run_louo(recs, tiny_config())
        with monkeypatch.context() as m:
            _kill_write_of(m, "subject_u1")
            with pytest.raises(_Killed):
                run_louo(recs, tiny_config(output_dir=str(out)))
        assert [p.name for p in out.iterdir()] == ["subject_u0.done.json"]
        resumed = run_louo(recs, tiny_config(output_dir=str(out), resume=True))
        assert resumed.rows[0].log is None  # from the complete marker
        assert resumed.rows[1].log is not None  # redone
        assert [r.accuracy for r in resumed.rows] == [r.accuracy for r in fresh.rows]

    def test_killed_summary_write_keeps_previous(self, tmp_path, monkeypatch):
        report = run_louo(tiny_population(), tiny_config())
        out = tmp_path / "report"
        emit_report(report, out)
        before = load_summary(out)
        with monkeypatch.context() as m:
            _kill_write_of(m, "summary")
            with pytest.raises(_Killed):
                emit_report(report, out)
        assert load_summary(out) == before
        assert not list(out.glob("*.tmp"))


class TestEmitReport:
    def test_files_and_round_trip(self, tmp_path):
        recs = tiny_population(num_users=3)
        report = run_louo(recs, tiny_config())
        out = tmp_path / "report"
        written = emit_report(report, out)
        names = sorted(p.name for p in out.iterdir())
        assert "summary.json" in names
        assert sum(n.startswith("confusion_") for n in names) == 3
        assert sum(n.startswith("curves_") for n in names) == 3
        summary = load_summary(out)
        assert summary["average_accuracy"] == report.average_accuracy
        assert summary["average_f1"] == report.average_f1
        assert [row["accuracy"] for row in summary["rows"]] == [
            r.accuracy for r in report.rows
        ]

    def test_summary_config_is_run_settings(self, tmp_path):
        cfg = tiny_config(target_subjects=("u0",), output_dir=str(tmp_path / "sweep"))
        report = run_louo(tiny_population(), cfg)
        emit_report(report, tmp_path / "report")
        summary = load_summary(tmp_path / "report")
        assert (summary["mode"], summary["seed"]) == ("vG_only", 3)
        config = summary["config"]
        assert not {"target_subjects", "output_dir", "resume"} & set(config)
        assert config["train"] == {"epochs": 1, "batch_size": 8, "lr": 1e-3, "seed": 3}
        assert config["warmup_seconds"] == 1.0
        assert config["model_overrides"] == TINY_MODEL
        assert config["model"]["lstm_hidden"] == 4 and config["model"]["n"] == 1

    def test_curve_rows_per_epoch(self, tmp_path):
        recs = tiny_population()
        cfg = tiny_config(train=TrainConfig(epochs=3, batch_size=8, lr=1e-3, seed=3))
        report = run_louo(recs, cfg)
        out = tmp_path / "report"
        emit_report(report, out)
        curve = (out / "curves_u0.csv").read_text().strip().splitlines()
        assert curve[0].startswith("epoch,loss_mvf1,loss_mvf2")
        assert len(curve) == 1 + 3  # header + one record per epoch

    def test_confusion_csv_parses(self, tmp_path):
        recs = tiny_population()
        report = run_louo(recs, tiny_config())
        out = tmp_path / "report"
        emit_report(report, out)
        cm = np.loadtxt(out / "confusion_u0.csv", delimiter=",")
        assert cm.shape == (2, 2)
        assert cm.sum() == report.rows[0].confusion.sum()
