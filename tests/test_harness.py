"""Experiment orchestration tests: LOUO sweeps, ablation arms, reports."""

import pathlib

import numpy as np
import pytest

from flowhar.dataset import Window
from flowhar.errors import ConfigError
from flowhar.harness import (
    MODE_SPECS,
    MODES,
    ExperimentConfig,
    emit_report,
    load_summary,
    run_louo,
)
from flowhar.model import ModelConfig, init_params
from flowhar.synth import SynthSpec, synth_population
from flowhar.trainer import TrainConfig, evaluate, fit, stack_windows
from flowhar.views import ViewSchema

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


class TestExperimentConfig:
    def test_unknown_mode(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(mode="bogus")


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

    def _fit(self, windows, epochs, lr, test_windows=None):
        cfg = ModelConfig(t=24, c=4, k=2, n=1, conv_layers=2, conv_kernel=3,
                          lstm_layers=1, voting=False, **TINY_MODEL)
        schema = ViewSchema(granularity="single", views=((0, 1, 2, 3),))
        tc = TrainConfig(epochs=epochs, batch_size=8, lr=lr, seed=0)
        params, log = fit(windows, schema, init_params(cfg, tc.seed), cfg, tc, test_windows)
        return cfg, params, log

    def test_toy_train_accuracy(self):
        windows = self._windows()
        test_windows = self._windows(b=6, seed=1)
        cfg, params, log = self._fit(windows, epochs=30, lr=1e-2, test_windows=test_windows)
        assert log.records[-1].train_accuracy >= 0.99
        assert len(log.records) == 30
        # no voting net: nothing to build, no phase 2
        assert not any(name.startswith("voting.") for name in params)
        assert all(r.loss_mvf2 == 0.0 for r in log.records)
        data, labels = stack_windows(test_windows, cfg.dtype)
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

    def test_failed_subject_isolated(self):
        recs = tiny_population()
        report = run_louo(recs, tiny_config(target_subjects=("u0", "nosuch")))
        by_subject = {r.subject: r for r in report.rows}
        assert by_subject["u0"].error is None
        assert by_subject["nosuch"].error is not None
        assert by_subject["nosuch"].accuracy is None
        # the average ignores the failed row
        assert report.average_accuracy == by_subject["u0"].accuracy

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("granularity", ("just_local", "small", "medium", "large"))
    def test_mode_granularity_coverage(self, mode, granularity):
        if mode != "flow" and granularity != "medium":
            pytest.skip("granularity only affects flow mode")
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
    ], ids=["seed", "epochs", "mode"])
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
