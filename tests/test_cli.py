"""End-to-end command line tests driven through flowhar.cli.main."""

import pathlib
import shlex

import numpy as np
import pytest

from flowhar.cli import main
from flowhar.attitude import G0
from flowhar.harness import MODES
from flowhar.model import ModelConfig, init_params, save_checkpoint

from conftest import BAD_CHECKPOINTS, write_bad_checkpoint

SPEC_TEXT = """\
name = synthcli
native_rate_hz = 30
decimate = 1
gyro_unit = rad/s
label_col = 0
subject = filename:subj(\\d+)
num_classes = 2

sensor.imu0 = 1,2,3; 4,5,6; 7,8,9

label.0 = 0
label.1 = 1
"""


def synth(out_path, label, seed, extra=()):
    args = [
        "synth", "--duration", "6", "--rate", "30",
        "--seed", str(seed), "--label", str(label),
        "--accel-noise", "0.02", "--gyro-noise", "0.005", "--mag-noise", "0.005",
        "--output", str(out_path),
    ]
    if label == 1:
        args += ["--accel-down", "3.0", "--accel-freq", "2"]
    args += list(extra)
    assert main(args) == 0
    return str(out_path) + ".rec"


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """A spec file plus two activities for each of two subjects."""
    root = tmp_path_factory.mktemp("clidata")
    spec = root / "synth.spec"
    spec.write_text(SPEC_TEXT)
    files = []
    for u in range(2):
        for label in (0, 1):
            out = root / f"subj{u}_act{label}"
            extra = ["--mounting-angle-deg", str(40.0 * u), "--mounting-axis", "1,1,0"]
            files.append(synth(out, label, seed=10 * u + label, extra=extra))
    return spec, files


class TestSynth:
    def test_writes_rec_and_truth(self, tmp_path, capsys):
        out = tmp_path / "one"
        assert main(["synth", "--duration", "2", "--rate", "30",
                     "--output", str(out)]) == 0
        rec = (out.with_suffix(".rec")).read_text().splitlines()
        truth = (out.with_suffix(".truth")).read_text().splitlines()
        assert rec[0].startswith("#") and truth[0].startswith("#")
        assert len(rec) - 1 == 60 and len(truth) - 1 == 60
        quats = np.loadtxt(str(out) + ".truth")
        assert np.allclose(np.linalg.norm(quats, axis=1), 1.0, atol=1e-9)

    def test_config_file_and_flag_precedence(self, tmp_path):
        cfg = tmp_path / "synth.cfg"
        cfg.write_text("duration = 4\nrate = 30\n")
        out_a = tmp_path / "a"
        assert main(["synth", "--config", str(cfg), "--output", str(out_a)]) == 0
        assert len((out_a.with_suffix(".rec")).read_text().splitlines()) - 1 == 120
        out_b = tmp_path / "b"
        # explicit flag beats the config file value
        assert main(["synth", "--config", str(cfg), "--duration", "2",
                     "--output", str(out_b)]) == 0
        assert len((out_b.with_suffix(".rec")).read_text().splitlines()) - 1 == 60

    def test_bad_config_line_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("duration 4\n")
        assert main(["synth", "--config", str(cfg),
                     "--output", str(tmp_path / "x")]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("axis", ["1,x", "1,0", "1,0,0,0", "nan,0,1", "0,0,0"])
    def test_bad_mounting_axis_exits_1(self, tmp_path, capsys, axis):
        assert main(["synth", "--mounting-axis", axis,
                     "--output", str(tmp_path / "x")]) == 1
        assert "config error: mounting axis must be three" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--duration", "nan"), ("--rate", "inf"), ("--accel-noise", "nan"), ("--seed", "-1"),
    ])
    def test_bad_option_value_exits_1(self, tmp_path, capsys, flag, value):
        assert main(["synth", flag, value, "--output", str(tmp_path / "x")]) == 1
        assert capsys.readouterr().err.startswith("config error: ")
        assert not list(tmp_path.iterdir())


class TestTransform:
    def test_static_recording_columns(self, tmp_path):
        spec = tmp_path / "synth.spec"
        spec.write_text(SPEC_TEXT)
        rec = synth(tmp_path / "subj0_static", label=0, seed=0,
                    extra=["--accel-noise", "0", "--gyro-noise", "0",
                           "--mag-noise", "0"])
        out = tmp_path / "out.txt"
        assert main(["transform", "--spec", str(spec), "--input", rec,
                     "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# columns: subject label imu0:")
        table = np.loadtxt(str(out))
        # subject, label, 9 local, 9 global, 4 quaternion = 24 columns;
        # 6 s at 30 Hz minus the 1 s warmup leaves 150 rows
        assert table.shape == (150, 24)
        assert np.all(table[:, 0] == 0) and np.all(table[:, 1] == 0)
        # global specific force of a static sensor is (0, 0, -g0)
        assert np.allclose(table[:, 11:14], [0.0, 0.0, -G0], atol=1e-6)
        assert np.allclose(np.linalg.norm(table[:, 20:24], axis=1), 1.0, atol=1e-9)

    def test_too_short_recording_exits_2(self, tmp_path, capsys):
        spec = tmp_path / "synth.spec"
        spec.write_text(SPEC_TEXT)
        rec = synth(tmp_path / "subj0_short", label=0, seed=0,
                    extra=["--duration", "0.5"])
        code = main(["transform", "--spec", str(spec), "--input", rec,
                     "--output", str(tmp_path / "out.txt")])
        assert code == 2
        assert "data error" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["label_col = x", "native_rate_hz = fast", "decimate = two"])
    def test_non_numeric_spec_value_exits_2(self, tmp_path, capsys, line):
        spec = tmp_path / "synth.spec"
        spec.write_text(SPEC_TEXT + line + "\n")
        rec = synth(tmp_path / "subj0_static", label=0, seed=0)
        code = main(["transform", "--spec", str(spec), "--input", rec,
                     "--output", str(tmp_path / "out.txt")])
        assert code == 2
        assert capsys.readouterr().err.startswith("data error: ")


    @pytest.mark.parametrize("pattern", ["subj(\\d+", "subj\\d+"], ids=["unclosed", "no_group"])
    def test_bad_subject_pattern_exits_1(self, tmp_path, capsys, pattern):
        spec = tmp_path / "synth.spec"
        spec.write_text(SPEC_TEXT.replace("filename:subj(\\d+)", "filename:" + pattern))
        rec = synth(tmp_path / "subj0_static", label=0, seed=0)
        code = main(["transform", "--spec", str(spec), "--input", rec,
                     "--output", str(tmp_path / "out.txt")])
        assert code == 1
        assert capsys.readouterr().err.startswith("config error: ")

    @pytest.mark.parametrize("bad_line", ["oops 1 2 3 4 5 6 7 8 9", "0 1 2"], ids=["value", "ragged"])
    def test_malformed_recording_names_file_and_line(self, corpus, tmp_path, capsys, bad_line):
        spec, files = corpus
        lines = pathlib.Path(files[1]).read_text().splitlines()
        assert lines[0].startswith("#")  # so the data's second row is line 3
        lines[2] = bad_line
        bad = tmp_path / "subj9_bad.rec"
        bad.write_text("\n".join(lines) + "\n")
        code = main(["louo", "--spec", str(spec), "--data", files[0], str(bad), files[2],
                     "--mode", "vL_only", "--epochs", "1"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"data error: {bad} line 3: ")
        assert files[0] not in err and files[2] not in err


class TestTrainEval:
    def test_train_then_eval(self, corpus, tmp_path, capsys):
        spec, files = corpus
        ckpt = tmp_path / "model.npz"
        code = main(["train", "--spec", str(spec), "--data", *files,
                     "--mode", "vG_only", "--target", "0",
                     "--win-len", "32", "--stride", "16",
                     "--epochs", "1", "--batch", "8", "--seed", "1",
                     "--checkpoint", str(ckpt)])
        out = capsys.readouterr().out
        assert code == 0
        assert "target 0: accuracy=" in out
        assert ckpt.exists()

        code = main(["eval", "--spec", str(spec), "--data", *files,
                     "--checkpoint", str(ckpt),
                     "--stride", "16", "--target", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("accuracy=") and "weighted_f1=" in out

    @pytest.mark.parametrize("mode", MODES)
    def test_eval_scores_what_train_scored(self, corpus, tmp_path, capsys, mode):
        # eval reads the mode (channels, head) from the checkpoint, so it
        # must reproduce the held-out score that train printed.
        spec, files = corpus
        ckpt = tmp_path / "model.npz"
        code = main(["train", "--spec", str(spec), "--data", *files,
                     "--mode", mode, "--target", "1",
                     "--win-len", "32", "--stride", "16",
                     "--epochs", "8", "--batch", "8", "--seed", "2",
                     "--checkpoint", str(ckpt)])
        trained = capsys.readouterr().out.splitlines()[0]
        assert code == 0

        def evaluate(target):
            code = main(["eval", "--spec", str(spec), "--data", *files,
                         "--checkpoint", str(ckpt), "--stride", "16",
                         "--target", target])
            assert code == 0
            return capsys.readouterr().out.strip()

        acc, f1 = (part.split("=")[1] for part in trained.split(": ", 1)[1].split())
        assert evaluate("1") == f"accuracy={acc} weighted_f1={f1}"
        # One training subject does not transfer to the other here, so the
        # held-out score sits at chance in every mode.  The training subject
        # tells a trained head from an untrained one.
        assert evaluate("0") == "accuracy=1.0000 weighted_f1=1.0000"

    def test_checkpoint_without_mode_exits_1(self, corpus, tmp_path, capsys):
        spec, files = corpus
        ckpt = tmp_path / "model.npz"
        cfg = ModelConfig(t=32, c=13, k=2, n=1, voting=False, conv_filters=2,
                          lstm_hidden=4, voting_hidden=4)
        save_checkpoint(ckpt, cfg, init_params(cfg, seed=0), seed=0, mode=None)
        code = main(["eval", "--spec", str(spec), "--data", *files,
                     "--checkpoint", str(ckpt), "--stride", "16"])
        assert code == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["bogus", ["flow"]], ids=["unknown", "list"])
    def test_checkpoint_with_unknown_mode_exits_1(self, corpus, tmp_path, capsys, mode):
        spec, files = corpus
        ckpt = tmp_path / "model.npz"
        cfg = ModelConfig(t=32, c=13, k=2, n=1, voting=False, conv_filters=2,
                          lstm_hidden=4, voting_hidden=4)
        save_checkpoint(ckpt, cfg, init_params(cfg, seed=0), seed=0, mode=mode)
        code = main(["eval", "--spec", str(spec), "--data", *files,
                     "--checkpoint", str(ckpt), "--stride", "16"])
        assert code == 1
        assert "records no known mode" in capsys.readouterr().err

    def test_train_without_target_exits_1(self, corpus, tmp_path, capsys):
        spec, files = corpus
        code = main(["train", "--spec", str(spec), "--data", *files,
                     "--mode", "vG_only", "--win-len", "32", "--stride", "16",
                     "--epochs", "1"])
        assert code == 1
        assert "config error" in capsys.readouterr().err


class TestLouoReport:
    def test_louo_writes_report(self, corpus, tmp_path, capsys):
        spec, files = corpus
        out_dir = tmp_path / "sweep"
        code = main(["louo", "--spec", str(spec), "--data", *files,
                     "--mode", "vL_only", "--win-len", "32", "--stride", "16",
                     "--epochs", "1", "--batch", "8",
                     "--out", str(out_dir)])
        printed = capsys.readouterr().out
        assert code == 0
        assert "subject 0: accuracy=" in printed
        assert "subject 1: accuracy=" in printed
        assert "average: accuracy=" in printed
        assert (out_dir / "summary.json").exists()

        code = main(["report", "--out", str(out_dir)])
        printed = capsys.readouterr().out
        assert code == 0
        assert '"average_accuracy"' in printed

    def test_output_dir_env_override(self, corpus, tmp_path, capsys, monkeypatch):
        spec, files = corpus
        env_dir = tmp_path / "env_out"
        monkeypatch.setenv("FLOWHAR_OUTPUT_DIR", str(env_dir))
        code = main(["louo", "--spec", str(spec), "--data", *files,
                     "--mode", "vL_only", "--win-len", "32", "--stride", "16",
                     "--epochs", "1", "--batch", "8",
                     "--out", str(tmp_path / "ignored")])
        assert code == 0
        assert (env_dir / "summary.json").exists()
        assert not (tmp_path / "ignored").exists()


class TestBadInput:
    """Bad files and values exit with the documented code and no traceback."""

    def _argv(self, command, spec, files, ckpt=None):
        if command == "eval":
            return ["eval", "--spec", str(spec), "--data", *files,
                    "--checkpoint", str(ckpt), "--stride", "16"]
        return [command, "--spec", str(spec), "--data", *files, "--mode", "vL_only",
                "--target", "0", "--win-len", "32", "--stride", "16",
                "--epochs", "1", "--batch", "8"]

    CKPT_CONFIG = ModelConfig(t=32, c=9, k=2, n=1, voting=False, conv_filters=2,
                              lstm_hidden=4, voting_hidden=4)

    def _checkpoint(self, tmp_path):
        ckpt = tmp_path / "model.npz"
        save_checkpoint(ckpt, self.CKPT_CONFIG, init_params(self.CKPT_CONFIG, seed=0),
                        seed=0, mode="vL_only")
        return ckpt

    @pytest.mark.parametrize("content", BAD_CHECKPOINTS)
    def test_checkpoint_that_is_no_archive_exits_2(self, corpus, tmp_path, capsys, content):
        spec, files = corpus
        ckpt = tmp_path / "bad.npz"
        write_bad_checkpoint(ckpt, content, self.CKPT_CONFIG)
        assert main(self._argv("eval", spec, files, ckpt)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {ckpt} is not a flowhar checkpoint")

    @pytest.mark.parametrize("unreadable", ["missing", "directory"])
    @pytest.mark.parametrize("command, which", [
        ("louo", "data"), ("louo", "spec"),
        ("eval", "data"), ("eval", "spec"), ("eval", "checkpoint"),
    ])
    def test_unreadable_file_exits_2(self, corpus, tmp_path, capsys,
                                     command, which, unreadable):
        spec, files = corpus
        ckpt = self._checkpoint(tmp_path)
        bad = tmp_path / "nope" if unreadable == "missing" else tmp_path
        if which == "data":
            files = [*files, str(bad)]
        elif which == "spec":
            spec = bad
        else:
            ckpt = bad
        assert main(self._argv(command, spec, files, ckpt)) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and f"'{bad}'" in err

    def test_config_without_value_exits_1(self, corpus, capsys):
        spec, files = corpus
        assert main([*self._argv("louo", spec, files), "--config"]) == 1
        assert "config error: argument --config: expected one argument" in capsys.readouterr().err

    def test_missing_config_file_exits_1(self, corpus, tmp_path, capsys):
        spec, files = corpus
        cfg = tmp_path / "nope.cfg"
        assert main([*self._argv("louo", spec, files), "--config", str(cfg)]) == 1
        assert f"config error: cannot read config file {cfg}" in capsys.readouterr().err

    def test_config_value_of_wrong_type_exits_1(self, corpus, tmp_path, capsys):
        spec, files = corpus
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("epochs = abc\n")
        assert main(["louo", "--spec", str(spec), "--data", *files,
                     "--config", str(cfg)]) == 1
        assert ("config error: argument --epochs: invalid int value: 'abc'"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("command", ["louo", "train", "eval"])
    def test_stride_zero_exits_1(self, corpus, tmp_path, capsys, command):
        spec, files = corpus
        argv = self._argv(command, spec, files, self._checkpoint(tmp_path))
        assert main([*argv, "--stride", "0"]) == 1
        assert "config error: stride must be >= 1" in capsys.readouterr().err

    def test_train_without_target_exits_1_before_reading_data(self, corpus, tmp_path, capsys):
        spec, files = corpus
        argv = self._argv("train", spec, [*files, str(tmp_path / "nope")])
        at = argv.index("--target")
        del argv[at:at + 2]
        assert main(argv) == 1
        assert "config error: train requires --target" in capsys.readouterr().err

    def test_train_with_several_targets_exits_1_before_reading_data(self, corpus, tmp_path,
                                                                    capsys):
        spec, files = corpus
        argv = self._argv("train", spec, [*files, str(tmp_path / "nope")])
        argv[argv.index("--target") + 1] = "0,1"
        assert main(argv) == 1
        assert "config error: train holds out one subject" in capsys.readouterr().err

    def test_eval_with_several_targets_exits_1_before_reading_files(self, corpus, tmp_path,
                                                                   capsys):
        _, files = corpus
        nope = str(tmp_path / "nope")
        argv = self._argv("eval", nope, [*files, nope], nope)
        assert main([*argv, "--target", "0,1"]) == 1
        assert "config error: eval scores one subject" in capsys.readouterr().err

    def test_eval_of_a_target_without_windows_exits_2(self, corpus, tmp_path, capsys):
        spec, files = corpus
        argv = self._argv("eval", spec, files, self._checkpoint(tmp_path))
        assert main([*argv, "--target", "9"]) == 2
        assert ("data error: no windows for target subject '9'"
                in capsys.readouterr().err)

    def test_louo_with_a_repeated_target_exits_1(self, corpus, tmp_path, capsys):
        spec, files = corpus
        argv = self._argv("louo", spec, files)
        argv[argv.index("--target") + 1] = "0,1,0"
        assert main([*argv, "--out", str(tmp_path / "sweep")]) == 1
        assert "config error: target_subjects repeats 0" in capsys.readouterr().err
        assert not (tmp_path / "sweep").exists()  # nothing trained, no marker

    @pytest.mark.parametrize("flag, value", [
        ("--stride", "abc"), ("--mode", "bogus"),
        ("--warmup", "nan"), ("--warmup", "inf"), ("--lr", "nan"), ("--lr", "-1"),
        ("--seed", "-1"),
    ])
    def test_bad_option_value_exits_1(self, corpus, capsys, flag, value):
        spec, files = corpus
        assert main([*self._argv("louo", spec, files), flag, value]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and flag.lstrip("-") in err

    def test_missing_data_exits_1(self, corpus, capsys):
        spec, _ = corpus
        assert main(["louo", "--spec", str(spec), "--mode", "vL_only"]) == 1
        assert ("config error: the following arguments are required: --data"
                in capsys.readouterr().err)


class TestConfigFile:
    """--config lines are parsed as long options ahead of the explicit flags."""

    def _louo(self, spec, cfg, *extra):
        return main(["louo", "--spec", str(spec), "--config", str(cfg),
                     "--mode", "vL_only", "--win-len", "32", "--stride", "16",
                     "--epochs", "1", "--batch", "8", *extra])

    def test_config_equals_form(self, tmp_path):
        cfg = tmp_path / "synth.cfg"
        cfg.write_text("duration = 4\n")
        out = tmp_path / "a"
        assert main(["synth", f"--config={cfg}", "--output", str(out)]) == 0
        assert len(out.with_suffix(".rec").read_text().splitlines()) - 1 == 120

    def test_data_takes_several_paths(self, corpus, tmp_path, capsys):
        spec, files = corpus
        cfg = tmp_path / "louo.cfg"
        cfg.write_text(f"data = {shlex.join(files)}\n")
        assert self._louo(spec, cfg) == 0
        printed = capsys.readouterr().out
        assert "subject 0: accuracy=" in printed and "subject 1: accuracy=" in printed

    def test_unknown_key_exits_1(self, corpus, tmp_path, capsys):
        spec, files = corpus
        cfg = tmp_path / "louo.cfg"
        cfg.write_text("bogus = 3\n")
        assert main(["louo", "--spec", str(spec), "--data", *files,
                     "--config", str(cfg)]) == 1
        assert "config error: unrecognized arguments: --bogus 3" in capsys.readouterr().err

    def test_nested_config_exits_1(self, tmp_path, capsys):
        inner = tmp_path / "inner.cfg"
        inner.write_text("duration = 4\n")
        outer = tmp_path / "outer.cfg"
        outer.write_text(f"config = {inner}\n")
        assert main(["synth", "--config", str(outer), "--output", str(tmp_path / "x")]) == 1
        assert (f"config error: {outer} names another config file"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("key", ["win_len", "win-len"])
    def test_key_names_the_long_option(self, corpus, tmp_path, capsys, key):
        spec, files = corpus
        cfg = tmp_path / "louo.cfg"
        cfg.write_text(f"{key} = abc\n")
        assert main(["louo", "--spec", str(spec), "--data", *files,
                     "--config", str(cfg)]) == 1
        assert ("config error: argument --win-len: invalid int value: 'abc'"
                in capsys.readouterr().err)

    def test_resume_not_true_or_false_exits_1(self, corpus, tmp_path, capsys):
        spec, files = corpus
        cfg = tmp_path / "louo.cfg"
        cfg.write_text("resume = maybe\n")
        assert main(["louo", "--spec", str(spec), "--data", *files,
                     "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "resume = 'maybe'" in err

    def test_resume_true_and_false(self, corpus, tmp_path):
        # A subject read back from its marker has no training log, so
        # emit_report writes no curves file for it.
        spec, files = corpus
        out = tmp_path / "sweep"
        cfg = tmp_path / "louo.cfg"
        cfg.write_text("resume = false\n")
        assert self._louo(spec, cfg, "--data", *files, "--out", str(out)) == 0
        for value, curves in (("true", []), ("false", ["curves_0.csv", "curves_1.csv"])):
            for path in out.glob("curves_*.csv"):
                path.unlink()
            cfg.write_text(f"resume = {value}\n")
            assert self._louo(spec, cfg, "--data", *files, "--out", str(out)) == 0
            assert sorted(p.name for p in out.glob("curves_*.csv")) == curves

    @pytest.mark.parametrize("command", ["louo", "train", "eval", "transform", "synth"])
    def test_help_lists_config(self, capsys, command):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        assert "--config" in capsys.readouterr().out
