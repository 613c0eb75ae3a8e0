"""Command-line entry point.

Subcommands: transform, synth, train, eval, louo, report.  Every option can
also come from a key = value file passed with --config; its lines are parsed
as long options ahead of the explicit flags, which win.  FLOWHAR_OUTPUT_DIR
overrides any output directory option.  Exit codes: 0 success, 1 usage or
configuration error, 2 data error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shlex
import sys

import numpy as np

from . import dataset as ds
from .attitude import MahonyParams
from .errors import ConfigError, DataError, FlowError, ParseError
from .harness import (
    MODE_SPECS,
    MODES,
    ExperimentConfig,
    emit_report,
    load_summary,
    run_louo,
)
from .metrics import accuracy, weighted_f1
from .model import load_checkpoint, save_checkpoint
from .synth import SynthSpec, synth_generate
from .trainer import TrainConfig, evaluate, stack_windows
from .views import GRANULARITIES


# The defaults of --warmup, --stride and --max-gap.  eval takes these three
# from its checkpoint instead, and falls back to these for a checkpoint that
# records none.
_WINDOWING_DEFAULTS = {"warmup": 1.0, "stride": 32, "max_gap": 10}


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors are config errors (exit 1)."""

    def error(self, message):
        raise ConfigError(message)


def _config_argv(path):
    """The lines of a --config file as long options: `key = a b` becomes
    `--key a b` (values split like a shell); `resume = true` becomes
    `--resume` and `resume = false` nothing."""
    try:
        entries = ds.read_key_values(path)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from exc
    except ParseError as exc:
        raise ConfigError(f"{path} line {exc.line_no}: {exc}") from exc
    argv = []
    for line_no, key, value in entries:
        option = "--" + key.replace("_", "-")
        try:
            values = shlex.split(value)
        except ValueError as exc:  # an unclosed quote
            raise ConfigError(f"{path} line {line_no}: {exc}") from exc
        if option != "--resume":
            argv += [option, *values]
        elif values == ["true"]:
            argv.append(option)
        elif values != ["false"]:
            raise ConfigError(f"{path} line {line_no}: resume = {value!r} must be true or false")
    return argv


def _with_config(argv):
    """argv with its --config file's options spliced in right after the
    subcommand, so explicit flags, which come later, win."""
    pre = _Parser(add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv)[0].config
    if path is None:
        return argv
    spliced = _config_argv(path)
    if pre.parse_known_args(spliced)[0].config is not None:
        raise ConfigError(f"{path} names another config file, which would be ignored")
    return argv[:1] + spliced + argv[1:]


def _load_recordings(files, spec, max_gap):
    recordings = []
    for path in files:
        for rec in ds.load_recording(path, spec):
            rec = ds.interpolate_nans(rec, max_gap)
            rec = ds.decimate(rec, spec.decimate_factor)
            recordings.append(rec)
    return recordings


def cmd_transform(args):
    spec = ds.parse_spec_file(args.spec)
    params = MahonyParams(warmup_seconds=args.warmup)
    recordings = _load_recordings([args.input], spec, args.max_gap)
    with open(args.output, "w") as fh:
        fh.write(
            "# columns: subject label"
            + "".join(
                f" {name}:[ax ay az mx my mz gx gy gz"
                " a'x a'y a'z m'x m'y m'z g'x g'y g'z qw qx qy qz]"
                for name in recordings[0].sensors
            )
            + "\n"
        )
        for rec in recordings:
            matrix, labels, _ = ds.assemble_channels(rec, "concat", params)
            for label, values in zip(labels, matrix):
                row = [rec.subject_id, str(label), *(f"{v:.9g}" for v in values)]
                fh.write(" ".join(row) + "\n")
    print(f"wrote {args.output}")
    return 0


def cmd_synth(args):
    if args.seed < 0:  # NumPy's generators take only non-negative seeds
        raise ConfigError("seed must be >= 0")
    try:
        axis = np.array([float(v) for v in args.mounting_axis.split(",")])
    except ValueError:
        axis = np.zeros(0)
    norm = np.linalg.norm(axis)
    if axis.shape != (3,) or not 0.0 < norm < math.inf:
        raise ConfigError(f"mounting axis must be three finite numbers x,y,z, not all zero; "
                          f"got {args.mounting_axis!r}")
    if not math.isfinite(args.mounting_angle_deg):
        raise ConfigError(f"mounting angle must be finite; got {args.mounting_angle_deg!r}")
    half = math.radians(args.mounting_angle_deg) / 2.0
    mounting = (math.cos(half), *(math.sin(half) * axis / norm))
    spec = SynthSpec(
        duration_s=args.duration,
        rate_hz=args.rate,
        segments=((args.duration, (0.0, 0.0, args.yaw_rate)),) if args.yaw_rate else (),
        lin_acc_amp_ned=(args.accel_north, args.accel_east, args.accel_down),
        lin_acc_freq_hz=args.accel_freq,
        mounting=mounting,
        accel_noise_std=args.accel_noise,
        gyro_noise_std=args.gyro_noise,
        mag_noise_std=args.mag_noise,
        label=args.label,
    )
    rec, truth = synth_generate(spec, args.seed)
    data = rec.sensors["imu0"]
    rec_path = args.output + ".rec"
    truth_path = args.output + ".truth"
    with open(rec_path, "w") as fh:
        fh.write("# columns: label ax ay az mx my mz gx gy gz\n")
        for i in range(rec.length):
            fh.write(f"{rec.labels[i]} " + " ".join(f"{v:.9g}" for v in data[i]) + "\n")
    with open(truth_path, "w") as fh:
        fh.write("# columns: qw qx qy qz\n")
        for q in truth:
            fh.write(" ".join(f"{v:.12g}" for v in q) + "\n")
    print(f"wrote {rec_path} and {truth_path}")
    return 0


def _experiment_config(args, spec):
    return ExperimentConfig(
        mode=args.mode,
        granularity=args.granularity,
        win_len=args.win_len,
        stride=args.stride,
        label_map=spec.label_map,
        num_classes=spec.num_classes,
        target_subjects=tuple(args.target.split(",")) if args.target else (),
        train=TrainConfig(
            epochs=args.epochs, batch_size=args.batch, lr=args.lr, seed=args.seed
        ),
        warmup_seconds=args.warmup,
        output_dir=args.out,
        resume=getattr(args, "resume", False),
    )


def cmd_train(args):
    spec = ds.parse_spec_file(args.spec)
    recordings = _load_recordings(args.data, spec, args.max_gap)
    cfg = _experiment_config(args, spec)
    report = run_louo(recordings, cfg)
    row = report.rows[0]
    if row.error:
        raise DataError(row.error)  # no windows for the target, or none to train on
    print(f"target {row.subject}: accuracy={row.accuracy:.4f} f1={row.weighted_f1:.4f}")
    if args.checkpoint:
        save_checkpoint(args.checkpoint, report.model_config, row.params,
                        cfg.train.seed, cfg.mode,
                        {name: getattr(args, name) for name in _WINDOWING_DEFAULTS})
        print(f"checkpoint written to {args.checkpoint}")
    if args.out:
        emit_report(report, args.out)
    return 0


def cmd_eval(args):
    spec = ds.parse_spec_file(args.spec)
    config, params, _seed, mode, windowing = load_checkpoint(args.checkpoint)
    if mode not in MODES:  # a tuple: an unhashable mode is just not found
        raise ConfigError(f"checkpoint {args.checkpoint} records no known mode (got {mode!r})")
    # A flag that was given wins over what train recorded.
    for name, value in (windowing or _WINDOWING_DEFAULTS).items():
        if getattr(args, name) is None:
            setattr(args, name, value)
    recordings = _load_recordings(args.data, spec, args.max_gap)
    windows = ds.build_windows(
        recordings, MODE_SPECS[mode].channels, config.t, args.stride, spec.label_map,
        MahonyParams(warmup_seconds=args.warmup),
    )
    if args.target:
        windows = [w for w in windows if w.subject_id == args.target]
    if not windows:
        raise DataError(f"no windows for target subject {args.target!r}" if args.target
                        else "no evaluable windows")
    data, labels = stack_windows(windows, config.dtype)
    if data.shape[2] != config.c:
        raise DataError(f"checkpoint {args.checkpoint} takes {config.c} channels; "
                        f"the data has {data.shape[2]}")
    if labels.max() >= config.k:
        raise DataError(f"checkpoint {args.checkpoint} has {config.k} classes; "
                        f"the data has class index {labels.max()}")
    _, _, cm = evaluate(data, labels, params, config)
    print(f"accuracy={accuracy(cm):.4f} weighted_f1={weighted_f1(cm):.4f}")
    return 0


def cmd_louo(args):
    spec = ds.parse_spec_file(args.spec)
    recordings = _load_recordings(args.data, spec, args.max_gap)
    cfg = _experiment_config(args, spec)
    report = run_louo(recordings, cfg)
    for row in report.rows:
        if row.error:
            print(f"subject {row.subject}: FAILED ({row.error})")
        else:
            print(f"subject {row.subject}: accuracy={row.accuracy:.4f} f1={row.weighted_f1:.4f}")
    print(f"average: accuracy={report.average_accuracy:.4f} f1={report.average_f1:.4f}")
    if args.out:
        emit_report(report, args.out)
        print(f"report written to {args.out}")
    return 0


def cmd_report(args):
    summary = load_summary(args.out)
    print(json.dumps(summary, indent=2))
    return 0


def build_parser():
    parser = _Parser(prog="flowhar")
    sub = parser.add_subparsers(dest="command", required=True)

    def common_data(p):
        p.add_argument("--config", help="file of key = value lines, read as long options")
        p.add_argument("--spec", required=True, help="dataset spec file")
        p.add_argument("--max-gap", dest="max_gap", type=int,
                       default=_WINDOWING_DEFAULTS["max_gap"])
        p.add_argument("--warmup", type=float, default=_WINDOWING_DEFAULTS["warmup"])

    def common_train(p):
        p.add_argument("--data", nargs="+", required=True)
        p.add_argument("--mode", choices=MODES, default="flow")
        p.add_argument("--granularity", choices=GRANULARITIES, default="medium")
        p.add_argument("--win-len", dest="win_len", type=int, default=64)
        p.add_argument("--stride", type=int, default=_WINDOWING_DEFAULTS["stride"])
        p.add_argument("--target", default="")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--epochs", type=int, default=300)
        p.add_argument("--batch", type=int, default=64)
        p.add_argument("--lr", type=float, default=1e-3)
        p.add_argument("--out", default=None)

    p = sub.add_parser("transform", help="append NED global-view columns to a recording")
    common_data(p)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("synth", help="generate a synthetic recording + ground truth")
    p.add_argument("--config", help="file of key = value lines, read as long options")
    p.add_argument("--duration", type=float, default=20.0)
    p.add_argument("--rate", type=float, default=30.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--yaw-rate", dest="yaw_rate", type=float, default=0.0)
    p.add_argument("--accel-north", dest="accel_north", type=float, default=0.0)
    p.add_argument("--accel-east", dest="accel_east", type=float, default=0.0)
    p.add_argument("--accel-down", dest="accel_down", type=float, default=0.0)
    p.add_argument("--accel-freq", dest="accel_freq", type=float, default=1.0)
    p.add_argument("--mounting-angle-deg", dest="mounting_angle_deg", type=float, default=0.0)
    p.add_argument("--mounting-axis", dest="mounting_axis", default="0,0,1")
    p.add_argument("--accel-noise", dest="accel_noise", type=float, default=0.0)
    p.add_argument("--gyro-noise", dest="gyro_noise", type=float, default=0.0)
    p.add_argument("--mag-noise", dest="mag_noise", type=float, default=0.0)
    p.add_argument("--label", type=int, default=0)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train on all subjects but one")
    common_data(p)
    common_train(p)
    p.add_argument("--checkpoint", default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    common_data(p)
    p.add_argument("--data", nargs="+", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--stride", type=int)
    p.add_argument("--target", default="")
    # None: not given, so cmd_eval takes the value from the checkpoint.
    p.set_defaults(func=cmd_eval, warmup=None, max_gap=None)

    p = sub.add_parser("louo", help="full leave-one-user-out sweep")
    common_data(p)
    common_train(p)
    p.add_argument("--resume", action="store_true")
    p.set_defaults(func=cmd_louo)

    p = sub.add_parser("report", help="print a previously written report")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser().parse_args(_with_config(argv))
        override = os.environ.get("FLOWHAR_OUTPUT_DIR")
        if override and hasattr(args, "out"):
            args.out = override
        # eval leaves a flag that was not given as None.
        stride, max_gap = getattr(args, "stride", None), getattr(args, "max_gap", None)
        # segment_windows would reject it too, but as a runtime failure (exit 3).
        if stride is not None and stride < 1:
            raise ConfigError("stride must be >= 1")
        # interpolate_nans would treat it as 0 without a word.
        if max_gap is not None and max_gap < 0:
            raise ConfigError("max-gap must be >= 0")
        if args.command == "train" and not args.target:
            raise ConfigError("train requires --target (the held-out subject)")
        if args.command == "train" and "," in args.target:
            raise ConfigError(f"train holds out one subject; --target {args.target} names several")
        if args.command == "eval" and "," in args.target:
            raise ConfigError(f"eval scores one subject; --target {args.target} names several")
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:  # OSError: a file that cannot be opened
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except FlowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
