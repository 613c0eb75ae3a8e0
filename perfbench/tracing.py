"""Spans and counts recorded from outside the library.

A Tracer replaces public functions of flowhar's modules with wrappers that
record one span per call.  Each wrapper is installed under every name a
caller looks the function up by (`flowhar.globalview.mahony_run` is what
`mc_transform` calls, `flowhar.model.conv1d` what `backbone_forward`
calls), so the library's own internal calls are traced and no library
file changes.  `Tensor.__init__` is wrapped to count graph nodes.  Spans
stay in memory until the run ends; `restore` puts every original back.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

import numpy as np

from flowhar import dataset, globalview, harness, model, trainer
from flowhar.autodiff import Tensor
from flowhar.model import Adam

# Spans with these names start a new request (a training step, a predicted
# batch, one benchmark operation: a file, batch or run_louo call); every other
# span belongs to the request of its nearest such ancestor.
REQUEST_SPANS = {
    "bench.setup", "bench.op",
    "trainer.train_phase1", "trainer.train_phase2", "trainer.predict_batch",
}


def _series_len(args, result):
    return len(args[0])


def _windows_kept_tried(args, result):
    data, _labels, _valid, _subject, win_len, stride = args[:6]
    return len(result), len(range(0, data.shape[0] - win_len + 1, stride))


def traced_layers():
    """(span name, [(owner, attribute), ...], size function) per layer."""
    return [
        ("harness.run_louo", [(harness, "run_louo")], None),
        ("dataset.build_windows", [(harness, "build_windows"), (dataset, "build_windows")], None),
        ("dataset.load_recording", [(dataset, "load_recording")], None),
        ("dataset.interpolate_nans", [(dataset, "interpolate_nans")], None),
        ("dataset.decimate", [(dataset, "decimate")], None),
        ("dataset.segment_windows", [(dataset, "segment_windows")], _windows_kept_tried),
        ("globalview.mc_transform", [(dataset, "mc_transform")], None),
        ("attitude.mahony_run", [(globalview, "mahony_run")], _series_len),
        ("globalview.transform_series", [(globalview, "transform_series")], _series_len),
        ("trainer.fit", [(harness, "fit")], None),
        ("trainer.train_phase1", [(trainer, "train_phase1")], None),
        ("trainer.train_phase2", [(trainer, "train_phase2")], None),
        ("trainer.evaluate", [(trainer, "evaluate")], None),
        ("trainer.predict_batch", [(trainer, "predict_batch")], None),
        ("views.shuffle_batch", [(trainer, "shuffle_batch")], None),
        # trainer calls these by the names it imported, full_forward by model's.
        ("model.backbone_forward",
         [(trainer, "backbone_forward"), (model, "backbone_forward")], None),
        ("model.mvf_forward", [(trainer, "mvf_forward"), (model, "mvf_forward")], None),
        ("model.voting_forward", [(trainer, "voting_forward"), (model, "voting_forward")], None),
        ("autodiff.conv1d", [(model, "conv1d")], None),
        ("autodiff.backward", [(Tensor, "backward")], None),
        ("model.adam_step", [(Adam, "step")], None),
    ]


class Span:
    __slots__ = ("name", "parent", "request", "start", "end", "tensors", "size")

    def __init__(self, name, parent, request, start, tensors):
        self.name = name
        self.parent = parent
        self.request = request
        self.start = start
        self.end = None
        self.tensors = tensors
        self.size = None


class Tracer:
    """Records spans around the wrapped calls while installed.

    Use as a context manager; on exit every wrapped attribute holds its
    original object again.
    """

    def __init__(self):
        self.spans = []
        self.tensors = 0
        self._stack = []
        self._requests = 0
        self._saved = []

    def open(self, name):
        parent = self._stack[-1] if self._stack else None
        if name in REQUEST_SPANS or parent is None:
            req = self._requests
            self._requests += 1
        else:
            req = self.spans[parent].request
        self.spans.append(Span(name, parent, req, time.perf_counter(), self.tensors))
        self._stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def close(self, span):
        span.end = time.perf_counter()
        span.tensors = self.tensors - span.tensors
        self._stack.pop()

    @contextmanager
    def span(self, name):
        s = self.open(name)
        try:
            yield s
        finally:
            self.close(s)

    def _wrap(self, name, fn, size):
        def traced(*args, **kwargs):
            s = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(s)
            if size is not None:
                s.size = size(args, result)
            return result

        return traced

    def _patch(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        for name, targets, size in traced_layers():
            owner, attr = targets[0]
            wrapper = self._wrap(name, owner.__dict__[attr], size)
            for owner, attr in targets:
                self._patch(owner, attr, wrapper)
        init = Tensor.__init__

        def counting_init(tensor, *args, **kwargs):
            self.tensors += 1
            init(tensor, *args, **kwargs)

        self._patch(Tensor, "__init__", counting_init)

    def restore(self):
        """Put back every original, last patched first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for i, (s, self_s) in enumerate(zip(self.spans, self_times(self.spans))):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "parent": s.parent, "request": s.request,
                    "start_s": s.start, "end_s": s.end, "self_s": self_s,
                    "tensors": s.tensors, "size": s.size,
                }) + "\n")


def originals_restored(saved_before):
    """True when every (owner, attr, object) triple is in place again."""
    return all(owner.__dict__[attr] is obj for owner, attr, obj in saved_before)


def snapshot_layers():
    """(owner, attr, object) for every attribute a Tracer replaces."""
    out = [(Tensor, "__init__", Tensor.__dict__["__init__"])]
    for _name, targets, _size in traced_layers():
        out.extend((owner, attr, owner.__dict__[attr]) for owner, attr in targets)
    return out


# -- per-layer metrics ---------------------------------------------------------

def tail_percentile(values):
    """(percentile, value, n) for the highest whole percentile that leaves at
    least ten samples above it; None with fewer than eleven samples."""
    n = len(values)
    if n < 11:
        return None
    p = int(100 * (n - 10) // n)
    return p, float(np.percentile(values, p)), n


def _by_name(spans):
    out = {}
    for s in spans:
        out.setdefault(s.name, []).append(s)
    return out


def self_times(spans):
    """Span duration minus the durations of its direct children (children
    never overlap: the library is single-threaded)."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


def layer_table(spans):
    """name -> (calls, total seconds, self seconds), slowest self time first."""
    table = {}
    for s, self_s in zip(spans, self_times(spans)):
        calls, total, own = table.get(s.name, (0, 0.0, 0.0))
        table[s.name] = (calls + 1, total + s.end - s.start, own + self_s)
    return dict(sorted(table.items(), key=lambda kv: -kv[1][2]))


def layer_metrics(spans):
    """Every per-layer metric as name -> (value, unit, note).

    A layer the workload never calls reads 0.  Per-call figures are
    medians over calls; `us_per_sample` divides total time by total
    samples; `ms_tail` is the tail_percentile of the call times.
    """
    by = _by_name(spans)
    selfs = self_times(spans)
    self_by = {}
    for s, st in zip(spans, selfs):
        self_by.setdefault(s.name, []).append(st)

    def durs(name):
        return [s.end - s.start for s in by.get(name, [])]

    def median(values, scale):
        return float(np.median(values)) * scale if values else 0.0

    def per_sample_us(name):
        calls = by.get(name, [])
        samples = sum(s.size for s in calls)
        return 1e6 * sum(s.end - s.start for s in calls) / samples if samples else 0.0

    def tail_ms(name):
        t = tail_percentile(durs(name))
        if t is None:
            return 0.0, f"fewer than 11 calls ({len(durs(name))})"
        return 1e3 * t[1], f"p{t[0]} of {t[2]} calls"

    m = {}
    m["attitude.mahony_run.us_per_sample"] = (per_sample_us("attitude.mahony_run"), "us", "")
    m["globalview.transform_series.us_per_sample"] = (
        per_sample_us("globalview.transform_series"), "us", "")
    m["globalview.mc_transform.s"] = (median(durs("globalview.mc_transform"), 1.0), "s",
                                      "per sensor stream")
    for name in ("load_recording", "interpolate_nans", "segment_windows"):
        m[f"dataset.{name}.s"] = (median(durs(f"dataset.{name}"), 1.0), "s", "per call")
    kept = sum(s.size[0] for s in by.get("dataset.segment_windows", []))
    tried = sum(s.size[1] for s in by.get("dataset.segment_windows", []))
    m["dataset.segment_windows.kept_ratio"] = (kept / tried if tried else 0.0, "ratio",
                                                f"{kept} of {tried} positions")
    for phase in ("train_phase1", "train_phase2"):
        name = f"trainer.{phase}"
        m[f"{name}.ms_p50"] = (median(durs(name), 1e3), "ms", f"{len(durs(name))} steps")
        value, note = tail_ms(name)
        m[f"{name}.ms_tail"] = (value, "ms", note)
    m["autodiff.backward.ms_p50"] = (median(durs("autodiff.backward"), 1e3), "ms", "")
    m["autodiff.conv1d.ms"] = (median(durs("autodiff.conv1d"), 1e3), "ms", "forward, per call")
    m["model.backbone_forward.self_ms"] = (median(self_by.get("model.backbone_forward", []), 1e3),
                                           "ms", "LSTM, slicing, norm; conv excluded")
    m["model.adam_step.ms_p50"] = (median(durs("model.adam_step"), 1e3), "ms", "")
    m["views.shuffle_batch.ms_p50"] = (median(durs("views.shuffle_batch"), 1e3), "ms", "")
    for label, name in (("phase1_step", "trainer.train_phase1"),
                        ("phase2_step", "trainer.train_phase2"),
                        ("predict_batch", "trainer.predict_batch")):
        counts = [s.tensors for s in by.get(name, [])]
        m[f"autodiff.tensors_per_{label}"] = (
            median(counts, 1.0), "count",
            f"min {min(counts)} max {max(counts)}" if counts else "")
    m["trainer.predict_batch.ms_p50"] = (median(durs("trainer.predict_batch"), 1e3), "ms",
                                         f"{len(durs('trainer.predict_batch'))} calls")
    m["trainer.evaluate.s"] = (median(durs("trainer.evaluate"), 1.0), "s", "per call")
    m["model.mvf_forward.ms"] = (median(durs("model.mvf_forward"), 1e3), "ms", "per call")
    m["model.voting_forward.ms"] = (median(durs("model.voting_forward"), 1e3), "ms", "per call")
    m["harness.run_louo.self_s"] = (median(self_by.get("harness.run_louo", []), 1.0), "s",
                                    "outside build_windows and fit")
    # Every predict_batch call of louo_c7 happens inside run_louo: per-epoch
    # evaluation in fit, plus _evaluate_split's own test-set prediction.
    fits = len(by.get("trainer.fit", []))
    predicts = len(by.get("trainer.predict_batch", []))
    m["harness.predict_calls_per_subject"] = (predicts / fits if fits else 0.0, "count",
                                              f"{predicts} calls, {fits} subjects")
    return m
