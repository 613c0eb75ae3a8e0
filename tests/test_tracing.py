"""perfbench/tracing.py patches library functions by attribute name, so a
deleted or renamed attribute breaks `perfbench/run.py --trace 1`.  This test
loads that file unchanged and checks that a Tracer installs on the library,
records spans, and puts every original back."""

import importlib.util
import pathlib

import numpy as np

from flowhar import trainer
from flowhar.model import ModelConfig, init_params

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores():
    tracing = load_tracing()
    before = tracing.snapshot_layers()
    cfg = ModelConfig(t=9, c=4, k=2, n=2, conv_layers=2, conv_filters=3, conv_kernel=3,
                      lstm_layers=1, lstm_hidden=6, voting_hidden=6)
    params = init_params(cfg, seed=0)
    data = np.random.default_rng(0).normal(size=(3, 9, 4))
    with tracing.Tracer() as tracer:
        trainer.predict_batch(data, params, cfg)
    assert tracing.originals_restored(before)
    names = {span.name for span in tracer.spans}
    assert {"trainer.predict_batch", "model.backbone_forward", "autodiff.conv1d"} <= names
    assert tracer.tensors > 0
