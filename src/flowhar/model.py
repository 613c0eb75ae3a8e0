"""MVFNet: shared temporal-conv + LSTM backbone, a fusion layer emitting one
k-way logit group per view, and a three-layer voting network that turns the
per-view confidences into final class logits.

Parameters live in a flat name -> Tensor dict.  Names are prefixed
"backbone.", "mvf." or "voting." so the trainer can freeze whole stages by
prefix.  Checkpoints are .npz archives holding the config, seed, mode and
windowing as JSON plus every parameter array, which round-trips bit-exactly.
"""

from __future__ import annotations

import json
import math
import numbers
import zipfile
from dataclasses import asdict, dataclass

import numpy as np

from .autodiff import Tensor, conv1d, lstm, softmax
from .errors import ConfigError, DataError, InvalidInputError

NORM_EPS = 1e-6  # added to each channel's std so a constant channel divides by > 0
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # Kingma & Ba's defaults


def _is_int(value):
    """numbers.Integral, which a bool is not counted as."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def require_integers(config, *names):
    """Raise ConfigError unless each named field of config is an integer
    (numbers.Integral; a bool is not one)."""
    for name in names:
        value = getattr(config, name)
        if not _is_int(value):
            raise ConfigError(f"{name} must be an integer, not {value!r}")


@dataclass(frozen=True)
class ModelConfig:
    t: int  # window length (timesteps)
    c: int  # channels
    k: int  # classes
    n: int  # views (1 for the plain baseline head)
    conv_layers: int = 4
    conv_filters: int = 64
    conv_kernel: int = 5
    lstm_layers: int = 2
    lstm_hidden: int = 128
    voting_hidden: int = 128
    dtype: str = "float32"
    # Predict through the voting net; False predicts with logit group 0 and
    # builds no voting net (single-view baselines only).
    voting: bool = True

    def __post_init__(self):
        require_integers(self, "t", "c", "k", "n", "conv_layers", "conv_filters",
                         "conv_kernel", "lstm_layers", "lstm_hidden", "voting_hidden")
        if not isinstance(self.voting, bool):
            raise ConfigError(f"voting must be True or False, not {self.voting!r}")
        if self.dtype not in ("float32", "float64"):
            raise ConfigError(f"dtype must be float32 or float64, not {self.dtype!r}")
        if self.c < 1:
            raise ConfigError("need at least one channel")
        if self.k < 2:
            raise ConfigError("need at least two classes")
        if self.n < 1:
            raise ConfigError("need at least one view")
        if not self.voting and self.n != 1:
            raise ConfigError("a model without a voting net must have exactly one view")
        if min(self.conv_layers, self.conv_kernel, self.lstm_layers) < 1:
            raise ConfigError("layer counts and the kernel size must be >= 1")
        if min(self.conv_filters, self.lstm_hidden, self.voting_hidden) < 1:
            raise ConfigError("layer widths must be >= 1")
        t_out = self.t - self.conv_layers * (self.conv_kernel - 1)
        if t_out < 1:
            raise ConfigError("window too short for the convolution stack")


def _uniform(rng, fan_in, shape, dtype):
    bound = 1.0 / np.sqrt(max(fan_in, 1))
    return Tensor(rng.uniform(-bound, bound, shape).astype(dtype), requires_grad=True)


def init_params(config, seed):
    """Fan-in scaled uniform initialization for every stage, seed-controlled."""
    rng = np.random.default_rng(seed)
    dt = np.dtype(config.dtype)
    params = {}
    c_in = config.c
    for i in range(config.conv_layers):
        fan = config.conv_kernel * c_in
        params[f"backbone.conv{i}.w"] = _uniform(
            rng, fan, (config.conv_kernel, c_in, config.conv_filters), dt
        )
        params[f"backbone.conv{i}.b"] = _uniform(rng, fan, (config.conv_filters,), dt)
        c_in = config.conv_filters
    in_dim = config.conv_filters
    h = config.lstm_hidden
    for i in range(config.lstm_layers):
        params[f"backbone.lstm{i}.wx"] = _uniform(rng, in_dim, (in_dim, 4 * h), dt)
        params[f"backbone.lstm{i}.wh"] = _uniform(rng, h, (h, 4 * h), dt)
        params[f"backbone.lstm{i}.b"] = _uniform(rng, h, (4 * h,), dt)
        in_dim = h
    params["mvf.w"] = _uniform(rng, h, (h, config.n * config.k), dt)
    params["mvf.b"] = _uniform(rng, h, (config.n * config.k,), dt)
    if config.voting:
        dims = [config.n * config.k, config.voting_hidden, config.voting_hidden, config.k]
        for i, (a, b) in enumerate(zip(dims[:-1], dims[1:])):
            params[f"voting.fc{i}.w"] = _uniform(rng, a, (a, b), dt)
            params[f"voting.fc{i}.b"] = _uniform(rng, a, (b,), dt)
    # Input standardization constants; not trained, set from the training
    # split by set_normalization.
    params["norm.mu"] = Tensor(np.zeros(config.c, dtype=dt))
    params["norm.sigma"] = Tensor(np.ones(config.c, dtype=dt))
    return params


def set_normalization(params, data):
    """Freeze per-channel mean/std of `data` (b, t, c) into the params."""
    dt = params["norm.mu"].data.dtype
    params["norm.mu"].data = data.mean(axis=(0, 1)).astype(dt)
    params["norm.sigma"].data = (data.std(axis=(0, 1)) + NORM_EPS).astype(dt)


def backbone_forward(x, params, config):
    """(b, t, c) input -> (b, lstm_hidden) features.

    The input is standardized with norm.mu and norm.sigma, which every
    params dict holds (init_params builds them and load_checkpoint requires
    them).  Four valid convolutions along time with rectifier activations
    follow, then the LSTM stack; the final timestep's top hidden state is
    the feature vector.
    """
    if not isinstance(x, Tensor):
        x = Tensor(np.asarray(x, dtype=config.dtype))
    if x.data.ndim != 3 or x.shape[2] != config.c or x.shape[1] != config.t:
        raise InvalidInputError(f"expected (b, {config.t}, {config.c}) input, got {x.shape}")
    x = (x - params["norm.mu"]) * Tensor(1.0 / params["norm.sigma"].data)
    for i in range(config.conv_layers):
        x = conv1d(x, params[f"backbone.conv{i}.w"], params[f"backbone.conv{i}.b"]).relu()
    for i in range(config.lstm_layers):
        x = lstm(
            x,
            params[f"backbone.lstm{i}.wx"],
            params[f"backbone.lstm{i}.wh"],
            params[f"backbone.lstm{i}.b"],
        )
    return x[:, -1, :]


def mvf_forward(features, params, config):
    """(b, h) features -> (b, n, k) grouped logits via a single affine map."""
    if features.shape[1] != config.lstm_hidden:
        raise InvalidInputError("feature width does not match config")
    flat = features @ params["mvf.w"] + params["mvf.b"]
    return flat.reshape(features.shape[0], config.n, config.k)


def voting_forward(grouped, params, config):
    """Grouped logits -> final (b, k) logits.

    Each group is softmax-normalized (confidences, summing to one per view),
    the n groups are concatenated, and a 3-layer rectifier MLP votes.
    """
    if grouped.shape[1:] != (config.n, config.k):
        raise InvalidInputError("grouped logits shape does not match config")
    conf = softmax(grouped, axis=2)
    x = conf.reshape(grouped.shape[0], config.n * config.k)
    x = (x @ params["voting.fc0.w"] + params["voting.fc0.b"]).relu()
    x = (x @ params["voting.fc1.w"] + params["voting.fc1.b"]).relu()
    return x @ params["voting.fc2.w"] + params["voting.fc2.b"]


def heads_forward(features, params, config):
    """(b, h) features -> ((b, k) final logits, (b, n, k) grouped logits).

    The final logits come from the voting net, or are logit group 0 when the
    config has no voting net.
    """
    grouped = mvf_forward(features, params, config)
    if not config.voting:
        return grouped[:, 0, :], grouped
    return voting_forward(grouped, params, config), grouped


def full_forward(x, params, config):
    """(b, t, c) input -> ((b, k) final logits, (b, n, k) grouped logits):
    backbone_forward, then heads_forward."""
    return heads_forward(backbone_forward(x, params, config), params, config)


class Adam:
    """Standard Adam with bias correction over a fixed parameter list."""

    def __init__(self, params, lr=1e-3):
        self.params = list(params)
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()

    def step(self):
        self.t += 1
        for i, p in enumerate(self.params):
            g = p.grad
            if g is None:
                continue
            self.m[i] = ADAM_BETA1 * self.m[i] + (1 - ADAM_BETA1) * g
            self.v[i] = ADAM_BETA2 * self.v[i] + (1 - ADAM_BETA2) * g * g
            m_hat = self.m[i] / (1 - ADAM_BETA1 ** self.t)
            v_hat = self.v[i] / (1 - ADAM_BETA2 ** self.t)
            p.data -= (self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)).astype(p.data.dtype)


def params_by_prefix(params, *prefixes):
    return [t for name, t in sorted(params.items()) if name.startswith(prefixes)]


def save_checkpoint(path, config, params, seed, mode, windowing=None):
    """Write config, seed, pipeline mode, the windowing the data was cut with
    (a dict of warmup, stride and max_gap; not recorded when None) and every
    parameter to one .npz."""
    meta = {"config": asdict(config), "seed": seed, "mode": mode}
    if windowing is not None:
        meta["windowing"] = windowing
    arrays = {f"param:{name}": t.data for name, t in params.items()}
    np.savez(path, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8), **arrays)


def _windowing_ok(w):
    """Whether w is a windowing record as save_checkpoint's callers write it:
    warmup seconds finite and >= 0, stride an integer >= 1, max_gap an
    integer >= 0, and no other key."""
    if not isinstance(w, dict) or set(w) != {"warmup", "stride", "max_gap"}:
        return False
    warmup, stride, max_gap = w["warmup"], w["stride"], w["max_gap"]
    return (isinstance(warmup, numbers.Real) and not isinstance(warmup, bool)
            and 0.0 <= warmup < math.inf
            and _is_int(stride) and stride >= 1 and _is_int(max_gap) and max_gap >= 0)


def _layout(params):
    return {name: (t.shape, t.data.dtype) for name, t in params.items()}


def load_checkpoint(path):
    """(config, params, seed, mode, windowing); mode and windowing are None
    if the file records none.  A file that save_checkpoint did not write
    raises DataError, and so do parameters other than the names, shapes and
    dtypes init_params builds, and a malformed windowing record."""
    try:
        # np.load(path) would leave the file open when the archive is corrupt.
        with open(path, "rb") as fh, np.load(fh) as archive:
            meta = json.loads(archive["meta"].tobytes().decode())
            config = ModelConfig(**meta["config"])
            seed, mode, windowing = meta["seed"], meta.get("mode"), meta.get("windowing")
            params = {
                key[len("param:"):]: Tensor(archive[key], requires_grad=True)
                for key in archive.files if key.startswith("param:")
            }
        expected = _layout(init_params(config, 0))
    # ValueError: not .npz (read as pickle) or meta not JSON; EOFError: empty;
    # KeyError: no meta, or meta without config or seed; TypeError: a .npy
    # array, meta not an object, config fields missing, unknown or of the
    # wrong type; ConfigError: a config that ModelConfig rejects
    except (ValueError, EOFError, zipfile.BadZipFile, KeyError, TypeError, ConfigError) as exc:
        raise DataError(f"{path} is not a flowhar checkpoint archive") from exc
    if _layout(params) != expected:
        raise DataError(f"{path} is not a flowhar checkpoint: its parameters do not fit its config")
    if windowing is not None and not _windowing_ok(windowing):
        raise DataError(f"{path} is not a flowhar checkpoint: "
                        f"its windowing record {windowing!r} is malformed")
    return config, params, seed, mode, windowing

