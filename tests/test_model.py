"""MVFNet architecture, Adam, and checkpoint tests."""

import numpy as np
import pytest

from flowhar.autodiff import Tensor, softmax_cross_entropy
from flowhar.errors import ConfigError, DataError, InvalidInputError
from flowhar.model import (
    Adam,
    ModelConfig,
    backbone_forward,
    full_forward,
    init_params,
    load_checkpoint,
    mvf_forward,
    params_by_prefix,
    save_checkpoint,
    set_normalization,
    voting_forward,
)

from conftest import BAD_CHECKPOINTS, write_bad_checkpoint

TINY = dict(conv_layers=2, conv_filters=3, conv_kernel=3, lstm_layers=1,
            lstm_hidden=4, voting_hidden=5)


def tiny_config(t=9, c=4, k=3, n=2, dtype="float64", voting=True):
    return ModelConfig(t=t, c=c, k=k, n=n, dtype=dtype, voting=voting, **TINY)


class TestModelConfig:
    def test_window_too_short(self):
        with pytest.raises(ConfigError):
            ModelConfig(t=8, c=4, k=3, n=1)  # 4 conv layers at kernel 5 need t > 16

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"k": 1}, {"n": 0}, {"conv_filters": 0}, {"voting": False},
            {"conv_layers": 0}, {"conv_kernel": 0}, {"lstm_layers": 0},
            {"dtype": "int32"}, {"dtype": "float16"},
            {"conv_filters": "x"}, {"conv_filters": 2.5}, {"lstm_layers": True},
            {"voting": "no"}, {"voting": 1}, {"t": 64.0}, {"k": None}, {"voting_hidden": "8"},
            {"c": 0}, {"c": -3},
        ],
    )
    def test_validation(self, kwargs):
        base = dict(t=64, c=9, k=4, n=2)
        base.update(kwargs)
        with pytest.raises(ConfigError):
            ModelConfig(**base)


class TestForwardShapes:
    def test_backbone_shape(self):
        cfg = tiny_config()
        params = init_params(cfg, seed=0)
        x = np.random.default_rng(0).normal(size=(5, cfg.t, cfg.c))
        assert backbone_forward(x, params, cfg).shape == (5, cfg.lstm_hidden)

    def test_mvf_shape(self):
        cfg = tiny_config()
        params = init_params(cfg, seed=0)
        feats = Tensor(np.zeros((5, cfg.lstm_hidden)))
        assert mvf_forward(feats, params, cfg).shape == (5, cfg.n, cfg.k)

    def test_voting_shape(self):
        cfg = tiny_config()
        params = init_params(cfg, seed=0)
        grouped = Tensor(np.zeros((5, cfg.n, cfg.k)))
        assert voting_forward(grouped, params, cfg).shape == (5, cfg.k)

    def test_shape_mismatch_rejected(self):
        cfg = tiny_config()
        params = init_params(cfg, seed=0)
        with pytest.raises(InvalidInputError):
            backbone_forward(np.zeros((2, cfg.t, cfg.c + 1)), params, cfg)
        with pytest.raises(InvalidInputError):
            mvf_forward(Tensor(np.zeros((2, cfg.lstm_hidden + 1))), params, cfg)
        with pytest.raises(InvalidInputError):
            voting_forward(Tensor(np.zeros((2, cfg.n, cfg.k + 1))), params, cfg)

    def test_mvf_zero_weights_gives_bias(self):
        cfg = tiny_config()
        params = init_params(cfg, seed=0)
        params["mvf.w"].data[:] = 0.0
        grouped = mvf_forward(Tensor(np.ones((2, cfg.lstm_hidden))), params, cfg)
        expected = params["mvf.b"].data.reshape(cfg.n, cfg.k)
        assert np.allclose(grouped.data, expected[None])


class TestDeterminismAndEquivariance:
    def test_forward_determinism(self):
        cfg = tiny_config()
        x = np.random.default_rng(1).normal(size=(4, cfg.t, cfg.c))
        outs = []
        for _ in range(2):
            params = init_params(cfg, seed=3)
            logits, _ = full_forward(x, params, cfg)
            outs.append(logits.data.copy())
        assert np.array_equal(outs[0], outs[1])

    def test_batch_equivariance(self):
        cfg = tiny_config()
        params = init_params(cfg, seed=5)
        x = np.random.default_rng(2).normal(size=(6, cfg.t, cfg.c))
        perm = np.array([3, 0, 5, 1, 4, 2])
        logits_a, _ = full_forward(x, params, cfg)
        logits_b, _ = full_forward(x[perm], params, cfg)
        assert np.allclose(logits_a.data[perm], logits_b.data, atol=1e-12)


class TestNormalization:
    def test_set_normalization(self):
        cfg = tiny_config()
        params = init_params(cfg, seed=0)
        data = np.random.default_rng(3).normal(loc=5.0, scale=2.0, size=(8, cfg.t, cfg.c))
        set_normalization(params, data)
        assert np.allclose(params["norm.mu"].data, data.mean(axis=(0, 1)))
        standardized = (data - params["norm.mu"].data) / params["norm.sigma"].data
        assert np.allclose(standardized.mean(axis=(0, 1)), 0.0, atol=1e-9)

    def test_norm_params_not_trainable(self):
        cfg = tiny_config()
        params = init_params(cfg, seed=0)
        assert not params["norm.mu"].requires_grad
        assert not params["norm.sigma"].requires_grad
        trained = params_by_prefix(params, "backbone.", "mvf.", "voting.")
        assert params["norm.mu"] not in trained


class TestFullGradient:
    def test_composed_forward_fd_check(self):
        cfg = tiny_config()
        params = init_params(cfg, seed=7)
        rng = np.random.default_rng(8)
        x = rng.normal(size=(3, cfg.t, cfg.c))
        labels = np.array([0, 2, 1])

        def loss_all():
            logits, grouped = full_forward(x, params, cfg)
            return softmax_cross_entropy(logits, labels) + softmax_cross_entropy(
                grouped.reshape(3 * cfg.n, cfg.k),
                np.tile(labels[:, None], (1, cfg.n)).reshape(-1),
            )

        loss = loss_all()
        for p in params.values():
            p.zero_grad()
        loss.backward()

        worst = 0.0
        for name in ("backbone.conv0.w", "backbone.lstm0.wx", "backbone.lstm0.wh",
                     "mvf.w", "voting.fc0.w", "voting.fc2.b"):
            p = params[name]
            flat = p.data.reshape(-1)
            idx = rng.choice(flat.size, size=min(6, flat.size), replace=False)
            for i in idx:
                orig = flat[i]
                eps = 1e-6
                flat[i] = orig + eps
                fp = float(loss_all().data)
                flat[i] = orig - eps
                fm = float(loss_all().data)
                flat[i] = orig
                numeric = (fp - fm) / (2 * eps)
                analytic = p.grad.reshape(-1)[i]
                denom = max(abs(analytic) + abs(numeric), 1e-8)
                worst = max(worst, abs(analytic - numeric) / denom)
        assert worst < 1e-4


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        p = Tensor(np.ones(4), requires_grad=True)
        opt = Adam([p], lr=0.1)
        before = p.data.copy()
        opt.step()  # grad is None
        assert np.array_equal(p.data, before)

    def test_first_step_is_lr_times_sign(self):
        rng = np.random.default_rng(9)
        p = Tensor(rng.normal(size=6), requires_grad=True)
        g = rng.normal(size=6)
        p.grad = g.copy()
        before = p.data.copy()
        opt = Adam([p], lr=1e-3)
        opt.step()
        delta = p.data - before
        assert np.allclose(delta, -1e-3 * np.sign(g), rtol=1e-6)

    def test_determinism(self):
        results = []
        for _ in range(2):
            p = Tensor(np.arange(4.0), requires_grad=True)
            opt = Adam([p], lr=0.01)
            for step in range(3):
                p.grad = np.full(4, 0.5)
                opt.step()
            results.append(p.data.copy())
        assert np.array_equal(results[0], results[1])


class TestNoVotingHead:
    def test_no_voting_params(self):
        with_voting = init_params(tiny_config(n=1), seed=0)
        without = init_params(tiny_config(n=1, voting=False), seed=0)
        assert set(with_voting) - set(without) == {
            name for name in with_voting if name.startswith("voting.")
        }
        # the voting net is drawn last, so every other stage starts the same
        for name, t in without.items():
            assert np.array_equal(t.data, with_voting[name].data)

    def test_final_logits_are_group_zero(self):
        cfg = tiny_config(n=1, voting=False)
        params = init_params(cfg, seed=0)
        x = np.random.default_rng(0).normal(size=(5, cfg.t, cfg.c))
        logits, grouped = full_forward(x, params, cfg)
        assert logits.shape == (5, cfg.k)
        assert np.array_equal(logits.data, grouped.data[:, 0, :])


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        # mode and windowing None are what a file written without them loads as
        windowing = {"warmup": 3.0, "stride": 16, "max_gap": 5}
        for voting, n, mode, win in ((True, 2, "flow", windowing), (False, 1, None, None)):
            cfg = tiny_config(n=n, dtype="float32", voting=voting)
            params = init_params(cfg, seed=11)
            path = tmp_path / f"model_{voting}.npz"
            save_checkpoint(path, cfg, params, seed=11, mode=mode, windowing=win)
            cfg2, params2, seed2, mode2, win2 = load_checkpoint(path)
            assert cfg2 == cfg and seed2 == 11 and mode2 == mode and win2 == win
            assert set(params2) == set(params)
            for name in params:
                assert np.array_equal(params[name].data, params2[name].data)
                assert params[name].data.dtype == params2[name].data.dtype

    @pytest.mark.parametrize("case", BAD_CHECKPOINTS)
    def test_file_save_checkpoint_did_not_write(self, tmp_path, case):
        path = tmp_path / "bad.npz"
        write_bad_checkpoint(path, case, tiny_config(dtype="float32"))
        with pytest.raises(DataError, match="is not a flowhar checkpoint"):
            load_checkpoint(path)


class TestParamsByPrefix:
    def test_prefix_selection(self):
        cfg = tiny_config()
        params = init_params(cfg, seed=0)
        voting = params_by_prefix(params, "voting.")
        assert len(voting) == 6  # three affine layers
        everything = params_by_prefix(params, "backbone.", "mvf.", "voting.")
        assert len(everything) == len(params) - 2  # excludes norm.mu / norm.sigma
