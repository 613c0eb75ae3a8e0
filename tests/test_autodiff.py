"""Finite-difference and closed-form checks of the reverse-mode core."""

import math
import warnings

import numpy as np
import pytest

from conftest import fd_grad, max_rel_err
from flowhar.autodiff import Tensor, conv1d, lstm, softmax, softmax_cross_entropy
from flowhar.errors import InvalidInputError

TOL = 1e-6


def check_grad(build, shape, seed=0, tol=TOL):
    """Compare analytic input gradient of scalar-valued `build` against
    central finite differences at float64."""
    rng = np.random.default_rng(seed)
    x0 = rng.normal(size=shape)

    def scalar(x):
        return float(build(Tensor(x.copy(), requires_grad=True)).data)

    t = Tensor(x0.copy(), requires_grad=True)
    out = build(t)
    out.backward()
    numeric = fd_grad(scalar, x0)
    assert max_rel_err(t.grad, numeric) < tol


class TestElementwise:
    def test_add_grad(self):
        check_grad(lambda t: (t + 2.5).sum(), (3, 4))

    def test_mul_grad(self):
        other = Tensor(np.random.default_rng(1).normal(size=(3, 4)))
        check_grad(lambda t: (t * other).sum(), (3, 4))

    def test_broadcast_add_grad(self):
        bias = Tensor(np.random.default_rng(2).normal(size=(4,)), requires_grad=True)
        t = Tensor(np.random.default_rng(3).normal(size=(3, 4)), requires_grad=True)
        (t + bias).sum().backward()
        assert bias.grad.shape == (4,)
        assert np.allclose(bias.grad, 3.0)

    def test_sub_neg(self):
        check_grad(lambda t: (-(t - 1.0) * 2.0).sum(), (5,))

    def test_diamond_graph_accumulates(self):
        # y = x*x + x: gradient 2x + 1
        x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        y = (x * x + x).sum()
        y.backward()
        assert np.allclose(x.grad, 2 * x.data + 1)


class TestMatmulAndShape:
    def test_matmul_grad(self):
        w = Tensor(np.random.default_rng(4).normal(size=(4, 2)), requires_grad=True)
        check_grad(lambda t: (t @ w).sum(), (3, 4))

    def test_matmul_weight_grad(self):
        x0 = np.random.default_rng(5).normal(size=(3, 4))
        w = Tensor(np.random.default_rng(6).normal(size=(4, 2)), requires_grad=True)
        (Tensor(x0) @ w).sum().backward()
        numeric = fd_grad(lambda wv: float((x0 @ wv).sum()), w.data)
        assert max_rel_err(w.grad, numeric) < TOL

    def test_reshape_grad(self):
        check_grad(lambda t: (t.reshape(6) * np.arange(6.0)).sum(), (2, 3))

    def test_getitem_grad(self):
        check_grad(lambda t: (t[:, 1] * 3.0).sum(), (4, 3))

    def test_getitem_grad_basic_keys(self):
        check_grad(lambda t: (t[1:3, -1] * 3.0).sum(), (4, 3))
        check_grad(lambda t: (t[np.int64(2)] * 3.0).sum(), (4, 3))
        check_grad(lambda t: (t[..., None, 0:2] * 3.0).sum(), (4, 3))
        # overlapping slices: each slice's gradient is added once
        x = Tensor(np.zeros(4), requires_grad=True)
        (x[0:3] + x[1:4]).sum().backward()
        assert x.grad.tolist() == [1.0, 2.0, 2.0, 1.0]

    @pytest.mark.parametrize("key", [
        [0, 0], np.array([0, 0]), np.array([True, False, True, False]),
        (slice(None), [1]), True,
    ], ids=["list", "int_array", "bool_array", "list_in_tuple", "bool"])
    def test_getitem_rejects_advanced_keys(self, key):
        # A repeated index would need np.add.at in the backward; the model
        # never indexes that way, so such keys are refused.
        t = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
        with pytest.raises(InvalidInputError, match="Tensor index"):
            t[key]


class TestNonlinearities:
    def test_relu_grad(self):
        check_grad(lambda t: t.relu().sum(), (4, 4), seed=11)

    def test_sigmoid_grad(self):
        check_grad(lambda t: t.sigmoid().sum(), (4, 4), seed=12)

    def test_sigmoid_saturates_without_overflow(self):
        x = Tensor(np.array([-1000.0, 1000.0], dtype=np.float32), requires_grad=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            y = x.sigmoid()
            y.sum().backward()
        assert y.data.tolist() == [0.0, 1.0]
        assert x.grad.tolist() == [0.0, 0.0]

    def test_tanh_grad(self):
        check_grad(lambda t: t.tanh().sum(), (4, 4), seed=13)


class TestSoftmax:
    def test_rows_sum_to_one(self):
        y = softmax(Tensor(np.random.default_rng(14).normal(size=(3, 2, 5))), axis=2)
        assert np.allclose(y.data.sum(axis=2), 1.0, atol=1e-9)

    def test_grad(self):
        sel = Tensor(np.random.default_rng(15).normal(size=(3, 5)))
        check_grad(lambda t: (softmax(t, axis=1) * sel).sum(), (3, 5), seed=16)


class TestSoftmaxCrossEntropy:
    def test_uniform_logits_closed_form(self):
        loss = softmax_cross_entropy(Tensor(np.zeros((2, 4))), np.array([0, 3]))
        assert abs(float(loss.data) - math.log(4)) < 1e-12

    def test_confident_correct_goes_to_zero(self):
        logits = np.full((1, 3), -50.0)
        logits[0, 1] = 50.0
        loss = softmax_cross_entropy(Tensor(logits), np.array([1]))
        assert float(loss.data) < 1e-12

    def test_gradient_closed_form(self):
        rng = np.random.default_rng(17)
        logits = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        labels = np.array([0, 2, 1, 2])
        softmax_cross_entropy(logits, labels).backward()
        z = logits.data - logits.data.max(axis=1, keepdims=True)
        p = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
        p[np.arange(4), labels] -= 1.0
        assert np.allclose(logits.grad, p / 4, atol=1e-12)

    def test_gradient_fd(self):
        labels = np.array([1, 0, 2])
        check_grad(lambda t: softmax_cross_entropy(t, labels), (3, 4), seed=18)

    def test_label_out_of_range(self):
        with pytest.raises(InvalidInputError):
            softmax_cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 3]))

    def test_label_shape(self):
        with pytest.raises(InvalidInputError):
            softmax_cross_entropy(Tensor(np.zeros((2, 3))), np.array([0]))


class TestConv1d:
    def _naive(self, x, w, b):
        kernel, c_in, c_out = w.shape
        batch, t, _ = x.shape
        out = np.zeros((batch, t - kernel + 1, c_out))
        for i in range(batch):
            for to in range(t - kernel + 1):
                for co in range(c_out):
                    out[i, to, co] = b[co] + np.sum(x[i, to:to + kernel, :] * w[:, :, co])
        return out

    def test_forward_matches_naive(self):
        rng = np.random.default_rng(19)
        x = rng.normal(size=(2, 7, 3))
        w = rng.normal(size=(4, 3, 5))
        b = rng.normal(size=(5,))
        out = conv1d(Tensor(x), Tensor(w), Tensor(b))
        assert np.allclose(out.data, self._naive(x, w, b), atol=1e-12)

    def test_input_grad(self):
        w = Tensor(np.random.default_rng(20).normal(size=(3, 2, 4)))
        b = Tensor(np.zeros(4))
        check_grad(lambda t: conv1d(t, w, b).sum(), (2, 6, 2), seed=21)

    def test_weight_and_bias_grad(self):
        rng = np.random.default_rng(22)
        x = Tensor(rng.normal(size=(2, 6, 2)))
        w = Tensor(rng.normal(size=(3, 2, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4,)), requires_grad=True)
        conv1d(x, w, b).sum().backward()
        numeric_w = fd_grad(
            lambda wv: float(self._naive(x.data, wv, b.data).sum()), w.data
        )
        numeric_b = fd_grad(
            lambda bv: float(self._naive(x.data, w.data, bv).sum()), b.data
        )
        assert max_rel_err(w.grad, numeric_w) < TOL
        assert max_rel_err(b.grad, numeric_b) < TOL

    def test_too_short_window(self):
        with pytest.raises(InvalidInputError):
            conv1d(Tensor(np.zeros((1, 2, 3))), Tensor(np.zeros((5, 3, 2))), Tensor(np.zeros(2)))


class TestGraphMechanics:
    def test_detach_blocks_gradient(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = (x * 2.0).detach()
        z = (y * 3.0).sum()
        z.backward()
        assert x.grad is None

    def test_backward_needs_scalar(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(InvalidInputError):
            (x * 2.0).backward()

    def test_no_graph_for_constants(self):
        a = Tensor(np.ones(3))
        b = Tensor(np.ones(3))
        assert (a + b)._parents == ()


class TestMixedInputs:
    """An input that needs no gradient gets none, and every input that needs
    one gets, bit for bit, what it gets when all inputs are trainable."""

    @staticmethod
    def _grads(op, arrays, trainable):
        inputs = [Tensor(a.copy(), requires_grad=k in trainable) for k, a in enumerate(arrays)]
        out = op(*inputs)
        weight = np.random.default_rng(30).normal(size=out.shape).astype(out.dtype)
        (out * Tensor(weight)).sum().backward()
        return [t.grad for t in inputs]

    @pytest.mark.parametrize("op, shapes, constant", [
        (lambda a, b: a + b, [(3, 4), (4,)], 0),
        (lambda a, b: a + b, [(3, 4), (4,)], 1),
        (lambda a, b: a * b, [(3, 4), (4,)], 0),
        (lambda a, b: a * b, [(3, 4), (4,)], 1),
        (lambda a, b: a @ b, [(3, 4), (4, 2)], 0),
        (lambda a, b: a @ b, [(3, 4), (4, 2)], 1),
        (conv1d, [(2, 7, 3), (3, 3, 5), (5,)], 0),
        (lstm, [(2, 5, 3), (3, 8), (2, 8), (8,)], 0),
    ], ids=["add_const_left", "add_const_right", "mul_const_left", "mul_const_right",
            "matmul_const_left", "matmul_const_right", "conv1d_const_x", "lstm_const_x"])
    def test_constant_input_gets_no_gradient(self, op, shapes, constant):
        rng = np.random.default_rng(31)
        arrays = [rng.normal(size=shape).astype(np.float32) for shape in shapes]
        every = range(len(arrays))
        full = self._grads(op, arrays, every)
        mixed = self._grads(op, arrays, [k for k in every if k != constant])
        assert mixed[constant] is None
        for k in every:
            if k != constant:
                assert mixed[k].dtype == full[k].dtype
                assert mixed[k].tobytes() == full[k].tobytes()
