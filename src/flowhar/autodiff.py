"""Minimal reverse-mode automatic differentiation over numpy arrays.

Only the operations the network actually uses are provided: elementwise
arithmetic, matmul, the three nonlinearities, shape ops, concat, a 1-d valid
convolution along the time axis, a whole LSTM layer as one op with its
backprop through time written out, softmax, and a fused softmax
cross-entropy.  Graphs are built eagerly; backward() runs a topological
sweep.  An op whose inputs need no gradient records no graph, so a forward
pass on detached parameters is plain NumPy plus one Tensor per op.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError


def _sigmoid(a):
    # For very negative a, exp(-a) overflows to inf and 1 / (1 + inf) gives
    # the right limit, 0, so the overflow is harmless.
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-a))


def _unbroadcast(grad, shape):
    """Sum `grad` down to `shape` (reverse of numpy broadcasting)."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def detach(self):
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self):
        self.grad = None

    def _accumulate(self, grad):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += grad

    def backward(self, grad=None):
        if grad is None:
            if self.data.size != 1:
                raise InvalidInputError("backward() without a gradient needs a scalar output")
            grad = np.ones_like(self.data)
        topo = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self._accumulate(np.asarray(grad, dtype=self.data.dtype))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # -- elementwise -------------------------------------------------------

    def __add__(self, other):
        other = _as_tensor(other, self.dtype)
        out = _node(self.data + other.data, (self, other))
        if out._parents:
            def backward(g):
                if self.requires_grad or self._parents:
                    self._accumulate(_unbroadcast(g, self.data.shape))
                if other.requires_grad or other._parents:
                    other._accumulate(_unbroadcast(g, other.data.shape))
            out._backward = backward
        return out

    def __mul__(self, other):
        other = _as_tensor(other, self.dtype)
        out = _node(self.data * other.data, (self, other))
        if out._parents:
            def backward(g):
                if self.requires_grad or self._parents:
                    self._accumulate(_unbroadcast(g * other.data, self.data.shape))
                if other.requires_grad or other._parents:
                    other._accumulate(_unbroadcast(g * self.data, other.data.shape))
            out._backward = backward
        return out

    __radd__ = __add__
    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1.0)

    def __sub__(self, other):
        return self + (-_as_tensor(other, self.dtype))

    # -- linear algebra ----------------------------------------------------

    def matmul(self, other):
        out = _node(self.data @ other.data, (self, other))
        if out._parents:
            def backward(g):
                if self.requires_grad or self._parents:
                    self._accumulate(g @ other.data.T)
                if other.requires_grad or other._parents:
                    other._accumulate(self.data.T @ g)
            out._backward = backward
        return out

    __matmul__ = matmul

    # -- nonlinearities ----------------------------------------------------

    def relu(self):
        mask = self.data > 0
        out = _node(self.data * mask, (self,))
        if out._parents:
            out._backward = lambda g: self._accumulate(g * mask)
        return out

    def sigmoid(self):
        y = _sigmoid(self.data)
        out = _node(y, (self,))
        if out._parents:
            out._backward = lambda g: self._accumulate(g * y * (1.0 - y))
        return out

    def tanh(self):
        y = np.tanh(self.data)
        out = _node(y, (self,))
        if out._parents:
            out._backward = lambda g: self._accumulate(g * (1.0 - y * y))
        return out

    # -- shape ops ---------------------------------------------------------

    def reshape(self, *shape):
        old = self.data.shape
        out = _node(self.data.reshape(*shape), (self,))
        if out._parents:
            out._backward = lambda g: self._accumulate(g.reshape(old))
        return out

    def __getitem__(self, key):
        out = _node(self.data[key], (self,))
        if out._parents:
            def backward(g):
                full = np.zeros_like(self.data)
                np.add.at(full, key, g)
                self._accumulate(full)
            out._backward = backward
        return out

    def sum(self):
        out = _node(self.data.sum(), (self,))
        if out._parents:
            out._backward = lambda g: self._accumulate(np.broadcast_to(g, self.data.shape).copy())
        return out

    def mean(self):
        n = self.data.size
        out = _node(self.data.mean(), (self,))
        if out._parents:
            out._backward = lambda g: self._accumulate(
                np.broadcast_to(g / n, self.data.shape).copy()
            )
        return out


def _needs_graph(t):
    return t.requires_grad or t._parents


def _node(data, parents):
    out = Tensor(data)
    out._parents = tuple(p for p in parents if _needs_graph(p))
    return out


def _as_tensor(value, dtype):
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=dtype))


def concat(tensors, axis):
    data = np.concatenate([t.data for t in tensors], axis=axis)
    out = _node(data, tuple(tensors))
    if out._parents:
        sizes = [t.data.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)

        def backward(g):
            for t, a, b in zip(tensors, offsets[:-1], offsets[1:]):
                if _needs_graph(t):
                    idx = [slice(None)] * g.ndim
                    idx[axis] = slice(a, b)
                    t._accumulate(g[tuple(idx)])
        out._backward = backward
    return out


def softmax(t, axis=-1):
    z = t.data - t.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=axis, keepdims=True)
    out = _node(y, (t,))
    if out._parents:
        def backward(g):
            dot = (g * y).sum(axis=axis, keepdims=True)
            t._accumulate(y * (g - dot))
        out._backward = backward
    return out


def softmax_cross_entropy(logits, labels):
    """Mean over the batch of -log softmax(logits)[label].

    logits: (b, k) tensor, labels: (b,) integer class indices.
    Returns a scalar tensor; the analytic gradient is (softmax - onehot) / b.
    """
    labels = np.asarray(labels)
    b, k = logits.data.shape
    if labels.shape != (b,):
        raise InvalidInputError("labels must be one class index per row")
    if labels.min() < 0 or labels.max() >= k:
        raise InvalidInputError("label out of range")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=1, keepdims=True)
    nll = -(z[np.arange(b), labels] - np.log(e.sum(axis=1)))
    out = _node(np.asarray(nll.mean(), dtype=logits.dtype), (logits,))
    if out._parents:
        def backward(g):
            grad = p.copy()
            grad[np.arange(b), labels] -= 1.0
            logits._accumulate(g * grad / b)
        out._backward = backward
    return out


def conv1d(x, w, b):
    """Valid 1-d convolution along the time axis.

    x: (batch, t, c_in), w: (kernel, c_in, c_out), b: (c_out,).
    Output: (batch, t - kernel + 1, c_out).
    """
    kernel, c_in, c_out = w.data.shape
    batch, t, _ = x.data.shape
    t_out = t - kernel + 1
    if t_out < 1:
        raise InvalidInputError("window shorter than convolution kernel")
    cols = np.lib.stride_tricks.sliding_window_view(x.data, kernel, axis=1)
    # cols: (batch, t_out, c_in, kernel) -> (batch, t_out, kernel * c_in)
    cols = cols.transpose(0, 1, 3, 2).reshape(batch, t_out, kernel * c_in)
    w2 = w.data.reshape(kernel * c_in, c_out)
    out = _node(cols @ w2 + b.data, (x, w, b))
    if out._parents:
        def backward(g):
            if _needs_graph(b):
                b._accumulate(g.sum(axis=(0, 1)))
            g2 = g.reshape(batch * t_out, c_out)
            if _needs_graph(w):
                cols2 = cols.reshape(batch * t_out, kernel * c_in)
                w._accumulate((cols2.T @ g2).reshape(kernel, c_in, c_out))
            if _needs_graph(x):
                gcols = (g2 @ w2.T).reshape(batch, t_out, kernel, c_in)
                gx = np.zeros_like(x.data)
                for kk in range(kernel):
                    gx[:, kk:kk + t_out, :] += gcols[:, :, kk, :]
                x._accumulate(gx)
        out._backward = backward
    return out


def lstm(x, wx, wh, b):
    """One 4-gate LSTM layer over a whole sequence, from zero initial states.

    x: (batch, t, in), wx: (in, 4 * hidden), wh: (hidden, 4 * hidden),
    b: (4 * hidden,), gate order input, forget, cell, output.
    Output: the hidden state of every step, (batch, t, hidden).

    Each step computes z = x_t @ wx + h @ wh + b, then the gates, c and h,
    with the same arithmetic in the same order as a graph of per-step
    elementwise ops, so values and gradients equal that graph's bit for bit.
    The backward pass is backprop through time from the last step to the
    first; wx, wh and b take one step's gradient at a time, in that order.
    """
    xd, wxd, whd, bd = x.data, wx.data, wh.data, b.data
    batch, steps, _ = xd.shape
    hidden = whd.shape[0]
    s1, s2, s3 = hidden, 2 * hidden, 3 * hidden
    h = np.zeros((batch, hidden), dtype=xd.dtype)
    c = np.zeros_like(h)
    record = any(_needs_graph(t) for t in (x, wx, wh, b))
    hs, cache = [], []
    for step in range(steps):
        z = xd[:, step, :] @ wxd + h @ whd + bd
        i = _sigmoid(z[:, 0:s1])
        f = _sigmoid(z[:, s1:s2])
        g = np.tanh(z[:, s2:s3])
        o = _sigmoid(z[:, s3:])
        h_prev, c_prev = h, c
        c = f * c + i * g
        tc = np.tanh(c)
        h = o * tc
        if record:
            cache.append((h_prev, c_prev, i, f, g, o, tc))
        hs.append(h)
    out = _node(np.stack(hs, axis=1), (x, wx, wh, b))
    if out._parents:
        def backward(gout):
            dx = np.empty_like(xd) if _needs_graph(x) else None
            dh_rec = dc_rec = None
            for step in range(steps - 1, -1, -1):
                h_prev, c_prev, i, f, g, o, tc = cache[step]
                dh = gout[:, step, :]
                if dh_rec is not None:
                    dh = dh + dh_rec
                dc = (dh * o) * (1.0 - tc * tc)
                if dc_rec is not None:
                    dc = dc + dc_rec
                dz = np.empty((batch, 4 * hidden), dtype=dc.dtype)
                dz[:, 0:s1] = (dc * g) * i * (1.0 - i)
                dz[:, s1:s2] = (dc * c_prev) * f * (1.0 - f)
                dz[:, s2:s3] = (dc * i) * (1.0 - g * g)
                dz[:, s3:] = (dh * tc) * o * (1.0 - o)
                dh_rec = dz @ whd.T
                dc_rec = dc * f
                if dx is not None:
                    dx[:, step, :] = dz @ wxd.T
                if _needs_graph(wx):
                    wx._accumulate(xd[:, step, :].T @ dz)
                if _needs_graph(wh):
                    wh._accumulate(h_prev.T @ dz)
                if _needs_graph(b):
                    b._accumulate(dz.sum(axis=0))
            if dx is not None:
                x._accumulate(dx)
        out._backward = backward
    return out
