"""Minimal reverse-mode automatic differentiation over numpy arrays.

The network uses broadcasting add, subtract and multiply, matmul, relu,
reshape, basic indexing, a 1-d valid convolution along the time axis, a
whole LSTM layer as one op with its backprop through time written out,
softmax, and a fused softmax cross-entropy.  sigmoid, tanh and sum stay as
building blocks: tests/test_lstm.py builds its per-step reference LSTM graph
from them, and the finite-difference checks reduce their outputs with sum.
Graphs are built eagerly; backward() runs a topological sweep.

Every op is a forward value plus a vector-Jacobian product: `vjp(g, need)`
returns one gradient per input, None where `need` flags that input as
needing none.  `_node` alone sets the flags, records the flagged inputs and
adds their gradients to `.grad`.  An op whose inputs need no gradient
records no graph, so a forward pass on detached parameters is plain NumPy
plus one Tensor per op.
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

    def backward(self):
        if self.data.size != 1:
            raise InvalidInputError("backward() needs a scalar output")
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
        self._accumulate(np.ones_like(self.data))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # -- elementwise -------------------------------------------------------

    def __add__(self, other):
        other = _as_tensor(other, self.dtype)

        def vjp(g, need):
            return (_unbroadcast(g, self.data.shape) if need[0] else None,
                    _unbroadcast(g, other.data.shape) if need[1] else None)
        return _node(self.data + other.data, (self, other), vjp)

    def __mul__(self, other):
        other = _as_tensor(other, self.dtype)

        def vjp(g, need):
            return (_unbroadcast(g * other.data, self.data.shape) if need[0] else None,
                    _unbroadcast(g * self.data, other.data.shape) if need[1] else None)
        return _node(self.data * other.data, (self, other), vjp)

    def __neg__(self):
        return self * (-1.0)

    def __sub__(self, other):
        return self + (-_as_tensor(other, self.dtype))

    # -- linear algebra ----------------------------------------------------

    def matmul(self, other):
        def vjp(g, need):
            return (g @ other.data.T if need[0] else None,
                    self.data.T @ g if need[1] else None)
        return _node(self.data @ other.data, (self, other), vjp)

    __matmul__ = matmul

    # -- nonlinearities ----------------------------------------------------

    def relu(self):
        mask = self.data > 0
        return _node(self.data * mask, (self,), lambda g, need: (g * mask,))

    def sigmoid(self):
        y = _sigmoid(self.data)
        return _node(y, (self,), lambda g, need: (g * y * (1.0 - y),))

    def tanh(self):
        y = np.tanh(self.data)
        return _node(y, (self,), lambda g, need: (g * (1.0 - y * y),))

    # -- shape ops ---------------------------------------------------------

    def reshape(self, *shape):
        old = self.data.shape
        return _node(self.data.reshape(*shape), (self,), lambda g, need: (g.reshape(old),))

    def __getitem__(self, key):
        # Basic keys only: they never select an element twice, so the
        # backward's `full[key] += g` adds every gradient entry exactly once.
        for part in key if isinstance(key, tuple) else (key,):
            if not _basic_index(part):
                raise InvalidInputError(
                    f"Tensor index must be ints, slices, Ellipsis or None, not {part!r}")

        def vjp(g, need):
            full = np.zeros_like(self.data)
            full[key] += g
            return (full,)
        return _node(self.data[key], (self,), vjp)

    def sum(self):
        return _node(self.data.sum(), (self,),
                     lambda g, need: (np.broadcast_to(g, self.data.shape),))


def _basic_index(part):
    if part is None or part is Ellipsis or isinstance(part, slice):
        return True
    return isinstance(part, (int, np.integer)) and not isinstance(part, bool)


def _needs_graph(t):
    return bool(t.requires_grad or t._parents)


def _node(data, parents, vjp):
    """Wrap an op's output and wire it into the graph.  The one place that
    decides, at forward time, which inputs need a gradient: those that
    require one or have parents.  If none does, the output has no graph;
    otherwise it records them, and its backward adds `vjp(g, need)[i]` to
    each needed input's `.grad`."""
    out = Tensor(data)
    need = tuple(_needs_graph(p) for p in parents)
    if any(need):
        out._parents = tuple(p for p, n in zip(parents, need) if n)

        def backward(g):
            for p, n, grad in zip(parents, need, vjp(g, need)):
                if n:
                    p._accumulate(grad)
        out._backward = backward
    return out


def _as_tensor(value, dtype):
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=dtype))


def softmax(t, axis=-1):
    z = t.data - t.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=axis, keepdims=True)

    def vjp(g, need):
        dot = (g * y).sum(axis=axis, keepdims=True)
        return (y * (g - dot),)
    return _node(y, (t,), vjp)


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

    def vjp(g, need):
        grad = p.copy()
        grad[np.arange(b), labels] -= 1.0
        return (g * grad / b,)
    return _node(np.asarray(nll.mean(), dtype=logits.dtype), (logits,), vjp)


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

    def vjp(g, need):
        g2 = g.reshape(batch * t_out, c_out)
        gx = gw = None
        if need[0]:  # the col2im scatter; the first layer's data skips it
            gcols = (g2 @ w2.T).reshape(batch, t_out, kernel, c_in)
            gx = np.zeros_like(x.data)
            for kk in range(kernel):
                gx[:, kk:kk + t_out, :] += gcols[:, :, kk, :]
        if need[1]:
            cols2 = cols.reshape(batch * t_out, kernel * c_in)
            gw = (cols2.T @ g2).reshape(kernel, c_in, c_out)
        return gx, gw, g.sum(axis=(0, 1)) if need[2] else None
    return _node(cols @ w2 + b.data, (x, w, b), vjp)


def lstm(x, wx, wh, b):
    """One 4-gate LSTM layer over a whole sequence, from zero initial states.

    x: (batch, t, in), wx: (in, 4 * hidden), wh: (hidden, 4 * hidden),
    b: (4 * hidden,), gate order input, forget, cell, output.
    Output: the hidden state of every step, (batch, t, hidden), in the
    result dtype of the four inputs.

    Each step computes z = x_t @ wx + h @ wh + b, then the gates, c and h,
    with the same arithmetic in the same order as a graph of per-step
    elementwise ops, so values and gradients equal that graph's bit for bit
    when each weight feeds this one op, as every weight of the network does.
    A step makes 15 NumPy calls: one sigmoid runs over all four gates'
    pre-activations, the cell gate's share is then overwritten by its tanh,
    and the states are updated in place.  Few calls matter because each
    releases the GIL, and a thread of predict_batch that comes back from one
    while another thread holds the GIL sleeps until it is released, for as
    long as the host takes to wake it.

    When an input needs a gradient, step k writes its gates, cell state and
    tanh(c) into slot k of buffers that span the sequence; otherwise every
    step reuses one slot.  The backward pass is backprop through time from
    the last step to the first, reading those slots.  The gradients of wx,
    wh and b start from zero and take one step's term at a time, in that
    order, as the per-step graph adds them into `.grad`; `_node` then adds
    each sum once.  Onto a `.grad` that is still None that add is exact, and
    a sum started from +0.0 is never -0.0, so the bits are the per-step
    graph's.  A weight shared by two `lstm` ops receives one sum per op, and
    may differ from the per-step graph's interleaved sum by rounding.
    """
    xd, wxd, whd, bd = x.data, wx.data, wh.data, b.data
    record = any(_needs_graph(t) for t in (x, wx, wh, b))
    batch, steps, _ = xd.shape
    hidden = whd.shape[0]
    s1, s2, s3 = hidden, 2 * hidden, 3 * hidden
    dtype = np.result_type(xd, wxd, whd, bd)
    slots = steps if record else 1
    # Allocated once per layer, so the steps make no blocks to fragment the
    # heap.  gates[k] holds i, f, g and o as contiguous (batch, hidden)
    # blocks: at criterion 7's widths, a layer's forward and backward took
    # about 10% longer on row slices of one (batch, 4 * hidden) block.
    # When recording, cs[k] is the cell state before step k and cs[k + 1]
    # the one after it; otherwise both are cs[0].
    gates = np.empty((slots, 4, batch, hidden), dtype=dtype)
    cs = np.zeros((slots + 1 if record else 1, batch, hidden), dtype=dtype)
    tcs = np.empty((slots, batch, hidden), dtype=dtype)
    z, hw = (np.empty((batch, 4 * hidden), dtype=dtype) for _ in range(2))
    z_by_gate = z.reshape(batch, 4, hidden).transpose(1, 0, 2)
    h = np.zeros((batch, hidden), dtype=dtype)
    ig = np.empty_like(h)
    hs = np.empty((batch, steps, hidden), dtype=dtype)
    with np.errstate(over="ignore"):  # see _sigmoid on the overflow
        for step in range(steps):
            k = step if record else 0
            gate, tc, c_prev = gates[k], tcs[k], cs[k]
            c = cs[k + 1] if record else c_prev
            i, f, g, o = gate
            np.matmul(xd[:, step, :], wxd, out=z)
            z += np.matmul(h, whd, out=hw)
            z += bd
            np.negative(z_by_gate, out=gate)
            np.exp(gate, out=gate)
            gate += 1.0
            np.divide(1.0, gate, out=gate)
            np.tanh(z_by_gate[2], out=g)
            np.multiply(c_prev, f, out=c)
            np.multiply(g, i, out=ig)
            c += ig
            np.tanh(c, out=tc)
            np.multiply(o, tc, out=h)
            hs[:, step, :] = h

    def vjp(gout, need):
        dx = np.empty_like(xd) if need[0] else None
        dwx, dwh, db = (np.zeros_like(a) if n else None for a, n in zip((wxd, whd, bd), need[1:]))
        dh_rec = dc_rec = None
        for step in range(steps - 1, -1, -1):
            i, f, g, o = gates[step]
            c_prev, tc = cs[step], tcs[step]
            h_prev = hs[:, step - 1, :] if step else np.zeros_like(h)
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
            if dwx is not None:
                dwx += xd[:, step, :].T @ dz
            if dwh is not None:
                dwh += h_prev.T @ dz
            if db is not None:
                db += dz.sum(axis=0)
        return dx, dwx, dwh, db
    return _node(hs, (x, wx, wh, b), vjp)
