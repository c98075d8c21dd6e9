"""Dense tensors with reverse-mode automatic differentiation.

A thin tape over numpy arrays: every op returns a new :class:`Tensor` and,
when gradients are enabled and any input requires them, records a graph
node apart from that Tensor.  The node holds its parents' nodes (None for
an input that takes no gradient), its backward closure and a weak
reference to its output, so the graph never keeps a Tensor, nor its
values, alive: an activation lives only as long as the caller holds it or
a backward closure captured it.  Each closure captures exactly the arrays
it reads, plus its inputs' shapes, dtypes and ``requires_grad`` flags, and
returns one gradient per parent in parent order (None for a parent that
takes none).  A leaf that requires grad gets its node the first time an op
reads it.

:func:`backward` walks the graph once in reverse-topological order and
accumulates ``d loss / d tensor`` into every reachable ``requires_grad``
tensor the caller still holds (the caller zeroes grads between steps).
The sweep releases the graph as it goes: each node it passes drops its
parents and its closure, so the arrays the closures saved and the
gradient copies are freed at once.  A leaf's ``.grad`` is its own
writable array; a kept intermediate's is the gradient array as it flowed,
which may be read-only or shared with another intermediate's ``.grad``.
A swept graph cannot be swept again.  Forward data is never mutated by the
backward pass.

32-bit floats are the training default; gradient checking runs the same ops
in 64-bit.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

_grad_enabled = True
LAYER_NORM_EPS = 1e-5  # added to the variance before its square root


class no_grad:
    """Context manager that disables tape recording (inference decoding)."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_node", "__weakref__")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._node = None

    @property
    def _backward(self):
        """The recorded backward closure, None on a leaf; settable, so a profiler can wrap it in place."""
        return None if self._node is None else self._node.backward

    @_backward.setter
    def _backward(self, fn):
        self._node.backward = fn

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype.name}, requires_grad={self.requires_grad})"


class _Node:
    """A tensor's place in the graph: parents' nodes, backward closure (None on a leaf), weak ref to the tensor."""

    __slots__ = ("parents", "backward", "ref")

    def __init__(self, parents: tuple, backward, tensor: Tensor):
        self.parents = parents
        self.backward = backward
        self.ref = weakref.ref(tensor)


@dataclass
class Parameter:
    """Named learnable tensor; names are unique within a model."""

    name: str
    tensor: Tensor


def _node_of(t: Tensor) -> _Node | None:
    """The node gradients reach ``t`` through, None if it takes none; a leaf's is made on first use."""
    if not t.requires_grad:
        return None
    if t._node is None:
        t._node = _Node((), None, t)
    return t._node


def _result(data, parents, backward_fn):
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._node = _Node(tuple(_node_of(p) for p in parents), backward_fn, out)
    else:
        out.requires_grad = False
        out._node = None
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _check_same_dtype(*tensors):
    dtypes = {t.data.dtype for t in tensors}
    if len(dtypes) > 1:
        raise TypeError(f"mixed tensor dtypes: {sorted(d.name for d in dtypes)}")


_SWEPT = "backward reached a graph that was already swept; rebuild the loss with a fresh forward pass"


def _released(g):
    """Stands in for the closure of a node the backward sweep has passed."""
    raise RuntimeError(_SWEPT)


def backward(loss: Tensor) -> None:
    """Reverse-mode sweep from a scalar loss.

    Each graph node is visited exactly once; gradients are accumulated into
    ``.grad`` slots, so a freshly built loss swept without zeroing first
    adds to the gradients already there.  The sweep releases each node it
    passes: its parents and closure are dropped, and only the tensors the
    caller holds get their ``.grad``.  A leaf's ``.grad`` owns its buffer,
    since later sweeps add to it in place; an intermediate's is not copied
    and is to be read only: it may be a read-only broadcast view, or share
    memory with a sibling's ``.grad``.  Reaching a released node (a second
    ``backward`` on the same loss, or a loss built on a swept intermediate)
    raises ``RuntimeError`` before any gradient changes.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward requires a scalar tensor, got shape {loss.data.shape}")
    if not loss.requires_grad:
        raise ValueError("loss does not require grad; nothing to backpropagate")

    root = _node_of(loss)
    topo: list[_Node] = []
    visited: set[int] = set()
    stack: list[tuple[_Node, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        if node.backward is _released:
            raise RuntimeError(_SWEPT)
        visited.add(id(node))
        stack.append((node, True))
        for parent in node.parents:
            if parent is not None and id(parent) not in visited:
                stack.append((parent, False))

    # every pending key's node is still held by ``topo``, so no id is reused
    flowing: dict[int, np.ndarray] = {id(root): np.ones_like(loss.data)}
    while topo:
        node = topo.pop()
        g = flowing.pop(id(node), None)
        node_backward, parents = node.backward, node.parents
        if node_backward is not None:
            # past this step nothing in the graph refers to ``node``: release what it saved
            node.parents = ()
            node.backward = _released
        if g is None:
            continue
        t = node.ref()
        if t is not None:
            if t.grad is None:
                # a leaf's slot is accumulated into by later sweeps, so it owns its buffer; a swept
                # intermediate is released and never accumulated into again, so it may share ``g``
                t.grad = (np.array(g, dtype=t.data.dtype, copy=True) if node_backward is None
                          else np.asarray(g, dtype=t.data.dtype))
            else:
                t.grad += g
        if node_backward is None:
            continue
        for parent, pg in zip(parents, node_backward(g)):
            if parent is None:
                continue
            key = id(parent)
            if key in flowing:
                flowing[key] = flowing[key] + pg
            else:
                flowing[key] = pg


# ---------------------------------------------------------------------------
# ops
#
# A backward closure reads only what it captured: never a parent Tensor, so
# that the graph pins no activation that no backward reads.


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; leading batch dimensions broadcast."""
    _check_same_dtype(a, b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ValueError(f"matmul needs >= 2-d tensors, got {a.data.shape} @ {b.data.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ValueError(f"matmul shape mismatch: {a.data.shape} @ {b.data.shape}")
    out_data = a.data @ b.data
    a_shape, b_shape, a_grad, b_grad = a.data.shape, b.data.shape, a.requires_grad, b.requires_grad
    ad = a.data if b_grad else None  # each operand's gradient reads the other operand
    bd = b.data if a_grad else None

    def bwd(g):
        return (_unbroadcast(g @ np.swapaxes(bd, -1, -2), a_shape) if a_grad else None,
                _unbroadcast(np.swapaxes(ad, -1, -2) @ g, b_shape) if b_grad else None)

    return _result(out_data, (a, b), bwd)


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """Position-wise projection ``x @ w + b`` of x (..., d) by w (d, k), b (k,).

    The leading axes of ``x`` flatten into one (M, d) GEMM, so the weight
    gradient is one (d, M) @ (M, k) product rather than a per-batch stack
    summed down, and a decode step's rows run as one product.
    """
    parents = (x, w) if b is None else (x, w, b)
    _check_same_dtype(*parents)
    if w.data.ndim != 2 or x.data.ndim < 1 or x.data.shape[-1] != w.data.shape[0]:
        raise ValueError(f"linear needs x (..., d) and w (d, k), got {x.data.shape} and {w.data.shape}")
    if b is not None and b.data.shape != w.data.shape[1:]:
        raise ValueError(f"linear bias shape {b.data.shape} does not match w {w.data.shape}")
    x2 = x.data.reshape(-1, x.data.shape[-1])
    out2 = x2 @ w.data
    if b is not None:
        out2 += b.data
    out_data = out2.reshape(x.data.shape[:-1] + w.data.shape[1:])
    x_shape, x_grad, w_grad = x.data.shape, x.requires_grad, w.requires_grad
    b_grad = b is not None and b.requires_grad
    wd = w.data if x_grad else None  # x's gradient reads w, w's reads x
    x2 = x2 if w_grad else None

    def bwd(g):
        g2 = g.reshape(-1, g.shape[-1])
        return ((g2 @ wd.T).reshape(x_shape) if x_grad else None,
                x2.T @ g2 if w_grad else None,
                g2.sum(axis=0) if b_grad else None)  # zip against two parents drops this when b is None

    return _result(out_data, parents, bwd)


def transpose(a: Tensor, axis1: int = -2, axis2: int = -1) -> Tensor:
    out_data = np.swapaxes(a.data, axis1, axis2)

    def bwd(g):
        return (np.swapaxes(g, axis1, axis2),)

    return _result(out_data, (a,), bwd)


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_dtype(a, b)
    out_data = a.data + b.data
    a_shape, b_shape, a_grad, b_grad = a.data.shape, b.data.shape, a.requires_grad, b.requires_grad

    def bwd(g):
        return (_unbroadcast(g, a_shape) if a_grad else None, _unbroadcast(g, b_shape) if b_grad else None)

    return _result(out_data, (a, b), bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_same_dtype(a, b)
    out_data = a.data - b.data
    a_shape, b_shape, a_grad, b_grad = a.data.shape, b.data.shape, a.requires_grad, b.requires_grad

    def bwd(g):
        return (_unbroadcast(g, a_shape) if a_grad else None, _unbroadcast(-g, b_shape) if b_grad else None)

    return _result(out_data, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product (shapes must broadcast)."""
    _check_same_dtype(a, b)
    out_data = a.data * b.data
    a_shape, b_shape, a_grad, b_grad = a.data.shape, b.data.shape, a.requires_grad, b.requires_grad
    ad = a.data if b_grad else None  # each operand's gradient reads the other operand
    bd = b.data if a_grad else None

    def bwd(g):
        return (_unbroadcast(g * bd, a_shape) if a_grad else None,
                _unbroadcast(g * ad, b_shape) if b_grad else None)

    return _result(out_data, (a, b), bwd)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    dtype = a.data.dtype
    out_data = a.data * np.array(c, dtype=dtype)

    def bwd(g):
        return (g * np.array(c, dtype=dtype),)

    return _result(out_data, (a,), bwd)


def _sigmoid(d: np.ndarray) -> np.ndarray:
    # 1 / (1 + e^-d) for d >= 0 and e^d / (1 + e^d) below, with e = exp(-|d|), which never
    # overflows; min(d, -d) rather than -|d| passes a NaN on with its sign, as exp(d) did
    e = np.exp(np.minimum(d, -d))
    return np.where(d >= 0, 1.0, e) / (1.0 + e)


def sigmoid(a: Tensor) -> Tensor:
    out_data = _sigmoid(a.data)

    def bwd(g):
        return (g * out_data * (1.0 - out_data),)

    return _result(out_data, (a,), bwd)


def tanh(a: Tensor) -> Tensor:
    out_data = np.tanh(a.data)

    def bwd(g):
        return (g * (1.0 - out_data * out_data),)

    return _result(out_data, (a,), bwd)


def relu(a: Tensor) -> Tensor:
    out_data = np.maximum(a.data, 0)

    def bwd(g):
        # out > 0 wherever in > 0 and nowhere else, NaN and -0.0 included, so the input is not kept
        return (g * (out_data > 0),)

    return _result(out_data, (a,), bwd)


def softmax_rows(a: Tensor, mask: np.ndarray | None = None) -> Tensor:
    """Row-stochastic softmax over the last axis.

    ``mask`` marks valid positions (True = keep); masked scores are pinned to
    -1e9 before the stabilized softmax and the corresponding outputs are
    exactly zero.  A fully masked row is an error.
    """
    d = a.data
    if d.shape[-1] < 1:
        raise ValueError("softmax needs at least one column")
    m = None if mask is None else _keep_rows(mask, d.shape)
    out_data = _softmax(d, m)

    def bwd(g):
        return (_softmax_grad(out_data, g),)

    return _result(out_data, (a,), bwd)


def _keep_rows(mask, shape) -> np.ndarray:
    """``mask`` as a boolean keep mask of ``shape``; a row with nothing kept is an error."""
    m = np.broadcast_to(np.asarray(mask, dtype=bool), shape)
    if (~m).all(axis=-1).any():
        raise ValueError("softmax row is fully masked")
    return m


def _softmax(d: np.ndarray, m: np.ndarray | None) -> np.ndarray:
    """Stable softmax over the last axis; where the keep mask ``m`` is False the score is -1e9 and the output 0."""
    scores = d if m is None else np.where(m, d, np.array(-1e9, dtype=d.dtype))
    shifted = scores - scores.max(axis=-1, keepdims=True)
    ex = np.exp(shifted)
    out = ex / ex.sum(axis=-1, keepdims=True)
    return out if m is None else out * m


def _softmax_grad(out: np.ndarray, g: np.ndarray) -> np.ndarray:
    inner = (g * out).sum(axis=-1, keepdims=True)
    return out * (g - inner)


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    _check_same_dtype(a, gain, bias)
    d = a.data
    mu = d.mean(axis=-1, keepdims=True)
    xc = d - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + np.array(LAYER_NORM_EPS, dtype=d.dtype))
    xhat = xc * inv
    out_data = xhat * gain.data + bias.data
    a_grad, gain_grad, bias_grad = a.requires_grad, gain.requires_grad, bias.requires_grad
    gain_shape, bias_shape = gain.data.shape, bias.data.shape
    gd = gain.data if a_grad else None

    def bwd(g):
        d_a = None
        if a_grad:
            dxhat = g * gd
            term = dxhat - dxhat.mean(axis=-1, keepdims=True) - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
            d_a = inv * term
        reduce_axes = tuple(range(g.ndim - 1))
        return (d_a,
                _unbroadcast((g * xhat).sum(axis=reduce_axes), gain_shape) if gain_grad else None,
                _unbroadcast(g.sum(axis=reduce_axes), bias_shape) if bias_grad else None)

    return _result(out_data, (a, gain, bias), bwd)


def concat(tensors: list[Tensor], axis: int = -1) -> Tensor:
    _check_same_dtype(*tensors)
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    offsets = np.cumsum([0] + [t.data.shape[axis] for t in tensors])

    def bwd(g):
        grads = []
        for start, stop in zip(offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis if axis >= 0 else g.ndim + axis] = slice(start, stop)
            grads.append(g[tuple(idx)])  # a view, so one for an input that takes none costs nothing
        return grads

    return _result(out_data, tuple(tensors), bwd)


def slice_axis(a: Tensor, axis: int, start: int, stop: int) -> Tensor:
    nd = a.data.ndim
    ax = axis if axis >= 0 else nd + axis
    idx = [slice(None)] * nd
    idx[ax] = slice(start, stop)
    out_data = a.data[tuple(idx)]
    shape, dtype = a.data.shape, a.data.dtype

    def bwd(g):
        full = np.zeros(shape, dtype=dtype)
        full[tuple(idx)] = g
        return (full,)

    return _result(out_data, (a,), bwd)


def embedding_lookup(table: Tensor, ids) -> Tensor:
    """Gather rows of a (V, d) table; output shape is ids.shape + (d,)."""
    ids = np.asarray(ids, dtype=np.int64)
    v = table.data.shape[0]
    if ids.size and (ids.min() < 0 or ids.max() >= v):
        raise ValueError(f"embedding id out of range [0, {v})")
    out_data = table.data[ids]
    shape, dtype = table.data.shape, table.data.dtype

    def bwd(g):
        dt = np.zeros(shape, dtype=dtype)
        np.add.at(dt, ids.ravel(), g.reshape(-1, shape[1]))
        return (dt,)

    return _result(out_data, (table,), bwd)


def reshape(a: Tensor, shape) -> Tensor:
    out_data = a.data.reshape(shape)
    in_shape = a.data.shape

    def bwd(g):
        return (g.reshape(in_shape),)

    return _result(out_data, (a,), bwd)


def broadcast_to(a: Tensor, shape) -> Tensor:
    out_data = np.broadcast_to(a.data, shape)
    in_shape = a.data.shape

    def bwd(g):
        return (_unbroadcast(g, in_shape),)

    return _result(out_data, (a,), bwd)


def sum_all(a: Tensor) -> Tensor:
    out_data = np.asarray(a.data.sum(), dtype=a.data.dtype)
    in_shape = a.data.shape

    def bwd(g):
        return (np.broadcast_to(g, in_shape),)

    return _result(out_data, (a,), bwd)


def mean_all(a: Tensor) -> Tensor:
    n = a.data.size
    out_data = np.asarray(a.data.mean(), dtype=a.data.dtype)
    in_shape = a.data.shape

    def bwd(g):
        return (np.broadcast_to(g / n, in_shape),)

    return _result(out_data, (a,), bwd)


def nll_loss(logits: Tensor, targets, pad_mask=None) -> Tensor:
    """Mean negative log likelihood with a fused stable log-softmax.

    ``logits`` is (T, V) or (B, T, V); ``targets`` holds token ids of shape
    logits.shape[:-1].  ``pad_mask`` (same shape as targets, truthy = counted)
    excludes PAD steps.  The loss is the per-sequence mean over counted steps,
    then the mean over the batch; a sequence with every step masked is an
    error.
    """
    d = logits.data
    targets = np.asarray(targets, dtype=np.int64)
    if targets.shape != d.shape[:-1]:
        raise ValueError(f"targets shape {targets.shape} does not match logits {d.shape}")
    v = d.shape[-1]
    if targets.size and (targets.min() < 0 or targets.max() >= v):
        raise ValueError(f"target id out of range [0, {v})")
    if pad_mask is None:
        m = np.ones(targets.shape, dtype=d.dtype)
    else:
        m = np.asarray(pad_mask).astype(d.dtype)
        if m.shape != targets.shape:
            raise ValueError(f"pad_mask shape {m.shape} does not match targets {targets.shape}")
    steps = m.sum(axis=-1)
    if np.any(steps == 0):
        raise ValueError("nll_loss: a sequence has all positions masked")

    mx = d.max(axis=-1, keepdims=True)
    shifted = d - mx
    ex = np.exp(shifted)
    lse = np.log(ex.sum(axis=-1, keepdims=True)) + mx
    log_probs = d - lse
    # -log p_t as lse - d_t cancels to nothing as p_t nears 1; with s = d - max,
    # log1p(expm1(s_t) + sum_{j != t} e^{s_j}) - s_t has no cancelling term, so a
    # confident step's loss keeps its relative precision
    s_t = np.take_along_axis(shifted, targets[..., None], axis=-1)
    np.put_along_axis(ex, targets[..., None], 0.0, axis=-1)
    step_nll = (np.log1p(np.expm1(s_t) + ex.sum(axis=-1, keepdims=True)) - s_t)[..., 0]
    per_seq = (step_nll * m).sum(axis=-1) / steps
    out_data = np.asarray(per_seq.mean(), dtype=d.dtype)

    n_seq = int(np.prod(per_seq.shape)) if per_seq.shape else 1

    def bwd(g):
        softmax = np.exp(log_probs)
        onehot = np.zeros_like(log_probs)
        np.put_along_axis(onehot, targets[..., None], 1.0, axis=-1)
        weight = (m / steps[..., None])[..., None] / n_seq
        return (g * weight * (softmax - onehot),)

    return _result(out_data, (logits,), bwd)


def dropout(a: Tensor, rate: float, rng: np.random.Generator | None = None, mask: np.ndarray | None = None) -> Tensor:
    """Inverted dropout; identity when rate is 0.

    Pass ``mask`` (a boolean keep mask of ``a``'s shape) to replay a fixed
    pattern, e.g. for gradient checking.  The node keeps the boolean mask and
    rebuilds its scaled float form in the backward.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return a
    if mask is None:
        if rng is None:
            raise ValueError("dropout needs an rng or an explicit mask")
        mask = rng.random(a.data.shape) >= rate
    else:
        mask = np.asarray(mask)
        if mask.dtype != np.bool_ or mask.shape != a.data.shape:
            raise ValueError(f"dropout mask must be boolean with the input's shape {a.data.shape}, "
                             f"got {mask.dtype.name} {mask.shape}")
    dtype = a.data.dtype
    out_data = a.data * (mask.astype(dtype) / np.array(1.0 - rate, dtype=dtype))

    def bwd(g):
        return (g * (mask.astype(dtype) / np.array(1.0 - rate, dtype=dtype)),)

    return _result(out_data, (a,), bwd)


def _accumulate(total, step):
    """``total + step``, in ``total``'s buffer; the first step starts the total."""
    return step if total is None else np.add(total, step, out=total)


def _lstm_cell(pre: np.ndarray, c: np.ndarray):
    """One packed-gate cell step from pre-activations (B, 4d) and cell state c: (act, c_new, tanh(c_new)).

    ``act`` holds sigmoid(i), sigmoid(f), tanh(g) and sigmoid(o); the new hidden state is
    ``act[:, 3d:] * tanh(c_new)``.
    """
    d = c.shape[-1]
    act = _sigmoid(pre)  # i, f and o; the g slice is replaced by its tanh
    act[:, 2 * d : 3 * d] = np.tanh(pre[:, 2 * d : 3 * d])
    c_new = act[:, d : 2 * d] * c + act[:, :d] * act[:, 2 * d : 3 * d]
    return act, c_new, np.tanh(c_new)


def _lstm_cell_grad(dh: np.ndarray, dc, act: np.ndarray, c_prev: np.ndarray, tanh_c: np.ndarray):
    """(d pre-activation, d c_new) of one ``_lstm_cell`` step, from dh of its new hidden state and the
    gradient ``dc`` (or None) that reaches c_new from later; the caller forms d c_prev = d c_new * f."""
    d = c_prev.shape[-1]
    i, g, o = act[:, :d], act[:, 2 * d : 3 * d], act[:, 3 * d :]
    dc_new = (dh * o) * (1.0 - tanh_c * tanh_c)
    if dc is not None:
        dc_new = dc + dc_new
    d_act = np.empty_like(act)
    d_act[:, :d] = dc_new * g
    d_act[:, d : 2 * d] = dc_new * c_prev
    d_act[:, 2 * d : 3 * d] = dc_new * i
    d_act[:, 3 * d :] = dh * tanh_c
    d_pre = (d_act * act) * (1.0 - act)
    d_pre[:, 2 * d : 3 * d] = d_act[:, 2 * d : 3 * d] * (1.0 - g * g)
    return d_pre, dc_new


def lstm_scan(x: Tensor, w_x: Tensor, w_h: Tensor, b: Tensor, mask, reverse: bool = False) -> Tensor:
    """One masked LSTM direction over x (B, N, e): the hidden states (B, N, d) as one tape node.

    Gates are packed i, f, g, o in w_x (e, 4d), w_h (d, 4d) and b (4d,), the cell starts
    from zero states, and ``mask`` (B, N) is truthy at real steps: a PAD step's h and c
    are exactly zero.  Each step makes the numpy calls the per-step ops make, on the same
    views, and the backward sums the weight gradients step by step in the order the
    tape's sweep does, so the values and gradients are bitwise those of the unfused ops.
    """
    _check_same_dtype(x, w_x, w_h, b)
    if x.data.ndim != 3:
        raise ValueError(f"lstm_scan needs x (B, N, e), got {x.data.shape}")
    bsz, n, e = x.data.shape
    if w_h.data.ndim != 2 or w_h.data.shape[1] != 4 * w_h.data.shape[0]:
        raise ValueError(f"lstm_scan needs w_h (d, 4d), got {w_h.data.shape}")
    d = w_h.data.shape[0]
    if w_x.data.shape != (e, 4 * d):
        raise ValueError(f"lstm_scan needs w_x (e, 4d) = {(e, 4 * d)} for x {x.data.shape} "
                         f"and w_h {w_h.data.shape}, got {w_x.data.shape}")
    if b.data.shape != (4 * d,):
        raise ValueError(f"lstm_scan needs b (4d,) = {(4 * d,)} for w_h {w_h.data.shape}, got {b.data.shape}")
    mask = np.asarray(mask)
    if mask.shape != (bsz, n):
        raise ValueError(f"lstm_scan needs mask (B, N) = {(bsz, n)} for x {x.data.shape}, got {mask.shape}")

    xs, wx, wh, bias = x.data, w_x.data, w_h.data, b.data
    dtype = xs.dtype
    x_grad, w_x_grad, w_h_grad, b_grad = (p.requires_grad for p in (x, w_x, w_h, b))
    track = _grad_enabled and (x_grad or w_x_grad or w_h_grad or b_grad)
    h = np.zeros((bsz, d), dtype=dtype)
    c = np.zeros((bsz, d), dtype=dtype)
    out_data = np.empty((bsz, n, d), dtype=dtype)
    saved = []  # per step, in forward order: what the backward reads
    for t in range(n - 1, -1, -1) if reverse else range(n):
        x_t = xs[:, t : t + 1, :].reshape(bsz, e)
        m_t = mask[:, t : t + 1].astype(dtype)
        act, c_new, tanh_c = _lstm_cell((x_t @ wx + h @ wh) + bias, c)
        if track:
            saved.append((t, x_t, m_t, h, c, act, tanh_c))
        h = (act[:, 3 * d :] * tanh_c) * m_t  # PAD steps stay exactly zero
        c = c_new * m_t
        out_data[:, t, :] = h

    def bwd(g_out):
        dx = np.empty_like(xs) if x_grad else None
        dw_x = dw_h = db = None
        dh = dc = None  # what reaches the masked h and c of a step from the step after it
        while saved:  # last step first, each step's arrays dropped once used
            t, x_t, m_t, h_prev, c_prev, act, tanh_c = saved.pop()
            dh_new = (g_out[:, t, :] if dh is None else g_out[:, t, :] + dh) * m_t
            d_pre, dc_new = _lstm_cell_grad(dh_new, None if dc is None else dc * m_t, act, c_prev, tanh_c)
            if x_grad:
                dx[:, t, :] = d_pre @ np.swapaxes(wx, -1, -2)
            if w_x_grad:
                dw_x = _accumulate(dw_x, np.swapaxes(x_t, -1, -2) @ d_pre)
            if w_h_grad:
                dw_h = _accumulate(dw_h, np.swapaxes(h_prev, -1, -2) @ d_pre)
            if b_grad:
                db = _accumulate(db, d_pre.sum(axis=(0,)))
            if saved:  # the first step's zero start states take no gradient
                dh = d_pre @ np.swapaxes(wh, -1, -2)
                dc = dc_new * act[:, d : 2 * d]
        return dx, dw_x, dw_h, db

    return _result(out_data, (x, w_x, w_h, b), bwd)


def _beside_rows(memory: np.ndarray, s: np.ndarray) -> np.ndarray:
    """[memory; s] (B, N, k + d): the state s (B, d) beside each row of memory (B, N, k)."""
    bsz, n, d = memory.shape[0], memory.shape[1], s.shape[-1]
    return np.concatenate([memory, np.broadcast_to(s.reshape(bsz, 1, d), (bsz, n, d))], axis=-1)


def decoder_step(pre_c: np.ndarray, h_tilde: np.ndarray, keep: np.ndarray, v: np.ndarray, x_t: np.ndarray,
                 s: np.ndarray, c: np.ndarray, w_x: np.ndarray, w_h: np.ndarray, b: np.ndarray):
    """One ``decoder_scan`` step on arrays, from its attention pre-activation pre_c (B, N, a).

    Attends a = softmax(v^T tanh(pre_c)) over the positions the keep mask (B, 1, N) marks,
    then runs one LSTM step over [x_t; a h_tilde] from the state s and cell c.  Returns the
    new state and cell, then what the scan's backward reads: tanh(pre_c), a, the cell
    input, the gate activations and tanh of the new cell.
    """
    bsz, k, d = h_tilde.shape[0], h_tilde.shape[2], c.shape[-1]
    th = np.tanh(pre_c)
    attn = _softmax(np.swapaxes(th @ v, 1, 2), keep)
    x_in = np.concatenate([x_t, (attn @ h_tilde).reshape(bsz, k)], axis=-1)
    act, c_new, tanh_c = _lstm_cell((x_in @ w_x + s @ w_h) + b, c)
    return act[:, 3 * d :] * tanh_c, c_new, th, attn, x_in, act, tanh_c


def decoder_scan(x: Tensor, h_tilde: Tensor, mask, s0: Tensor, w_c: Tensor, b_c: Tensor, v: Tensor,
                 w_x: Tensor, w_h: Tensor, b: Tensor, w_v: Tensor,
                 h_q: Tensor | None = None, w_q: Tensor | None = None) -> Tensor:
    """A teacher-forced LSTM decoder with additive attention over x (B, M, e): the logits (B, M, V) as one tape node.

    Step t attends over the memory h_tilde (B, N, k) from the previous state s (B, d), s0
    at the first step: a = softmax(v^T tanh([h_tilde; s] W_c^T + b_c (+ W_q h_q))) over the
    positions ``mask`` (B, N) marks real, with w_c (a, k + d), b_c (a,), v (a, 1) and, both
    or neither, h_q (B, q) and w_q (a, q).  One LSTM step over [x_t; a h_tilde], gates
    packed i, f, g, o in w_x (e + k, 4d), w_h (d, 4d) and b (4d,), from s and a cell that
    starts at zero, gives the new s and the logits s W_v^T, w_v (V, d).

    Each step forms the pre-activation and runs ``decoder_step``, the step beam search
    runs too; it makes the numpy calls the per-step ops make, on the same views, and the
    backward sums every shared gradient in the order the tape's sweep sums the per-step
    graph's, so the values and gradients are bitwise those of the unfused ops.  The node
    keeps each step's state, tanh of the attention pre-activation, attention weights,
    cell input and gate activations, and rebuilds [h_tilde; s] in the backward
    rather than keeping it.
    """
    query = h_q is not None
    if query != (w_q is not None):
        raise ValueError("decoder_scan needs h_q and w_q together")
    # the sweep enters the graph behind this node through its last parents first: s0 before the
    # query and x, as the per-step graph reached them, so a table they share sums in the same order
    parents = ((x, h_q, w_q) if query else (x,)) + (h_tilde, s0, w_c, b_c, v, w_x, w_h, b, w_v)
    _check_same_dtype(*parents)
    if x.data.ndim != 3 or h_tilde.data.ndim != 3 or w_h.data.ndim != 2 or w_c.data.ndim != 2 or w_v.data.ndim != 2:
        raise ValueError(f"decoder_scan needs x (B, M, e), h_tilde (B, N, k) and 2-d w_h, w_c, w_v; got x "
                         f"{x.data.shape}, h_tilde {h_tilde.data.shape}, w_h {w_h.data.shape}, "
                         f"w_c {w_c.data.shape}, w_v {w_v.data.shape}")
    bsz, m, e = x.data.shape
    n, k = h_tilde.data.shape[1:]
    d, a, vocab = w_h.data.shape[0], w_c.data.shape[0], w_v.data.shape[0]
    want = {"h_tilde": (h_tilde, (bsz, n, k)), "s0": (s0, (bsz, d)), "w_c": (w_c, (a, k + d)), "b_c": (b_c, (a,)),
            "v": (v, (a, 1)), "w_x": (w_x, (e + k, 4 * d)), "w_h": (w_h, (d, 4 * d)), "b": (b, (4 * d,))}
    if query:
        want.update(h_q=(h_q, (bsz, h_q.data.shape[-1])), w_q=(w_q, (a, h_q.data.shape[-1])))
    for name, (t, shape) in want.items():
        if t.data.shape != shape:
            raise ValueError(f"decoder_scan needs {name} {shape} for x {x.data.shape}, h_tilde "
                             f"{h_tilde.data.shape}, w_h {w_h.data.shape} and w_c {w_c.data.shape}, "
                             f"got {t.data.shape}")
    mask = np.asarray(mask)
    if mask.shape != (bsz, n):
        raise ValueError(f"decoder_scan needs mask (B, N) = {(bsz, n)}, got {mask.shape}")
    keep = _keep_rows(mask[:, None, :], (bsz, 1, n))

    xs, ht, wc, bc, vd, wx, wh, bias, wv = (t.data for t in (x, h_tilde, w_c, b_c, v, w_x, w_h, b, w_v))
    dtype = xs.dtype
    track = _grad_enabled and any(p.requires_grad for p in parents)
    hq, wq = (h_q.data, w_q.data) if query else (None, None)
    q_term = (hq @ np.swapaxes(wq, -2, -1)).reshape(bsz, 1, a) if query else None
    s = s0.data
    c = np.zeros((bsz, d), dtype=dtype)
    out_data = np.empty((bsz, m, vocab), dtype=dtype)
    states, saved = [s], []  # states s_0..s_M and, per step in forward order, what the backward reads
    for t in range(m):
        pre_c = _beside_rows(ht, s) @ np.swapaxes(wc, -2, -1) + bc
        if query:
            pre_c = pre_c + q_term
        s, c_new, *kept = decoder_step(pre_c, ht, keep, vd, xs[:, t : t + 1, :].reshape(bsz, e), s, c, wx, wh, bias)
        out_data[:, t, :] = s @ np.swapaxes(wv, -2, -1)
        if track:
            states.append(s)
            saved.append((c, *kept))
        c = c_new

    def bwd(g_out):
        g_logits = [g_out[:, t : t + 1, :].reshape(bsz, vocab) for t in range(m)]
        dx = np.zeros_like(xs)
        dw_v = d_ht = dw_c = db_c = dv = dh_q = dw_q = dw_x = dw_h = db = None
        for t in range(m):  # the sweep sums the output products' gradients first step first
            dw_v = _accumulate(dw_v, np.swapaxes(np.swapaxes(states[t + 1], -1, -2) @ g_logits[t], -2, -1))
        # every other shared gradient is summed last step first; within a step, h_tilde's from
        # the context product before the attention rows', and a state's from the logits, then the
        # next step's attention rows, then its cell
        after = None  # what the state a step starts from takes from that step: (attention rows, cell)
        dc = None
        for t in range(m - 1, -1, -1):
            c_prev, th, attn, x_in, act, tanh_c = saved.pop()
            s_prev = states[t]
            ds = g_logits[t] @ wv
            if after is not None:
                ds = (ds + after[0]) + after[1]
            d_pre, dc_new = _lstm_cell_grad(ds, dc, act, c_prev, tanh_c)
            dw_x = _accumulate(dw_x, np.swapaxes(x_in, -1, -2) @ d_pre)
            dw_h = _accumulate(dw_h, np.swapaxes(s_prev, -1, -2) @ d_pre)
            db = _accumulate(db, d_pre.sum(axis=(0,)))
            g_x = d_pre @ np.swapaxes(wx, -1, -2)
            dx[:, t, :] = g_x[:, :e]
            g_ctx = g_x[:, e:].reshape(bsz, 1, k)
            d_ht = _accumulate(d_ht, np.swapaxes(attn, -1, -2) @ g_ctx)
            g_scores = np.swapaxes(_softmax_grad(attn, g_ctx @ np.swapaxes(ht, -1, -2)), 1, 2)
            dv = _accumulate(dv, _unbroadcast(np.swapaxes(th, -1, -2) @ g_scores, (a, 1)))
            g_pre = (g_scores @ np.swapaxes(vd, -1, -2)) * (1.0 - th * th)
            db_c = _accumulate(db_c, _unbroadcast(g_pre, (a,)))
            if query:
                g_q = _unbroadcast(g_pre, (bsz, 1, a)).reshape(bsz, a)
                dh_q = _accumulate(dh_q, g_q @ wq)
                dw_q = _accumulate(dw_q, np.swapaxes(np.swapaxes(hq, -1, -2) @ g_q, -2, -1))
            step_w_c = _unbroadcast(np.swapaxes(_beside_rows(ht, s_prev), -1, -2) @ g_pre, (k + d, a))
            dw_c = _accumulate(dw_c, np.swapaxes(step_w_c, -2, -1))
            g_rows = g_pre @ wc
            d_ht = _accumulate(d_ht, g_rows[..., :k])
            after = (_unbroadcast(g_rows[..., k:], (bsz, 1, d)).reshape(bsz, d), d_pre @ np.swapaxes(wh, -1, -2))
            dc = dc_new * act[:, d : 2 * d]
        ds0 = after[0] + after[1]
        return ((dx, dh_q, dw_q) if query else (dx,)) + (d_ht, ds0, dw_c, db_c, dv, dw_x, dw_h, db, dw_v)

    return _result(out_data, parents, bwd)


# ---------------------------------------------------------------------------
# parameter initialization


def glorot_limit(shape) -> float:
    fan_in, fan_out = shape[0], shape[-1]
    return float(np.sqrt(6.0 / (fan_in + fan_out)))


class ParamStore:
    """Ordered registry of uniquely named parameters for one model."""

    def __init__(self, rng: np.random.Generator, dtype=np.float32):
        self.rng = rng
        self.dtype = np.dtype(dtype)
        self._params: dict[str, Parameter] = {}

    def _register(self, name: str, data: np.ndarray) -> Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter name: {name}")
        t = Tensor(data.astype(self.dtype), requires_grad=True)
        self._params[name] = Parameter(name=name, tensor=t)
        return t

    def glorot(self, name: str, shape) -> Tensor:
        lim = glorot_limit(shape)
        return self._register(name, self.rng.uniform(-lim, lim, size=shape))

    def zeros(self, name: str, shape) -> Tensor:
        return self._register(name, np.zeros(shape))

    def ones(self, name: str, shape) -> Tensor:
        return self._register(name, np.ones(shape))

    def lstm_bias(self, name: str, hidden: int) -> Tensor:
        # gate order i, f, g, o; forget gate biased +1 for stable tiny-data runs
        b = np.zeros(4 * hidden)
        b[hidden : 2 * hidden] = 1.0
        return self._register(name, b)

    def parameters(self) -> list[Parameter]:
        return list(self._params.values())

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name].tensor

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def names(self) -> list[str]:
        return list(self._params.keys())
