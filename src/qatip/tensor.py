"""Dense tensors with reverse-mode automatic differentiation.

A thin tape over numpy arrays: every op returns a new :class:`Tensor` and,
when gradients are enabled and any input requires them, records a backward
closure.  :func:`backward` walks the tape once in reverse-topological order
and accumulates ``d loss / d tensor`` into every reachable ``requires_grad``
tensor (the caller zeroes grads between steps).  The sweep releases the
graph as it goes: each node it passes drops its parents and its closure, so
activations and gradient copies are freed at once, and only the nodes the
caller still holds (parameters, a kept intermediate) keep their ``.grad``.
A leaf's ``.grad`` is its own writable array; a kept intermediate's is the
gradient array as it flowed, which may be read-only or shared with another
intermediate's ``.grad``.
A swept graph cannot be swept again.  Forward data is never mutated by the
backward pass.

32-bit floats are the training default; gradient checking runs the same ops
in 64-bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_grad_enabled = True


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
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple = ()
        self._backward = None

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


@dataclass
class Parameter:
    """Named learnable tensor; names are unique within a model."""

    name: str
    tensor: Tensor


def _result(data, parents, backward_fn):
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward_fn
    else:
        out.requires_grad = False
        out._parents = ()
        out._backward = None
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

    Each tape node is visited exactly once; gradients are accumulated into
    ``.grad`` slots, so a freshly built loss swept without zeroing first
    adds to the gradients already there.  The sweep releases each node it
    passes: its parents and closure are dropped, so only the nodes the
    caller holds keep their ``.grad``.  A leaf's ``.grad`` owns its buffer,
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

    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        if node._backward is _released:
            raise RuntimeError(_SWEPT)
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in visited:
                stack.append((parent, False))

    # every pending key's node is still held by ``topo``, so no id is reused
    flowing: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    while topo:
        node = topo.pop()
        g = flowing.pop(id(node), None)
        node_backward = node._backward
        if node_backward is not None:
            # past this step nothing in the graph refers to ``node``: release what it saved
            node._parents = ()
            node._backward = _released
        if g is None:
            continue
        if node.grad is None:
            # a leaf's slot is accumulated into by later sweeps, so it owns its buffer; a swept
            # intermediate is released and never accumulated into again, so it may share ``g``
            node.grad = (np.array(g, dtype=node.data.dtype, copy=True) if node_backward is None
                         else np.asarray(g, dtype=node.data.dtype))
        else:
            node.grad += g
        if node_backward is None:
            continue
        for parent, pg in node_backward(g):
            key = id(parent)
            if key in flowing:
                flowing[key] = flowing[key] + pg
            else:
                flowing[key] = pg


# ---------------------------------------------------------------------------
# ops


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; leading batch dimensions broadcast."""
    _check_same_dtype(a, b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ValueError(f"matmul needs >= 2-d tensors, got {a.data.shape} @ {b.data.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ValueError(f"matmul shape mismatch: {a.data.shape} @ {b.data.shape}")
    out_data = a.data @ b.data

    def bwd(g):
        pairs = []
        if a.requires_grad:
            pairs.append((a, _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape)))
        if b.requires_grad:
            pairs.append((b, _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape)))
        return pairs

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

    def bwd(g):
        g2 = g.reshape(-1, g.shape[-1])
        pairs = []
        if x.requires_grad:
            pairs.append((x, (g2 @ w.data.T).reshape(x.data.shape)))
        if w.requires_grad:
            pairs.append((w, x2.T @ g2))
        if b is not None and b.requires_grad:
            pairs.append((b, g2.sum(axis=0)))
        return pairs

    return _result(out_data, parents, bwd)


def transpose(a: Tensor, axis1: int = -2, axis2: int = -1) -> Tensor:
    out_data = np.swapaxes(a.data, axis1, axis2)

    def bwd(g):
        return [(a, np.swapaxes(g, axis1, axis2))]

    return _result(out_data, (a,), bwd)


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_dtype(a, b)
    out_data = a.data + b.data

    def bwd(g):
        pairs = []
        if a.requires_grad:
            pairs.append((a, _unbroadcast(g, a.data.shape)))
        if b.requires_grad:
            pairs.append((b, _unbroadcast(g, b.data.shape)))
        return pairs

    return _result(out_data, (a, b), bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_same_dtype(a, b)
    out_data = a.data - b.data

    def bwd(g):
        pairs = []
        if a.requires_grad:
            pairs.append((a, _unbroadcast(g, a.data.shape)))
        if b.requires_grad:
            pairs.append((b, _unbroadcast(-g, b.data.shape)))
        return pairs

    return _result(out_data, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product (shapes must broadcast)."""
    _check_same_dtype(a, b)
    out_data = a.data * b.data

    def bwd(g):
        pairs = []
        if a.requires_grad:
            pairs.append((a, _unbroadcast(g * b.data, a.data.shape)))
        if b.requires_grad:
            pairs.append((b, _unbroadcast(g * a.data, b.data.shape)))
        return pairs

    return _result(out_data, (a, b), bwd)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    out_data = a.data * np.array(c, dtype=a.data.dtype)

    def bwd(g):
        return [(a, g * np.array(c, dtype=a.data.dtype))]

    return _result(out_data, (a,), bwd)


def _sigmoid(d: np.ndarray) -> np.ndarray:
    # 1 / (1 + e^-d) for d >= 0 and e^d / (1 + e^d) below, with e = exp(-|d|), which never
    # overflows; min(d, -d) rather than -|d| passes a NaN on with its sign, as exp(d) did
    e = np.exp(np.minimum(d, -d))
    return np.where(d >= 0, 1.0, e) / (1.0 + e)


def sigmoid(a: Tensor) -> Tensor:
    out_data = _sigmoid(a.data)

    def bwd(g):
        return [(a, g * out_data * (1.0 - out_data))]

    return _result(out_data, (a,), bwd)


def tanh(a: Tensor) -> Tensor:
    out_data = np.tanh(a.data)

    def bwd(g):
        return [(a, g * (1.0 - out_data * out_data))]

    return _result(out_data, (a,), bwd)


def relu(a: Tensor) -> Tensor:
    out_data = np.maximum(a.data, 0)

    def bwd(g):
        return [(a, g * (a.data > 0))]

    return _result(out_data, (a,), bwd)


def feed_forward(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """Position-wise ``relu(x w1 + b1) w2 + b2`` of x (..., d) as one tape node.

    w1 is (d, f), b1 (f,), w2 (f, k) and b2 (k,).  Besides its inputs the
    node keeps only the ReLU output, computed in place over the
    pre-activation, and its backward rebuilds the ReLU mask as
    ``hidden > 0``, which equals ``pre > 0`` everywhere (NaN included).  It
    makes the numpy calls of ``linear``, ``relu``, ``linear`` composed, so
    values and gradients are bitwise theirs.
    """
    _check_same_dtype(x, w1, b1, w2, b2)
    if (x.data.ndim < 1 or w1.data.ndim != 2 or w2.data.ndim != 2 or x.data.shape[-1] != w1.data.shape[0]
            or w2.data.shape[0] != w1.data.shape[1] or b1.data.shape != w1.data.shape[1:]
            or b2.data.shape != w2.data.shape[1:]):
        raise ValueError(f"feed_forward needs x (..., d), w1 (d, f), b1 (f,), w2 (f, k) and b2 (k,), got "
                         f"x {x.data.shape}, w1 {w1.data.shape}, b1 {b1.data.shape}, "
                         f"w2 {w2.data.shape}, b2 {b2.data.shape}")
    x2 = x.data.reshape(-1, x.data.shape[-1])
    pre2 = x2 @ w1.data
    pre2 += b1.data
    hidden = pre2.reshape(x.data.shape[:-1] + w1.data.shape[1:])
    np.maximum(hidden, 0, out=hidden)
    h2 = hidden.reshape(-1, hidden.shape[-1])
    out2 = h2 @ w2.data
    out2 += b2.data
    out_data = out2.reshape(x.data.shape[:-1] + w2.data.shape[1:])

    def bwd(g):
        g2 = g.reshape(-1, g.shape[-1])
        pairs = []
        if w2.requires_grad:
            pairs.append((w2, h2.T @ g2))
        if b2.requires_grad:
            pairs.append((b2, g2.sum(axis=0)))
        if x.requires_grad or w1.requires_grad or b1.requires_grad:
            d_pre = (g2 @ w2.data.T).reshape(hidden.shape) * (hidden > 0)
            d_pre2 = d_pre.reshape(-1, d_pre.shape[-1])
            if x.requires_grad:
                pairs.append((x, (d_pre2 @ w1.data.T).reshape(x.data.shape)))
            if w1.requires_grad:
                pairs.append((w1, x2.T @ d_pre2))
            if b1.requires_grad:
                pairs.append((b1, d_pre2.sum(axis=0)))
        return pairs

    return _result(out_data, (x, w1, b1, w2, b2), bwd)


def _softmax_rows(d: np.ndarray, mask) -> np.ndarray:
    """The forward of ``softmax_rows`` on an array (see there)."""
    if d.shape[-1] < 1:
        raise ValueError("softmax needs at least one column")
    if mask is not None:
        m = np.broadcast_to(np.asarray(mask, dtype=bool), d.shape)
        if (~m).all(axis=-1).any():
            raise ValueError("softmax row is fully masked")
        scores = np.where(m, d, np.array(-1e9, dtype=d.dtype))
    else:
        m = None
        scores = d
    shifted = scores - scores.max(axis=-1, keepdims=True)
    ex = np.exp(shifted)
    out_data = ex / ex.sum(axis=-1, keepdims=True)
    if m is not None:
        out_data = out_data * m
    return out_data


def _softmax_rows_grad(out_data: np.ndarray, g: np.ndarray) -> np.ndarray:
    inner = (g * out_data).sum(axis=-1, keepdims=True)
    return out_data * (g - inner)


def softmax_rows(a: Tensor, mask: np.ndarray | None = None) -> Tensor:
    """Row-stochastic softmax over the last axis.

    ``mask`` marks valid positions (True = keep); masked scores are pinned to
    -1e9 before the stabilized softmax and the corresponding outputs are
    exactly zero.  A fully masked row is an error.
    """
    out_data = _softmax_rows(a.data, mask)

    def bwd(g):
        return [(a, _softmax_rows_grad(out_data, g))]

    return _result(out_data, (a,), bwd)


def attention(q: Tensor, k: Tensor, v: Tensor, mask: np.ndarray | None = None):
    """Scaled dot-product attention ``softmax(q kT / sqrt(d_k), mask) v`` as one tape node.

    q is (..., A, d_k), k is (..., N, d_k) and v is (..., N, d_v); leading
    axes broadcast, and ``mask`` broadcasts to the scores (..., A, N) with
    True marking attendable entries (``softmax_rows`` semantics: masked
    weights are exactly zero, a fully masked row is an error).  Returns
    (context (..., A, d_v), weights (..., A, N)).  The weights are data only,
    a Tensor outside the tape: no gradient flows back through them.

    The node saves only the weights for its backward; the raw and scaled
    scores are freed in the forward.  It makes the numpy calls of ``matmul``,
    ``transpose``, ``scale`` and ``softmax_rows`` composed, on the same views,
    forward and backward, so values and gradients are bitwise theirs, and the
    sweep reaches its parents (q, k, v) in the order it reaches them through
    that chain.
    """
    _check_same_dtype(q, k, v)
    qd, kd, vd = q.data, k.data, v.data
    if min(qd.ndim, kd.ndim, vd.ndim) < 2 or qd.shape[-1] != kd.shape[-1] or kd.shape[-2] != vd.shape[-2]:
        raise ValueError(f"attention needs q (..., A, d_k), k (..., N, d_k) and v (..., N, d_v), "
                         f"got q {qd.shape}, k {kd.shape}, v {vd.shape}")
    try:
        scores_shape = np.broadcast_shapes(qd.shape[:-2], kd.shape[:-2]) + (qd.shape[-2], kd.shape[-2])
        np.broadcast_shapes(scores_shape[:-2], vd.shape[:-2])
    except ValueError:
        raise ValueError(f"attention's leading axes do not broadcast: q {qd.shape}, k {kd.shape}, "
                         f"v {vd.shape}") from None
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        try:
            np.broadcast_to(mask, scores_shape)
        except ValueError:
            raise ValueError(f"attention mask {mask.shape} does not broadcast to the scores (..., A, N) "
                             f"= {scores_shape} of q {qd.shape} and k {kd.shape}") from None
    kt = np.swapaxes(kd, -2, -1)
    c = np.array(float(1.0 / np.sqrt(qd.shape[-1])), dtype=qd.dtype)
    probs = _softmax_rows((qd @ kt) * c, mask)
    out_data = probs @ vd

    def bwd(g):
        pairs = []
        if v.requires_grad:
            pairs.append((v, _unbroadcast(np.swapaxes(probs, -1, -2) @ g, vd.shape)))
        if q.requires_grad or k.requires_grad:
            g_probs = _unbroadcast(g @ np.swapaxes(vd, -1, -2), probs.shape)
            g_scores = _softmax_rows_grad(probs, g_probs) * c
            if q.requires_grad:
                pairs.append((q, _unbroadcast(g_scores @ np.swapaxes(kt, -1, -2), qd.shape)))
            if k.requires_grad:
                pairs.append((k, np.swapaxes(_unbroadcast(np.swapaxes(qd, -1, -2) @ g_scores, kt.shape), -2, -1)))
        return pairs

    return _result(out_data, (q, k, v), bwd), Tensor(probs)


_NORM_EPS = 1e-5  # layer_norm's default, and the only eps residual_norm uses


def _layer_norm(d: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float):
    """The forward of ``layer_norm`` on arrays: (output, xhat, inv), the last two what its backward reads."""
    mu = d.mean(axis=-1, keepdims=True)
    xc = d - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + np.array(eps, dtype=d.dtype))
    xhat = xc * inv
    return xhat * gain + bias, xhat, inv


def _layer_norm_grad(g: np.ndarray, xhat: np.ndarray, inv: np.ndarray, gain: Tensor, bias: Tensor,
                     input_grad: bool):
    """The backward of ``_layer_norm``: d input (None unless ``input_grad``) and the gain and bias pairs."""
    d_input = None
    if input_grad:
        dxhat = g * gain.data
        term = dxhat - dxhat.mean(axis=-1, keepdims=True) - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
        d_input = inv * term
    pairs = []
    reduce_axes = tuple(range(g.ndim - 1))
    if gain.requires_grad:
        pairs.append((gain, _unbroadcast((g * xhat).sum(axis=reduce_axes), gain.data.shape)))
    if bias.requires_grad:
        pairs.append((bias, _unbroadcast(g.sum(axis=reduce_axes), bias.data.shape)))
    return d_input, pairs


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor, eps: float = _NORM_EPS) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    _check_same_dtype(a, gain, bias)
    out_data, xhat, inv = _layer_norm(a.data, gain.data, bias.data, eps)

    def bwd(g):
        d_a, pairs = _layer_norm_grad(g, xhat, inv, gain, bias, a.requires_grad)
        return pairs if d_a is None else [(a, d_a), *pairs]

    return _result(out_data, (a, gain, bias), bwd)


def residual_norm(x: Tensor, out: Tensor, gain: Tensor, bias: Tensor, rate: float = 0.0,
                  rng: np.random.Generator | None = None) -> Tensor:
    """The post-norm residual ``layer_norm(x + dropout(out, rate))`` of x and out (..., d) as one tape node.

    gain and bias are (d,).  At ``rate`` 0 nothing is dropped and ``rng`` is
    not drawn; above it the keep mask is drawn from ``rng`` as ``dropout``
    draws it, so the generator ends in the same state.  The node keeps only
    the normalized rows, their inverse deviations and the boolean mask: the
    sum and the dropped ``out`` are freed in the forward.  It makes the numpy
    calls of ``dropout``, ``add`` and ``layer_norm`` (at its default eps)
    composed, so values and gradients are bitwise theirs.
    """
    xd, od = x.data, out.data
    if xd.shape != od.shape or xd.ndim < 1:
        raise ValueError(f"residual_norm needs x and out of one shape (..., d), got x {xd.shape} and out {od.shape}")
    if gain.data.shape != xd.shape[-1:] or bias.data.shape != xd.shape[-1:]:
        raise ValueError(f"residual_norm needs gain and bias (d,) = {xd.shape[-1:]} for x {xd.shape}, "
                         f"got gain {gain.data.shape} and bias {bias.data.shape}")
    _check_same_dtype(x, out, gain, bias)
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"residual_norm dropout rate must be in [0, 1), got {rate}")
    mask = None
    if rate > 0.0:
        if rng is None:
            raise ValueError(f"residual_norm needs an rng to drop out at rate {rate}")
        mask = _keep_mask(rng, od.shape, rate)
        od = od * _keep_scale(mask, rate, od.dtype)
    out_data, xhat, inv = _layer_norm(xd + od, gain.data, bias.data, _NORM_EPS)

    def bwd(g):
        d_sum, pairs = _layer_norm_grad(g, xhat, inv, gain, bias, x.requires_grad or out.requires_grad)
        head = []
        if x.requires_grad:
            head.append((x, d_sum))
        if out.requires_grad:
            head.append((out, d_sum if mask is None else d_sum * _keep_scale(mask, rate, out.data.dtype)))
        return head + pairs

    return _result(out_data, (x, out, gain, bias), bwd)


def concat(tensors: list[Tensor], axis: int = -1) -> Tensor:
    _check_same_dtype(*tensors)
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bwd(g):
        pairs = []
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis if axis >= 0 else g.ndim + axis] = slice(start, stop)
                pairs.append((t, g[tuple(idx)]))
        return pairs

    return _result(out_data, tuple(tensors), bwd)


def slice_axis(a: Tensor, axis: int, start: int, stop: int) -> Tensor:
    nd = a.data.ndim
    ax = axis if axis >= 0 else nd + axis
    idx = [slice(None)] * nd
    idx[ax] = slice(start, stop)
    out_data = a.data[tuple(idx)]

    def bwd(g):
        full = np.zeros_like(a.data)
        full[tuple(idx)] = g
        return [(a, full)]

    return _result(out_data, (a,), bwd)


def embedding_lookup(table: Tensor, ids) -> Tensor:
    """Gather rows of a (V, d) table; output shape is ids.shape + (d,)."""
    ids = np.asarray(ids, dtype=np.int64)
    v = table.data.shape[0]
    if ids.size and (ids.min() < 0 or ids.max() >= v):
        raise ValueError(f"embedding id out of range [0, {v})")
    out_data = table.data[ids]

    def bwd(g):
        dt = np.zeros_like(table.data)
        np.add.at(dt, ids.ravel(), g.reshape(-1, table.data.shape[1]))
        return [(table, dt)]

    return _result(out_data, (table,), bwd)


def reshape(a: Tensor, shape) -> Tensor:
    out_data = a.data.reshape(shape)

    def bwd(g):
        return [(a, g.reshape(a.data.shape))]

    return _result(out_data, (a,), bwd)


def broadcast_to(a: Tensor, shape) -> Tensor:
    out_data = np.broadcast_to(a.data, shape)

    def bwd(g):
        return [(a, _unbroadcast(g, a.data.shape))]

    return _result(out_data, (a,), bwd)


def sum_all(a: Tensor) -> Tensor:
    out_data = np.asarray(a.data.sum(), dtype=a.data.dtype)

    def bwd(g):
        return [(a, np.broadcast_to(g, a.data.shape))]

    return _result(out_data, (a,), bwd)


def mean_all(a: Tensor) -> Tensor:
    n = a.data.size
    out_data = np.asarray(a.data.mean(), dtype=a.data.dtype)

    def bwd(g):
        return [(a, np.broadcast_to(g / n, a.data.shape))]

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
        onehot = np.zeros_like(d)
        np.put_along_axis(onehot, targets[..., None], 1.0, axis=-1)
        weight = (m / steps[..., None])[..., None] / n_seq
        return [(logits, g * weight * (softmax - onehot))]

    return _result(out_data, (logits,), bwd)


def dropout(a: Tensor, rate: float, rng: np.random.Generator | None = None, mask: np.ndarray | None = None) -> Tensor:
    """Inverted dropout; identity when rate is 0.

    Pass ``mask`` (a boolean keep mask of ``a``'s shape) to replay a fixed
    pattern, e.g. for gradient checking.  The node keeps the boolean mask and
    rebuilds its scaled float form in the backward.
    """
    if rate <= 0.0:
        return a
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if mask is None:
        if rng is None:
            raise ValueError("dropout needs an rng or an explicit mask")
        mask = _keep_mask(rng, a.data.shape, rate)
    else:
        mask = np.asarray(mask)
        if mask.dtype != np.bool_ or mask.shape != a.data.shape:
            raise ValueError(f"dropout mask must be boolean with the input's shape {a.data.shape}, "
                             f"got {mask.dtype.name} {mask.shape}")
    out_data = a.data * _keep_scale(mask, rate, a.data.dtype)

    def bwd(g):
        return [(a, g * _keep_scale(mask, rate, a.data.dtype))]

    return _result(out_data, (a,), bwd)


def _keep_mask(rng: np.random.Generator, shape, rate: float) -> np.ndarray:
    """Dropout's boolean keep mask: one uniform draw per element."""
    return rng.random(shape) >= rate


def _keep_scale(mask: np.ndarray, rate: float, dtype) -> np.ndarray:
    """The scaled float form of a keep mask, built anew when needed rather than kept."""
    return mask.astype(dtype) / np.array(1.0 - rate, dtype=dtype)


def _accumulate(total, step):
    """``total + step``, in ``total``'s buffer; the first step starts the total."""
    return step if total is None else np.add(total, step, out=total)


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
    track = _grad_enabled and any(p.requires_grad for p in (x, w_x, w_h, b))
    h = np.zeros((bsz, d), dtype=dtype)
    c = np.zeros((bsz, d), dtype=dtype)
    out_data = np.empty((bsz, n, d), dtype=dtype)
    saved = []  # per step, in forward order: what the backward reads
    for t in range(n - 1, -1, -1) if reverse else range(n):
        x_t = xs[:, t : t + 1, :].reshape(bsz, e)
        m_t = mask[:, t : t + 1].astype(dtype)
        pre = (x_t @ wx + h @ wh) + bias
        act = _sigmoid(pre)  # i, f and o; the g slice is replaced by its tanh
        act[:, 2 * d : 3 * d] = np.tanh(pre[:, 2 * d : 3 * d])
        i, f, g, o = act[:, :d], act[:, d : 2 * d], act[:, 2 * d : 3 * d], act[:, 3 * d :]
        c_new = f * c + i * g
        tanh_c = np.tanh(c_new)
        if track:
            saved.append((t, x_t, m_t, h, c, act, tanh_c))
        h = (o * tanh_c) * m_t  # PAD steps stay exactly zero
        c = c_new * m_t
        out_data[:, t, :] = h

    def bwd(g_out):
        dx = np.empty_like(xs) if x.requires_grad else None
        dw_x = dw_h = db = None
        dh = dc = None  # what reaches the masked h and c of a step from the step after it
        while saved:  # last step first, each step's arrays dropped once used
            t, x_t, m_t, h_prev, c_prev, act, tanh_c = saved.pop()
            i, f, g, o = act[:, :d], act[:, d : 2 * d], act[:, 2 * d : 3 * d], act[:, 3 * d :]
            dh_new = (g_out[:, t, :] if dh is None else g_out[:, t, :] + dh) * m_t
            dc_new = (dh_new * o) * (1.0 - tanh_c * tanh_c)
            if dc is not None:
                dc_new = dc * m_t + dc_new
            d_act = np.empty_like(act)
            d_act[:, :d] = dc_new * g
            d_act[:, d : 2 * d] = dc_new * c_prev
            d_act[:, 2 * d : 3 * d] = dc_new * i
            d_act[:, 3 * d :] = dh_new * tanh_c
            d_pre = (d_act * act) * (1.0 - act)
            d_pre[:, 2 * d : 3 * d] = d_act[:, 2 * d : 3 * d] * (1.0 - g * g)
            if dx is not None:
                dx[:, t, :] = d_pre @ np.swapaxes(wx, -1, -2)
            if w_x.requires_grad:
                dw_x = _accumulate(dw_x, np.swapaxes(x_t, -1, -2) @ d_pre)
            if w_h.requires_grad:
                dw_h = _accumulate(dw_h, np.swapaxes(h_prev, -1, -2) @ d_pre)
            if b.requires_grad:
                db = _accumulate(db, d_pre.sum(axis=(0,)))
            if saved:  # the first step's zero start states take no gradient
                dh = d_pre @ np.swapaxes(wh, -1, -2)
                dc = dc_new * f
        return [(p, grad) for p, grad in ((x, dx), (w_x, dw_x), (w_h, dw_h), (b, db)) if grad is not None]

    return _result(out_data, (x, w_x, w_h, b), bwd)


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
