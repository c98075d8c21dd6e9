"""Scaled dot-product and multi-head attention, plus sequence-mask helpers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import ParamStore, Tensor


def length_mask(lengths, width: int) -> np.ndarray:
    """(B, width) bool mask, True where the position is a real token."""
    lengths = np.asarray(lengths, dtype=np.int64)
    return np.arange(width)[None, :] < lengths[:, None]


def nonempty(ids, lengths):
    """``(ids, lengths)`` where zero-width or all-PAD rows read one PAD position."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.shape[1] == 0:
        ids = np.zeros((ids.shape[0], 1), dtype=np.int64)
    return ids, np.maximum(np.asarray(lengths, dtype=np.int64), 1)


def causal_mask(n: int) -> np.ndarray:
    """(n, n) bool mask; row t may attend to columns <= t."""
    return np.tril(np.ones((n, n), dtype=bool))


def sinusoidal_positions(max_len: int, dim: int, dtype=np.float32) -> np.ndarray:
    """Fixed position encodings: interleaved sin/cos over geometric wavelengths."""
    pos = np.arange(max_len, dtype=np.float64)[:, None]
    idx = np.arange(0, dim, 2, dtype=np.float64)[None, :]
    angles = pos / np.power(10000.0, idx / dim)
    pe = np.zeros((max_len, dim), dtype=np.float64)
    pe[:, 0::2] = np.sin(angles)
    pe[:, 1::2] = np.cos(angles[:, : dim // 2])
    return pe.astype(dtype)


def _broadcast(a: tuple, b: tuple) -> tuple | None:
    """``np.broadcast_shapes(a, b)`` in plain Python (cheap per decode step), None where they clash."""
    if a == b:
        return a
    n = max(len(a), len(b))
    out = []
    for x, y in zip((1,) * (n - len(a)) + a, (1,) * (n - len(b)) + b):
        if x != y and 1 not in (x, y):
            return None
        out.append(y if x == 1 else x)
    return tuple(out)


def scaled_dot_attention(q: Tensor, k: Tensor, v: Tensor, mask: np.ndarray | None = None):
    """softmax(q kT / sqrt(d_k)) v with optional validity mask on key positions.

    q is (..., A, d_k), k is (..., N, d_k), v is (..., N, d_v); mask broadcasts
    to (..., A, N) with True marking attendable entries.  Returns (context,
    weights); masked weights are exactly zero.  Operands that do not fit raise
    one ValueError naming all three shapes, before any op is recorded.
    """
    qs, ks, vs = q.shape, k.shape, v.shape
    if min(len(qs), len(ks), len(vs)) < 2 or qs[-1] != ks[-1] or ks[-2] != vs[-2]:
        raise ValueError(f"attention needs q (..., A, d_k), k (..., N, d_k) and v (..., N, d_v), "
                         f"got q {qs}, k {ks}, v {vs}")
    lead = _broadcast(qs[:-2], ks[:-2])
    if lead is None or _broadcast(lead, vs[:-2]) is None:
        raise ValueError(f"attention's leading axes do not broadcast: q {qs}, k {ks}, v {vs}")
    scores_shape = lead + (qs[-2], ks[-2])
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if _broadcast(mask.shape, scores_shape) != scores_shape:
            raise ValueError(f"attention mask {mask.shape} does not broadcast to the scores (..., A, N) "
                             f"= {scores_shape} of q {qs} and k {ks}")
    d_k = qs[-1]
    scores = T.scale(T.matmul(q, T.transpose(k)), 1.0 / np.sqrt(d_k))
    weights = T.softmax_rows(scores, mask=mask)
    context = T.matmul(weights, v)
    return context, weights


@dataclass
class MultiHeadParams:
    """Packed projections; columns [i*head_dim:(i+1)*head_dim] belong to head i."""

    wq: Tensor
    wk: Tensor
    wv: Tensor
    wo: Tensor
    num_heads: int


def init_multi_head(store: ParamStore, prefix: str, d: int, num_heads: int) -> MultiHeadParams:
    """Projections for ``num_heads`` heads over width ``d``; the caller checks that the heads divide ``d``."""
    return MultiHeadParams(
        wq=store.glorot(f"{prefix}.wq", (d, d)),
        wk=store.glorot(f"{prefix}.wk", (d, d)),
        wv=store.glorot(f"{prefix}.wv", (d, d)),
        wo=store.glorot(f"{prefix}.wo", (d, d)),
        num_heads=num_heads,
    )


def _split_heads(x: Tensor, num_heads: int) -> Tensor:
    # (B, N, d) -> (B, h, N, d/h)
    b, n, d = x.shape
    return T.transpose(T.reshape(x, (b, n, num_heads, d // num_heads)), 1, 2)


def _merge_heads(x: Tensor) -> Tensor:
    # (B, h, N, d/h) -> (B, N, d)
    b, h, n, hd = x.shape
    return T.reshape(T.transpose(x, 1, 2), (b, n, h * hd))


def project_kv(params: MultiHeadParams, keys: Tensor, values: Tensor):
    """Per-head keys and values (B, h, N, d/h) of batched (B, N, d) inputs."""
    h = params.num_heads
    return _split_heads(T.linear(keys, params.wk), h), _split_heads(T.linear(values, params.wv), h)


def attend(params: MultiHeadParams, query: Tensor, k: Tensor, v: Tensor,
           mask: np.ndarray | None = None):
    """Multi-head attention of (B, A, d) queries over keys and values from ``project_kv``.

    mask broadcasts to (B, A, N) over query/key positions and applies
    identically to every head.  Returns (output (B, A, d), weights
    (B, h, A, N)).
    """
    q = _split_heads(T.linear(query, params.wq), params.num_heads)
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        while mask.ndim < 3:
            mask = mask[None]
        mask = mask[:, None, :, :]  # shared across heads
    context, weights = scaled_dot_attention(q, k, v, mask=mask)
    out = T.linear(_merge_heads(context), params.wo)
    return out, weights


def multi_head(params: MultiHeadParams, query: Tensor, keys: Tensor, values: Tensor,
               mask: np.ndarray | None = None):
    """Multi-head attention over batched (B, len, d) inputs: ``attend`` after ``project_kv``."""
    return attend(params, query, *project_kv(params, keys, values), mask=mask)
