"""Attention primitive tests, including an independent per-head reference."""

import numpy as np
import pytest

from qatip import tensor as T
from qatip.attention import (
    causal_mask,
    init_multi_head,
    length_mask,
    multi_head,
    scaled_dot_attention,
    sinusoidal_positions,
)
from qatip.tensor import ParamStore, Tensor, backward


def test_single_position_attends_to_itself():
    q = Tensor(np.ones((1, 1, 4)))
    k = Tensor(np.ones((1, 1, 4)))
    v = Tensor(np.array([[[1.0, 2.0, 3.0, 4.0]]]))
    ctx, w = scaled_dot_attention(q, k, v)
    assert np.allclose(w.data, 1.0)
    assert np.allclose(ctx.data, v.data)


def test_identical_keys_give_uniform_weights():
    rng = np.random.default_rng(0)
    q = Tensor(rng.standard_normal((2, 3, 4)))
    k = Tensor(np.broadcast_to(rng.standard_normal((1, 1, 4)), (2, 5, 4)).copy())
    v = Tensor(rng.standard_normal((2, 5, 4)))
    ctx, w = scaled_dot_attention(q, k, v)
    assert np.allclose(w.data, 0.2, atol=1e-6)
    assert np.allclose(ctx.data, v.data.mean(axis=1, keepdims=True), atol=1e-6)


def test_scores_scaled_by_sqrt_key_dim():
    d_k = 16
    q = Tensor(np.ones((1, 1, d_k)))
    k = Tensor(np.stack([np.ones(d_k), np.zeros(d_k)])[None])
    v = Tensor(np.array([[[1.0], [0.0]]]))
    _, w = scaled_dot_attention(q, k, v)
    # dot products are d_k and 0, so logits after scaling are sqrt(d_k) and 0
    expected = np.exp(np.sqrt(d_k)) / (np.exp(np.sqrt(d_k)) + 1.0)
    assert abs(w.data[0, 0, 0] - expected) < 1e-6


def test_masked_key_positions_get_zero_weight():
    rng = np.random.default_rng(1)
    q = Tensor(rng.standard_normal((2, 3, 4)))
    k = Tensor(rng.standard_normal((2, 5, 4)))
    v = Tensor(rng.standard_normal((2, 5, 4)))
    mask = np.ones((2, 1, 5), dtype=bool)
    mask[:, :, 2] = False
    _, w = scaled_dot_attention(q, k, v, mask=mask)
    assert np.all(w.data[:, :, 2] == 0.0)
    assert np.allclose(w.data.sum(-1), 1.0, atol=1e-6)


def test_masked_value_rows_cannot_leak():
    rng = np.random.default_rng(2)
    q = Tensor(rng.standard_normal((1, 2, 4)))
    k = Tensor(rng.standard_normal((1, 5, 4)))
    v_base = rng.standard_normal((1, 5, 4))
    mask = np.array([[[True, True, True, False, False]]])
    ctx1, _ = scaled_dot_attention(q, k, Tensor(v_base), mask=mask)
    v_mut = v_base.copy()
    v_mut[0, 3:] = 1e6
    ctx2, _ = scaled_dot_attention(q, k, Tensor(v_mut), mask=mask)
    assert np.allclose(ctx1.data, ctx2.data)


def _reference_multi_head(x_q, x_k, x_v, wq, wk, wv, wo, h, mask=None):
    """Per-head loop written directly against numpy, no Tensor machinery."""
    d = wq.shape[0]
    hd = d // h
    outs = []
    for i in range(h):
        q = x_q @ wq[:, i * hd : (i + 1) * hd]
        k = x_k @ wk[:, i * hd : (i + 1) * hd]
        v = x_v @ wv[:, i * hd : (i + 1) * hd]
        scores = q @ k.T / np.sqrt(hd)
        if mask is not None:
            scores = np.where(mask, scores, -1e9)
        scores = scores - scores.max(-1, keepdims=True)
        w = np.exp(scores)
        w = w / w.sum(-1, keepdims=True)
        if mask is not None:
            w = w * mask
        outs.append(w @ v)
    return np.concatenate(outs, axis=-1) @ wo


def test_multi_head_matches_per_head_reference():
    rng = np.random.default_rng(3)
    store = ParamStore(rng, dtype=np.float64)
    params = init_multi_head(store, "mh", 4, 2)
    x_q = rng.standard_normal((3, 4))
    x_kv = rng.standard_normal((5, 4))
    mask = np.ones((3, 5), dtype=bool)
    mask[:, 4] = False

    out, _ = multi_head(params, Tensor(x_q[None], dtype=np.float64),
                        Tensor(x_kv[None], dtype=np.float64), Tensor(x_kv[None], dtype=np.float64),
                        mask=mask[None])
    expected = _reference_multi_head(x_q, x_kv, x_kv,
                                     params.wq.data, params.wk.data, params.wv.data,
                                     params.wo.data, h=2, mask=mask)
    assert np.abs(out.data[0] - expected).max() < 1e-6


def test_single_head_equals_scaled_dot_composition():
    rng = np.random.default_rng(4)
    store = ParamStore(rng, dtype=np.float64)
    params = init_multi_head(store, "mh", 6, 1)
    x = Tensor(rng.standard_normal((1, 4, 6)), dtype=np.float64)

    out, _ = multi_head(params, x, x, x)
    ctx, _ = scaled_dot_attention(T.matmul(x, params.wq), T.matmul(x, params.wk), T.matmul(x, params.wv))
    expected = T.matmul(ctx, params.wo)
    assert np.abs(out.data - expected.data).max() < 1e-6


def test_key_permutation_equivariance():
    # attention is a weighted bag over keys: permuting key/value rows together
    # (mask included) leaves the output unchanged
    rng = np.random.default_rng(5)
    params = init_multi_head(ParamStore(rng, dtype=np.float64), "mh", 8, 2)
    x_q = Tensor(rng.standard_normal((1, 3, 8)), dtype=np.float64)
    kv = rng.standard_normal((1, 6, 8))
    mask = rng.random((1, 3, 6)) > 0.2
    mask[..., 0] = True
    perm = rng.permutation(6)

    out1, _ = multi_head(params, x_q, Tensor(kv, dtype=np.float64), Tensor(kv, dtype=np.float64), mask=mask)
    out2, _ = multi_head(params, x_q, Tensor(kv[:, perm], dtype=np.float64),
                         Tensor(kv[:, perm], dtype=np.float64), mask=mask[:, :, perm])
    assert np.abs(out1.data - out2.data).max() < 1e-9


def test_causal_mask_blocks_future():
    m = causal_mask(4)
    assert m.shape == (4, 4)
    assert m[0, 0] and not m[0, 1]
    assert m[3].all()
    rng = np.random.default_rng(6)
    params = init_multi_head(ParamStore(rng, dtype=np.float64), "mh", 4, 2)
    x = rng.standard_normal((1, 4, 4))
    out1, _ = multi_head(params, Tensor(x, dtype=np.float64), Tensor(x, dtype=np.float64),
                         Tensor(x, dtype=np.float64), mask=m[None])
    x_mut = x.copy()
    x_mut[0, 3] += 5.0  # future token must not affect position 1
    out2, _ = multi_head(params, Tensor(x_mut, dtype=np.float64), Tensor(x_mut, dtype=np.float64),
                         Tensor(x_mut, dtype=np.float64), mask=m[None])
    assert np.abs(out1.data[0, :3] - out2.data[0, :3]).max() < 1e-9


def test_length_mask_values():
    m = length_mask([3, 1], 4)
    assert m.tolist() == [[True, True, True, False], [True, False, False, False]]


def test_sinusoidal_encoding_structure():
    pe = sinusoidal_positions(50, 8)
    assert pe.shape == (50, 8)
    assert np.allclose(pe[0, 0::2], 0.0)
    assert np.allclose(pe[0, 1::2], 1.0)
    assert abs(pe[1, 0] - np.sin(1.0)) < 1e-6
    assert abs(pe[1, 1] - np.cos(1.0)) < 1e-6
    assert abs(pe[3, 2] - np.sin(3.0 / 10000 ** (2 / 8))) < 1e-6
    assert np.all(np.abs(pe) <= 1.0)


def test_attention_gradients_flow():
    rng = np.random.default_rng(7)
    store = ParamStore(rng, dtype=np.float64)
    params = init_multi_head(store, "mh", 4, 2)
    x = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True, dtype=np.float64)
    out, _ = multi_head(params, x, x, x)
    backward(T.mean_all(out))
    assert x.grad is not None and np.abs(x.grad).max() > 0
    for p in store.parameters():
        assert p.tensor.grad is not None


def _numpy_attention(q, k, v, mask, g):
    """The chain's numpy calls, forward and backward, written out: (context, weights, dq, dk, dv) for d context = g."""
    kt = np.swapaxes(k, -2, -1)
    scores = (q @ kt) * np.array(float(1.0 / np.sqrt(q.shape[-1])), dtype=q.dtype)
    m = None if mask is None else np.broadcast_to(mask, scores.shape)
    if m is not None:
        scores = np.where(m, scores, np.array(-1e9, dtype=scores.dtype))
    ex = np.exp(scores - scores.max(axis=-1, keepdims=True))
    weights = ex / ex.sum(axis=-1, keepdims=True)
    if m is not None:
        weights = weights * m
    g_weights = g @ np.swapaxes(v, -1, -2)
    g_scores = weights * (g_weights - (g_weights * weights).sum(axis=-1, keepdims=True))
    g_scores = g_scores * np.array(float(1.0 / np.sqrt(q.shape[-1])), dtype=q.dtype)
    dq = g_scores @ np.swapaxes(kt, -1, -2)
    dk = np.swapaxes(np.swapaxes(q, -1, -2) @ g_scores, -2, -1)
    return weights @ v, weights, dq, dk, np.swapaxes(weights, -1, -2) @ g


def _heads(rng, b, n, h, d, dtype):
    # a (B, h, N, d/h) view of a (B, N, h, d/h) array, the layout _split_heads hands on
    return Tensor(np.swapaxes(rng.standard_normal((b, n, h, d)).astype(dtype), 1, 2), requires_grad=True)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case, a_len, n", [
    ("none", 6, 6), ("key_padding", 5, 7), ("causal", 6, 6), ("decode", 1, 7), ("decode_key_padding", 1, 7),
])
def test_attention_is_bitwise_the_primitive_chain(dtype, case, a_len, n):
    """On the tape, scaled_dot_attention's values and gradients are bitwise its ops' numpy calls."""
    rng = np.random.default_rng(60 + a_len + n)
    b, h, d_k, d_v = 3, 2, 3, 5  # 1/sqrt(3) rounds, so scaling before or after the product differs
    q, k, v = _heads(rng, b, a_len, h, d_k, dtype), _heads(rng, b, n, h, d_k, dtype), _heads(rng, b, n, h, d_v, dtype)
    mask = {"causal": causal_mask(n)[None, None],
            "key_padding": length_mask([n, 1, 4], n)[:, None, None, :],
            "decode_key_padding": length_mask([n, 1, 4], n)[:, None, None, :]}.get(case)
    probe = Tensor(rng.standard_normal((b, h, a_len, d_v)), dtype=dtype)
    context, weights = scaled_dot_attention(q, k, v, mask)
    backward(T.sum_all(T.mul(context, probe)))
    want = _numpy_attention(q.data, k.data, v.data, mask, probe.data)
    for name, ref, got in zip(["context", "weights", "q", "k", "v"], want,
                              [context.data, weights.data, q.grad, k.grad, v.grad]):
        assert got.dtype == dtype and np.array_equal(ref, got), name
    if mask is not None:
        assert np.all(weights.data[~np.broadcast_to(mask, weights.shape)] == 0.0)
    with T.no_grad():
        context, weights = scaled_dot_attention(q, k, v, mask)
    assert not context.requires_grad and context._backward is None and np.array_equal(context.data, want[0])
    assert not weights.requires_grad and weights._backward is None


@pytest.mark.parametrize("q_shape, k_shape, v_shape, mask_shape, match", [
    ((2, 3, 4), (2, 5, 3), (2, 5, 4), None, r"q \(2, 3, 4\), k \(2, 5, 3\), v \(2, 5, 4\)"),
    ((2, 3, 4), (2, 5, 4), (2, 6, 4), None, r"q \(2, 3, 4\), k \(2, 5, 4\), v \(2, 6, 4\)"),
    ((4,), (5, 4), (5, 4), None, r"q \(4,\)"),
    ((2, 3, 4), (3, 5, 4), (3, 5, 4), None, "leading axes do not broadcast"),
    ((2, 3, 4), (2, 5, 4), (2, 5, 4), (2, 3, 4), r"mask \(2, 3, 4\) does not broadcast .* \(2, 3, 5\)"),
    ((2, 3, 4), (2, 5, 4), (2, 5, 4), (3, 1, 5), r"mask \(3, 1, 5\) does not broadcast"),
])
def test_attention_rejects_bad_operands(q_shape, k_shape, v_shape, mask_shape, match):
    mask = None if mask_shape is None else np.ones(mask_shape, dtype=bool)
    q = Tensor(np.zeros(q_shape), requires_grad=True)
    with pytest.raises(ValueError, match=match):
        scaled_dot_attention(q, Tensor(np.zeros(k_shape)), Tensor(np.zeros(v_shape)), mask=mask)
    assert q._node is None  # rejected before the first op read q


def test_attention_fully_masked_row_rejected():
    mask = np.ones((2, 3, 5), dtype=bool)
    mask[1, 2] = False
    with pytest.raises(ValueError, match="softmax row is fully masked"):
        scaled_dot_attention(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((2, 5, 4))), Tensor(np.zeros((2, 5, 4))),
                             mask=mask)
