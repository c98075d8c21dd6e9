"""Autodiff engine, optimizer, and gradient-check harness tests."""

import gc
import math
import os
import re
import subprocess
import sys
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qatip import tensor as T
from qatip.corpus import Triplet, make_batch
from qatip.gradcheck import finite_difference, rel_error, run_op_checks
from qatip.optim import Adam, clip_global_norm
from qatip.rnn import QaRnnModel, RnnConfig
from qatip.tensor import ParamStore, Tensor, backward, no_grad
from qatip.transformer import QaTransformerModel, TransformerConfig

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def test_sigmoid_at_zero():
    out = T.sigmoid(Tensor(np.zeros((2, 3))))
    assert np.allclose(out.data, 0.5)


def test_sigmoid_extreme_inputs_stable():
    out = T.sigmoid(Tensor(np.array([-1e4, 1e4], dtype=np.float64)))
    assert np.all(np.isfinite(out.data))
    assert out.data[0] == 0.0 and out.data[1] == 1.0


def test_softmax_uniform_row():
    out = T.softmax_rows(Tensor(np.zeros((1, 4))))
    assert np.allclose(out.data, 0.25)
    assert np.allclose(out.data.sum(axis=-1), 1.0)


def test_softmax_masked_entries_exactly_zero():
    x = Tensor(np.random.default_rng(0).standard_normal((2, 3, 5)))
    mask = np.ones((2, 3, 5), dtype=bool)
    mask[..., 3:] = False
    out = T.softmax_rows(x, mask=mask)
    assert np.all(out.data[..., 3:] == 0.0)
    assert np.allclose(out.data.sum(axis=-1), 1.0, atol=1e-6)


def test_softmax_fully_masked_row_rejected():
    x = Tensor(np.zeros((2, 4)))
    mask = np.ones((2, 4), dtype=bool)
    mask[1] = False
    with pytest.raises(ValueError, match="fully masked"):
        T.softmax_rows(x, mask=mask)


def test_layer_norm_constant_row_collapses_to_bias():
    x = Tensor(np.full((3, 8), 2.5))
    gain = Tensor(np.ones(8))
    bias = Tensor(np.zeros(8))
    out = T.layer_norm(x, gain, bias)
    assert np.all(np.abs(out.data) < 1e-3)


def test_layer_norm_statistics():
    rng = np.random.default_rng(1)
    x = Tensor(rng.standard_normal((4, 6)) * 3 + 1, dtype=np.float64)
    out = T.layer_norm(x, Tensor(np.ones(6), dtype=np.float64), Tensor(np.zeros(6), dtype=np.float64))
    assert np.allclose(out.data.mean(axis=-1), 0.0, atol=1e-6)
    assert np.allclose(out.data.var(axis=-1), 1.0, atol=1e-3)


def test_nll_uniform_logits_is_log_vocab():
    # flat distribution over V classes scores -log(1/V) per step
    logits = Tensor(np.zeros((2, 3, 4)))
    targets = np.array([[0, 1, 2], [3, 0, 1]])
    loss = T.nll_loss(logits, targets)
    assert abs(loss.item() - np.log(4.0)) < 1e-6


def test_nll_respects_pad_mask():
    rng = np.random.default_rng(2)
    logits = rng.standard_normal((2, 4, 5))
    targets = rng.integers(0, 5, size=(2, 4))
    mask = np.array([[1, 1, 0, 0], [1, 1, 1, 0]])
    loss = T.nll_loss(Tensor(logits), targets, pad_mask=mask).item()

    # hand computation, per sequence mean over counted steps then batch mean
    def seq_loss(row, tgt, m):
        ls = row - (np.log(np.exp(row - row.max(-1, keepdims=True)).sum(-1, keepdims=True)) + row.max(-1, keepdims=True))
        vals = [-ls[t, tgt[t]] for t in range(len(tgt)) if m[t]]
        return np.mean(vals)

    expected = np.mean([seq_loss(logits[b], targets[b], mask[b]) for b in range(2)])
    assert abs(loss - expected) < 1e-6


@pytest.mark.parametrize("dtype, gap", [(np.float64, 30.0), (np.float32, 12.0)])
def test_nll_keeps_precision_of_confident_steps(dtype, gap):
    # each step puts 1 / (1 + 2 e^-gap) on its target; as lse - d_t the loss keeps only
    # the bits of lse below the gap, and a memorized model's gradient check then fails
    logits = Tensor(np.array([[gap, 0.0, 0.0], [0.0, gap, 0.0]]), dtype=dtype)
    loss = T.nll_loss(logits, np.array([0, 1]))
    want = math.log1p(2.0 * math.exp(-gap))
    assert loss.data.dtype == dtype
    assert abs(loss.item() - want) <= 4 * np.finfo(dtype).eps * want


def test_nll_all_masked_sequence_rejected():
    logits = Tensor(np.zeros((2, 3, 4)))
    targets = np.zeros((2, 3), dtype=np.int64)
    mask = np.array([[1, 1, 1], [0, 0, 0]])
    with pytest.raises(ValueError, match="masked"):
        T.nll_loss(logits, targets, pad_mask=mask)


@pytest.mark.parametrize("mask_shape", [(2, 1), (3,), (2, 3, 1), (1, 3)])
def test_nll_pad_mask_of_another_shape_rejected(mask_shape):
    # each of these broadcasts against the (2, 3) targets and would weigh the steps wrongly
    logits = Tensor(np.random.default_rng(0).standard_normal((2, 3, 5)))
    with pytest.raises(ValueError, match=rf"^pad_mask shape {re.escape(str(mask_shape))} does not match targets \(2, 3\)$"):
        T.nll_loss(logits, np.zeros((2, 3), dtype=np.int64), pad_mask=np.ones(mask_shape))


def test_nll_target_out_of_range_rejected():
    with pytest.raises(ValueError, match="out of range"):
        T.nll_loss(Tensor(np.zeros((1, 2, 3))), np.array([[0, 5]]))


def test_matmul_shape_mismatch_rejected():
    with pytest.raises(ValueError, match="mismatch"):
        T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))


def test_mixed_dtype_rejected():
    a = Tensor(np.zeros((2, 2)), dtype=np.float32)
    b = Tensor(np.zeros((2, 2)), dtype=np.float64)
    with pytest.raises(TypeError, match="mixed"):
        T.add(a, b)


@pytest.mark.parametrize("x_shape, w_shape, b_shape, w_dtype, b_dtype, error, match", [
    ((2, 3, 4), (5, 6), None, np.float64, None, ValueError, r"\(2, 3, 4\) and \(5, 6\)"),
    ((2, 4), (4,), None, np.float64, None, ValueError, r"\(2, 4\) and \(4,\)"),
    ((2, 4), (4, 3), (4,), np.float64, np.float64, ValueError, r"bias shape \(4,\)"),
    ((2, 4), (4, 3), None, np.float32, None, TypeError, "mixed"),
    ((2, 4), (4, 3), (3,), np.float64, np.float32, TypeError, "mixed"),
])
def test_linear_rejects_bad_operands(x_shape, w_shape, b_shape, w_dtype, b_dtype, error, match):
    x = Tensor(np.zeros(x_shape), dtype=np.float64)
    w = Tensor(np.zeros(w_shape), dtype=w_dtype)
    b = None if b_shape is None else Tensor(np.zeros(b_shape), dtype=b_dtype)
    with pytest.raises(error, match=match):
        T.linear(x, w, b)


@pytest.mark.parametrize("x_shape, w_x_shape, w_h_shape, b_shape, mask_shape, b_dtype, error, match", [
    ((2, 5), (5, 12), (3, 12), (12,), (2, 5), np.float64, ValueError, r"x \(B, N, e\), got \(2, 5\)"),
    ((2, 5, 4), (3, 12), (3, 12), (12,), (2, 5), np.float64, ValueError, r"w_x .* \(4, 12\) .* got \(3, 12\)"),
    ((2, 5, 4), (4, 12), (3, 8), (12,), (2, 5), np.float64, ValueError, r"w_h \(d, 4d\), got \(3, 8\)"),
    ((2, 5, 4), (4, 12), (3, 12), (3, 4), (2, 5), np.float64, ValueError, r"b .* \(12,\) .* got \(3, 4\)"),
    ((2, 5, 4), (4, 12), (3, 12), (12,), (5, 2), np.float64, ValueError, r"mask .* \(2, 5\) .* got \(5, 2\)"),
    ((2, 5, 4), (4, 12), (3, 12), (12,), (2, 5), np.float32, TypeError, "mixed"),
])
def test_lstm_scan_rejects_bad_operands(x_shape, w_x_shape, w_h_shape, b_shape, mask_shape, b_dtype, error, match):
    operands = [Tensor(np.zeros(shape), dtype=np.float64) for shape in (x_shape, w_x_shape, w_h_shape)]
    with pytest.raises(error, match=match):
        T.lstm_scan(*operands, Tensor(np.zeros(b_shape), dtype=b_dtype), np.ones(mask_shape, dtype=bool))


def _linear_and_grads(op, x, w, b, probe):
    for t in (x, w, b):
        t.zero_grad()
    out = op()
    backward(T.sum_all(T.mul(out, Tensor(probe, dtype=np.float64))))
    return out.data, x.grad, w.grad, b.grad


@settings(max_examples=60, deadline=None)
@given(lead=st.lists(st.integers(1, 4), min_size=0, max_size=3), d=st.integers(1, 5),
       k=st.integers(1, 5), bias=st.booleans(), transposed=st.booleans(), seed=st.integers(0, 2**16))
def test_linear_equals_matmul_plus_add(lead, d, k, bias, transposed, seed):
    """In float64, one flattened GEMM gives matmul + add's values and all three gradients."""
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal((*lead, d)), requires_grad=True, dtype=np.float64)
    w_data = rng.standard_normal((k, d) if transposed else (d, k))
    w = Tensor(w_data, requires_grad=True, dtype=np.float64)
    b = Tensor(rng.standard_normal(k), requires_grad=True, dtype=np.float64)
    probe = rng.standard_normal((*lead, k))

    def weight():
        return T.transpose(w) if transposed else w

    def fused():
        return T.linear(x, weight(), b if bias else None)

    def reference():
        # matmul needs a leading axis, so a single row is run as a (1, d) matrix
        x2 = T.reshape(x, (1, d)) if not lead else x
        out = T.matmul(x2, weight())
        if bias:
            out = T.add(out, b)
        return T.reshape(out, (k,)) if not lead else out

    got = _linear_and_grads(fused, x, w, b, probe)
    want = _linear_and_grads(reference, x, w, b, probe)
    for g, r in zip(got, want):
        if r is None:  # the bias gradient when no bias was used
            assert g is None
            continue
        assert g.shape == r.shape
        assert rel_error(g, r) <= 1e-12


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("with_nan", [False, True])
def test_feed_forward_is_bitwise_linear_relu_linear(dtype, with_nan):
    """linear -> relu -> linear on the tape is bitwise its numpy calls with the ReLU mask taken from the input."""
    rng = np.random.default_rng(31)
    x = Tensor(rng.standard_normal((3, 5, 4)), requires_grad=True, dtype=dtype)
    w1, w2 = (Tensor(rng.standard_normal(shape), requires_grad=True, dtype=dtype) for shape in ((4, 8), (8, 4)))
    b1, b2 = (Tensor(rng.standard_normal(shape), requires_grad=True, dtype=dtype) for shape in ((8,), (4,)))
    x.data[0, 0] = 0.0  # with b1's zero entries, exact-zero pre-activations
    b1.data[:3] = 0.0
    if with_nan:
        x.data[2, 4, 1] = np.nan
    probe = Tensor(rng.standard_normal((3, 5, 4)), dtype=dtype)
    with np.errstate(invalid="ignore"):
        out = T.linear(T.relu(T.linear(x, w1, b1)), w2, b2)
        backward(T.sum_all(T.mul(out, probe)))
        x2, g2 = x.data.reshape(-1, 4), probe.data.reshape(-1, 4)
        pre = x2 @ w1.data + b1.data
        hidden = np.maximum(pre, 0)
        d_pre = (g2 @ w2.data.T) * (pre > 0)
        want = [hidden @ w2.data + b2.data, d_pre @ w1.data.T, x2.T @ d_pre, d_pre.sum(axis=0),
                hidden.T @ g2, g2.sum(axis=0)]
    assert (pre == 0.0).any() and (pre < 0.0).any() and (pre > 0.0).any()
    assert np.isnan(pre).any() == with_nan
    for name, ref, got in zip(["out", "x", "w1", "b1", "w2", "b2"], want,
                              [out.data, x.grad, w1.grad, b1.grad, w2.grad, b2.grad]):
        assert got.dtype == dtype and np.array_equal(ref, got.reshape(ref.shape), equal_nan=with_nan), name


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("rate", [0.0, 0.25])
def test_residual_norm_is_bitwise_dropout_add_layer_norm(dtype, rate):
    """The post-norm residual layer_norm(x + dropout(out)) on the tape is bitwise its numpy calls, one draw of rng."""
    rng = np.random.default_rng(41)
    x, out = (Tensor(rng.standard_normal((3, 5, 6)), requires_grad=True, dtype=dtype) for _ in range(2))
    gain = Tensor(rng.uniform(0.5, 1.5, 6), requires_grad=True, dtype=dtype)
    bias = Tensor(rng.standard_normal(6), requires_grad=True, dtype=dtype)
    probe = Tensor(rng.standard_normal((3, 5, 6)), dtype=dtype)
    drop_rng, twin = np.random.default_rng(42), np.random.default_rng(42)
    y = T.layer_norm(T.add(x, T.dropout(out, rate, rng=drop_rng)), gain, bias)
    backward(T.sum_all(T.mul(y, probe)))

    keep = (twin.random(out.shape) >= rate) if rate else np.ones(out.shape, dtype=bool)
    kept = keep.astype(dtype) / np.array(1.0 - rate, dtype=dtype)
    total = x.data + (out.data * kept if rate else out.data)
    xc = total - total.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + np.array(1e-5, dtype=dtype))
    xhat = xc * inv
    g = probe.data
    dxhat = g * gain.data
    d_sum = inv * (dxhat - dxhat.mean(axis=-1, keepdims=True) - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
    want = [xhat * gain.data + bias.data, d_sum, d_sum * kept if rate else d_sum,
            (g * xhat).sum(axis=(0, 1)), g.sum(axis=(0, 1))]
    for name, ref, got in zip(["value", "x", "out", "gain", "bias"], want, [y.data, x.grad, out.grad, gain.grad, bias.grad]):
        assert got.dtype == dtype and np.array_equal(ref, got), name
    assert drop_rng.bit_generator.state == twin.bit_generator.state
    assert (out.grad == 0).any() == (rate > 0)  # dropped entries pass no gradient to out


def _sigmoid_masked_reference(d):
    out = np.empty_like(d)
    pos = d >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
    ex = np.exp(d[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_matches_masked_form_bitwise(dtype):
    extremes = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 88.7, -88.7, 104.0, -104.0,
                745.0, -745.0, 1e-30, -1e-30, 20.0, -20.0]
    rng = np.random.default_rng(7)
    d = np.concatenate([np.array(extremes), rng.standard_normal(4096) * 30]).astype(dtype)
    with np.errstate(over="ignore", invalid="ignore"):
        got = T.sigmoid(Tensor(d)).data
        want = _sigmoid_masked_reference(d)
    assert got.dtype == want.dtype == dtype
    assert np.array_equal(got.view(np.uint8), want.view(np.uint8))


def test_embedding_lookup_gathers_rows():
    table = Tensor(np.arange(12, dtype=np.float32).reshape(4, 3))
    out = T.embedding_lookup(table, np.array([[0, 2], [3, 3]]))
    assert out.data.shape == (2, 2, 3)
    assert np.allclose(out.data[0, 1], [6, 7, 8])
    with pytest.raises(ValueError, match="out of range"):
        T.embedding_lookup(table, np.array([4]))


def test_embedding_grad_accumulates_repeated_ids():
    table = Tensor(np.zeros((3, 2)), requires_grad=True)
    out = T.embedding_lookup(table, np.array([1, 1, 2]))
    backward(T.sum_all(out))
    assert np.allclose(table.grad[1], [2, 2])
    assert np.allclose(table.grad[2], [1, 1])
    assert np.allclose(table.grad[0], [0, 0])


def test_backward_requires_scalar():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ValueError, match="scalar"):
        backward(T.scale(x, 2.0))


def test_backward_twice_doubles_grads():
    x = Tensor(np.array([[1.0, -2.0], [0.5, 3.0]]), requires_grad=True)

    def loss():
        return T.mean_all(T.mul(T.tanh(x), T.tanh(x)))

    backward(loss())
    first = x.grad.copy()
    backward(loss())
    assert np.allclose(x.grad, 2.0 * first)


def test_backward_linearity():
    rng = np.random.default_rng(3)
    x = Tensor(rng.standard_normal((3, 3)), requires_grad=True, dtype=np.float64)
    w = Tensor(rng.standard_normal((3, 3)), dtype=np.float64)

    def f():
        return T.sum_all(T.matmul(x, w))

    def g():
        return T.mean_all(T.sigmoid(x))

    x.zero_grad()
    backward(f())
    gf = x.grad.copy()
    x.zero_grad()
    backward(g())
    gg = x.grad.copy()
    x.zero_grad()
    combo = T.add(T.scale(f(), 2.0), T.scale(g(), -3.0))
    backward(combo)
    assert np.abs(x.grad - (2.0 * gf - 3.0 * gg)).max() < 1e-6


def test_grad_flows_through_shared_input():
    x = Tensor(np.array([[2.0]]), requires_grad=True)
    y = T.mul(x, x)  # same tensor on both sides
    backward(T.sum_all(y))
    assert np.allclose(x.grad, [[4.0]])


def test_no_grad_blocks_tape():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with no_grad():
        y = T.sigmoid(T.matmul(x, x))
    assert not y.requires_grad
    with pytest.raises(ValueError):
        backward(T.sum_all(y))


def test_intermediate_tensors_receive_grads():
    x = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
    h = T.tanh(x)
    loss = T.sum_all(h)
    backward(loss)
    assert h.grad is not None
    assert np.allclose(h.grad, 1.0)


def test_leaf_grad_owns_its_buffer_and_intermediate_grads_stay_put():
    rng = np.random.default_rng(6)
    x = Tensor(rng.standard_normal((3, 4)), requires_grad=True, dtype=np.float64)
    b = Tensor(rng.standard_normal((3, 4)), requires_grad=True, dtype=np.float64)
    probe = Tensor(rng.standard_normal((3, 4)), dtype=np.float64)
    h = T.add(x, b)  # add hands one gradient array to both of its inputs
    backward(T.sum_all(T.mul(h, probe)))
    assert np.array_equal(h.grad, probe.data)
    for leaf in (x, b):
        assert np.array_equal(leaf.grad, probe.data)
        assert not np.shares_memory(leaf.grad, h.grad)
    assert not np.shares_memory(x.grad, b.grad)
    backward(T.sum_all(T.mul(x, probe)))  # a second sweep accumulates into the leaf's slot in place
    assert np.array_equal(x.grad, 2 * probe.data)
    assert np.array_equal(h.grad, probe.data) and np.array_equal(b.grad, probe.data)
    # an intermediate's .grad is the flowing array itself: read-only under sum_all, shared by add's inputs
    u, v = T.tanh(x), T.tanh(b)
    backward(T.sum_all(T.add(u, v)))
    assert np.array_equal(u.grad, np.ones((3, 4))) and np.shares_memory(u.grad, v.grad)
    assert not u.grad.flags.writeable
    assert x.grad.flags.writeable and not np.shares_memory(x.grad, b.grad)


def test_second_backward_on_same_loss_raises():
    x = Tensor(np.array([[1.0, -2.0], [0.5, 3.0]]), requires_grad=True)
    loss = T.mean_all(T.mul(T.tanh(x), T.tanh(x)))
    backward(loss)
    once = x.grad.copy()
    with pytest.raises(RuntimeError, match="already swept.*rebuild the loss"):
        backward(loss)
    assert np.array_equal(x.grad, once)
    assert loss.grad == 1.0


def test_loss_on_swept_intermediate_raises():
    x = Tensor(np.array([[1.0, -2.0], [0.5, 3.0]]), requires_grad=True)
    h = T.tanh(x)
    backward(T.sum_all(T.mul(h, h)))
    once, h_once = x.grad.copy(), h.grad.copy()
    with pytest.raises(RuntimeError, match="already swept.*rebuild the loss"):
        backward(T.add(T.sum_all(h), T.sum_all(x)))
    assert np.array_equal(x.grad, once)
    assert np.array_equal(h.grad, h_once)


def test_backward_frees_intermediates_the_caller_dropped():
    x = Tensor(np.random.default_rng(0).standard_normal((8, 8)), requires_grad=True)
    h = T.tanh(x)
    activation = weakref.ref(h.data)
    loss = T.sum_all(T.mul(h, h))
    del h
    assert activation() is not None  # the graph still holds it
    backward(loss)
    assert activation() is None


def test_gradients_reach_through_intermediates_the_caller_dropped():
    rng = np.random.default_rng(8)
    x = Tensor(rng.standard_normal((4, 5)), requires_grad=True, dtype=np.float64)
    w = Tensor(rng.standard_normal((5, 3)), requires_grad=True, dtype=np.float64)
    probe = Tensor(rng.standard_normal((4, 3)), dtype=np.float64)
    grads = []
    for drop in (False, True):
        for t in (x, w):
            t.zero_grad()
        h = T.tanh(T.matmul(x, w))
        kept = T.relu(h)
        loss = T.sum_all(T.mul(T.sigmoid(kept), probe))
        dropped = weakref.ref(h)
        if drop:
            del h
            assert dropped() is None  # the graph holds no tensor, only what the backward reads
        backward(loss)
        grads.append([x.grad, w.grad, kept.grad])
    assert kept.grad is not None and kept.grad.shape == (4, 3)  # a kept intermediate gets its .grad
    for name, ref, got in zip(["x", "w", "kept"], *grads):
        assert np.array_equal(ref, got), name


def test_relu_mask_from_its_output_is_the_mask_from_its_input():
    d = np.array([np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf, 1e-310, -1e-310, 2.5, -2.5])
    for dtype in (np.float32, np.float64):
        a = Tensor(d, requires_grad=True, dtype=dtype)
        with np.errstate(invalid="ignore"):
            out = T.relu(a)
        assert np.array_equal(out.data > 0, a.data > 0)
        backward(T.sum_all(T.mul(out, Tensor(np.full(d.shape, 3.0), dtype=dtype))))
        assert np.array_equal(a.grad, np.where(a.data > 0, 3.0, 0.0).astype(dtype))


_TAPE_OPS = ("matmul", "linear", "transpose", "add", "sub", "mul", "scale", "sigmoid", "tanh", "relu",
             "softmax_rows", "layer_norm", "concat", "slice_axis", "embedding_lookup", "reshape",
             "broadcast_to", "sum_all", "mean_all", "nll_loss", "dropout", "lstm_scan", "decoder_scan")


@pytest.mark.parametrize("family", ["rnn", "transformer"])
def test_wrapping_each_backward_in_place_leaves_gradients_bitwise(monkeypatch, family):
    """A profiler wraps ``out._backward`` in a pass-through after each op; the sweep runs the wrapper."""
    if family == "rnn":
        cls, cfg = QaRnnModel, RnnConfig(vocab_size=12, emb_dim=6, hidden_dim=5, variant="both")
    else:
        cls, cfg = QaTransformerModel, TransformerConfig(vocab_size=12, model_dim=8, num_heads=2, num_layers=1,
                                                         ffn_dim=16, dropout=0.25, max_len=16)
    rng = np.random.default_rng(9)
    batch = make_batch([Triplet(tuple(rng.integers(3, 12, 6)), tuple(rng.integers(3, 12, 2)),
                                (1,) + tuple(rng.integers(3, 12, 3)) + (2,), "", "", "", str(i)) for i in range(2)])

    def grads():
        model = cls(cfg, seed=5)
        backward(model.forward_loss(batch, train=True))
        return {p.name: p.tensor.grad for p in model.params.parameters()}

    want = grads()
    made, calls = [], []

    def wrapping(op):
        def wrapped(*args, **kwargs):
            out = op(*args, **kwargs)
            if out._backward is not None and (not args or out is not args[0]):
                inner = out._backward
                out._backward = lambda g: calls.append(1) or inner(g)
                made.append(1)
            return out
        return wrapped

    for name in _TAPE_OPS:
        monkeypatch.setattr(T, name, wrapping(getattr(T, name)))
    got = grads()
    assert len(calls) == len(made) > 40  # the sweep ran every wrapper the ops made
    assert want.keys() == got.keys() and all(np.array_equal(want[k], got[k]) for k in want)


def _live(cls) -> list:
    return [o for o in gc.get_objects() if isinstance(o, cls)]


def test_backward_leaves_only_parameters_and_loss_alive():
    model = QaRnnModel(RnnConfig(vocab_size=12, emb_dim=6, hidden_dim=5, variant="both"), seed=0)
    rng = np.random.default_rng(1)
    batch = make_batch([
        Triplet(tuple(rng.integers(3, 12, 7)), tuple(rng.integers(3, 12, 2)),
                (1,) + tuple(rng.integers(3, 12, 4)) + (2,), "", "", "", str(i))
        for i in range(3)
    ])
    gc.collect()
    before, nodes_before = len(_live(Tensor)), len(_live(T._Node))  # the parameters and whatever else the test process holds
    loss = model.forward_loss(batch, train=True)
    assert len(_live(T._Node)) > nodes_before + 50  # the tape
    assert len(_live(Tensor)) <= before + 1  # its nodes hold no tensor the forward made, only the loss is left
    backward(loss)
    assert len(_live(Tensor)) <= before + 3
    # what is left of the graph: the parameters' leaf nodes and the swept loss's node
    assert all(n.parents == () and n.backward in (None, T._released) for n in _live(T._Node))
    assert all(p.tensor.grad is not None for p in model.params.parameters())


def test_dropout_identity_at_zero_rate():
    x = Tensor(np.ones((4, 4)), requires_grad=True)
    assert T.dropout(x, 0.0) is x


@pytest.mark.parametrize("rate", [-0.5, -0.0001, 1.0, 1.5, float("nan")])
def test_dropout_rejects_a_rate_outside_0_1(rate):
    x = Tensor(np.ones((2, 3)), requires_grad=True)
    with pytest.raises(ValueError, match=r"dropout rate must be in \[0, 1\), got"):
        T.dropout(x, rate, rng=np.random.default_rng(0))
    with pytest.raises(ValueError, match=r"dropout rate must be in \[0, 1\), got"):
        T.dropout(x, rate)  # rejected before it would look for an rng, or hand x back


def test_dropout_scales_kept_values():
    x = Tensor(np.ones((2, 3)))
    keep = np.array([[True, False, True], [False, True, True]])
    out = T.dropout(x, 0.5, mask=keep)
    assert np.allclose(out.data[keep], 2.0)
    assert np.all(out.data[~keep] == 0.0)


def test_dropout_needs_randomness_source():
    with pytest.raises(ValueError, match="rng"):
        T.dropout(Tensor(np.ones(3)), 0.5)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("explicit", [False, True])
def test_dropout_grad_is_bitwise_the_stored_float_mask(dtype, explicit):
    rate = 0.1
    x = Tensor(np.random.default_rng(3).standard_normal((4, 6, 5)), requires_grad=True, dtype=dtype)
    probe = Tensor(np.random.default_rng(4).standard_normal(x.shape), dtype=dtype)
    keep = np.random.default_rng(5).random(x.shape) >= rate
    if explicit:
        out = T.dropout(x, rate, mask=keep)
    else:
        out = T.dropout(x, rate, rng=np.random.default_rng(5))
    backward(T.sum_all(T.mul(out, probe)))
    stored = keep.astype(dtype) / np.array(1.0 - rate, dtype=dtype)  # what the node used to keep
    assert out.data.dtype == x.grad.dtype == dtype
    assert np.array_equal(out.data, x.data * stored)
    assert np.array_equal(x.grad, probe.data * stored)


@pytest.mark.parametrize("mask, match", [
    (np.ones((2, 3, 4), dtype=bool), r"input's shape \(3, 4\), got bool \(2, 3, 4\)"),
    (np.full((3, 4), 3, dtype=np.int64), r"input's shape \(3, 4\), got int64 \(3, 4\)"),
    (np.ones((3, 4)), r"got float64 \(3, 4\)"),
    (np.ones(4, dtype=bool), r"got bool \(4,\)"),
])
def test_dropout_rejects_a_mask_that_is_not_a_boolean_of_the_input_shape(mask, match):
    with pytest.raises(ValueError, match=match):
        T.dropout(Tensor(np.ones((3, 4))), 0.5, mask=mask)


def test_unbroadcast_bias_grad():
    x = Tensor(np.zeros((4, 3)), requires_grad=True)
    b = Tensor(np.zeros(3), requires_grad=True)
    backward(T.sum_all(T.add(x, b)))
    assert b.grad.shape == (3,)
    assert np.allclose(b.grad, 4.0)


def test_finite_difference_matches_analytic_quadratic():
    # d/dx sum(x^2) = 2x, a case solvable by hand
    x = Tensor(np.array([[1.0, -2.0, 0.5]]), requires_grad=True, dtype=np.float64)

    def build():
        return T.sum_all(T.mul(x, x))

    backward(build())
    fd = finite_difference(lambda: float(build().data), x)
    assert rel_error(x.grad, fd) < 1e-8
    assert np.allclose(fd, 2 * x.data, atol=1e-6)


def test_op_gradient_checks_pass():
    results = run_op_checks(repeats=3, seed=4242)
    failing = [r for r in results if not r.passed]
    assert not failing, "\n".join(f"{r.name}: {r.max_err:.2e}" for r in failing)


def test_adam_first_step_moves_by_lr():
    # bias-corrected first step: delta = -lr * g / (|g| + eps)
    p = Tensor(np.array([1.0], dtype=np.float64), requires_grad=True)
    p.grad = np.array([1.0], dtype=np.float64)
    opt = Adam([p], lr=0.001)
    opt.step()
    assert abs(p.data[0] - (1.0 - 0.001 / (1.0 + 1e-8))) < 1e-12
    assert abs(p.data[0] - 0.999000000010) < 1e-11


def test_adam_step_size_invariant_to_gradient_scale():
    deltas = []
    for g in (10.0, 0.1):
        p = Tensor(np.array([0.0], dtype=np.float64), requires_grad=True)
        p.grad = np.array([g], dtype=np.float64)
        Adam([p], lr=0.001).step()
        deltas.append(abs(p.data[0]))
    assert abs(deltas[0] - deltas[1]) < 1e-9


def test_adam_none_grad_treated_as_zero():
    p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    opt = Adam([p])
    opt.step()
    assert np.allclose(p.data, [1.0, 2.0])


def test_adam_descends_quadratic():
    p = Tensor(np.array([5.0], dtype=np.float64), requires_grad=True)
    opt = Adam([p], lr=0.05)
    for _ in range(500):
        opt.zero_grad()
        backward(T.sum_all(T.mul(p, p)))
        opt.step()
    assert abs(p.data[0]) < 1e-2


def test_clip_global_norm_reports_and_scales():
    a = Tensor(np.zeros(1), requires_grad=True)
    b = Tensor(np.zeros(1), requires_grad=True)
    a.grad = np.array([6.0])
    b.grad = np.array([8.0])
    norm = clip_global_norm([a, b], max_norm=5.0)
    assert abs(norm - 10.0) < 1e-6
    clipped = np.sqrt(a.grad[0] ** 2 + b.grad[0] ** 2)
    assert abs(clipped - 5.0) < 1e-6


def test_clip_global_norm_no_op_below_threshold():
    a = Tensor(np.zeros(2), requires_grad=True)
    a.grad = np.array([3.0, 4.0])
    norm = clip_global_norm([a], max_norm=5.0)
    assert abs(norm - 5.0) < 1e-12
    assert np.allclose(a.grad, [3.0, 4.0])


def test_param_store_glorot_bounds_and_names():
    store = ParamStore(np.random.default_rng(0))
    w = store.glorot("w", (10, 20))
    limit = np.sqrt(6.0 / 30.0)
    assert np.all(np.abs(w.data) <= limit)
    assert w.requires_grad
    with pytest.raises(ValueError, match="duplicate"):
        store.glorot("w", (2, 2))
    assert store.names() == ["w"]


def test_param_store_lstm_bias_layout():
    store = ParamStore(np.random.default_rng(0))
    b = store.lstm_bias("b", 4)
    assert np.allclose(b.data[:4], 0.0)
    assert np.allclose(b.data[4:8], 1.0)
    assert np.allclose(b.data[8:], 0.0)


def test_op_gradient_checks_reproduce_across_processes():
    # string hashes are salted per process, so no check may seed from one
    code = ("from qatip.gradcheck import run_op_checks; "
            "print([(r.name, r.max_err.hex()) for r in run_op_checks(repeats=1, seed=4242)])")
    outputs = []
    for hash_seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed,
               "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                              check=True)
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
