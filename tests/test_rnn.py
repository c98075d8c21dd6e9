"""Recurrent model tests against an independent unrolled reference."""

import numpy as np
import pytest

from qatip import tensor as T
from qatip.attention import length_mask
from qatip.corpus import Triplet, make_batch
from qatip.gradcheck import check_grads, perturb_params
from qatip.rnn import LstmCell, QaRnnModel, RnnConfig, bilstm_encode, selective_gate
from qatip.tensor import ParamStore, Tensor
from tape_walk import walk


def tiny_model(variant="both", d=2, e=3, vocab=9, seed=0, dtype=np.float64):
    return QaRnnModel(RnnConfig(vocab_size=vocab, emb_dim=e, hidden_dim=d, variant=variant),
                      seed=seed, dtype=dtype)


def single_batch(review, query, tip, vocab=9):
    trip = Triplet(tuple(review), tuple(query), (1,) + tuple(tip) + (2,), "", "", "", "x")
    return make_batch([trip])


# ---------------------------------------------------------------------------
# independent reference: plain float loops, no Tensor machinery


def _sig(x):
    return 1.0 / (1.0 + np.exp(-x))


def _scalar_lstm(w_x, w_h, b, xs, reverse=False):
    d = w_h.shape[0]
    h = np.zeros(d)
    c = np.zeros(d)
    states = [None] * len(xs)
    order = range(len(xs) - 1, -1, -1) if reverse else range(len(xs))
    for t in order:
        pre = xs[t] @ w_x + h @ w_h + b
        i, f = _sig(pre[:d]), _sig(pre[d : 2 * d])
        g, o = np.tanh(pre[2 * d : 3 * d]), _sig(pre[3 * d :])
        c = f * c + i * g
        h = o * np.tanh(c)
        states[t] = h
    return states


def _scalar_bilstm(p, prefix, xs):
    f = _scalar_lstm(p[f"{prefix}.fwd.w_x"], p[f"{prefix}.fwd.w_h"], p[f"{prefix}.fwd.b"], xs)
    b = _scalar_lstm(p[f"{prefix}.bwd.w_x"], p[f"{prefix}.bwd.w_h"], p[f"{prefix}.bwd.b"], xs, reverse=True)
    rows = [np.concatenate([f[t], b[t]]) for t in range(len(xs))]
    return rows, np.concatenate([f[-1], b[0]])


def _softmax(x):
    e = np.exp(x - x.max())
    return e / e.sum()


def _scalar_forward(model, review, query, tip_input):
    """Unrolled step-by-step evaluation of the 'both' variant."""
    p = {q.name: q.tensor.data for q in model.params.parameters()}
    d = model.config.hidden_dim
    emb = p["emb"]

    h_rows, h_r = _scalar_bilstm(p, "review", [emb[i] for i in review])
    _, h_q = _scalar_bilstm(p, "query", [emb[i] for i in query])

    gated = [_sig(p["gate.w_r"] @ np.concatenate([row, h_r]) + p["gate.w_q"] @ h_q + p["gate.b"]) * row
             for row in h_rows]

    s = np.tanh(np.concatenate([gated[-1][:d], gated[0][d:]]) @ p["dec.w_init"] + p["dec.b_init"])
    c = np.zeros(2 * d)
    logits = []
    for tok in tip_input:
        cs = [p["attn.w_c"] @ np.concatenate([row, s]) + p["attn.w_q"] @ h_q + p["attn.b_c"]
              for row in gated]
        a = _softmax(np.array([p["attn.v"][:, 0] @ np.tanh(ci) for ci in cs]))
        context = sum(ai * row for ai, row in zip(a, gated))
        x = np.concatenate([emb[tok], context])
        pre = x @ p["dec.cell.w_x"] + s @ p["dec.cell.w_h"] + p["dec.cell.b"]
        w = 2 * d
        i, f = _sig(pre[:w]), _sig(pre[w : 2 * w])
        g, o = np.tanh(pre[2 * w : 3 * w]), _sig(pre[3 * w :])
        c = f * c + i * g
        s = o * np.tanh(c)
        logits.append(p["w_v"] @ s)
    return np.stack(logits)


def test_full_forward_matches_scalar_reference():
    model = tiny_model("both", d=2, e=3, vocab=9, seed=1)
    review, query, tip = (4, 5, 6), (7, 8), (5, 7)
    batch = single_batch(review, query, tip)
    got = model.forward(batch, train=False).data[0]
    expected = _scalar_forward(model, review, query, [1] + list(tip))
    assert np.abs(got - expected).max() < 1e-9


def test_bilstm_zero_params_give_zero_states():
    store = ParamStore(np.random.default_rng(0), dtype=np.float64)
    fwd = LstmCell(store, "f", 3, 2)
    bwd = LstmCell(store, "b", 3, 2)
    for par in store.parameters():
        par.tensor.data[:] = 0.0
    emb = Tensor(np.random.default_rng(1).standard_normal((2, 4, 3)), dtype=np.float64)
    h_seq, summary = bilstm_encode(fwd, bwd, emb, [4, 2])
    assert np.all(h_seq.data == 0.0)
    assert np.all(summary.data == 0.0)


def test_bilstm_length_one_summary_is_first_state():
    model = tiny_model(seed=2)
    emb = Tensor(np.random.default_rng(3).standard_normal((1, 1, 3)), dtype=np.float64)
    h_seq, summary = bilstm_encode(model.review_fwd, model.review_bwd, emb, [1])
    assert np.allclose(summary.data, h_seq.data[:, 0], atol=1e-12)


def test_bilstm_pad_steps_are_zero():
    model = tiny_model(seed=4)
    emb = Tensor(np.random.default_rng(5).standard_normal((2, 5, 3)), dtype=np.float64)
    h_seq, _ = bilstm_encode(model.review_fwd, model.review_bwd, emb, [3, 5])
    assert np.all(h_seq.data[0, 3:] == 0.0)
    assert np.any(h_seq.data[1, 3:] != 0.0)


def test_bilstm_rejects_zero_length():
    model = tiny_model(seed=6)
    emb = Tensor(np.zeros((1, 2, 3)), dtype=np.float64)
    with pytest.raises(ValueError, match="zero-length"):
        bilstm_encode(model.review_fwd, model.review_bwd, emb, [0])


def test_bilstm_summary_matches_quoted_construction():
    # summary = [forward state at the last real step ; backward state at step 1]
    model = tiny_model(seed=7)
    emb = Tensor(np.random.default_rng(8).standard_normal((2, 4, 3)), dtype=np.float64)
    h_seq, summary = bilstm_encode(model.review_fwd, model.review_bwd, emb, [2, 4])
    d = 2
    assert np.allclose(summary.data[0, :d], h_seq.data[0, 1, :d], atol=1e-12)
    assert np.allclose(summary.data[0, d:], h_seq.data[0, 0, d:], atol=1e-12)
    assert np.allclose(summary.data[1, :d], h_seq.data[1, 3, :d], atol=1e-12)


def lstm_step(cell: LstmCell, x: Tensor, h: Tensor, c: Tensor):
    """One packed-gate cell step as per-op tape ops: the reference of lstm_scan's and decoder_step's cell."""
    d = cell.w_h.shape[0]
    pre = T.add(T.add(T.matmul(x, cell.w_x), T.matmul(h, cell.w_h)), cell.b)
    i = T.sigmoid(T.slice_axis(pre, -1, 0, d))
    f = T.sigmoid(T.slice_axis(pre, -1, d, 2 * d))
    g = T.tanh(T.slice_axis(pre, -1, 2 * d, 3 * d))
    o = T.sigmoid(T.slice_axis(pre, -1, 3 * d, 4 * d))
    c_new = T.add(T.mul(f, c), T.mul(i, g))
    h_new = T.mul(o, T.tanh(c_new))
    return h_new, c_new


def _composite_scan(cell: LstmCell, emb: Tensor, mask: np.ndarray, reverse: bool) -> Tensor:
    """The per-step ops lstm_scan fuses: lstm_step, masked, then the states concatenated."""
    b, n, e = emb.shape
    d = cell.w_h.shape[0]
    h = Tensor(np.zeros((b, d), dtype=emb.dtype))
    c = Tensor(np.zeros((b, d), dtype=emb.dtype))
    states = [None] * n
    for t in range(n - 1, -1, -1) if reverse else range(n):
        m_t = Tensor(mask[:, t : t + 1].astype(emb.dtype))
        h_new, c_new = lstm_step(cell, T.reshape(T.slice_axis(emb, 1, t, t + 1), (b, e)), h, c)
        h, c = T.mul(h_new, m_t), T.mul(c_new, m_t)
        states[t] = T.reshape(h, (b, 1, d))
    return T.concat(states, axis=1)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("b, e, d", [(4, 5, 3), (7, 24, 16)])
def test_lstm_scan_is_bitwise_the_per_step_ops(dtype, reverse, b, e, d):
    rng = np.random.default_rng(40 + b)
    store = ParamStore(rng, dtype=dtype)
    cell = LstmCell(store, "cell", e, d)
    for par in store.parameters():  # a generic point: biases away from their init
        par.tensor.data += (0.3 * rng.standard_normal(par.tensor.shape)).astype(dtype)
    lengths = [6, 1] + list(rng.integers(1, 7, size=b - 2))  # a full row and a length-1 row
    mask = length_mask(lengths, 6)
    emb = Tensor(rng.standard_normal((b, 6, e)), requires_grad=True, dtype=dtype)
    probe = Tensor(rng.standard_normal((b, 6, d)), dtype=dtype)
    runs = []
    for scan in (lambda: _composite_scan(cell, emb, mask, reverse),
                 lambda: T.lstm_scan(emb, cell.w_x, cell.w_h, cell.b, mask, reverse=reverse)):
        for t in (emb, cell.w_x, cell.w_h, cell.b):
            t.zero_grad()
        out = scan()
        T.backward(T.sum_all(T.mul(out, probe)))
        runs.append([out.data] + [t.grad for t in (emb, cell.w_x, cell.w_h, cell.b)])
    for name, ref, got in zip(["h", "x", "w_x", "w_h", "b"], *runs):
        assert got.dtype == dtype and np.array_equal(ref, got), name
    assert np.all(runs[1][0][np.asarray(lengths) == 1, 1:] == 0.0)  # PAD steps stay zero
    with T.no_grad():
        out = T.lstm_scan(emb, cell.w_x, cell.w_h, cell.b, mask, reverse=reverse)
    assert not out.requires_grad and out._backward is None and np.array_equal(out.data, runs[1][0])


def test_gate_zero_params_halve_states():
    rng = np.random.default_rng(9)
    h_seq = Tensor(rng.standard_normal((2, 3, 4)), dtype=np.float64)
    zeros = lambda shape: Tensor(np.zeros(shape), dtype=np.float64)
    gated, gate = selective_gate(h_seq, zeros((2, 4)), zeros((2, 4)),
                                 zeros((4, 8)), zeros((4, 4)), zeros((4,)))
    assert np.allclose(gate.data, 0.5)
    assert np.allclose(gated.data, 0.5 * h_seq.data)


def test_gate_strictly_inside_unit_interval():
    rng = np.random.default_rng(10)
    mk = lambda shape: Tensor(rng.standard_normal(shape), dtype=np.float64)
    _, gate = selective_gate(mk((2, 5, 4)), mk((2, 4)), mk((2, 4)),
                             mk((4, 8)), mk((4, 4)), mk((4,)))
    assert np.all(gate.data > 0.0) and np.all(gate.data < 1.0)


def test_gate_zero_state_stays_zero():
    rng = np.random.default_rng(11)
    mk = lambda shape: Tensor(rng.standard_normal(shape), dtype=np.float64)
    gated, _ = selective_gate(Tensor(np.zeros((1, 3, 4)), dtype=np.float64), mk((1, 4)), mk((1, 4)),
                              mk((4, 8)), mk((4, 4)), mk((4,)))
    assert np.all(gated.data == 0.0)


# ---------------------------------------------------------------------------
# the decoder as per-step tape ops: the reference T.decoder_scan and the beam step are bitwise


def attend_review(h_tilde: Tensor, c: Tensor, v: Tensor, mask: np.ndarray):
    """a = softmax(v^T tanh(c)) over the review positions of pre-activations c (B, N, d_a)."""
    b, n, width = h_tilde.shape
    d_a = v.shape[0]
    scores = T.transpose(T.matmul(T.tanh(c), T.reshape(v, (d_a, 1))), 1, 2)  # (B, 1, N)
    weights = T.softmax_rows(scores, mask=mask[:, None, :])
    context = T.reshape(T.matmul(weights, h_tilde), (b, width))
    return context, T.reshape(weights, (b, n))


def qa_attention(h_tilde: Tensor, state: Tensor, h_q: Tensor | None,
                 w_c: Tensor, w_q_attn: Tensor | None, b_c: Tensor, v: Tensor,
                 mask: np.ndarray):
    """Additive attention over review states, optionally query-conditioned.

    c_i = W_c [H~_i; s_t] (+ W_q h_q) + b_c; a = softmax(v^T tanh(c));
    returns (context (B, 2d), weights (B, N)).
    """
    b, n, width = h_tilde.shape
    d_a = v.shape[0]
    state_rows = T.broadcast_to(T.reshape(state, (b, 1, width)), (b, n, width))
    c = T.add(T.matmul(T.concat([h_tilde, state_rows]), T.transpose(w_c)), b_c)
    if h_q is not None:
        c = T.add(c, T.reshape(T.matmul(h_q, T.transpose(w_q_attn)), (b, 1, d_a)))
    return attend_review(h_tilde, c, v, mask)


def _composite_decoder(x, h_tilde, mask, s0, cell: LstmCell, w_c, b_c, v, w_v, h_q=None, w_q=None) -> Tensor:
    """The per-step ops decoder_scan fuses: attention, lstm_step and the output product, then the rows concatenated."""
    b, m, e = x.shape
    s, c = s0, Tensor(np.zeros(s0.shape, dtype=s0.dtype))
    rows = []
    for t in range(m):
        # a reshape of v per step, as the per-step graph had: the sweep's order of v's sum depends on it
        context, _ = qa_attention(h_tilde, s, h_q, w_c, w_q, b_c, T.reshape(v, (v.shape[0],)), mask)
        s, c = lstm_step(cell, T.concat([T.reshape(T.slice_axis(x, 1, t, t + 1), (b, e)), context]), s, c)
        rows.append(T.reshape(T.matmul(s, T.transpose(w_v)), (b, 1, w_v.shape[0])))
    return T.concat(rows, axis=1)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("variant", ["vanilla", "qa_enc", "qa_dec", "both"])
@pytest.mark.parametrize("m", [1, 5])
@pytest.mark.parametrize("n", [1, 6])
@pytest.mark.parametrize("d, e", [(3, 4), (16, 24)])
def test_decoder_scan_is_bitwise_the_per_step_ops(dtype, variant, m, n, d, e):
    model = tiny_model(variant, d=d, e=e, vocab=11, seed=30 + m + n, dtype=dtype)
    rng = np.random.default_rng(50 + m + n)
    for par in model.params.parameters():  # a generic point: biases away from their init
        par.tensor.data += (0.3 * rng.standard_normal(par.tensor.shape)).astype(dtype)
    b = 5
    lengths = np.array([n, 1] + list(rng.integers(1, n + 1, size=b - 2)))  # a full row and a 1-token review
    ctx = model.encode(rng.integers(3, 11, (b, n)) * length_mask(lengths, n), lengths,
                       rng.integers(3, 11, (b, 2)), np.full(b, 2))
    leaf = lambda data: Tensor(data, requires_grad=True, dtype=dtype)
    x, h_tilde, s0 = leaf(rng.standard_normal((b, m, e))), leaf(ctx["h_tilde"].data), leaf(ctx["s0"].data)
    cell = model.decoder
    inputs = {"x": x, "h_tilde": h_tilde, "s0": s0, "w_c": model.w_c, "b_c": model.b_c, "v": model.v,
              "w_x": cell.w_x, "w_h": cell.w_h, "b": cell.b, "w_v": model.w_v}
    query = {}
    if variant in ("qa_dec", "both"):  # the query term is present only where attention reads it
        query = {"h_q": leaf(ctx["h_q"].data), "w_q": model.w_q_attn}
    probe = Tensor(rng.standard_normal((b, m, 11)), dtype=dtype)
    runs = []
    for decode in (lambda: _composite_decoder(x, h_tilde, ctx["mask"], s0, cell, model.w_c, model.b_c, model.v,
                                              model.w_v, **query),
                   lambda: T.decoder_scan(x, h_tilde, ctx["mask"], s0, model.w_c, model.b_c, model.v,
                                          cell.w_x, cell.w_h, cell.b, model.w_v, **query)):
        for t in (*inputs.values(), *query.values()):
            t.zero_grad()
        out = decode()
        T.backward(T.sum_all(T.mul(out, probe)))
        runs.append([out.data] + [t.grad for t in (*inputs.values(), *query.values())])
    for name, ref, got in zip(["logits", *inputs, *query], *runs):
        assert got.dtype == dtype and np.array_equal(ref, got), name
    with T.no_grad():
        out = T.decoder_scan(x, h_tilde, ctx["mask"], s0, model.w_c, model.b_c, model.v,
                             cell.w_x, cell.w_h, cell.b, model.w_v, **query)
    assert not out.requires_grad and out._backward is None and np.array_equal(out.data, runs[1][0])


@pytest.mark.parametrize("variant", ["vanilla", "qa_enc", "qa_dec", "both"])
def test_model_gradients_are_bitwise_the_per_step_decoder(variant):
    """Through the whole model: the embedding table, shared by the encoders and the decoder, sums in the same order."""
    rng = np.random.default_rng(7)
    batch = make_batch([Triplet(tuple(rng.integers(3, 12, 2 + i)), tuple(rng.integers(3, 12, 2)),
                                (1,) + tuple(rng.integers(3, 12, 4 - i)) + (2,), "", "", "", str(i)) for i in range(3)])
    grads = []
    for per_step in (True, False):
        model = QaRnnModel(RnnConfig(vocab_size=12, emb_dim=8, hidden_dim=6, variant=variant, dropout=0.2),
                           seed=3, dtype=np.float32)
        if per_step:
            q = variant in ("qa_dec", "both")
            model.decode_logits = lambda ctx, tip, train=False, model=model, q=q: _composite_decoder(
                model._embed(tip, train), ctx["h_tilde"], ctx["mask"], ctx["s0"], model.decoder, model.w_c,
                model.b_c, model.v, model.w_v, **({"h_q": ctx["h_q"], "w_q": model.w_q_attn} if q else {}))
        T.backward(model.forward_loss(batch, train=True))
        grads.append({p.name: p.tensor.grad for p in model.params.parameters()})
    assert all(np.array_equal(grads[0][name], grads[1][name]) for name in grads[0])


def _per_op_beam_step(model, ctx, records, s, c, tokens):
    """The beam step as per-step tape ops: attention over the split pre-activation
    H~ W_c[:, :2d]^T + b_c (+ W_q h_q) + s W_c[:, 2d:]^T, lstm_step, then the logits."""
    h_tilde, (r, width) = ctx["h_tilde"], s.shape
    review_term = T.add(T.matmul(h_tilde, T.transpose(T.slice_axis(model.w_c, -1, 0, width))), model.b_c)
    if model.config.variant in ("qa_dec", "both"):
        query_term = T.matmul(ctx["h_q"], T.transpose(model.w_q_attn))
        review_term = T.add(review_term, T.reshape(query_term, (h_tilde.shape[0], 1, width)))
    state_term = T.matmul(s, T.transpose(T.slice_axis(model.w_c, -1, width, 2 * width)))
    pre = T.add(Tensor(review_term.data[records]), T.reshape(state_term, (r, 1, width)))
    context, _ = attend_review(Tensor(h_tilde.data[records]), pre, T.reshape(model.v, (width,)),
                               ctx["mask"][records])
    emb_t = T.reshape(T.embedding_lookup(model.emb, tokens), (r, model.config.emb_dim))
    s, c = lstm_step(model.decoder, T.concat([emb_t, context]), s, c)
    return T.matmul(s, T.transpose(model.w_v)), s, c


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("variant", ["vanilla", "qa_enc", "qa_dec", "both"])
def test_rnn_step_is_bitwise_the_per_step_ops(dtype, variant):
    model = tiny_model(variant, d=5, e=4, vocab=13, seed=60, dtype=dtype)
    rng = np.random.default_rng(61)
    for par in model.params.parameters():  # a generic point: biases away from their init
        par.tensor.data += (0.3 * rng.standard_normal(par.tensor.shape)).astype(dtype)
    # a full row, a 1-token review and a row with PAD positions
    reviews = [tuple(rng.integers(3, 13, n)) for n in (6, 1, 4)]
    ctx = model.prepare_batch(reviews, [tuple(rng.integers(3, 13, 2)) for _ in reviews])
    state = model.start(ctx)
    records, s, c = state[0], state[1], state[2]
    parents = [2, 0, 0, 1, 2]  # reordered and repeated rows
    for _ in range(4):
        tokens = rng.integers(3, 13, size=len(parents))
        logits, state = model.advance(ctx, state, parents, tokens)
        records = records[parents]
        with T.no_grad():
            ref, s, c = _per_op_beam_step(model, ctx, records, Tensor(s.data[parents]), Tensor(c.data[parents]),
                                          tokens.reshape(-1, 1))
        assert np.array_equal(state[0], records)
        assert logits.dtype == np.float64 and np.array_equal(logits, ref.data.astype(np.float64))
        for got, want in zip(state[1:], (s, c)):
            assert got.dtype == dtype and np.array_equal(got.data, want.data)
        parents = rng.integers(0, len(parents), size=rng.integers(2, 7))


def _decoder_operands(rng, b=2, m=3, n=4, e=2, k=3, d=2, a=3, vocab=5, dtype=np.float64):
    mk = lambda *shape: Tensor(rng.standard_normal(shape), dtype=dtype)
    return dict(x=mk(b, m, e), h_tilde=mk(b, n, k), mask=np.ones((b, n), dtype=bool), s0=mk(b, d),
                w_c=mk(a, k + d), b_c=mk(a), v=mk(a, 1), w_x=mk(e + k, 4 * d), w_h=mk(d, 4 * d), b=mk(4 * d),
                w_v=mk(vocab, d))


@pytest.mark.parametrize("name, shape, match", [
    ("x", (2, 3), "x \\(B, M, e\\)"),
    ("w_h", (2, 7), "w_h \\(2, 8\\)"),
    ("s0", (2, 3), "s0 \\(2, 2\\)"),
    ("w_c", (3, 4), "w_c \\(3, 5\\)"),
    ("v", (3,), "v \\(3, 1\\)"),
    ("w_x", (4, 8), "w_x \\(5, 8\\)"),
    ("mask", (2, 3), "mask \\(B, N\\) = \\(2, 4\\)"),
])
def test_decoder_scan_rejects_bad_operands(name, shape, match):
    ops = _decoder_operands(np.random.default_rng(0))
    ops[name] = np.ones(shape, dtype=bool) if name == "mask" else Tensor(np.zeros(shape))
    with pytest.raises(ValueError, match=match):
        T.decoder_scan(**ops)


def test_decoder_scan_rejects_half_a_query_and_a_fully_masked_review():
    ops = _decoder_operands(np.random.default_rng(1))
    with pytest.raises(ValueError, match="h_q and w_q together"):
        T.decoder_scan(**ops, h_q=Tensor(np.zeros((2, 3))))
    ops["mask"] = np.array([[True] * 4, [False] * 4])
    with pytest.raises(ValueError, match="fully masked"):
        T.decoder_scan(**ops)


def _attn_params(rng, width):
    mk = lambda shape: Tensor(rng.standard_normal(shape), dtype=np.float64)
    return mk((width, 2 * width)), mk((width, width)), mk((width,)), mk((width,))


def test_attention_single_position():
    rng = np.random.default_rng(12)
    w_c, w_q, b_c, v = _attn_params(rng, 4)
    h_tilde = Tensor(rng.standard_normal((1, 1, 4)), dtype=np.float64)
    ctx, weights = qa_attention(h_tilde, Tensor(rng.standard_normal((1, 4)), dtype=np.float64),
                                Tensor(rng.standard_normal((1, 4)), dtype=np.float64),
                                w_c, w_q, b_c, v, np.array([[True]]))
    assert np.allclose(weights.data, 1.0)
    assert np.allclose(ctx.data, h_tilde.data[:, 0], atol=1e-12)


def test_attention_identical_rows_uniform():
    rng = np.random.default_rng(13)
    w_c, w_q, b_c, v = _attn_params(rng, 4)
    row = rng.standard_normal((1, 1, 4))
    h_tilde = Tensor(np.repeat(row, 5, axis=1), dtype=np.float64)
    _, weights = qa_attention(h_tilde, Tensor(rng.standard_normal((1, 4)), dtype=np.float64),
                              Tensor(rng.standard_normal((1, 4)), dtype=np.float64),
                              w_c, w_q, b_c, v, np.ones((1, 5), dtype=bool))
    assert np.allclose(weights.data, 0.2, atol=1e-9)


def test_attention_masks_and_containment():
    rng = np.random.default_rng(14)
    w_c, w_q, b_c, v = _attn_params(rng, 4)
    h_tilde = Tensor(rng.standard_normal((2, 6, 4)), dtype=np.float64)
    mask = np.array([[True] * 4 + [False] * 2, [True] * 6])
    ctx, weights = qa_attention(h_tilde, Tensor(rng.standard_normal((2, 4)), dtype=np.float64),
                                Tensor(rng.standard_normal((2, 4)), dtype=np.float64),
                                w_c, w_q, b_c, v, mask)
    assert np.all(weights.data[0, 4:] == 0.0)
    assert np.allclose(weights.data.sum(axis=1), 1.0, atol=1e-6)
    lo = np.where(mask[..., None], h_tilde.data, np.inf).min(axis=1)
    hi = np.where(mask[..., None], h_tilde.data, -np.inf).max(axis=1)
    assert np.all(ctx.data >= lo - 1e-9) and np.all(ctx.data <= hi + 1e-9)


def test_vanilla_ignores_query_exactly():
    model = tiny_model("vanilla", seed=15, dtype=np.float32)
    out1 = model.forward(single_batch((4, 5, 6), (7, 8), (5,)), train=False).data
    out2 = model.forward(single_batch((4, 5, 6), (8, 4), (5,)), train=False).data
    assert np.array_equal(out1, out2)


@pytest.mark.parametrize("variant", ["qa_enc", "qa_dec", "both"])
def test_qa_variants_respond_to_query(variant):
    model = tiny_model(variant, seed=16, dtype=np.float64)
    out1 = model.forward(single_batch((4, 5, 6), (7, 8), (5,)), train=False).data
    out2 = model.forward(single_batch((4, 5, 6), (8, 4), (5,)), train=False).data
    assert np.abs(out1 - out2).max() > 1e-9


def test_vanilla_allocates_no_query_params():
    model = tiny_model("vanilla", seed=17)
    names = model.params.names()
    assert not any(n.startswith(("query.", "gate.")) or n == "attn.w_q" for n in names)


def test_zeroed_output_projection_gives_log_vocab_loss():
    model = tiny_model("both", vocab=9, seed=18)
    model.w_v.data[:] = 0.0
    loss = model.forward_loss(single_batch((4, 5), (6,), (7, 8)), train=False).item()
    assert abs(loss - np.log(9.0)) < 1e-9


def test_pad_append_leaves_logits_unchanged():
    model = tiny_model("both", seed=19)
    base = single_batch((4, 5, 6), (7, 8), (5, 7))
    ctx = model.encode(base.review, base.review_lengths, base.query, base.query_lengths)
    out1 = model.decode_logits(ctx, base.tip_input).data

    review_p = np.array([[4, 5, 6, 0, 0]])
    query_p = np.array([[7, 8, 0]])
    out2 = model.decode_logits(model.encode(review_p, [3], query_p, [2]), base.tip_input).data
    assert np.abs(out1 - out2).max() < 1e-9


def test_logits_shape():
    model = tiny_model("both", vocab=9, seed=20)
    rng = np.random.default_rng(21)
    trips = [
        Triplet(tuple(rng.integers(4, 9, 4)), tuple(rng.integers(4, 9, 2)),
                (1,) + tuple(rng.integers(4, 9, 3)) + (2,), "", "", "", "a"),
        Triplet(tuple(rng.integers(4, 9, 2)), tuple(rng.integers(4, 9, 3)),
                (1,) + tuple(rng.integers(4, 9, 1)) + (2,), "", "", "", "b"),
    ]
    batch = make_batch(trips)
    logits = model.forward(batch, train=False)
    assert logits.shape == (2, batch.tip_input.shape[1], 9)


def test_step_logits_match_full_forward():
    model = tiny_model("both", seed=22)
    ctx = model.prepare((4, 5, 6), (7, 8))
    prefix = [1, 5, 7]
    step = model.step_logits(ctx, prefix)
    batch = single_batch((4, 5, 6), (7, 8), (5, 7))
    full = model.forward(batch, train=False).data
    assert np.abs(step - full[0, -1]).max() < 1e-9


def test_parameter_gradients_match_finite_differences():
    model = tiny_model("both", d=2, e=2, vocab=7, seed=23)
    perturb_params(model)  # generic point, away from near-cancelling init
    rng = np.random.default_rng(24)
    trips = [
        Triplet(tuple(rng.integers(4, 7, 3)), tuple(rng.integers(4, 7, 2)),
                (1,) + tuple(rng.integers(4, 7, 2)) + (2,), "", "", "", "a"),
        Triplet(tuple(rng.integers(4, 7, 2)), tuple(rng.integers(4, 7, 1)),
                (1,) + tuple(rng.integers(4, 7, 1)) + (2,), "", "", "", "b"),
    ]
    batch = make_batch(trips)
    params = {p.name: p.tensor for p in model.params.parameters()}
    err = check_grads(params, lambda: model.forward_loss(batch))
    assert err < 1e-3, f"worst relative error {err:.2e}"


def test_decoder_tape_does_not_grow_with_the_tip():
    # 2d = 10 differs from every length: batch 3, review 7, query 3, tip input 1 or 6
    model = tiny_model(d=5, e=4, vocab=12, dtype=np.float32)
    rng = np.random.default_rng(2)
    reviews = [(tuple(rng.integers(3, 12, 7)), tuple(rng.integers(3, 12, 3))) for _ in range(3)]
    seen = []
    for words in (0, 5):
        batch = make_batch([Triplet(review, query, (1,) + tuple(rng.integers(3, 12, words)) + (2,), "", "", "", str(i))
                            for i, (review, query) in enumerate(reviews)])
        held, closures = walk(model.forward_loss(batch, train=True))
        shapes = [buffer.shape for buffer, _ in held.values()]
        # (B, N, 2 * width): only the gate's [H; h_r] input, no decoder step's [H~; s]
        assert shapes.count((3, 7, 20)) == 1
        # (B, N, width): each step's tanh of the attention pre-activation, plus the encoder's
        # states H, the gate and H~ = gate * H
        assert shapes.count((3, 7, 10)) == words + 1 + 3
        assert closures["decoder_scan.<locals>.bwd"] == 1
        seen.append(sum(closures.values()))
    assert seen[0] == seen[1]
