"""Transformer variant wiring, masking, and loss tests."""

import numpy as np
import pytest

from qatip import attention
from qatip import tensor as T
from qatip.corpus import Triplet, make_batch
from qatip.gradcheck import check_grads
from qatip.tensor import Tensor
from qatip.transformer import QaTransformerModel, TransformerConfig, fuse
from tape_walk import retained_buffers


def tiny_config(variant="both", **kw):
    defaults = dict(vocab_size=13, model_dim=8, num_heads=2, num_layers=2,
                    ffn_dim=16, dropout=0.0, variant=variant, max_len=32)
    defaults.update(kw)
    return TransformerConfig(**defaults)


def test_model_dim_must_divide_heads():
    with pytest.raises(ValueError, match="^model_dim 10 not divisible by num_heads 4$"):
        tiny_config(model_dim=10, num_heads=4)


def make_test_batch(seed=0, vocab=13):
    rng = np.random.default_rng(seed)

    def ids(n):
        return tuple(int(x) for x in rng.integers(4, vocab, size=n))

    trips = [
        Triplet(ids(5), ids(3), (1,) + ids(4) + (2,), "", "", "", "r0"),
        Triplet(ids(3), ids(2), (1,) + ids(2) + (2,), "", "", "", "r1"),
    ]
    return make_batch(trips)


def logits_for(model, review, query, tip):
    review = np.asarray(review)
    query = np.asarray(query)
    ctx = model.encode(review, [review.shape[1]] * review.shape[0],
                       query, [query.shape[1]] * query.shape[0])
    return model.decode_logits(ctx, np.asarray(tip)).data


def test_fuse_selects_halves():
    d = 4
    h_a = Tensor(np.random.default_rng(0).standard_normal((1, 3, d)), dtype=np.float64)
    h_b = Tensor(np.random.default_rng(1).standard_normal((1, 3, d)), dtype=np.float64)
    eye = np.eye(d)
    zero = np.zeros((d, d))
    assert np.allclose(fuse(h_a, h_b, Tensor(np.vstack([eye, zero]))).data, h_a.data)
    assert np.allclose(fuse(h_a, h_b, Tensor(np.vstack([zero, eye]))).data, h_b.data)


def test_fuse_matches_split_matmul():
    rng = np.random.default_rng(2)
    h_a = Tensor(rng.standard_normal((2, 3, 4)), dtype=np.float64)
    h_b = Tensor(rng.standard_normal((2, 3, 4)), dtype=np.float64)
    w = rng.standard_normal((8, 4))
    out = fuse(h_a, h_b, Tensor(w, dtype=np.float64)).data
    expected = h_a.data @ w[:4] + h_b.data @ w[4:]
    assert np.abs(out - expected).max() < 1e-12


def test_fuse_shape_mismatch_rejected():
    with pytest.raises(ValueError, match="mismatch"):
        fuse(Tensor(np.zeros((1, 3, 4))), Tensor(np.zeros((1, 2, 4))), Tensor(np.zeros((8, 4))))


def test_vanilla_ignores_query_exactly():
    model = QaTransformerModel(tiny_config("vanilla"), seed=3)
    review = [[4, 5, 6, 7]]
    tip = [[1, 8, 9]]
    out1 = logits_for(model, review, [[10, 11]], tip)
    out2 = logits_for(model, review, [[5, 12]], tip)
    assert np.array_equal(out1, out2)


@pytest.mark.parametrize("variant", ["qa_enc", "qa_dec", "both"])
def test_qa_variants_respond_to_query(variant):
    model = QaTransformerModel(tiny_config(variant), seed=4)
    review = [[4, 5, 6, 7]]
    tip = [[1, 8, 9]]
    out1 = logits_for(model, review, [[10, 11]], tip)
    out2 = logits_for(model, review, [[5, 12]], tip)
    assert np.abs(out1 - out2).max() > 1e-7


def test_decoder_causality():
    model = QaTransformerModel(tiny_config("both"), seed=5)
    review, query = [[4, 5, 6]], [[7, 8]]
    tip = np.array([[1, 9, 10, 11]])
    base = logits_for(model, review, query, tip)
    for p in range(1, tip.shape[1]):
        mutated = tip.copy()
        mutated[0, p] = 12
        out = logits_for(model, review, query, mutated)
        assert np.abs(out[0, :p] - base[0, :p]).max() < 1e-7, f"position {p} leaked backwards"


def test_pad_append_leaves_logits_unchanged():
    model = QaTransformerModel(tiny_config("both"), seed=6)
    review = np.array([[4, 5, 6]])
    query = np.array([[7, 8]])
    tip = np.array([[1, 9]])
    out1 = model.decode_logits(model.encode(review, [3], query, [2]), tip).data

    review_p = np.array([[4, 5, 6, 0, 0]])
    query_p = np.array([[7, 8, 0]])
    out2 = model.decode_logits(model.encode(review_p, [3], query_p, [2]), tip).data
    assert np.abs(out1 - out2).max() <= 1e-5


def test_all_pad_query_uses_pad_embedding():
    model = QaTransformerModel(tiny_config("both"), seed=7)
    review = np.array([[4, 5]])
    tip = np.array([[1, 6]])

    def run(query, qlen):
        return model.decode_logits(model.encode(review, [2], np.asarray(query), [qlen]), tip).data

    out = run([[0, 0]], 0)  # declared empty, falls back to the PAD embedding
    assert np.all(np.isfinite(out))
    out_single = run([[0]], 1)
    assert np.abs(out - out_single).max() < 1e-5


def test_empty_review_rejected():
    model = QaTransformerModel(tiny_config("both"), seed=8)
    with pytest.raises(ValueError, match="empty review"):
        model.encode(np.array([[0, 0]]), [0], np.array([[4]]), [1])


def test_shapes_across_variants():
    batch = make_test_batch()
    for variant in ("vanilla", "qa_enc", "qa_dec", "both"):
        model = QaTransformerModel(tiny_config(variant), seed=9)
        ctx = model.encode(batch.review, batch.review_lengths, batch.query, batch.query_lengths)
        assert ctx["cross"][0][0].shape == (2, 2, batch.review.shape[1], 4)
        logits = model.decode_logits(ctx, batch.tip_input)
        assert logits.shape == (2, batch.tip_input.shape[1], 13)


def test_zeroed_output_projection_gives_log_vocab_loss():
    model = QaTransformerModel(tiny_config("both"), seed=10)
    model.emb.data[:] = 0.0  # the output layer is tied to the embedding
    batch = make_test_batch()
    loss = model.forward_loss(batch, train=False).item()
    assert abs(loss - np.log(13.0)) < 1e-6


def test_tied_model_has_no_separate_projection():
    names = QaTransformerModel(tiny_config("both"), seed=11).params.names()
    assert "w_out" not in names
    assert not any(n.startswith("qblock_dec") for n in names)
    assert {n.split(".")[1] for n in names if n.startswith("qblock.")} == {"0"}  # one query block


def test_vanilla_allocates_no_query_or_fusion_params():
    model = QaTransformerModel(tiny_config("vanilla"), seed=13)
    names = model.params.names()
    assert not any("qblock" in n or "fuse" in n for n in names)


def test_loss_finite_positive_and_improvable():
    model = QaTransformerModel(tiny_config("both"), seed=14)
    batch = make_test_batch()
    loss = model.forward_loss(batch, train=False).item()
    assert np.isfinite(loss) and loss > 0


def test_length_above_position_table_rejected():
    model = QaTransformerModel(tiny_config("both", max_len=4), seed=15)
    with pytest.raises(ValueError, match="position table"):
        model.encode(np.arange(6).reshape(1, 6) + 4, [6], np.array([[4]]), [1])


def test_step_logits_match_full_forward():
    model = QaTransformerModel(tiny_config("both"), seed=16)
    review, query = (4, 5, 6, 7), (8, 9)
    ctx = model.prepare(review, query)
    prefix = [1, 10, 11]
    step = model.step_logits(ctx, prefix)
    assert step.shape == (13,)
    full = logits_for(model, [list(review)], [list(query)], [prefix])
    assert np.abs(step - full[0, -1]).max() < 1e-5


def test_invalid_variant_rejected():
    with pytest.raises(ValueError, match="variant"):
        tiny_config("query_aware")


def test_parameter_gradients_match_finite_differences():
    cfg = TransformerConfig(vocab_size=7, model_dim=4, num_heads=1, num_layers=1,
                            ffn_dim=8, dropout=0.0, variant="both", max_len=16)
    model = QaTransformerModel(cfg, seed=17, dtype=np.float64)
    rng = np.random.default_rng(18)

    def ids(n):
        return tuple(int(x) for x in rng.integers(4, 7, size=n))

    batch = make_batch([
        Triplet(ids(3), ids(2), (1,) + ids(2) + (2,), "", "", "", "a"),
        Triplet(ids(2), ids(1), (1,) + ids(1) + (2,), "", "", "", "b"),
    ])
    params = {p.name: p.tensor for p in model.params.parameters()}
    err = check_grads(params, lambda: model.forward_loss(batch))
    assert err < 1e-3, f"worst relative error {err:.2e}"


def _dropout_model_and_batch():
    # head width 8 and ffn width 24 differ from every length (review 5, query 3, tip input 4)
    cfg = tiny_config(model_dim=16, num_heads=2, ffn_dim=24, dropout=0.25)
    rng = np.random.default_rng(4)

    def ids(n):
        return tuple(int(x) for x in rng.integers(4, 13, size=n))

    batch = make_batch([Triplet(ids(5), ids(3), (1,) + ids(3) + (2,), "", "", "", "a"),
                        Triplet(ids(4), ids(2), (1,) + ids(2) + (2,), "", "", "", "b")])
    return QaTransformerModel(cfg, seed=3), batch


def test_tape_keeps_one_score_array_per_attention_and_no_pre_activation(monkeypatch):
    model, batch = _dropout_model_and_batch()
    score_shapes, ffn_calls = [], []
    attend, ffn = attention.scaled_dot_attention, QaTransformerModel._ffn

    def counted_attend(q, k, v, mask=None):
        score_shapes.append(np.broadcast_shapes(q.shape[:-2], k.shape[:-2]) + (q.shape[-2], k.shape[-2]))
        return attend(q, k, v, mask=mask)

    def counted_ffn(self, blk, x):
        ffn_calls.append(x.shape)
        return ffn(self, blk, x)

    monkeypatch.setattr(attention, "scaled_dot_attention", counted_attend)
    monkeypatch.setattr(QaTransformerModel, "_ffn", counted_ffn)
    loss = model.forward_loss(batch, train=True)
    buffers = retained_buffers(loss)

    # review block + query block + 2 encoder layers + 2 x (self, cross) in the decoder
    assert len(score_shapes) == 8 and all(shape[:2] == (2, 2) for shape in score_shapes)
    kept = sorted(b.shape for b in buffers if b.shape in set(score_shapes))
    assert kept == sorted(score_shapes)  # the weights alone, not the raw and scaled scores

    params = {id(p.tensor.data) for p in model.params.parameters()}
    wide = [b for b in buffers if b.shape[-1:] == (24,) and id(b) not in params]
    assert len(ffn_calls) == 6 and len(wide) == len(ffn_calls)
    assert all(b.min() >= 0.0 for b in wide)  # the ReLU outputs, not the pre-activations

    scale = np.float32(1.0) / np.float32(0.75)
    float_masks = [b for b in buffers if b.dtype == np.float32 and (b == scale).any()
                   and np.isin(b, [0.0, scale]).all()]
    assert not float_masks  # dropout keeps its boolean keep mask
    assert any(b.dtype == bool for b in buffers)


def test_tape_keeps_no_pre_norm_sum_and_no_dropout_output_per_sublayer(monkeypatch):
    model, batch = _dropout_model_and_batch()
    added = []  # per call: the (B, len, d) buffers the sublayer's tape holds beyond its inputs' tapes
    sublayer = QaTransformerModel._sublayer

    def counted_sublayer(self, x, out, gain, bias, train):
        y = sublayer(self, x, out, gain, bias, train)
        before = {id(b) for t in (x, out) for b in retained_buffers(t)}
        added.append([b for b in retained_buffers(y) if id(b) not in before and b.shape == x.shape])
        return y

    monkeypatch.setattr(QaTransformerModel, "_sublayer", counted_sublayer)
    model.forward_loss(batch, train=True)

    # 2 per block (review, query, 2 encoder layers) and 3 per decoder layer
    assert len(added) == 14
    for buffers in added:
        # the output and the normalized rows; not the sum x + dropout(out), nor dropout(out)
        assert sorted(b.dtype.name for b in buffers) == ["bool", "float32", "float32"]
