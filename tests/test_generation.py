"""Decoding tests: table walks, exhaustive agreement, scoring invariants."""

import numpy as np
import pytest

from decoding_refs import TableModel, FailingModel, exhaustive_search
from qatip.corpus import RESERVED_TOKENS, Triplet, Vocabulary
from qatip.generation import (
    BeamConfig,
    Hypothesis,
    batch_generate,
    beam_search,
    greedy_decode,
    rescore,
)
from qatip.rnn import QaRnnModel, RnnConfig


def peaked(vocab_size, favorite, strength=8.0):
    row = np.zeros(vocab_size)
    row[favorite] = strength
    return row


def test_greedy_walks_the_table():
    table = {
        (1,): peaked(6, 4),
        (1, 4): peaked(6, 5),
        (1, 4, 5): peaked(6, 2),  # asks for EOS
    }
    model = TableModel(vocab_size=6, table=table)
    assert greedy_decode(model, (9,), (8,), max_len=10) == (4, 5)


def test_greedy_immediate_eos_gives_empty_tip():
    model = TableModel(vocab_size=5, table={(1,): peaked(5, 2)})
    assert greedy_decode(model, (0,), (0,), max_len=5) == ()


def test_greedy_respects_length_cap():
    model = TableModel(vocab_size=5, table={}, seed=3)
    # rig every prefix toward token 4, never EOS
    model.step_logits = lambda ctx, prefix: peaked(5, 4)
    out = greedy_decode(model, (0,), (0,), max_len=3)
    assert out == (4, 4, 4)


def test_greedy_tie_goes_to_lowest_id():
    model = TableModel(vocab_size=5)
    model.step_logits = lambda ctx, prefix: np.zeros(5)
    out = greedy_decode(model, (0,), (0,), max_len=2)
    assert out == (0, 0)  # PAD wins the all-equal tie; only UNK is banned


def test_greedy_is_deterministic():
    model = TableModel(vocab_size=7, seed=11)
    a = greedy_decode(model, (4, 5), (6,), max_len=6)
    b = greedy_decode(model, (4, 5), (6,), max_len=6)
    assert a == b


def test_width_one_beam_equals_greedy():
    for seed in range(30):
        model = TableModel(vocab_size=6, seed=seed)
        cfg = BeamConfig(max_len=4, width=1)
        best = beam_search(model, (7,), (8,), cfg)[0]
        assert best.surface == greedy_decode(model, (7,), (8,), max_len=4), f"seed {seed}"


def test_beam_matches_exhaustive_enumeration():
    for seed in range(20):
        model = TableModel(vocab_size=5, seed=100 + seed)
        cfg = BeamConfig(max_len=3, width=8)
        best = beam_search(model, (9,), (3,), cfg)[0]
        oracle_ids, oracle_score = exhaustive_search(model, (9,), (3,), max_len=3)[0]
        assert best.ids == oracle_ids, f"seed {seed}"
        assert abs(best.log_prob - oracle_score) < 1e-10


def test_beam_output_sorted_by_normalized_score():
    model = TableModel(vocab_size=6, seed=5)
    hyps = beam_search(model, (2,), (3,), BeamConfig(max_len=4, width=5))
    scores = [h.normalized(0.0) for h in hyps]
    assert scores == sorted(scores, reverse=True)
    assert all(h.finished for h in hyps)


def test_beam_width_monotonicity_on_toys():
    for seed in range(10):
        model = TableModel(vocab_size=5, seed=200 + seed)
        best = [beam_search(model, (1,), (1,), BeamConfig(max_len=3, width=w))[0].log_prob
                for w in (1, 2, 3, 4, 8)]
        for a, b in zip(best, best[1:]):
            assert b >= a - 1e-12


def test_no_hypothesis_exceeds_max_len():
    model = TableModel(vocab_size=6, seed=9)
    for h in beam_search(model, (4,), (2,), BeamConfig(max_len=3, width=6)):
        assert len(h.surface) <= 3
        assert len(h.ids) <= 3 + 2


def test_stored_scores_survive_rescoring():
    model = TableModel(vocab_size=6, seed=13)
    for h in beam_search(model, (5,), (6,), BeamConfig(max_len=4, width=4)):
        again = rescore(model, (5,), (6,), h)
        assert abs(h.log_prob - again) < 1e-10


def test_rescoring_on_a_real_model():
    model = QaRnnModel(RnnConfig(vocab_size=9, emb_dim=3, hidden_dim=2, variant="both"), seed=3)
    cfg = BeamConfig(max_len=4, width=3)
    hyps = beam_search(model, (4, 5, 6), (7,), cfg)
    assert hyps
    for h in hyps[:2]:
        assert abs(h.log_prob - rescore(model, (4, 5, 6), (7,), h)) < 1e-5
        assert len(h.surface) <= 4


def test_unk_never_emitted_by_default():
    model = TableModel(vocab_size=5)
    model.step_logits = lambda ctx, prefix: peaked(5, 3)  # UNK looks best
    out = greedy_decode(model, (0,), (0,), max_len=3)
    assert 3 not in out
    for h in beam_search(model, (0,), (0,), BeamConfig(max_len=3, width=4)):
        assert 3 not in h.ids


def test_unk_ban_can_be_disabled():
    model = TableModel(vocab_size=5)
    model.step_logits = lambda ctx, prefix: peaked(5, 3)
    out = greedy_decode(model, (0,), (0,), max_len=2, ban_tokens=())
    assert out == (3, 3)


def test_eos_log_prob_counted_only_when_chosen():
    # one strong path: BOS -> 4 -> EOS; hand-compute both step log-probs
    table = {(1,): peaked(5, 4), (1, 4): peaked(5, 2)}
    model = TableModel(vocab_size=5, table=table)
    best = beam_search(model, (0,), (0,), BeamConfig(max_len=3, width=5))[0]
    assert best.ids == (1, 4, 2)

    def lp(row, tok):
        row = row.astype(float).copy()
        row[3] = -np.inf
        m = row.max()
        return float(row[tok] - (m + np.log(np.exp(row - m).sum())))

    expected = lp(peaked(5, 4), 4) + lp(peaked(5, 2), 2)
    assert abs(best.log_prob - expected) < 1e-12


def test_hypothesis_surface_strips_framing():
    assert Hypothesis((1, 5, 6, 2), -1.0, True).surface == (5, 6)
    assert Hypothesis((1, 5, 6), -1.0, True).surface == (5, 6)
    assert Hypothesis((1,), 0.0, False).surface == ()


def test_beam_config_validation():
    with pytest.raises(ValueError, match="width"):
        BeamConfig(max_len=3, width=0)
    with pytest.raises(ValueError, match="max_len"):
        BeamConfig(max_len=0)
    # a NaN alpha ranks every candidate as NaN, and the beam keeps arbitrary ones
    for alpha in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match=f"^beam alpha must be finite, got {alpha}$"):
            BeamConfig(max_len=3, alpha=alpha)


def _mini_vocab():
    return Vocabulary(list(RESERVED_TOKENS) + ["good", "service", "fast", "cheap"])


def test_batch_generate_output_order_and_roundtrip():
    vocab = _mini_vocab()
    good = vocab.token_to_id["good"]
    fast = vocab.token_to_id["fast"]
    table = {(1,): peaked(vocab.size, good), (1, good): peaked(vocab.size, fast),
             (1, good, fast): peaked(vocab.size, 2)}
    model = TableModel(vocab_size=vocab.size, table=table)
    trips = [
        Triplet((4,), (5,), (), "r a", "q", "", "rec-0"),
        Triplet((5,), (4,), (), "r b", "q", "", "rec-1"),
    ]
    results = batch_generate(model, trips, BeamConfig(max_len=4, width=2), vocab)
    assert [r.record_id for r in results] == ["rec-0", "rec-1"]
    assert results[0].tip == "good fast"
    # text -> ids round trip for in-vocab output
    re_ids = tuple(vocab.lookup(t) for t in results[0].tip.split())
    assert re_ids == results[0].token_ids


def test_batch_generate_empty_dataset():
    model = TableModel(vocab_size=5)
    assert batch_generate(model, [], BeamConfig(max_len=3), _mini_vocab()) == []


def test_batch_generate_reports_per_record_errors():
    vocab = _mini_vocab()
    inner = TableModel(vocab_size=vocab.size, seed=21)
    model = FailingModel(inner, poison_review=(5,))
    trips = [
        Triplet((4,), (6,), (), "", "", "", "ok-0"),
        Triplet((5,), (6,), (), "", "", "", "bad-1"),
        Triplet((6,), (6,), (), "", "", "", "ok-2"),
    ]
    results = batch_generate(model, trips, BeamConfig(max_len=3, width=2), vocab)
    assert results[0].error is None and results[0].tip is not None
    assert results[1].tip is None and "bad-1" in results[1].error and "record 1" in results[1].error
    assert results[2].error is None and results[2].tip is not None


def test_batch_generate_max_len_bounded_by_position_table():
    from qatip.corpus import EOS_ID, UNK_ID
    from qatip.transformer import QaTransformerModel, TransformerConfig

    model = QaTransformerModel(TransformerConfig(
        vocab_size=9, model_dim=8, num_heads=2, num_layers=1, ffn_dim=16,
        dropout=0.0, variant="both", max_len=6), seed=4)
    vocab = Vocabulary(list(RESERVED_TOKENS) + [f"w{i}" for i in range(5)])
    trips = [Triplet((4, 5, 6), (7,), (), "", "", "", "a")]
    # with EOS banned every hypothesis runs to the cap
    at_table = BeamConfig(max_len=6, width=2, ban_tokens=(UNK_ID, EOS_ID))
    (result,) = batch_generate(model, trips, at_table, vocab)
    assert result.error is None and len(result.token_ids) == 6

    prepared = []
    model.prepare = lambda *args: prepared.append(args)
    past_table = BeamConfig(max_len=7, width=2, ban_tokens=(UNK_ID, EOS_ID))
    with pytest.raises(ValueError, match=r"max_len 7 exceeds .* of 6 positions"):
        batch_generate(model, trips, past_table, vocab)
    assert prepared == []  # rejected before any record


@pytest.mark.parametrize("decode", [
    lambda model: beam_search(model, (0,), (0,), BeamConfig(max_len=3, width=2)),
    lambda model: greedy_decode(model, (0,), (0,), max_len=3),
], ids=["beam", "greedy"])
def test_beam_reports_nan_logits(decode):
    model = TableModel(vocab_size=5)
    model.step_logits = lambda ctx, prefix: peaked(5, 4) if len(prefix) == 1 else np.full(5, np.nan)
    with pytest.raises(ValueError, match="NaN in next-token log-probabilities after 1 tokens"):
        decode(model)


def test_generation_records_steps_and_finish():
    from qatip.corpus import EOS_ID, UNK_ID

    vocab = _mini_vocab()
    good, fast = vocab.token_to_id["good"], vocab.token_to_id["fast"]
    table = {(1,): peaked(vocab.size, good), (1, good): peaked(vocab.size, fast),
             (1, good, fast): peaked(vocab.size, 2)}
    trips = [Triplet((4,), (5,), (), "", "", "", "a")]
    (by_eos,) = batch_generate(TableModel(vocab_size=vocab.size, table=table), trips,
                               BeamConfig(max_len=4, width=1), vocab)
    assert (by_eos.token_ids, by_eos.steps, by_eos.finish) == ((good, fast), 3, "eos")
    # with EOS banned every hypothesis runs to the cap
    (by_cap,) = batch_generate(TableModel(vocab_size=vocab.size, seed=4), trips,
                               BeamConfig(max_len=3, width=2, ban_tokens=(UNK_ID, EOS_ID)), vocab)
    assert (len(by_cap.token_ids), by_cap.steps, by_cap.finish) == (3, 3, "max_len")


def test_chunk_failures_stay_with_their_records():
    vocab = Vocabulary(list(RESERVED_TOKENS) + [f"w{i}" for i in range(13)])
    inner = QaRnnModel(RnnConfig(vocab_size=vocab.size, emb_dim=5, hidden_dim=4), seed=31, dtype=np.float64)
    model = FailingModel(inner, poison_review=(5, 6), nan_review=(7, 8, 9))
    reviews = [(4, 5, 6, 7), (5, 6), (9, 10), (7, 8, 9), (11, 12, 13, 14, 15)]
    trips = [Triplet(r, (6, 4), (), "", "", "", f"rec-{i}") for i, r in enumerate(reviews)]
    cfg = BeamConfig(max_len=5, width=3)
    results = batch_generate(model, trips, cfg, vocab)
    assert [r.error for r in results] == [
        None, "record 1 (rec-1): poisoned record", None,
        "record 3 (rec-3): NaN in next-token log-probabilities after 0 tokens", None]
    for trip, res in zip(trips, results):
        if res.error is None:
            best = beam_search(inner, trip.review_ids, trip.query_ids, cfg)[0]
            assert res.token_ids == best.surface and res.score == best.log_prob
