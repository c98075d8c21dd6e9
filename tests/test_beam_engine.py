"""The batched beam engine against the per-hypothesis reference search.

The engine scores all live hypotheses of a step, over every record of a
chunk, with one ``advance`` call and builds only the candidates that can
survive; these tests hold it to the reference's ranked output, its model
steps to ``step_logits``, its selection to a full sort of every candidate,
and a chunk's output to each record decoded alone.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decoding_refs import TableModel, reference_beam_search
from qatip import generation
from qatip.config import VARIANTS
from qatip.corpus import RESERVED_TOKENS, Triplet, Vocabulary, encode_records, load_jsonl, vocab_from_records
from qatip.generation import (
    BeamConfig, Hypothesis, batch_generate, beam_search, beam_search_batch, rank_key, top_candidates,
)
from qatip.rnn import QaRnnModel, RnnConfig
from qatip.transformer import QaTransformerModel, TransformerConfig

REVIEW, QUERY = (4, 5, 6, 7, 8), (9, 10)


def build(family, variant, vocab=17, seed=31):
    if family == "rnn":
        cfg = RnnConfig(vocab_size=vocab, emb_dim=5, hidden_dim=4, variant=variant)
        return QaRnnModel(cfg, seed=seed, dtype=np.float64)
    cfg = TransformerConfig(vocab_size=vocab, model_dim=8, num_heads=2, num_layers=2,
                            ffn_dim=16, dropout=0.0, variant=variant, max_len=12)
    return QaTransformerModel(cfg, seed=seed, dtype=np.float64)


def assert_same_ranking(got, want):
    assert [h.ids for h in got] == [h.ids for h in want]
    assert [h.finished for h in got] == [h.finished for h in want]
    for a, b in zip(got, want):
        assert abs(a.log_prob - b.log_prob) < 1e-9


@pytest.mark.parametrize("family", ["rnn", "transformer"])
@pytest.mark.parametrize("variant", VARIANTS)
def test_engine_matches_reference_on_models(family, variant):
    model = build(family, variant)
    for alpha in (0.0, 0.7):
        for width in (1, 3, 8):
            cfg = BeamConfig(max_len=6, width=width, alpha=alpha)
            assert_same_ranking(beam_search(model, REVIEW, QUERY, cfg),
                                reference_beam_search(model, REVIEW, QUERY, cfg))


class TiedTableModel(TableModel):
    """Rows of a few integer logits, so rows and candidates tie often."""

    def _row(self, prefix):
        return np.floor(super()._row(prefix) / 2.0)


def test_engine_matches_reference_on_tied_tables():
    for seed in range(12):
        model = TiedTableModel(vocab_size=7, seed=seed)
        for alpha in (0.0, 0.7):
            for width in (1, 3, 8):
                cfg = BeamConfig(max_len=4, width=width, alpha=alpha)
                assert_same_ranking(beam_search(model, (5,), (6,), cfg),
                                    reference_beam_search(model, (5,), (6,), cfg))


@pytest.mark.parametrize("family", ["rnn", "transformer"])
def test_advance_equals_step_logits_along_a_decoded_tip(family):
    model = build(family, "both")
    ctx = model.prepare(REVIEW, QUERY)
    best = beam_search(model, REVIEW, QUERY, BeamConfig(max_len=6, width=3))[0]
    state = model.start(ctx)
    for t in range(1, len(best.ids)):
        logits, state = model.advance(ctx, state, [0], [best.ids[t - 1]])
        assert logits.shape == (1, model.config.vocab_size)
        assert np.abs(logits[0] - model.step_logits(ctx, best.ids[:t])).max() < 1e-9


@pytest.mark.parametrize("family", ["rnn", "transformer"])
def test_advance_reorders_rows_by_parent(family):
    model = build(family, "both")
    ctx = model.prepare(REVIEW, QUERY)
    rng = np.random.default_rng(7)
    prefixes, state, parents = [(1,)], model.start(ctx), [0]
    for _ in range(5):
        logits, state = model.advance(ctx, state, parents, [p[-1] for p in prefixes])
        for row, prefix in zip(logits, prefixes):
            assert np.abs(row - model.step_logits(ctx, prefix)).max() < 1e-9
        parents = rng.integers(0, len(prefixes), size=rng.integers(1, 5)).tolist()
        prefixes = [prefixes[p] + (int(rng.integers(4, 17)),) for p in parents]


def full_sort(live, log_probs, config):
    """Every finite candidate as (row, Hypothesis), sorted by rank_key."""
    cands = []
    for row, hyp in enumerate(live):
        for tok, lp in enumerate(log_probs[row]):
            if lp == -np.inf:
                continue
            ids = hyp.ids + (tok,)
            done = tok == 2 or len(ids) - 1 >= config.max_len
            cands.append((row, Hypothesis(ids, hyp.log_prob + float(lp), done)))
    cands.sort(key=lambda pair: rank_key(pair[1], config.alpha))
    return cands[: config.width]


@st.composite
def score_tables(draw):
    rows = draw(st.integers(1, 4))
    vocab = draw(st.integers(3, 7))
    surface_len = draw(st.integers(0, 3))
    # a handful of values, -inf among them, forces ties within and across rows
    values = st.sampled_from([-np.inf, -2.0, -1.0, -0.5, 0.0])
    table = np.array([[draw(values) for _ in range(vocab)] for _ in range(rows)])
    live = [Hypothesis((1,) + tuple(draw(st.lists(st.integers(0, vocab - 1), min_size=surface_len,
                                                   max_size=surface_len))),
                       draw(st.sampled_from([0.0, -1.0, -1.5])), False)
            for _ in range(rows)]
    config = BeamConfig(max_len=surface_len + draw(st.integers(1, 2)),
                        width=draw(st.integers(1, 6)), alpha=draw(st.sampled_from([0.0, 0.7, 1.0])))
    return live, table, config


@settings(max_examples=300, deadline=None)
@given(score_tables())
def test_selection_equals_full_sort(case):
    live, table, config = case
    got = top_candidates(live, table, config)
    want = full_sort(live, table, config)
    assert [row for row, _ in got] == [row for row, _ in want]
    assert [h for _, h in got] == [h for _, h in want]


# records of different review and query lengths, one with an empty query, so a chunk pads both
RECORDS = [((4, 5, 6, 7, 8), (9, 10)), ((11,), (12, 13, 14)), ((5, 6, 7, 8, 9, 10, 11, 12), ()),
           ((13, 14, 15), (4,)), ((16, 4), (5, 6))]


@pytest.mark.parametrize("family", ["rnn", "transformer"])
@pytest.mark.parametrize("variant", VARIANTS)
def test_chunk_decodes_each_record_as_alone(family, variant, monkeypatch):
    model = build(family, variant)
    vocab = Vocabulary(list(RESERVED_TOKENS) + [f"w{i}" for i in range(13)])
    trips = [Triplet(r, q, (), "", "", "", f"r{i}") for i, (r, q) in enumerate(RECORDS)]
    reviews, queries = zip(*RECORDS)
    for alpha in (0.0, 0.7):
        for width in (1, 3, 8):
            cfg = BeamConfig(max_len=6, width=width, alpha=alpha)
            chunk = beam_search_batch(model, reviews, queries, cfg)
            for (pool, steps), (review, query) in zip(chunk, RECORDS):
                ((alone, alone_steps),) = beam_search_batch(model, [review], [query], cfg)
                assert_same_ranking(pool, alone)
                assert steps == alone_steps
            together = batch_generate(model, trips, cfg, vocab)
            monkeypatch.setattr(generation, "CHUNK_RECORDS", 1)
            apart = batch_generate(model, trips, cfg, vocab)
            monkeypatch.undo()
            for a, b in zip(together, apart):
                assert a.error is None and b.error is None
                assert (a.token_ids, a.tip, a.steps, a.finish) == (b.token_ids, b.tip, b.steps, b.finish)
                assert abs(a.score - b.score) < 1e-9


BUNDLED = Path(__file__).resolve().parent.parent / "data" / "sample_triplets.jsonl"


@pytest.mark.parametrize("family", ["rnn", "transformer"])
def test_float32_chunk_picks_the_tips_of_records_alone(family, monkeypatch):
    """In the checkpoint dtype a chunk pads reviews to its longest one and
    shapes every product by its row count, which moves scores by rounding;
    on these bundled records no picked tip moves with it."""
    records = load_jsonl(str(BUNDLED), inference=True)[:48]
    vocab = vocab_from_records(records)
    # the bundled reviews all hold 25 tokens: cut them to lengths 1..25 so the chunks pad
    trips = [replace(t, review_ids=t.review_ids[:1 + (7 * i) % 25])
             for i, t in enumerate(encode_records(records, vocab, 40, 4, 14, inference=True))]
    # the benchmark's decode models
    if family == "rnn":
        model = QaRnnModel(RnnConfig(vocab_size=vocab.size, emb_dim=64, hidden_dim=64, variant="both"), seed=2020)
    else:
        model = QaTransformerModel(TransformerConfig(vocab_size=vocab.size, model_dim=128, num_heads=8, num_layers=2,
                                                     ffn_dim=512, dropout=0.0, variant="both", max_len=42), seed=2020)
    assert model.dtype == np.float32
    cfg = BeamConfig(max_len=14, width=4)
    together = batch_generate(model, trips, cfg, vocab)
    monkeypatch.setattr(generation, "CHUNK_RECORDS", 1)
    apart = batch_generate(model, trips, cfg, vocab)
    assert [r.token_ids for r in together] == [r.token_ids for r in apart]
    gaps = [abs(a.score - b.score) for a, b in zip(together, apart)]
    assert 0 < max(gaps) < 1e-4  # rounding moves, the tips stay
