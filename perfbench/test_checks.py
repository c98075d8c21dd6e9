"""Each output check passes on the program's real output and fails on a wrong one.

    python3 -m pytest perfbench/test_checks.py
"""

from __future__ import annotations

import dataclasses
import os
import sys
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from qatip import corpus, generation, synthetic  # noqa: E402
from qatip.rnn import QaRnnModel, RnnConfig  # noqa: E402
from qatip.transformer import QaTransformerModel, TransformerConfig  # noqa: E402


def tiny_model(family: str, vocab_size: int, dtype=np.float32):
    if family == "transformer":
        cfg = TransformerConfig(vocab_size, model_dim=16, num_heads=2, num_layers=1,
                                dropout=0.0, variant="both", max_len=24)
        return QaTransformerModel(cfg, seed=3, dtype=dtype)
    return QaRnnModel(RnnConfig(vocab_size, emb_dim=8, hidden_dim=8, variant="both"), seed=3, dtype=dtype)


@pytest.fixture(scope="module")
def data():
    records = synthetic.overfit_corpus(n=16)
    vocab = corpus.vocab_from_records(records)
    return vocab, corpus.encode_records(records, vocab, 12, 3, 6)


def decoded(family, data, beam):
    vocab, triplets = data
    model = tiny_model(family, vocab.size)
    results = generation.batch_generate(model, triplets[:3], beam, vocab)
    work = workloads.DecodeWorkload(family, big_vocab=False, records_per_round=1)
    work.beam = beam
    work.decoded = list(zip(triplets[:3], results))
    return work, SimpleNamespace(model=model, vocab=vocab, triplets=triplets)


@pytest.mark.parametrize("family", ["transformer", "rnn"])
def test_decode_check_accepts_the_program_output(family, data):
    work, state = decoded(family, data, generation.BeamConfig(max_len=5, width=3))
    assert work.check(state) == []


@pytest.mark.parametrize("family", ["transformer", "rnn"])
def test_rescore_rejects_a_shifted_score_or_a_changed_token(family, data):
    work, state = decoded(family, data, generation.BeamConfig(max_len=5, width=3))
    trip, res = work.decoded[0]
    score, tol = checks.rescore(state.model, trip.review_ids, trip.query_ids, res.token_ids, 5)
    assert abs(score - res.score) <= tol
    shifted = dataclasses.replace(res, score=res.score + 4 * tol)
    work.decoded[0] = (trip, shifted)
    assert any("teacher-forced" in e for e in work.check(state))
    ids = tuple(res.token_ids)
    swapped = (5 if ids[:1] == (4,) else 4,) + ids[1:]
    other, _ = checks.rescore(state.model, trip.review_ids, trip.query_ids, swapped, 5)
    assert abs(other - res.score) > tol


def test_rescore_counts_eos_only_below_max_len(data):
    vocab, triplets = data
    model = tiny_model("rnn", vocab.size)
    trip = triplets[0]
    tip = (5, 6, 7)
    short, _ = checks.rescore(model, trip.review_ids, trip.query_ids, tip, max_len=4)
    full, _ = checks.rescore(model, trip.review_ids, trip.query_ids, tip, max_len=3)
    assert short < full  # the EOS term is a negative log-probability


def test_decode_check_rejects_unk_and_overlong_tips(data):
    work, state = decoded("rnn", data, generation.BeamConfig(max_len=5, width=3))
    trip, res = work.decoded[1]
    work.decoded[1] = (trip, dataclasses.replace(res, token_ids=(corpus.UNK_ID,) * 6))
    assert any("hold UNK or exceed max_len" in e for e in work.check(state))


@pytest.mark.parametrize("family", ["transformer", "rnn"])
def test_reference_beam_agrees_with_the_program(family, data):
    vocab, triplets = data
    model = tiny_model(family, vocab.size)
    for width in (1, 3):
        for trip in triplets[:4]:
            best = generation.beam_search(model, trip.review_ids, trip.query_ids,
                                          generation.BeamConfig(max_len=4, width=width))[0]
            ids, score = checks.reference_beam(model, trip.review_ids, trip.query_ids, 4, width)
            assert tuple(ids) == best.surface
            assert score == pytest.approx(best.log_prob, abs=1e-4)


def test_decode_check_rejects_a_worse_tip_with_its_true_score(data):
    work, state = decoded("transformer", data, generation.BeamConfig(max_len=5, width=3))
    trip, res = work.decoded[0]
    hyps = generation.beam_search(state.model, trip.review_ids, trip.query_ids, work.beam)
    worse = next(h for h in hyps if h.log_prob < res.score - 1e-3)
    text = corpus.detokenize(state.vocab.decode(worse.surface))
    work.decoded[0] = (trip, dataclasses.replace(res, tip=text, token_ids=worse.surface, score=worse.log_prob))
    errors = work.check(state)
    assert any("reference beam" in e for e in errors)
    assert not any("teacher-forced" in e for e in errors)


@pytest.mark.parametrize("family", ["transformer", "rnn"])
def test_gradient_check_passes_the_tape_and_rejects_wrong_gradients(family, data):
    vocab, triplets = data
    model = tiny_model(family, vocab.size, dtype=np.float64)
    batch = corpus.make_batch(triplets[:4])
    assert checks.gradient_check(model, batch, seed=5) < 1e-6
    grads = {p.name: p.tensor.grad for p in model.params.parameters()}
    scaled = {name: None if g is None else g * 1.001 for name, g in grads.items()}
    assert checks.gradient_check(model, batch, seed=5, grads=scaled) > 1e-5
    dropped = dict(grads, emb=None)
    assert checks.gradient_check(model, batch, seed=5, grads=dropped) > 1e-5


def test_float64_twin_copies_the_parameters(data):
    vocab, _ = data
    model = tiny_model("transformer", vocab.size)
    twin = checks.float64_twin(model)
    for p in model.params.parameters():
        assert twin.params[p.name].dtype == np.float64
        assert np.array_equal(twin.params[p.name].data, p.tensor.data.astype(np.float64))


def test_train_check_passes_then_catches_each_fault(data, tmp_path):
    vocab, triplets = data
    work = workloads.TrainWorkload("rnn")
    work.prepare(seed=1, run_dir=str(tmp_path))
    work.cfg = dataclasses.replace(work.cfg, batch_size=8, lr=0.01, dropout=0.0)
    state = SimpleNamespace(train_set=triplets, valid_set=triplets[:4], model=tiny_model("rnn", vocab.size))
    for k in range(3):
        work.run_round(state, k)
    assert work.check(state) == []

    first, last = work.history[0], work.history[-1]
    work.history = [last, first]
    assert any("did not fall" in e for e in work.check(state))
    work.history = [first, dataclasses.replace(last, valid_loss=float("nan"))]
    assert any("non-finite" in e for e in work.check(state))
    work.history = [first, last]

    emb = state.model.params["emb"]
    emb.data = np.nextafter(emb.data, np.inf, dtype=emb.data.dtype)
    assert any("final checkpoint differs" in e for e in work.check(state))


def test_big_vocab_corpus_has_the_same_size_for_every_seed():
    for seed in (0, 1, 7):
        records = workloads.big_vocab_records(seed)
        assert len(records) == workloads.BIG_VOCAB_RECORDS
        assert corpus.vocab_from_records(records).size == workloads.BIG_VOCAB_POOL + 4
    assert workloads.big_vocab_records(3) == workloads.big_vocab_records(3)
    assert workloads.big_vocab_records(3) != workloads.big_vocab_records(4)
