import json

from qatip.baselines import split_sentences
from qatip.corpus import load_jsonl, tokenize, write_jsonl
from qatip.synthetic import (
    QS_REVIEW,
    corpus_tokens,
    overfit_corpus,
    pipeline_corpus,
    query_sensitivity_corpus,
    toy_embedding_file,
)


def test_overfit_corpus_shape():
    records = overfit_corpus(n=64, seed=13)
    assert len(records) == 64
    keys = {(r["review"], r["query"]) for r in records}
    assert len(keys) == 64  # inputs never collide, so the mapping is learnable
    vocab = corpus_tokens(records)
    assert 30 <= len(vocab) <= 48
    assert all(r["tip"] for r in records)


def test_overfit_corpus_deterministic():
    a = overfit_corpus(n=16, seed=13)
    b = overfit_corpus(n=16, seed=13)
    assert a == b
    c = overfit_corpus(n=16, seed=14)
    assert a != c


def test_query_sensitivity_structure():
    records = query_sensitivity_corpus(n_queries=8, repeats=8, seed=29)
    assert len(records) == 64
    assert all(r["review"] == QS_REVIEW for r in records)
    mapping = {}
    for r in records:
        assert len(tokenize(r["tip"])) == 1
        mapping.setdefault(r["query"], set()).add(r["tip"])
    # bijection: each query always yields the same tip, and tips never collide
    assert all(len(v) == 1 for v in mapping.values())
    tips = [next(iter(v)) for v in mapping.values()]
    assert len(set(tips)) == len(mapping) == 8


def test_pipeline_corpus_properties():
    records = pipeline_corpus(n=50, seed=41)
    assert len(records) == 50
    for r in records:
        sentences = split_sentences(r["review"])
        assert len(sentences) == 3
        # one sentence restates the tip verbatim, so extraction has signal
        assert any(r["tip"] in s for s in sentences)
        assert set(tokenize(r["query"])) <= set(tokenize(r["review"]))


def test_write_and_load_round_trip(tmp_path):
    records = pipeline_corpus(n=12, seed=41)
    path = str(tmp_path / "data.jsonl")
    write_jsonl(records, path)
    back = load_jsonl(path)
    assert [r["id"] for r in back] == [r["id"] for r in records]
    assert back[0]["tip"] == records[0]["tip"]


def test_toy_embedding_file(tmp_path):
    from qatip.embeddings import load_embeddings

    path = str(tmp_path / "vecs.txt")
    tokens = ["alpha", "beta", "gamma"]
    toy_embedding_file(path, tokens, dim=5, seed=7)
    table = load_embeddings(path)
    assert table.dim == 5
    assert sorted(table.tokens()) == tokens
    toy_embedding_file(str(tmp_path / "again.txt"), tokens, dim=5, seed=7)
    assert open(path).read() == open(str(tmp_path / "again.txt")).read()


def test_bundled_corpus_matches_generator():
    bundled = [json.loads(l) for l in open("data/sample_triplets.jsonl", encoding="utf-8")]
    assert bundled == pipeline_corpus(n=500, seed=41)
