"""Deterministic synthetic corpora for experiments and smoke runs.

Three generators: a small memorization set, a query-sensitivity set where
reviews are identical and only the query determines the tip, and a larger
document/query/summary set for end-to-end pipeline runs.  All output is
reproducible from the seed.
"""

from __future__ import annotations

import numpy as np

from .embeddings import EmbeddingTable, save_embeddings

_FILLERS = ["the", "place", "was", "busy", "food", "service", "came", "quick", "staff", "clean"]
_TIP_WORDS = [f"t{i}" for i in range(8)]
_QUERY_WORDS = [f"q{i}" for i in range(6)]


def overfit_corpus(n: int = 64, seed: int = 13) -> list[dict]:
    """Distinct (review, query) -> tip records a seq2seq model can memorize.

    Each review embeds a unique marker pair so no two inputs collide; the
    token inventory stays near 40 distinct words.
    """
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n):
        marker = f"u{i // 8} w{i % 8}"
        fillers = list(rng.choice(_FILLERS, size=int(rng.integers(4, 7)), replace=False))
        review = marker + " " + " ".join(fillers)
        query = " ".join(
            rng.choice(_QUERY_WORDS, size=int(rng.integers(1, 3)), replace=False)
        )
        tip = " ".join(
            rng.choice(_TIP_WORDS, size=int(rng.integers(3, 6)), replace=False)
        )
        records.append(
            {"review": review, "query": query, "tip": tip, "id": f"ov-{i:03d}"}
        )
    return records


QS_REVIEW = "the food was warm and the room was clean"


def query_sensitivity_corpus(
    n_queries: int = 8, repeats: int = 8, seed: int = 29
) -> list[dict]:
    """Identical reviews; the tip token is a bijective function of the query.

    A model that ignores the query cannot beat the majority class on this
    set; a model that reads it can solve it exactly.
    """
    rng = np.random.default_rng(seed)
    mapping = rng.permutation(n_queries)
    records = []
    i = 0
    for _ in range(repeats):
        for q in range(n_queries):
            records.append(
                {
                    "review": QS_REVIEW,
                    "query": f"q{q}",
                    "tip": f"t{mapping[q]}",
                    "id": f"qs-{i:03d}",
                }
            )
            i += 1
    return records


_TOPICS = ["tax", "school", "climate", "health", "trade", "energy", "housing", "media", "transit", "farm"]
_ASPECTS = ["cost", "safety", "growth", "jobs", "quality", "access"]
_JUDGEMENTS = ["helpful", "harmful", "mixed", "urgent"]
_PIPE_FILLERS = [
    "policy", "debate", "public", "support", "against", "reform", "plan",
    "impact", "study", "report", "group", "voters", "city", "state",
    "nation", "year", "new", "old", "major", "minor",
]


def pipeline_corpus(n: int = 500, seed: int = 41) -> list[dict]:
    """Document/query/summary records with extractable tip sentences.

    Reviews hold several terminator-delimited sentences, one of which
    restates the tip, so both the seq2seq models and the extractive
    baselines have signal to find.
    """
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n):
        topic = _TOPICS[int(rng.integers(len(_TOPICS)))]
        aspect = _ASPECTS[int(rng.integers(len(_ASPECTS)))]
        judgement = _JUDGEMENTS[int(rng.integers(len(_JUDGEMENTS)))]
        lead = list(rng.choice(_PIPE_FILLERS, size=4, replace=False))
        coda = list(rng.choice(_PIPE_FILLERS, size=3, replace=False))
        tip = f"the {topic} plan is {judgement} for {aspect}"
        review = (
            f"the {topic} {lead[0]} {lead[1]} debate continues . "
            f"many voters say the {topic} plan is {judgement} for {aspect} . "
            f"one {coda[0]} {coda[1]} {coda[2]} report follows ."
        )
        records.append(
            {
                "review": review,
                "query": f"{topic} {aspect}",
                "tip": tip,
                "id": f"db-{i:04d}",
            }
        )
    return records


def corpus_tokens(records: list[dict]) -> list[str]:
    """Sorted distinct whitespace tokens over review/query/tip fields."""
    seen = set()
    for rec in records:
        for fld in ("review", "query", "tip"):
            seen.update(rec.get(fld, "").lower().split())
    return sorted(seen)


def toy_embedding_file(path: str, tokens: list[str], dim: int = 16, seed: int = 7) -> None:
    """Write a random but reproducible embedding table covering ``tokens``."""
    rng = np.random.default_rng(seed)
    table = EmbeddingTable(
        {t: rng.standard_normal(dim) for t in tokens}, dim=dim
    )
    save_embeddings(table, path)
