"""Greedy and beam-search decoding over any model exposing the step protocol.

Both decoders step incrementally: ``prepare_batch(reviews, queries) ->
ctx`` (``prepare(review_ids, query_ids)`` for one record), ``start(ctx) ->
state`` with one row per record, and ``advance(ctx, state, parents, tokens)
-> (logits (R, V), state)``, where ``parents`` picks the state row each of
the R live hypotheses extends and ``tokens`` are their last tokens, so one
call scores a whole step of every record.  Beam search decodes several
records at once; greedy decoding extends one row.  ``rescore`` instead
recomputes each next-token distribution from the full prefix with
``step_logits(ctx, prefix_ids) -> (V,) ndarray``, an independent path that
checks the beam's stored scores.

Scoring conventions (mirrored exactly by the test oracles):
  - per-step distribution = log-softmax over logits after masking banned
    tokens (UNK by default) to -inf; banned tokens are never expanded
  - a hypothesis finishes by choosing EOS (its log-prob includes the EOS
    term) or by reaching ``max_len`` surface tokens (no EOS term)
  - ranking uses score / max(1, surface_len)^alpha, ties broken by shorter
    surface, then lexicographically smaller surface ids
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .corpus import BOS_ID, EOS_ID, UNK_ID, Vocabulary, detokenize


@dataclass(frozen=True)
class Hypothesis:
    ids: tuple  # BOS-prefixed; ends with EOS when finished that way
    log_prob: float
    finished: bool

    @property
    def surface(self) -> tuple:
        core = self.ids[1:]
        if core and core[-1] == EOS_ID:
            core = core[:-1]
        return core

    def normalized(self, alpha: float) -> float:
        if alpha == 0.0:
            return self.log_prob
        return self.log_prob / (max(1, len(self.surface)) ** alpha)


@dataclass
class BeamConfig:
    max_len: int
    width: int = 4
    alpha: float = 0.0
    ban_tokens: tuple = (UNK_ID,)

    def __post_init__(self):
        if self.width < 1:
            raise ValueError("beam width must be >= 1")
        if self.max_len < 1:
            raise ValueError("max_len must be >= 1")
        if not math.isfinite(self.alpha):
            raise ValueError(f"beam alpha must be finite, got {self.alpha}")


def masked_log_softmax(logits, ban_tokens=(UNK_ID,)) -> np.ndarray:
    """Float64 log-softmax over the last axis with banned tokens at -inf."""
    logits = np.array(logits, dtype=np.float64)
    logits[..., list(ban_tokens)] = -np.inf
    mx = logits.max(axis=-1, keepdims=True)
    return logits - (mx + np.log(np.exp(logits - mx).sum(axis=-1, keepdims=True)))


def step_log_probs(model, ctx, prefix_ids, ban_tokens=(UNK_ID,)) -> np.ndarray:
    """Masked log-softmax over the next-token logits for a prefix."""
    return masked_log_softmax(model.step_logits(ctx, prefix_ids), ban_tokens)


def rank_key(hyp: Hypothesis, alpha: float):
    return (-hyp.normalized(alpha), len(hyp.surface), hyp.surface)


def greedy_decode(model, review_ids, query_ids, max_len: int, ban_tokens=(UNK_ID,)) -> tuple:
    """Argmax decoding; ties go to the lowest token id.  Returns surface ids."""
    ctx = model.prepare(review_ids, query_ids)
    state = model.start(ctx)
    ids = (BOS_ID,)
    while len(ids) - 1 < max_len:
        logits, state = model.advance(ctx, state, [0], [ids[-1]])
        log_probs = masked_log_softmax(logits[0], ban_tokens)
        if np.isnan(log_probs).any():
            raise ValueError(f"NaN in next-token log-probabilities after {len(ids) - 1} tokens")
        tok = int(np.argmax(log_probs))
        if tok == EOS_ID:
            break
        ids = ids + (tok,)
    return ids[1:]


def top_candidates(live: list[Hypothesis], log_probs: np.ndarray, config: BeamConfig):
    """The ``config.width`` best expansions of ``live`` as (row, Hypothesis), best first.

    ``log_probs`` is (len(live), V); a -inf entry is no candidate.  The
    result equals sorting one Hypothesis per finite (row, token) by
    ``rank_key``, but only candidates whose normalized score ties or beats
    the width-th best are built and sorted.  All live hypotheses share one
    surface length L: EOS keeps it, every other token makes it L + 1.
    """
    surface_len = len(live[0].ids) - 1
    scores = np.array([h.log_prob for h in live])[:, None] + log_probs
    valid = log_probs != -np.inf
    norm = scores
    if config.alpha != 0.0:
        norm = scores / (max(1, surface_len + 1) ** config.alpha)
        norm[:, EOS_ID] = scores[:, EOS_ID] / (max(1, surface_len) ** config.alpha)
    neg = np.where(valid, -norm, np.inf)
    k = min(config.width, int(valid.sum()))
    if k == 0:
        return []
    cut = np.partition(neg, k - 1, axis=None)[k - 1]
    rows, toks = np.nonzero(valid & (neg <= cut))
    out = []
    for row, tok in zip(rows.tolist(), toks.tolist()):
        ids = live[row].ids + (tok,)
        done = tok == EOS_ID or len(ids) - 1 >= config.max_len
        out.append((row, Hypothesis(ids, float(scores[row, tok]), done)))
    out.sort(key=lambda pair: rank_key(pair[1], config.alpha))
    return out[: config.width]


def beam_search_batch(model, reviews, queries, config: BeamConfig) -> list[tuple[list[Hypothesis], int]]:
    """Beam search of several records at once: (ranked pool, steps taken) per record.

    Each step makes one model call for the live hypotheses of all records.
    Every record keeps its own live list and finished pool, and selects its
    survivors from its own rows, so it decodes exactly as it would alone.
    """
    ctx = model.prepare_batch(reviews, queries)
    state = model.start(ctx)
    lives = [[Hypothesis(ids=(BOS_ID,), log_prob=0.0, finished=False)] for _ in reviews]
    parents = list(range(len(reviews)))  # record r starts from state row r
    pools: list[list[Hypothesis]] = [[] for _ in reviews]
    steps = [0] * len(reviews)
    step = 0
    while parents:
        tokens = [h.ids[-1] for live in lives for h in live]
        logits, state = model.advance(ctx, state, parents, tokens)
        log_probs = masked_log_softmax(logits, config.ban_tokens)
        if np.isnan(log_probs).any():
            raise ValueError(f"NaN in next-token log-probabilities after {step} tokens")
        step += 1
        parents, first = [], 0
        for rec, live in enumerate(lives):
            if not live:
                continue
            steps[rec] += 1
            survivors = top_candidates(live, log_probs[first:first + len(live)], config)
            lives[rec] = []
            for row, hyp in survivors:
                if hyp.finished:
                    pools[rec].append(hyp)
                else:
                    lives[rec].append(hyp)
                    parents.append(first + row)
            first += len(live)
    return [(sorted(pool, key=lambda h: rank_key(h, config.alpha)), n) for pool, n in zip(pools, steps)]


def beam_search(model, review_ids, query_ids, config: BeamConfig) -> list[Hypothesis]:
    """Width-limited best-first expansion with a finished pool.

    Every live hypothesis is expanded over the full vocabulary each step,
    with one model call for all of them; the top ``width`` candidates
    survive, finished ones retiring to the pool.  Returns the pool ranked
    best-first.
    """
    return beam_search_batch(model, [review_ids], [query_ids], config)[0][0]


def rescore(model, review_ids, query_ids, hyp: Hypothesis, ban_tokens=(UNK_ID,)) -> float:
    """Independent re-evaluation of a hypothesis's stored log-probability."""
    ctx = model.prepare(review_ids, query_ids)
    total = 0.0
    for t in range(1, len(hyp.ids)):
        log_probs = step_log_probs(model, ctx, hyp.ids[:t], ban_tokens)
        total += float(log_probs[hyp.ids[t]])
    return total


@dataclass
class GenerationResult:
    record_id: str
    tip: str | None
    error: str | None = None
    score: float = 0.0
    token_ids: tuple = field(default_factory=tuple)
    steps: int = 0  # beam steps the record took part in
    finish: str | None = None  # "eos" or "max_len": how the best hypothesis ended


CHUNK_RECORDS = 16  # records per beam loop in batch_generate: 64 hypothesis rows at width 4


def batch_generate(model, triplets, config: BeamConfig, vocab: Vocabulary,
                   mode: str = "whitespace") -> list[GenerationResult]:
    """Decode a dataset in order, ``CHUNK_RECORDS`` records per beam loop.

    Per-record failures are reported, not fatal: a chunk that raises is
    decoded again record by record, so only the failing record fails.  A
    ``max_len`` the model cannot reach is rejected before any record.
    """
    limit = model.max_prefix_len
    if limit is not None and config.max_len > limit:
        raise ValueError(f"beam max_len {config.max_len} exceeds the model's position table "
                         f"of {limit} positions")

    def decode(trips):
        return beam_search_batch(model, [t.review_ids for t in trips], [t.query_ids for t in trips], config)

    results = []
    for lo in range(0, len(triplets), CHUNK_RECORDS):
        chunk = triplets[lo:lo + CHUNK_RECORDS]
        try:
            decoded = decode(chunk)
        except Exception:
            decoded = []
            for trip in chunk:
                try:
                    decoded.extend(decode([trip]))
                except Exception as exc:
                    decoded.append(exc)
        for idx, (trip, out) in enumerate(zip(chunk, decoded), start=lo):
            rid = trip.record_id or str(idx)
            try:
                if isinstance(out, Exception):
                    raise out
                pool, steps = out
                best = pool[0]
                text = detokenize(vocab.decode(best.surface), mode)
                results.append(GenerationResult(rid, text, score=best.log_prob, token_ids=tuple(best.surface),
                                                steps=steps, finish="eos" if best.ids[-1] == EOS_ID else "max_len"))
            except Exception as exc:  # keep the run alive, surface the failure
                results.append(GenerationResult(rid, None, error=f"record {idx} ({rid}): {exc}"))
    return results
