"""Test doubles for decoding: fixed-logit models and two reference decoders.

The exhaustive oracle deliberately reimplements masking, log-softmax,
scoring, and ranking with its own code so that agreement with the beam is
meaningful.  ``reference_beam_search`` is the per-hypothesis beam search the
batched engine replaced: one ``step_logits`` call per live prefix and one
Hypothesis per vocabulary entry, all sorted.
"""

import numpy as np

from qatip.generation import Hypothesis, rank_key

BOS, EOS, UNK = 1, 2, 3


class TableModel:
    """step_logits looked up per prefix; rows are deterministic per (seed, prefix).

    Its incremental state is the live prefixes, and ``advance`` takes each
    row from ``self.step_logits``, so a test may patch that on an instance.
    Every record of a batch reads the same table.
    """

    max_prefix_len = None

    def __init__(self, vocab_size=5, seed=0, table=None):
        self.vocab_size = vocab_size
        self.seed = seed
        self.table = dict(table or {})

    def prepare(self, review_ids, query_ids):
        return self.prepare_batch([review_ids], [query_ids])

    def prepare_batch(self, reviews, queries):
        return {"reviews": [tuple(r) for r in reviews], "queries": [tuple(q) for q in queries]}

    def _row(self, prefix):
        h = self.seed
        for t in prefix:
            h = (h * 1000003 + int(t) + 1) % (2**31)
        return np.random.default_rng(h).standard_normal(self.vocab_size) * 2.0

    def step_logits(self, ctx, prefix_ids):
        key = tuple(prefix_ids)
        if key in self.table:
            return np.asarray(self.table[key], dtype=np.float64)
        return self._row(key)

    def start(self, ctx):
        return [()] * len(ctx["reviews"])

    def advance(self, ctx, state, parents, tokens):
        prefixes = [state[p] + (int(t),) for p, t in zip(parents, tokens)]
        rows = [np.asarray(self.step_logits(ctx, prefix), dtype=np.float64) for prefix in prefixes]
        return np.stack(rows), prefixes


class FailingModel:
    """Wraps a model to exercise per-record error reporting.

    A batch holding ``poison_review`` raises when prepared; the rows of a
    record whose review is ``nan_review`` read NaN logits.
    """

    def __init__(self, inner, poison_review, nan_review=None):
        self.inner = inner
        self.poison = tuple(poison_review)
        self.nan = None if nan_review is None else tuple(nan_review)

    @property
    def max_prefix_len(self):
        return self.inner.max_prefix_len

    def prepare_batch(self, reviews, queries):
        reviews = [tuple(r) for r in reviews]
        if self.poison in reviews:
            raise RuntimeError("poisoned record")
        return {"inner": self.inner.prepare_batch(reviews, queries),
                "nan": np.array([r == self.nan for r in reviews])}

    def start(self, ctx):
        return np.arange(len(ctx["nan"])), self.inner.start(ctx["inner"])

    def advance(self, ctx, state, parents, tokens):
        records, inner = state
        records = records[np.asarray(parents, dtype=np.int64)]
        logits, inner = self.inner.advance(ctx["inner"], inner, parents, tokens)
        logits = np.where(ctx["nan"][records][:, None], np.nan, logits)
        return logits, (records, inner)


def _log_softmax_masked(logits, banned):
    logits = np.asarray(logits, dtype=np.float64).copy()
    for tok in banned:
        logits[tok] = -np.inf
    m = logits.max()
    return logits - (m + np.log(np.exp(logits - m).sum()))


def _surface(ids):
    core = list(ids[1:])
    if core and core[-1] == EOS:
        core = core[:-1]
    return tuple(core)


def _key(entry, alpha):
    ids, score = entry
    surf = _surface(ids)
    norm = score if alpha == 0.0 else score / (max(1, len(surf)) ** alpha)
    return (-norm, len(surf), surf)


def exhaustive_search(model, review_ids, query_ids, max_len, alpha=0.0, banned=(UNK,)):
    """Every finished sequence reachable under the decoding conventions, ranked."""
    ctx = model.prepare(review_ids, query_ids)
    finished = []

    def walk(ids, score):
        log_probs = _log_softmax_masked(model.step_logits(ctx, ids), banned)
        for tok, lp in enumerate(log_probs):
            if lp == -np.inf:
                continue
            n_ids = ids + (tok,)
            n_score = score + float(lp)
            if tok == EOS or len(n_ids) - 1 >= max_len:
                finished.append((n_ids, n_score))
            else:
                walk(n_ids, n_score)

    walk((BOS,), 0.0)
    finished.sort(key=lambda e: _key(e, alpha))
    return finished


def reference_beam_search(model, review_ids, query_ids, config):
    """Expand every live prefix over the whole vocabulary and sort every candidate."""
    ctx = model.prepare(review_ids, query_ids)
    live = [Hypothesis(ids=(BOS,), log_prob=0.0, finished=False)]
    pool = []
    while live:
        candidates = []
        for hyp in live:
            log_probs = _log_softmax_masked(model.step_logits(ctx, hyp.ids), config.ban_tokens)
            for tok, lp in enumerate(log_probs):
                if lp == -np.inf:
                    continue
                ids = hyp.ids + (int(tok),)
                done = tok == EOS or len(ids) - 1 >= config.max_len
                candidates.append(Hypothesis(ids, hyp.log_prob + float(lp), done))
        candidates.sort(key=lambda h: rank_key(h, config.alpha))
        live = []
        for hyp in candidates[: config.width]:
            (pool if hyp.finished else live).append(hyp)
    return sorted(pool, key=lambda h: rank_key(h, config.alpha))
