"""Output checks computed apart from the code they check.

* ``rescore`` recomputes a decoded tip's log-probability by teacher forcing
  through ``model.forward`` (one batched pass over the whole tip) instead of
  the per-prefix ``step_logits`` path that beam search uses.
* ``reference_beam`` is a beam search written from the rules in the
  docstring of ``qatip.generation``; it also scores through ``model.forward``.
* ``gradient_check`` compares the tape's gradient of one batch with a
  central finite difference along a seeded direction, on a float64 twin.
* ``same_parameters`` compares two models' parameters bit for bit.

The two decoding paths run the same float32 model with differently shaped
products, so their scores agree only to float32 rounding: ``score_tol``.
"""

from __future__ import annotations

import numpy as np

from qatip.corpus import BOS_ID, EOS_ID, PAD_ID, UNK_ID, Batch
from qatip.tensor import backward, no_grad

# float32 carries 24 bits; each per-step log-probability may differ by up
# to sixteen units of 2**-24 times the largest logit.
_F32_STEP = 2.0 ** -20


def score_tol(n_terms: int, logit_scale: float) -> float:
    """Largest gap between two float32 evaluations of one tip's score."""
    return _F32_STEP * max(1, n_terms) * max(1.0, logit_scale)


def _log_softmax(logits: np.ndarray, ban=(UNK_ID,)) -> np.ndarray:
    x = np.asarray(logits, dtype=np.float64).copy()
    x[..., list(ban)] = -np.inf
    mx = x.max(axis=-1, keepdims=True)
    return x - (mx + np.log(np.exp(x - mx).sum(axis=-1, keepdims=True)))


def _logits(model, review_ids, query_ids, prefixes) -> np.ndarray:
    """Teacher-forced logits (n, len, V) for n equal-length prefixes of one record."""
    n = len(prefixes)
    review = np.tile(np.asarray(review_ids, dtype=np.int64)[None], (n, 1))
    query = np.tile(np.asarray(query_ids, dtype=np.int64).reshape(1, -1), (n, 1))
    tip = np.asarray(prefixes, dtype=np.int64).reshape(n, -1)
    batch = Batch(
        review=review, review_lengths=np.full(n, review.shape[1]),
        query=query, query_lengths=np.full(n, query.shape[1]),
        tip_input=tip, tip_target=np.full_like(tip, PAD_ID),
        tip_lengths=np.full(n, tip.shape[1]),
    )
    with no_grad():
        return model.forward(batch, train=False).data


def rescore(model, review_ids, query_ids, surface, max_len: int, ban=(UNK_ID,)):
    """(log-probability, tolerance) of ``surface`` under teacher forcing.

    The EOS term counts only when the tip stopped before ``max_len``.
    """
    surface = tuple(int(t) for t in surface)
    logits = _logits(model, review_ids, query_ids, [(BOS_ID,) + surface])[0]
    logp = _log_softmax(logits, ban)
    targets = list(surface) + ([EOS_ID] if len(surface) < max_len else [])
    total = float(sum(logp[t, tok] for t, tok in enumerate(targets)))
    return total, score_tol(len(targets), float(np.abs(logits).max()))


def _rank_key(ids, score, alpha):
    surface = ids[1:-1] if ids[-1] == EOS_ID else ids[1:]
    return (-score / (max(1, len(surface)) ** alpha), len(surface), surface)


def reference_beam(model, review_ids, query_ids, max_len: int, width: int,
                   alpha: float = 0.0, ban=(UNK_ID,)):
    """Best (surface ids, score) by the rules in ``qatip.generation``.

    Each live hypothesis is expanded over every token not banned; choosing
    EOS or reaching ``max_len`` surface tokens finishes it.  The ``width``
    best candidates survive, ranked by score / max(1, len)^alpha, then the
    shorter surface, then the lexicographically smaller one.  Only the
    ``width`` best non-EOS tokens of a row (with ties) and its EOS can make
    the cut, since a row's non-EOS candidates share one length.
    """
    live = [((BOS_ID,), 0.0)]
    pool = []
    while live:
        logp = _log_softmax(_logits(model, review_ids, query_ids, [ids for ids, _ in live])[:, -1], ban)
        cands = []
        for (ids, score), row in zip(live, logp):
            if np.isfinite(row[EOS_ID]):
                cands.append((ids + (EOS_ID,), score + float(row[EOS_ID]), True))
            rest = row.copy()
            rest[EOS_ID] = -np.inf
            k = min(width, int(np.isfinite(rest).sum()))
            if k == 0:
                continue
            cut = np.partition(rest, -k)[-k]
            for tok in np.nonzero(rest >= cut)[0]:
                new = ids + (int(tok),)
                cands.append((new, score + float(rest[tok]), len(new) - 1 >= max_len))
        cands.sort(key=lambda c: _rank_key(c[0], c[1], alpha))
        live = []
        for ids, score, done in cands[:width]:
            (pool if done else live).append((ids, score))
    ids, score = min(pool, key=lambda c: _rank_key(c[0], c[1], alpha))
    surface = ids[1:-1] if ids[-1] == EOS_ID else ids[1:]
    return surface, score


def float64_twin(model):
    """A float64 copy of ``model`` with the same parameter values."""
    twin = type(model)(model.config, dtype=np.float64)
    for p in model.params.parameters():
        twin.params[p.name].data = p.tensor.data.astype(np.float64)
    return twin


def gradient_check(model, batch, seed: int, steps=(1e-5, 1e-6), grads=None):
    """Relative gap between the tape's and a finite-difference directional derivative.

    ``model`` should be float64.  The direction is a seeded unit vector over
    all parameters.  Dropout is off (``train=False``) so the loss is a fixed
    function.  A step that carries some ReLU input across zero spoils its
    difference quotient, and a smaller step rarely does too, so the smallest
    gap over ``steps`` counts.  ``grads`` (name -> array) replaces the tape's
    gradient, which lets a test feed the check a wrong one.
    """
    params = model.params.parameters()
    if grads is None:
        for p in params:
            p.tensor.grad = None
        backward(model.forward_loss(batch, train=False))
        grads = {p.name: p.tensor.grad for p in params}
    rng = np.random.default_rng(seed)
    dirs = [rng.standard_normal(p.tensor.data.shape) for p in params]
    norm = np.sqrt(sum(float((d * d).sum()) for d in dirs))
    dirs = [d / norm for d in dirs]
    analytic = sum(float((grads[p.name] * d).sum()) for p, d in zip(params, dirs)
                   if grads.get(p.name) is not None)
    base = [p.tensor.data for p in params]

    def loss_at(step):
        for p, b, d in zip(params, base, dirs):
            p.tensor.data = b + step * d
        with no_grad():
            return float(model.forward_loss(batch, train=False).data)

    gaps = []
    try:
        for eps in steps:
            numeric = (loss_at(eps) - loss_at(-eps)) / (2 * eps)
            gaps.append(abs(analytic - numeric) / max(1e-12, abs(analytic), abs(numeric)))
    finally:
        for p, b in zip(params, base):
            p.tensor.data = b
    return min(gaps)


def same_parameters(a, b) -> list[str]:
    """Names of parameters whose values or dtypes differ between two models."""
    pa = {p.name: p.tensor.data for p in a.params.parameters()}
    pb = {p.name: p.tensor.data for p in b.params.parameters()}
    if pa.keys() != pb.keys():
        return sorted(pa.keys() ^ pb.keys())
    return [n for n in pa if pa[n].dtype != pb[n].dtype or not np.array_equal(pa[n], pb[n])]
