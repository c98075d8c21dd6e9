"""The encode/decode skeleton both model families share.

A family sets ``family`` and ``Config`` and defines ``encode(review,
review_lengths, query, query_lengths, train)``, which returns the decoding
context dict, and ``decode_logits(ctx, tip_input, train)``, which reads it
with teacher forcing and returns logits (B, M, V).  Training, scoring and
prefix decoding are written once here on top of those two methods, and
beam search's ``start``/``advance`` on the family's ``_start(ctx)``, a list
of state tensors with one row per record of the context, and
``_step(ctx, records, rows, tokens)``, where ``records`` names the context
record each of the state ``rows`` decodes.
"""

from __future__ import annotations

from dataclasses import asdict

import numpy as np

from . import tensor as T
from .attention import length_mask
from .corpus import pad_matrix
from .tensor import ParamStore, Tensor


class Seq2Seq:
    max_prefix_len = None  # no position table bounds the decoded length

    def __init__(self, config, seed: int = 0, dtype=np.float32):
        self.config = config
        self.dtype = np.dtype(dtype)
        self.params = ParamStore(np.random.default_rng(seed), dtype=dtype)
        self._drop_rng = np.random.default_rng(seed + 1)

    def config_dict(self) -> dict:
        return {**asdict(self.config), "family": self.family}

    def _dropout(self, x: Tensor, train: bool) -> Tensor:
        if train and self.config.dropout > 0.0:
            return T.dropout(x, self.config.dropout, rng=self._drop_rng)
        return x

    def forward(self, batch, train: bool = False) -> Tensor:
        ctx = self.encode(batch.review, batch.review_lengths, batch.query, batch.query_lengths, train)
        return self.decode_logits(ctx, batch.tip_input, train)

    def forward_loss(self, batch, train: bool = True) -> Tensor:
        logits = self.forward(batch, train=train)
        mask = length_mask(batch.tip_lengths, batch.tip_target.shape[1])
        return T.nll_loss(logits, batch.tip_target, pad_mask=mask)

    # ----- decoding protocol

    def prepare_batch(self, reviews, queries) -> dict:
        """Decoding context of several records, padded to one batch."""
        review, review_lengths = pad_matrix(reviews)
        query, query_lengths = pad_matrix(queries)
        with T.no_grad():
            return self.encode(review, review_lengths, query, query_lengths)

    def prepare(self, review_ids, query_ids) -> dict:
        return self.prepare_batch([review_ids], [query_ids])

    def step_logits(self, ctx: dict, prefix_ids) -> np.ndarray:
        with T.no_grad():
            logits = self.decode_logits(ctx, np.asarray([list(prefix_ids)], dtype=np.int64))
        return logits.data[0, -1].astype(np.float64)

    def start(self, ctx: dict) -> list:
        """One state row per context record: the record indices, then the family's tensors."""
        rows = self._start(ctx)
        return [np.arange(rows[0].shape[0]), *rows]

    def advance(self, ctx: dict, state: list, parents, tokens):
        """Next-token logits (R, V) after feeding ``tokens`` to the state rows ``parents``."""
        parents = np.asarray(parents, dtype=np.int64)
        tokens = np.asarray(tokens, dtype=np.int64).reshape(-1, 1)
        records, *rows = state
        records = records[parents]
        with T.no_grad():
            logits, rows = self._step(ctx, records, [Tensor(x.data[parents]) for x in rows], tokens)
        return logits.data.reshape(len(parents), -1).astype(np.float64), [records, *rows]
