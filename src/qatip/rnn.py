"""BiLSTM tip generator with selective gating and query-aware attention.

Encoder: one bidirectional LSTM over the review (and one over the query when
a variant needs it).  Per-step states H_t = [fwd_t; bwd_t] are 2d wide; the
sequence summary is [fwd_last; bwd_first].  PAD steps carry exactly zero
states.  Each direction is one ``T.lstm_scan`` tape node.

Variants:
  vanilla: no gate, no query term in attention; the query encoder is not
           even allocated, so query invariance is structural
  qa_enc:  selective gate g_t = sigmoid(W_r [H_t; h_r] + W_q h_q + b_g),
           H~_t = g_t * H_t
  qa_dec:  attention scores get the extra W_q h_q term
  both:    gate and attention term together

Decoder: unidirectional LSTM (hidden 2d) over [prev embedding; context],
attention recomputed each step from the previous state; logits are
W_v . state.  Under teacher forcing (training, scoring) every step is one
``T.decoder_scan`` tape node.  Beam search computes the review half of the
attention once per record (``prepare_batch``), adds only the state's term
each step and runs the scan's own step, ``T.decoder_step``, on arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .attention import length_mask, nonempty
from .config import check_model_config
from .seq2seq import Seq2Seq
from .tensor import ParamStore, Tensor


@dataclass
class RnnConfig:
    vocab_size: int
    emb_dim: int = 128
    hidden_dim: int = 256  # per direction; encoder states and decoder are 2x this
    variant: str = "both"
    dropout: float = 0.0

    def __post_init__(self):
        check_model_config(self)

    @classmethod
    def from_run(cls, run, vocab_size: int) -> "RnnConfig":
        return cls(vocab_size=vocab_size, emb_dim=run.emb_dim, hidden_dim=run.hidden_dim,
                   variant=run.variant, dropout=run.dropout)


class LstmCell:
    """Packed-gate LSTM weights; gate order i, f, g, o with forget bias +1.

    ``T.lstm_scan`` runs an encoder direction's cell, ``T.decoder_step`` the
    decoder's, under teacher forcing through ``T.decoder_scan``.
    """

    def __init__(self, store: ParamStore, prefix: str, in_dim: int, hidden: int):
        self.w_x = store.glorot(f"{prefix}.w_x", (in_dim, 4 * hidden))
        self.w_h = store.glorot(f"{prefix}.w_h", (hidden, 4 * hidden))
        self.b = store.lstm_bias(f"{prefix}.b", hidden)


def _summary(h_seq: Tensor, lengths: np.ndarray) -> Tensor:
    """[fwd half at the last real step; bwd half at step 0] of states (B, N, 2d)."""
    b, n, width = h_seq.shape
    select = np.zeros((b, 1, n), dtype=h_seq.dtype)  # one-hot time selector
    select[np.arange(b), 0, lengths - 1] = 1.0
    at_last = T.reshape(T.matmul(Tensor(select), h_seq), (b, width))
    at_first = T.reshape(T.slice_axis(h_seq, 1, 0, 1), (b, width))
    return T.concat([T.slice_axis(at_last, -1, 0, width // 2),
                     T.slice_axis(at_first, -1, width // 2, width)])


def bilstm_encode(fwd: LstmCell, bwd: LstmCell, emb: Tensor, lengths):
    """(H, summary): per-step [fwd_t; bwd_t] plus [fwd_last; bwd_first]."""
    lengths = np.asarray(lengths, dtype=np.int64)
    if (lengths < 1).any():
        raise ValueError("zero-length sequence in bilstm_encode")
    n = emb.shape[1]
    if lengths.max() > n:
        raise ValueError("length exceeds sequence width")
    mask = length_mask(lengths, n)
    h_seq = T.concat([T.lstm_scan(emb, fwd.w_x, fwd.w_h, fwd.b, mask),
                      T.lstm_scan(emb, bwd.w_x, bwd.w_h, bwd.b, mask, reverse=True)])
    return h_seq, _summary(h_seq, lengths)


def selective_gate(h_seq: Tensor, h_r: Tensor, h_q: Tensor,
                   w_r: Tensor, w_q_gate: Tensor, b_g: Tensor):
    """g_t = sigmoid(W_r [H_t; h_r] + W_q h_q + b_g); returns (g * H, g)."""
    b, n, width = h_seq.shape
    h_r_rows = T.broadcast_to(T.reshape(h_r, (b, 1, width)), (b, n, width))
    stacked = T.concat([h_seq, h_r_rows])
    pre = T.matmul(stacked, T.transpose(w_r))
    query_term = T.reshape(T.matmul(h_q, T.transpose(w_q_gate)), (b, 1, width))
    gate = T.sigmoid(T.add(T.add(pre, query_term), b_g))
    return T.mul(gate, h_seq), gate


class QaRnnModel(Seq2Seq):
    family = "rnn"
    Config = RnnConfig

    def __init__(self, config: RnnConfig, seed: int = 0, dtype=np.float32):
        super().__init__(config, seed, dtype)
        store = self.params
        cfg = config
        d, e = cfg.hidden_dim, cfg.emb_dim
        width = 2 * d  # encoder state / decoder hidden / attention dim

        self.emb = store.glorot("emb", (cfg.vocab_size, e))
        self.review_fwd = LstmCell(store, "review.fwd", e, d)
        self.review_bwd = LstmCell(store, "review.bwd", e, d)

        self._use_gate = cfg.variant in ("qa_enc", "both")
        self._use_query_attn = cfg.variant in ("qa_dec", "both")
        if cfg.variant != "vanilla":
            self.query_fwd = LstmCell(store, "query.fwd", e, d)
            self.query_bwd = LstmCell(store, "query.bwd", e, d)
        if self._use_gate:
            self.w_r = store.glorot("gate.w_r", (width, 2 * width))
            self.w_q_gate = store.glorot("gate.w_q", (width, width))
            self.b_g = store.zeros("gate.b", (width,))
        self.w_c = store.glorot("attn.w_c", (width, 2 * width))
        if self._use_query_attn:
            self.w_q_attn = store.glorot("attn.w_q", (width, width))
        self.b_c = store.zeros("attn.b_c", (width,))
        self.v = store.glorot("attn.v", (width, 1))  # used as a vector
        self.w_init = store.glorot("dec.w_init", (width, width))
        self.b_init = store.zeros("dec.b_init", (width,))
        self.decoder = LstmCell(store, "dec.cell", e + width, width)
        self.w_v = store.glorot("w_v", (cfg.vocab_size, width))

    # ----- encoder side

    def _embed(self, ids: np.ndarray, train: bool) -> Tensor:
        return self._dropout(T.embedding_lookup(self.emb, np.asarray(ids, dtype=np.int64)), train)

    def encode(self, review_ids, review_lengths, query_ids, query_lengths, train: bool = False) -> dict:
        """Decoding context: H~ (B,N,2d), its mask, h_q or None, decoder start state s0."""
        review_lengths = np.asarray(review_lengths, dtype=np.int64)
        h_seq, h_r = bilstm_encode(self.review_fwd, self.review_bwd,
                                   self._embed(review_ids, train), review_lengths)
        h_q = None
        if self.config.variant != "vanilla":
            q_ids, q_len = nonempty(query_ids, query_lengths)
            _, h_q = bilstm_encode(self.query_fwd, self.query_bwd,
                                   self._embed(q_ids, train), q_len)
        if self._use_gate:
            h_tilde, _ = selective_gate(h_seq, h_r, h_q, self.w_r, self.w_q_gate, self.b_g)
        else:
            h_tilde = h_seq

        n = h_tilde.shape[1]
        # decoder start: affine+tanh of the gated summary [fwd_last; bwd_first]
        s0 = T.tanh(T.add(T.matmul(_summary(h_tilde, review_lengths), self.w_init), self.b_init))
        return {"h_tilde": h_tilde, "mask": length_mask(review_lengths, n), "h_q": h_q, "s0": s0}

    # ----- decoder side

    def decode_logits(self, ctx: dict, tip_input, train: bool = False) -> Tensor:
        q = self._use_query_attn
        return T.decoder_scan(self._embed(tip_input, train), ctx["h_tilde"], ctx["mask"], ctx["s0"],
                              self.w_c, self.b_c, self.v, self.decoder.w_x, self.decoder.w_h, self.decoder.b,
                              self.w_v, h_q=ctx["h_q"] if q else None, w_q=self.w_q_attn if q else None)

    # ----- decoding protocol

    def prepare_batch(self, reviews, queries) -> dict:
        """The decoding context plus ``review_term``, H~ W_c[:, :2d]^T + b_c (+ W_q h_q):
        the part of the attention pre-activation c that no decoder step changes."""
        ctx = super().prepare_batch(reviews, queries)
        h_tilde = ctx["h_tilde"].data
        b, _, width = h_tilde.shape
        term = h_tilde @ np.swapaxes(self.w_c.data[:, :width], -2, -1) + self.b_c.data
        if self._use_query_attn:
            term = term + (ctx["h_q"].data @ np.swapaxes(self.w_q_attn.data, -2, -1)).reshape(b, 1, width)
        return {**ctx, "review_term": term}

    def _start(self, ctx: dict) -> list:
        """Decoder state before the first token: the start state s0 and a zero cell."""
        return [ctx["s0"], Tensor(np.zeros_like(ctx["s0"].data))]

    def _step(self, ctx: dict, records: np.ndarray, rows: list, tokens: np.ndarray):
        """``T.decoder_step`` on arrays; attention adds only the state's term s W_c[:, 2d:]^T
        to each record's ``review_term``."""
        s, c = (t.data for t in rows)
        r, width = s.shape
        state_term = s @ np.swapaxes(self.w_c.data[:, width:], -2, -1)
        cell = self.decoder
        s, c, *_ = T.decoder_step(ctx["review_term"][records] + state_term.reshape(r, 1, width),
                                  ctx["h_tilde"].data[records], ctx["mask"][records, None, :], self.v.data,
                                  self.emb.data[tokens].reshape(r, -1), s, c, cell.w_x.data, cell.w_h.data, cell.b.data)
        return Tensor(s @ np.swapaxes(self.w_v.data, -2, -1)), [Tensor(s), Tensor(c)]
