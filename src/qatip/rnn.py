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
W_v . state.  Beam search computes the review half of the attention once
per record (``prepare_batch``) and adds only the state's term each step.
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
    """Packed-gate LSTM cell; gate order i, f, g, o with forget bias +1.

    ``step`` runs the decoder; the encoder runs each direction's weights
    through one ``T.lstm_scan``, which repeats ``step``'s arithmetic.
    """

    def __init__(self, store: ParamStore, prefix: str, in_dim: int, hidden: int):
        self.w_x = store.glorot(f"{prefix}.w_x", (in_dim, 4 * hidden))
        self.w_h = store.glorot(f"{prefix}.w_h", (hidden, 4 * hidden))
        self.b = store.lstm_bias(f"{prefix}.b", hidden)
        self.hidden = hidden

    def step(self, x: Tensor, h: Tensor, c: Tensor):
        d = self.hidden
        pre = T.add(T.add(T.matmul(x, self.w_x), T.matmul(h, self.w_h)), self.b)
        i = T.sigmoid(T.slice_axis(pre, -1, 0, d))
        f = T.sigmoid(T.slice_axis(pre, -1, d, 2 * d))
        g = T.tanh(T.slice_axis(pre, -1, 2 * d, 3 * d))
        o = T.sigmoid(T.slice_axis(pre, -1, 3 * d, 4 * d))
        c_new = T.add(T.mul(f, c), T.mul(i, g))
        h_new = T.mul(o, T.tanh(c_new))
        return h_new, c_new


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


def qa_attention(h_tilde: Tensor, state: Tensor, h_q: Tensor | None,
                 w_c: Tensor, w_q_attn: Tensor | None, b_c: Tensor, v: Tensor,
                 mask: np.ndarray):
    """Additive attention over review states, optionally query-conditioned.

    c_i = W_c [H~_i; s_t] (+ W_q h_q) + b_c; a = softmax(v^T tanh(c));
    returns (context (B, 2d), weights (B, N)).
    """
    b, n, width = h_tilde.shape
    d_a = v.shape[0]
    state_rows = T.broadcast_to(T.reshape(state, (b, 1, width)), (b, n, width))
    c = T.add(T.matmul(T.concat([h_tilde, state_rows]), T.transpose(w_c)), b_c)
    if h_q is not None:
        c = T.add(c, T.reshape(T.matmul(h_q, T.transpose(w_q_attn)), (b, 1, d_a)))
    return attend_review(h_tilde, c, v, mask)


def attend_review(h_tilde: Tensor, c: Tensor, v: Tensor, mask: np.ndarray):
    """a = softmax(v^T tanh(c)) over the review positions of pre-activations c (B, N, d_a)."""
    b, n, width = h_tilde.shape
    d_a = v.shape[0]
    scores = T.transpose(T.matmul(T.tanh(c), T.reshape(v, (d_a, 1))), 1, 2)  # (B, 1, N)
    weights = T.softmax_rows(scores, mask=mask[:, None, :])
    context = T.reshape(T.matmul(weights, h_tilde), (b, width))
    return context, T.reshape(weights, (b, n))


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
        """Decoding context: H~ (B,N,2d), its mask, h_q or None, decoder start s0, c0."""
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

        b, n, width = h_tilde.shape
        # decoder start: affine+tanh of the gated summary [fwd_last; bwd_first]
        s0 = T.tanh(T.add(T.matmul(_summary(h_tilde, review_lengths), self.w_init), self.b_init))
        c0 = Tensor(np.zeros((b, width), dtype=self.dtype))
        return {"h_tilde": h_tilde, "mask": length_mask(review_lengths, n), "h_q": h_q, "s0": s0, "c0": c0}

    # ----- decoder side

    def _decoder_step(self, emb_t: Tensor, context: Tensor, s: Tensor, c: Tensor):
        """Feed one embedded token (B, e) and its attention context; returns (logits (B, V), s, c)."""
        s, c = self.decoder.step(T.concat([emb_t, context]), s, c)
        return T.matmul(s, T.transpose(self.w_v)), s, c

    def decode_logits(self, ctx: dict, tip_input, train: bool = False) -> Tensor:
        emb = self._embed(tip_input, train)
        b, m, e = emb.shape
        h_tilde, mask = ctx["h_tilde"], ctx["mask"]
        h_q = ctx["h_q"] if self._use_query_attn else None
        w_q = self.w_q_attn if self._use_query_attn else None
        s, c = ctx["s0"], ctx["c0"]
        rows = []
        for t in range(m):
            # a reshape per step, not one shared node: a shared node would sum v's gradient in
            # another order and move the float32 training trajectory
            v = T.reshape(self.v, (self.v.shape[0],))
            context, _ = qa_attention(h_tilde, s, h_q, self.w_c, w_q, self.b_c, v, mask)
            logits_t, s, c = self._decoder_step(T.reshape(T.slice_axis(emb, 1, t, t + 1), (b, e)), context, s, c)
            rows.append(T.reshape(logits_t, (b, 1, self.config.vocab_size)))
        return T.concat(rows, axis=1)

    # ----- decoding protocol

    def prepare_batch(self, reviews, queries) -> dict:
        """The decoding context plus ``review_term``, H~ W_c[:, :2d]^T + b_c (+ W_q h_q):
        the part of the attention pre-activation c that no decoder step changes."""
        ctx = super().prepare_batch(reviews, queries)
        h_tilde = ctx["h_tilde"]
        b, _, width = h_tilde.shape
        with T.no_grad():
            term = T.add(T.matmul(h_tilde, T.transpose(T.slice_axis(self.w_c, -1, 0, width))), self.b_c)
            if self._use_query_attn:
                term = T.add(term, T.reshape(T.matmul(ctx["h_q"], T.transpose(self.w_q_attn)), (b, 1, width)))
        return {**ctx, "review_term": term}

    def _start(self, ctx: dict) -> list:
        """Decoder state before the first token: the start state [s0, c0]."""
        return [ctx["s0"], ctx["c0"]]

    def _step(self, ctx: dict, records: np.ndarray, rows: list, tokens: np.ndarray):
        """Attention adds only the state's term s W_c[:, 2d:]^T to each record's ``review_term``."""
        s, c = rows
        r, width = s.shape
        state_term = T.matmul(s, T.transpose(T.slice_axis(self.w_c, -1, width, 2 * width)))
        pre = T.add(Tensor(ctx["review_term"].data[records]), T.reshape(state_term, (r, 1, width)))
        context, _ = attend_review(Tensor(ctx["h_tilde"].data[records]), pre,
                                   T.reshape(self.v, (self.v.shape[0],)), ctx["mask"][records])
        emb_t = T.reshape(self._embed(tokens, False), (r, self.config.emb_dim))
        logits, s, c = self._decoder_step(emb_t, context, s, c)
        return logits, [s, c]
