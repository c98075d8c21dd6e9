"""Transformer tip generator with query-aware encoder/decoder variants.

The review stream is always contextualized by one self-attention block
(H_r).  A review-aligned query summary (H_q) is produced by one query block,
in which review positions attend over query tokens; it feeds both fusions.
Variants wire the two together:

  vanilla: stack over H_r, decoder reads the stack output; query unused
  qa_enc:  stack over [H_q; H_r] W_enc
  qa_dec:  stack over H_r, decoder cross-attends to [H_q; memory] W_dec
  both:    both fusions active

Decoding positions see a causal self-attention mask; PAD positions are
masked out of every attention softmax, so padding never shifts a logit.
The output layer is tied to the token embedding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .attention import (
    attend,
    causal_mask,
    init_multi_head,
    length_mask,
    multi_head,
    nonempty,
    project_kv,
    sinusoidal_positions,
)
from .config import check_model_config
from .seq2seq import Seq2Seq
from .tensor import ParamStore, Tensor


@dataclass
class TransformerConfig:
    vocab_size: int
    model_dim: int = 512
    num_heads: int = 8
    num_layers: int = 6
    ffn_dim: int = 0  # 0 selects the 4*model_dim convention
    dropout: float = 0.1
    variant: str = "both"
    max_len: int = 512

    def __post_init__(self):
        if self.ffn_dim == 0:
            self.ffn_dim = 4 * self.model_dim
        check_model_config(self)
        if self.ffn_dim < self.model_dim:
            raise ValueError("ffn_dim must be >= model_dim")
        if self.model_dim % self.num_heads:
            raise ValueError(f"model_dim {self.model_dim} not divisible by num_heads {self.num_heads}")

    @classmethod
    def from_run(cls, run, vocab_size: int) -> "TransformerConfig":
        return cls(
            vocab_size=vocab_size, model_dim=run.model_dim, num_heads=run.num_heads,
            num_layers=run.num_layers, ffn_dim=run.ffn_dim, dropout=run.dropout,
            variant=run.variant,
            # the position table covers BOS/EOS plus the longest sequence the run encodes
            max_len=2 + max(run.review_max_len, run.query_max_len, run.tip_max_len),
        )


def fuse(h_a: Tensor, h_b: Tensor, w: Tensor) -> Tensor:
    """[h_a; h_b] W : feature-wise concat then projection back to d."""
    if h_a.shape[:-1] != h_b.shape[:-1]:
        raise ValueError(f"fuse row mismatch: {h_a.shape} vs {h_b.shape}")
    return T.linear(T.concat([h_a, h_b]), w)


class _Block:
    """One attention + feed-forward post-norm block."""

    def __init__(self, store: ParamStore, prefix: str, cfg: "TransformerConfig"):
        d, f = cfg.model_dim, cfg.ffn_dim
        self.mh = init_multi_head(store, f"{prefix}.attn", d, cfg.num_heads)
        self.ln1_g = store.ones(f"{prefix}.ln1.gain", (d,))
        self.ln1_b = store.zeros(f"{prefix}.ln1.bias", (d,))
        self.w1 = store.glorot(f"{prefix}.ffn.w1", (d, f))
        self.b1 = store.zeros(f"{prefix}.ffn.b1", (f,))
        self.w2 = store.glorot(f"{prefix}.ffn.w2", (f, d))
        self.b2 = store.zeros(f"{prefix}.ffn.b2", (d,))
        self.ln2_g = store.ones(f"{prefix}.ln2.gain", (d,))
        self.ln2_b = store.zeros(f"{prefix}.ln2.bias", (d,))


class _DecoderLayer(_Block):
    def __init__(self, store: ParamStore, prefix: str, cfg: "TransformerConfig"):
        super().__init__(store, prefix, cfg)
        d = cfg.model_dim
        self.cross = init_multi_head(store, f"{prefix}.cross", d, cfg.num_heads)
        self.ln3_g = store.ones(f"{prefix}.ln3.gain", (d,))
        self.ln3_b = store.zeros(f"{prefix}.ln3.bias", (d,))


class QaTransformerModel(Seq2Seq):
    family = "transformer"
    Config = TransformerConfig

    def __init__(self, config: TransformerConfig, seed: int = 0, dtype=np.float32):
        super().__init__(config, seed, dtype)
        store = self.params
        cfg = config
        d = cfg.model_dim

        self.emb = store.glorot("emb", (cfg.vocab_size, d))
        self.pe = Tensor(sinusoidal_positions(cfg.max_len, d, dtype=self.dtype))

        self.query_block = _Block(store, "qblock.0", cfg) if cfg.variant != "vanilla" else None

        self.review_block = _Block(store, "review_block", cfg)
        self.enc_layers = [_Block(store, f"enc.{i}", cfg) for i in range(cfg.num_layers)]
        self.dec_layers = [_DecoderLayer(store, f"dec.{i}", cfg) for i in range(cfg.num_layers)]

        self.w_enc = store.glorot("fuse.w_enc", (2 * d, d)) if cfg.variant in ("qa_enc", "both") else None
        self.w_dec = store.glorot("fuse.w_dec", (2 * d, d)) if cfg.variant in ("qa_dec", "both") else None

    # ----- building blocks

    def _embed(self, ids: np.ndarray, train: bool, offset: int = 0) -> Tensor:
        """Scaled embeddings plus the position rows ``offset .. offset + width``."""
        n = offset + ids.shape[1]
        if n > self.config.max_len:
            raise ValueError(f"sequence length {n} exceeds position table {self.config.max_len}")
        scaled = T.scale(T.embedding_lookup(self.emb, ids), np.sqrt(self.config.model_dim))
        x = T.add(scaled, T.slice_axis(self.pe, 0, offset, n))
        return self._dropout(x, train)

    def _sublayer(self, x: Tensor, out: Tensor, gain: Tensor, bias: Tensor, train: bool) -> Tensor:
        return T.layer_norm(T.add(x, self._dropout(out, train)), gain, bias)

    def _ffn(self, blk: _Block, x: Tensor) -> Tensor:
        hidden = T.relu(T.linear(x, blk.w1, blk.b1))
        return T.linear(hidden, blk.w2, blk.b2)

    def _run_block(self, blk: _Block, x: Tensor, kv: Tensor, mask, train: bool) -> Tensor:
        attn, _ = multi_head(blk.mh, x, kv, kv, mask=mask)
        x = self._sublayer(x, attn, blk.ln1_g, blk.ln1_b, train)
        return self._sublayer(x, self._ffn(blk, x), blk.ln2_g, blk.ln2_b, train)

    # ----- encoder side

    def encode(self, review_ids, review_lengths, query_ids, query_lengths, train: bool = False) -> dict:
        """Decoding context: each decoder layer's projected cross-attention (K, V) and the ``review_mask``."""
        cfg = self.config
        review_ids = np.asarray(review_ids, dtype=np.int64)
        review_mask = length_mask(review_lengths, review_ids.shape[1])
        if not review_mask.any(axis=1).all():
            raise ValueError("empty review in batch")

        e_r = self._embed(review_ids, train)
        h_r = self._run_block(self.review_block, e_r, e_r, review_mask[:, None, :], train)

        h_q = None
        if self.query_block is not None:
            # review-aligned query summary: every review row attends over the real query tokens
            q_ids, q_len = nonempty(query_ids, query_lengths)
            q_mask = length_mask(q_len, q_ids.shape[1])
            h_q = self._run_block(self.query_block, e_r, self._embed(q_ids, train), q_mask[:, None, :], train)

        if cfg.variant in ("qa_enc", "both"):
            memory = fuse(h_q, h_r, self.w_enc)
        else:
            memory = h_r
        for blk in self.enc_layers:
            memory = self._run_block(blk, memory, memory, review_mask[:, None, :], train)

        if cfg.variant in ("qa_dec", "both"):
            memory = fuse(h_q, memory, self.w_dec)
        cross = [project_kv(blk.cross, memory, memory) for blk in self.dec_layers]
        return {"cross": cross, "review_mask": review_mask}

    # ----- decoder side

    def _decoder_layer(self, blk: _DecoderLayer, x: Tensor, self_kv: tuple, self_mask,
                       cross_kv: tuple, review_mask: np.ndarray, train: bool) -> Tensor:
        """Rows ``x`` self-attend over ``self_kv``, cross-attend over ``cross_kv``, then the FFN."""
        attn, _ = attend(blk.mh, x, *self_kv, mask=self_mask)
        x = self._sublayer(x, attn, blk.ln1_g, blk.ln1_b, train)
        cross, _ = attend(blk.cross, x, *cross_kv, mask=review_mask[:, None, :])
        x = self._sublayer(x, cross, blk.ln3_g, blk.ln3_b, train)
        return self._sublayer(x, self._ffn(blk, x), blk.ln2_g, blk.ln2_b, train)

    def _output_logits(self, x: Tensor) -> Tensor:
        return T.linear(x, T.transpose(self.emb))

    def decode_logits(self, ctx: dict, tip_input, train: bool = False) -> Tensor:
        tip_input = np.asarray(tip_input, dtype=np.int64)
        x = self._embed(tip_input, train)
        self_mask = causal_mask(tip_input.shape[1])[None]
        for blk, cross_kv in zip(self.dec_layers, ctx["cross"]):
            x = self._decoder_layer(blk, x, project_kv(blk.mh, x, x), self_mask, cross_kv,
                                    ctx["review_mask"], train)
        return self._output_logits(x)

    # ----- decoding protocol

    @property
    def max_prefix_len(self) -> int:
        """Longest BOS-prefixed tip the position table can decode from."""
        return self.config.max_len

    def _start(self, ctx: dict) -> list:
        """Decoder state before the first token: no positions cached in any layer."""
        cfg = self.config
        b = ctx["review_mask"].shape[0]
        empty = Tensor(np.zeros((b, cfg.num_heads, 0, cfg.model_dim // cfg.num_heads), dtype=self.dtype))
        return [empty] * (2 * len(self.dec_layers))

    def _step(self, ctx: dict, records: np.ndarray, rows: list, tokens: np.ndarray):
        """Logits (R, 1, V) of each row's next position and the grown per-layer state.

        The state holds each decoder layer's projected self-attention keys
        and values (R, h, t, d/h) for the t positions seen.  Decoding is
        causal, so those rows never change: only the new position is
        projected and run through the layers, attending over the cached
        rows plus itself.
        """
        x = self._embed(tokens, train=False, offset=rows[0].shape[2])
        review_mask = ctx["review_mask"][records]
        cached = []
        for i, (blk, memory) in enumerate(zip(self.dec_layers, ctx["cross"])):
            k_new, v_new = project_kv(blk.mh, x, x)
            self_kv = (T.concat([rows[2 * i], k_new], axis=2), T.concat([rows[2 * i + 1], v_new], axis=2))
            cached.extend(self_kv)
            cross_kv = [Tensor(t.data[records]) for t in memory]
            x = self._decoder_layer(blk, x, self_kv, None, cross_kv, review_mask, train=False)
        return self._output_logits(x), cached
