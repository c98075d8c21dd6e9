"""The four workloads: what each sets up, runs in one timed round, and checks.

Every workload uses the size of an existing gate.  Transformers have the
pipeline gate's shape (d=128, 8 heads, 2 layers, lengths 40/4/14, batch
128, dropout 0.1, 1.39M parameters at V=53); BiLSTMs have the
memorization gate's shape (emb 64, hidden 64).  All use the ``both``
variant.  Program functions are called through their modules, so the
tracer's patches see every call.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import time
from types import SimpleNamespace

import numpy as np

from qatip import checkpoint, config, corpus, generation, train
from qatip.rnn import QaRnnModel
from qatip.transformer import QaTransformerModel

import checks

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUNDLED = os.path.join(REPO, "data", "sample_triplets.jsonl")
MODEL_SEED = 2020  # decode workloads: weights stay fixed when the seed or training changes
BEAM_WIDTH = 4
BIG_VOCAB_POOL = 2996  # + 4 reserved tokens = V of 3000
BIG_VOCAB_RECORDS = 200


def run_config(arch: str, seed: int) -> config.RunConfig:
    return config.RunConfig(
        arch=arch, variant="both", review_max_len=40, query_max_len=4, tip_max_len=14,
        model_dim=128, num_heads=8, num_layers=2, emb_dim=64, hidden_dim=64,
        dropout=0.1, batch_size=128, lr=0.001, epochs=1, seed=seed,
    )


def build_model(cfg: config.RunConfig, vocab_size: int, seed: int):
    cls = QaTransformerModel if cfg.arch == "transformer" else QaRnnModel
    return cls(config.model_config_from_run(cfg, vocab_size), seed=seed)


def encode(records, vocab, cfg, inference=False):
    return corpus.encode_records(
        records, vocab, cfg.review_max_len, cfg.query_max_len, cfg.tip_max_len,
        mode=cfg.tokenize_mode, inference=inference)


def big_vocab_records(seed: int) -> list[dict]:
    """Records whose vocabulary is exactly the pool: V = 3000 for every seed.

    A seeded permutation of the pool is dealt out across the reviews so every
    word occurs; the rest of each record draws words at random.
    """
    rng = np.random.default_rng(seed)
    words = [f"w{i}" for i in range(BIG_VOCAB_POOL)]
    per = math.ceil(BIG_VOCAB_POOL / BIG_VOCAB_RECORDS)
    deal = rng.permutation(BIG_VOCAB_POOL)
    records = []
    for i in range(BIG_VOCAB_RECORDS):
        own = [words[j] for j in deal[i * per:(i + 1) * per]]
        extra = [words[j] for j in rng.integers(0, BIG_VOCAB_POOL, size=26 - len(own))]
        review = own + extra
        rng.shuffle(review)
        records.append({
            "review": " ".join(review),
            "query": " ".join(words[j] for j in rng.integers(0, BIG_VOCAB_POOL, size=2)),
            "tip": " ".join(rng.choice(review, size=7, replace=False)),
            "id": f"bv-{i:03d}",
        })
    return records


class TrainWorkload:
    """``train.train_model`` over the bundled corpus, one epoch per round.

    The split and the model's initial weights come from the workload seed;
    round k shuffles with seed + k, as epoch k of one long run would.
    """

    def __init__(self, arch: str):
        self.arch = arch

    def prepare(self, seed: int, run_dir: str) -> None:
        self.seed, self.run_dir = seed, run_dir
        self.cfg = run_config(self.arch, seed)
        self.history = []

    def setup(self) -> SimpleNamespace:
        records = corpus.load_jsonl(BUNDLED)
        vocab = corpus.vocab_from_records(records)
        split = corpus.split_dataset(encode(records, vocab, self.cfg), self.seed)
        return SimpleNamespace(train_set=split.train, valid_set=split.valid,
                               model=build_model(self.cfg, vocab.size, self.seed))

    def run_round(self, state, k: int) -> tuple[int, int, float]:
        """(records, failed records, seconds) of round ``k``."""
        cfg = dataclasses.replace(self.cfg, seed=self.seed + k)
        start = time.perf_counter()
        result = train.train_model(state.model, state.train_set, state.valid_set, cfg, out_dir=self.run_dir)
        elapsed = time.perf_counter() - start
        self.history.extend(result.history)
        self.final_path = result.final_path
        return len(state.train_set), 0, elapsed

    def check(self, state) -> list[str]:
        errors = []
        losses = [(h.train_loss, h.valid_loss) for h in self.history]
        if not all(math.isfinite(x) for pair in losses for x in pair):
            errors.append(f"non-finite loss in {losses}")
        elif losses[-1][0] >= losses[0][0]:
            errors.append(f"train loss did not fall: first {losses[0][0]:.6f}, last {losses[-1][0]:.6f}")
        reloaded, _ = checkpoint.load_checkpoint(self.final_path)
        differ = checks.same_parameters(state.model, reloaded)
        if differ:
            errors.append(f"final checkpoint differs from the trained model in {differ[:3]}")
        rng = np.random.default_rng(self.seed)
        picked = [state.train_set[i] for i in rng.choice(len(state.train_set), size=4, replace=False)]
        gap = checks.gradient_check(checks.float64_twin(state.model), corpus.make_batch(picked), self.seed)
        if not gap < 1e-5:
            errors.append(f"tape gradient disagrees with finite differences: relative gap {gap:.3g}")
        return errors


class DecodeWorkload:
    """``generation.batch_generate`` at beam 4 over a fixed-seed model.

    The model is built and saved once before timing; set-up reads the
    corpus, builds the vocabulary, encodes and loads the checkpoint, as
    ``qatip generate`` does.  The workload seed orders the records.
    """

    def __init__(self, arch: str, big_vocab: bool, records_per_round: int):
        self.arch, self.big_vocab, self.records_per_round = arch, big_vocab, records_per_round

    def prepare(self, seed: int, run_dir: str) -> None:
        self.seed = seed
        self.cfg = run_config(self.arch, MODEL_SEED)
        self.beam = generation.BeamConfig(max_len=self.cfg.tip_max_len, width=BEAM_WIDTH)
        self.data_path = BUNDLED
        if self.big_vocab:
            self.data_path = os.path.join(run_dir, "corpus.jsonl")
            with open(self.data_path, "w", encoding="utf-8") as fh:
                for rec in big_vocab_records(seed):
                    fh.write(json.dumps(rec) + "\n")
        vocab = corpus.vocab_from_records(corpus.load_jsonl(self.data_path))
        model = build_model(self.cfg, vocab.size, MODEL_SEED)
        self.checkpoint_path = os.path.join(run_dir, "model.qtip")
        checkpoint.save_checkpoint(model, {**model.config_dict(), "run": self.cfg.to_dict()},
                                   self.checkpoint_path)
        self.decoded = []

    def setup(self) -> SimpleNamespace:
        records = corpus.load_jsonl(self.data_path, inference=True)
        vocab = corpus.vocab_from_records(records)
        triplets = encode(records, vocab, self.cfg, inference=True)
        model, _ = checkpoint.load_checkpoint(self.checkpoint_path)
        order = np.random.default_rng(self.seed).permutation(len(triplets))
        return SimpleNamespace(vocab=vocab, model=model, triplets=[triplets[i] for i in order])

    def run_round(self, state, k: int) -> tuple[int, int, float]:
        """(records, failed records, seconds) of round ``k``."""
        n = self.records_per_round
        chunk = [state.triplets[(k * n + i) % len(state.triplets)] for i in range(n)]
        start = time.perf_counter()
        results = generation.batch_generate(state.model, chunk, self.beam, state.vocab)
        elapsed = time.perf_counter() - start
        self.decoded.extend(zip(chunk, results))
        return n, sum(r.error is not None for r in results), elapsed

    def check(self, state) -> list[str]:
        errors = []
        for trip, res in self.decoded:
            rid = res.record_id
            if res.error is not None:
                errors.append(f"{rid}: {res.error}")
                continue
            ids = tuple(res.token_ids)
            if corpus.UNK_ID in ids or len(ids) > self.beam.max_len:
                errors.append(f"{rid}: tip ids {ids} hold UNK or exceed max_len {self.beam.max_len}")
            if res.tip != corpus.detokenize(state.vocab.decode(ids)):
                errors.append(f"{rid}: tip text {res.tip!r} does not spell its ids")
            score, tol = checks.rescore(state.model, trip.review_ids, trip.query_ids, ids, self.beam.max_len)
            if abs(score - res.score) > tol:
                errors.append(f"{rid}: reported score {res.score!r}, teacher-forced {score!r} (tol {tol:.2g})")
        for trip, res in self.decoded[:2]:
            if res.error is not None:
                continue
            ids, score = checks.reference_beam(state.model, trip.review_ids, trip.query_ids,
                                               self.beam.max_len, self.beam.width, self.beam.alpha)
            _, tol = checks.rescore(state.model, trip.review_ids, trip.query_ids, ids, self.beam.max_len)
            if tuple(ids) != tuple(res.token_ids) and abs(score - res.score) > tol:
                errors.append(f"{res.record_id}: reference beam picks {ids} ({score!r}), "
                              f"program {res.token_ids} ({res.score!r})")
        return errors


WORKLOADS = {
    "train-transformer": lambda: TrainWorkload("transformer"),
    "train-rnn": lambda: TrainWorkload("rnn"),
    "decode-transformer": lambda: DecodeWorkload("transformer", big_vocab=False, records_per_round=2),
    "decode-rnn-bigvocab": lambda: DecodeWorkload("rnn", big_vocab=True, records_per_round=1),
}
