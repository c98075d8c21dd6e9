"""Train a small model until it memorizes, then decode greedily and with beams."""

import tempfile
from pathlib import Path

import numpy as np

from qatip.checkpoint import load_checkpoint, save_checkpoint
from qatip.config import RunConfig
from qatip.corpus import detokenize, encode_records, make_batches, vocab_from_records
from qatip.generation import BeamConfig, beam_search, greedy_decode
from qatip.synthetic import overfit_corpus
from qatip.train import mean_loss, train_model
from qatip.transformer import QaTransformerModel, TransformerConfig

records = overfit_corpus(n=32, seed=13)
vocab = vocab_from_records(records)
triplets = encode_records(records, vocab, review_max_len=12, query_max_len=3, tip_max_len=8)
print(f"{len(records)} records, vocabulary of {vocab.size} tokens")

config = TransformerConfig(
    vocab.size, model_dim=48, num_heads=4, num_layers=2,
    dropout=0.0, variant="both", max_len=32,
)
model = QaTransformerModel(config, seed=1)
full = make_batches(triplets, 32)


def report(stats):
    """Print the whole-corpus loss every 10 epochs; returning None never stops training."""
    if stats.epoch % 10 == 9:
        print(f"epoch {stats.epoch:3d}  loss {mean_loss(model, full):.4f}")


train_model(model, triplets, [], RunConfig(epochs=60, lr=0.002, batch_size=16, seed=7), log=report)

# greedy decoding reproduces the memorized tips
hits = 0
for trip in triplets:
    ids = greedy_decode(model, trip.review_ids, trip.query_ids, max_len=8)
    hits += detokenize(vocab.decode(ids)) == trip.raw_tip
print(f"greedy reproduces {hits}/{len(triplets)} training tips")

# a wider beam returns ranked alternatives with log-probabilities
trip = triplets[0]
print("review:", trip.raw_review)
print("query :", trip.raw_query)
for hyp in beam_search(model, trip.review_ids, trip.query_ids,
                       BeamConfig(max_len=8, width=4)):
    text = detokenize(vocab.decode(hyp.surface))
    print(f"  {hyp.log_prob:8.3f}  {text!r}")

# the checkpoint round trip is exact: same bytes, same outputs
with tempfile.TemporaryDirectory(prefix="qatip_demo_") as tmp:
    saved, again_path = Path(tmp) / "model.qtip", Path(tmp) / "again.qtip"
    save_checkpoint(model, model.config_dict(), str(saved))
    restored, snapshot = load_checkpoint(str(saved))
    save_checkpoint(restored, snapshot, str(again_path))
    same = saved.read_bytes() == again_path.read_bytes()
print("checkpoint round trip byte-identical:", same)
again = greedy_decode(restored, trip.review_ids, trip.query_ids, max_len=8)
print("restored model decodes identically:",
      again == greedy_decode(model, trip.review_ids, trip.query_ids, max_len=8))
