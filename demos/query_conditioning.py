"""Why the query wiring matters: identical reviews, query-determined tips.

Every record shares one review; only the query decides the correct tip token.
A model that never reads the query is stuck at the majority class; the
query-aware wirings solve the mapping exactly.
"""

from qatip.config import RunConfig
from qatip.corpus import encode_records, vocab_from_records
from qatip.generation import greedy_decode
from qatip.synthetic import query_sensitivity_corpus
from qatip.train import train_model
from qatip.transformer import QaTransformerModel, TransformerConfig

records = query_sensitivity_corpus(n_queries=8, repeats=8, seed=29)
vocab = vocab_from_records(records)
triplets = encode_records(records, vocab, review_max_len=12, query_max_len=2, tip_max_len=3)
print("shared review:", records[0]["review"])
print("sample pairs :", [(r["query"], r["tip"]) for r in records[:4]])


def accuracy(model):
    hits = 0
    for trip in triplets:
        ids = greedy_decode(model, trip.review_ids, trip.query_ids, max_len=3)
        hits += bool(ids) and ids[0] == trip.tip_ids[1]
    return hits / len(triplets)


def train(variant, epochs):
    config = TransformerConfig(
        vocab.size, model_dim=32, num_heads=2, num_layers=1,
        dropout=0.0, variant=variant, max_len=16,
    )
    model = QaTransformerModel(config, seed=11)
    train_model(model, triplets, [], RunConfig(variant=variant, epochs=epochs, lr=0.005, batch_size=16, seed=11))
    return model


print("\nmajority class floor: 12.5% (8 balanced classes)")
for variant in ("vanilla", "qa_enc", "qa_dec", "both"):
    acc = accuracy(train(variant, epochs=60))
    print(f"  {variant:8s} tip-token accuracy {acc:6.1%}")
