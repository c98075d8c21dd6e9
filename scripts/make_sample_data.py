"""Regenerate the bundled sample corpus and toy embeddings.

Run from the repository root:

    python3 scripts/make_sample_data.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from qatip.corpus import write_jsonl
from qatip.synthetic import corpus_tokens, pipeline_corpus, toy_embedding_file


def main() -> None:
    out_dir = os.path.join(os.path.dirname(__file__), "..", "data")
    os.makedirs(out_dir, exist_ok=True)
    records = pipeline_corpus(n=500, seed=41)
    write_jsonl(records, os.path.join(out_dir, "sample_triplets.jsonl"))
    toy_embedding_file(
        os.path.join(out_dir, "toy_embeddings.txt"),
        corpus_tokens(records),
        dim=16,
        seed=7,
    )
    print(f"wrote {len(records)} records and embeddings to {os.path.abspath(out_dir)}")


if __name__ == "__main__":
    main()
