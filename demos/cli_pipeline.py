"""The whole command-line pipeline on the bundled corpus, run in-process.

Identical to running the `qatip` executable once per subcommand; a temp
directory, removed at exit, holds the vocabulary, checkpoints, generations,
and the report.  The first failing subcommand ends the demo with its exit code.
"""

import atexit
import json
import shutil
import sys
import tempfile
from pathlib import Path

from qatip import cli

DATA = Path(__file__).resolve().parent.parent / "data"
work = Path(tempfile.mkdtemp(prefix="qatip_demo_"))
atexit.register(shutil.rmtree, work, ignore_errors=True)
print("working in", work)


def main(argv):
    code = cli.main(argv)
    if code:
        sys.exit(code)

data = str(DATA / "sample_triplets.jsonl")
vocab = str(work / "vocab.txt")
print("\n$ qatip build-vocab")
main(["build-vocab", "--data", data, "--out", vocab])

config = {
    "arch": "transformer", "variant": "both", "data": data, "vocab": vocab,
    "review_max_len": 40, "query_max_len": 4, "tip_max_len": 14,
    "model_dim": 32, "num_heads": 4, "num_layers": 1, "dropout": 0.0,
    "epochs": 14, "batch_size": 128, "lr": 0.003, "seed": 0,
}
(work / "config.json").write_text(json.dumps(config, indent=2))
print("\n$ qatip train")
main(["train", "--config", str(work / "config.json"), "--out", str(work / "run")])

print("\n$ qatip generate")
main(["generate", "--checkpoint", str(work / "run" / "best.qtip"),
      "--vocab", vocab, "--data", data, "--beam", "4",
      "--out", str(work / "generated.jsonl")])
first = json.loads(open(work / "generated.jsonl").readline())
print("first generation:", first)

print("\n$ qatip evaluate")
main(["evaluate", "--hyp", str(work / "generated.jsonl"), "--ref", data,
      "--embeddings", str(DATA / "toy_embeddings.txt"),
      "--out", str(work / "report.json")])

print("\n$ qatip baseline --method bm25")
main(["baseline", "--method", "bm25", "--data", data,
      "--out", str(work / "baseline.jsonl")])
first = json.loads(open(work / "baseline.jsonl").readline())
print("first extraction:", first)

print("\n$ qatip gradcheck (ops only, 2 repeats)")
main(["gradcheck", "--repeats", "2", "--skip-models"])
