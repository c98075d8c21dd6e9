"""Memory the autodiff tape holds at the end of one training forward, by op.

Builds both model families at the benchmark's training shapes (the bundled
500 records, batch 128, the ``both`` variant, dropout 0.1; see
``perfbench/workloads.py``), runs one training forward over the first
shuffled batch and walks what the loss's graph keeps alive
(``tests/tape_walk.py``).  For each op it prints the graph nodes, counted
as backward closures and grouped by the closure's ``__qualname__``, and
the megabytes (2**20 bytes) of the arrays first reached through them.
Parameters are excluded; an array that several closures read counts once.
Run from the repository root:

    python3 scripts/tape_memory.py [--seed 5]
"""

import argparse
import os
import sys
from collections import Counter

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "tests")]

from qatip import corpus  # noqa: E402

import workloads  # noqa: E402
from tape_walk import walk  # noqa: E402


def tape_by_op(arch: str, seed: int):
    """(per-op {op: (nodes, MB)}, total MB) after one forward of ``arch`` at the workload ``seed``."""
    cfg = workloads.run_config(arch, seed)
    records = corpus.load_jsonl(workloads.BUNDLED)
    vocab = corpus.vocab_from_records(records)
    split = corpus.split_dataset(workloads.encode(records, vocab, cfg), seed)
    model = workloads.build_model(cfg, vocab.size, seed)
    batch = corpus.make_batches(split.train, cfg.batch_size, shuffle_seed=seed)[0]
    loss = model.forward_loss(batch, train=True)
    held, closures = walk(loss)
    params = {id(p.tensor.data) for p in model.params.parameters()}
    nbytes = Counter()
    for key, (buffer, owner) in held.items():
        if key not in params:
            nbytes[owner.split(".")[0] or "(outside closures)"] += buffer.nbytes
    nodes = Counter()
    for qualname, count in closures.items():
        nodes[qualname.split(".")[0]] += count
    ops = sorted(set(nodes) | set(nbytes), key=lambda op: (-nbytes[op], op))
    return {op: (nodes[op], nbytes[op] / 2**20) for op in ops}, sum(nbytes.values()) / 2**20


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=5, help="workload seed: the split, the weights and the shuffle")
    args = parser.parse_args(argv)
    for arch in ("transformer", "rnn"):
        by_op, total = tape_by_op(arch, args.seed)
        print(f"{arch}: {total:.1f} MB in {sum(n for n, _ in by_op.values())} nodes")
        for op, (n, mb) in by_op.items():
            print(f"  {op:18s} {n:6d} nodes {mb:8.1f} MB")


if __name__ == "__main__":
    main()
