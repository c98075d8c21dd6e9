"""Per-seed pass rate of one query-sensitivity gate row, over seeds the gate does not use.

Trains one model per seed with the gate's own corpus, shapes, epoch cap and
stop rule (``run_one`` in ``tests/test_acceptance.py``), prints each seed's
first-token accuracy, then how many seeds reached the gate's 0.95.  Run
from the repository root:

    python3 scripts/seed_rate.py --arch rnn --variant qa_dec --seeds 40-79 [--float64]
"""

import argparse
import os
import sys
import time

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import numpy as np  # noqa: E402

from qatip.config import ARCHES, VARIANTS  # noqa: E402
from test_acceptance import query_sensitivity_data, run_one  # noqa: E402


def seed_range(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--arch", required=True, choices=ARCHES)
    parser.add_argument("--variant", required=True, choices=VARIANTS)
    parser.add_argument("--seeds", required=True, type=seed_range, help="inclusive range, as 40-79")
    parser.add_argument("--float64", action="store_true", help="train in float64 instead of float32")
    args = parser.parse_args(argv)
    vocab_size, triplets = query_sensitivity_data()
    dtype = np.float64 if args.float64 else np.float32
    passed = 0
    started = time.perf_counter()
    for seed in args.seeds:
        acc = run_one(args.arch, args.variant, seed, vocab_size, triplets, dtype=dtype)
        passed += acc >= 0.95
        print(f"seed {seed}: first-token accuracy {acc:.3f}", flush=True)
    print(f"{args.arch}/{args.variant} {np.dtype(dtype).name}: {passed} of {len(args.seeds)} seeds "
          f"reach 0.95 ({time.perf_counter() - started:.0f}s)")


if __name__ == "__main__":
    main()
