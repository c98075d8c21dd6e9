"""Print the values that show whether a change keeps the program's numbers bitwise.

Each line is a name and a sha256, to compare between two trees:

- ``train-transformer`` and ``train-rnn``: the final checkpoint's payload
  (the bytes after its header) after 2 rounds of the benchmark workload;
- ``decode-transformer`` and ``decode-rnn-bigvocab``: the record id, token
  ids, ``float.hex`` score and error of the first 40 records the workload
  decodes;
- ``gradcheck``: each op check's name and ``float.hex`` worst error from
  the run ``qatip gradcheck --repeats 2 --skip-models`` makes.

The workloads run at seed 4 from ``perfbench/workloads.py``, with BLAS capped
at one thread as ``perfbench/run.py`` caps it.  Run from the repository root:

    python3 scripts/identity.py
"""

import hashlib
import os
import sys
import tempfile

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import run  # noqa: E402

run.cap_blas_threads()  # before numpy loads; puts src/ on the path

import workloads  # noqa: E402
from qatip.checkpoint import _PREAMBLE  # noqa: E402
from qatip.gradcheck import run_gradient_suite  # noqa: E402

SEED = 4
TRAIN_ROUNDS = 2
DECODED_RECORDS = 40


def train_payload(name: str, run_dir: str) -> str:
    workload = workloads.WORKLOADS[name]()
    workload.prepare(SEED, run_dir)
    state = workload.setup()
    for k in range(TRAIN_ROUNDS):
        workload.run_round(state, k)
    with open(workload.final_path, "rb") as fh:
        blob = fh.read()
    _, _, header_len = _PREAMBLE.unpack_from(blob)
    return hashlib.sha256(blob[_PREAMBLE.size + header_len :]).hexdigest()


def decoded(name: str, run_dir: str) -> str:
    workload = workloads.WORKLOADS[name]()
    workload.prepare(SEED, run_dir)
    state = workload.setup()
    k = 0
    while len(workload.decoded) < DECODED_RECORDS:
        workload.run_round(state, k)
        k += 1
    digest = hashlib.sha256()
    for _, res in workload.decoded[:DECODED_RECORDS]:
        ids = " ".join(map(str, res.token_ids))
        digest.update(f"{res.record_id}\t{ids}\t{float(res.score).hex()}\t{res.error}\n".encode())
    return digest.hexdigest()


def gradcheck() -> str:
    results = run_gradient_suite(repeats=2, include_models=False)
    return hashlib.sha256("".join(f"{r.name}\t{r.max_err.hex()}\n" for r in results).encode()).hexdigest()


def main() -> None:
    for name, measure in (("train-transformer", train_payload), ("train-rnn", train_payload),
                          ("decode-transformer", decoded), ("decode-rnn-bigvocab", decoded)):
        with tempfile.TemporaryDirectory() as run_dir:
            print(f"{name} {measure(name, run_dir)}", flush=True)
    print(f"gradcheck {gradcheck()}")


if __name__ == "__main__":
    main()
