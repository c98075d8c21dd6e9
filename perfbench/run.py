"""Run one benchmark workload in this process and print its metrics.

    python3 perfbench/run.py --workload decode-transformer --seed 3 --seconds 20 --trace 0

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` (records) and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  BLAS is capped
at one thread through ``QATIP_THREADS``.  Set-up runs ``SETUP_REPEATS``
times and the median counts; then whole rounds run until ``--seconds``
have passed (at least ``MIN_ROUNDS``).  The first round warms up and is
not rated; ``records_per_s`` is the 10th percentile of the other rounds'
rates, the rate the run sustained in nine rounds of ten.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
SETUP_REPEATS = 21
MIN_ROUNDS = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def cap_blas_threads() -> None:
    """One BLAS thread via the CLI's own QATIP_THREADS handling, before numpy loads."""
    os.environ["QATIP_THREADS"] = "1"
    sys.path.insert(0, SRC)
    from qatip import cli

    for var in cli._THREAD_VARS:  # a value inherited from the caller would win over the cap
        os.environ.pop(var, None)
    cli._cap_threads()


def sustained_rate(values) -> float:
    """The rate a run sustained.  A shared host's speed drifts mostly up from its
    loaded floor, so the low side of the round rates repeats best between runs."""
    return statistics.quantiles(values, n=10, method="inclusive")[0]


def layer_metrics(tr, setup_ms: dict, records: int, rate: float) -> dict:
    from tracer import TENSOR_OPS

    def per_record(value, unit):
        return {"value": value / records, "unit": unit}

    def ms(name, kind="total"):
        table = tr.total if kind == "total" else tr.self_s
        return per_record(1e3 * table[name], "ms/record")

    named_ops = ("matmul", "softmax_rows", "layer_norm", "sigmoid", "nll_loss")
    candidates = tr.counts["generation.candidates"]
    out = {
        "tensor.ops.calls": per_record(sum(tr.calls[f"tensor.{op}"] for op in TENSOR_OPS), "calls/record"),
        "tensor.matmul.calls": per_record(tr.calls["tensor.matmul"], "calls/record"),
    }
    for op in named_ops:
        out[f"tensor.{op}.ms"] = per_record(tr.op_ms(op), "ms/record")
    out["tensor.other_ops.ms"] = per_record(
        sum(tr.op_ms(op) for op in TENSOR_OPS if op not in named_ops), "ms/record")
    out.update({
        "tensor.backward.ms": ms("tensor.backward"),
        "tensor.backward.self_ms": ms("tensor.backward", "self"),
        "optim.clip_global_norm.ms": ms("optim.clip_global_norm"),
        "optim.adam_step.ms": ms("optim.adam_step"),
        "train.forward_loss.ms": ms("train.forward_loss"),
        "train.mean_loss.ms": ms("train.mean_loss"),
        "corpus.encode_records.ms": {"value": setup_ms["corpus.encode_records"], "unit": "ms"},
        "corpus.make_batches.ms": ms("corpus.make_batches"),
        "checkpoint.save.calls": per_record(tr.calls["checkpoint.save"], "calls/record"),
        "checkpoint.save.ms": ms("checkpoint.save"),
        "checkpoint.bytes": per_record(tr.counts["checkpoint.bytes"], "bytes/record"),
        "checkpoint.load.ms": {"value": setup_ms["checkpoint.load"], "unit": "ms"},
        "attention.multi_head.calls": per_record(tr.calls["attention.multi_head"], "calls/record"),
        "attention.multi_head.ms": ms("attention.multi_head"),
        "model.prepare.ms": ms("model.prepare"),
        "model.step_logits.calls": per_record(tr.calls["model.step_logits"], "calls/record"),
        "model.step_logits.ms": ms("model.step_logits"),
        "generation.beam_search.self_ms": ms("generation.beam_search", "self"),
        "generation.step_log_probs.self_ms": ms("generation.step_log_probs", "self"),
        "generation.candidates": per_record(candidates, "count/record"),
        "generation.candidates.kept_ratio": {
            "value": tr.counts["generation.kept"] / candidates if candidates else 0.0, "unit": "ratio"},
        "trace.records_per_s": {"value": rate, "unit": "1/s"},
    })
    return out


def measure(workload, args, run_dir: str) -> dict:
    import tracer

    setups = []

    def set_up():
        start = time.perf_counter()
        state = workload.setup()
        setups.append(time.perf_counter() - start)
        return state

    workload.prepare(args.seed, run_dir)
    tr = tracer.Tracer().install() if args.trace else None
    try:
        state = set_up()
        rates, attempted, failed, rounds = [], 0, 0, 0
        start = time.perf_counter()
        deadline = start + args.seconds
        last = 0.0
        # a round that would end past the deadline is not started
        while rounds < MIN_ROUNDS or time.perf_counter() + last < deadline:
            n, bad, last = workload.run_round(state, rounds)
            if rounds:  # the first round is the warm-up
                rates.append(n / last)
            attempted += n
            failed += bad
            rounds += 1
            # the other set-ups are spread over the run: the machine's speed drifts
            while (len(setups) < SETUP_REPEATS
                   and time.perf_counter() >= start + len(setups) * args.seconds / SETUP_REPEATS):
                set_up()
        while len(setups) < SETUP_REPEATS:
            set_up()
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        if tr:
            tr.restore()
    errors = workload.check(state)
    for line in errors:
        print(f"check failed: {line}", file=sys.stderr)
    rate = sustained_rate(rates)
    print(f"{args.workload}: {rounds} rounds, {attempted} records, round rates "
          f"{[round(r, 2) for r in rates]}, set-ups {[round(s, 4) for s in setups]}", file=sys.stderr)
    if tr:
        setup_ms = {name: 1e3 * tr.total[name] / len(setups)
                    for name in ("corpus.encode_records", "checkpoint.load")}
        metrics = layer_metrics(tr, setup_ms, attempted, rate)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "records_per_s": {"value": rate, "unit": "1/s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
    return {"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qatip", "__init__.py")):
        print(f"error: the qatip sources are not at {SRC}", file=sys.stderr)
        return 2
    cap_blas_threads()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}, expected one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    run_dir = os.path.join(HERE, "_runs", f"{args.workload}-{os.getpid()}")
    os.makedirs(run_dir)
    try:
        result = measure(workloads.WORKLOADS[args.workload](), args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
