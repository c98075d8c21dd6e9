"""The benchmark's own output checks, run as a test.

Each run of ``perfbench/run.py`` checks what it computed (rescoring, a
reference beam, a gradient check, a bit-exact checkpoint reload) and prints
``"correct"`` on its last line.  A short run of every workload keeps a change
that breaks one of those checks from passing the suite.  The tracer patches
every program name it times whatever the workload; one traced run per
decoding family also drives the names it patches through a decode
(``transformer.multi_head`` on the transformer).
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("train-transformer", "train-rnn", "decode-transformer", "decode-rnn-bigvocab")


@pytest.mark.parametrize("workload, trace", [(w, 0) for w in WORKLOADS]
                         + [("decode-rnn-bigvocab", 1), ("decode-transformer", 1)])
def test_benchmark_run_is_correct(workload, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0, proc.stderr
