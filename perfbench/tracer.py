"""Call counts and inclusive/self times for the program's public functions.

The tracer replaces module and class attributes with timing wrappers and
puts the originals back on ``restore``; no file of the program changes.
Models call ops as ``T.<op>``, modules call their imports by their own
global names, so each function is patched where its callers look it up.

A tape op's backward closure is wrapped too, under ``<op>.bwd``, so the
time an op costs in the reverse sweep is charged to that op.  A span's
self time is its duration minus the spans it encloses.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict

import numpy as np

from qatip import attention, checkpoint, corpus, generation, optim, rnn, tensor, train, transformer

# every op that records a tape node; ``concat_last_dim`` only forwards to ``concat``
TENSOR_OPS = (
    "matmul", "transpose", "add", "sub", "mul", "scale", "sigmoid", "tanh", "relu",
    "softmax_rows", "layer_norm", "concat", "slice_axis", "embedding_lookup",
    "reshape", "broadcast_to", "sum_all", "mean_all", "nll_loss", "dropout",
)
MODEL_CLASSES = (transformer.QaTransformerModel, rnn.QaRnnModel)


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)  # seconds, inclusive
        self.self_s = defaultdict(float)  # seconds, minus enclosed spans
        self.counts = defaultdict(float)
        self._stack = [0.0]  # time covered by child spans, per open span
        self._saved = []
        self._beam_steps = None

    def wrap(self, name: str, fn):
        calls, total, self_s, stack, clock = self.calls, self.total, self.self_s, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                child = stack.pop()
                stack[-1] += dur
                calls[name] += 1
                total[name] += dur
                self_s[name] += dur - child

        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _op(self, name: str, fn):
        timed = self.wrap(f"tensor.{name}", fn)
        bwd_name = f"tensor.{name}.bwd"

        def op(*args, **kwargs):
            out = timed(*args, **kwargs)
            # dropout at rate 0 hands back its input, whose closure is already wrapped
            if out._backward is not None and (not args or out is not args[0]):
                out._backward = self.wrap(bwd_name, out._backward)
            return out

        return op

    def _patch(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> "Tracer":
        for name in TENSOR_OPS:
            self._patch(tensor, name, self._op(name, getattr(tensor, name)))
        self._patch(train, "backward", self.wrap("tensor.backward", tensor.backward))
        self._patch(train, "clip_global_norm", self.wrap("optim.clip_global_norm", optim.clip_global_norm))
        self._patch(optim.Adam, "step", self.wrap("optim.adam_step", optim.Adam.step))
        self._patch(train, "mean_loss", self.wrap("train.mean_loss", train.mean_loss))
        self._patch(train, "make_batches", self.wrap("corpus.make_batches", corpus.make_batches))
        self._patch(corpus, "encode_records", self.wrap("corpus.encode_records", corpus.encode_records))
        self._patch(checkpoint, "load_checkpoint", self.wrap("checkpoint.load", checkpoint.load_checkpoint))
        timed_save = self.wrap("checkpoint.save", checkpoint.save_checkpoint)

        def save(model, config, path):
            timed_save(model, config, path)
            self.counts["checkpoint.bytes"] += os.path.getsize(path)

        self._patch(train, "save_checkpoint", save)
        self._patch(transformer, "multi_head", self.wrap("attention.multi_head", attention.multi_head))
        for cls in MODEL_CLASSES:
            for method, name in (("forward_loss", "train.forward_loss"), ("prepare", "model.prepare"),
                                 ("step_logits", "model.step_logits")):
                self._patch(cls, method, self.wrap(name, getattr(cls, method)))
        self._patch_beam()
        return self

    def _patch_beam(self) -> None:
        """Count candidates built and kept without touching beam_search itself.

        beam_search expands every live hypothesis once per step, and all of a
        step's hypotheses share one prefix length, so candidates grouped by
        prefix length are one step's; ``width`` of them survive.
        """
        timed_step = self.wrap("generation.step_log_probs", generation.step_log_probs)
        timed_beam = self.wrap("generation.beam_search", generation.beam_search)

        def step_log_probs(model, ctx, prefix_ids, *args, **kwargs):
            out = timed_step(model, ctx, prefix_ids, *args, **kwargs)
            if self._beam_steps is not None:
                self._beam_steps[len(prefix_ids)] += int((out != -np.inf).sum())
            return out

        def beam_search(model, review_ids, query_ids, config):
            self._beam_steps = defaultdict(int)
            try:
                return timed_beam(model, review_ids, query_ids, config)
            finally:
                steps, self._beam_steps = self._beam_steps, None
                self.counts["generation.candidates"] += sum(steps.values())
                self.counts["generation.kept"] += sum(min(config.width, n) for n in steps.values())

        self._patch(generation, "step_log_probs", step_log_probs)
        self._patch(generation, "beam_search", beam_search)

    def restore(self) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)

    def op_ms(self, name: str) -> float:
        """Forward plus backward milliseconds of one tensor op."""
        return 1e3 * (self.total[f"tensor.{name}"] + self.total[f"tensor.{name}.bwd"])
