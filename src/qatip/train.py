"""Teacher-forced training with per-epoch logging and checkpointing.

Each epoch reshuffles with a seed derived from (base seed + epoch), so a
(seed, config, data) triple fully determines every logged loss.  The best
validation model and the final model are both written as checkpoints.
Training stops after ``config.epochs`` epochs, or earlier, after the first
epoch whose ``log(stats)`` call returns a true value.
"""

from __future__ import annotations

import json
import math
import os
import resource
import time
from dataclasses import dataclass

from .checkpoint import save_checkpoint
from .config import RunConfig
from .corpus import make_batches
from .optim import Adam, clip_global_norm
from .tensor import backward, no_grad


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    valid_loss: float
    seconds: float
    steps: int
    tokens_per_s: float  # target tip tokens the loss counted, per training second
    grad_norm_mean: float  # pre-clip global gradient norm over the epoch's steps
    grad_norm_max: float
    peak_rss_mb: float  # the process's peak resident memory at the epoch's end

    def record(self) -> str:
        return json.dumps(
            {
                "epoch": self.epoch,
                "train_loss": round(self.train_loss, 6),
                "valid_loss": round(self.valid_loss, 6),
                "seconds": round(self.seconds, 3),
                "steps": self.steps,
                "tokens_per_s": round(self.tokens_per_s, 1),
                "grad_norm_mean": round(self.grad_norm_mean, 6),
                "grad_norm_max": round(self.grad_norm_max, 6),
                "peak_rss_mb": round(self.peak_rss_mb, 1),
            }
        )


@dataclass
class TrainResult:
    history: list
    best_epoch: int
    best_valid: float
    best_path: str | None
    final_path: str | None


def mean_loss(model, batches) -> float:
    """Per-sequence mean loss over ``batches`` without building graphs."""
    total = 0.0
    count = 0
    with no_grad():
        for batch in batches:
            loss = model.forward_loss(batch, train=False)
            total += float(loss.data) * batch.size
            count += batch.size
    return total / max(1, count)


def train_model(
    model,
    train_triplets,
    valid_triplets,
    config: RunConfig,
    out_dir: str | None = None,
    log=None,
    vocab_fingerprint: str | None = None,
) -> TrainResult:
    """Train for at most ``config.epochs`` epochs, calling ``log(stats)`` after each.

    Training ends after the first epoch whose ``log`` call returns a true value; the final
    checkpoint is still written.  An empty ``train_triplets`` is refused; an empty ``valid_triplets``
    gives ``valid_loss`` 0, and is refused with an ``out_dir``, which keeps the best validation
    model.  A given ``vocab_fingerprint`` goes into the checkpoint snapshot as ``vocab_sha256``.
    """
    if not train_triplets:
        raise ValueError("no training records")
    if out_dir and not valid_triplets:
        raise ValueError("no validation records to pick the best checkpoint by")
    params = model.params.parameters()
    optimizer = Adam(params, lr=config.lr)
    snapshot = {**model.config_dict(), "run": config.to_dict()}
    if vocab_fingerprint is not None:
        snapshot["vocab_sha256"] = vocab_fingerprint
    best_path = final_path = None
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        best_path = os.path.join(out_dir, "best.qtip")
        final_path = os.path.join(out_dir, "final.qtip")
    valid_batches = make_batches(valid_triplets, config.batch_size)
    history: list[EpochStats] = []
    best_valid = math.inf
    best_epoch = -1
    for epoch in range(config.epochs):
        started = time.perf_counter()
        batches = make_batches(
            train_triplets, config.batch_size, shuffle_seed=config.seed + epoch
        )
        total = 0.0
        count = 0
        tokens = 0
        norms = []
        for index, batch in enumerate(batches):
            optimizer.zero_grad()
            loss = model.forward_loss(batch, train=True)
            backward(loss)
            value = float(loss.data)
            norm = clip_global_norm(params, config.grad_clip)
            if not (math.isfinite(value) and math.isfinite(norm)):
                raise ValueError(
                    f"epoch {epoch} batch {index}: non-finite training loss {value} "
                    f"or gradient norm {norm}"
                )
            optimizer.step()
            total += value * batch.size
            count += batch.size
            tokens += int(batch.tip_lengths.sum())
            norms.append(norm)
        train_seconds = time.perf_counter() - started
        stats = EpochStats(
            epoch=epoch,
            train_loss=total / max(1, count),
            valid_loss=mean_loss(model, valid_batches),
            seconds=time.perf_counter() - started,
            steps=len(norms),
            tokens_per_s=tokens / train_seconds,
            grad_norm_mean=sum(norms) / max(1, len(norms)),
            grad_norm_max=max(norms, default=0.0),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,  # KiB on Linux
        )
        history.append(stats)
        stop = log is not None and log(stats)
        if stats.valid_loss < best_valid:
            best_valid = stats.valid_loss
            best_epoch = epoch
            if best_path:
                save_checkpoint(model, snapshot, best_path)
        if stop:
            break
    if final_path:
        save_checkpoint(model, snapshot, final_path)
    if best_path and best_epoch < 0:
        # zero-epoch run: the initialized model is also the best seen
        save_checkpoint(model, snapshot, best_path)
    return TrainResult(
        history=history,
        best_epoch=best_epoch,
        best_valid=best_valid,
        best_path=best_path,
        final_path=final_path,
    )
