import json
import math
import os
import resource

import numpy as np
import pytest

from qatip import train
from qatip.checkpoint import load_checkpoint
from qatip.config import RunConfig, model_config_from_run
from qatip.corpus import Vocabulary, encode_records, make_batches, vocab_from_records
from qatip.optim import clip_global_norm
from qatip.rnn import QaRnnModel
from qatip.synthetic import overfit_corpus
from qatip.train import EpochStats, mean_loss, train_model
from qatip.transformer import QaTransformerModel


def tiny_setup(arch="rnn", n=12, epochs=2, seed=5):
    records = overfit_corpus(n=n, seed=3)
    vocab = vocab_from_records(records)
    config = RunConfig(
        arch=arch, variant="both", epochs=epochs, seed=seed, batch_size=4,
        review_max_len=12, query_max_len=3, tip_max_len=8, dropout=0.0,
        model_dim=8, num_heads=2, num_layers=1, emb_dim=6, hidden_dim=4, lr=0.01,
    )
    triplets = encode_records(
        records, vocab,
        review_max_len=config.review_max_len,
        query_max_len=config.query_max_len,
        tip_max_len=config.tip_max_len,
    )
    model_cfg = model_config_from_run(config, vocab.size)
    model = (QaRnnModel if arch == "rnn" else QaTransformerModel)(model_cfg, seed=seed)
    return model, triplets, config, vocab


def test_loss_decreases_over_epochs():
    model, triplets, config, _ = tiny_setup(epochs=8)
    result = train_model(model, triplets, [], config)
    assert len(result.history) == 8
    assert result.history[-1].train_loss < result.history[0].train_loss
    assert [stats.valid_loss for stats in result.history] == [0.0] * 8  # no validation set


def test_empty_training_data_or_checkpoints_without_validation_are_refused(tmp_path):
    model, triplets, config, _ = tiny_setup(epochs=2)
    out = tmp_path / "run"
    with pytest.raises(ValueError, match="^no training records$"):
        train_model(model, [], triplets, config, out_dir=str(out))
    with pytest.raises(ValueError, match="^no validation records to pick the best checkpoint by$"):
        train_model(model, triplets, [], config, out_dir=str(out))
    assert not out.exists()


def test_determinism_same_seed():
    losses = []
    for _ in range(2):
        model, triplets, config, _ = tiny_setup(epochs=3, seed=7)
        result = train_model(model, triplets, triplets, config)
        losses.append([(s.train_loss, s.valid_loss) for s in result.history])
    assert losses[0] == losses[1]


def test_different_seed_differs():
    traces = []
    for seed in (1, 2):
        model, triplets, config, _ = tiny_setup(epochs=2, seed=seed)
        result = train_model(model, triplets, triplets, config)
        traces.append(result.history[-1].train_loss)
    assert traces[0] != traces[1]


def test_checkpoints_written_when_the_callback_stops_training(tmp_path):
    model, triplets, config, _ = tiny_setup(epochs=4)
    out = str(tmp_path / "run")
    result = train_model(model, triplets, triplets, config, out_dir=out, log=lambda stats: stats.epoch == 1)
    assert len(result.history) == 2  # a true return ends training after that epoch
    assert os.path.exists(result.best_path)
    best, snapshot = load_checkpoint(result.best_path)
    assert snapshot["run"]["epochs"] == 4
    assert best.config.vocab_size == model.config.vocab_size
    final, _ = load_checkpoint(result.final_path)
    trained = {p.name: p.tensor.data for p in model.params.parameters()}
    for p in final.params.parameters():
        np.testing.assert_array_equal(p.tensor.data, trained[p.name])


def test_zero_epochs_saves_initialized_checkpoint(tmp_path):
    model, triplets, config, _ = tiny_setup(epochs=0)
    init_params = {p.name: p.tensor.data.copy() for p in model.params.parameters()}
    out = str(tmp_path / "run")
    result = train_model(model, triplets, triplets, config, out_dir=out)
    assert result.history == []
    assert result.best_epoch == -1
    loaded, _ = load_checkpoint(result.final_path)
    for p in loaded.params.parameters():
        np.testing.assert_array_equal(p.tensor.data, init_params[p.name])
    assert os.path.exists(result.best_path)


def test_best_checkpoint_tracks_valid_loss(tmp_path):
    model, triplets, config, _ = tiny_setup(epochs=4)
    logged = []
    out = str(tmp_path / "run")
    result = train_model(
        model, triplets, triplets, config, out_dir=out, log=logged.append
    )
    assert len(logged) == len(result.history) == 4  # a None return never stops training
    best = min(range(4), key=lambda i: result.history[i].valid_loss)
    assert result.best_epoch == best
    assert result.best_valid == result.history[best].valid_loss


def test_epoch_record_format():
    stats = EpochStats(epoch=3, train_loss=1.25, valid_loss=1.5, seconds=0.75, steps=4,
                       tokens_per_s=1234.5, grad_norm_mean=2.5, grad_norm_max=6.0, peak_rss_mb=247.93)
    rec = json.loads(stats.record())
    assert rec == {"epoch": 3, "train_loss": 1.25, "valid_loss": 1.5, "seconds": 0.75, "steps": 4,
                   "tokens_per_s": 1234.5, "grad_norm_mean": 2.5, "grad_norm_max": 6.0, "peak_rss_mb": 247.9}


def test_epoch_records_count_steps_tokens_and_grad_norms(monkeypatch):
    model, triplets, config, _ = tiny_setup(epochs=2)
    norms = []

    def clip(params, max_norm):
        norms.append(clip_global_norm(params, max_norm))
        return norms[-1]

    monkeypatch.setattr(train, "clip_global_norm", clip)
    result = train_model(model, triplets, triplets, config)
    tokens = sum(len(t.tip_ids) - 1 for t in triplets)  # targets: tip after BOS, EOS included
    assert tokens == sum(int(b.tip_lengths.sum()) for b in make_batches(triplets, config.batch_size))
    steps = -(-len(triplets) // config.batch_size)
    for epoch, stats in enumerate(result.history):
        mine = norms[epoch * steps : (epoch + 1) * steps]
        assert stats.steps == steps
        assert stats.grad_norm_mean == pytest.approx(sum(mine) / steps, rel=1e-12)
        assert stats.grad_norm_max == max(mine)
        # training time excludes the validation pass that ``seconds`` includes
        assert tokens / stats.seconds <= stats.tokens_per_s < math.inf
    peaks = [stats.peak_rss_mb for stats in result.history]
    assert 0 < peaks[0] <= peaks[1] <= resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def test_mean_loss_matches_manual():
    model, triplets, config, _ = tiny_setup(epochs=0)
    from qatip.corpus import make_batches

    batches = make_batches(triplets, 4)
    got = mean_loss(model, batches)
    total = sum(float(model.forward_loss(b, train=False).data) * b.size for b in batches)
    assert got == pytest.approx(total / len(triplets), abs=1e-9)


def test_non_finite_loss_stops_training(tmp_path):
    model, triplets, config, _ = tiny_setup(epochs=2)
    model.params.parameters()[0].tensor.data[...] = np.nan
    out = tmp_path / "run"
    with pytest.raises(ValueError, match="epoch 0 batch 0: non-finite training loss nan"):
        train_model(model, triplets, triplets, config, out_dir=str(out))
    assert not (out / "final.qtip").exists()
