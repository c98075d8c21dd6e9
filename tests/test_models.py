"""The family table: one mapping from a run's ``arch`` to its model class."""

import os
import subprocess
import sys

import numpy as np
import pytest

import qatip
from qatip.checkpoint import model_from_config
from qatip.config import ARCHES, RunConfig, model_config_from_run
from qatip.corpus import Triplet, make_batch
from qatip.models import FAMILIES


def test_families_cover_every_arch():
    assert set(FAMILIES) == set(ARCHES)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_family_rebuilds_from_its_checkpoint_config(family):
    run = RunConfig(arch=family, variant="qa_dec", model_dim=8, num_heads=2, num_layers=1,
                    emb_dim=5, hidden_dim=4, review_max_len=6, query_max_len=3, tip_max_len=4)
    cfg = model_config_from_run(run, vocab_size=13)
    assert type(cfg) is FAMILIES[family].Config
    model = FAMILIES[family](cfg, seed=3)
    rebuilt = model_from_config(model.config_dict())
    assert type(rebuilt) is type(model)
    assert rebuilt.config == model.config


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_decoding_context_is_the_training_encoding(family):
    run = RunConfig(arch=family, variant="both", model_dim=8, num_heads=2, num_layers=2,
                    emb_dim=5, hidden_dim=4, review_max_len=6, query_max_len=3, tip_max_len=4)
    model = FAMILIES[family](model_config_from_run(run, vocab_size=13), seed=4)
    review, query, tip = (4, 5, 6, 7), (8, 9), (1, 10, 11, 12, 2)
    batch = make_batch([Triplet(review, query, tip, "", "", "", "r0")])
    ctx = model.prepare(review, query)
    assert np.array_equal(model.decode_logits(ctx, batch.tip_input).data,
                          model.forward(batch).data)


def test_cli_import_leaves_numpy_unloaded():
    # QATIP_THREADS caps BLAS threads only if numpy loads after qatip.cli runs
    src = os.path.dirname(os.path.dirname(os.path.abspath(qatip.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", "import sys, qatip.cli; print('numpy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"
