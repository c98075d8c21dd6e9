"""Mutation fuzzing of the text artifacts: datasets, generated tips, vocabularies,
embedding tables and run configs.

Each case writes a valid file with one mutation (a truncation, an overwritten
byte, an inserted byte, a duplicated line or a deleted line) and loads it.  The
load must end cleanly or in the loader's own error type.  A loader that reads
lines must name ``<path> line <n>``; the one error with no line to name is an
embedding file that holds no vector at all.
"""

import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qatip.cli import CliError, _read_generated
from qatip.config import ConfigError, load_run_config
from qatip.corpus import DatasetError, Vocabulary, load_jsonl, vocab_from_records, write_jsonl
from qatip.embeddings import EmbeddingTable, load_embeddings, save_embeddings

# multi-byte characters, so an overwritten or inserted byte can split one
RECORDS = [
    {"review": "the café was busy . the cake was good", "query": "cake", "tip": "the cake was good", "id": "r0"},
    {"review": "slow service . 很好吃 noodles", "query": "noodles", "tip": "很好吃 noodles", "id": "r1"},
    {"review": "clean room . quick staff", "query": "staff", "tip": "quick staff", "id": "r2"},
]

# target: (file name, loader, its error type, whether it reads lines)
TARGETS = {
    "dataset": ("data.jsonl", load_jsonl, DatasetError, True),
    "generated": ("hyp.jsonl", _read_generated, CliError, True),
    "vocabulary": ("vocab.txt", Vocabulary.load, DatasetError, True),
    "embeddings": ("vectors.txt", load_embeddings, ValueError, True),
    "config": ("config.json", load_run_config, ConfigError, False),
}

# any byte, or one of the bytes that break or keep the structure of these formats more often
BYTES = st.one_of(st.sampled_from(b'\n\r \x00\xff\x85"{}[]:,.-0123456789e<>'), st.integers(0, 255))


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """Per target, the bytes of a valid file and a path to write mutants to."""
    folder = tmp_path_factory.mktemp("text")
    write_jsonl(RECORDS, folder / "data.jsonl")
    write_jsonl([{"id": r["id"], "tip": r["tip"]} for r in RECORDS], folder / "hyp.jsonl")
    vocab = vocab_from_records(RECORDS)
    vocab.save(folder / "vocab.txt")
    rng = np.random.default_rng(3)
    vectors = {t: rng.standard_normal(3) for t in vocab.id_to_token[4:10]}
    save_embeddings(EmbeddingTable(vectors, dim=3), str(folder / "vectors.txt"))
    config = {"arch": "rnn", "variant": "both", "epochs": 2, "lr": 0.001, "dropout": 0.1}
    (folder / "config.json").write_text(json.dumps(config), encoding="utf-8")
    out = {}
    for target, (name, load, _, _) in TARGETS.items():
        load(str(folder / name))
        out[target] = ((folder / name).read_bytes(), str(folder / ("mutant-" + name)))
    return out


def load_mutant(target, path, blob):
    """Load ``blob`` from ``path``: a clean load or the loader's own located error."""
    _, load, error, reads_lines = TARGETS[target]
    with open(path, "wb") as fh:
        fh.write(blob)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # duplicate embedding tokens warn and load
            load(path)
    except error as exc:
        message = str(exc)
        if reads_lines:
            assert re.match(rf"{re.escape(path)} line [1-9][0-9]*: \S", message) or (
                message == f"{path}: embedding file has no vectors"
            ), message


def structural_mutants(blob):
    """Every truncation, and every duplicated or deleted line, of ``blob``."""
    lines = blob.splitlines(keepends=True)
    yield from (blob[:n] for n in range(len(blob)))
    for j in range(len(lines)):
        yield b"".join(lines[: j + 1] + lines[j:])
        yield b"".join(lines[:j] + lines[j + 1:])


@st.composite
def mutants(draw, blob):
    kind = draw(st.sampled_from(["truncate", "overwrite", "insert", "duplicate", "delete"]), label="kind")
    if kind == "truncate":
        return blob[: draw(st.integers(0, len(blob) - 1), label="at")]
    if kind in ("overwrite", "insert"):
        at = draw(st.integers(0, len(blob) - 1), label="at")
        return blob[:at] + bytes([draw(BYTES, label="value")]) + blob[at + (kind == "overwrite"):]
    lines = blob.splitlines(keepends=True)
    j = draw(st.integers(0, len(lines) - 1), label="line")
    return b"".join(lines[: j + 1] + lines[j:] if kind == "duplicate" else lines[:j] + lines[j + 1:])


@pytest.mark.parametrize("target", TARGETS)
def test_every_truncation_and_line_edit_loads_or_is_located(valid, target):
    blob, path = valid[target]
    for mutant in structural_mutants(blob):
        load_mutant(target, path, mutant)


@pytest.mark.parametrize("target", TARGETS)
@settings(derandomize=True, max_examples=500, deadline=None, database=None)
@given(data=st.data())
def test_mutant_loads_or_is_located(valid, target, data):
    blob, path = valid[target]
    load_mutant(target, path, data.draw(mutants(blob), label="mutant"))
