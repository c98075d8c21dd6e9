import dataclasses
import json
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qatip.checkpoint import (
    CheckpointError,
    load_checkpoint,
    model_from_config,
    save_checkpoint,
)
from qatip.corpus import Triplet, make_batch
from qatip.rnn import QaRnnModel, RnnConfig
from qatip.transformer import QaTransformerModel, TransformerConfig


def tiny_transformer(seed=11):
    cfg = TransformerConfig(
        vocab_size=13, model_dim=8, num_heads=2, num_layers=1,
        ffn_dim=16, dropout=0.0, variant="both", max_len=32,
    )
    return QaTransformerModel(cfg, seed=seed)


def tiny_rnn(seed=12):
    return QaRnnModel(RnnConfig(vocab_size=13, emb_dim=4, hidden_dim=3, variant="qa_dec"), seed=seed)


def tiny_batch():
    trips = [
        Triplet((5, 6, 7), (8,), (1, 9, 10, 2), "", "", "", "a"),
        Triplet((7, 5), (9, 4), (1, 11, 2), "", "", "", "b"),
    ]
    return make_batch(trips)


def save_path(tmp_path, name="model.qtip"):
    return str(tmp_path / name)


def test_round_trip_preserves_parameters(tmp_path):
    model = tiny_transformer()
    path = save_path(tmp_path)
    save_checkpoint(model, model.config_dict(), path)
    loaded, config = load_checkpoint(path)
    assert config["family"] == "transformer"
    want = {p.name: p.tensor.data for p in model.params.parameters()}
    got = {p.name: p.tensor.data for p in loaded.params.parameters()}
    assert sorted(want) == sorted(got)
    for name in want:
        np.testing.assert_array_equal(want[name], got[name])


def test_round_trip_preserves_logits_bitwise(tmp_path):
    for build in (tiny_transformer, tiny_rnn):
        model = build()
        batch = tiny_batch()
        before = model.forward(batch).data.copy()
        path = save_path(tmp_path, f"{model.family}.qtip")
        save_checkpoint(model, model.config_dict(), path)
        loaded, _ = load_checkpoint(path)
        after = loaded.forward(batch).data
        assert np.array_equal(before, after)


def test_save_load_save_byte_identical(tmp_path):
    model = tiny_rnn()
    first = save_path(tmp_path, "first.qtip")
    second = save_path(tmp_path, "second.qtip")
    config = {**model.config_dict(), "run": {"lr": 0.001, "note": "x"}}
    save_checkpoint(model, config, first)
    loaded, loaded_config = load_checkpoint(first)
    save_checkpoint(loaded, loaded_config, second)
    assert open(first, "rb").read() == open(second, "rb").read()


def test_payload_flip_loads_but_stays_byte_stable(tmp_path):
    model = tiny_rnn()
    first = save_path(tmp_path, "first.qtip")
    save_checkpoint(model, model.config_dict(), first)
    blob = bytearray(open(first, "rb").read())
    blob[-3] ^= 0x41
    flipped = save_path(tmp_path, "flipped.qtip")
    open(flipped, "wb").write(bytes(blob))
    loaded, config = load_checkpoint(flipped)
    resaved = save_path(tmp_path, "resaved.qtip")
    save_checkpoint(loaded, config, resaved)
    assert open(flipped, "rb").read() == open(resaved, "rb").read()
    assert open(flipped, "rb").read() != open(first, "rb").read()


@pytest.mark.parametrize("bad", [(np.nan, 0.0), (np.inf, 0.0), (np.inf, -np.inf)])
def test_non_finite_parameter_is_located(tmp_path, bad):
    model = tiny_rnn()
    model.emb.data[2, :2] = bad
    path = save_path(tmp_path)
    save_checkpoint(model, model.config_dict(), path)
    with pytest.raises(CheckpointError, match=r"^parameter emb: non-finite values$"):
        load_checkpoint(path)


def test_header_flip_is_structured_error(tmp_path):
    model = tiny_rnn()
    path = save_path(tmp_path)
    save_checkpoint(model, model.config_dict(), path)
    blob = bytearray(open(path, "rb").read())
    blob[1] ^= 0xFF  # inside the magic
    bad = save_path(tmp_path, "bad.qtip")
    open(bad, "wb").write(bytes(blob))
    with pytest.raises(CheckpointError, match="bad magic"):
        load_checkpoint(bad)


def test_version_check(tmp_path):
    model = tiny_rnn()
    path = save_path(tmp_path)
    save_checkpoint(model, model.config_dict(), path)
    blob = bytearray(open(path, "rb").read())
    blob[4:8] = struct.pack("<I", 99)
    open(path, "wb").write(bytes(blob))
    with pytest.raises(CheckpointError, match="version 99"):
        load_checkpoint(path)


def test_truncation_errors(tmp_path):
    model = tiny_rnn()
    path = save_path(tmp_path)
    save_checkpoint(model, model.config_dict(), path)
    blob = open(path, "rb").read()
    short = save_path(tmp_path, "short.qtip")
    open(short, "wb").write(blob[:10])
    with pytest.raises(CheckpointError, match="truncated preamble"):
        load_checkpoint(short)
    cut = save_path(tmp_path, "cut.qtip")
    open(cut, "wb").write(blob[:20])
    with pytest.raises(CheckpointError, match="header length"):
        load_checkpoint(cut)
    nopayload = save_path(tmp_path, "nopayload.qtip")
    header_len = struct.unpack_from("<Q", blob, 8)[0]
    open(nopayload, "wb").write(blob[: 16 + header_len + 8])
    with pytest.raises(CheckpointError, match="payload|offset"):
        load_checkpoint(nopayload)


def test_header_json_corruption(tmp_path):
    model = tiny_rnn()
    path = save_path(tmp_path)
    save_checkpoint(model, model.config_dict(), path)
    blob = bytearray(open(path, "rb").read())
    blob[16] = ord("X")  # first header byte: breaks the JSON object
    open(path, "wb").write(bytes(blob))
    with pytest.raises(CheckpointError, match="not valid JSON"):
        load_checkpoint(path)


@pytest.mark.parametrize("header, match", [
    (b"[" * 100_000, "maximum recursion depth exceeded"),
    (b'{"config":' + b"9" * 5000 + b',"manifest":[]}', r"Exceeds the limit \(4300 digits\)"),
], ids=["nested-past-the-recursion-limit", "integer-past-the-digit-limit"])
def test_header_the_json_parser_refuses_is_a_checkpoint_error(tmp_path, header, match):
    path = save_path(tmp_path)
    open(path, "wb").write(struct.pack("<4sIQ", b"QTIP", 1, len(header)) + header)
    with pytest.raises(CheckpointError, match=f"^header is not valid JSON: {match}"):
        load_checkpoint(path)


def rewritten_header(tmp_path, model, edit):
    """Save ``model``, apply ``edit`` to the parsed header, and write the file back around the same payload."""
    path = save_path(tmp_path)
    save_checkpoint(model, model.config_dict(), path)
    blob = open(path, "rb").read()
    header_len = struct.unpack_from("<Q", blob, 8)[0]
    header = json.loads(blob[16 : 16 + header_len])
    edit(header)
    raw = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    out = save_path(tmp_path, "edited.qtip")
    open(out, "wb").write(blob[:8] + struct.pack("<Q", len(raw)) + raw + blob[16 + header_len :])
    return out


def test_manifest_shape_mismatch(tmp_path):
    def edit(header):
        header["manifest"][0]["shape"][0] += 1

    with pytest.raises(CheckpointError, match="does not match shape"):
        load_checkpoint(rewritten_header(tmp_path, tiny_rnn(), edit))


def test_missing_header_fields(tmp_path):
    def edit(header):
        del header["manifest"]

    with pytest.raises(CheckpointError, match="missing field manifest"):
        load_checkpoint(rewritten_header(tmp_path, tiny_rnn(), edit))


@pytest.mark.parametrize("name, field, change, match", [
    # a shifted entry would read its neighbour's bytes
    ("dec.0.cross.wo", "offset", lambda v: v + 4,
     r"entry dec\.0\.cross\.wo: offset \d+ is not \d+, where the entries before it end"),
    ("dec.0.cross.wo", "offset", lambda v: v - 4, r"entry dec\.0\.cross\.wo: offset \d+ is not \d+"),
    ("dec.0.cross.wo", "offset", float, r"entry dec\.0\.cross\.wo: offset must be an integer, got \d+\.0$"),
    ("dec.0.cross.wo", "len", float, r"entry dec\.0\.cross\.wo: len must be an integer, got 256\.0$"),
    ("dec.0.cross.wo", "shape", lambda v: [float(v[0])] + v[1:],
     r"entry dec\.0\.cross\.wo: shape must be a list of sizes, got \[8\.0, 8\]$"),
    ("dec.0.cross.wo", "shape", lambda v: [-n for n in v], r"shape must be a list of sizes, got \[-8, -8\]$"),
    ("dec.0.cross.wo", "shape", lambda v: "8x8", r"shape must be a list of sizes, got '8x8'$"),
    ("dec.0.cross.wo", "name", lambda v: 7, r"manifest entry name must be a string, got 7$"),
], ids=["shifted-later", "shifted-earlier", "float-offset", "float-len", "float-shape", "negative-shape",
        "string-shape", "int-name"])
def test_ill_typed_or_misplaced_manifest_entry_is_located(tmp_path, name, field, change, match):
    def edit(header):
        entry = next(e for e in header["manifest"] if e["name"] == name)
        entry[field] = change(entry[field])

    with pytest.raises(CheckpointError, match=match):
        load_checkpoint(rewritten_header(tmp_path, tiny_transformer(), edit))


def test_boolean_offset_is_not_an_integer(tmp_path):
    def edit(header):
        header["manifest"][0]["offset"] = False  # the first entry's offset, 0, which False equals

    with pytest.raises(CheckpointError, match=r"entry \S+: offset must be an integer, got False$"):
        load_checkpoint(rewritten_header(tmp_path, tiny_transformer(), edit))


def test_model_from_config_validation():
    with pytest.raises(CheckpointError, match="family"):
        model_from_config({"family": "mystery"})
    with pytest.raises(CheckpointError, match="missing field"):
        model_from_config({"family": "rnn", "vocab_size": 13})


@pytest.mark.parametrize("make, field, value, match", [
    (tiny_rnn, "hidden_dim", "4", "hidden_dim must be an integer, got '4'"),
    (tiny_rnn, "hidden_dim", 4.5, "hidden_dim must be an integer"),
    (tiny_rnn, "hidden_dim", True, "hidden_dim must be an integer"),
    (tiny_rnn, "vocab_size", None, "vocab_size must be an integer"),
    (tiny_rnn, "vocab_size", -3, "vocab_size has invalid value -3"),
    (tiny_rnn, "emb_dim", 0, "emb_dim has invalid value 0"),
    (tiny_rnn, "dropout", "x", "dropout must be a number"),
    (tiny_rnn, "dropout", float("nan"), "dropout has invalid value nan"),
    (tiny_rnn, "variant", "9oth", "unknown variant '9oth'"),
    (tiny_transformer, "max_len", -1, "max_len has invalid value -1"),
    (tiny_transformer, "num_heads", 0, "num_heads has invalid value 0"),
    (tiny_transformer, "num_heads", 3, "model_dim 8 not divisible by num_heads 3"),
    (tiny_transformer, "tie_output", "yes", r"tie_output must be True \(the option is retired\), got 'yes'$"),
    (tiny_transformer, "share_query_block", 1, r"share_query_block must be True \(the option is retired\), got 1$"),
])
def test_ill_typed_config_field_is_located(tmp_path, make, field, value, match):
    model = make()
    config = {**model.config_dict(), field: value}
    with pytest.raises(CheckpointError, match=match):
        model_from_config(config)
    path = save_path(tmp_path)
    save_checkpoint(model, config, path)  # the header holds the field as written
    with pytest.raises(CheckpointError, match=match):
        load_checkpoint(path)


# for each field of both family configs, values outside the one value rule of ``check_model_config``
OUT_OF_RULE = {"int": (0, -1), "float": (-0.1, 1.0, float("nan")), "str": ("9oth",)}
MODEL_SETTING_CASES = [
    pytest.param(make, f.name, value, id=f"{make.__name__}-{f.name}={value}")
    for make, cls in ((tiny_rnn, RnnConfig), (tiny_transformer, TransformerConfig))
    for f in dataclasses.fields(cls)
    for value in OUT_OF_RULE[f.type]
    if (f.name, value) != ("ffn_dim", 0)  # 0 selects 4 * model_dim
]


@pytest.mark.parametrize("make, field, value", MODEL_SETTING_CASES)
def test_model_setting_outside_the_rule_is_refused_built_or_loaded(tmp_path, make, field, value):
    model = make()
    config = {**model.config_dict(), field: value}
    with pytest.raises(ValueError) as built:
        type(model.config)(**{k: v for k, v in config.items() if k != "family"})
    message = str(built.value)
    assert field in re.findall(r"\w+", message)
    path = save_path(tmp_path)
    save_checkpoint(model, config, path)
    with pytest.raises(CheckpointError, match=f"^config is invalid: {re.escape(message)}$"):
        load_checkpoint(path)


RETIRED_AT_THEIR_VALUES = {"tie_output": True, "share_query_block": True, "query_block_depth": 1}


def test_retired_keys_at_their_values_load(tmp_path):
    model = tiny_transformer()
    path = save_path(tmp_path)
    save_checkpoint(model, {**model.config_dict(), **RETIRED_AT_THEIR_VALUES}, path)
    loaded, config = load_checkpoint(path)
    assert config["tie_output"] is True  # the header is returned as written
    assert loaded.params.names() == model.params.names()
    for p, q in zip(model.params.parameters(), loaded.params.parameters()):
        np.testing.assert_array_equal(p.tensor.data, q.tensor.data)


@pytest.mark.parametrize("key, value, want", [
    ("tie_output", False, True), ("share_query_block", False, True),
    ("query_block_depth", 2, 1), ("query_block_depth", True, 1),
])
def test_retired_key_at_another_value_is_refused(tmp_path, key, value, want):
    model = tiny_transformer()
    config = {**model.config_dict(), **RETIRED_AT_THEIR_VALUES, key: value}
    match = rf"^{key} must be {want} \(the option is retired\), got {value}$"
    with pytest.raises(CheckpointError, match=match):
        model_from_config(config)
    path = save_path(tmp_path)
    save_checkpoint(model, config, path)
    with pytest.raises(CheckpointError, match=match):
        load_checkpoint(path)


@pytest.mark.parametrize("config", [5, [], "transformer", None])
def test_config_that_is_not_an_object_is_located(tmp_path, config):
    def edit(header):
        header["config"] = config

    with pytest.raises(CheckpointError, match=r"^config is not a JSON object, got "):
        load_checkpoint(rewritten_header(tmp_path, tiny_rnn(), edit))


def test_extra_config_keys_are_preserved(tmp_path):
    model = tiny_rnn()
    path = save_path(tmp_path)
    config = {**model.config_dict(), "run": {"seed": 5}, "note": "hello"}
    save_checkpoint(model, config, path)
    _, loaded = load_checkpoint(path)
    assert loaded["note"] == "hello"
    assert loaded["run"] == {"seed": 5}


class TornFile:
    """A writable file whose second write fails, as a crash mid-save would."""

    def __init__(self, fh):
        self.fh, self.writes = fh, 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.writes += 1
        if self.writes == 2:
            raise OSError("disk full")
        return self.fh.write(data)


def test_failed_save_leaves_previous_file_whole(tmp_path, monkeypatch):
    import qatip.checkpoint

    path = save_path(tmp_path)
    old = tiny_transformer(seed=1)
    save_checkpoint(old, old.config_dict(), path)
    before = open(path, "rb").read()
    real_open = open
    monkeypatch.setattr(qatip.checkpoint, "open",
                        lambda *args, **kwargs: TornFile(real_open(*args, **kwargs)), raising=False)
    new = tiny_transformer(seed=2)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(new, new.config_dict(), path)
    monkeypatch.undo()
    assert open(path, "rb").read() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.qtip"]


# ---------------------------------------------------------------------------
# fuzzing: every truncation and single-byte overwrites of the preamble and header


FUZZ_FAMILIES = {"rnn": tiny_rnn, "transformer": tiny_transformer}


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """Per family, the bytes of a saved checkpoint and a path to write mutants to."""
    out = {}
    for family, build in FUZZ_FAMILIES.items():
        folder = tmp_path_factory.mktemp(family)
        model = build()
        path = str(folder / "model.qtip")
        save_checkpoint(model, model.config_dict(), path)
        out[family] = (open(path, "rb").read(), str(folder / "mutant.qtip"))
    return out


def load_mutant(path, blob):
    """Load ``blob`` from ``path``: a clean load or a ``CheckpointError``, never another exception."""
    with open(path, "wb") as fh:
        fh.write(blob)
    try:
        load_checkpoint(path)
    except CheckpointError:
        return False
    return True


@pytest.mark.parametrize("family", FUZZ_FAMILIES)
def test_every_truncation_is_a_checkpoint_error(saved, family):
    blob, path = saved[family]
    loaded = [n for n in range(len(blob)) if load_mutant(path, blob[:n])]
    assert not loaded


@pytest.mark.parametrize("family", FUZZ_FAMILIES)
@settings(derandomize=True, max_examples=1000, deadline=None, database=None)
@given(data=st.data())
def test_header_byte_overwrite_loads_or_is_a_checkpoint_error(saved, family, data):
    blob, path = saved[family]
    header_end = 16 + struct.unpack_from("<Q", blob, 8)[0]
    at = data.draw(st.integers(0, header_end - 1), label="at")
    # any byte, or one of the bytes that keep JSON well formed more often (a digit turned into
    # "." or "e" makes a float of an integer field)
    value = data.draw(st.one_of(st.sampled_from(b'0123456789.e-"[]'), st.integers(0, 255)), label="value")
    load_mutant(path, blob[:at] + bytes([value]) + blob[at + 1:])
