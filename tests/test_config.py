import dataclasses
import json
import re
from pathlib import Path

import pytest

from qatip.config import (
    ConfigError,
    RunConfig,
    load_run_config,
    model_config_from_run,
    run_config_from_dict,
)


def write_config(tmp_path, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_defaults_match_documented_values():
    config = RunConfig()
    assert config.lr == 0.001
    assert config.batch_size == 128
    assert config.arch == "transformer"
    assert config.variant == "both"
    assert config.review_max_len == 150
    assert config.query_max_len == 5
    assert config.tip_max_len == 15
    assert config.grad_clip == 5.0


def test_load_round_trip(tmp_path):
    path = write_config(tmp_path, {"arch": "rnn", "epochs": 3, "lr": 0.01})
    config = load_run_config(path, check_paths=False)
    assert config.arch == "rnn"
    assert config.epochs == 3
    assert config.lr == 0.01
    assert config.batch_size == 128


def test_unknown_keys_rejected(tmp_path):
    path = write_config(tmp_path, {"learning_rate": 0.01})
    with pytest.raises(ConfigError, match="unknown config keys: learning_rate"):
        load_run_config(path)


def test_type_errors():
    with pytest.raises(ConfigError, match="epochs must be an integer"):
        run_config_from_dict({"epochs": 2.5})
    with pytest.raises(ConfigError, match="epochs must be an integer"):
        run_config_from_dict({"epochs": True})
    with pytest.raises(ConfigError, match="lr must be a number"):
        run_config_from_dict({"lr": "fast"})
    with pytest.raises(ConfigError, match="data must be a string"):
        run_config_from_dict({"data": 7})
    with pytest.raises(ConfigError, match="split_data must be a boolean"):
        run_config_from_dict({"split_data": 1})
    with pytest.raises(ConfigError, match="split_data must be a boolean"):
        run_config_from_dict({"split_data": "yes"})


def test_value_validation():
    with pytest.raises(ConfigError, match="arch"):
        run_config_from_dict({"arch": "cnn"})
    with pytest.raises(ConfigError, match="variant"):
        run_config_from_dict({"variant": "qa_all"})
    with pytest.raises(ConfigError, match="epochs"):
        run_config_from_dict({"epochs": -1})
    with pytest.raises(ConfigError, match="lr"):
        run_config_from_dict({"lr": 0.0})
    with pytest.raises(ConfigError, match="batch_size"):
        run_config_from_dict({"batch_size": 0})


def test_paths_must_exist(tmp_path):
    with pytest.raises(ConfigError, match="data path does not exist"):
        run_config_from_dict({"data": str(tmp_path / "missing.jsonl")})
    data = tmp_path / "present.jsonl"
    data.write_text("", encoding="utf-8")
    config = run_config_from_dict({"data": str(data)})
    assert config.data == str(data)


def test_not_an_object(tmp_path):
    path = tmp_path / "config.json"
    path.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(ConfigError, match="not a JSON object"):
        load_run_config(str(path))
    path.write_text("{broken", encoding="utf-8")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_run_config(str(path))


def test_int_accepted_for_float_key():
    config = run_config_from_dict({"lr": 1})
    assert config.lr == 1.0
    assert isinstance(config.lr, float)


def test_model_config_dispatch():
    run = run_config_from_dict(
        {"arch": "transformer", "model_dim": 32, "num_heads": 4, "num_layers": 2,
         "dropout": 0.0, "variant": "qa_enc"},
    )
    cfg = model_config_from_run(run, vocab_size=50)
    assert cfg.vocab_size == 50
    assert cfg.model_dim == 32
    assert cfg.variant == "qa_enc"
    assert cfg.max_len >= run.review_max_len + 2

    run = run_config_from_dict({"arch": "rnn", "emb_dim": 8, "hidden_dim": 6, "dropout": 0.0})
    cfg = model_config_from_run(run, vocab_size=50)
    assert cfg.vocab_size == 50
    assert cfg.emb_dim == 8
    assert cfg.hidden_dim == 6


def test_to_dict_round_trip():
    config = run_config_from_dict({"arch": "rnn", "seed": 9}, check_paths=False)
    again = run_config_from_dict(config.to_dict(), check_paths=False)
    assert again == config


def test_unknown_tokenize_mode_rejected():
    with pytest.raises(ConfigError, match="tokenize_mode must be one of"):
        run_config_from_dict({"tokenize_mode": "chars"})
    assert run_config_from_dict({"tokenize_mode": "char"}).tokenize_mode == "char"


@pytest.mark.parametrize("key, value", [
    ("grad_clip", 0.0), ("grad_clip", -1.0), ("grad_clip", float("nan")),
    ("dropout", -0.5), ("dropout", 1.0), ("beam_width", 0),
    ("lr", float("nan")), ("lr", float("inf")), ("length_alpha", float("nan")),
    ("length_alpha", float("inf")), ("model_dim", 0), ("num_heads", 0), ("num_layers", 0),
    ("emb_dim", 0), ("hidden_dim", 0), ("query_block_depth", 0), ("ffn_dim", -1),
])
def test_training_and_decoding_settings_rejected(key, value):
    with pytest.raises(ConfigError, match=f"^{key} must be"):
        run_config_from_dict({key: value})


def test_retired_keys_at_their_values_are_dropped():
    assert run_config_from_dict({"tie_output": True, "share_query_block": True, "query_block_depth": 1,
                                 "epochs": 3}) == RunConfig(epochs=3)


@pytest.mark.parametrize("key, value, want", [
    ("tie_output", False, True), ("share_query_block", False, True),
    ("query_block_depth", 2, 1), ("query_block_depth", True, 1), ("tie_output", 1, True),
])
def test_retired_key_at_another_value_rejected(key, value, want):
    with pytest.raises(ConfigError, match=rf"^{key} must be {want} \(the option is retired\), got {value}$"):
        run_config_from_dict({key: value})


def test_settings_at_their_bounds_accepted():
    config = run_config_from_dict({"grad_clip": 1e-6, "dropout": 0.0, "beam_width": 1})
    assert (config.grad_clip, config.dropout, config.beam_width) == (1e-6, 0.0, 1)


def test_readme_documents_every_run_config_key_with_its_default():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `(\w+)` \| `([^`]*)` \|", readme, flags=re.MULTILINE)
    documented = [(key, json.loads(default)) for key, default in rows]
    defaults = [(f.name, f.default) for f in dataclasses.fields(RunConfig)]
    assert documented == defaults
    assert [type(v) for _, v in documented] == [type(v) for _, v in defaults]  # 1 == True == 1.0
