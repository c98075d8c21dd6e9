"""Experiment configuration: a flat JSON document with typo-safe loading.

Every key has a default; unknown keys are rejected.  Paths given in the file
must exist when the config is loaded.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass

ARCHES = ("rnn", "transformer")
VARIANTS = ("vanilla", "qa_enc", "qa_dec", "both")
TOKENIZE_MODES = ("whitespace", "char")


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    arch: str = "transformer"
    variant: str = "both"
    data: str = ""
    vocab: str = ""
    tokenize_mode: str = "whitespace"
    review_max_len: int = 150
    query_max_len: int = 5
    tip_max_len: int = 15
    # optimization
    lr: float = 0.001
    batch_size: int = 128
    epochs: int = 10
    seed: int = 0
    grad_clip: float = 5.0
    split_data: bool = True
    # transformer dims
    model_dim: int = 512
    num_heads: int = 8
    num_layers: int = 6
    ffn_dim: int = 0
    # rnn dims
    emb_dim: int = 128
    hidden_dim: int = 256
    dropout: float = 0.1
    # decoding
    beam_width: int = 4
    length_alpha: float = 0.0

    def validate(self, check_paths: bool = True) -> "RunConfig":
        if self.arch not in ARCHES:
            raise ConfigError(f"arch must be one of {ARCHES}, got {self.arch!r}")
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.tokenize_mode not in TOKENIZE_MODES:
            raise ConfigError(
                f"tokenize_mode must be one of {TOKENIZE_MODES}, got {self.tokenize_mode!r}"
            )
        for key in ("review_max_len", "query_max_len", "tip_max_len", "batch_size", "model_dim",
                    "num_heads", "num_layers", "emb_dim", "hidden_dim"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be >= 1")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.ffn_dim < 0:
            raise ConfigError(f"ffn_dim must be >= 0, got {self.ffn_dim}")
        if not 0 < self.lr < math.inf:
            raise ConfigError(f"lr must be finite and > 0, got {self.lr}")
        if not self.grad_clip > 0:
            raise ConfigError(f"grad_clip must be > 0, got {self.grad_clip}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.beam_width < 1:
            raise ConfigError(f"beam_width must be >= 1, got {self.beam_width}")
        if not math.isfinite(self.length_alpha):
            raise ConfigError(f"length_alpha must be finite, got {self.length_alpha}")
        if check_paths:
            for key in ("data", "vocab"):
                path = getattr(self, key)
                if path and not os.path.exists(path):
                    raise ConfigError(f"{key} path does not exist: {path}")
        return self

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}

# removed options, each with the one value every run used; older configs and checkpoint headers hold them
RETIRED_KEYS = {"tie_output": True, "share_query_block": True, "query_block_depth": 1}


def without_retired_keys(doc: dict, error: type[ValueError] = ConfigError) -> dict:
    """``doc`` without its retired keys.  Each must hold its ``RETIRED_KEYS`` value, of the
    same type (JSON ``true`` is not 1); any other value raises ``error`` naming the key."""
    present = [key for key in RETIRED_KEYS if key in doc]
    for key in present:
        if type(doc[key]) is not type(RETIRED_KEYS[key]) or doc[key] != RETIRED_KEYS[key]:
            raise error(f"{key} must be {RETIRED_KEYS[key]!r} (the option is retired), got {doc[key]!r}")
    return {k: v for k, v in doc.items() if k not in RETIRED_KEYS} if present else doc


# the JSON values that can fill a dataclass field of each declared type
_JSON_TYPES = {
    "int": ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    "float": ("a number", lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)),
    "str": ("a string", lambda v: isinstance(v, str)),
    "bool": ("a boolean", lambda v: isinstance(v, bool)),
}


def json_type_mismatch(field_type: str, value) -> str | None:
    """What ``value`` should have been (say "an integer") to fill a field declared
    ``field_type``; None when it fits."""
    kind, fits = _JSON_TYPES[field_type]
    return None if fits(value) else kind


def run_config_from_dict(doc: dict, check_paths: bool = True) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config document is not a JSON object")
    doc = without_retired_keys(doc)
    unknown = sorted(set(doc) - set(_FIELDS))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    kwargs = {}
    for name, value in doc.items():
        want = _FIELDS[name].type
        lacking = json_type_mismatch(want, value)
        if lacking:
            raise ConfigError(f"config key {name} must be {lacking}")
        kwargs[name] = float(value) if want == "float" else value
    return RunConfig(**kwargs).validate(check_paths)


def load_run_config(path: str, check_paths: bool = True) -> RunConfig:
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        doc = json.loads(blob.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: invalid UTF-8 at byte {exc.start + 1}") from None
    except (ValueError, RecursionError) as exc:  # bad JSON, an integer past the digit limit, or deep nesting
        raise ConfigError(f"{path}: config file is not valid JSON: {exc}") from None
    return run_config_from_dict(doc, check_paths)


def model_config_from_run(config: RunConfig, vocab_size: int):
    """Model hyperparameters for the configured architecture."""
    from .models import FAMILIES

    return FAMILIES[config.arch].Config.from_run(config, vocab_size)
