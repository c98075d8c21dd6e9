"""Binary model checkpoints.

Layout: magic ``QTIP`` (4 bytes) | format version, u32 little-endian |
header length, u64 little-endian | UTF-8 JSON header | payload.  The header
holds ``{"config": ..., "manifest": [...]}`` with the manifest sorted by
parameter name; the payload is the concatenation of every parameter as
little-endian float32, at the byte offsets the manifest declares.  JSON is
serialized canonically (sorted keys, no whitespace), so save -> load -> save
reproduces the file byte for byte.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import struct
from typing import Mapping

import numpy as np

from .config import json_type_mismatch, without_retired_keys
from .models import FAMILIES

MAGIC = b"QTIP"
FORMAT_VERSION = 1
_PREAMBLE = struct.Struct("<4sIQ")


class CheckpointError(ValueError):
    pass


def _canonical_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False).encode("utf-8")


def model_from_config(config: Mapping):
    """Instantiate an untrained model from a checkpoint config snapshot.

    Each field must hold a JSON value of its declared type and pass the
    family config's checks, and a retired key its one value; anything else
    raises ``CheckpointError`` naming the field.
    """
    if not isinstance(config, Mapping):
        raise CheckpointError(f"config is not a JSON object, got {config!r}")
    config = without_retired_keys(config, CheckpointError)
    family = config.get("family")
    cls = FAMILIES.get(family) if isinstance(family, str) else None
    if cls is None:
        raise CheckpointError(f"config field family has unknown value {family!r}")
    kwargs = {}
    for f in dataclasses.fields(cls.Config):
        if f.name not in config:
            raise CheckpointError(f"config is missing field {f.name}")
        value = config[f.name]
        lacking = json_type_mismatch(f.type, value)
        if lacking:
            raise CheckpointError(f"config field {f.name} must be {lacking}, got {value!r}")
        kwargs[f.name] = value
    try:
        model_config = cls.Config(**kwargs)
    except ValueError as exc:
        raise CheckpointError(f"config is invalid: {exc}") from None
    return cls(model_config)


def save_checkpoint(model, config: Mapping, path: str) -> None:
    """Write ``model``'s parameters with ``config`` stored verbatim.

    ``config`` must contain the model-architecture fields ``load_checkpoint``
    needs to rebuild the model (``model.config_dict()`` provides them).  The
    bytes go to a temporary file beside ``path`` that then replaces it, so a
    failed save leaves any earlier file at ``path`` whole.
    """
    params = sorted(model.params.parameters(), key=lambda p: p.name)
    manifest = []
    chunks = []
    offset = 0
    for p in params:
        raw = np.ascontiguousarray(p.tensor.data, dtype="<f4").tobytes()
        manifest.append(
            {
                "name": p.name,
                "shape": list(p.tensor.data.shape),
                "offset": offset,
                "len": len(raw),
            }
        )
        chunks.append(raw)
        offset += len(raw)
    header = _canonical_json({"config": dict(config), "manifest": manifest})
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(_PREAMBLE.pack(MAGIC, FORMAT_VERSION, len(header)))
            fh.write(header)
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):  # the write failed before the replace
            os.remove(tmp)


def _parse_header(blob: bytes) -> tuple[dict, bytes]:
    if len(blob) < _PREAMBLE.size:
        raise CheckpointError(
            f"truncated preamble: need {_PREAMBLE.size} bytes, got {len(blob)}"
        )
    magic, version, header_len = _PREAMBLE.unpack_from(blob)
    if magic != MAGIC:
        raise CheckpointError(f"bad magic {magic!r}, expected {MAGIC!r}")
    if version != FORMAT_VERSION:
        raise CheckpointError(f"unsupported format version {version}")
    end = _PREAMBLE.size + header_len
    if end > len(blob):
        raise CheckpointError(
            f"header length {header_len} exceeds file size {len(blob)}"
        )
    try:
        header = json.loads(blob[_PREAMBLE.size : end].decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, an integer past the digit limit, or deep nesting
        raise CheckpointError(f"header is not valid JSON: {exc}") from None
    if not isinstance(header, dict):
        raise CheckpointError("header is not a JSON object")
    for key in ("config", "manifest"):
        if key not in header:
            raise CheckpointError(f"header missing field {key}")
    return header, blob[end:]


def _validate_manifest(manifest, payload_len: int) -> None:
    """Each entry is well typed, and the entries tile the payload in order, as ``save_checkpoint`` writes them."""
    if not isinstance(manifest, list):
        raise CheckpointError("manifest is not a list")
    total = 0  # where the entries so far end: the next entry's offset
    for entry in manifest:
        for key in ("name", "shape", "offset", "len"):
            if not isinstance(entry, dict) or key not in entry:
                raise CheckpointError(f"manifest entry missing field {key}")
        name, shape, offset, length = entry["name"], entry["shape"], entry["offset"], entry["len"]
        if not isinstance(name, str):
            raise CheckpointError(f"manifest entry name must be a string, got {name!r}")
        if not isinstance(shape, list) or any(json_type_mismatch("int", n) or n < 0 for n in shape):
            raise CheckpointError(f"manifest entry {name}: shape must be a list of sizes, got {shape!r}")
        for key, value in (("offset", offset), ("len", length)):
            if json_type_mismatch("int", value):
                raise CheckpointError(f"manifest entry {name}: {key} must be an integer, got {value!r}")
        if length != 4 * math.prod(shape):
            raise CheckpointError(
                f"manifest entry {name}: len {length} does not match shape {shape}"
            )
        if offset != total:
            raise CheckpointError(
                f"manifest entry {name}: offset {offset} is not {total}, where the entries before it end"
            )
        if offset + length > payload_len:
            raise CheckpointError(
                f"manifest entry {name}: offset {offset} len {length} "
                f"outside payload of {payload_len} bytes"
            )
        total += length
    if total != payload_len:
        raise CheckpointError(
            f"payload has {payload_len} bytes but manifest expects {total}"
        )


def load_checkpoint(path: str):
    """Rebuild the saved model; returns ``(model, config)``."""
    with open(path, "rb") as fh:
        blob = fh.read()
    header, payload = _parse_header(blob)
    manifest = header["manifest"]
    _validate_manifest(manifest, len(payload))
    # float32 values cannot overflow a float64 sum, so it is finite exactly when every value
    # is; the sum needs no payload-sized temporary, and the parameter is located only on failure
    with np.errstate(invalid="ignore"):  # inf + -inf is nan, which the check wants
        total = np.frombuffer(payload, dtype="<f4").sum(dtype=np.float64)
    if not np.isfinite(total):
        for entry in manifest:
            raw = payload[entry["offset"] : entry["offset"] + entry["len"]]
            if not np.isfinite(np.frombuffer(raw, dtype="<f4")).all():
                raise CheckpointError(f"parameter {entry['name']}: non-finite values")
    model = model_from_config(header["config"])
    want = {p.name: p.tensor for p in model.params.parameters()}
    seen = set()
    for entry in manifest:
        name = entry["name"]
        if name not in want:
            raise CheckpointError(f"manifest has unknown parameter {name}")
        tensor = want[name]
        shape = tuple(entry["shape"])
        if shape != tensor.data.shape:
            raise CheckpointError(
                f"parameter {name}: checkpoint shape {list(shape)} does not match "
                f"model shape {list(tensor.data.shape)}"
            )
        raw = payload[entry["offset"] : entry["offset"] + entry["len"]]
        values = np.frombuffer(raw, dtype="<f4").reshape(shape)
        tensor.data = values.astype(tensor.data.dtype)
        seen.add(name)
    missing = sorted(set(want) - seen)
    if missing:
        raise CheckpointError(f"manifest is missing parameter {missing[0]}")
    return model, header["config"]
