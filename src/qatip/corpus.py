"""Dataset ingestion for (review, query, tip) triplets.

Covers tokenization, vocabulary construction, id encoding, deterministic
train/valid/test splitting and padded batch assembly.  Everything here is
pure and reproducible: the shuffle PRNG is a fixed 64-bit LCG so splits and
batch orders are identical across runs and platforms.
"""

from __future__ import annotations

import hashlib
import json
import re
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .config import TOKENIZE_MODES

PAD, BOS, EOS, UNK = "<pad>", "<bos>", "<eos>", "<unk>"
PAD_ID, BOS_ID, EOS_ID, UNK_ID = 0, 1, 2, 3
RESERVED_TOKENS = (PAD, BOS, EOS, UNK)

# Corpus tokens that textually collide with a reserved marker (or with an
# already-escaped form of one) get a leading underscore so token<->id stays
# a bijection.
_RESERVED_PATTERN = re.compile(r"_*<(?:pad|bos|eos|unk)>\Z")


class DatasetError(ValueError):
    """Raised for malformed dataset files or invalid corpus inputs."""


def escape_reserved(token: str) -> str:
    if _RESERVED_PATTERN.match(token):
        return "_" + token
    return token


def tokenize(text: str, mode: str = "whitespace") -> list[str]:
    """Split ``text`` into tokens.

    ``whitespace`` lowercases and splits on Unicode whitespace (per-word
    English statistics); ``char`` yields one token per non-whitespace
    character (per-character Chinese statistics).  Empty text gives [].
    """
    if mode == "whitespace":
        return text.lower().split()
    if mode == "char":
        return [ch for ch in text if not ch.isspace()]
    raise ValueError(f"unknown tokenize mode: {mode!r}, expected one of {TOKENIZE_MODES}")


def detokenize(tokens: Sequence[str], mode: str = "whitespace") -> str:
    """Inverse of :func:`tokenize` up to whitespace normalization."""
    sep = " " if mode == "whitespace" else ""
    return sep.join(tokens)


class Vocabulary:
    """Bijective token<->id map with ids 0..3 reserved for PAD/BOS/EOS/UNK."""

    def __init__(self, tokens: Sequence[str]):
        if tuple(tokens[:4]) != RESERVED_TOKENS:
            raise ValueError("vocabulary must start with the four reserved tokens")
        self.id_to_token: list[str] = list(tokens)
        self.token_to_id: dict[str, int] = {t: i for i, t in enumerate(tokens)}
        if len(self.token_to_id) != len(self.id_to_token):
            dup = next(t for i, t in enumerate(tokens) if self.token_to_id[t] != i)
            raise ValueError(f"vocabulary contains duplicate token {dup!r}")

    @property
    def size(self) -> int:
        return len(self.id_to_token)

    def __len__(self) -> int:
        return len(self.id_to_token)

    def lookup(self, token: str) -> int:
        return self.token_to_id.get(token, UNK_ID)

    def decode(self, ids: Iterable[int]) -> list[str]:
        return [self.id_to_token[i] for i in ids]

    def fingerprint(self) -> str:
        """SHA-256 of the token list as ``save`` writes it, one token per line."""
        return hashlib.sha256("".join(t + "\n" for t in self.id_to_token).encode("utf-8")).hexdigest()

    def save(self, path) -> None:
        # load ends a line at a line feed or carriage return and refuses an empty one
        bad = next((t for t in self.id_to_token if not t or "\n" in t or "\r" in t), None)
        if bad is not None:
            raise ValueError(f"cannot save token {bad!r}: it is empty or holds a line break")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("".join(t + "\n" for t in self.id_to_token))

    @classmethod
    def load(cls, path) -> "Vocabulary":
        ids: dict[str, int] = {}  # token -> the line it is on; one token per line
        for lineno, token in read_lines(path, DatasetError):
            if lineno <= len(RESERVED_TOKENS) and token != RESERVED_TOKENS[lineno - 1]:
                break
            if not token:
                raise DatasetError(f"{path} line {lineno}: empty token")
            if ids.setdefault(token, lineno) != lineno:
                raise DatasetError(f"{path} line {lineno}: vocabulary contains duplicate token {token!r}")
        if len(ids) < len(RESERVED_TOKENS):
            expected = ", ".join(RESERVED_TOKENS)
            raise DatasetError(f"{path} line {len(ids) + 1}: vocabulary file must begin with {expected}")
        return cls(list(ids))


def build_vocab(
    token_streams: Iterable[Sequence[str]], min_freq: int = 1, max_size: int = 50000
) -> Vocabulary:
    """Build a vocabulary from token sequences.

    Tokens with corpus frequency >= ``min_freq`` are ranked by
    (frequency desc, token asc) and truncated to ``max_size - 4`` entries
    after the reserved tokens.  Rebuilding on the same corpus gives a
    byte-identical id assignment.
    """
    if min_freq < 1:
        raise ValueError("min_freq must be >= 1")
    if max_size < 5:
        raise ValueError("max_size must be >= 5 (four ids are reserved)")
    counts: Counter[str] = Counter()
    for stream in token_streams:
        counts.update(escape_reserved(t) for t in stream)
    ranked = sorted(
        (t for t, c in counts.items() if c >= min_freq),
        key=lambda t: (-counts[t], t),
    )
    return Vocabulary(list(RESERVED_TOKENS) + ranked[: max_size - 4])


def vocab_from_records(
    records: Sequence[dict], mode: str = "whitespace", min_freq: int = 1, max_size: int = 50000
) -> Vocabulary:
    """Vocabulary over the review, query and tip text of raw records."""
    streams = []
    for rec in records:
        for fld in ("review", "query", "tip"):
            streams.append(tokenize(rec.get(fld, ""), mode))
    return build_vocab(streams, min_freq=min_freq, max_size=max_size)


def encode(
    tokens: Sequence[str], vocab: Vocabulary, max_len: int, add_bos_eos: bool = False
) -> list[int]:
    """Map tokens to ids, truncate to ``max_len``, optionally frame with BOS/EOS.

    Unknown tokens map to UNK.  Truncation happens before EOS appending, so a
    framed sequence has at most ``max_len + 2`` ids.  PAD is never inserted.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    ids = [vocab.lookup(escape_reserved(t)) for t in tokens[:max_len]]
    if add_bos_eos:
        return [BOS_ID] + ids + [EOS_ID]
    return ids


@dataclass(frozen=True)
class Triplet:
    """One encoded (review, query, tip) record.

    ``tip_ids`` is BOS-framed and EOS-terminated when a tip is present and
    empty in inference mode; review/query ids never contain BOS or EOS.
    """

    review_ids: tuple[int, ...]
    query_ids: tuple[int, ...]
    tip_ids: tuple[int, ...]
    raw_review: str
    raw_query: str
    raw_tip: str
    record_id: str | None = None


def encode_records(
    records: Sequence[dict],
    vocab: Vocabulary,
    review_max_len: int,
    query_max_len: int,
    tip_max_len: int,
    mode: str = "whitespace",
    inference: bool = False,
) -> list[Triplet]:
    triplets = []
    for rec in records:
        tip_text = rec.get("tip", "")
        tip_tokens = tokenize(tip_text, mode)
        if tip_tokens:
            tip_ids = tuple(encode(tip_tokens, vocab, tip_max_len, add_bos_eos=True))
        elif inference:
            tip_ids = ()
        else:
            raise DatasetError("record without a tip outside inference mode")
        triplets.append(
            Triplet(
                review_ids=tuple(encode(tokenize(rec["review"], mode), vocab, review_max_len)),
                query_ids=tuple(encode(tokenize(rec["query"], mode), vocab, query_max_len)),
                tip_ids=tip_ids,
                raw_review=rec["review"],
                raw_query=rec["query"],
                raw_tip=tip_text,
                record_id=rec.get("id"),
            )
        )
    return triplets


def read_lines(path, error: type[Exception]) -> Iterator[tuple[int, str]]:
    """Yield ``(line number, line without its newline)`` for each line of a UTF-8 text file.

    A line ends at a line feed, a carriage return or the pair.  Undecodable bytes
    raise ``error`` as ``<path> line <n>: invalid UTF-8 at character <k>``.
    """
    # undecodable bytes come through as lone surrogates, so the line holding them is known
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError as exc:
                raise error(f"{path} line {lineno}: invalid UTF-8 at character {exc.start + 1}") from None
            yield lineno, line.rstrip("\n")


_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def read_jsonl(path, error: type[Exception]) -> Iterator[tuple[int, dict]]:
    """Yield ``(line number, record)`` for each non-blank line of a JSON-lines file.

    A line that is not a JSON object, or whose strings hold a lone surrogate
    (a ``\\ud800`` escape without its pair), raises ``error`` as ``<path> line <n>: <what>``.
    """
    for lineno, line in read_lines(path, error):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise error(f"{path} line {lineno}: invalid JSON: {exc.msg}") from None
        except (ValueError, RecursionError) as exc:  # an integer past the digit limit, or deep nesting
            raise error(f"{path} line {lineno}: invalid JSON: {exc}") from None
        if not isinstance(rec, dict):
            raise error(f"{path} line {lineno}: record is not a JSON object")
        if _SURROGATE_ESCAPE.search(line):  # only an escape can spell a lone surrogate
            try:
                json.dumps(rec, ensure_ascii=False).encode("utf-8")
            except UnicodeEncodeError as exc:
                code = ord(exc.object[exc.start])
                raise error(f"{path} line {lineno}: string holds a lone surrogate U+{code:04X}") from None
        yield lineno, rec


def write_jsonl(records: Iterable[dict], path) -> None:
    """Write one JSON object per line, non-ASCII text kept as UTF-8."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")


def load_jsonl(path, inference: bool = False) -> list[dict]:
    """Read one JSON record per line with fields review/query/tip.

    Records missing review or query (or with empty/blank values) are rejected
    with a line-numbered error.  An empty tip is allowed only with
    ``inference=True``.  The optional string field ``id`` is passed through.
    """
    records = []
    for lineno, rec in read_jsonl(path, DatasetError):
        for fld in ("review", "query", "tip"):
            value = rec.get(fld)
            if isinstance(value, str) and value.strip():
                continue
            if fld == "tip" and inference:
                rec["tip"] = ""
                continue
            raise DatasetError(f"{path} line {lineno}: {'empty' if fld in rec else 'missing'} field {fld}")
        if "id" in rec and not isinstance(rec["id"], str):
            raise DatasetError(f"{path} line {lineno}: field id must be a string")
        records.append(rec)
    return records


# Fixed 64-bit linear congruential generator; shuffles are reproducible
# across implementations (Fisher-Yates drawing the high 32 bits of each
# state, reduced modulo the remaining prefix length).
_LCG_MUL = 6364136223846793005
_LCG_INC = 1442695040888963407
_MASK64 = (1 << 64) - 1


def lcg_shuffle(items: Sequence, seed: int) -> list:
    out = list(items)
    state = seed & _MASK64
    for i in range(len(out) - 1, 0, -1):
        state = (state * _LCG_MUL + _LCG_INC) & _MASK64
        j = (state >> 32) % (i + 1)
        out[i], out[j] = out[j], out[i]
    return out


@dataclass(frozen=True)
class DatasetSplit:
    """Disjoint 80/10/10 split; remainders go to train."""

    train: list
    valid: list
    test: list


def split_dataset(records: Sequence, seed: int) -> DatasetSplit:
    n = len(records)
    if n < 10:
        raise DatasetError(f"need at least 10 records to split, got {n}")
    shuffled = lcg_shuffle(records, seed)
    n_valid = n // 10
    n_test = n // 10
    n_train = n - n_valid - n_test
    return DatasetSplit(
        train=shuffled[:n_train],
        valid=shuffled[n_train : n_train + n_valid],
        test=shuffled[n_train + n_valid :],
    )


@dataclass
class Batch:
    """PAD-filled id matrices for one training batch.

    Tip matrices are teacher-forcing aligned: ``tip_target[i, t]`` equals
    ``tip_input[i, t + 1]`` for every step before the last, with the final
    target being EOS.  Declared lengths equal the count of non-PAD positions.
    """

    review: np.ndarray
    review_lengths: np.ndarray
    query: np.ndarray
    query_lengths: np.ndarray
    tip_input: np.ndarray
    tip_target: np.ndarray
    tip_lengths: np.ndarray

    @property
    def size(self) -> int:
        return self.review.shape[0]


def pad_matrix(rows: list[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """(ids (B, width), lengths): rows padded with PAD to at least one column."""
    lengths = np.array([len(r) for r in rows], dtype=np.int64)
    width = max(1, int(lengths.max()))
    mat = np.full((len(rows), width), PAD_ID, dtype=np.int64)
    for i, r in enumerate(rows):
        mat[i, : len(r)] = r
    return mat, lengths


def make_batch(triplets: Sequence[Triplet]) -> Batch:
    for t in triplets:
        if len(t.tip_ids) < 2:
            raise DatasetError("cannot batch a triplet without an encoded tip")
    review, review_lengths = pad_matrix([t.review_ids for t in triplets])
    query, query_lengths = pad_matrix([t.query_ids for t in triplets])
    # tip_ids is [BOS, t1..tm, EOS]; input drops EOS, target drops BOS
    tip_in, tip_lengths = pad_matrix([t.tip_ids[:-1] for t in triplets])
    tip_tgt, _ = pad_matrix([t.tip_ids[1:] for t in triplets])
    return Batch(
        review=review,
        review_lengths=review_lengths,
        query=query,
        query_lengths=query_lengths,
        tip_input=tip_in,
        tip_target=tip_tgt,
        tip_lengths=tip_lengths,
    )


def make_batches(
    triplets: Sequence[Triplet], batch_size: int, shuffle_seed: int | None = None
) -> list[Batch]:
    """Chunk triplets into batches; the last batch may be smaller.

    With ``shuffle_seed`` the order is a deterministic LCG permutation,
    otherwise corpus order is kept.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    items = list(triplets)
    if shuffle_seed is not None:
        items = lcg_shuffle(items, shuffle_seed)
    return [make_batch(items[i : i + batch_size]) for i in range(0, len(items), batch_size)]
