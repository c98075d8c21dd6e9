"""Word-embedding tables in the word2vec text format.

A file is an optional header line ``"<count> <dim>"`` followed by one
``"<token> <v1> ... <vdim>"`` line per vector.  Files with and without the
header load identically.  Vectors are kept in float64 so downstream cosine
arithmetic is reproducible to tight tolerances.
"""

from __future__ import annotations

import warnings
from typing import Iterable

import numpy as np

from .corpus import read_lines


class EmbeddingTable:
    """Immutable token -> vector map with a single shared dimension."""

    def __init__(self, vectors: dict[str, np.ndarray], dim: int):
        if dim < 1:
            raise ValueError("embedding dim must be >= 1")
        for token, vec in vectors.items():
            if vec.shape != (dim,):
                raise ValueError(
                    f"vector for {token!r} has shape {vec.shape}, expected ({dim},)"
                )
        self._vectors = {t: np.asarray(v, dtype=np.float64) for t, v in vectors.items()}
        self.dim = dim

    def __contains__(self, token: str) -> bool:
        return token in self._vectors

    def __len__(self) -> int:
        return len(self._vectors)

    def get(self, token: str) -> np.ndarray | None:
        return self._vectors.get(token)

    def tokens(self) -> list[str]:
        return list(self._vectors)

    def pool(self, tokens: Iterable[str]) -> np.ndarray | None:
        """Elementwise max over the in-table token vectors.

        Out-of-table tokens are skipped; None when no token is in the table.
        """
        rows = [self._vectors[t] for t in tokens if t in self._vectors]
        if not rows:
            return None
        return np.max(np.stack(rows), axis=0)


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity; any zero-norm operand gives 0 by convention."""
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(np.dot(u, v) / (nu * nv))


def load_embeddings(path: str) -> EmbeddingTable:
    """Parse a word2vec text file into an :class:`EmbeddingTable`.

    The first line is treated as a header iff it is exactly two integers; its
    count must then equal the number of vector lines, duplicates included.
    Duplicate tokens keep the first occurrence and emit a warning.  A line
    whose arity disagrees with the established dimension, or with a component
    that is not a finite number, is an error naming the 1-based line number.
    """
    vectors: dict[str, np.ndarray] = {}
    dim: int | None = None
    declared: int | None = None
    read = 0
    for lineno, line in read_lines(path, ValueError):
        fields = line.split()
        if not fields:
            continue
        if lineno == 1:
            try:
                declared, dim = map(int, fields)
            except ValueError:  # not exactly two integers, so a vector line
                pass
            else:
                if dim < 1:
                    raise ValueError(f"{path} line 1: header dim {dim} must be >= 1")
                continue
        token, values = fields[0], fields[1:]
        read += 1
        if dim is None:
            dim = len(values)
            if dim == 0:
                raise ValueError(f"{path} line {lineno}: no vector components")
        if len(values) != dim:
            raise ValueError(f"{path} line {lineno}: expected {dim} dims")
        if token in vectors:
            warnings.warn(f"{path} line {lineno}: duplicate token {token!r}, keeping first", stacklevel=2)
            continue
        try:
            vec = np.array([float(v) for v in values], dtype=np.float64)
        except ValueError as exc:
            raise ValueError(f"{path} line {lineno}: {exc}") from None
        finite = np.isfinite(vec)
        if not finite.all():
            raise ValueError(f"{path} line {lineno}: non-finite component {values[int(finite.argmin())]}")
        vectors[token] = vec
    if declared is not None and declared != read:
        raise ValueError(f"{path} line 1: header declares {declared} vectors but the file holds {read}")
    if dim is None:
        raise ValueError(f"{path}: embedding file has no vectors")
    return EmbeddingTable(vectors, dim)


def save_embeddings(table: EmbeddingTable, path: str) -> None:
    """Write ``table``, header first, in the text format ``load_embeddings`` reads."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"{len(table)} {table.dim}\n")
        for token in table.tokens():
            vec = table.get(token)
            comps = " ".join(repr(float(x)) for x in vec)
            handle.write(f"{token} {comps}\n")
