"""Embedding providers, deterministic offline stub embedder, and an exact flat cosine index."""
from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Protocol

import numpy as np

from .transport import post_json, with_retries


class EmbeddingError(ValueError):
    """Bad embedding input or provider output (zero vector, dim mismatch)."""


DEFAULT_STUB_DIM = 256

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1

_MAGIC = b"TCMRAGVIDX\x00\x00"
_VERSION = 2
# magic, version, dim, row count, byte length of the ids' JSON array; then that array
# (UTF-8) and the rows as one count x dim block of little-endian float64, both in chunk_id
# order (files written before that order was kept still load, sorted on loading)
_HEADER = struct.Struct("<12sIIIQ")


def fnv1a64(data: bytes) -> int:
    h = _FNV_OFFSET
    for b in data:
        h = ((h ^ b) * _FNV_PRIME) & _MASK64
    return h


def token_bucket(token: str, dim: int) -> int:
    return fnv1a64(token.encode("utf-8")) % dim


def _normalize(values) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    norm = float(np.linalg.norm(values))
    if norm == 0.0 or not np.isfinite(norm):
        raise EmbeddingError("zero or non-finite vector")
    return values / norm


def stub_embed(tokens: set[str], dim: int = DEFAULT_STUB_DIM,
               buckets: dict[str, int] | None = None) -> np.ndarray:
    """Bag-of-hashed-tokens embedding: FNV-1a bucket counts, L2-normalized. `buckets`, a
    token -> token_bucket(token, dim) dict for this dim, is read and filled, so that FNV-1a
    runs once per distinct token across calls."""
    if dim < 8:
        raise EmbeddingError(f"dim must be >= 8, got {dim}")
    if not tokens:
        raise EmbeddingError("empty token set")
    if buckets is None:
        buckets = {}
    values = np.zeros(dim, dtype=np.float64)
    for tok in tokens:
        b = buckets.get(tok)
        if b is None:
            b = buckets[tok] = token_bucket(tok, dim)
        values[b] += 1.0
    return _normalize(values)


class EmbedProvider(Protocol):
    def embed_raw(self, text: str) -> list[float] | np.ndarray: ...


# Most distinct tokens a StubEmbedProvider's bucket memo holds; it is emptied when full.
_BUCKET_MEMO_LIMIT = 1 << 16


@dataclass(frozen=True)
class StubEmbedProvider:
    """Offline provider: tokenize then hash-bucket. Deterministic, network-free."""
    tokenize: Callable[[str], set[str]]
    dim: int = DEFAULT_STUB_DIM
    _buckets: dict[str, int] = field(default_factory=dict, init=False, repr=False,
                                     compare=False)

    def embed_raw(self, text: str) -> np.ndarray:
        values = stub_embed(self.tokenize(text), self.dim, self._buckets)
        if len(self._buckets) > _BUCKET_MEMO_LIMIT:
            self._buckets.clear()
        return values


@dataclass
class HttpEmbedProvider:
    url: str
    model: str
    api_key_env: str = "EMBED_API_KEY"
    timeout: float = 30.0

    def embed_raw(self, text: str) -> list[float]:
        body = {"model": self.model, "input": [text]}
        return with_retries(lambda: post_json(self.url, body, self.api_key_env, self.timeout,
                                              _first_embedding))


def _first_embedding(reply) -> list[float]:
    values = reply["data"][0]["embedding"]
    if not isinstance(values, list) or any(
            isinstance(v, bool) or not isinstance(v, (int, float)) for v in values):
        raise ValueError("embedding is not a list of numbers")
    return [float(v) for v in values]  # OverflowError for an int too large for a float


def embed(text: str, provider: EmbedProvider) -> np.ndarray:
    """Provider's vector, L2-normalized locally. Zero vectors are a provider fault."""
    if not text:
        raise EmbeddingError("empty text")
    raw = provider.embed_raw(text)
    try:
        return _normalize(raw)
    except EmbeddingError as exc:
        raise EmbeddingError(f"provider returned an unusable vector: {exc}") from exc


def _id_order(ids: list[str]) -> list[int]:
    """The rows of `ids` in chunk_id order: row r of the sorted index is row order[r]
    here. Raises EmbeddingError naming a repeated chunk id."""
    order = sorted(range(len(ids)), key=ids.__getitem__)
    for a, b in zip(order, order[1:]):
        if ids[a] == ids[b]:
            raise EmbeddingError(f"duplicate chunk_id {ids[a]!r}")
    return order


class VectorIndex:
    """Exact flat index over unit vectors; cosine equals dot product. Row r of `matrix`
    (count x dim float64) holds ids[r], and the ids are in chunk_id order, in memory as
    in the file."""

    def __init__(self, ids: list[str], matrix: np.ndarray) -> None:
        self.ids = ids
        self.dim: int | None = matrix.shape[1] if ids else None
        self._matrix = matrix
        self._by_id = {cid: row for row, cid in enumerate(ids)}

    def _row_scores(self, rows: np.ndarray, query: np.ndarray) -> np.ndarray:
        """Each row's dot product with the query, one row at a time: unlike a BLAS
        matrix-vector product, whose last bits depend on where a row sits in the
        matrix, a row's score depends only on the row and the query, so identical
        rows tie exactly and a gathered row scores what it scores in the whole matrix."""
        if len(query) != self.dim:
            raise EmbeddingError(f"dim mismatch: index {self.dim}, query {len(query)}")
        return np.einsum("ij,j->i", rows, query)

    def _score(self, chunk_ids: list[str], query: np.ndarray) -> list[float]:
        """The given chunks' scores, bit for bit the ones `search` ranks them by."""
        return self._row_scores(self._matrix[[self._by_id[cid] for cid in chunk_ids]],
                                query).tolist()

    def search(self, query: np.ndarray, n: int) -> list[tuple[str, float]]:
        if n < 1:
            raise EmbeddingError(f"n must be >= 1, got {n}")
        if not self.ids:
            return []
        scores = self._row_scores(self._matrix, query)
        floor = np.partition(scores, -n)[-n] if n < len(scores) else -np.inf
        rows = np.flatnonzero(scores >= floor)  # every row tied with the n-th best stays in
        ranked = sorted(zip(scores[rows].tolist(), [self.ids[r] for r in rows.tolist()]),
                        key=lambda x: (-x[0], x[1]))
        return [(cid, s) for s, cid in ranked[:n]]

    def save(self, path: str | Path) -> None:
        ids = json.dumps(self.ids, ensure_ascii=False).encode("utf-8")
        with open(path, "wb") as fh:
            fh.write(_HEADER.pack(_MAGIC, _VERSION, self.dim or 0, len(self.ids), len(ids)))
            fh.write(ids)
            fh.write(self._matrix)

    @classmethod
    def load(cls, path: str | Path) -> "VectorIndex":
        """Raises EmbeddingError for a file that is not a whole, well-formed index."""
        with open(path, "rb") as fh:
            head = fh.read(_HEADER.size)
            if head[:12] != _MAGIC:
                raise EmbeddingError(f"{path}: not a vector index file")
            if len(head) < _HEADER.size:
                raise EmbeddingError(f"{path}: truncated vector index file")
            _, version, dim, count, id_bytes = _HEADER.unpack(head)
            if version != _VERSION:
                raise EmbeddingError(f"{path}: unsupported version {version}")
            size = Path(path).stat().st_size
            expected = _HEADER.size + id_bytes + 8 * count * dim
            if size != expected:
                raise EmbeddingError(f"{path}: truncated vector index file" if size < expected
                                     else f"{path}: trailing bytes after the vectors")
            try:
                ids = json.loads(fh.read(id_bytes).decode("utf-8"))
            except UnicodeDecodeError as exc:
                raise EmbeddingError(f"{path}: chunk id is not UTF-8: {exc}") from exc
            except ValueError as exc:
                raise EmbeddingError(f"{path}: chunk ids are not a JSON array: {exc}") from exc
            if not (isinstance(ids, list) and all(isinstance(cid, str) for cid in ids)
                    and len(ids) == count):
                raise EmbeddingError(f"{path}: chunk ids are not {count} distinct strings")
            try:
                order = _id_order(ids)
            except EmbeddingError as exc:
                raise EmbeddingError(f"{path}: chunk ids are not {count} distinct strings: "
                                     f"{exc}") from exc
            matrix = np.empty((count, dim), dtype="<f8")
            if fh.readinto(matrix) != matrix.nbytes:  # shrank since the stat
                raise EmbeddingError(f"{path}: truncated vector index file")
        if order != list(range(count)):  # rows in the order they were built: sort them once
            ids, matrix = [ids[r] for r in order], matrix[order]
        return cls(ids, matrix)
