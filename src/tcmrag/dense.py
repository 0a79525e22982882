"""Embedding providers, deterministic offline stub embedder, and an exact flat cosine index."""
from __future__ import annotations

import struct
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Protocol

import numpy as np

from .transport import RETRIES, PermanentError, TransientError, post_json, with_retries


class EmbeddingError(ValueError):
    """Bad embedding input or provider output (zero vector, dim mismatch)."""


class ProviderError(RuntimeError):
    """Embedding provider failed after retries."""


DEFAULT_STUB_DIM = 256

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1

_MAGIC = b"TCMRAGVIDX\x00\x00"  # 12 bytes; 4-byte version follows
_VERSION = 1


def fnv1a64(data: bytes) -> int:
    h = _FNV_OFFSET
    for b in data:
        h = ((h ^ b) * _FNV_PRIME) & _MASK64
    return h


def token_bucket(token: str, dim: int) -> int:
    return fnv1a64(token.encode("utf-8")) % dim


@dataclass(frozen=True)
class EmbeddingVector:
    dim: int
    values: np.ndarray  # unit L2 norm


def _normalize(values: np.ndarray) -> EmbeddingVector:
    values = np.asarray(values, dtype=np.float64)
    norm = float(np.linalg.norm(values))
    if norm == 0.0 or not np.isfinite(norm):
        raise EmbeddingError("zero or non-finite vector")
    return EmbeddingVector(dim=values.shape[0], values=values / norm)


def stub_embed(tokens: set[str], dim: int = DEFAULT_STUB_DIM,
               buckets: dict[str, int] | None = None) -> EmbeddingVector:
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
        values = stub_embed(self.tokenize(text), self.dim, self._buckets).values
        if len(self._buckets) > _BUCKET_MEMO_LIMIT:
            self._buckets.clear()
        return values


@dataclass
class HttpEmbedProvider:
    url: str
    model: str
    api_key_env: str = "EMBED_API_KEY"
    timeout: float = 30.0
    sleep: Callable[[float], None] = time.sleep

    def embed_raw(self, text: str) -> list[float]:
        body = {"model": self.model, "input": [text]}
        try:
            return with_retries(lambda: post_json(self.url, body, self.api_key_env,
                                                  self.timeout, _first_embedding), self.sleep)
        except PermanentError as exc:
            raise ProviderError(f"embedding provider rejected request: {exc}") from exc
        except TransientError as exc:
            raise ProviderError(f"embedding provider failed after {RETRIES} retries") from exc


def _first_embedding(reply) -> list[float]:
    values = reply["data"][0]["embedding"]
    if not isinstance(values, list) or any(
            isinstance(v, bool) or not isinstance(v, (int, float)) for v in values):
        raise ValueError("embedding is not a list of numbers")
    return [float(v) for v in values]  # OverflowError for an int too large for a float


def embed(text: str, provider: EmbedProvider) -> EmbeddingVector:
    """Provider's vector, L2-normalized locally. Zero vectors are a provider fault."""
    if not text:
        raise EmbeddingError("empty text")
    raw = provider.embed_raw(text)
    try:
        return _normalize(np.asarray(raw, dtype=np.float64))
    except EmbeddingError as exc:
        raise EmbeddingError(f"provider returned an unusable vector: {exc}") from exc


class VectorIndex:
    """Exact flat index over unit vectors; cosine equals dot product."""

    def __init__(self) -> None:
        self.ids: list[str] = []
        self.dim: int | None = None
        self._by_id: dict[str, int] = {}
        self._matrix = np.empty((0, 0))  # row i holds ids[i]; later rows are spare capacity

    def add(self, chunk_id: str, vec: EmbeddingVector) -> None:
        if chunk_id in self._by_id:
            raise EmbeddingError(f"duplicate chunk_id {chunk_id!r}")
        if self.dim is None:
            self.dim = vec.dim
        elif vec.dim != self.dim:
            raise EmbeddingError(f"dim mismatch: index {self.dim}, vector {vec.dim}")
        row = len(self.ids)
        if row == len(self._matrix):
            self._matrix = np.resize(self._matrix, (max(1, 2 * row), self.dim))
        self._matrix[row] = vec.values
        self._by_id[chunk_id] = row
        self.ids.append(chunk_id)

    def _row_scores(self, rows: np.ndarray, query: EmbeddingVector) -> np.ndarray:
        """Each row's dot product with the query, one row at a time: unlike a BLAS
        matrix-vector product, whose last bits depend on where a row sits in the
        matrix, a row's score depends only on the row and the query, so identical
        rows tie exactly and a gathered row scores what it scores in the whole matrix."""
        if query.dim != self.dim:
            raise EmbeddingError(f"dim mismatch: index {self.dim}, query {query.dim}")
        return np.einsum("ij,j->i", rows, query.values)

    def score(self, chunk_ids: list[str], query: EmbeddingVector) -> list[float]:
        """The given chunks' scores, bit for bit the ones `search` ranks them by."""
        return self._row_scores(self._matrix[[self._by_id[cid] for cid in chunk_ids]],
                                query).tolist()

    def search(self, query: EmbeddingVector, n: int) -> list[tuple[str, float]]:
        if n < 1:
            raise EmbeddingError(f"n must be >= 1, got {n}")
        if not self.ids:
            return []
        scores = self._row_scores(self._matrix[:len(self.ids)], query)
        floor = np.partition(scores, -n)[-n] if n < len(scores) else -np.inf
        rows = np.flatnonzero(scores >= floor)  # every row tied with the n-th best stays in
        ranked = sorted(zip(scores[rows].tolist(), [self.ids[r] for r in rows.tolist()]),
                        key=lambda x: (-x[0], x[1]))
        return [(cid, s) for s, cid in ranked[:n]]

    def save(self, path: str | Path) -> None:
        with open(path, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(struct.pack("<I", _VERSION))
            fh.write(struct.pack("<II", self.dim or 0, len(self.ids)))
            for cid, row in zip(self.ids, self._matrix):
                raw = cid.encode("utf-8")
                fh.write(struct.pack("<I", len(raw)))
                fh.write(raw)
                fh.write(row.astype("<f8").tobytes())

    @classmethod
    def load(cls, path: str | Path) -> "VectorIndex":
        """Raises EmbeddingError for a file that is not a whole, well-formed index."""
        index = cls()
        with open(path, "rb") as fh:
            def read(n: int) -> bytes:
                data = fh.read(n)
                if len(data) != n:
                    raise EmbeddingError(f"{path}: truncated vector index file")
                return data

            if fh.read(12) != _MAGIC:
                raise EmbeddingError(f"{path}: not a vector index file")
            (version,) = struct.unpack("<I", read(4))
            if version != _VERSION:
                raise EmbeddingError(f"{path}: unsupported version {version}")
            dim, count = struct.unpack("<II", read(8))
            if count * (4 + 8 * dim) > Path(path).stat().st_size - fh.tell():
                raise EmbeddingError(f"{path}: truncated vector index file")
            index._matrix = np.empty((count, dim))
            for _ in range(count):
                (id_len,) = struct.unpack("<I", read(4))
                try:
                    cid = read(id_len).decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise EmbeddingError(f"{path}: chunk id is not UTF-8: {exc}") from exc
                row = np.frombuffer(read(8 * dim), dtype="<f8")
                index.add(cid, EmbeddingVector(dim=dim, values=row))
        return index
