"""Embedding providers, deterministic offline stub embedder, and an exact flat cosine index."""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Protocol

import numpy as np

from . import _block
from .sparse import _top_rows
from .transport import post_json, with_retries


class EmbeddingError(ValueError):
    """Bad embedding input or provider output (zero vector, dim mismatch)."""


DEFAULT_STUB_DIM = 256

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1

# the header fields: dim, row count, byte length of the ids' JSON array; then that array
# and the rows as one count x dim block of <f8, both in chunk_id order, which `load` checks
_FORMAT = _block.BlockFormat(b"TCMRAGVIDX\0\0", 2, "IIQ", "vector index", "vectors", EmbeddingError)

# A row (or query) counts as a unit vector when its squared norm is within this of 1;
# `load` refuses a file with any other row, and `search`'s error margin assumes it.
_UNIT_TOL = 1e-6
# `search` prefilters with the float32 pass only when the index holds more than this
# many rows per result asked for; with fewer, the pass drops too few rows to pay for the
# second pass, and every row is scored in float64 as one scan. Two passes against one,
# CPU time per clinic stream query over the first rows of a 3,000 x 256 stub index, the
# float32 copy made, one BLAS thread, 2-vCPU x86_64, two runs: at 8 rows per result
# 0.38-0.78x from 500 to 3,000 rows, 1.00-1.04x at 250 rows, 1.19-1.20x at 150; at 4 rows
# per result 0.82-1.10x from 1,000 rows, 0.96-1.38x at 500, 1.08-1.35x below; at 16,
# 0.33-0.67x from 500 rows, 0.91-1.47x below.
_ROWS_PER_RESULT = 8
# The float32 pass multiplies only the query's nonzero dimensions when at most one in
# this many is nonzero, and otherwise takes one product over the whole copy, as a dense
# provider vector needs. Gathered against whole, per dimension, CPU time, one BLAS
# thread, 2-vCPU x86_64, from 8 to 128 nonzero dimensions: 1.7-3.6x at 3,000 x 256,
# 1.7-4.5x at 3,000 x 1,024, 1.4-3.3x at 20,000 x 768; at 3,000 x 256 the gather overtook
# the whole product between 96 and 128 dimensions. Gathering all of a dense query's
# dimensions took 3.3x, 3.0x and 7.0x as long as the whole product.
_GATHER_COST = 4


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


def _margin(dim: int) -> float:
    """A bound m on |s32 - s64| for a unit row a and a unit query q of this dim, where
    s32 is a.q from float32 copies in any summation order (a BLAS product, with or
    without FMA, on any number of threads) and s64 the float64 `_row_scores` of the row.
    s32 may also skip the products whose float32 query entry is 0: each such product of
    a finite a_i is exactly +-0, and adding +-0 to a sum leaves its value exact, so the
    shorter sum is the full float32 sum taken in an order that adds those terms last.

    In the standard model with gradual underflow (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., section 2.2) each float32 rounding, the two
    conversions included, is x(1 + r) + e with |r| <= u = 2**-24 and |e| <= 2**-150.
    Every product a_i q_i meets at most d + 2 relative roundings (2 conversions, 1
    product, at most d - 1 additions, whatever their order; section 3.1), so
    |s32 - a.q| <= g(d + 2) sum |a_i q_i| + U, with g(k) = ku / (1 - ku), and by
    Cauchy-Schwarz sum |a_i q_i| <= |a| |q| <= (1 + _UNIT_TOL)**2, as a squared norm
    computed within _UNIT_TOL of 1 puts the norm within _UNIT_TOL of 1. The underflow terms
    (2d from the conversions, each times the other factor, under 2 in magnitude, and at
    most 2d from the products and additions), grown by the roundings after them by a
    factor under 2, give U < 12d * 2**-150 < d * 2**-146. The float64 einsum errs by at
    most g64(d) (1 + _UNIT_TOL)**2 + d * 2**-1073 in the same way, with u = 2**-53. The
    sum of both bounds, under d * 2**-145 for the underflow, is the proven part of m.

    `_candidates` subtracts 2m from a float32 score t, |t| < 2, and compares in float32
    or float64; the result is rounded at most twice, each time by at most 2**-24, so m
    carries 2**-22 more. For (d + 2)u >= 1/2, far beyond any embedding, there is no
    useful bound and every row is a candidate."""
    k32, k64 = (dim + 2) * 2.0 ** -24, dim * 2.0 ** -53
    if k32 >= 0.5:
        return math.inf
    norms = (1.0 + _UNIT_TOL) ** 2
    return ((k32 / (1.0 - k32) + k64 / (1.0 - k64)) * norms + dim * 2.0 ** -145
            + 2.0 ** -22)


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


class VectorIndex:
    """Exact flat index over unit vectors; cosine equals dot product. Row r of `matrix`
    (count x dim float64) holds ids[r], and the ids are in chunk_id order, in memory as
    in the file. The second search that could prefilter (see `_candidates`) makes a
    float32 copy of the matrix, transposed to dim x count, one contiguous row per
    dimension, so that a search can read its query's nonzero dimensions alone; that
    search and every later one read it first. The first such search scans the float64
    matrix once instead: building the copy reads all of it too, and a `query` command
    searches each index only once."""

    def __init__(self, ids: list[str], matrix: np.ndarray) -> None:
        self.ids = ids
        self.dim: int | None = matrix.shape[1] if ids else None
        self._matrix = matrix
        self._by_id = {cid: row for row, cid in enumerate(ids)}
        # rows whose squared norm is not within _UNIT_TOL of 1, in one pass over the
        # matrix; a non-finite entry makes the squared norm NaN or inf, so its row too
        self._off_unit = np.flatnonzero(
            ~(np.abs(np.einsum("ij,ij->i", matrix, matrix) - 1.0) <= _UNIT_TOL))
        self._matrix32: np.ndarray | None = None
        self._scanned = False  # whether a search that could prefilter scanned in float64

    def _row_scores(self, rows: np.ndarray, query: np.ndarray) -> np.ndarray:
        """Each row's dot product with the query, one row at a time: unlike a BLAS
        matrix-vector product, whose last bits depend on where a row sits in the
        matrix, a row's score depends only on the row and the query, so identical
        rows tie exactly and a gathered row scores what it scores in the whole matrix."""
        if len(query) != self.dim:
            raise EmbeddingError(f"dim mismatch: index {self.dim}, query {len(query)}")
        return np.einsum("ij,j->i", rows, query)

    def _score(self, chunk_ids: list[str], query: np.ndarray) -> np.ndarray:
        """The given chunks' float64 scores, bit for bit the ones `search` ranks them by."""
        return self._row_scores(self._matrix[[self._by_id[cid] for cid in chunk_ids]], query)

    def _candidates(self, query: np.ndarray, n: int) -> np.ndarray | None:
        """The rows, ascending, whose float32 score s32 is at least t - 2m, with t the
        n-th best s32 and m = `_margin(dim)`; or None, for every row, when the index
        holds at most `_ROWS_PER_RESULT` rows per result, its matrix is not float64 unit
        rows, the query is not a float64 unit vector of its dim, or no earlier search
        could have prefiltered, so that no float32 copy is made for one search alone.

        s32 is the float32 product of the query with the transposed copy, over only the
        query's nonzero float32 entries when it has at most one in `_GATHER_COST`. They
        hold the n best rows by their `_row_scores` score s64, every tie at the cut
        included: as |s32 - s64| <= m, the n rows with s32 >= t have s64 >= t - m, so
        the n-th best s64, T, is at least t - m, and every row with s64 >= T has
        s32 >= T - m >= t - 2m."""
        if (len(self.ids) <= _ROWS_PER_RESULT * n or self._matrix.dtype != np.float64
                or len(self._off_unit)
                or not isinstance(query, np.ndarray) or query.dtype != np.float64
                or query.shape != (self.dim,)
                or not abs(float(np.einsum("i,i->", query, query)) - 1.0) <= _UNIT_TOL):
            return None
        if self._matrix32 is None:
            if not self._scanned:
                self._scanned = True
                return None
            self._matrix32 = np.ascontiguousarray(self._matrix.T, dtype=np.float32)
        q32 = query.astype(np.float32)
        nz = np.flatnonzero(q32)
        s32 = (q32[nz] @ self._matrix32[nz] if _GATHER_COST * len(nz) <= self.dim
               else q32 @ self._matrix32)
        return np.flatnonzero(s32 >= np.partition(s32, -n)[-n] - 2.0 * _margin(self.dim))

    def search(self, query: np.ndarray, n: int) -> list[tuple[str, float]]:
        """The n best rows by score descending, then chunk_id ascending, with their
        float64 scores. Only the rows `_candidates` keeps are scored in float64; they
        ascend by chunk_id, so ties come out as a scan of every row gives them."""
        if n < 1:
            raise EmbeddingError(f"n must be >= 1, got {n}")
        if not self.ids:
            return []
        rows = self._candidates(query, n)
        scores = self._row_scores(self._matrix if rows is None else self._matrix[rows], query)
        top = _top_rows(scores, n)
        best = top if rows is None else rows[top]
        return list(zip([self.ids[r] for r in best.tolist()], scores[top].tolist()))

    def save(self, path: str | Path) -> None:
        ids = json.dumps(self.ids, ensure_ascii=False).encode("utf-8")
        _FORMAT.write(path, (self.dim or 0, len(self.ids), len(ids)), ids, self._matrix)

    @classmethod
    def load(cls, path: str | Path) -> "VectorIndex":
        """Raises EmbeddingError for a file that is not a whole, well-formed index."""
        with open(path, "rb") as fh:
            dim, count, id_bytes = _FORMAT.read_header(
                fh, path, lambda dim, count, id_bytes: id_bytes + 8 * count * dim)
            ids = _FORMAT.sorted_strings(fh, path, id_bytes, "chunk ids", count,
                                         "chunk_id order")
            matrix = _FORMAT.read_into(fh, path, np.empty((count, dim), dtype="<f8"))
        index = cls(ids, matrix)
        if len(index._off_unit):
            row = int(index._off_unit[0])
            raise EmbeddingError(f"{path}: the row of chunk {ids[row]!r} is not a finite "
                                 f"unit vector (squared norm {float(matrix[row] @ matrix[row])!r}, "
                                 f"tolerance {_UNIT_TOL})")
        return index
