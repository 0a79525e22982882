from __future__ import annotations

import hashlib
import math
import random
import struct

import numpy as np
import pytest
import requests
from hypothesis import event, example, given, settings, strategies as st

from tcmrag import dense
from tcmrag.dense import (DEFAULT_STUB_DIM, EmbeddingError, HttpEmbedProvider,
                          StubEmbedProvider, VectorIndex, embed, fnv1a64, stub_embed,
                          token_bucket)
from tcmrag.sparse import _top_rows
from tcmrag.transport import PermanentError, TransientError

# ---------------------------------------------------------------------------
# FNV-1a hash (published reference values)
# ---------------------------------------------------------------------------

def test_fnv1a64_reference_values():
    assert fnv1a64(b"") == 0xCBF29CE484222325
    assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
    assert fnv1a64(b"foobar") == 0x85944171F73967E8


def test_fnv1a64_oracle():
    """Independent re-computation, byte by byte."""
    def slow(data: bytes) -> int:
        h = 0xCBF29CE484222325
        for b in data:
            h ^= b
            h = (h * 0x100000001B3) % (2 ** 64)
        return h

    for text in ["中医", "胃脘胀痛", "w000042", "", "a b c"]:
        assert fnv1a64(text.encode("utf-8")) == slow(text.encode("utf-8"))


def test_token_bucket_range_and_determinism():
    for tok in ["中医", "abc", "脉弦"]:
        b = token_bucket(tok, 256)
        assert 0 <= b < 256
        assert b == token_bucket(tok, 256)
        assert b == fnv1a64(tok.encode("utf-8")) % 256


# ---------------------------------------------------------------------------
# Stub embeddings
# ---------------------------------------------------------------------------

def distinct_bucket_tokens(count: int, dim: int) -> list[str]:
    tokens: list[str] = []
    seen: set[int] = set()
    i = 0
    while len(tokens) < count:
        tok = f"t{i}"
        b = token_bucket(tok, dim)
        if b not in seen:
            seen.add(b)
            tokens.append(tok)
        i += 1
    return tokens


def test_stub_embed_single_token_is_one_hot():
    vec = stub_embed({"中医"}, 256)
    assert vec.shape == (256,)
    bucket = token_bucket("中医", 256)
    assert vec[bucket] == pytest.approx(1.0)
    assert float(np.linalg.norm(vec)) == pytest.approx(1.0)
    assert np.count_nonzero(vec) == 1


def test_stub_embed_cosine_half_overlap():
    a, b, c = distinct_bucket_tokens(3, 256)
    va = stub_embed({a, b}, 256)
    vb = stub_embed({a, c}, 256)
    assert float(va @ vb) == pytest.approx(0.5)
    assert float(va @ va) == pytest.approx(1.0)


def test_stub_embed_disjoint_tokens_orthogonal():
    a, b, c, d = distinct_bucket_tokens(4, 256)
    va = stub_embed({a, b}, 256)
    vb = stub_embed({c, d}, 256)
    assert float(va @ vb) == pytest.approx(0.0)


def test_stub_embed_bucket_collision_accumulates():
    # find two tokens sharing a bucket at dim 8
    tok_by_bucket: dict[int, str] = {}
    pair = None
    i = 0
    while pair is None:
        tok = f"c{i}"
        b = token_bucket(tok, 8)
        if b in tok_by_bucket:
            pair = (tok_by_bucket[b], tok)
        else:
            tok_by_bucket[b] = tok
        i += 1
    vec = stub_embed(set(pair), 8)
    assert np.count_nonzero(vec) == 1
    assert float(np.max(vec)) == pytest.approx(1.0)


def test_stub_embed_rejects_bad_input():
    with pytest.raises(EmbeddingError):
        stub_embed(set(), 256)
    with pytest.raises(EmbeddingError):
        stub_embed({"a"}, 4)


@given(st.sets(st.text(alphabet="abc中医汤", min_size=1, max_size=4), min_size=1, max_size=12))
def test_stub_embed_unit_norm_and_deterministic(tokens):
    v1 = stub_embed(tokens)
    v2 = stub_embed(tokens)
    assert v1.shape == (DEFAULT_STUB_DIM,)
    assert float(np.linalg.norm(v1)) == pytest.approx(1.0)
    assert np.array_equal(v1, v2)


def test_stub_provider_and_embed_roundtrip():
    provider = StubEmbedProvider(tokenize=lambda text: set(text.split()), dim=64)
    vec = embed("a b", provider)
    assert np.allclose(vec, stub_embed({"a", "b"}, 64))


@given(st.lists(st.sets(st.text(alphabet="abc中医汤", min_size=1, max_size=4), min_size=1,
                        max_size=12), min_size=1, max_size=6), st.sampled_from([8, 64, 256]))
def test_stub_provider_equals_stub_embed_bitwise_warm_and_cold(token_sets, dim):
    texts = [str(i) for i in range(len(token_sets))]
    provider = StubEmbedProvider(tokenize=dict(zip(texts, token_sets)).__getitem__, dim=dim)
    for _ in range(2):  # the first pass fills the bucket memo, the second reads it
        for text, tokens in zip(texts, token_sets):
            assert provider.embed_raw(text).tobytes() == stub_embed(tokens, dim).tobytes()
    assert provider._buckets == {tok: token_bucket(tok, dim) for ts in token_sets for tok in ts}


def test_stub_provider_bucket_memo_stays_within_its_bound(monkeypatch):
    monkeypatch.setattr(dense, "_BUCKET_MEMO_LIMIT", 5)
    provider = StubEmbedProvider(tokenize=lambda text: set(text.split()), dim=16)
    for i in range(12):
        text = f"t{i} t{i + 1} t{i + 2}"
        got = provider.embed_raw(text)
        assert got.tobytes() == stub_embed(set(text.split()), 16).tobytes()
        assert len(provider._buckets) <= 5


def test_embed_rejects_empty_text_and_zero_vectors():
    provider = StubEmbedProvider(tokenize=lambda text: {text}, dim=64)
    with pytest.raises(EmbeddingError):
        embed("", provider)

    class ZeroProvider:
        def embed_raw(self, text):
            return [0.0] * 16

    with pytest.raises(EmbeddingError, match="unusable"):
        embed("x", ZeroProvider())


def test_embed_normalizes_provider_output():
    class Raw:
        def embed_raw(self, text):
            return [3.0, 4.0]

    vec = embed("x", Raw())
    assert vec == pytest.approx([0.6, 0.8])


# ---------------------------------------------------------------------------
# HTTP provider retry policy
# ---------------------------------------------------------------------------

class FakeResponse:
    def __init__(self, status_code, payload=None):
        self.status_code = status_code
        self._payload = payload

    def raise_for_status(self):
        if self.status_code >= 400:
            raise RuntimeError(f"http {self.status_code}")

    def json(self):
        return self._payload


def test_http_embed_retries_then_succeeds(monkeypatch, slept):
    calls = []
    responses = [FakeResponse(500), FakeResponse(503),
                 FakeResponse(200, {"data": [{"embedding": [1.0, 0.0]}]})]

    def post(*args, **kwargs):
        calls.append(kwargs)
        return responses[len(calls) - 1]

    monkeypatch.setattr(requests, "post", post)
    provider = HttpEmbedProvider(url="http://x", model="m")
    assert provider.embed_raw("hi") == [1.0, 0.0]
    assert len(calls) == 3
    assert slept == [1.0, 2.0]


def test_http_embed_client_error_no_retry(monkeypatch, slept):
    calls = []

    def post(*args, **kwargs):
        calls.append(1)
        return FakeResponse(401)

    monkeypatch.setattr(requests, "post", post)
    provider = HttpEmbedProvider(url="http://x", model="m")
    with pytest.raises(PermanentError, match="http://x: HTTP 401"):
        provider.embed_raw("hi")
    assert len(calls) == 1
    assert slept == []


def test_http_embed_exhausts_retries(monkeypatch, slept):
    calls = []

    def post(*args, **kwargs):
        calls.append(1)
        raise ConnectionError("down")

    monkeypatch.setattr(requests, "post", post)
    provider = HttpEmbedProvider(url="http://x", model="m")
    with pytest.raises(TransientError, match="after 3 retries"):
        provider.embed_raw("hi")
    assert len(calls) == 4
    assert slept == [1.0, 2.0, 4.0]


@pytest.mark.parametrize("embedding", ["abc", {"a": 1}, [1.0, "x"], [[1.0, 2.0]], [1.0, True],
                                       [10**400, 1.0]], ids=repr)
def test_http_embed_wrong_typed_payload_is_retried_as_malformed(monkeypatch, embedding):
    calls = []

    def post(*args, **kwargs):
        calls.append(1)
        return FakeResponse(200, {"data": [{"embedding": embedding}]})

    monkeypatch.setattr(requests, "post", post)
    provider = HttpEmbedProvider(url="http://x", model="m")
    with pytest.raises(TransientError, match="after 3 retries") as exc:
        provider.embed_raw("hi")
    assert "malformed" in str(exc.value.__cause__)
    assert len(calls) == 4


# ---------------------------------------------------------------------------
# Vector index
# ---------------------------------------------------------------------------

def unit(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    return arr / np.linalg.norm(arr)


def vector_index(pairs) -> VectorIndex:
    """The index over (chunk_id, vector) pairs given in any order."""
    pairs = sorted(pairs, key=lambda p: p[0])
    return VectorIndex([cid for cid, _ in pairs],
                       np.array([v for _, v in pairs], dtype="<f8", ndmin=2))


def test_index_search_ranks_by_cosine():
    index = vector_index([("a", unit([1.0, 0.0])), ("b", unit([1.0, 1.0])),
                          ("c", unit([0.0, 1.0]))])
    got = index.search(unit([1.0, 0.0]), 3)
    assert [cid for cid, _ in got] == ["a", "b", "c"]
    assert got[0][1] == pytest.approx(1.0)
    assert got[1][1] == pytest.approx(1.0 / math.sqrt(2))
    assert got[2][1] == pytest.approx(0.0)


def test_index_tie_breaks_by_chunk_id():
    index = vector_index([("z", unit([1.0, 0.0])), ("a", unit([1.0, 0.0])),
                          ("m", unit([1.0, 0.0]))])
    got = index.search(unit([1.0, 0.0]), 3)
    assert [cid for cid, _ in got] == ["a", "m", "z"]


def test_index_errors_and_empty_search():
    assert vector_index([]).search(unit([1.0]), 5) == []
    index = vector_index([("a", unit([1.0, 0.0]))])
    with pytest.raises(EmbeddingError, match="dim mismatch"):
        index.search(unit([1.0, 0.0, 0.0]), 1)
    with pytest.raises(EmbeddingError):
        index.search(unit([1.0, 0.0]), 0)


@pytest.mark.parametrize("count", [1, 16, 17, 33])
def test_index_equals_a_stacked_matrix_bitwise(count):
    """Sizes of one, a few and many rows; scores compared with ==, not approx.
    The index scores each row as the stacked rows' per-row dot product does,
    `_score` gives an id the float `search` gave it, and one vector planted at the head,
    middle and tail rows ties exactly, which a BLAS matrix-vector product does not
    promise: its last bits may depend on where a row sits."""
    rng = np.random.default_rng(count)
    ids = [f"c{i:02d}#0" for i in rng.permutation(count)]
    rows = [unit(rng.normal(size=24)) for _ in ids]
    planted = sorted({0, count // 2, count - 1})
    for pos in planted:
        rows[pos] = rows[0]
    index = vector_index(zip(ids, rows))
    for _ in range(3):
        q = unit(rng.normal(size=24))
        per_row = np.einsum("ij,j->i", np.vstack(rows), q).tolist()
        expected = sorted(zip(ids, per_row), key=lambda x: (-x[1], x[0]))
        for n in (1, count // 2 + 1, count):
            assert index.search(q, n) == expected[:n]
        searched = dict(index.search(q, count))
        for cid in ids:
            assert index._score([cid], q).tolist() == [searched[cid]]
        assert index._score(ids[::-1], q).tolist() == [searched[cid] for cid in ids[::-1]]
        assert len({searched[ids[pos]] for pos in planted}) == 1


@pytest.mark.parametrize("seed", range(6))
def test_index_search_keeps_ties_across_the_cut(seed):
    """Planted duplicate rows tie exactly; every n, past the row count too, returns the
    head of the full sort by (-score, id), compared with ==."""
    rng = np.random.default_rng(seed)
    planted = [unit([1.0, 0.0, 0.0, 0.0]), unit([0.0, 1.0, 0.0, 0.0]),
               unit([1.0, 1.0, 0.0, 0.0])]
    count = int(rng.integers(1, 25))
    ids = [f"c{i:02d}#0" for i in rng.permutation(count)]
    rows = [planted[int(rng.integers(0, 3))] if rng.random() < 0.7
            else unit(rng.normal(size=4)) for _ in ids]
    index = vector_index(zip(ids, rows))
    for q in (planted[0], planted[2], unit(rng.normal(size=4))):
        expected = sorted(zip(ids, (np.vstack(rows) @ q).tolist()), key=lambda x: (-x[1], x[0]))
        for n in range(1, count + 3):
            assert index.search(q, n) == expected[:n]


def full_scan(index: VectorIndex, query: np.ndarray, n: int) -> list[tuple[str, str]]:
    """The n best of every row's float64 score, as (id, float.hex) pairs."""
    scores = index._row_scores(index._matrix, query)
    return [(index.ids[r], float(scores[r]).hex()) for r in _top_rows(scores, n).tolist()]


def planted_index(seed: int, dim: int, count: int, n: int) -> tuple[VectorIndex, np.ndarray]:
    """A unit query and an index of at least four unit rows. About half the rows score
    within the float32 margin m of one score c0, on both sides of it, some further from c0
    than a float32 scan can err and some much closer, and the n-th place
    falls among them when n <= count; the other rows score at least 3m above or below
    c0. Copies of one near-tied row sit at the head, the middle and the tail of the id
    order."""
    rng = np.random.default_rng(seed)
    m = dense._margin(dim)
    query = unit(rng.normal(size=dim))
    plain = max(count, 4) - 3
    near = max(1, plain // 2)
    most = min(n - 1, plain - near)  # rows above the near-tied ones
    above = int(rng.integers(min(max(0, n - near - 3), most), most + 1))
    c0 = rng.uniform(-0.5, 0.5)
    scores = np.concatenate([c0 + rng.uniform(3 * m, 0.4, above),
                             c0 + rng.choice([-m, m], near) * 10.0 ** -rng.uniform(0, 6, near),
                             c0 - rng.uniform(3 * m, 0.4, plain - near - above)])

    def row(score):  # a unit row scoring `score` against the query
        other = rng.normal(size=dim)
        other = unit(other - (other @ query) * query)
        return unit(score * query + math.sqrt(1.0 - score * score) * other)

    rows = [row(c) for c in scores]
    tied = rows[above]
    pairs = [(f"c{i:04d}", r) for i, r in zip(rng.permutation(plain), rows)]
    pairs += [("a-copy", tied), (f"c{plain // 2:04d}-copy", tied), ("z-copy", tied)]
    return vector_index(pairs), query


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([8, 64, 768]), st.integers(4, 240),
       st.one_of(st.integers(1, 26), st.integers(1, 242)))
@example(1, 8, 100, 1).via("n = 1")
@example(2, 768, 100, 99).via("n = count - 1")
@example(3, 8, 40, 40).via("n = count")
@example(4, 768, 40, 42).via("n > count")
@example(5, 768, 240, 29).via("float32 scan first: 240 rows > 8 x 29")
@example(6, 8, 240, 30).via("one scan: 240 rows <= 8 x 30")
def test_search_equals_a_float64_scan_of_every_row(seed, dim, count, n):
    """Whichever rows the float32 scan keeps, `search` gives the ids, order and float64
    bits of a float64 scan of every row, with near-ties planted within the margin on
    both sides of the n-th place and identical rows at the head, middle and tail."""
    n = min(n, count + 2)
    index, query = planted_index(seed, dim, count, n)
    got = [(cid, score.hex()) for cid, score in index.search(query, n)]
    assert got == full_scan(index, query, n)
    event("float32 scan first" if index._candidates(query, n) is not None
          else "one float64 scan")


def test_search_scans_in_float32_only_above_the_rows_per_result():
    """The float32 copy is made by the first search that prefilters, and only then."""
    index, query = planted_index(7, 16, 8 * 5 + 1, 5)
    assert len(index.ids) == 41 and index._matrix32 is None   # no copy before a search
    assert index._candidates(query, 6) is None       # 41 rows <= 8 x 6
    assert index._matrix32 is None
    assert index._candidates(query, 5) is not None   # 41 rows > 8 x 5
    copy = index._matrix32
    assert np.array_equal(copy, index._matrix.astype(np.float32))
    index.search(query, 5)
    assert index._matrix32 is copy                   # made once
    small, small_query = planted_index(7, 16, 120, 50)
    for n in (50, 60, 120):                          # 120 rows <= 8 x 50
        small.search(small_query, n)
    assert small._matrix32 is None


@pytest.mark.parametrize("query_of", [
    lambda q: 2.0 * q, lambda q: 1e200 * q, lambda q: q.astype(np.float32),
    lambda q: np.where(q > 0, np.nan, q), lambda q: list(q)],
    ids=["not unit", "huge", "float32", "NaN", "list"])
def test_search_outside_the_margin_premises_scans_every_row_in_float64(query_of):
    """A query that is not a float64 unit vector gets no float32 scan, and so does an
    index with a row that is not a unit vector; each searches as the float64 scan does."""
    index, query = planted_index(8, 64, 200, 5)
    query = query_of(query)
    assert index._candidates(query, 5) is None
    assert [(cid, score.hex()) for cid, score in index.search(query, 5)] == \
        full_scan(index, query, 5)
    scaled, unit_query = planted_index(8, 64, 200, 5)
    scaled._matrix[7] *= 3.0
    scaled = VectorIndex(scaled.ids, scaled._matrix)
    assert scaled._candidates(unit_query, 5) is None
    assert [(cid, score.hex()) for cid, score in scaled.search(unit_query, 5)] == \
        full_scan(scaled, unit_query, 5)
    assert scaled._matrix32 is None


def test_index_matches_brute_force_oracle():
    rng = random.Random(3)
    rows = {f"c{i:02d}#0": unit([rng.gauss(0, 1) for _ in range(16)]) for i in range(40)}
    index = vector_index(rows.items())
    for trial in range(10):
        q = unit([rng.gauss(0, 1) for _ in range(16)])
        expected = sorted(
            ((cid, sum(a * b for a, b in zip(row, q))) for cid, row in rows.items()),
            key=lambda x: (-x[1], x[0]))[:5]
        got = index.search(q, 5)
        assert [cid for cid, _ in got] == [cid for cid, _ in expected]
        for (_, s1), (_, s2) in zip(got, expected):
            assert s1 == pytest.approx(s2)


def test_index_score_and_dim():
    index = vector_index([("a", unit([1.0, 1.0]))])
    assert index._score(["a"], unit([1.0, 0.0])).tolist() == [pytest.approx(1.0 / math.sqrt(2))]
    assert index.dim == 2


def test_index_persistence_roundtrip(tmp_path):
    rng = random.Random(5)
    index = vector_index((f"案例{i}#0", unit([rng.gauss(0, 1) for _ in range(12)]))
                         for i in range(7))
    path = tmp_path / "vectors.bin"
    index.save(path)
    loaded = VectorIndex.load(path)
    assert loaded.ids == index.ids
    assert loaded.dim == index.dim
    basis = list(np.eye(12))
    for cid in index.ids:  # a one-hot query scores exactly one stored value
        assert ([loaded._score([cid], e).tolist() for e in basis]
                == [index._score([cid], e).tolist() for e in basis])
    path2 = tmp_path / "again.bin"
    loaded.save(path2)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        hashlib.sha256(path2.read_bytes()).hexdigest()


def v2_file(ids_json: bytes, count: int, dim: int, floats: bytes) -> bytes:
    return (b"TCMRAGVIDX\x00\x00" + struct.pack("<IIIQ", 2, dim, count, len(ids_json))
            + ids_json + floats)


def test_index_file_layout(tmp_path):
    """Version 2: magic, version, dim, count and the id block's byte length, then the
    ids as one UTF-8 JSON array and the rows as one block, all little-endian; ids and
    rows in chunk_id order."""
    index = vector_index([("病#0", unit([3.0, 4.0])), ("b#1", unit([0.0, 1.0]))])
    index.save(tmp_path / "vectors.bin")
    expected = v2_file('["b#1", "病#0"]'.encode("utf-8"), 2, 2,
                       struct.pack("<4d", 0.0, 1.0, 0.6, 0.8))
    assert (tmp_path / "vectors.bin").read_bytes() == expected


# the version-1 layout: per row the id's length, the id and the vector
V1_FILE = (b"TCMRAGVIDX\x00\x00" + struct.pack("<III", 1, 2, 2)
           + struct.pack("<I", 5) + "病#0".encode("utf-8") + struct.pack("<2d", 0.6, 0.8)
           + struct.pack("<I", 3) + b"b#1" + struct.pack("<2d", 0.0, 1.0))


@pytest.mark.parametrize("data, message", [
    (V1_FILE, "unsupported version 1"),
    (v2_file(b'["a"]', 1, 2, struct.pack("<2d", 1.0, 0.0)) + b"\x00", "trailing"),
    (v2_file(b'["a", "a"]', 2, 2, struct.pack("<4d", 1.0, 0.0, 0.0, 1.0)), "distinct"),
    (v2_file(b'["a", "b"]', 1, 2, struct.pack("<2d", 1.0, 0.0)), "distinct"),
    (v2_file(b'["a"]', 2, 1, struct.pack("<2d", 1.0, 1.0)), "distinct"),
    (v2_file(b'{"a": 0}', 1, 2, struct.pack("<2d", 1.0, 0.0)), "distinct"),
    (v2_file(b'[1]', 1, 2, struct.pack("<2d", 1.0, 0.0)), "distinct"),
    (v2_file(b'"a"', 1, 2, struct.pack("<2d", 1.0, 0.0)), "distinct"),
    (v2_file(b'["a"', 1, 2, struct.pack("<2d", 1.0, 0.0)), "JSON"),
    (v2_file(b'["a", "b"]', 2, 2, struct.pack("<4d", 1.0, 0.0, math.nan, 0.0)),
     "row of chunk 'b' is not a finite unit vector"),
    (v2_file(b'["a"]', 1, 2, struct.pack("<2d", 0.0, -math.inf)), "not a finite unit"),
    (v2_file(b'["a"]', 1, 2, struct.pack("<2d", 1e6, 0.0)), "not a finite unit"),
    (v2_file(b'["a"]', 1, 2, struct.pack("<2d", 0.0, 0.0)), "not a finite unit"),
    (v2_file(b'["a"]', 1, 2, struct.pack("<2d", 1.000001, 0.0)), "not a finite unit"),
], ids=["version 1", "trailing byte", "duplicate ids", "more ids than rows",
        "fewer ids than rows", "object", "number id", "string", "cut array", "NaN entry",
        "infinite entry", "row scaled by 1e6", "zero row", "norm 1 + 1e-6"])
def test_index_load_refuses_version_1_and_malformed_version_2(tmp_path, data, message):
    path = tmp_path / "vectors.bin"
    path.write_bytes(data)
    with pytest.raises(EmbeddingError, match=message):
        VectorIndex.load(path)


def test_index_load_accepts_a_row_within_the_unit_tolerance(tmp_path):
    path = tmp_path / "vectors.bin"
    path.write_bytes(v2_file(b'["a"]', 1, 2, struct.pack("<2d", 1.0 + 1e-7, 0.0)))
    assert VectorIndex.load(path).ids == ["a"]


@given(st.lists(st.text(), unique=True, max_size=8), st.integers(1, 6), st.randoms())
@example(["", "a\tb", "c\nd", 'e"f', "g\\h", "病\U00020000#0"], 3, random.Random(0))
def test_index_save_load_roundtrip_any_ids(tmp_path_factory, ids, dim, rnd):
    """Any Unicode id (tabs, line breaks, quotes, backslashes, non-BMP characters, the
    empty string) and every row's bytes survive a save and a load, the ids in chunk_id
    order; a re-save is byte-identical, and the empty index loads with no dim."""
    index = vector_index((cid, unit([rnd.uniform(-1.0, 1.0) for _ in range(dim - 1)] + [1.0]))
                         for cid in ids)
    path = tmp_path_factory.mktemp("v2") / "vectors.bin"
    index.save(path)
    loaded = VectorIndex.load(path)
    assert loaded.ids == sorted(ids)
    assert loaded.dim == (dim if ids else None)
    assert loaded._matrix.tobytes() == index._matrix.tobytes()
    again = path.with_name("again.bin")
    loaded.save(again)
    assert again.read_bytes() == path.read_bytes()


def test_index_load_rejects_foreign_file(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"not an index at all")
    with pytest.raises(EmbeddingError, match="not a vector index"):
        VectorIndex.load(path)


def test_index_load_rejects_every_truncation(tmp_path):
    index = vector_index((f"病案{i}#0", unit(values)) for i, values in
                         enumerate(([1.0, 0.0, 2.0], [0.0, 1.0, 0.0], [3.0, 1.0, 1.0])))
    path = tmp_path / "vectors.bin"
    index.save(path)
    data = path.read_bytes()
    cut = tmp_path / "cut.bin"
    for size in range(len(data)):
        cut.write_bytes(data[:size])
        with pytest.raises(EmbeddingError):
            VectorIndex.load(cut)
    cut.write_bytes(data[:20] + struct.pack("<I", 2 ** 32 - 1) + data[24:])  # header count
    with pytest.raises(EmbeddingError, match="truncated"):
        VectorIndex.load(cut)
    cut.write_bytes(data)
    assert VectorIndex.load(cut).ids == index.ids


def test_index_load_rejects_undecodable_id(tmp_path):
    index = vector_index([("病#0", unit([1.0, 2.0]))])
    path = tmp_path / "vectors.bin"
    index.save(path)
    path.write_bytes(path.read_bytes().replace("病".encode("utf-8"), b"\xff\xfe\xfd"))
    with pytest.raises(EmbeddingError, match="UTF-8"):
        VectorIndex.load(path)
