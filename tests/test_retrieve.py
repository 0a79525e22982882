from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
import requests
from hypothesis import given, settings, strategies as st

from tcmrag import engine, retrieve
from tcmrag.corpus import OVERLAP_WINDOW, TOKEN_CHUNK, Chunk
from tcmrag.dense import EmbeddingError, StubEmbedProvider, VectorIndex, embed, token_bucket
from tcmrag.retrieve import (DENSE_ONLY, HYBRID, MODES, RERANK_FALLBACK, SPARSE_ONLY,
                             HttpRerankProvider, RetrievalCandidate, RetrievalConfig, RetrievalError,
                             RetrieverDeps, first_stage, parent_case_id, rerank,
                             two_stage_retrieve)
from tcmrag.segment import _is_ignorable, cut
from tcmrag.sparse import KeywordIndex, iou_score
from tcmrag.transport import ProviderError

DIM = 256


def distinct_bucket_tokens(count: int) -> list[str]:
    tokens: list[str] = []
    seen: set[int] = set()
    i = 0
    while len(tokens) < count:
        tok = f"t{i}"
        b = token_bucket(tok, DIM)
        if b not in seen:
            seen.add(b)
            tokens.append(tok)
        i += 1
    return tokens


A, B, C, D, E = distinct_bucket_tokens(5)


def make_deps(rerank_provider=None) -> RetrieverDeps:
    tokenize = lambda text: set(text.split())
    embedder = StubEmbedProvider(tokenize=tokenize, dim=DIM)
    texts = {
        "c1#0": f"{A} {B}",
        "c2#0": f"{A} {C}",
        "c3#0": f"{D} {E}",
    }
    ids = sorted(texts)
    dense_index = VectorIndex(ids, np.array([embed(texts[cid], embedder) for cid in ids]))
    kw_index = KeywordIndex((cid, tokenize(texts[cid])) for cid in ids)
    return RetrieverDeps(tokenize=tokenize, embedder=embedder, dense_index=dense_index,
                         kw_index=kw_index, chunk_texts=texts,
                         rerank_provider=rerank_provider)


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

def test_config_validation():
    assert RetrievalConfig().mode == HYBRID
    with pytest.raises(RetrievalError, match="unknown mode"):
        RetrievalConfig(mode="cosine")
    with pytest.raises(RetrievalError, match="alpha"):
        RetrievalConfig(alpha=1.5)
    with pytest.raises(RetrievalError, match="pool"):
        RetrievalConfig(n_dense=2, n_sparse=2, top_k=5)
    for name in ("top_k", "n_dense", "n_sparse"):
        for value in (0, -1):
            with pytest.raises(RetrievalError, match=f"{name} must be >= 1"):
                RetrievalConfig(**{name: value})
    assert SPARSE_ONLY in MODES and DENSE_ONLY in MODES


# ---------------------------------------------------------------------------
# First stage pooling
# ---------------------------------------------------------------------------

def test_first_stage_hybrid_pools_and_fills_both_scores():
    deps = make_deps()
    pool = first_stage(f"{A} {B}", deps, RetrievalConfig())
    assert [c.chunk_id for c in pool] == ["c1#0", "c2#0", "c3#0"]
    by_id = {c.chunk_id: c for c in pool}
    assert by_id["c1#0"].dense_score == pytest.approx(1.0)
    assert by_id["c1#0"].sparse_score == pytest.approx(1.0)
    assert by_id["c2#0"].dense_score == pytest.approx(0.5)
    assert by_id["c2#0"].sparse_score == pytest.approx(1 / 3)
    assert by_id["c3#0"].dense_score == pytest.approx(0.0)
    assert by_id["c3#0"].sparse_score == pytest.approx(0.0)
    dense = [cid for cid, _ in deps.dense_index.search(embed(f"{A} {B}", deps.embedder), 50)]
    sparse = [cid for cid, _ in deps.kw_index.search({A, B}, 50)]
    # c3 shares no token, so only the dense list can have contributed it
    assert "c3#0" in dense and "c3#0" not in sparse
    assert "c1#0" in dense and "c1#0" in sparse


def never_called(*args, **kwargs):
    pytest.fail("the skipped index was searched")


def test_first_stage_dense_only_skips_keyword_search(monkeypatch):
    deps = make_deps()
    monkeypatch.setattr(deps.kw_index, "search", never_called)
    pool = first_stage(f"{A} {B}", deps, RetrievalConfig(mode=DENSE_ONLY))
    dense = deps.dense_index.search(embed(f"{A} {B}", deps.embedder), 50)
    assert [c.chunk_id for c in pool] == sorted(cid for cid, _ in dense)
    # sparse scores are still filled in for downstream fusion
    assert {c.chunk_id: c.sparse_score for c in pool}["c1#0"] == pytest.approx(1.0)


def test_first_stage_sparse_only_skips_vector_search(monkeypatch):
    deps = make_deps()
    monkeypatch.setattr(deps.dense_index, "search", never_called)
    pool = first_stage(f"{A} {B}", deps, RetrievalConfig(mode=SPARSE_ONLY))
    assert [c.chunk_id for c in pool] == ["c1#0", "c2#0"]  # c3 has no shared token
    assert [c.chunk_id for c in pool] == sorted(cid for cid, _ in
                                                deps.kw_index.search({A, B}, 50))


def test_first_stage_respects_pool_sizes():
    deps = make_deps()
    pool = first_stage(f"{A} {B}", deps, RetrievalConfig(n_dense=1, n_sparse=1, top_k=1))
    assert [c.chunk_id for c in pool] == ["c1#0"]


@pytest.mark.parametrize("mode", MODES)
def test_first_stage_over_a_zero_chunk_index_is_empty(mode):
    tokenize = lambda text: set(text.split())
    embedder = StubEmbedProvider(tokenize=tokenize, dim=DIM)
    dense_index, kw_index = engine.build_indexes([], tokenize, embedder)
    assert dense_index.dim is None  # nothing to score a query against
    deps = RetrieverDeps(tokenize=tokenize, embedder=embedder, dense_index=dense_index,
                         kw_index=kw_index, chunk_texts={})
    assert first_stage(f"{A} {B}", deps, RetrievalConfig(mode=mode)) == []


def unit(values) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    return values / np.linalg.norm(values)


class FixedEmbedder:
    """Embeds every text as one given vector."""

    def __init__(self, values) -> None:
        self.values = values

    def embed_raw(self, text):
        return self.values


def vector_deps(rows: dict[str, np.ndarray], docs: dict[str, set[str]], query_values):
    ids = sorted(rows)
    dense_index = VectorIndex(ids, np.array([embed(cid, FixedEmbedder(rows[cid]))
                                             for cid in ids]))
    kw_index = KeywordIndex((cid, docs[cid]) for cid in ids)
    return RetrieverDeps(tokenize=lambda text: set(text.split()),
                         embedder=FixedEmbedder(query_values), dense_index=dense_index,
                         kw_index=kw_index, chunk_texts={cid: cid for cid in rows})


def brute_force_fused(query: str, deps: RetrieverDeps, rows: dict[str, np.ndarray],
                      docs: dict[str, set[str]], cfg: RetrievalConfig):
    """The fused top k from each row's exactly rounded dot product: identical rows tie
    wherever they sit, and each list keeps its first n by (-score, chunk_id)."""
    q = embed(query, deps.embedder)
    q_tokens = deps.tokenize(query)
    dense = {cid: math.fsum(row * q) for cid, row in rows.items()}
    sparse = {cid: iou_score(q_tokens, toks) for cid, toks in docs.items()}
    pool: set[str] = set()
    if cfg.mode != SPARSE_ONLY:
        pool.update(sorted(dense, key=lambda c: (-dense[c], c))[:cfg.n_dense])
    if cfg.mode != DENSE_ONLY:
        hits = [c for c in sparse if sparse[c] > 0]
        pool.update(sorted(hits, key=lambda c: (-sparse[c], c))[:cfg.n_sparse])
    fused = {c: cfg.alpha * dense[c] + (1.0 - cfg.alpha) * sparse[c] for c in pool}
    return sorted(fused.items(), key=lambda x: (-x[1], x[0]))[:cfg.top_k]


PLANTED_ROWS = (10, 30, 48, 49)


@pytest.mark.parametrize("mode", [DENSE_ONLY, HYBRID])
@pytest.mark.parametrize("seed", [23, 37])
def test_identical_rows_tied_at_the_dense_cut_enter_the_pool_by_chunk_id(seed, mode):
    """One vector at rows 10, 30, 48 and 49 of a 50 x 24 index ties at the n_dense-th
    place; the pool takes the chunk_id-first ones whatever their rows, and the fused
    order is the brute force's. On an x86-64 OpenBLAS a matrix-vector product scores
    the last two rows (past the last block of 16) a few ulps above the others for
    these seeds' queries, and so let c48 and c49 in."""
    rng = np.random.default_rng(seed)
    planted = unit(rng.normal(size=24))
    q = unit(planted + 0.3 * unit(rng.normal(size=24)))
    vectors = [unit(rng.normal(size=24)) for _ in range(50)]
    for row in PLANTED_ROWS:
        vectors[row] = planted
    for row in (0, 1):  # the two best rows, above the tie
        vectors[row] = unit(q + 0.05 * unit(rng.normal(size=24)))
    rows = {f"c{row:02d}#0": v for row, v in enumerate(vectors)}
    docs = {f"c{row:02d}#0": {"v"} if row in PLANTED_ROWS else {f"x{row % 7}", f"y{row % 3}"}
            for row in range(50)}
    deps = vector_deps(rows, docs, q)
    cfg = RetrievalConfig(n_dense=4, n_sparse=1, top_k=5, mode=mode)
    pool = first_stage("x1 y2", deps, cfg)
    assert [c.chunk_id for c in pool if docs[c.chunk_id] == {"v"}] == ["c10#0", "c30#0"]
    assert len({c.dense_score for c in pool if docs[c.chunk_id] == {"v"}}) == 1
    got = two_stage_retrieve("x1 y2", deps, cfg).candidates
    want = brute_force_fused("x1 y2", deps, rows, docs, cfg)
    assert [c.chunk_id for c in got] == [cid for cid, _ in want]
    assert [c.rerank_score for c in got] == [pytest.approx(s, abs=1e-9) for _, s in want]


small_vectors = st.lists(st.integers(0, 2), min_size=6, max_size=6).filter(any)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(small_vectors, st.sets(st.sampled_from("abcde"), min_size=1)),
                min_size=1, max_size=30),
       small_vectors, st.sets(st.sampled_from("abcdef"), min_size=1),
       st.sampled_from(MODES), st.integers(1, 8), st.integers(1, 8))
def test_pool_scores_are_the_search_lists_scores(chunks, query_vector, query_tokens, mode,
                                                 n_dense, n_sparse):
    """Small integer vectors and few tokens give many ties. Each pooled candidate
    carries, compared with ==, the score its search list gave it, and each of its scores
    is `_score([id])` or `iou_score`, which equal what a search would give."""
    ids = [f"c{i:02d}#0" for i in range(len(chunks))][::-1]  # rows out of chunk_id order
    rows = {cid: np.array(v, dtype=np.float64) for cid, (v, _) in zip(ids, chunks)}
    docs = {cid: toks for cid, (_, toks) in zip(ids, chunks)}
    deps = vector_deps(rows, docs, np.array(query_vector, dtype=np.float64))
    query = " ".join(sorted(query_tokens))
    cfg = RetrievalConfig(n_dense=n_dense, n_sparse=n_sparse, top_k=1, mode=mode)
    q = embed(query, deps.embedder)
    dense = dict(deps.dense_index.search(q, n_dense)) if mode != SPARSE_ONLY else {}
    sparse = dict(deps.kw_index.search(query_tokens, n_sparse)) if mode != DENSE_ONLY else {}
    pool = first_stage(query, deps, cfg)
    assert [c.chunk_id for c in pool] == sorted(dense.keys() | sparse.keys())
    for c in pool:
        assert [c.dense_score] == deps.dense_index._score([c.chunk_id], q).tolist()
        assert c.sparse_score == iou_score(query_tokens, docs[c.chunk_id])
        if c.chunk_id in dense:
            assert c.dense_score == dense[c.chunk_id]
        if c.chunk_id in sparse:
            assert c.sparse_score == sparse[c.chunk_id]


def pool_digest(pool) -> list[tuple]:
    return [(c.chunk_id, c.dense_score.hex(), c.sparse_score.hex()) for c in pool]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(small_vectors, st.sets(st.sampled_from("abcde"), max_size=4)),
                min_size=1, max_size=30),
       small_vectors, st.sets(st.sampled_from("abcdef"), min_size=1),
       st.integers(1, 8), st.integers(1, 8))
def test_a_reloaded_index_pools_what_the_in_memory_one_pools(tmp_path_factory, chunks,
                                                              query_vector, query_tokens,
                                                              n_dense, n_sparse):
    """Rows given out of chunk_id order, saved and loaded: in every mode the pool has
    the same ids and scores to the last bit (an empty token set included)."""
    ids = [f"c{i:02d}#0" for i in range(len(chunks))][::-1]
    rows = {cid: np.array(v, dtype=np.float64) for cid, (v, _) in zip(ids, chunks)}
    docs = {cid: toks for cid, (_, toks) in zip(ids, chunks)}
    live = vector_deps(rows, docs, np.array(query_vector, dtype=np.float64))
    d = tmp_path_factory.mktemp("idx")
    live.dense_index.save(d / "vectors.bin")
    live.kw_index.save(d / "keywords.bin")
    loaded = RetrieverDeps(tokenize=live.tokenize, embedder=live.embedder,
                           dense_index=VectorIndex.load(d / "vectors.bin"),
                           kw_index=KeywordIndex.load(d / "keywords.bin"),
                           chunk_texts=live.chunk_texts)
    query = " ".join(sorted(query_tokens))
    for mode in MODES:
        cfg = RetrievalConfig(n_dense=n_dense, n_sparse=n_sparse, top_k=1, mode=mode)
        assert pool_digest(first_stage(query, loaded, cfg)) == \
            pool_digest(first_stage(query, live, cfg))


# ---------------------------------------------------------------------------
# Fusion and rerank
# ---------------------------------------------------------------------------

def test_fusion_score_arithmetic():
    cand = RetrievalCandidate(chunk_id="x", dense_score=0.9, sparse_score=0.1)
    other = RetrievalCandidate(chunk_id="y", dense_score=0.2, sparse_score=1.0)

    def fused(alpha: float) -> list[tuple[str, float]]:
        ranked, warnings = rerank("q", [cand, other], make_deps(), RetrievalConfig(alpha=alpha))
        assert warnings == []
        return [(c.chunk_id, c.rerank_score) for c in ranked]

    assert dict(fused(0.5))["x"] == pytest.approx(0.5)
    assert dict(fused(1.0))["x"] == pytest.approx(0.9)
    assert dict(fused(0.0))["x"] == pytest.approx(0.1)
    # at alpha 0.5 the sparse-strong candidate wins: 0.6 > 0.5
    assert fused(0.5)[0] == ("y", pytest.approx(0.6))
    # at alpha 0.9 the dense-strong one wins: 0.82 > 0.28
    assert fused(0.9) == [("x", pytest.approx(0.82)), ("y", pytest.approx(0.28))]


def test_rerank_fusion_fallback_ordering():
    deps = make_deps()
    cands = [
        RetrievalCandidate(chunk_id="a", dense_score=0.9, sparse_score=0.1),
        RetrievalCandidate(chunk_id="b", dense_score=0.2, sparse_score=1.0),
    ]
    ranked, warnings = rerank("q", cands, deps, RetrievalConfig(alpha=0.5))
    assert warnings == []
    assert [c.chunk_id for c in ranked] == ["b", "a"]
    assert ranked[0].rerank_score == pytest.approx(0.6)
    ranked, _ = rerank("q", cands, deps, RetrievalConfig(alpha=0.9))
    assert [c.chunk_id for c in ranked] == ["a", "b"]


def test_rerank_alpha_extremes_degenerate_to_single_mode():
    deps = make_deps()
    pool = first_stage(f"{A} {C}", deps, RetrievalConfig())
    dense_order = [c.chunk_id for c in
                   sorted(pool, key=lambda c: (-c.dense_score, c.chunk_id))]
    sparse_order = [c.chunk_id for c in
                    sorted(pool, key=lambda c: (-c.sparse_score, c.chunk_id))]
    ranked, _ = rerank("q", pool, deps, RetrievalConfig(alpha=1.0))
    assert [c.chunk_id for c in ranked] == dense_order
    ranked, _ = rerank("q", pool, deps, RetrievalConfig(alpha=0.0))
    assert [c.chunk_id for c in ranked] == sparse_order


def test_rerank_tie_breaks_by_chunk_id():
    deps = make_deps()
    cands = [
        RetrievalCandidate(chunk_id="z", dense_score=0.5, sparse_score=0.5),
        RetrievalCandidate(chunk_id="a", dense_score=0.5, sparse_score=0.5),
    ]
    ranked, _ = rerank("q", cands, deps, RetrievalConfig())
    assert [c.chunk_id for c in ranked] == ["a", "z"]


def test_rerank_scores_and_orders_the_very_candidates_it_is_given():
    deps = make_deps()
    cands = [RetrievalCandidate(chunk_id="a", dense_score=0.9, sparse_score=0.1),
             RetrievalCandidate(chunk_id="b", dense_score=0.2, sparse_score=1.0)]
    first, second = cands
    ranked, _ = rerank("q", cands, deps, RetrievalConfig(alpha=0.5))
    assert ranked[0] is second and ranked[1] is first
    assert (first.rerank_score, second.rerank_score) == (pytest.approx(0.5), pytest.approx(0.6))
    assert cands[0] is first and cands[1] is second  # the list handed in keeps its order


def test_rerank_empty_pool_is_an_error():
    deps = make_deps()
    with pytest.raises(RetrievalError):
        rerank("q", [], deps, RetrievalConfig())


class FixedRerank:
    def __init__(self, scores):
        self.scores = scores
        self.calls = []

    def rerank(self, query, documents):
        self.calls.append((query, list(documents)))
        return self.scores[:len(documents)]


class BrokenRerank:
    def rerank(self, query, documents):
        raise ProviderError("provider offline")


def test_rerank_provider_scores_win():
    provider = FixedRerank([0.1, 0.9, 0.5])
    deps = make_deps(rerank_provider=provider)
    pool = first_stage(f"{A} {B}", deps, RetrievalConfig())
    ranked, warnings = rerank(f"{A} {B}", pool, deps, RetrievalConfig())
    assert warnings == []
    # provider scores are positional: pool order is c1, c2, c3
    assert [c.chunk_id for c in ranked] == ["c2#0", "c3#0", "c1#0"]
    assert [c.rerank_score for c in ranked] == [0.9, 0.5, 0.1]
    assert provider.calls[0][1] == [deps.chunk_texts[c.chunk_id] for c in pool]


def test_rerank_provider_failure_degrades_with_warning():
    deps = make_deps(rerank_provider=BrokenRerank())
    pool = first_stage(f"{A} {B}", deps, RetrievalConfig())
    ranked, warnings = rerank(f"{A} {B}", pool, deps, RetrievalConfig(alpha=0.5))
    assert len(warnings) == 1
    assert "fusion fallback" in warnings[0]
    assert ranked[0].rerank_score == pytest.approx(
        0.5 * ranked[0].dense_score + (1.0 - 0.5) * ranked[0].sparse_score)


# ---------------------------------------------------------------------------
# Two-stage pipeline
# ---------------------------------------------------------------------------

def test_two_stage_truncates_to_top_k():
    deps = make_deps()
    result = two_stage_retrieve(f"{A} {B}", deps, RetrievalConfig(top_k=2))
    assert [c.chunk_id for c in result.candidates] == ["c1#0", "c2#0"]
    assert result.warnings == []


def test_two_stage_empty_pool():
    deps = make_deps()
    result = two_stage_retrieve(f"{E}", deps, RetrievalConfig(mode=SPARSE_ONLY, top_k=1))
    assert [c.chunk_id for c in result.candidates] == ["c3#0"]
    result = two_stage_retrieve("unknowntoken", deps,
                                RetrievalConfig(mode=SPARSE_ONLY, top_k=1))
    assert result.candidates == []


def test_parent_case_id():
    assert parent_case_id("c1#0") == "c1"
    assert parent_case_id("c1#12") == "c1"
    assert parent_case_id("a#b#2") == "a#b"
    assert parent_case_id("noseparator") == "noseparator"


# ---------------------------------------------------------------------------
# Queries without tokens
# ---------------------------------------------------------------------------

class RefusingEmbedder:
    def embed_raw(self, text):
        raise AssertionError("a query without tokens must not be embedded")


@pytest.mark.parametrize("mode", MODES)
def test_query_without_tokens_retrieves_nothing_with_a_warning(mode):
    deps = dataclasses.replace(make_deps(), embedder=RefusingEmbedder())
    assert first_stage("  ", deps, RetrievalConfig(mode=mode)) == []
    result = two_stage_retrieve("  ", deps, RetrievalConfig(mode=mode))
    assert result.candidates == []
    assert len(result.warnings) == 1 and "no searchable tokens" in result.warnings[0]


def test_query_matching_nothing_has_no_warning():
    result = two_stage_retrieve("unknowntoken", make_deps(), RetrievalConfig(mode=SPARSE_ONLY))
    assert result.candidates == [] and result.warnings == []


@pytest.mark.parametrize("mode", MODES)
def test_a_query_without_tokens_warns_on_every_call_and_is_not_remembered(mode):
    deps = dataclasses.replace(make_deps(), embedder=RefusingEmbedder())
    cfg = RetrievalConfig(mode=mode)
    first, again = (two_stage_retrieve("  ", deps, cfg) for _ in range(2))
    assert again == first and len(first.warnings) == 1
    assert first.warnings[0] == "query '  ' has no searchable tokens; nothing retrieved"
    assert deps._pools == {}


def test_a_remembered_empty_pool_still_has_no_warning():
    deps = make_deps()
    cfg = RetrievalConfig(mode=SPARSE_ONLY)
    for _ in range(2):
        assert two_stage_retrieve("unknowntoken", deps, cfg) == \
            retrieve.RetrievalResult(candidates=[])
    assert len(deps._pools) == 1


# ---------------------------------------------------------------------------
# The pool memo
# ---------------------------------------------------------------------------

def result_digest(result) -> list[tuple]:
    return [(c.chunk_id, c.dense_score.hex(), c.sparse_score.hex(), c.rerank_score.hex())
            for c in result.candidates]


@pytest.mark.parametrize("reloaded", [False, True], ids=["in_memory", "reloaded"])
@pytest.mark.parametrize("strategy", [OVERLAP_WINDOW, TOKEN_CHUNK])
def test_a_remembered_pool_is_bit_identical_to_a_fresh_one(tmp_path, sample_retrievers,
                                                          task_items, strategy, reloaded):
    """Every task text in every mode, twice over one deps (a miss, then a hit): each
    pool and top k is, to the last bit, what a deps that remembers nothing gives."""
    built = sample_retrievers[strategy]
    if reloaded:
        built.dense_index.save(tmp_path / "vectors.bin")
        built.kw_index.save(tmp_path / "keywords.bin")
        built = dataclasses.replace(built, dense_index=VectorIndex.load(tmp_path / "vectors.bin"),
                                    kw_index=KeywordIndex.load(tmp_path / "keywords.bin"))
    deps = dataclasses.replace(built)  # a memo of its own
    queries = [item.case_text for item in task_items]
    for mode in MODES:
        cfg = RetrievalConfig(mode=mode)
        for query in queries:
            want = (pool_digest(first_stage(query, dataclasses.replace(built), cfg)),
                    result_digest(two_stage_retrieve(query, dataclasses.replace(built), cfg)))
            for _ in range(2):
                assert (pool_digest(first_stage(query, deps, cfg)),
                        result_digest(two_stage_retrieve(query, deps, cfg))) == want
    assert len(deps._pools) == len(MODES) * len(set(queries))


def test_a_hit_reranks_by_each_calls_alpha_and_top_k():
    deps = make_deps()
    query = f"{A} {C}"
    two_stage_retrieve(query, deps, RetrievalConfig())
    for alpha in (0.0, 0.3, 1.0):
        for top_k in (1, 2, 3):
            cfg = RetrievalConfig(alpha=alpha, top_k=top_k)
            got = two_stage_retrieve(query, deps, cfg)
            assert result_digest(got) == result_digest(two_stage_retrieve(query, make_deps(),
                                                                          cfg))
            assert len(got.candidates) == top_k
    assert len(deps._pools) == 1  # alpha and top_k are not part of the key


def test_the_rerank_provider_is_asked_on_every_retrieval_and_each_failure_falls_back():
    class FailingSecond(FixedRerank):
        def rerank(self, query, documents):
            if len(self.calls) == 1:
                self.calls.append((query, list(documents)))
                raise ProviderError("provider offline")
            return super().rerank(query, documents)

    provider = FailingSecond([0.1, 0.9, 0.5])
    deps = make_deps(rerank_provider=provider)
    query, cfg = f"{A} {B}", RetrievalConfig()
    results = [two_stage_retrieve(query, deps, cfg) for _ in range(3)]
    assert len(provider.calls) == 3 and len(deps._pools) == 1
    assert [c.chunk_id for c in results[0].candidates] == ["c2#0", "c3#0", "c1#0"]
    assert results[2] == results[0] and results[0].warnings == []
    assert results[1].warnings == [f"{RERANK_FALLBACK}: provider offline"]
    assert result_digest(results[1]) == result_digest(two_stage_retrieve(query, make_deps(),
                                                                         cfg))


def test_a_hit_hands_out_candidates_of_its_own():
    deps = make_deps()
    first = first_stage(f"{A} {B}", deps, RetrievalConfig())
    want = pool_digest(first)
    for cand in first:
        cand.dense_score = cand.sparse_score = -1.0
    first.clear()
    assert pool_digest(first_stage(f"{A} {B}", deps, RetrievalConfig())) == want


def test_a_full_memo_drops_its_oldest_pool(monkeypatch):
    embedded: list[str] = []
    real_embed = retrieve.embed
    monkeypatch.setattr(retrieve, "embed",
                        lambda text, provider: embedded.append(text) or real_embed(text, provider))
    monkeypatch.setattr(retrieve, "_POOL_MEMO_LIMIT", 2)
    deps = make_deps()
    cfg = RetrievalConfig()
    q1, q2, q3 = A, B, f"{A} {B}"
    for query in (q1, q2, q3, q2, q3, q1, q3):
        first_stage(query, deps, cfg)
    # q3 drops q1, the oldest; q2 and q3 then hit; q1 misses again and drops q2
    assert embedded == [q1, q2, q3, q1]
    assert [key[0] for key in deps._pools] == [q3, q1]
    assert len({key[1:] for key in deps._pools}) == 1
    # a mode or pool size is a key of its own
    first_stage(q3, deps, RetrievalConfig(mode=DENSE_ONLY))
    first_stage(q3, deps, RetrievalConfig(n_sparse=2))
    assert embedded == [q1, q2, q3, q1, q3, q3]


def test_retriever_deps_fields_cannot_be_assigned():
    deps = make_deps()
    for f in dataclasses.fields(RetrieverDeps):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(deps, f.name, None)
    assert "_pools" not in repr(deps)


def test_first_stage_runs_once_per_retrieval(monkeypatch):
    """A hook on `retrieve.first_stage`, as a tracer installs, sees every pool, a
    remembered one too."""
    seen = []
    real_first_stage = retrieve.first_stage

    def hooked(query_text, deps, cfg):
        seen.append(real_first_stage(query_text, deps, cfg))
        return seen[-1]

    monkeypatch.setattr(retrieve, "first_stage", hooked)
    deps = make_deps()
    for _ in range(3):
        two_stage_retrieve(f"{A} {B}", deps, RetrievalConfig())
    assert len(seen) == 3 and len(deps._pools) == 1
    assert pool_digest(seen[2]) == pool_digest(seen[0])


@pytest.mark.parametrize("mode", MODES)
def test_a_retrieval_builds_one_candidate_per_pooled_chunk(monkeypatch, mode):
    """On a pool-memo miss and on a hit: `first_stage` builds the pool's candidates and
    `rerank` scores and orders those same ones, building none of its own."""
    built, pools = [], []

    class Counted(RetrievalCandidate):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    real_first_stage = retrieve.first_stage

    def hooked(query_text, deps, cfg):
        pools.append(real_first_stage(query_text, deps, cfg))
        return pools[-1]

    monkeypatch.setattr(retrieve, "RetrievalCandidate", Counted)
    monkeypatch.setattr(retrieve, "first_stage", hooked)
    deps = make_deps()
    cfg = RetrievalConfig(mode=mode, top_k=1)
    for lookup in ("miss", "hit"):
        built.clear()
        result = two_stage_retrieve(f"{A} {B} {D}", deps, cfg)
        assert len(pools[-1]) == 3, lookup
        assert len(built) == 3 and all(b is c for b, c in zip(built, pools[-1])), lookup
        assert result.candidates[0] is built[0] and built[0].rerank_score > 0.0, lookup
    assert len(deps._pools) == 1


# ---------------------------------------------------------------------------
# HTTP rerank provider replies
# ---------------------------------------------------------------------------

class Reply:
    def __init__(self, payload, status_code=200):
        self.status_code = status_code
        self._payload = payload

    def raise_for_status(self):
        if self.status_code >= 400:
            raise requests.HTTPError(f"HTTP {self.status_code}")

    def json(self):
        return self._payload


def http_rerank(monkeypatch, payload):
    """Deps with an HTTP rerank provider whose endpoint answers `payload`, and the pool."""
    posted = []

    def post(*args, **kwargs):
        posted.append(kwargs["json"])
        return Reply(payload)

    monkeypatch.setattr(requests, "post", post)
    deps = make_deps(rerank_provider=HttpRerankProvider(url="http://x", model="m"))
    return deps, first_stage(f"{A} {B}", deps, RetrievalConfig()), posted


def scored(*pairs):
    return {"results": [{"index": i, "relevance_score": s} for i, s in pairs]}


@pytest.mark.parametrize("payload", [
    {"results": [{"index": 0}, {"index": 1, "relevance_score": 0.5},
                 {"index": 2, "relevance_score": 0.1}]},           # a score missing
    scored((0, 0.9), (1, 0.5), (-1, 0.1)),                        # index -1
    scored((0, 0.9), (1, 0.5), (3, 0.1)),                         # index >= n
    scored((0, 0.9), (1, 0.5), (1, 0.1)),                         # one document twice
    scored((0, 0.9), (1, 0.5)),                                   # a document missing
    scored((0, 0.9), (1, "high"), (2, 0.1)),                      # a score not a number
    scored((0, 0.9), (True, 0.5), (2, 0.1)),                      # an index not an int
    scored((0, float("nan")), (1, 0.5), (2, 0.1)),                # NaN, as json() parses it
    scored((0, float("inf")), (1, 0.5), (2, 0.1)),                # Infinity
    scored((0, 0.9), (1, float("-inf")), (2, 0.1)),               # -Infinity
    scored((0, 10 ** 400), (1, 0.5), (2, 0.1)),                   # an int no float holds
    {"results": {"0": 0.9}},                                      # results not a list
    {"data": []},                                                 # no results at all
], ids=["no-score", "index-minus-1", "index-n", "duplicate", "missing-doc", "str-score",
        "bool-index", "nan-score", "inf-score", "minus-inf-score", "huge-int-score",
        "results-dict", "no-results"])
def test_http_rerank_malformed_reply_falls_back_to_fusion(monkeypatch, payload):
    deps, pool, posted = http_rerank(monkeypatch, payload)
    ranked, warnings = rerank(f"{A} {B}", pool, deps, RetrievalConfig(alpha=0.5))
    assert len(posted) == 1  # one attempt, no retries
    assert len(warnings) == 1 and "fusion fallback" in warnings[0]
    for cand in ranked:
        assert cand.rerank_score == 0.5 * cand.dense_score + (1.0 - 0.5) * cand.sparse_score


def test_http_rerank_rejected_request_falls_back_to_fusion(monkeypatch):
    monkeypatch.setattr(requests, "post", lambda *a, **k: Reply(None, status_code=401))
    deps = make_deps(rerank_provider=HttpRerankProvider(url="http://x", model="m"))
    pool = first_stage(f"{A} {B}", deps, RetrievalConfig())
    ranked, warnings = rerank(f"{A} {B}", pool, deps, RetrievalConfig())
    assert warnings == [f"{RERANK_FALLBACK}: http://x: HTTP 401"]


def test_http_rerank_valid_reply_ranks_by_provider_scores(monkeypatch):
    deps, pool, posted = http_rerank(monkeypatch, scored((2, 0.5), (0, 0.1), (1, 0.9)))
    ranked, warnings = rerank(f"{A} {B}", pool, deps, RetrievalConfig())
    assert warnings == []
    assert posted[0]["documents"] == [deps.chunk_texts[c.chunk_id] for c in pool]
    assert [(c.chunk_id, c.rerank_score) for c in ranked] == \
        [("c2#0", 0.9), ("c3#0", 0.5), ("c1#0", 0.1)]


# ---------------------------------------------------------------------------
# One tokenization per text
# ---------------------------------------------------------------------------

def test_a_shared_tokenizer_cuts_each_text_once(monkeypatch, lexicon, hmm, sample_cases):
    real_token_set = engine.token_set
    tokenized: list[str] = []

    def counting_token_set(text, lex, hmm=None):
        tokenized.append(text)
        return real_token_set(text, lex, hmm)

    chunks = engine.chunk_corpus(sample_cases, TOKEN_CHUNK, lexicon, hmm)
    monkeypatch.setattr(engine, "token_set", counting_token_set)
    tokenize = engine.make_tokenizer(lexicon, hmm)
    embedder = StubEmbedProvider(tokenize=tokenize)
    dense_index, kw_index = engine.build_indexes(chunks, tokenize, embedder)
    assert tokenized == [c.text for c in chunks]
    for c in chunks:
        # an IoU of 1 with the set cut gives: the row holds exactly that set
        expected = {t for t, _ in cut(c.text, lexicon, hmm).tokens if not _is_ignorable(t)}
        assert kw_index._score([c.chunk_id], expected).tolist() == [1.0]
        assert (dense_index._score([c.chunk_id], embed(c.text, embedder)).tolist()
                == [pytest.approx(1.0)])

    deps = RetrieverDeps(tokenize=tokenize, embedder=embedder, dense_index=dense_index,
                         kw_index=kw_index, chunk_texts={c.chunk_id: c.text for c in chunks})
    for query in ("胃脘胀痛，嗳气吞酸", "？？"):
        tokenized.clear()
        first_stage(query, deps, RetrievalConfig())
        two_stage_retrieve(query, deps, RetrievalConfig())
        assert tokenized == [query]


# ---------------------------------------------------------------------------
# Building both indexes
# ---------------------------------------------------------------------------

def text_chunks(texts: list[tuple[str, str]]) -> list[Chunk]:
    return [Chunk(chunk_id=cid, case_id=parent_case_id(cid), text=text,
                  char_span=(0, len(text)), strategy=TOKEN_CHUNK) for cid, text in texts]


def split_words(text: str) -> set[str]:
    return set(text.split())


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.text("ab#01中", min_size=1, max_size=4),
                          st.lists(st.sampled_from("abcde"), min_size=1, max_size=5)),
                unique_by=lambda doc: doc[0], max_size=20),
       st.randoms())
def test_build_indexes_keeps_one_row_order_whatever_the_chunk_order(tmp_path_factory, docs,
                                                                     rnd):
    """Any permutation of the chunk list builds both indexes with the sorted chunk ids as
    their rows, the same matrix bytes and byte-identical saved files."""
    chunks = text_chunks([(cid, " ".join(words)) for cid, words in docs])
    shuffled = rnd.sample(chunks, len(chunks))
    embedder = StubEmbedProvider(tokenize=split_words, dim=16)
    built = []
    for order in (chunks, shuffled):
        dense_index, kw_index = engine.build_indexes(order, split_words, embedder)
        assert dense_index.ids == kw_index.ids == sorted(cid for cid, _ in docs)
        assert dense_index.dim == (16 if docs else None)
        d = tmp_path_factory.mktemp("idx")
        dense_index.save(d / "vectors.bin")
        kw_index.save(d / "keywords.bin")
        built.append((dense_index._matrix.tobytes(), (d / "vectors.bin").read_bytes(),
                      (d / "keywords.bin").read_bytes()))
    assert built[0] == built[1]


class GrowingEmbedder:
    """Each text's vector is one longer than the last one's."""

    def __init__(self) -> None:
        self.calls = 0

    def embed_raw(self, text):
        self.calls += 1
        return [1.0] * (self.calls + 1)


def test_build_indexes_names_a_chunk_whose_dim_differs():
    chunks = text_chunks([("c2#0", "b"), ("c1#0", "a")])  # c1#0 is embedded first
    with pytest.raises(EmbeddingError, match=r"^chunk 'c2#0': dim mismatch: index 2, vector 3$"):
        engine.build_indexes(chunks, split_words, GrowingEmbedder())


def test_build_indexes_names_a_repeated_chunk_id_before_embedding():
    embedder = GrowingEmbedder()
    chunks = text_chunks([("c1#0", "a"), ("c2#0", "b"), ("c1#0", "c")])
    with pytest.raises(EmbeddingError, match="duplicate chunk_id 'c1#0'"):
        engine.build_indexes(chunks, split_words, embedder)
    assert embedder.calls == 0
