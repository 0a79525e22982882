"""Two-stage hybrid retrieval: pooled dense+sparse candidates, rerank, prompt context."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Protocol

from .corpus import ClinicalCase, render_demonstration
from .dense import EmbedProvider, VectorIndex, embed
from .sparse import KeywordIndex
from .transport import ProviderError, post_json

DENSE_ONLY = "dense_only"
SPARSE_ONLY = "sparse_only"
HYBRID = "hybrid"
MODES = (DENSE_ONLY, SPARSE_ONLY, HYBRID)
RERANK_FALLBACK = "rerank provider failed, using fusion fallback"


class RetrievalError(ValueError):
    pass


@dataclass(frozen=True)
class RetrievalConfig:
    n_dense: int = 50
    n_sparse: int = 50
    top_k: int = 3
    alpha: float = 0.5  # fusion weight on the dense score
    mode: str = HYBRID

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise RetrievalError(f"unknown mode {self.mode!r}")
        if not 0.0 <= self.alpha <= 1.0:
            raise RetrievalError(f"alpha must be in [0,1], got {self.alpha}")
        for name in ("top_k", "n_dense", "n_sparse"):
            if getattr(self, name) < 1:
                raise RetrievalError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.top_k > self.n_dense + self.n_sparse:
            raise RetrievalError("top_k exceeds the first-stage pool bound")


@dataclass
class RetrievalCandidate:
    chunk_id: str
    dense_score: float
    sparse_score: float
    rerank_score: float = 0.0


@dataclass
class RetrieverDeps:
    tokenize: Callable[[str], set[str]]
    embedder: EmbedProvider
    dense_index: VectorIndex
    kw_index: KeywordIndex
    chunk_texts: dict[str, str]
    rerank_provider: "RerankProvider | None" = None


@dataclass
class RetrievalResult:
    candidates: list[RetrievalCandidate]
    warnings: list[str] = field(default_factory=list)


class RerankProvider(Protocol):
    def rerank(self, query: str, documents: list[str]) -> list[float]:
        """One score per document, or transport.ProviderError."""


@dataclass
class HttpRerankProvider:
    """One attempt per query, no retries: a query waits on it, and fusion is its fallback."""
    url: str
    model: str
    api_key_env: str = "RERANK_API_KEY"
    timeout: float = 30.0

    def rerank(self, query: str, documents: list[str]) -> list[float]:
        body = {"model": self.model, "query": query, "documents": documents}
        return post_json(self.url, body, self.api_key_env, self.timeout,
                         lambda reply: _rerank_scores(reply, len(documents)))


def _rerank_scores(reply, n: int) -> list[float]:
    """Per-document scores from a reply giving each of the n documents exactly one
    entry with an int `index` in [0, n) and a finite numeric `relevance_score`."""
    results = reply["results"]
    if not isinstance(results, list):
        raise ValueError("'results' is not a list")
    scores: list[float | None] = [None] * n
    for entry in results:
        index, score = entry["index"], entry["relevance_score"]
        if type(index) is not int or not 0 <= index < n:
            raise ValueError(f"result index {index!r} is not a document index in [0, {n})")
        if type(score) not in (int, float) or not math.isfinite(score):
            raise ValueError(f"relevance_score {score!r} is not a finite number")
        if scores[index] is not None:
            raise ValueError(f"document {index} is scored twice")
        scores[index] = float(score)
    if None in scores:
        raise ValueError(f"document {scores.index(None)} is not scored")
    return scores


def first_stage(query_text: str, deps: RetrieverDeps,
                cfg: RetrievalConfig) -> list[RetrievalCandidate]:
    """Pool dense and sparse top lists (per mode); fill both scores for every candidate.

    The search lists give membership only. Both scores of every pooled candidate come
    from one gather per index, bit for bit the scores its searches rank by."""
    query_tokens = deps.tokenize(query_text)
    if not query_tokens:
        return []
    query_vec = embed(query_text, deps.embedder)

    dense = ({cid for cid, _ in deps.dense_index.search(query_vec, cfg.n_dense)}
             if cfg.mode in (DENSE_ONLY, HYBRID) else set())
    sparse = ({cid for cid, _ in deps.kw_index.search(query_tokens, cfg.n_sparse)}
              if cfg.mode in (SPARSE_ONLY, HYBRID) else set())
    pooled = sorted(dense | sparse)
    if not pooled:  # a zero-chunk index has no dim to score against
        return []
    return [RetrievalCandidate(chunk_id=cid, dense_score=d, sparse_score=s)
            for cid, d, s in zip(pooled, deps.dense_index._score(pooled, query_vec),
                                 deps.kw_index._score(pooled, query_tokens))]


def rerank(query_text: str, candidates: list[RetrievalCandidate], deps: RetrieverDeps,
           cfg: RetrievalConfig) -> tuple[list[RetrievalCandidate], list[str]]:
    """Provider-scored rerank when configured; linear dense/sparse fusion otherwise.

    A provider failure degrades to fusion scoring and is reported in the warnings,
    never swallowed.
    """
    if not candidates:
        raise RetrievalError("rerank requires a non-empty candidate list")
    warnings: list[str] = []
    scores: list[float] | None = None
    if deps.rerank_provider is not None:
        docs = [deps.chunk_texts[c.chunk_id] for c in candidates]
        try:
            scores = deps.rerank_provider.rerank(query_text, docs)
        except ProviderError as exc:
            warnings.append(f"{RERANK_FALLBACK}: {exc}")
    if scores is None:
        scores = [cfg.alpha * c.dense_score + (1.0 - cfg.alpha) * c.sparse_score
                  for c in candidates]
    scored = [RetrievalCandidate(c.chunk_id, c.dense_score, c.sparse_score, s)
              for c, s in zip(candidates, scores)]
    scored.sort(key=lambda c: (-c.rerank_score, c.chunk_id))
    return scored, warnings


def two_stage_retrieve(query_text: str, deps: RetrieverDeps,
                       cfg: RetrievalConfig) -> RetrievalResult:
    pool = first_stage(query_text, deps, cfg)
    if not pool:
        # tells a query with no tokens from one that matched nothing; the tokenizer
        # remembers the text first_stage just cut, so this cuts nothing again
        if deps.tokenize(query_text):
            return RetrievalResult(candidates=[])
        return RetrievalResult(candidates=[], warnings=[
            f"query {query_text!r} has no searchable tokens; nothing retrieved"])
    ranked, warnings = rerank(query_text, pool, deps, cfg)
    return RetrievalResult(candidates=ranked[:cfg.top_k], warnings=warnings)


def parent_case_id(chunk_id: str) -> str:
    return chunk_id.rsplit("#", 1)[0]


def prompt_context(result: RetrievalResult, chunk_texts: dict[str, str],
                   corpus: dict[str, ClinicalCase]) -> tuple[list[tuple[str, str]], str | None]:
    """Context blocks (chunk_id, text) for the retrieved chunks, and the rendered parent
    case of the top chunk as the demonstration; None when nothing was retrieved or the
    parent case is not in corpus."""
    blocks = [(c.chunk_id, chunk_texts[c.chunk_id]) for c in result.candidates]
    top_case = corpus.get(parent_case_id(blocks[0][0])) if blocks else None
    return blocks, render_demonstration(top_case) if top_case is not None else None
