"""Wiring helpers: corpus -> chunks -> dense/sparse indexes."""
from __future__ import annotations

from typing import Callable

import numpy as np

from .corpus import (DEFAULT_MAX_TOKENS, DEFAULT_OVERLAP, DEFAULT_OVERLAP_TOKENS,
                     DEFAULT_WINDOW, OVERLAP_WINDOW, TOKEN_CHUNK, Chunk, ClinicalCase,
                     case_document, chunk_by_tokens, chunk_overlap)
from .dense import EmbeddingError, EmbedProvider, VectorIndex, embed
from .segment import HmmModel, Lexicon, cut, token_set
from .sparse import KeywordIndex


def make_tokenizer(lex: Lexicon, hmm: HmmModel | None = None) -> Callable[[str], set[str]]:
    """text -> token set. It remembers its last text, so the keyword index and a stub
    embedder sharing it tokenize each text once; callers must not mutate the returned set.
    Across texts, `token_set` and `cut` cut each distinct CJK run once per `lex` object and
    `hmm` (the run memo on `lex`), so a tokenizer and `chunk_corpus` given the same `lex`
    share it."""
    last_text: str | None = None
    last_tokens: set[str] = set()

    def tokenize(text: str) -> set[str]:
        nonlocal last_text, last_tokens
        if text != last_text:
            last_tokens, last_text = token_set(text, lex, hmm), text
        return last_tokens
    return tokenize


def chunk_corpus(cases: list[ClinicalCase], strategy: str, lex: Lexicon,
                 hmm: HmmModel | None = None, *,
                 window: int = DEFAULT_WINDOW, overlap: int = DEFAULT_OVERLAP,
                 max_tokens: int = DEFAULT_MAX_TOKENS,
                 overlap_tokens: int = DEFAULT_OVERLAP_TOKENS) -> list[Chunk]:
    chunks: list[Chunk] = []
    for case in cases:
        doc = case_document(case)
        if strategy == OVERLAP_WINDOW:
            chunks.extend(chunk_overlap(doc, window, overlap, case_id=case.case_id))
        elif strategy == TOKEN_CHUNK:
            tokens = cut(doc, lex, hmm).tokens
            chunks.extend(chunk_by_tokens(doc, tokens, max_tokens, overlap_tokens,
                                          case_id=case.case_id))
        else:
            raise ValueError(f"unknown chunking strategy {strategy!r}")
    return chunks


def build_indexes(chunks: list[Chunk], tokenize: Callable[[str], set[str]],
                  embedder: EmbedProvider) -> tuple[VectorIndex, KeywordIndex]:
    """Both indexes over the chunks, their rows in chunk_id order whatever order the chunks
    come in. Each chunk is embedded into one preallocated matrix and its token set streamed
    into the keyword columns, so no set per chunk is kept. Raises EmbeddingError naming a
    repeated chunk id, or a chunk that cannot be embedded or whose dim differs."""
    chunks = sorted(chunks, key=lambda c: c.chunk_id)
    for a, b in zip(chunks, chunks[1:]):
        if a.chunk_id == b.chunk_id:
            raise EmbeddingError(f"duplicate chunk_id {a.chunk_id!r}")
    matrix = np.empty((0, 0), dtype="<f8")

    def rows():
        nonlocal matrix
        for row, chunk in enumerate(chunks):
            try:
                vec = embed(chunk.text, embedder)
                if row == 0:
                    matrix = np.empty((len(chunks), len(vec)), dtype="<f8")
                elif len(vec) != matrix.shape[1]:
                    raise EmbeddingError(f"dim mismatch: index {matrix.shape[1]}, "
                                         f"vector {len(vec)}")
            except EmbeddingError as exc:
                raise EmbeddingError(f"chunk {chunk.chunk_id!r}: {exc}") from exc
            matrix[row] = vec
            yield chunk.chunk_id, tokenize(chunk.text)

    kw_index = KeywordIndex(rows())
    return VectorIndex(kw_index.ids, matrix), kw_index
