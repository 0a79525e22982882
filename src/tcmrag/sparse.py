"""Keyword inverted index with token-set IoU (Jaccard) scoring."""
from __future__ import annotations

from pathlib import Path
from typing import Iterable


class KeywordIndexError(ValueError):
    pass


def iou_score(q: set[str], d: set[str]) -> float:
    """|q ∩ d| / |q ∪ d|; two empty sets score 0."""
    union = len(q | d)
    if union == 0:
        return 0.0
    return len(q & d) / union


class KeywordIndex:
    def __init__(self) -> None:
        self.postings: dict[str, list[str]] = {}
        self.doc_tokens: dict[str, set[str]] = {}

    def add(self, chunk_id: str, tokens: Iterable[str]) -> None:
        if chunk_id in self.doc_tokens:
            raise KeywordIndexError(f"duplicate chunk_id {chunk_id!r}")
        doc = self.doc_tokens[chunk_id] = set(tokens)
        for tok in doc:
            self.postings.setdefault(tok, []).append(chunk_id)

    def search(self, query_tokens: set[str], n: int) -> list[tuple[str, float]]:
        """Top-n candidates sharing at least one token, by IoU desc then chunk_id asc."""
        if n < 1:
            raise KeywordIndexError(f"n must be >= 1, got {n}")
        candidates: set[str] = set()
        for tok in query_tokens:
            candidates.update(self.postings.get(tok, ()))
        scored = [(cid, iou_score(query_tokens, self.doc_tokens[cid])) for cid in candidates]
        scored.sort(key=lambda x: (-x[1], x[0]))
        return scored[:n]

    def save(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for cid in sorted(self.doc_tokens):
                fh.write(cid + "\t" + " ".join(sorted(self.doc_tokens[cid])) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "KeywordIndex":
        index = cls()
        with open(path, encoding="utf-8") as fh:
            try:
                for lineno, line in enumerate(fh, 1):
                    if not line.endswith("\n"):  # save ends every line; this one was cut
                        raise KeywordIndexError(f"{path}:{lineno}: line cut short")
                    line = line[:-1]
                    if not line:
                        continue
                    if "\t" not in line:
                        raise KeywordIndexError(
                            f"{path}:{lineno}: expected '<chunk_id>\\t<tokens>'")
                    cid, rest = line.split("\t", 1)
                    index.add(cid, rest.split())
            except UnicodeDecodeError as exc:
                raise KeywordIndexError(f"{path}: not UTF-8 text: {exc}") from exc
        return index
