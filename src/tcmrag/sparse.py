"""Keyword inverted index with token-set IoU (Jaccard) scoring."""
from __future__ import annotations

from array import array
from collections import defaultdict
from pathlib import Path
from typing import Iterable

import numpy as np


class KeywordIndexError(ValueError):
    pass


def iou_score(q: set[str], d: set[str]) -> float:
    """|q ∩ d| / |q ∪ d|; two empty sets score 0."""
    inter = len(q & d)
    union = len(q) + len(d) - inter
    return inter / union if union else 0.0


def _columns(doc_tokens: dict[str, set[str]]):
    """doc_tokens as columns: the ids in chunk_id order (row r holds ids[r]), the int32
    token-set size of each row, and per token the rows holding it, ascending, as a C-int
    (int32) array viewing the buffer it was appended to, so the build copies nothing."""
    ids = sorted(doc_tokens)
    postings: defaultdict[str, array] = defaultdict(lambda: array("i"))
    for row, cid in enumerate(ids):
        for tok in doc_tokens[cid]:
            postings[tok].append(row)
    return (ids, np.array([len(doc_tokens[cid]) for cid in ids], dtype=np.int32),
            {tok: np.frombuffer(r, dtype=np.intc) for tok, r in postings.items()})


class KeywordIndex:
    def __init__(self) -> None:
        self.doc_tokens: dict[str, set[str]] = {}
        self._view = None  # _columns(doc_tokens), built by the first search after an add

    def add(self, chunk_id: str, tokens: Iterable[str]) -> None:
        if chunk_id in self.doc_tokens:
            raise KeywordIndexError(f"duplicate chunk_id {chunk_id!r}")
        self.doc_tokens[chunk_id] = set(tokens)
        self._view = None

    def search(self, query_tokens: set[str], n: int) -> list[tuple[str, float]]:
        """Top-n candidates sharing at least one token, by IoU desc then chunk_id asc."""
        if n < 1:
            raise KeywordIndexError(f"n must be >= 1, got {n}")
        if self._view is None:
            self._view = _columns(self.doc_tokens)
        ids, sizes, rows = self._view
        hits = [rows[tok] for tok in query_tokens if tok in rows]
        if not hits:
            return []
        cnt = np.bincount(np.concatenate(hits))
        cand = np.flatnonzero(cnt)
        inter = cnt[cand]
        # the same two integers as len(q & d) / len(q | d), so the same rounded float
        iou = inter / (len(query_tokens) + sizes[cand] - inter)
        if n < len(iou):  # only the rows at or above the n-th best IoU are sorted
            keep = np.flatnonzero(iou >= np.partition(iou, -n)[-n])
            cand, iou = cand[keep], iou[keep]
        top = np.argsort(-iou, kind="stable")[:n]  # cand ascends: ties stay in chunk_id order
        return [(ids[r], s) for r, s in zip(cand[top].tolist(), iou[top].tolist())]

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
