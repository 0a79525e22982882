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


def _top_rows(scores: np.ndarray, n: int) -> np.ndarray:
    """The positions of the n best scores, by score descending then position ascending.
    Only the positions at or above the n-th best score, found with `np.partition`, are
    sorted, so every position tied with it at the cut stays in the running."""
    keep = (np.flatnonzero(scores >= np.partition(scores, -n)[-n]) if n < len(scores)
            else np.arange(len(scores)))
    return keep[np.argsort(-scores[keep], kind="stable")[:n]]


def _columns(rows: Iterable[tuple[str, set[str]]]):
    """Columns from (chunk_id, token set) pairs in chunk_id order: the ids (row r holds
    ids[r]), each row's set size, and per token the rows holding it, ascending; each a
    C-int (int32) NumPy view of the buffer it was appended to, so nothing is copied."""
    ids: list[str] = []
    sizes = array("i")
    postings: defaultdict[str, array] = defaultdict(lambda: array("i"))
    for row, (cid, tokens) in enumerate(rows):
        for tok in tokens:
            postings[tok].append(row)
        sizes.append(len(tokens))
        ids.append(cid)
    return (ids, np.frombuffer(sizes, dtype=np.intc),
            {tok: np.frombuffer(r, dtype=np.intc) for tok, r in postings.items()})


def _read_rows(path: str | Path):
    """(chunk_id, token set) per line of a saved index; a token repeated in a line counts
    once. Raises KeywordIndexError for a line cut short, without a tab, or whose chunk id
    does not sort after the previous line's (repeated or out of order)."""
    last = None
    with open(path, encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, 1):
                if not line.endswith("\n"):  # save ends every line; this one was cut
                    raise KeywordIndexError(f"{path}:{lineno}: line cut short")
                line = line[:-1]
                if not line:
                    continue
                cid, tab, rest = line.partition("\t")
                if not tab:
                    raise KeywordIndexError(
                        f"{path}:{lineno}: expected '<chunk_id>\\t<tokens>'")
                if last is not None and cid <= last:
                    raise KeywordIndexError(f"{path}:{lineno}: chunk id {cid!r} is repeated "
                                            f"or out of chunk_id order")
                last = cid
                yield cid, set(rest.split())
        except UnicodeDecodeError as exc:
            raise KeywordIndexError(f"{path}: not UTF-8 text: {exc}") from exc


class KeywordIndex:
    """Token sets held as columns (see `_columns`) over one row per chunk, in chunk_id
    order, from (chunk_id, token set) pairs given in that order."""

    def __init__(self, rows: Iterable[tuple[str, set[str]]]) -> None:
        self.ids, self._sizes, self._postings = _columns(rows)
        self._by_id = {cid: row for row, cid in enumerate(self.ids)}

    def _overlaps(self, query_tokens: set[str]):
        """Per row, the number of query tokens it holds; None when no row holds one."""
        hits = [self._postings[tok] for tok in query_tokens if tok in self._postings]
        return np.bincount(np.concatenate(hits), minlength=len(self.ids)) if hits else None

    def _score(self, chunk_ids: list[str], query_tokens: set[str]) -> list[float]:
        """The given chunks' IoU with the query, bit for bit the one `search` ranks them
        by; 0 for a chunk sharing no token."""
        rows = [self._by_id[cid] for cid in chunk_ids]
        cnt = self._overlaps(query_tokens)
        if cnt is None:
            return [0.0] * len(chunk_ids)
        cnt = cnt[rows]
        return (cnt / (len(query_tokens) + self._sizes[rows] - cnt)).tolist()

    def search(self, query_tokens: set[str], n: int) -> list[tuple[str, float]]:
        """Top-n candidates sharing at least one token, by IoU desc then chunk_id asc."""
        if n < 1:
            raise KeywordIndexError(f"n must be >= 1, got {n}")
        cnt = self._overlaps(query_tokens)
        if cnt is None:
            return []
        cand = np.flatnonzero(cnt)
        inter = cnt[cand]
        # the same two integers as len(q & d) / len(q | d), so the same rounded float
        iou = inter / (len(query_tokens) + self._sizes[cand] - inter)
        top = _top_rows(iou, n)  # cand ascends: ties stay in chunk_id order
        return [(self.ids[r], s) for r, s in zip(cand[top].tolist(), iou[top].tolist())]

    def save(self, path: str | Path) -> None:
        """One line per chunk in chunk_id order: the id, a tab, its tokens sorted and
        separated by spaces. Each row's tokens are read back from the postings, taken in
        token order, so they arrive sorted."""
        tokens: list[list[str]] = [[] for _ in self.ids]
        for tok in sorted(self._postings):
            for row in self._postings[tok].tolist():
                tokens[row].append(tok)
        with open(path, "w", encoding="utf-8") as fh:
            for cid, toks in zip(self.ids, tokens):
                fh.write(cid + "\t" + " ".join(toks) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "KeywordIndex":
        """The columns, parsed from a saved index (see `_read_rows` for what it refuses)."""
        return cls(_read_rows(path))
