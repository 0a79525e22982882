"""Keyword inverted index with token-set IoU (Jaccard) scoring."""
from __future__ import annotations

from array import array
from bisect import bisect_left
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
    order. An index being built keeps its sets in `doc_tokens`, and the first read after
    an `add` makes the columns from them; a loaded index holds only the columns."""

    def __init__(self) -> None:
        self.doc_tokens: dict[str, set[str]] = {}
        self._view = None  # (ids, sizes, postings), or None until the next read

    def _cols(self):
        if self._view is None:
            self._view = _columns((cid, self.doc_tokens[cid])
                                  for cid in sorted(self.doc_tokens))
        return self._view

    @property
    def ids(self) -> list[str]:
        return self._cols()[0]

    def _row_tokens(self) -> list[list[str]]:
        """Each row's tokens, read back from the postings."""
        ids, _, postings = self._cols()
        tokens: list[list[str]] = [[] for _ in ids]
        for tok, rows in postings.items():
            for row in rows.tolist():
                tokens[row].append(tok)
        return tokens

    def add(self, chunk_id: str, tokens: Iterable[str]) -> None:
        if not self.doc_tokens and self.ids:  # a loaded index gets its sets back first
            self.doc_tokens = dict(zip(self.ids, map(set, self._row_tokens())))
        if chunk_id in self.doc_tokens:
            raise KeywordIndexError(f"duplicate chunk_id {chunk_id!r}")
        self.doc_tokens[chunk_id] = set(tokens)
        self._view = None

    def _overlaps(self, query_tokens: set[str]):
        """Per row, the number of query tokens it holds; None when no row holds one."""
        ids, _, postings = self._cols()
        hits = [postings[tok] for tok in query_tokens if tok in postings]
        return np.bincount(np.concatenate(hits), minlength=len(ids)) if hits else None

    def _score(self, chunk_ids: list[str], query_tokens: set[str]) -> list[float]:
        """The given chunks' IoU with the query, bit for bit the one `search` ranks them
        by; 0 for a chunk sharing no token."""
        ids, sizes, _ = self._cols()
        rows = [bisect_left(ids, cid) for cid in chunk_ids]
        for row, cid in zip(rows, chunk_ids):
            if row == len(ids) or ids[row] != cid:
                raise KeyError(cid)
        cnt = self._overlaps(query_tokens)
        if cnt is None:
            return [0.0] * len(chunk_ids)
        cnt = cnt[rows]
        return (cnt / (len(query_tokens) + sizes[rows] - cnt)).tolist()

    def search(self, query_tokens: set[str], n: int) -> list[tuple[str, float]]:
        """Top-n candidates sharing at least one token, by IoU desc then chunk_id asc."""
        if n < 1:
            raise KeywordIndexError(f"n must be >= 1, got {n}")
        cnt = self._overlaps(query_tokens)
        if cnt is None:
            return []
        ids, sizes, _ = self._cols()
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
        """One line per chunk in chunk_id order: the id, a tab, its tokens sorted and
        separated by spaces."""
        rows = (((cid, self.doc_tokens[cid]) for cid in sorted(self.doc_tokens))
                if self.doc_tokens else zip(self.ids, self._row_tokens()))
        with open(path, "w", encoding="utf-8") as fh:
            for cid, tokens in rows:
                fh.write(cid + "\t" + " ".join(sorted(tokens)) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "KeywordIndex":
        """The columns, parsed from a saved index (see `_read_rows` for what it refuses)."""
        index = cls()
        index._view = _columns(_read_rows(path))
        return index
