"""Keyword inverted index with token-set IoU (Jaccard) scoring."""
from __future__ import annotations

import json
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Iterable

import numpy as np

from . import _block


class KeywordIndexError(ValueError):
    pass


# the header fields: chunk count, token count, entry count (rows summed over every token's
# postings), byte lengths of the ids' and the tokens' JSON arrays; then both arrays (the
# ids in chunk_id order, the tokens sorted), the token count + 1 offsets of each token's
# first entry as <i8, and the entries, each token's rows ascending, as <i4
_FORMAT = _block.BlockFormat(b"TCMRAGKIDX\0\0", 1, "IIQQQ", "keyword index", "postings",
                             KeywordIndexError)


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


class KeywordIndex:
    """Token sets held as columns (see `_columns`) over one row per chunk, in chunk_id
    order, from (chunk_id, token set) pairs given in that order."""

    def __init__(self, rows: Iterable[tuple[str, set[str]]]) -> None:
        self._set_columns(*_columns(rows))

    def _set_columns(self, ids: list[str], sizes: np.ndarray,
                     postings: dict[str, np.ndarray]) -> None:
        self.ids, self._sizes, self._postings = ids, sizes, postings
        self._by_id = {cid: row for row, cid in enumerate(ids)}

    def _overlaps(self, query_tokens: set[str]):
        """Per row, the number of query tokens it holds; None when no row holds one."""
        hits = [self._postings[tok] for tok in query_tokens if tok in self._postings]
        return np.bincount(np.concatenate(hits), minlength=len(self.ids)) if hits else None

    def _score(self, chunk_ids: list[str], query_tokens: set[str]) -> np.ndarray:
        """The given chunks' float64 IoU with the query, bit for bit the one `search` ranks
        them by; 0 for a chunk sharing no token."""
        rows = [self._by_id[cid] for cid in chunk_ids]
        cnt = self._overlaps(query_tokens)
        if cnt is None:
            return np.zeros(len(chunk_ids))
        cnt = cnt[rows]
        return cnt / (len(query_tokens) + self._sizes[rows] - cnt)

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
        """The columns as one block (see `_FORMAT`): each token's postings, the tokens
        taken in sorted order, end to end."""
        tokens = sorted(self._postings)
        ids = json.dumps(self.ids, ensure_ascii=False).encode("utf-8")
        toks = json.dumps(tokens, ensure_ascii=False).encode("utf-8")
        offsets = np.zeros(len(tokens) + 1, dtype="<i8")
        np.cumsum([len(self._postings[tok]) for tok in tokens], out=offsets[1:])
        rows = np.concatenate([np.empty(0, dtype=np.intc)]
                              + [self._postings[tok] for tok in tokens])
        _FORMAT.write(path, (len(self.ids), len(tokens), len(rows), len(ids), len(toks)),
                      ids + toks, offsets, rows.astype("<i4", copy=False))

    def _save_tsv(self, path: str | Path) -> None:
        """The index as text, which nothing reads back: one line per chunk in chunk_id
        order, the id, a tab, its tokens sorted and separated by spaces. Each row's tokens
        are read back from the postings, taken in token order, so they arrive sorted."""
        tokens: list[list[str]] = [[] for _ in self.ids]
        for tok in sorted(self._postings):
            for row in self._postings[tok].tolist():
                tokens[row].append(tok)
        with open(path, "w", encoding="utf-8") as fh:
            for cid, toks in zip(self.ids, tokens):
                fh.write(cid + "\t" + " ".join(toks) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "KeywordIndex":
        """The columns of a block `save` wrote, the offsets and the entries each read with
        one `readinto`; each token's postings are a view of the entries. Raises
        KeywordIndexError for a file that is not a whole, well-formed block."""
        with open(path, "rb") as fh:
            count, n_tokens, entries, id_bytes, token_bytes = _FORMAT.read_header(
                fh, path, lambda count, n_tokens, entries, id_bytes, token_bytes:
                id_bytes + token_bytes + 8 * (n_tokens + 1) + 4 * entries)
            ids = _FORMAT.sorted_strings(fh, path, id_bytes, "chunk ids", count)
            tokens = _FORMAT.sorted_strings(fh, path, token_bytes, "tokens", n_tokens)
            offsets = _FORMAT.read_into(fh, path, np.empty(n_tokens + 1, dtype="<i8"))
            rows = _FORMAT.read_into(fh, path, np.empty(entries, dtype="<i4"))
        if offsets[0] != 0 or offsets[-1] != entries or np.any(np.diff(offsets) <= 0):
            raise KeywordIndexError(f"{path}: token offsets do not rise from 0 to the "
                                    f"{entries} entries, each token holding a row")
        if entries and (rows.min() < 0 or rows.max() >= count):
            raise KeywordIndexError(f"{path}: a row is outside the {count} chunks")
        falls = np.diff(rows) <= 0
        falls[offsets[1:-1] - 1] = False  # a token's first row follows another token's
        if falls.any():
            tok = tokens[int(np.searchsorted(offsets, np.argmax(falls) + 1, "right")) - 1]
            raise KeywordIndexError(f"{path}: the rows of token {tok!r} are not "
                                    f"strictly ascending")
        bounds = offsets.tolist()
        index = cls.__new__(cls)
        index._set_columns(ids, np.bincount(rows, minlength=count).astype(np.intc),
                           {tok: rows[a:b] for tok, a, b in zip(tokens, bounds, bounds[1:])})
        return index

