"""Output checks computed apart from the program's index and retrieval code.

The brute-force retrieval starts from the tokens `segment.cut` gives, and
re-derives everything after that on its own: the token-set filter, FNV-1a
bag-of-token vectors and their cosine, token-set Jaccard over every chunk, the
first-stage pool, the fusion and the tie order.
"""
from __future__ import annotations

import json
import math
import re
import unicodedata

from tcmrag import segment

TOL = 1e-9


class CheckError(AssertionError):
    """A program output disagrees with an independent computation."""


def check_lossless(text: str, tokens) -> None:
    """The tokens concatenate to `text` and their spans are contiguous."""
    pos = 0
    for tok, (s, e) in tokens:
        if s != pos or e <= s or text[s:e] != tok:
            raise CheckError(f"segmentation of {text!r} is not lossless at offset {pos}")
        pos = e
    if pos != len(text):
        raise CheckError(f"segmentation of {text!r} stops at {pos} of {len(text)}")


def token_set(text: str, lex, hmm) -> frozenset[str]:
    """Distinct non-punctuation tokens of one checked segmentation."""
    tokens = segment.cut(text, lex, hmm).tokens
    check_lossless(text, tokens)
    return frozenset(tok for tok, _ in tokens
                     if not all(ch.isspace() or unicodedata.category(ch)[0] in "PS"
                                for ch in tok))


def fnv1a64(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for b in data:
        h = ((h ^ b) * 0x100000001B3) % (1 << 64)
    return h


def bag(tokens: frozenset[str], dim: int) -> dict[int, int]:
    counts: dict[int, int] = {}
    for tok in tokens:
        b = fnv1a64(tok.encode("utf-8")) % dim
        counts[b] = counts.get(b, 0) + 1
    return counts


def cosine(a: dict[int, int], b: dict[int, int]) -> float:
    dot = sum(v * b.get(k, 0) for k, v in a.items())
    return dot / math.sqrt(sum(v * v for v in a.values()) * sum(v * v for v in b.values()))


def jaccard(a: frozenset[str], b: frozenset[str]) -> float:
    union = len(a | b)
    return len(a & b) / union if union else 0.0


class BruteForce:
    """Exhaustive two-stage retrieval over every chunk of one index."""

    def __init__(self, chunk_texts: dict[str, str], lex, hmm, dim: int) -> None:
        self.lex, self.hmm, self.dim = lex, hmm, dim
        self.chunks = []
        for cid in sorted(chunk_texts):
            toks = token_set(chunk_texts[cid], lex, hmm)
            self.chunks.append((cid, toks, bag(toks, dim)))

    def scores(self, query: str) -> dict[str, tuple[float, float]]:
        """chunk_id -> (dense cosine, sparse Jaccard) for every chunk."""
        q = token_set(query, self.lex, self.hmm)
        if not q:
            raise CheckError(f"query {query!r} has no tokens")
        qbag = bag(q, self.dim)
        return {cid: (cosine(qbag, b), jaccard(q, toks)) for cid, toks, b in self.chunks}

    def retrieve(self, query: str, mode: str, n_dense: int, n_sparse: int, alpha: float,
                 k: int) -> tuple[list[tuple[str, float]], dict[str, float], set[str]]:
        """(top-k of (chunk_id, fused score), fused score of every chunk, allowed pool).

        The allowed pool also holds every chunk tied within TOL with the last one
        a first-stage list admits, since float rounding may order those either way.
        """
        scores = self.scores(query)

        def top(i: int, n: int, positive: bool) -> tuple[set[str], set[str]]:
            ranked = sorted(((s[i], cid) for cid, s in scores.items()
                             if s[i] > 0 or not positive), key=lambda x: (-x[0], x[1]))
            strict = {cid for _, cid in ranked[:n]}
            if len(ranked) <= n:
                return strict, strict
            edge = ranked[n - 1][0]
            return strict, strict | {cid for s, cid in ranked if s >= edge - TOL}

        pool: set[str] = set()
        allowed: set[str] = set()
        for i, n, modes, positive in ((0, n_dense, ("dense_only", "hybrid"), False),
                                      (1, n_sparse, ("sparse_only", "hybrid"), True)):
            if mode in modes:
                strict, loose = top(i, n, positive)
                pool |= strict
                allowed |= loose
        fused = {cid: alpha * d + (1.0 - alpha) * s for cid, (d, s) in scores.items()}
        ranked = sorted(pool, key=lambda cid: (-fused[cid], cid))
        return [(cid, fused[cid]) for cid in ranked[:k]], fused, allowed


def check_ranking(got: list[tuple[str, float]], expected: list[tuple[str, float]],
                  fused: dict[str, float], pool: set[str], what: str) -> None:
    """Same ids in the same order and scores within TOL; tied scores may swap."""
    if len(got) != len(expected):
        raise CheckError(f"{what}: {len(got)} results, brute force gives {len(expected)}")
    if len({cid for cid, _ in got}) != len(got):
        raise CheckError(f"{what}: duplicate ids in {got}")
    for rank, ((cid, score), (want_cid, want)) in enumerate(zip(got, expected), 1):
        if abs(score - want) > TOL:
            raise CheckError(f"{what}: rank {rank} score {score!r}, brute force {want!r}")
        if cid != want_cid and (cid not in pool or abs(fused[cid] - want) > TOL):
            raise CheckError(f"{what}: rank {rank} is {cid}, brute force gives {want_cid}")


def check_windows(doc: str, chunks, window: int, overlap: int) -> None:
    """overlap_window chunks are the fixed windows over the case document."""
    starts = list(range(0, max(len(doc) - overlap, 1), window - overlap))
    want = [doc[s:s + window] for s in starts]
    got = [c.text for c in chunks]
    if got != want:
        raise CheckError(f"case {chunks[0].case_id}: windows differ from the fixed stride")


def check_token_chunks(doc: str, chunks) -> None:
    """token_chunk chunks cut the document in order, overlapping, covering it all."""
    prev_end = 0
    for i, c in enumerate(chunks):
        s, e = c.char_span
        if doc[s:e] != c.text or s > prev_end or e <= prev_end or (i == 0) != (s == 0):
            raise CheckError(f"chunk {c.chunk_id}: span {c.char_span} breaks the cover")
        prev_end = e
    if prev_end != len(doc):
        raise CheckError(f"case {chunks[0].case_id}: chunks stop at {prev_end} of {len(doc)}")


_HEADER = re.compile(r"\[CONTEXT \d+ \| ([^\]]+)\]")


def cited_cases(prompt: str) -> set[str]:
    """Parent case ids of the context blocks that reached a prompt."""
    return {cid.rsplit("#", 1)[0] for cid in _HEADER.findall(prompt)}


def check_ablation(reports: dict[str, dict], tasks, gold_cited: dict[str, dict[str, bool]],
                   completions: int) -> None:
    """Properties of the six ablation reports under the retrieval-driven mock.

    `reports` maps a run label to its report JSON, `gold_cited` maps a label to
    item id -> whether the item's gold case reached its prompt.
    """
    by_id = {t.item_id: t for t in tasks}
    for label, rep in reports.items():
        share = sum(gold_cited[label].values()) / len(tasks)
        if label.startswith("none") and rep["aggregate"] != 0.0:
            raise CheckError(f"{label}: scores {rep['aggregate']}, want 0 without retrieval")
        if abs(rep["aggregate"] - 100.0 * share) > TOL:
            raise CheckError(f"{label}: scores {rep['aggregate']}, want 100 x {share} "
                             f"(share of items whose gold case reached the prompt)")
        if rep["parse_failures"]:
            raise CheckError(f"{label}: {rep['parse_failures']} answers failed to parse")
        for item in rep["items"]:
            task = by_id[item["item_id"]]
            answer = json.loads(item["answer"])
            if not (set(answer["pathogenesis"]) <= set(task.pathogenesis_options)
                    and set(answer["syndromes"]) <= set(task.syndrome_options)):
                raise CheckError(f"{label}: item {task.item_id} chose a label outside "
                                 f"its options")
    planted = sum(t.malformed_first for t in tasks)
    want = len(reports) * (len(tasks) + planted)
    if completions != want:
        raise CheckError(f"{completions} completions, want {len(reports)} runs x "
                         f"({len(tasks)} items + {planted} planted repairs) = {want}")
