"""Dictionary-based Chinese word segmentation with an HMM fallback for OOV runs."""
from __future__ import annotations

import json
import math
import re
import unicodedata
from dataclasses import dataclass, field
from itertools import groupby
from pathlib import Path


class LexiconError(ValueError):
    """Malformed lexicon file."""


class HmmModelError(ValueError):
    """Malformed HMM model file or illegal transition structure."""


STATES = "BMES"
# Allowed predecessors of each state under BMES word tagging.
_PREV = {"B": "ES", "M": "BM", "E": "BM", "S": "ES"}
_START_STATES = "BS"
_FINAL_STATES = "ES"

DEFAULT_UNSEEN_EMIT_LOGP = -16.0

# Most distinct CJK runs a Lexicon's run memo holds; it is emptied when full.
_RUN_MEMO_LIMIT = 4096


@dataclass
class Lexicon:
    entries: dict[str, int]   # word -> frequency; prefixes of real words present with 0
    total: int
    log_total: float
    # (CJK run, HMM or None) -> the run's token texts, in order; see cut and token_set. A
    # tuple, not a frozenset: as fast to add to a set, and a quarter the memory.
    _runs: dict[tuple[str, HmmModel | None], tuple[str, ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False)


@dataclass(eq=False)  # hashed by identity, as a key of Lexicon._runs
class HmmModel:
    start_logp: dict[str, float]
    trans_logp: dict[str, dict[str, float]]
    emit_logp: dict[str, dict[str, float]]
    unseen_emit_logp: float = DEFAULT_UNSEEN_EMIT_LOGP


@dataclass
class SegmentationResult:
    tokens: list[tuple[str, tuple[int, int]]]


def build_lexicon(pairs) -> Lexicon:
    """Build a lexicon from (word, freq) pairs, inserting missing prefixes with freq 0."""
    entries: dict[str, int] = {}
    total = 0
    for word, freq in pairs:
        if not word:
            raise LexiconError("empty word")
        if freq < 1:
            raise LexiconError(f"word {word!r}: frequency must be >= 1, got {freq}")
        total += freq - max(entries.get(word, 0), 0)
        entries[word] = freq
    for word in list(entries):
        for i in range(1, len(word)):
            entries.setdefault(word[:i], 0)
    if total <= 0:
        raise LexiconError("lexicon has no positive-frequency words")
    return Lexicon(entries=entries, total=total, log_total=math.log(total))


def load_lexicon(path: str | Path) -> Lexicon:
    """Load `<word> <frequency>` lines; `#` comments and blank lines ignored."""
    pairs = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.rsplit(" ", 1)
            if len(parts) != 2 or not parts[0]:
                raise LexiconError(f"{path}:{lineno}: expected '<word> <frequency>'")
            word, freq_s = parts
            try:
                freq = int(freq_s)
            except ValueError:
                raise LexiconError(f"{path}:{lineno}: non-integer frequency {freq_s!r}") from None
            if freq < 1:
                raise LexiconError(f"{path}:{lineno}: frequency must be >= 1, got {freq}")
            pairs.append((word, freq))
    try:
        return build_lexicon(pairs)
    except LexiconError as exc:
        raise LexiconError(f"{path}: {exc}") from exc


def load_hmm(path: str | Path) -> HmmModel:
    """Load BMES start/transition/emission log-probabilities from a JSON model file.
    Raises HmmModelError naming the file for a model that is not of that shape."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
        start = {s: float(p) for s, p in raw["start"].items()}
        trans = {s: {t: float(p) for t, p in row.items()} for s, row in raw["trans"].items()}
        emit = {s: {c: float(p) for c, p in row.items()} for s, row in raw["emit"].items()}
        unseen = float(raw["unseen"])
    except KeyError as exc:
        raise HmmModelError(f"{path}: missing key {exc.args[0]!r}") from None
    except (ValueError, TypeError, AttributeError) as exc:  # not JSON, an object or a number
        raise HmmModelError(f"{path}: malformed HMM model: {exc}") from exc
    for s in start:
        if s not in _START_STATES:
            raise HmmModelError(f"{path}: start probability for disallowed state {s!r}")
    for s, row in trans.items():
        for t in row:
            if s not in _PREV.get(t, ""):
                raise HmmModelError(f"{path}: disallowed transition {s}->{t}")
    return HmmModel(start_logp=start, trans_logp=trans, emit_logp=emit,
                    unseen_emit_logp=unseen)


# Route scores this close are ties: the same words in another order sum to scores that
# rounding can split by a few ulps.
TIE_TOLERANCE = 1e-9


def max_prob_route(sentence: str, lex: Lexicon) -> list[int]:
    """The end index of the best word starting at each index, from a right-to-left DP that
    walks the prefix DAG in place: from i it extends j while sentence[i:j + 1] is an entry
    (a prefix holds 0 and keeps the walk going). The single character is always an edge, a
    longer entry only with a positive frequency. Scores within TIE_TOLERANCE of the best
    are ties, which go to the longer word."""
    n = len(sentence)
    entries, log_total = lex.entries, lex.log_total
    score = [0.0] * (n + 1)
    route = [0] * n
    for i in range(n - 1, -1, -1):
        top = -math.inf
        for j in range(i, n):  # ascending, so a later tie is a longer word and wins
            freq = entries.get(sentence[i:j + 1])
            if j == i or freq:
                # an unknown single character scores log(1/total)
                s = (math.log(freq) - log_total if freq else -log_total) + score[j + 1]
                if s >= top - TIE_TOLERANCE:
                    best_s, best_j = s, j
                    if s > top:
                        top = s
            if freq is None:
                break
        score[i] = best_s
        route[i] = best_j
    return route


def viterbi(fragment: str, model: HmmModel) -> list[str]:
    """The token texts of a max-likelihood BMES decode; ties prefer the state earlier in
    B<M<E<S."""
    if not fragment:
        return []
    neg_inf = -math.inf

    def emit(state: str, ch: str) -> float:
        return model.emit_logp.get(state, {}).get(ch, model.unseen_emit_logp)

    row = {s: model.start_logp.get(s, neg_inf) + emit(s, fragment[0]) for s in STATES}
    back: list[dict[str, str]] = []
    for ch in fragment[1:]:
        scores: dict[str, float] = {}
        ptr: dict[str, str] = {}
        for s in STATES:
            best_p = neg_inf
            best_prev = ""
            for p in _PREV[s]:  # in B<M<E<S order; strict > keeps the earliest state on ties
                cand = row[p] + model.trans_logp.get(p, {}).get(s, neg_inf)
                if cand > best_p:
                    best_p = cand
                    best_prev = p
            scores[s] = best_p + emit(s, ch)
            ptr[s] = best_prev
        row = scores
        back.append(ptr)

    path = [max(_FINAL_STATES, key=lambda s: (row[s], -STATES.index(s)))]
    if row[path[0]] == neg_inf:  # no path ends a word: one token per character
        return list(fragment)
    for ptr in reversed(back):
        path.append(ptr[path[-1]])
    path.reverse()

    tokens: list[str] = []
    start = 0
    for t, state in enumerate(path):  # the path ends in E or S, so every char is covered
        if state in "ES":
            tokens.append(fragment[start:t + 1])
            start = t + 1
    return tokens


# A CJK run (U+3400-U+4DBF and U+4E00-U+9FFF) or an ASCII letter/digit run; every
# character between two runs is a token of its own.
_RUN = re.compile(r"[\u3400-\u4dbf\u4e00-\u9fff]+|[0-9A-Za-z]+")


def _cut_cjk(block: str, lex: Lexicon, hmm: HmmModel | None) -> tuple[str, ...]:
    route = max_prob_route(block, lex)
    words: list[tuple[int, int]] = []
    i = 0
    while i < len(block):
        words.append((i, route[i] + 1))
        i = route[i] + 1

    def unknown(word: tuple[int, int]) -> bool:
        s, e = word
        return e - s == 1 and lex.entries.get(block[s], 0) == 0

    tokens: list[str] = []
    for is_unknown, group in groupby(words, key=unknown):
        run = list(group)
        if is_unknown and hmm is not None:  # re-decode the run of unknown single chars
            tokens += viterbi(block[run[0][0]:run[-1][1]], hmm)
        else:
            tokens += [block[s:e] for s, e in run]
    return tuple(tokens)


def _memo_run(block: str, lex: Lexicon, hmm: HmmModel | None) -> tuple[str, ...]:
    """Cut one CJK run and keep its token texts in the run memo on `lex`, emptied when full."""
    runs = lex._runs
    if len(runs) >= _RUN_MEMO_LIMIT:
        runs.clear()
    texts = runs[block, hmm] = _cut_cjk(block, lex, hmm)
    return texts


def cut(sentence: str, lex: Lexicon, hmm: HmmModel | None = None) -> SegmentationResult:
    """Segment a sentence: dictionary DP over CJK runs, HMM over unknown runs. Outside
    CJK runs an ASCII letter/digit run is one token and any other character is its own.

    Each distinct CJK run is cut once per lexicon object and HMM: its token texts are
    kept in a memo on `lex` (at most _RUN_MEMO_LIMIT runs, emptied when full, shared
    with token_set), and their spans follow from their lengths, starting at the run's
    start. This is exact because `_RUN` ends a run at every non-CJK character, so a run's
    tokens never depend on its neighbours. Do not change `lex` or `hmm` in place after
    cutting with them."""
    runs = lex._runs
    tokens: list[tuple[str, tuple[int, int]]] = []
    append = tokens.append
    pos = 0  # where the previous run ended
    for m in _RUN.finditer(sentence):
        start, stop = m.span()
        for i in range(pos, start):  # each character between two runs is a token
            append((sentence[i], (i, i + 1)))
        pos = stop
        block = m.group()
        if block.isascii():
            append((block, (start, stop)))
        else:
            for text in runs.get((block, hmm)) or _memo_run(block, lex, hmm):
                end = start + len(text)
                append((text, (start, end)))
                start = end
    for i in range(pos, len(sentence)):
        append((sentence[i], (i, i + 1)))
    return SegmentationResult(tokens=tokens)


def _is_ignorable(token: str) -> bool:
    return all(ch.isspace() or unicodedata.category(ch)[0] in "PS" for ch in token)


def token_set(text: str, lex: Lexicon, hmm: HmmModel | None = None) -> set[str]:
    """The distinct token texts of `cut(text, lex, hmm)`, less those that are only
    punctuation or whitespace, read from the text without making spans.

    An ASCII letter/digit run is a token as it stands, and a CJK run adds the texts of
    its entry in the run memo `cut` shares. Neither is ever dropped: an ASCII run is
    letters and digits, and every token of a CJK run, dictionary or HMM, is made of
    CJK-range characters, which are letters or unassigned, never punctuation, symbols or
    whitespace. Every other character is a token of its own, so only those are checked,
    each distinct one once."""
    runs = lex._runs
    tokens = {ch for ch in set(_RUN.sub("", text)) if not _is_ignorable(ch)}
    for block in _RUN.findall(text):
        if block.isascii():
            tokens.add(block)
        else:
            tokens.update(runs.get((block, hmm)) or _memo_run(block, lex, hmm))
    return tokens
