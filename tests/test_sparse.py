from __future__ import annotations

import json
import re
import struct
import tempfile
from itertools import accumulate
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from tcmrag.sparse import KeywordIndex, KeywordIndexError, iou_score

# ---------------------------------------------------------------------------
# IoU scoring
# ---------------------------------------------------------------------------

def test_iou_hand_computed_values():
    assert iou_score({"a", "b"}, {"a", "b"}) == pytest.approx(1.0)
    assert iou_score({"a", "b"}, {"b", "c"}) == pytest.approx(1 / 3)
    assert iou_score({"a"}, {"b"}) == 0.0
    assert iou_score(set(), {"a"}) == 0.0
    assert iou_score(set(), set()) == 0.0
    assert iou_score({"a", "b", "c"}, {"a"}) == pytest.approx(1 / 3)


token_sets = st.sets(st.sampled_from("abcdefgh"), max_size=8)


@given(token_sets, token_sets)
def test_iou_symmetric_and_bounded(q, d):
    s = iou_score(q, d)
    assert 0.0 <= s <= 1.0
    assert s == iou_score(d, q)
    if q and q == d:
        assert s == 1.0
    if not (q & d):
        assert s == 0.0


@given(token_sets, token_sets)
def test_iou_counting_oracle(q, d):
    inter = sum(1 for t in q if t in d)
    union = len(set(list(q) + list(d)))
    expected = inter / union if union else 0.0
    assert iou_score(q, d) == pytest.approx(expected)


@given(st.sets(st.integers(0, 40)), st.sets(st.integers(0, 40)))
def test_iou_equals_the_set_quotient_exactly(q, d):
    union = len(q | d)
    assert iou_score(q, d) == (len(q & d) / union if union else 0.0)


# ---------------------------------------------------------------------------
# Keyword index
# ---------------------------------------------------------------------------

def keyword_index(docs: dict[str, set[str]]) -> KeywordIndex:
    """The index over chunk_id -> token set, the chunks given in any order."""
    return KeywordIndex(sorted(docs.items()))


SMALL_DOCS = {"c1#0": {"胃脘", "胀痛", "嗳气"}, "c2#0": {"头晕", "目眩", "胀痛"},
              "c3#0": {"咳嗽", "咽痒"}}


def small_index() -> KeywordIndex:
    return keyword_index(SMALL_DOCS)


def test_search_candidates_via_postings_union():
    index = small_index()
    got = index.search({"胀痛", "头晕"}, 10)
    # c3 shares no token and must not appear at all
    assert [cid for cid, _ in got] == ["c2#0", "c1#0"]
    assert got[0][1] == pytest.approx(2 / 3)
    assert got[1][1] == pytest.approx(1 / 4)


def test_search_no_overlap_returns_empty():
    index = small_index()
    assert index.search({"发热"}, 5) == []


def test_search_tie_breaks_by_chunk_id():
    index = keyword_index({"b": {"x", "y"}, "a": {"x", "z"}})
    got = index.search({"x"}, 5)
    assert [cid for cid, _ in got] == ["a", "b"]
    assert got[0][1] == got[1][1] == pytest.approx(0.5)


def test_search_truncates_to_n():
    index = small_index()
    assert len(index.search({"胀痛"}, 1)) == 1


def test_add_duplicate_and_bad_n(tmp_path):
    path = tmp_path / "kw.bin"
    path.write_bytes(block(["c1#0", "c1#0"], ["x", "y"], [0, 1, 2], [0, 1], count=2))
    with pytest.raises(KeywordIndexError, match="distinct"):
        KeywordIndex.load(path)
    with pytest.raises(KeywordIndexError):
        small_index().search({"x"}, 0)


def test_search_matches_exhaustive_oracle():
    index = small_index()
    query = {"胀痛", "咽痒", "不存在"}
    expected = sorted(
        ((cid, iou_score(query, toks)) for cid, toks in SMALL_DOCS.items()
         if query & toks),
        key=lambda x: (-x[1], x[0]))
    assert index.search(query, 10) == [(cid, pytest.approx(s)) for cid, s in expected]


def exhaustive(docs: dict[str, set[str]], query: set[str], n: int) -> list[tuple[str, float]]:
    return sorted(((cid, len(query & toks) / len(query | toks))
                   for cid, toks in docs.items() if query & toks),
                  key=lambda x: (-x[1], x[0]))[:n]


chunk_docs = st.dictionaries(st.text("ab#01中", min_size=1, max_size=4),
                             st.sets(st.sampled_from("abcdef"), min_size=1, max_size=4),
                             max_size=30)


@settings(max_examples=200, deadline=None)
@given(chunk_docs, chunk_docs, st.sets(st.sampled_from("abcdefg"), max_size=5),
       st.integers(1, 40))
def test_search_equals_the_exhaustive_sort_exactly(first, later, query, n):
    """Few tokens give many tied IoUs; n may exceed the candidates; an index over more
    chunks answers as the sort over them does; a reloaded index answers the same."""
    assert keyword_index(first).search(query, n) == exhaustive(first, query, n)
    docs = {**later, **first}
    index = keyword_index(docs)
    assert index.search(query, n) == exhaustive(docs, query, n)
    with tempfile.TemporaryDirectory() as d:
        index.save(Path(d) / "kw.bin")
        loaded = KeywordIndex.load(Path(d) / "kw.bin")
    assert loaded.search(query, n) == exhaustive(docs, query, n)


def test_search_keeps_iou_ties_straddling_every_n():
    """Runs of equal IoU, their ids interleaved, straddle the n-th place for most n;
    every n, up to two past the number of hit rows, returns the head of the exhaustive
    (-iou, chunk_id) sort, compared with ==."""
    query = {"a", "b", "c"}
    shapes = [{"a"}, {"a", "b"}, {"a", "b", "c"}, {"a", "x"}, {"x"}, {"b", "c", "x", "y"}]
    docs = {f"d{i:02d}": shapes[(7 * i) % len(shapes)] for i in range(30)}
    index = keyword_index(docs)
    hits = len(exhaustive(docs, query, len(docs)))
    ranked = exhaustive(docs, query, hits)
    assert sum(ranked[n - 1][1] == ranked[n][1] for n in range(1, hits)) > hits // 2
    for n in range(1, hits + 3):
        assert index.search(query, n) == exhaustive(docs, query, n)


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def test_save_load_roundtrip(tmp_path):
    index = small_index()
    path = tmp_path / "keywords.bin"
    index.save(path)
    loaded = KeywordIndex.load(path)
    assert loaded.ids == index.ids
    for tok in set().union(*SMALL_DOCS.values()):
        assert loaded.search({tok}, 10) == index.search({tok}, 10)
    path2 = tmp_path / "again.bin"
    loaded.save(path2)
    assert path.read_bytes() == path2.read_bytes()


def test_save_format_is_sorted_tsv(tmp_path):
    index = keyword_index({"b#0": {"y", "x"}, "a#0": {"z"}})
    path = tmp_path / "kw.tsv"
    index._save_tsv(path)
    assert path.read_text(encoding="utf-8") == "a#0\tz\nb#0\tx y\n"


def block(ids, tokens, offsets, rows, *, magic=b"TCMRAGKIDX\x00\x00", version=1,
          count=None) -> bytes:
    """A keyword index block as README lays it out: the header, the ids and the tokens
    as JSON arrays (or the bytes given), the int64 offsets and the int32 rows."""
    count = len(ids) if count is None else count
    ids, tokens = (v if isinstance(v, bytes) else json.dumps(v, ensure_ascii=False).encode()
                   for v in (ids, tokens))
    head = struct.pack("<12sIIIQQQ", magic, version, count, len(offsets) - 1, len(rows),
                       len(ids), len(tokens))
    return (head + ids + tokens + struct.pack(f"<{len(offsets)}q", *offsets)
            + struct.pack(f"<{len(rows)}i", *rows))


def parts(index: KeywordIndex) -> dict:
    """The keyword arguments of `block` that give the block `index.save` writes."""
    tokens = sorted(index._postings)
    return {"ids": index.ids, "tokens": tokens, "count": len(index.ids),
            "offsets": [0, *accumulate(len(index._postings[tok]) for tok in tokens)],
            "rows": [r for tok in tokens for r in index._postings[tok].tolist()]}


def test_save_writes_the_block_readme_lays_out(tmp_path):
    index = keyword_index({"c2#0": {"胀痛", "头晕"}, "c1#0": {"胀痛"}, "c3#0": set()})
    index.save(tmp_path / "kw.bin")
    assert (tmp_path / "kw.bin").read_bytes() == block(
        ["c1#0", "c2#0", "c3#0"], ["头晕", "胀痛"], [0, 1, 3], [1, 0, 1])
    assert block(**parts(index)) == (tmp_path / "kw.bin").read_bytes()


def with_part(name, value):
    return lambda p: block(**{**p, name: value(p)})


def first_pair(p) -> int:
    """The position of the first of two rows held by one token."""
    return next(a for a, b in zip(p["offsets"], p["offsets"][1:]) if b - a >= 2)


def swapped(values: list, i: int) -> list:
    return [*values[:i], values[i + 1], values[i], *values[i + 2:]]


def replaced(values: list, i: int, value) -> list:
    values = list(values)
    values[i] = value
    return values


# Every way a block can be malformed: case -> (the block from the parts of a good one,
# the error's text). Each part must hold at least two ids, two tokens and a token with
# two rows.
MALFORMED_BLOCKS = {
    "bad magic": (lambda p: block(**p, magic=b"TCMRAGVIDX\x00\x00"), "not a keyword index file"),
    "truncated header": (lambda p: block(**p)[:40], "truncated keyword index file"),
    "unsupported version": (lambda p: block(**p, version=2), "unsupported version 2"),
    "truncated file": (lambda p: block(**p)[:-1], "truncated keyword index file"),
    "trailing bytes": (lambda p: block(**p) + b"\x00", "trailing bytes after the postings"),
    "ids not UTF-8": (with_part("ids", lambda p: b'["\xff"]'), "chunk ids are not UTF-8"),
    "ids not a JSON array": (with_part("ids", lambda p: b"[oops"),
                             "chunk ids are not a JSON array"),
    "ids not strings": (with_part("ids", lambda p: [1] * p["count"]), "distinct strings"),
    "ids out of order": (with_part("ids", lambda p: swapped(p["ids"], 0)),
                         "distinct strings in sorted order"),
    "ids repeated": (with_part("ids", lambda p: replaced(p["ids"], 1, p["ids"][0])),
                     "distinct strings in sorted order"),
    "ids fewer than the count": (with_part("count", lambda p: p["count"] + 1),
                                 "chunk ids are not"),
    "tokens not strings": (with_part("tokens", lambda p: [None] * len(p["tokens"])),
                           "tokens are not"),
    "tokens out of order": (with_part("tokens", lambda p: swapped(p["tokens"], 0)),
                            "tokens are not"),
    "tokens repeated": (with_part("tokens", lambda p: replaced(p["tokens"], 1, p["tokens"][0])),
                        "tokens are not"),
    "offsets not from 0": (with_part("offsets", lambda p: replaced(p["offsets"], 0, -1)),
                           "token offsets do not rise from 0"),
    "offsets falling": (with_part("offsets", lambda p: swapped(p["offsets"], 1)),
                        "token offsets do not rise from 0"),
    "token without rows": (with_part("offsets", lambda p: replaced(p["offsets"], 1, 0)),
                           "each token holding a row"),
    "offsets short of the entries": (
        with_part("offsets", lambda p: replaced(p["offsets"], -1, p["offsets"][-1] - 1)),
        "token offsets do not rise from 0"),
    "row below 0": (with_part("rows", lambda p: replaced(p["rows"], 0, -1)),
                    "a row is outside the"),
    "row at the count": (with_part("rows", lambda p: replaced(p["rows"], -1, p["count"])),
                         "a row is outside the"),
    "rows repeated within a token": (
        with_part("rows", lambda p: replaced(p["rows"], first_pair(p) + 1,
                                             p["rows"][first_pair(p)])),
        "are not strictly ascending"),
    "rows falling within a token": (with_part("rows", lambda p: swapped(p["rows"], first_pair(p))),
                                    "are not strictly ascending"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_BLOCKS))
def test_load_refuses_a_malformed_block(tmp_path, case):
    make, message = MALFORMED_BLOCKS[case]
    good = parts(small_index())
    path = tmp_path / "kw.bin"
    path.write_bytes(block(**good))
    KeywordIndex.load(path)
    path.write_bytes(make(good))
    with pytest.raises(KeywordIndexError, match=re.escape(message)):
        KeywordIndex.load(path)


def test_load_refuses_every_proper_prefix_of_a_block(tmp_path):
    path = tmp_path / "kw.bin"
    small_index().save(path)
    data = path.read_bytes()
    for cut in range(len(data)):
        path.write_bytes(data[:cut])
        with pytest.raises(KeywordIndexError):
            KeywordIndex.load(path)


@pytest.mark.parametrize("ids", [["b#0", "a#0"], ["a#0", "a#0"]],
                         ids=["out of order", "repeated"])
def test_load_refuses_a_chunk_id_that_does_not_sort_after_the_last(tmp_path, ids):
    path = tmp_path / "kw.bin"
    path.write_bytes(block(ids, ["x", "y"], [0, 1, 2], [0, 1], count=2))
    with pytest.raises(KeywordIndexError,
                       match="chunk ids are not 2 distinct strings in sorted order"):
        KeywordIndex.load(path)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.text(max_size=4),
                       st.sets(st.text("ab 中药证\t\"\\", min_size=1, max_size=3), max_size=5),
                       max_size=20))
def test_a_loaded_block_holds_the_columns_it_was_saved_from(docs):
    """Token sets empty or not, ids and tokens with CJK, spaces, tabs, quotes or
    backslashes: the loaded columns are the built ones, dtypes included."""
    built = keyword_index(docs)
    with tempfile.TemporaryDirectory() as d:
        built.save(Path(d) / "kw.bin")
        loaded = KeywordIndex.load(Path(d) / "kw.bin")
    assert loaded.ids == built.ids
    assert loaded._sizes.dtype == built._sizes.dtype
    assert loaded._sizes.tolist() == built._sizes.tolist()
    assert sorted(loaded._postings) == sorted(built._postings)
    for tok, rows in built._postings.items():
        assert loaded._postings[tok].dtype == rows.dtype
        assert loaded._postings[tok].tolist() == rows.tolist()


def test_score_is_the_iou_of_any_chunk_and_0_without_a_shared_token():
    index = small_index()
    query = {"胀痛", "头晕"}
    assert index._score(["c3#0", "c1#0", "c2#0"], query).tolist() == [
        0.0, iou_score(query, {"胃脘", "胀痛", "嗳气"}), iou_score(query, {"头晕", "目眩", "胀痛"})]
    assert index._score(["c1#0"], {"发热"}).tolist() == [0.0]
    with pytest.raises(KeyError):
        index._score(["c9#0"], query)
