from __future__ import annotations

import tempfile
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
    path = tmp_path / "kw.tsv"
    path.write_text("c1#0\tx\nc1#0\ty\n", encoding="utf-8")
    with pytest.raises(KeywordIndexError, match="repeated"):
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
        index.save(Path(d) / "kw.tsv")
        loaded = KeywordIndex.load(Path(d) / "kw.tsv")
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
    path = tmp_path / "keywords.tsv"
    index.save(path)
    loaded = KeywordIndex.load(path)
    assert loaded.ids == index.ids
    for tok in set().union(*SMALL_DOCS.values()):
        assert loaded.search({tok}, 10) == index.search({tok}, 10)
    path2 = tmp_path / "again.tsv"
    loaded.save(path2)
    assert path.read_bytes() == path2.read_bytes()


def test_save_format_is_sorted_tsv(tmp_path):
    index = keyword_index({"b#0": {"y", "x"}, "a#0": {"z"}})
    path = tmp_path / "kw.tsv"
    index.save(path)
    assert path.read_text(encoding="utf-8") == "a#0\tz\nb#0\tx y\n"


def test_load_rejects_malformed_line(tmp_path):
    path = tmp_path / "kw.tsv"
    path.write_text("a#0\tx\nno-tab-here\n", encoding="utf-8")
    with pytest.raises(KeywordIndexError, match=":2"):
        KeywordIndex.load(path)


def test_load_accepts_only_prefixes_cut_at_a_line_end(tmp_path):
    index = keyword_index({"c1#0": {"胃脘", "胀痛", "嗳气"}, "c2#0": {"头晕", "目眩"},
                           "c3#0": {"肝气", "犯胃", "吞酸"}})
    path = tmp_path / "kw.tsv"
    index.save(path)
    data = path.read_bytes()
    lines = data.splitlines(keepends=True)
    loaded = 0
    for cut in range(len(data)):
        path.write_bytes(data[:cut])
        whole = data[:cut].count(b"\n")
        if data[:cut] == b"".join(lines[:whole]):
            KeywordIndex.load(path).save(tmp_path / "again.tsv")
            assert (tmp_path / "again.tsv").read_bytes() == data[:cut]
            loaded += 1
        else:
            with pytest.raises(KeywordIndexError):
                KeywordIndex.load(path)
    assert loaded == len(lines)


def test_load_counts_a_token_repeated_in_a_line_once(tmp_path):
    path = tmp_path / "kw.tsv"
    path.write_text("a#0\tx x y\nb#0\tx\n", encoding="utf-8")
    loaded = KeywordIndex.load(path)
    query = {"x", "z"}
    assert loaded.search(query, 5) == [("b#0", iou_score(query, {"x"})),
                                       ("a#0", iou_score(query, {"x", "y"}))]
    assert loaded._score(["a#0"], query) == [iou_score(query, {"x", "y"})]
    loaded.save(tmp_path / "again.tsv")
    assert (tmp_path / "again.tsv").read_text(encoding="utf-8") == "a#0\tx y\nb#0\tx\n"


@pytest.mark.parametrize("text", ["b#0\tx\na#0\ty\n", "a#0\tx\na#0\ty\n"],
                         ids=["out of order", "repeated"])
def test_load_refuses_a_chunk_id_that_does_not_sort_after_the_last(tmp_path, text):
    path = tmp_path / "kw.tsv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(KeywordIndexError, match=":2: chunk id 'a#0' is repeated or out of"):
        KeywordIndex.load(path)


def test_score_is_the_iou_of_any_chunk_and_0_without_a_shared_token():
    index = small_index()
    query = {"胀痛", "头晕"}
    assert index._score(["c3#0", "c1#0", "c2#0"], query) == [
        0.0, iou_score(query, {"胃脘", "胀痛", "嗳气"}), iou_score(query, {"头晕", "目眩", "胀痛"})]
    assert index._score(["c1#0"], {"发热"}) == [0.0]
    with pytest.raises(KeyError):
        index._score(["c9#0"], query)
