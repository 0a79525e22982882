from __future__ import annotations

import json

import pytest
from hypothesis import given, strategies as st

from tcmrag.corpus import (Chunk, ChunkingError, ClinicalCase, CorpusError, case_document,
                           chunk_by_tokens, chunk_overlap, dump_chunks, load_chunks,
                           load_corpus, normalize_text, save_corpus)


def _case_line(case_id: str) -> str:
    return json.dumps({
        "case_id": case_id, "patient_background": "bg", "clinical_info": "info",
        "pathogenesis": "p", "syndromes": ["s"],
    }, ensure_ascii=False)


def test_load_corpus_preserves_order(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text("\n".join(_case_line(c) for c in ["a", "b", "c"]), encoding="utf-8")
    cases = load_corpus(path)
    assert [c.case_id for c in cases] == ["a", "b", "c"]


def test_load_corpus_duplicate_id_names_the_id(tmp_path):
    path = tmp_path / "corpus.jsonl"
    lines = [_case_line("c0"), _case_line("c1"), _case_line("c2"),
             _case_line("c3"), _case_line("c1")]
    path.write_text("\n".join(lines), encoding="utf-8")
    with pytest.raises(CorpusError, match="c1"):
        load_corpus(path)


def test_load_corpus_malformed_line_cites_lineno(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text(_case_line("a") + "\n{oops\n", encoding="utf-8")
    with pytest.raises(CorpusError, match=":2"):
        load_corpus(path)


@pytest.mark.parametrize("case_id", ["c\t1", "c\n2", "c\r3"])
def test_case_id_with_a_tab_or_line_break_is_rejected(tmp_path, case_id):
    # such an id would split its line of keywords.tsv, the index's readable record
    path = tmp_path / "corpus.jsonl"
    path.write_text(_case_line("a") + "\n" + _case_line(case_id) + "\n", encoding="utf-8")
    with pytest.raises(CorpusError, match=r"in case_id \(.*corpus\.jsonl:2\)"):
        load_corpus(path)
    good, bad = (ClinicalCase(case_id=cid, patient_background="", clinical_info="info",
                              pathogenesis="", syndromes=[]) for cid in ("a", case_id))
    out = tmp_path / "out.jsonl"
    out.write_text("previous\n", encoding="utf-8")
    with pytest.raises(CorpusError, match="case_id"):
        save_corpus([good, bad], out)
    assert out.read_text(encoding="utf-8") == "previous\n"


def test_sample_corpus_roundtrip(sample_cases, tmp_path):
    assert len(sample_cases) == 20
    out = tmp_path / "again.jsonl"
    save_corpus(sample_cases, out)
    assert load_corpus(out) == sample_cases


def test_empty_clinical_info_rejected(tmp_path):
    path = tmp_path / "corpus.jsonl"
    rec = json.loads(_case_line("a"))
    rec["clinical_info"] = ""
    path.write_text(json.dumps(rec), encoding="utf-8")
    with pytest.raises(CorpusError, match="clinical_info"):
        load_corpus(path)


def test_normalize_basics():
    assert normalize_text("a\x00  b") == "a b"
    assert normalize_text("ＡＢＣ") == "ABC"
    assert normalize_text("中　医") == "中 医"


@given(st.text(max_size=200))
def test_normalize_idempotent(text):
    once = normalize_text(text)
    assert normalize_text(once) == once


def test_chunk_overlap_spans():
    chunks = chunk_overlap("0123456789", window=4, overlap=2, case_id="x")
    assert [c.char_span for c in chunks] == [(0, 4), (2, 6), (4, 8), (6, 10)]
    assert [c.chunk_id for c in chunks] == ["x#0", "x#1", "x#2", "x#3"]
    assert all(c.text == "0123456789"[s:e] for c, (s, e) in
               zip(chunks, [c.char_span for c in chunks]))


def test_chunk_overlap_short_text():
    chunks = chunk_overlap("abc", window=4, overlap=2)
    assert [c.char_span for c in chunks] == [(0, 3)]


def test_chunk_overlap_reference_stride():
    text = "x" * (512 * 3)
    chunks = chunk_overlap(text, window=512, overlap=128)
    stride = 512 - 128
    assert len(chunks) == 4
    assert [c.char_span[0] for c in chunks] == [i * stride for i in range(4)]
    assert chunks[-1].char_span[1] == len(text)


def test_chunk_overlap_bad_params():
    with pytest.raises(ChunkingError):
        chunk_overlap("abc", window=4, overlap=4)
    with pytest.raises(ChunkingError):
        chunk_overlap("", window=4, overlap=0)


@given(st.text(min_size=1, max_size=300),
       st.integers(min_value=1, max_value=50),
       st.integers(min_value=0, max_value=49))
def test_chunk_overlap_coverage(text, window, overlap):
    if overlap >= window:
        overlap = window - 1
    chunks = chunk_overlap(text, window, overlap)
    covered = set()
    for c in chunks:
        s, e = c.char_span
        assert c.text == text[s:e]
        covered.update(range(s, e))
    assert covered == set(range(len(text)))


def _single_char_tokens(text):
    return [(ch, (i, i + 1)) for i, ch in enumerate(text)]


def test_chunk_by_tokens_windows():
    text = "0123456789"
    chunks = chunk_by_tokens(text, _single_char_tokens(text), max_tokens=4, overlap_tokens=1)
    assert [c.char_span for c in chunks] == [(0, 4), (3, 7), (6, 10)]


def test_chunk_by_tokens_boundaries_are_token_boundaries():
    text = "中医辨证论治基础"
    tokens = [("中医", (0, 2)), ("辨证", (2, 4)), ("论治", (4, 6)), ("基础", (6, 8))]
    chunks = chunk_by_tokens(text, tokens, max_tokens=3, overlap_tokens=1)
    ends = {s for _, (s, _) in tokens} | {e for _, (_, e) in tokens}
    for c in chunks:
        assert c.char_span[0] in ends and c.char_span[1] in ends


def test_chunk_by_tokens_sentence_snap():
    text = "ab。cdefgh"
    tokens = _single_char_tokens(text)
    chunks = chunk_by_tokens(text, tokens, max_tokens=4, overlap_tokens=0)
    # tentative first boundary after token 3; "。" at token 2 pulls it to just after
    assert chunks[0].char_span == (0, 3)
    assert chunks[0].text == "ab。"


def test_chunk_by_tokens_inconsistent_tokens():
    with pytest.raises(ChunkingError):
        chunk_by_tokens("abcd", [("ab", (0, 2)), ("d", (3, 4))], 4, 0)
    with pytest.raises(ChunkingError):
        chunk_by_tokens("abcd", [("ax", (0, 2)), ("cd", (2, 4))], 4, 0)


@given(st.text(alphabet="ab。", min_size=1, max_size=60),
       st.integers(min_value=2, max_value=10))
def test_chunk_by_tokens_zero_overlap_reconstructs(text, max_tokens):
    chunks = chunk_by_tokens(text, _single_char_tokens(text), max_tokens, 0)
    assert "".join(c.text for c in chunks) == text


def test_chunking_is_deterministic():
    text = "甲乙丙丁戊己庚辛壬癸" * 30
    a = chunk_overlap(text, 64, 16)
    b = chunk_overlap(text, 64, 16)
    assert a == b


def test_chunk_dump_roundtrip(tmp_path):
    chunks = chunk_overlap("0123456789", 4, 2, case_id="c1")
    path = tmp_path / "chunks.jsonl"
    dump_chunks(chunks, path)
    assert load_chunks(path) == chunks


@pytest.mark.parametrize("line, message", [
    ('"a string"', r"chunks\.jsonl:2: record is not an object"),
    ('{"chunk_id": "c1#1", "case_id": "c1", "text": "2345"}',
     r"chunks\.jsonl:2: missing keys \['start', 'end', 'strategy'\]"),
], ids=["not_object", "missing_key"])
def test_load_chunks_rejects_malformed_records(tmp_path, line, message):
    path = tmp_path / "chunks.jsonl"
    dump_chunks(chunk_overlap("0123456789", 4, 2, case_id="c1")[:1], path)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(line + "\n")
    with pytest.raises(CorpusError, match=message):
        load_chunks(path)


def test_case_document_contains_all_fields(sample_cases):
    case = sample_cases[0]
    doc = case_document(case)
    for part in (case.patient_background, case.clinical_info, case.pathogenesis):
        assert part in doc
    for s in case.syndromes:
        assert s in doc
