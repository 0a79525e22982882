from __future__ import annotations

import json
import re
import struct
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from tcmrag.corpus import (OVERLAP_WINDOW, SENTENCE_ENDS, SNAP_LOOKBACK, TOKEN_CHUNK, Chunk,
                           ChunkingError, ClinicalCase, CorpusError, case_document,
                           chunk_by_tokens, chunk_overlap, dump_chunks, load_chunks,
                           load_corpus, normalize_text, save_corpus)

from test_sparse import replaced


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


@pytest.mark.parametrize("key, value", [("case_id", "c\ud800"), ("doctor_notes", "\udfff按语"),
                                        ("syndromes", ["肝胃不和证", "证\udbff"])],
                         ids=["case_id", "doctor_notes", "syndromes"])
def test_load_corpus_rejects_a_lone_surrogate_naming_its_line(tmp_path, key, value):
    """A JSON escape such as "\\ud800" decodes to a lone surrogate, which no index file
    could hold, as UTF-8 cannot encode it."""
    rec = json.loads(_case_line("b"))
    rec[key] = value
    path = tmp_path / "corpus.jsonl"
    path.write_text(_case_line("a") + "\n" + json.dumps(rec) + "\n", encoding="utf-8")
    with pytest.raises(CorpusError, match=rf"corpus\.jsonl:2: {key} holds a lone surrogate$"):
        load_corpus(path)


@pytest.mark.parametrize("key, value", [("case_id", "b\udcff"), ("raw_text", "\ud800病案"),
                                        ("syndromes", ["肝胃不和证", "证\udbff"])],
                         ids=["case_id", "raw_text", "syndromes"])
def test_save_corpus_refuses_a_lone_surrogate_before_touching_the_file(tmp_path, key, value):
    """`ingest` makes a file's stem the case_id, and a name that is not UTF-8 holds lone
    surrogates; the previous corpus must survive such a case."""
    good = ClinicalCase(case_id="a", patient_background="", clinical_info="info",
                        pathogenesis="", syndromes=[])
    bad = ClinicalCase(**{**vars(good), "case_id": "b", key: value})
    out = tmp_path / "out.jsonl"
    out.write_text("previous\n", encoding="utf-8")
    with pytest.raises(CorpusError, match=rf"case '.*': {key} holds a lone surrogate$"):
        save_corpus([good, bad], out)
    assert out.read_text(encoding="utf-8") == "previous\n"


@pytest.mark.parametrize("key, value, message", [
    ("case_id", 7, "case_id must be a string"),
    ("clinical_info", 5, "clinical_info must be a string"),
    ("patient_background", None, "patient_background must be a string"),
    ("doctor_notes", ["按语"], "doctor_notes must be a string"),  # an optional field
    ("syndromes", "肝胃不和证", "syndromes must be an array of strings"),
    ("syndromes", ["肝胃不和证", 3], "syndromes must be an array of strings"),
], ids=["int_case_id", "int_clinical_info", "null_background", "list_notes",
        "string_syndromes", "int_syndrome"])
def test_load_corpus_rejects_a_wrongly_typed_value_naming_its_line(tmp_path, key, value,
                                                                   message):
    rec = json.loads(_case_line("b"))
    rec[key] = value
    path = tmp_path / "corpus.jsonl"
    path.write_text(_case_line("a") + "\n" + json.dumps(rec, ensure_ascii=False) + "\n",
                    encoding="utf-8")
    with pytest.raises(CorpusError, match=rf"corpus\.jsonl:2: {message}$"):
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


@given(st.text(alphabet="ab。", min_size=1, max_size=60),
       st.integers(min_value=2, max_value=10))
def test_chunk_by_tokens_zero_overlap_reconstructs(text, max_tokens):
    chunks = chunk_by_tokens(text, _single_char_tokens(text), max_tokens, 0)
    assert "".join(c.text for c in chunks) == text


# The two chunking loops as they stood before both became one windowing function.
def reference_chunk_overlap(text, window, overlap, case_id=""):
    stride = window - overlap
    chunks = []
    start = 0
    while True:
        end = min(start + window, len(text))
        chunks.append(Chunk(chunk_id=f"{case_id}#{len(chunks)}", case_id=case_id,
                            text=text[start:end], char_span=(start, end),
                            strategy=OVERLAP_WINDOW))
        if end == len(text):
            break
        start += stride
    return chunks


def reference_chunk_by_tokens(text, tokens, max_tokens, overlap_tokens, case_id=""):
    chunks = []
    start = 0
    n = len(tokens)
    while start < n:
        end = min(start + max_tokens, n)
        if end < n:
            for j in range(end - 1, max(start, end - 1 - SNAP_LOOKBACK), -1):
                if tokens[j][0] in SENTENCE_ENDS:
                    if j + 1 - overlap_tokens > start:
                        end = j + 1
                    break
        span = (tokens[start][1][0], tokens[end - 1][1][1])
        chunks.append(Chunk(chunk_id=f"{case_id}#{len(chunks)}", case_id=case_id,
                            text=text[span[0]:span[1]], char_span=span, strategy=TOKEN_CHUNK))
        if end == n:
            break
        start = end - overlap_tokens
    return chunks


@st.composite
def sizes(draw, most=40):
    """(size, overlap) with 0 <= overlap < size, overlap = size - 1 as often as not."""
    size = draw(st.integers(min_value=1, max_value=most))
    widest = draw(st.booleans())
    return size, size - 1 if widest else draw(st.integers(min_value=0, max_value=size - 1))


@st.composite
def tiled_texts(draw):
    """A text and a token list that tiles it; sentence ends are tokens of their own or
    inside longer ones."""
    text = draw(st.text(alphabet=st.sampled_from("aaaabb中中。！？；"), min_size=1,
                        max_size=120))
    cuts = sorted(draw(st.sets(st.integers(min_value=1, max_value=len(text) - 1)))
                  if len(text) > 1 else [])
    bounds = [0, *cuts, len(text)]
    return text, [(text[s:e], (s, e)) for s, e in zip(bounds, bounds[1:])]


@given(st.text(min_size=1, max_size=300), sizes())
def test_chunk_overlap_equals_the_reference_loop(text, size_overlap):
    assert chunk_overlap(text, *size_overlap, case_id="c") == reference_chunk_overlap(
        text, *size_overlap, case_id="c")


@given(tiled_texts(), sizes())
def test_chunk_by_tokens_equals_the_reference_loop(text_tokens, size_overlap):
    text, tokens = text_tokens
    assert chunk_by_tokens(text, tokens, *size_overlap, case_id="c") == (
        reference_chunk_by_tokens(text, tokens, *size_overlap, case_id="c"))


@pytest.mark.parametrize("stop", range(20))
def test_chunk_by_tokens_snaps_only_within_the_lookback(stop):
    # the first window ends after token 19; a sentence end among its last SNAP_LOOKBACK
    # tokens pulls it back, one earlier does not
    text = "a" * stop + "。" + "a" * (39 - stop)
    chunks = chunk_by_tokens(text, _single_char_tokens(text), 20, 0)
    assert chunks == reference_chunk_by_tokens(text, _single_char_tokens(text), 20, 0)
    snapped = stop >= 20 - SNAP_LOOKBACK
    assert chunks[0].char_span == ((0, stop + 1) if snapped else (0, 20))


@pytest.mark.parametrize("overlap, first_span", [(1, (0, 3)), (2, (0, 3)), (3, (0, 4))])
def test_chunk_by_tokens_snaps_only_if_the_next_window_advances(overlap, first_span):
    # snapping after "。" (token 2) would start the next window at token 3 - overlap
    text = "ab。cdefgh"
    chunks = chunk_by_tokens(text, _single_char_tokens(text), 4, overlap)
    assert chunks[0].char_span == first_span
    assert chunks == reference_chunk_by_tokens(text, _single_char_tokens(text), 4, overlap)


def test_chunk_by_tokens_snaps_only_after_a_sentence_end_token():
    text = "ab。cdefgh"
    tokens = [("a", (0, 1)), ("b。", (1, 3)), *_single_char_tokens(text)[3:]]
    assert chunk_by_tokens(text, tokens, 3, 0)[0].char_span == (0, 4)


def test_chunking_is_deterministic():
    text = "甲乙丙丁戊己庚辛壬癸" * 30
    a = chunk_overlap(text, 64, 16)
    b = chunk_overlap(text, 64, 16)
    assert a == b


def test_chunk_dump_roundtrip(tmp_path):
    chunks = chunk_overlap("0123456789", 4, 2, case_id="c1")
    path = tmp_path / "chunks.bin"
    dump_chunks(chunks, path)
    assert load_chunks(path) == chunks


def chunk_block(strategy, chunk_ids, case_ids, text, starts, ends, *,
                magic=b"TCMRAGCHUNK\x00", version=1, count=None, head=None) -> bytes:
    """A chunk block as README lays it out: the header, the head (the JSON object of the
    strategy and both id arrays, or the object or bytes given), the texts as one UTF-8 run
    (or the bytes given), the int64 starts and the int64 ends."""
    count = len(chunk_ids) if count is None else count
    if head is None:
        head = {"strategy": strategy, "chunk_ids": chunk_ids, "case_ids": case_ids}
    head = head if isinstance(head, bytes) else json.dumps(head, ensure_ascii=False).encode()
    text = text if isinstance(text, bytes) else text.encode()
    return (struct.pack("<12sIIQQ", magic, version, count, len(head), len(text)) + head + text
            + struct.pack(f"<{len(starts)}q", *starts) + struct.pack(f"<{len(ends)}q", *ends))


def chunk_parts(chunks: list[Chunk]) -> dict:
    """The keyword arguments of `chunk_block` that give the block `dump_chunks` writes."""
    return {"strategy": chunks[0].strategy, "chunk_ids": [c.chunk_id for c in chunks],
            "case_ids": [c.case_id for c in chunks], "text": "".join(c.text for c in chunks),
            "starts": [c.char_span[0] for c in chunks], "ends": [c.char_span[1] for c in chunks]}


def test_dump_chunks_writes_the_block_readme_lays_out(tmp_path):
    chunks = [Chunk("c2#0", "c2", "胃脘𠀀痛。", (0, 5), TOKEN_CHUNK),
              Chunk("c1#0", "c1", "x", (3, 4), TOKEN_CHUNK)]
    dump_chunks(chunks, tmp_path / "chunks.bin")
    head = '{"strategy": "token_chunk", "chunk_ids": ["c2#0", "c1#0"], "case_ids": ["c2", "c1"]}'
    text = "胃脘𠀀痛。x".encode()
    assert (tmp_path / "chunks.bin").read_bytes() == (
        b"TCMRAGCHUNK\x00" + struct.pack("<IIQQ", 1, 2, len(head), len(text)) + head.encode()
        + text + struct.pack("<4q", 0, 3, 5, 4))
    assert chunk_block(**chunk_parts(chunks)) == (tmp_path / "chunks.bin").read_bytes()


def with_chunk_part(name, value):
    return lambda p: chunk_block(**{**p, name: value(p)})


def head_with(p, **changes) -> dict:
    head = {"strategy": p["strategy"], "chunk_ids": p["chunk_ids"], "case_ids": p["case_ids"]}
    return {k: v for k, v in {**head, **changes}.items() if v is not None}


def wrapping_spans(p) -> dict:
    """Spans from 0 whose lengths, each below 2**63, sum to the text's length plus 2**64."""
    n, top = len(p["starts"]), 2 ** 63 - 1
    lengths = [top, top, *[1] * (n - 3), len(p["text"]) + 2 - (n - 3)]
    return {**p, "starts": [0] * n, "ends": lengths}


# Every way a chunk block can be malformed: case -> (the block from the parts of a good
# one, the error's text). Each part must hold at least three chunks.
MALFORMED_CHUNK_BLOCKS = {
    "bad_magic": (lambda p: chunk_block(**p, magic=b"TCMRAGKIDX\x00\x00"), "not a chunk file"),
    "truncated_header": (lambda p: chunk_block(**p)[:30], "truncated chunk file"),
    "unsupported_version": (lambda p: chunk_block(**p, version=2), "unsupported version 2"),
    "truncated_file": (lambda p: chunk_block(**p)[:-1], "truncated chunk file"),
    "trailing_bytes": (lambda p: chunk_block(**p) + b"\x00", "trailing bytes after the spans"),
    "head_not_utf8": (lambda p: chunk_block(**p, head=b'{"\xff": 1}'),
                      "chunk head is not UTF-8"),
    "head_not_json": (lambda p: chunk_block(**p, head=b"{oops"), "chunk head is not JSON"),
    "not_object": (lambda p: chunk_block(**p, head=list(head_with(p).values())),
                   "chunk head is not an object of"),
    "missing_key": (lambda p: chunk_block(**p, head=head_with(p, case_ids=None)),
                    "chunk head is not an object of"),
    "unknown_key": (lambda p: chunk_block(**p, head=head_with(p, texts=[])),
                    "chunk head is not an object of"),
    "ids_not_strings": (with_chunk_part("chunk_ids", lambda p: [1] * len(p["starts"])),
                        "chunk head is not an object of"),
    "case_ids_not_strings": (with_chunk_part("case_ids", lambda p: [None] * len(p["starts"])),
                             "chunk head is not an object of"),
    "ids_fewer_than_the_count": (
        lambda p: chunk_block(**p, head=head_with(p, chunk_ids=p["chunk_ids"][:-1])),
        "chunk head is not an object of"),
    "case_ids_more_than_the_count": (
        lambda p: chunk_block(**p, head=head_with(p, case_ids=[*p["case_ids"], "c9"])),
        "chunk head is not an object of"),
    "unknown_strategy": (with_chunk_part("strategy", lambda p: "fixed_window"),
                         "unknown chunking strategy 'fixed_window'"),
    "no_strategy": (with_chunk_part("strategy", lambda p: None), "unknown chunking strategy None"),
    "text_not_utf8": (with_chunk_part("text", lambda p: b"\xff" + p["text"].encode()[1:]),
                      "chunk texts are not UTF-8"),
    "start_below_0": (with_chunk_part("starts", lambda p: replaced(p["starts"], 0, -1)),
                      "a span starts below 0 or does not end after its start"),
    "empty_span": (with_chunk_part("ends", lambda p: replaced(p["ends"], 1, p["starts"][1])),
                   "a span starts below 0 or does not end after its start"),
    "span_ending_before_its_start": (
        with_chunk_part("ends", lambda p: replaced(p["ends"], 1, p["starts"][1] - 1)),
        "a span starts below 0 or does not end after its start"),
    "spans_short_of_the_text": (with_chunk_part("ends", lambda p: replaced(p["ends"], -1,
                                                                           p["ends"][-1] - 1)),
                                "the span lengths do not sum to the texts'"),
    "spans_beyond_the_text": (with_chunk_part("ends", lambda p: replaced(p["ends"], -1,
                                                                         p["ends"][-1] + 1)),
                              "the span lengths do not sum to the texts'"),
    "span_lengths_wrapping_past_int64": (lambda p: chunk_block(**wrapping_spans(p)),
                                         "the span lengths do not sum to the texts'"),
}


def good_chunks() -> list[Chunk]:
    return chunk_overlap("胃脘胀痛𠀀嗳气吞酸。", 4, 1, case_id="c#1")


@pytest.mark.parametrize("case", sorted(MALFORMED_CHUNK_BLOCKS))
def test_load_chunks_rejects_malformed_records(tmp_path, case):
    make, message = MALFORMED_CHUNK_BLOCKS[case]
    good = chunk_parts(good_chunks())
    path = tmp_path / "chunks.bin"
    path.write_bytes(chunk_block(**good))
    assert load_chunks(path) == good_chunks()
    path.write_bytes(make(good))
    with pytest.raises(CorpusError, match=re.escape(f"{path}: {message}")):
        load_chunks(path)


def test_load_chunks_refuses_every_proper_prefix_of_a_block(tmp_path):
    path = tmp_path / "chunks.bin"
    dump_chunks(good_chunks(), path)
    data = path.read_bytes()
    for cut in range(len(data)):
        path.write_bytes(data[:cut])
        with pytest.raises(CorpusError):
            load_chunks(path)


@pytest.mark.parametrize("chunk, message", [
    (Chunk("c1#0", "c1", "0123", (0, 3), OVERLAP_WINDOW), "text of 4 characters for span (0, 3)"),
    (Chunk("c1#0", "c1", "𠀀", (5, 7), OVERLAP_WINDOW), "text of 1 characters for span (5, 7)"),
    (Chunk("c1#0", "c1", "", (2, 2), OVERLAP_WINDOW), "text of 0 characters for span (2, 2)"),
    (Chunk("c1#0", "c1", "0", (-1, 0), OVERLAP_WINDOW), "text of 1 characters for span (-1, 0)"),
    (Chunk("c1#0", "c1", "0", (0, 1), TOKEN_CHUNK), "strategy 'token_chunk' among "
                                                    "'overlap_window' chunks"),
], ids=["text longer than its span", "span longer than its text", "empty span",
        "negative start", "second strategy"])
def test_dump_chunks_refuses_what_load_chunks_would_before_touching_the_path(tmp_path, chunk,
                                                                              message):
    path = tmp_path / "chunks.bin"
    with pytest.raises(CorpusError, match=re.escape(f"chunk 'c1#0': {message}")):
        dump_chunks([*good_chunks(), chunk], path)
    with pytest.raises(CorpusError, match="unknown chunking strategy 'fixed_window'"):
        dump_chunks([Chunk("c1#0", "c1", "0", (0, 1), "fixed_window")], path)
    assert not path.exists()


def test_an_empty_chunk_list_round_trips(tmp_path):
    dump_chunks([], tmp_path / "chunks.bin")
    assert load_chunks(tmp_path / "chunks.bin") == []


chunk_texts = st.text(st.sampled_from("胃脘痛。a #𠀀\n\"") | st.characters(), min_size=1,
                      max_size=12)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([OVERLAP_WINDOW, TOKEN_CHUNK]),
       st.lists(st.tuples(st.text("c#1中𠀀", max_size=4), st.text("c#1中𠀀", max_size=3),
                          chunk_texts, st.integers(0, 2 ** 40)), max_size=12))
def test_dump_chunks_then_load_chunks_gives_the_chunks_back(strategy, rows):
    """Ids with '#' or CJK, repeated or empty; texts of one character or more, with astral
    characters (a span counts code points), quotes and line breaks; any start. A text
    holding a lone surrogate, which UTF-8 cannot encode, is refused before the file is
    made."""
    chunks = [Chunk(cid, case_id, text, (start, start + len(text)), strategy)
              for cid, case_id, text, start in rows]
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "chunks.bin"
        if any("\ud800" <= ch <= "\udfff" for c in chunks for ch in c.text):
            with pytest.raises(CorpusError, match="lone surrogate, which UTF-8 cannot encode"):
                dump_chunks(chunks, path)
            assert not path.exists()
            return
        dump_chunks(chunks, path)
        loaded = load_chunks(path)
    assert loaded == chunks
    assert [type(c.char_span[0]) for c in loaded] == [int] * len(chunks)


def test_case_document_contains_all_fields(sample_cases):
    case = sample_cases[0]
    doc = case_document(case)
    for part in (case.patient_background, case.clinical_info, case.pathogenesis):
        assert part in doc
    for s in case.syndromes:
        assert s in doc
