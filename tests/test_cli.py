from __future__ import annotations

import hashlib
import json
import math
import os
import re
import shutil
import struct
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest
import requests

from tcmrag.cli import AppConfig, CliConfigError, main
from tcmrag.corpus import dump_chunks, load_chunks, load_corpus, save_corpus
from tcmrag.dense import VectorIndex
from tcmrag.llm import CleaningError, FnChatProvider, extract_fields, messages_digest, split_cases
from tcmrag.prompt import COT_STEP_HEADERS
from tcmrag.segment import HmmModelError, load_hmm
from tcmrag.sparse import KeywordIndex
from test_corpus import MALFORMED_CHUNK_BLOCKS, chunk_parts
from test_sparse import MALFORMED_BLOCKS, parts

DATA = Path(__file__).resolve().parent.parent / "data"


def write_config(path: Path, **overrides) -> Path:
    values = {
        "corpus": str(DATA / "sample_corpus.jsonl"),
        "lexicon": str(DATA / "lexicon.txt"),
        "hmm": str(DATA / "hmm_model.json"),
        "templates": str(DATA / "templates"),
    }
    values.update(overrides)
    cfg = path / "app.cfg"
    cfg.write_text("# test configuration\n"
                   + "\n".join(f"{k} = {v}" for k, v in values.items()) + "\n",
                   encoding="utf-8")
    return cfg


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A config file plus prebuilt stub indexes for both chunking strategies."""
    root = tmp_path_factory.mktemp("cli")
    cfg = write_config(root)
    naive = root / "idx_naive"
    hybrid = root / "idx_hybrid"
    assert main(["--config", str(cfg), "--stub", "index",
                 "--strategy", "overlap_window", "--out", str(naive)]) == 0
    assert main(["--config", str(cfg), "--stub", "index",
                 "--strategy", "token_chunk", "--out", str(hybrid)]) == 0
    return {"cfg": cfg, "naive": naive, "hybrid": hybrid, "root": root}


# ---------------------------------------------------------------------------
# Parser and configuration
# ---------------------------------------------------------------------------

def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "ingest" in capsys.readouterr().out


def test_config_loads_values_and_comments(tmp_path):
    cfg_path = write_config(tmp_path, top_k=7, alpha=0.25)
    cfg = AppConfig.load(cfg_path)
    assert cfg.top_k == 7
    assert cfg.alpha == 0.25
    assert cfg.lexicon.endswith("lexicon.txt")


def test_config_rejects_unknown_key_and_bad_value(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("mystery = 1\n", encoding="utf-8")
    with pytest.raises(CliConfigError, match="unknown config key"):
        AppConfig.load(bad)
    bad.write_text("top_k = many\n", encoding="utf-8")
    with pytest.raises(CliConfigError, match="top_k"):
        AppConfig.load(bad)
    bad.write_text("alpha = half\n", encoding="utf-8")
    with pytest.raises(CliConfigError, match="alpha"):
        AppConfig.load(bad)
    bad.write_text("budget = 6000.5\n", encoding="utf-8")
    with pytest.raises(CliConfigError, match="budget"):
        AppConfig.load(bad)


def test_bad_config_maps_to_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("mystery = 1\n", encoding="utf-8")
    out = tmp_path / "idx"
    code = main(["--config", str(bad), "index", "--strategy", "overlap_window",
                 "--out", str(out)])
    assert code == 2
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------

def test_ingest_passthrough(tmp_path, capsys):
    raw = tmp_path / "raw"
    raw.mkdir()
    (raw / "b.txt").write_text("某女，头晕　一月。", encoding="utf-8")
    (raw / "a.txt").write_text("某男，胃痛　三年。", encoding="utf-8")
    out = tmp_path / "corpus.jsonl"
    cfg = write_config(tmp_path)
    assert main(["--config", str(cfg), "ingest", str(raw), str(out)]) == 0
    lines = [json.loads(l) for l in out.read_text(encoding="utf-8").splitlines()]
    assert [rec["case_id"] for rec in lines] == ["a", "b"]  # sorted file order
    # fullwidth comma and ideographic space fold to their halfwidth forms
    assert lines[0]["clinical_info"] == "某男,胃痛 三年。"
    assert "wrote 2 cases" in capsys.readouterr().out


def test_ingest_refuses_a_file_name_with_a_tab(tmp_path, capsys):
    raw = tmp_path / "raw"
    raw.mkdir()
    (raw / "a.txt").write_text("某男，胃痛三年。", encoding="utf-8")
    (raw / "b\tc.txt").write_text("某女，头晕一月。", encoding="utf-8")
    out = tmp_path / "corpus.jsonl"
    out.write_text("previous\n", encoding="utf-8")
    assert main(["--config", str(write_config(tmp_path)), "ingest", str(raw), str(out)]) == 1
    assert "case_id" in capsys.readouterr().err
    assert out.read_text(encoding="utf-8") == "previous\n"


def test_ingest_empty_file_counts_as_failure(tmp_path, capsys):
    raw = tmp_path / "raw"
    raw.mkdir()
    (raw / "a.txt").write_text("有内容。", encoding="utf-8")
    (raw / "empty.txt").write_text("  \n", encoding="utf-8")
    out = tmp_path / "corpus.jsonl"
    cfg = write_config(tmp_path)
    assert main(["--config", str(cfg), "ingest", str(raw), str(out)]) == 1
    captured = capsys.readouterr()
    assert "empty after normalization" in captured.err
    # the good file is still written
    assert len(out.read_text(encoding="utf-8").splitlines()) == 1


def test_ingest_reports_a_file_that_is_not_utf8_and_writes_the_others(tmp_path, capsys):
    raw = tmp_path / "raw"
    raw.mkdir()
    (raw / "a.txt").write_text("某男，胃痛三年。", encoding="utf-8")
    (raw / "b.txt").write_bytes(b"\xff\xfe" + "头晕".encode("utf-16-le"))
    (raw / "c.txt").write_text("某女，头晕一月。", encoding="utf-8")
    out = tmp_path / "corpus.jsonl"
    assert main(["--config", str(write_config(tmp_path)), "ingest", str(raw), str(out)]) == 1
    err = capsys.readouterr().err
    assert f"ingest: cannot read {raw / 'b.txt'}: 'utf-8' codec can't decode" in err
    assert [c.case_id for c in load_corpus(out)] == ["a", "c"]


def test_ingest_of_a_file_whose_name_is_not_utf8_leaves_the_previous_corpus(tmp_path, capsys):
    raw = tmp_path / "raw"
    raw.mkdir()
    (raw / "a.txt").write_text("某男，胃痛三年。", encoding="utf-8")
    # the name's byte 0xff comes back from the directory listing as the lone surrogate \udcff
    (raw / b"\xffb.txt".decode("utf-8", "surrogateescape")).write_text("某女，头晕一月。",
                                                                      encoding="utf-8")
    out = tmp_path / "corpus.jsonl"
    out.write_text("previous\n", encoding="utf-8")
    assert main(["--config", str(write_config(tmp_path)), "ingest", str(raw), str(out)]) == 1
    assert capsys.readouterr().err == "error: case '\\udcffb': case_id holds a lone surrogate\n"
    assert out.read_text(encoding="utf-8") == "previous\n"


def test_ingest_no_files_is_config_error(tmp_path):
    raw = tmp_path / "raw"
    raw.mkdir()
    cfg = write_config(tmp_path)
    assert main(["--config", str(cfg), "ingest", str(raw), str(tmp_path / "c.jsonl")]) == 2


def test_ingest_clean_canned_requires_file(tmp_path):
    raw = tmp_path / "raw"
    raw.mkdir()
    (raw / "a.txt").write_text("文本。", encoding="utf-8")
    cfg = write_config(tmp_path)
    assert main(["--config", str(cfg), "ingest", str(raw), str(tmp_path / "c.jsonl"),
                 "--clean", "--chat", "canned"]) == 2


def write_canned_cleaning(path: Path, blob: str, pieces: list[str], fields: dict) -> Path:
    """A canned response file that splits `blob` into `pieces` and extracts `fields` from
    each piece, keyed by the digests of the messages the cleaning steps send."""
    replies: dict[str, str] = {}

    def reply(messages):
        text = json.dumps(pieces if messages[-1][1].startswith(blob) else fields,
                          ensure_ascii=False)
        replies[messages_digest(messages)] = text
        return text

    recorder = FnChatProvider(fn=reply)
    try:
        for piece in split_cases(recorder, blob, []):
            extract_fields(recorder, piece, [])
    except CleaningError:
        pass  # the split was refused, so no extraction follows
    path.write_text(json.dumps(replies, ensure_ascii=False), encoding="utf-8")
    return path


CASE_FIELDS = {"patient_background": "某男,45岁。", "clinical_info": "胃脘胀痛,嗳气吞酸。",
               "pathogenesis": "肝气犯胃", "syndromes": ["肝胃不和证"], "doctor_notes": ""}


def test_ingest_clean_splits_and_extracts_cases(tmp_path, capsys):
    raw = tmp_path / "raw"
    raw.mkdir()
    pieces = ["病案一:胃脘胀痛,嗳气吞酸。", "病案二:头晕目眩,耳鸣。"]
    (raw / "book.txt").write_text(" ".join(pieces), encoding="utf-8")
    canned = write_canned_cleaning(tmp_path / "canned.json", " ".join(pieces), pieces,
                                   CASE_FIELDS)
    out = tmp_path / "corpus.jsonl"
    assert main(["--config", str(write_config(tmp_path)), "ingest", str(raw), str(out),
                 "--clean", "--chat", "canned", "--canned", str(canned)]) == 0
    cases = load_corpus(out)
    assert [c.case_id for c in cases] == ["book-0", "book-1"]
    assert [c.raw_text for c in cases] == pieces
    assert {c.source for c in cases} == {str(raw / "book.txt")}
    assert cases[0].syndromes == ["肝胃不和证"]
    assert "wrote 2 cases" in capsys.readouterr().out


def test_ingest_clean_coverage_guard_fails_the_file(tmp_path, capsys):
    raw = tmp_path / "raw"
    raw.mkdir()
    blob = "病案一:胃脘胀痛,嗳气吞酸。病案二:头晕目眩,耳鸣。"
    (raw / "book.txt").write_text(blob, encoding="utf-8")
    # a rewrite, not a split: the guard must refuse it
    canned = write_canned_cleaning(tmp_path / "canned.json", blob, ["胃痛病案。"], CASE_FIELDS)
    out = tmp_path / "corpus.jsonl"
    assert main(["--config", str(write_config(tmp_path)), "ingest", str(raw), str(out),
                 "--clean", "--chat", "canned", "--canned", str(canned)]) == 1
    err = capsys.readouterr().err
    assert "coverage guard" in err
    assert f"ingest: failed: {raw / 'book.txt'}" in err
    assert out.read_text(encoding="utf-8") == ""


def test_ingest_clean_continues_past_a_file_whose_provider_call_failed(tmp_path, capsys):
    raw = tmp_path / "raw"
    raw.mkdir()
    pieces = ["病案一:胃脘胀痛,嗳气吞酸。"]
    (raw / "a.txt").write_text(pieces[0], encoding="utf-8")
    (raw / "b.txt").write_text("病案二:头晕目眩,耳鸣。", encoding="utf-8")  # nothing canned
    canned = write_canned_cleaning(tmp_path / "canned.json", pieces[0], pieces, CASE_FIELDS)
    out = tmp_path / "corpus.jsonl"
    assert main(["--config", str(write_config(tmp_path)), "ingest", str(raw), str(out),
                 "--clean", "--chat", "canned", "--canned", str(canned)]) == 1
    assert [c.case_id for c in load_corpus(out)] == ["a-0"]
    err = capsys.readouterr().err
    assert f"ingest: cleaning failed for {raw / 'b.txt'}: no canned response for digest" in err
    assert f"ingest: failed: {raw / 'b.txt'}" in err


def test_ingest_clean_adds_no_case_of_a_file_that_fails_part_way(tmp_path, capsys):
    raw = tmp_path / "raw"
    raw.mkdir()
    pieces = ["病案一:胃脘胀痛,嗳气吞酸。", "病案二:头晕目眩,耳鸣。"]
    (raw / "book.txt").write_text(" ".join(pieces), encoding="utf-8")
    both = write_canned_cleaning(tmp_path / "both.json", " ".join(pieces), pieces, CASE_FIELDS)
    # the second piece's own cleaning holds its extraction, which the canned file lacks
    second = write_canned_cleaning(tmp_path / "second.json", pieces[1], pieces[1:],
                                   CASE_FIELDS)
    replies = json.loads(both.read_text(encoding="utf-8"))
    for digest in json.loads(second.read_text(encoding="utf-8")):
        replies.pop(digest, None)
    assert len(replies) == 2  # the split and the first piece's extraction
    canned = tmp_path / "canned.json"
    canned.write_text(json.dumps(replies, ensure_ascii=False), encoding="utf-8")
    out = tmp_path / "corpus.jsonl"
    assert main(["--config", str(write_config(tmp_path)), "ingest", str(raw), str(out),
                 "--clean", "--chat", "canned", "--canned", str(canned)]) == 1
    assert load_corpus(out) == []
    captured = capsys.readouterr()
    assert "wrote 0 cases" in captured.out
    assert f"ingest: failed: {raw / 'book.txt'}" in captured.err


def test_ingest_clean_fails_a_file_whose_cleaning_reply_escapes_a_lone_surrogate(
        tmp_path, monkeypatch, capsys):
    """The reply is unreadable, so the repair turn runs; its file fails and the others'
    cases are written."""
    from tcmrag import cli
    from tcmrag.llm import _SPLIT_SYSTEM

    raw = tmp_path / "raw"
    raw.mkdir()
    (raw / "a.txt").write_text("病案一:胃脘胀痛,嗳气吞酸。", encoding="utf-8")
    (raw / "b.txt").write_text("病案二:头晕目眩,耳鸣。", encoding="utf-8")
    asked = []

    def reply(messages):  # json.dumps escapes every non-ASCII character, "\ud800" too
        text = messages[1][1].split("\n\n")[0]
        asked.append(text)
        if messages[0][1] == _SPLIT_SYSTEM:
            return json.dumps([text])
        return json.dumps({**CASE_FIELDS, "doctor_notes": "\ud800" if "头晕" in text else ""})

    provider = FnChatProvider(fn=reply)
    monkeypatch.setattr(cli, "_chat_provider", lambda cfg, args, items=None: provider)
    out = tmp_path / "corpus.jsonl"
    assert main(["--config", str(write_config(tmp_path)), "ingest", str(raw), str(out),
                 "--clean"]) == 1
    assert [c.case_id for c in load_corpus(out)] == ["a-0"]
    assert [t[:3] for t in asked] == ["病案一", "病案一", "病案二", "病案二", "病案二"]
    err = capsys.readouterr().err
    assert (f"ingest: cleaning failed for {raw / 'b.txt'}: "
            f"the reply's JSON holds a lone surrogate\n") in err
    assert err.endswith(f"ingest: failed: {raw / 'b.txt'}\n")


CHAT_URL = "http://chat.test/v1/chat/completions"
FLAGGED = "completion flagged finish_reason='length'"


def truncated_chat(monkeypatch, reply) -> None:
    """Answers every chat request with reply(messages), flagged finish_reason "length"."""
    def post(url, json, headers, timeout):
        assert url == CHAT_URL
        content = reply(json["messages"])
        return SimpleNamespace(status_code=200, json=lambda: {
            "choices": [{"message": {"content": content}, "finish_reason": "length"}]})

    monkeypatch.setattr(requests, "post", post)


def test_ingest_clean_prints_each_flagged_reply_and_exits_0(tmp_path, monkeypatch, capsys):
    raw = tmp_path / "raw"
    raw.mkdir()
    pieces = ["病案一:胃脘胀痛,嗳气吞酸。", "病案二:头晕目眩,耳鸣。"]
    blob = " ".join(pieces)
    (raw / "book.txt").write_text(blob, encoding="utf-8")
    truncated_chat(monkeypatch, lambda messages: json.dumps(
        pieces if messages[-1]["content"].startswith(blob) else CASE_FIELDS, ensure_ascii=False))
    out = tmp_path / "corpus.jsonl"
    assert main(["--config", str(write_config(tmp_path, chat_url=CHAT_URL)), "ingest",
                 str(raw), str(out), "--clean"]) == 0
    assert [c.case_id for c in load_corpus(out)] == ["book-0", "book-1"]
    warning = f"ingest: warning: {raw / 'book.txt'}: {FLAGGED}\n"
    assert capsys.readouterr().err == warning * 3  # one split, two extractions


# ---------------------------------------------------------------------------
# index
# ---------------------------------------------------------------------------

def test_index_writes_all_files_and_meta(workspace):
    naive = workspace["naive"]
    for name in ("vectors.bin", "keywords.bin", "keywords.tsv", "chunks.bin", "meta.json"):
        assert (naive / name).exists(), name
    meta = json.loads((naive / "meta.json").read_text(encoding="utf-8"))
    assert meta["strategy"] == "overlap_window"
    assert meta["stub"] is True
    assert meta["dim"] == 256
    assert meta["count"] >= 20  # at least one chunk per corpus case
    assert meta["format"] == 2
    for key, name in (("lexicon_sha256", "lexicon.txt"), ("hmm_sha256", "hmm_model.json")):
        assert meta[key] == hashlib.sha256((DATA / name).read_bytes()).hexdigest()
    assert not (naive / ".lock").exists()


def test_index_build_is_deterministic(workspace, tmp_path):
    out = tmp_path / "again"
    assert main(["--config", str(workspace["cfg"]), "--stub", "index",
                 "--strategy", "overlap_window", "--out", str(out)]) == 0
    for name in ("vectors.bin", "keywords.bin", "keywords.tsv", "chunks.bin", "meta.json"):
        a = hashlib.sha256((workspace["naive"] / name).read_bytes()).hexdigest()
        b = hashlib.sha256((out / name).read_bytes()).hexdigest()
        assert a == b, name


# SHA-256 of the files of both stub indexes of the sample corpus that hold no floats,
# built with small chunks so that the strategies differ. vectors.bin is left out: its
# float bytes may differ with the BLAS library.
SMALL_CHUNKS = {"window": 64, "overlap": 16, "max_tokens": 24, "overlap_tokens": 4}
INDEX_DIGESTS = {
    ("overlap_window", "keywords.bin"):
        "516d221d9375064b810b7cefddd1a910deab5a37de31602ab831462718a3bf87",
    ("overlap_window", "keywords.tsv"):
        "6d0a99ae99f7d9c90f5e147c9d42ea1baf6dd408b337d2d7b0ea8cb3a7673b90",
    ("overlap_window", "chunks.bin"):
        "5a0a8bf93f27e01a4ac1b68c1d2c544733b58b861fa90e27444c175310ada0a2",
    ("token_chunk", "keywords.bin"):
        "2148e57e9856e3cb82c3b52d412ed9a8693f775be1f2855c6aee6740b0ed6d25",
    ("token_chunk", "keywords.tsv"):
        "96b9197b42f4ed942760e294ae8c01280d15e87503221f87944811abde0f2bc4",
    ("token_chunk", "chunks.bin"):
        "7c9b3ad50316ac05a746ac733e81e9054132ea051b3508be9394326a8b009914",
}


def test_index_text_files_match_recorded_digests(tmp_path):
    cfg = write_config(tmp_path, **SMALL_CHUNKS)
    for strategy in ("overlap_window", "token_chunk"):
        out = tmp_path / strategy
        assert main(["--config", str(cfg), "--stub", "index",
                     "--strategy", strategy, "--out", str(out)]) == 0
        for name in ("keywords.bin", "keywords.tsv", "chunks.bin"):
            digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
            assert digest == INDEX_DIGESTS[strategy, name], (strategy, name)


def corpus_with_a_tokenless_case(tmp_path: Path) -> Path:
    """The first three sample cases, then one whose only text is punctuation."""
    lines = (DATA / "sample_corpus.jsonl").read_text(encoding="utf-8").splitlines()[:3]
    lines.append(json.dumps({"case_id": "c99", "patient_background": "",
                             "clinical_info": "？？……", "pathogenesis": "", "syndromes": [],
                             "doctor_notes": ""}, ensure_ascii=False))
    corpus = tmp_path / "tokenless.jsonl"
    corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return corpus


def test_index_failure_leaves_no_partial_files(tmp_path, capsys):
    # the build fails after it took the lock: the punctuation-only case has no vector
    cfg = write_config(tmp_path, corpus=corpus_with_a_tokenless_case(tmp_path))
    out = tmp_path / "idx"
    code = main(["--config", str(cfg), "--stub", "index",
                 "--strategy", "overlap_window", "--out", str(out)])
    assert code == 1
    for name in ("vectors.bin", "keywords.bin", "keywords.tsv", "chunks.bin", "meta.json",
                 ".lock"):
        assert not (out / name).exists(), name
    assert not list(out.glob(".index-*"))


def test_index_names_the_corpus_line_with_a_wrongly_typed_value(tmp_path, capsys):
    lines = (DATA / "sample_corpus.jsonl").read_text(encoding="utf-8").splitlines()
    rec = json.loads(lines[2])
    rec["clinical_info"] = 5
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("\n".join([*lines[:2], json.dumps(rec, ensure_ascii=False)]) + "\n",
                      encoding="utf-8")
    cfg = write_config(tmp_path, corpus=corpus)
    assert main(["--config", str(cfg), "--stub", "index", "--strategy", "token_chunk",
                 "--out", str(tmp_path / "idx")]) == 1
    assert f"error: {corpus}:3: clinical_info must be a string" in capsys.readouterr().err


def test_index_names_the_corpus_line_holding_a_lone_surrogate(tmp_path, capsys):
    lines = (DATA / "sample_corpus.jsonl").read_text(encoding="utf-8").splitlines()
    rec = json.loads(lines[1])
    rec["clinical_info"] = "胃脘\ud800痛。"
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("\n".join([lines[0], json.dumps(rec)]) + "\n", encoding="utf-8")
    cfg = write_config(tmp_path, corpus=corpus)
    assert main(["--config", str(cfg), "--stub", "index", "--strategy", "overlap_window",
                 "--out", str(tmp_path / "idx")]) == 1
    assert capsys.readouterr().err == f"error: {corpus}:2: clinical_info holds a lone surrogate\n"


INDEX_FILES = ("vectors.bin", "keywords.bin", "keywords.tsv", "chunks.bin", "meta.json")


def test_index_names_the_chunk_it_cannot_embed_and_keeps_the_previous_index(
        workspace, tmp_path, capsys):
    out = tmp_path / "idx"
    shutil.copytree(workspace["hybrid"], out)
    before = {name: (out / name).read_bytes() for name in INDEX_FILES}
    cfg = write_config(tmp_path, corpus=corpus_with_a_tokenless_case(tmp_path))
    code = main(["--config", str(cfg), "--stub", "index", "--strategy", "token_chunk",
                 "--out", str(out)])
    assert code == 1
    assert "error: chunk 'c99#0': empty token set" in capsys.readouterr().err
    assert {name: (out / name).read_bytes() for name in INDEX_FILES} == before
    assert sorted(p.name for p in out.iterdir()) == sorted(INDEX_FILES)


@pytest.mark.parametrize("strategy, settings, message", [
    ("overlap_window", {"overlap": 600}, "need 0 <= overlap < window"),
    ("token_chunk", {"overlap_tokens": 300}, "need 0 <= overlap_tokens < max_tokens"),
    ("overlap_window", {"stub_dim": 4}, "stub_dim must be >= 8"),
], ids=["overlap", "overlap_tokens", "stub_dim"])
def test_index_setting_out_of_range_is_config_error_before_the_corpus_is_read(
        tmp_path, strategy, settings, message, capsys):
    cfg = write_config(tmp_path, corpus=tmp_path / "missing.jsonl", **settings)
    out = tmp_path / "idx"
    assert main(["--config", str(cfg), "--stub", "index", "--strategy", strategy,
                 "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_index_accepts_an_out_of_range_setting_it_does_not_use(tmp_path, monkeypatch):
    # window and overlap are overlap_window's settings, and stub_dim is --stub's
    cfg = write_config(tmp_path, window=0, overlap=900)
    assert main(["--config", str(cfg), "--stub", "index", "--strategy", "token_chunk",
                 "--out", str(tmp_path / "stub")]) == 0
    reply = SimpleNamespace(status_code=200, json=lambda: {"data": [{"embedding": [1.0, 2.0]}]})
    monkeypatch.setattr(requests, "post", lambda *a, **k: reply)
    cfg = write_config(tmp_path, stub_dim=4, embed_url="http://embed.test/v1/embeddings")
    assert main(["--config", str(cfg), "index", "--strategy", "overlap_window",
                 "--out", str(tmp_path / "http")]) == 0


def test_failed_rebuild_keeps_the_previous_index(workspace, tmp_path, monkeypatch, capsys):
    from tcmrag import cli
    out = tmp_path / "idx"
    shutil.copytree(workspace["naive"], out)
    before = {name: (out / name).read_bytes() for name in INDEX_FILES}

    def fail(chunks, path):
        Path(path).write_text("partial", encoding="utf-8")
        raise OSError("disk full")

    monkeypatch.setattr(cli, "dump_chunks", fail)
    code = main(["--config", str(workspace["cfg"]), "--stub", "index",
                 "--strategy", "token_chunk", "--out", str(out)])
    assert code == 1
    assert "disk full" in capsys.readouterr().err
    assert {name: (out / name).read_bytes() for name in INDEX_FILES} == before
    assert sorted(p.name for p in out.iterdir()) == sorted(INDEX_FILES)
    assert main(["--config", str(workspace["cfg"]), "--stub", "query", "症见胃脘胀痛。",
                 "--index", str(out)]) == 0
    assert "1\t" in capsys.readouterr().out


@pytest.mark.parametrize("content, message", [
    ("not json", "Expecting value: line 1 column 1 (char 0)"),
    ('{"start": {"B": "x"}, "trans": {}, "emit": {}, "unseen": -1.0}',
     "could not convert string to float: 'x'"),
    ('{"start": {"B": 0.0}, "trans": {"B": [0.0]}, "emit": {}, "unseen": -1.0}',
     "'list' object has no attribute 'items'"),
], ids=["not JSON", "non-numeric value", "row not an object"])
def test_index_with_a_malformed_hmm_model_names_the_file_and_exits_1(tmp_path, capsys,
                                                                     content, message):
    hmm = tmp_path / "hmm.json"
    hmm.write_text(content, encoding="utf-8")
    with pytest.raises(HmmModelError, match=re.escape(f"{hmm}: malformed HMM model: {message}")):
        load_hmm(hmm)
    cfg = write_config(tmp_path, hmm=str(hmm))
    assert main(["--config", str(cfg), "--stub", "index", "--strategy", "token_chunk",
                 "--out", str(tmp_path / "idx")]) == 1
    assert capsys.readouterr().err == f"error: {hmm}: malformed HMM model: {message}\n"


def test_index_refuses_a_case_id_with_a_tab_or_line_break(workspace, tmp_path, capsys):
    # such an id would split its line of keywords.tsv, the index's readable record
    lines = (DATA / "sample_corpus.jsonl").read_text(encoding="utf-8").splitlines()[:3]
    recs = [json.loads(line) for line in lines]
    recs[0]["case_id"], recs[1]["case_id"] = "c\t1", "c\n2"
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in recs),
                      encoding="utf-8")
    out = tmp_path / "idx"
    shutil.copytree(workspace["hybrid"], out)
    before = {name: (out / name).read_bytes() for name in INDEX_FILES}
    code = main(["--config", str(write_config(tmp_path, corpus=corpus)), "--stub", "index",
                 "--strategy", "token_chunk", "--out", str(out)])
    assert code == 1
    assert "corpus.jsonl:1" in capsys.readouterr().err
    assert {name: (out / name).read_bytes() for name in INDEX_FILES} == before
    assert sorted(p.name for p in out.iterdir()) == sorted(INDEX_FILES)


def drop_last_row(path: Path) -> None:
    path.write_bytes(path.read_bytes()[:-4])


def drop_last_chunk(path: Path) -> None:
    dump_chunks(load_chunks(path)[:-1], path)


@pytest.mark.parametrize("name, damage", [("keywords.bin", drop_last_row),
                                          ("chunks.bin", drop_last_chunk)],
                         ids=["keywords.bin", "chunks.bin"])
def test_query_on_an_index_with_a_truncated_file_is_config_error(workspace, tmp_path, name,
                                                                  damage, capsys):
    index = tmp_path / "idx"
    shutil.copytree(workspace["hybrid"], index)
    damage(index / name)
    code = main(["--config", str(workspace["cfg"]), "--stub", "query", "症见胃脘胀痛。",
                 "--index", str(index)])
    assert code == 2
    assert "rebuild it with 'index'" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["vectors.bin", "keywords.bin", "chunks.bin"])
def test_query_on_an_index_missing_a_data_file_is_config_error(workspace, tmp_path, name,
                                                                capsys):
    # an index built before keywords.bin or chunks.bin was written lacks it
    index = tmp_path / "idx"
    shutil.copytree(workspace["hybrid"], index)
    (index / name).unlink()
    code = main(["--config", str(workspace["cfg"]), "--stub", "query", "症见胃脘胀痛。",
                 "--index", str(index)])
    assert code == 2
    assert capsys.readouterr().err == (f"error: index at {index} is missing {name}; "
                                       f"rebuild it with 'index'\n")


def test_an_index_of_an_earlier_release_asks_for_a_rebuild_that_leaves_its_chunks_jsonl(
        workspace, tmp_path, capsys):
    index = tmp_path / "idx"
    shutil.copytree(workspace["hybrid"], index)
    meta_of_an_earlier_layout(tmp_path, index)
    (index / "chunks.bin").unlink()
    old = "".join(json.dumps({"chunk_id": c.chunk_id, "case_id": c.case_id, "text": c.text,
                              "start": c.char_span[0], "end": c.char_span[1],
                              "strategy": c.strategy}, ensure_ascii=False) + "\n"
                  for c in load_chunks(workspace["hybrid"] / "chunks.bin"))
    (index / "chunks.jsonl").write_text(old, encoding="utf-8")
    args = ["--config", str(workspace["cfg"]), "--stub"]
    query = [*args, "query", "症见胃脘胀痛。", "--index", str(index)]
    assert main(query) == 2
    assert capsys.readouterr().err == (f"error: index at {index} is missing chunks.bin; "
                                       f"rebuild it with 'index'\n")
    assert main([*args, "index", "--strategy", "token_chunk", "--out", str(index)]) == 0
    assert main(query) == 0
    assert (index / "chunks.jsonl").read_text(encoding="utf-8") == old
    assert sorted(p.name for p in index.iterdir()) == sorted([*INDEX_FILES, "chunks.jsonl"])


def test_query_does_not_read_the_keywords_tsv_record(workspace, tmp_path, capsys):
    args = ["--config", str(workspace["cfg"]), "--stub", "query", "症见胃脘胀痛。", "--index"]
    assert main([*args, str(workspace["hybrid"])]) == 0
    expected = capsys.readouterr().out
    index = tmp_path / "idx"
    shutil.copytree(workspace["hybrid"], index)
    (index / "keywords.tsv").unlink()
    assert main([*args, str(index)]) == 0
    assert capsys.readouterr().out == expected


def cut_in_half(path: Path) -> None:
    data = path.read_bytes()
    path.write_bytes(data[:len(data) // 2])


def damage_block(case: str):
    """The damage that makes the block of keywords.bin malformed as MALFORMED_BLOCKS's case."""
    make, _ = MALFORMED_BLOCKS[case]
    return lambda path: path.write_bytes(make(parts(KeywordIndex.load(path))))


UNREADABLE_INDEX = {
    "truncated meta.json": ("meta.json", cut_in_half),
    "meta.json not an object": ("meta.json", lambda p: p.write_text("[1]\n")),
    "truncated vectors.bin": ("vectors.bin", cut_in_half),
    "chunks.bin cut in half": ("chunks.bin", cut_in_half),
    **{f"keywords.bin {case}": ("keywords.bin", damage_block(case)) for case in MALFORMED_BLOCKS},
}


@pytest.mark.parametrize("case", sorted(UNREADABLE_INDEX))
def test_query_on_an_unreadable_index_is_config_error(workspace, tmp_path, case, capsys):
    name, damage = UNREADABLE_INDEX[case]
    index = tmp_path / "idx"
    shutil.copytree(workspace["hybrid"], index)
    damage(index / name)
    code = main(["--config", str(workspace["cfg"]), "--stub", "query", "症见胃脘胀痛。",
                 "--index", str(index)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"index at {index} is unusable" in err
    assert "rebuild it with 'index'" in err


@pytest.mark.parametrize("case", sorted(MALFORMED_CHUNK_BLOCKS))
def test_query_on_an_index_with_a_malformed_chunk_block_names_the_fault(workspace, tmp_path,
                                                                         case, capsys):
    make, message = MALFORMED_CHUNK_BLOCKS[case]
    index = tmp_path / "idx"
    shutil.copytree(workspace["hybrid"], index)
    path = index / "chunks.bin"
    path.write_bytes(make(chunk_parts(load_chunks(path))))
    code = main(["--config", str(workspace["cfg"]), "--stub", "query", "症见胃脘胀痛。",
                 "--index", str(index)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"index at {index} is unusable: {path}: {message}" in err
    assert err.endswith("; rebuild it with 'index'\n")


@pytest.mark.parametrize("name", ["naive", "hybrid"])
def test_a_loaded_index_saves_the_bytes_it_was_loaded_from(workspace, tmp_path, name):
    for file, cls in (("vectors.bin", VectorIndex), ("keywords.bin", KeywordIndex)):
        cls.load(workspace[name] / file).save(tmp_path / file)
        cls.load(tmp_path / file).save(tmp_path / ("again-" + file))
        original = (workspace[name] / file).read_bytes()
        assert (tmp_path / file).read_bytes() == original
        assert (tmp_path / ("again-" + file)).read_bytes() == original


def rewrite_in_build_order(index_dir: Path) -> None:
    """vectors.bin as it was written before its rows were kept in chunk_id order: the
    rows in the order they were built, the order chunks.bin keeps."""
    index = VectorIndex.load(index_dir / "vectors.bin")
    order = [c.chunk_id for c in load_chunks(index_dir / "chunks.bin")]
    ids = json.dumps(order, ensure_ascii=False).encode("utf-8")
    by_id = dict(zip(index.ids, index._matrix))
    rows = b"".join(by_id[cid].tobytes() for cid in order)
    (index_dir / "vectors.bin").write_bytes(
        b"TCMRAGVIDX\x00\x00" + struct.pack("<IIIQ", 2, index.dim, len(order), len(ids))
        + ids + rows)


@pytest.mark.parametrize("strategy", ["overlap_window", "token_chunk"])
def test_an_index_with_vectors_in_build_order_is_refused(tmp_path, capsys, strategy):
    cases = load_corpus(DATA / "sample_corpus.jsonl")[::-1]  # built out of chunk_id order
    corpus = tmp_path / "corpus.jsonl"
    save_corpus(cases, corpus)
    cfg = write_config(tmp_path, corpus=str(corpus))
    index = tmp_path / "idx"
    assert main(["--config", str(cfg), "--stub", "index", "--strategy", strategy,
                 "--out", str(index)]) == 0
    sorted_rows = (index / "vectors.bin").read_bytes()
    rewrite_in_build_order(index)
    assert (index / "vectors.bin").read_bytes() != sorted_rows
    capsys.readouterr()
    assert main(["--config", str(cfg), "--stub", "query", "症见胃脘胀痛。",
                 "--index", str(index)]) == 2
    err = capsys.readouterr().err
    assert "vectors.bin: chunk ids are not" in err and "in chunk_id order" in err
    assert "rebuild it with 'index'" in err


def test_query_on_an_index_whose_meta_dim_disagrees_is_config_error(workspace, tmp_path,
                                                                     capsys):
    index = tmp_path / "idx"
    shutil.copytree(workspace["hybrid"], index)
    meta = json.loads((index / "meta.json").read_text(encoding="utf-8"))
    (index / "meta.json").write_text(json.dumps(dict(meta, dim=128)), encoding="utf-8")
    code = main(["--config", str(workspace["cfg"]), "--stub", "query", "症见胃脘胀痛。",
                 "--index", str(index)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"index at {index} is inconsistent" in err
    assert "rebuild it with 'index'" in err


def test_query_on_an_index_whose_chunks_repeat_an_id_is_config_error(workspace, tmp_path,
                                                                      capsys):
    # the repeat's text would silently replace the first in what prompts and reranking see
    index = tmp_path / "idx"
    shutil.copytree(workspace["hybrid"], index)
    chunks = load_chunks(index / "chunks.bin")
    first = chunks[0]
    assert first.chunk_id == "c01#0"
    other = ("另一段文字。" * len(first.text))[:len(first.text)]
    dump_chunks([*chunks, replace(first, text=other)], index / "chunks.bin")
    code = main(["--config", str(workspace["cfg"]), "--stub", "query", "症见胃脘胀痛。",
                 "--index", str(index)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"index at {index} is inconsistent" in err
    assert "rebuild it with 'index'" in err


def sha256_of(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def another_lexicon(tmp_path: Path, index: Path):
    lex = tmp_path / "lexicon.txt"
    lex.write_text((DATA / "lexicon.txt").read_text(encoding="utf-8") + "胃脘胀痛 50\n",
                   encoding="utf-8")
    return {"lexicon": lex}, "lexicon_sha256", sha256_of(DATA / "lexicon.txt"), sha256_of(lex)


def another_hmm(tmp_path: Path, index: Path):
    model = json.loads((DATA / "hmm_model.json").read_text(encoding="utf-8"))
    hmm = tmp_path / "hmm.json"
    hmm.write_text(json.dumps(dict(model, unseen=model["unseen"] - 1.0)), encoding="utf-8")
    return {"hmm": hmm}, "hmm_sha256", sha256_of(DATA / "hmm_model.json"), sha256_of(hmm)


def no_hmm(tmp_path: Path, index: Path):
    return {"hmm": ""}, "hmm_sha256", sha256_of(DATA / "hmm_model.json"), ""


def meta_of_an_earlier_layout(tmp_path: Path, index: Path):
    # new data files beside the meta.json of an earlier release, as a killed rename leaves
    meta = json.loads((index / "meta.json").read_text(encoding="utf-8"))
    (index / "meta.json").write_text(json.dumps({k: v for k, v in meta.items() if k in (
        "strategy", "dim", "count", "stub")}), encoding="utf-8")
    return {}, "format", None, 2


@pytest.mark.parametrize("change", [another_lexicon, another_hmm, no_hmm,
                                    meta_of_an_earlier_layout],
                         ids=lambda f: f.__name__.replace("_", " "))
def test_query_and_eval_refuse_an_index_built_otherwise(workspace, tmp_path, change, capsys):
    """A query tokenized with another lexicon or HMM than the chunks were would silently
    miss them; an index whose meta.json gives another layout may not be what it reads."""
    index = tmp_path / "idx"
    shutil.copytree(workspace["hybrid"], index)
    settings, key, built, now = change(tmp_path, index)
    cfg = write_config(tmp_path, **settings)
    for argv in (["query", "症见胃脘胀痛。", "--index", str(index)],
                 ["eval", "--tasks", str(DATA / "tasks.jsonl"), "--mode", "hybrid_jieba",
                  "--chat", "echo_gold", "--index-hybrid", str(index),
                  "--out", str(tmp_path / "r")]):
        assert main(["--config", str(cfg), "--stub", *argv]) == 2
        assert capsys.readouterr().err == (
            f"error: index at {index} was built with {key} {built!r} and this command uses "
            f"{now!r}; rebuild it with 'index'\n")
    assert not (tmp_path / "r").exists()


def test_query_opens_an_index_whose_lexicon_moved_with_its_bytes(workspace, tmp_path, capsys):
    args = ["--stub", "query", "症见胃脘胀痛。", "--index", str(workspace["hybrid"])]
    assert main(["--config", str(workspace["cfg"]), *args]) == 0
    expected = capsys.readouterr().out
    shutil.copy(DATA / "lexicon.txt", tmp_path / "moved.txt")
    assert main(["--config", str(write_config(tmp_path, lexicon=tmp_path / "moved.txt")),
                 *args]) == 0
    assert capsys.readouterr().out == expected


def rewrite_as_version_1(path: Path) -> None:
    """The same vectors in the version-1 layout: magic, version, dim and count, then per
    row the id's byte length, the id and the row."""
    index = VectorIndex.load(path)
    rows = b"".join(struct.pack("<I", len(cid.encode("utf-8"))) + cid.encode("utf-8")
                    + index._matrix[row].tobytes() for row, cid in enumerate(index.ids))
    path.write_bytes(b"TCMRAGVIDX\x00\x00" + struct.pack("<III", 1, index.dim, len(index.ids))
                     + rows)


def test_query_and_eval_refuse_a_version_1_index(workspace, tmp_path, capsys):
    index = tmp_path / "idx"
    shutil.copytree(workspace["hybrid"], index)
    rewrite_as_version_1(index / "vectors.bin")
    assert main(["--config", str(workspace["cfg"]), "--stub", "query", "症见胃脘胀痛。",
                 "--index", str(index)]) == 2
    assert main(["--config", str(workspace["cfg"]), "--stub", "eval",
                 "--tasks", str(DATA / "tasks.jsonl"), "--mode", "hybrid_jieba",
                 "--index-hybrid", str(index), "--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert err.count("unsupported version 1; rebuild it with 'index'") == 2


@pytest.mark.parametrize("value", [math.nan, 1e6], ids=["NaN", "scaled by 1e6"])
def test_query_and_eval_refuse_an_index_with_a_row_that_is_not_a_unit_vector(
        workspace, tmp_path, capsys, value):
    # before, a NaN row dropped out of every search and a scaled row topped it
    index = tmp_path / "idx"
    shutil.copytree(workspace["hybrid"], index)
    vectors = VectorIndex.load(index / "vectors.bin")
    vectors._matrix[1, 0] = value
    vectors.save(index / "vectors.bin")
    assert main(["--config", str(workspace["cfg"]), "--stub", "query", "症见胃脘胀痛。",
                 "--index", str(index)]) == 2
    assert main(["--config", str(workspace["cfg"]), "--stub", "eval",
                 "--tasks", str(DATA / "tasks.jsonl"), "--mode", "hybrid_jieba",
                 "--index-hybrid", str(index), "--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert err.count(f"the row of chunk {vectors.ids[1]!r} is not a finite unit vector") == 2
    assert err.count("rebuild it with 'index'") == 2


def test_index_respects_lock(workspace, tmp_path, capsys):
    out = tmp_path / "locked"
    out.mkdir()
    (out / ".lock").touch()
    code = main(["--config", str(workspace["cfg"]), "--stub", "index",
                 "--strategy", "overlap_window", "--out", str(out)])
    assert code == 2
    assert "locked" in capsys.readouterr().err


def index_into(workspace, out) -> int:
    return main(["--config", str(workspace["cfg"]), "--stub", "index",
                 "--strategy", "overlap_window", "--out", str(out)])


def test_index_lock_holds_the_owner_pid_while_it_runs(workspace, tmp_path, monkeypatch):
    from tcmrag import cli
    original, seen = cli.dump_chunks, []

    def dump(chunks, path):
        seen.append(json.loads((tmp_path / "idx" / ".lock").read_text(encoding="utf-8")))
        return original(chunks, path)

    monkeypatch.setattr(cli, "dump_chunks", dump)
    assert index_into(workspace, tmp_path / "idx") == 0
    assert seen[0]["pid"] == os.getpid()
    assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\dZ", seen[0]["started"])
    assert not (tmp_path / "idx" / ".lock").exists()


def test_index_refuses_a_stale_lock_and_names_its_dead_owner(workspace, tmp_path, capsys):
    proc = subprocess.Popen([sys.executable, "-c", "pass"])
    proc.wait()  # exited and reaped: its pid runs nothing
    out = tmp_path / "idx"
    out.mkdir()
    held = json.dumps({"pid": proc.pid, "started": "2026-01-02T03:04:05Z"}) + "\n"
    (out / ".lock").write_text(held, encoding="utf-8")
    assert index_into(workspace, out) == 2
    err = capsys.readouterr().err
    assert f"pid {proc.pid} since 2026-01-02T03:04:05Z, which is no longer running" in err
    assert f"remove {out / '.lock'}" in err
    assert (out / ".lock").read_text(encoding="utf-8") == held  # never taken over
    assert not (out / "meta.json").exists()


def test_index_refuses_a_lock_whose_owner_runs(workspace, tmp_path, capsys):
    out = tmp_path / "idx"
    out.mkdir()
    (out / ".lock").write_text(json.dumps({"pid": os.getpid(), "started": "2026-01-02T03:04:05Z"}),
                               encoding="utf-8")
    assert index_into(workspace, out) == 2
    assert f"pid {os.getpid()} since 2026-01-02T03:04:05Z, which is still running" \
        in capsys.readouterr().err


@pytest.mark.parametrize("content", ["", "1234", "{}", '{"pid": 0, "started": "x"}',
                                     '{"pid": -1, "started": "x"}', "\xff garbage"])
def test_index_refuses_a_lock_without_a_usable_pid(workspace, tmp_path, capsys, content):
    out = tmp_path / "idx"
    out.mkdir()
    (out / ".lock").write_text(content, encoding="utf-8")
    assert index_into(workspace, out) == 2
    assert "its owner is unknown" in capsys.readouterr().err
    assert (out / ".lock").read_text(encoding="utf-8") == content


# ---------------------------------------------------------------------------
# query
# ---------------------------------------------------------------------------

def test_query_prints_ranked_rows(workspace, capsys):
    code = main(["--config", str(workspace["cfg"]), "--stub", "query",
                 "症见胃脘胀痛，嗳气吞酸。", "--index", str(workspace["naive"]), "--k", "3"])
    assert code == 0
    rows = [l for l in capsys.readouterr().out.splitlines() if l and l[0].isdigit()]
    assert len(rows) == 3
    first = rows[0].split("\t")
    assert first[0] == "1"
    assert "#" in first[1]  # chunk ids are case_id#ordinal
    assert first[2].startswith("rerank=")
    assert first[3].startswith("dense=")
    assert first[4].startswith("sparse=")


def test_query_prints_config_top_k_rows_by_default(workspace, tmp_path, capsys):
    code = main(["--config", str(write_config(tmp_path, top_k=5)), "--stub", "query",
                 "症见胃脘胀痛，嗳气吞酸。", "--index", str(workspace["naive"])])
    assert code == 0
    rows = [l for l in capsys.readouterr().out.splitlines() if l and l[0].isdigit()]
    assert len(rows) == 5


@pytest.mark.parametrize("config, argv, message", [
    ({}, ["--k", "-1"], "top_k must be >= 1"),
    ({}, ["--k", "0"], "top_k must be >= 1"),
    ({}, ["--k", "200"], "top_k exceeds the first-stage pool bound"),
    ({"n_dense": 0}, [], "n_dense must be >= 1"),
    ({"n_sparse": 0}, [], "n_sparse must be >= 1"),
    ({"alpha": 1.5}, [], "alpha must be in [0,1]"),
], ids=["k=-1", "k=0", "k=200", "n_dense=0", "n_sparse=0", "alpha=1.5"])
def test_query_retrieval_setting_out_of_range_is_config_error(workspace, tmp_path, config,
                                                               argv, message, capsys):
    code = main(["--config", str(write_config(tmp_path, **config)), "--stub", "query",
                 "症见胃脘胀痛。", "--index", str(workspace["naive"]), *argv])
    assert code == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


def test_eval_with_top_k_0_is_config_error(workspace, tmp_path, capsys):
    out = tmp_path / "r"
    code = main(["--config", str(write_config(tmp_path, top_k=0)), "--stub", "eval",
                 "--tasks", str(DATA / "tasks.jsonl"), "--mode", "naive_rag",
                 "--chat", "echo_gold", "--index-naive", str(workspace["naive"]),
                 "--out", str(out)])
    assert code == 2
    assert "top_k must be >= 1" in capsys.readouterr().err
    assert not (out / "report_naive_rag.json").exists()


def test_query_punctuation_only_is_empty_with_a_warning(workspace, capsys):
    code = main(["--config", str(workspace["cfg"]), "--stub", "query",
                 "？？", "--index", str(workspace["hybrid"])])
    assert code == 0
    captured = capsys.readouterr()
    assert "(no results)" in captured.out
    assert "no searchable tokens" in captured.err


def test_query_sparse_only_without_overlap_is_empty_but_ok(workspace, capsys):
    code = main(["--config", str(workspace["cfg"]), "--stub", "query",
                 "zzz", "--index", str(workspace["naive"]), "--mode", "sparse_only"])
    assert code == 0
    assert "(no results)" in capsys.readouterr().out


def test_query_expect_strategy_mismatch_is_config_error(workspace, capsys):
    code = main(["--config", str(workspace["cfg"]), "--stub", "query",
                 "症见胃脘胀痛。", "--index", str(workspace["naive"]),
                 "--expect-strategy", "token_chunk"])
    assert code == 2
    assert "strategy" in capsys.readouterr().err


def test_query_with_argument_bytes_that_are_not_utf8_is_config_error(workspace, capsys):
    # Python hands argument bytes that are not UTF-8 to main as lone surrogates
    question = b"\xff\xfe\xe8\x83\x83\xe8\x84\x98".decode("utf-8", "surrogateescape")
    assert main(["--config", str(workspace["cfg"]), "--stub", "query", question,
                 "--index", str(workspace["hybrid"])]) == 2
    assert capsys.readouterr().err == ("error: the question '\\udcff\\udcfe胃脘' is not "
                                       "UTF-8 text\n")


@pytest.mark.parametrize("flag", ["--pathogenesis-option", "--syndrome-option"])
def test_query_with_an_option_whose_bytes_are_not_utf8_is_config_error(tmp_path, capsys, flag):
    # checked before the index is opened: there is none at this path
    option = b"\xff\xe8\x83\x83".decode("utf-8", "surrogateescape")
    assert main(["--config", str(write_config(tmp_path)), "--stub", "query", "胃脘",
                 "--index", str(tmp_path / "nowhere"), flag, "a", flag, option,
                 "--answer"]) == 2
    assert capsys.readouterr() == ("", f"error: {flag} '\\udcff胃' is not UTF-8 text\n")


def test_query_missing_index_is_config_error(workspace, tmp_path):
    code = main(["--config", str(workspace["cfg"]), "--stub", "query",
                 "症见胃脘胀痛。", "--index", str(tmp_path / "nowhere")])
    assert code == 2


EMPTY_ANSWER = json.dumps({"clinical_features": [], "pathogenesis": [], "syndromes": [],
                           "reasoning": ""})


@pytest.fixture
def sent(monkeypatch):
    """The messages of every chat request the CLI makes, answered with empty lists."""
    from tcmrag import cli
    from tcmrag.llm import FnChatProvider

    calls: list[list[tuple[str, str]]] = []
    provider = FnChatProvider(fn=lambda messages: calls.append(messages) or EMPTY_ANSWER)
    monkeypatch.setattr(cli, "_chat_provider", lambda cfg, args, items=None: provider)
    return calls


def query_answer_argv(cfg: Path, index: Path, task: dict) -> list[str]:
    argv = ["--config", str(cfg), "--stub", "query", task["case_text"],
            "--index", str(index), "--answer"]
    for option in task["pathogenesis_options"]:
        argv += ["--pathogenesis-option", option]
    for option in task["syndrome_options"]:
        argv += ["--syndrome-option", option]
    return argv


def first_task() -> dict:
    return json.loads((DATA / "tasks.jsonl").read_text(encoding="utf-8").splitlines()[0])


def test_query_answer_sends_the_prompt_eval_sends(workspace, tmp_path, sent, capsys):
    task = first_task()
    tasks = tmp_path / "one.jsonl"
    tasks.write_text(json.dumps(task, ensure_ascii=False) + "\n", encoding="utf-8")
    assert main(["--config", str(workspace["cfg"]), "--stub", "eval", "--tasks", str(tasks),
                 "--mode", "hybrid_jieba", "--cot",
                 "--index-hybrid", str(workspace["hybrid"]), "--out", str(tmp_path / "r")]) == 0
    assert main(query_answer_argv(workspace["cfg"], workspace["hybrid"], task)) == 0
    assert len(sent) == 2
    assert sent[1] == sent[0]
    assert "【检索到的相关医案 CONTEXT】" in sent[0][1][1]


def test_eval_without_a_corpus_sends_the_prompt_query_answer_sends(workspace, tmp_path, sent,
                                                                  capsys):
    """With no `corpus` key both commands answer without a demonstration."""
    task = first_task()
    tasks = tmp_path / "one.jsonl"
    tasks.write_text(json.dumps(task, ensure_ascii=False) + "\n", encoding="utf-8")
    no_corpus = write_config(tmp_path, corpus="")
    assert main(["--config", str(no_corpus), "--stub", "eval", "--tasks", str(tasks),
                 "--mode", "hybrid_jieba", "--cot",
                 "--index-hybrid", str(workspace["hybrid"]), "--out", str(tmp_path / "r")]) == 0
    assert main(query_answer_argv(no_corpus, workspace["hybrid"], task)) == 0
    assert len(sent) == 2
    assert messages_digest(sent[1]) == messages_digest(sent[0])
    assert "[示例病案 " not in sent[0][1][1] and "(无示例)" in sent[0][1][1]
    assert "【检索到的相关医案 CONTEXT】" in sent[0][1][1]


@pytest.mark.parametrize("command", ["query --answer", "eval"])
def test_answering_without_templates_is_config_error_before_retrieval(
        workspace, tmp_path, monkeypatch, capsys, command):
    from tcmrag import cli, evalharness

    def retrieve(*args, **kwargs):
        raise AssertionError("retrieved before the templates were checked")

    monkeypatch.setattr(cli, "two_stage_retrieve", retrieve)
    monkeypatch.setattr(evalharness, "two_stage_retrieve", retrieve)
    cfg = write_config(tmp_path, templates="")
    if command == "eval":
        argv = ["--config", str(cfg), "--stub", "eval", "--tasks", str(DATA / "tasks.jsonl"),
                "--mode", "hybrid_jieba", "--chat", "echo_gold",
                "--index-hybrid", str(workspace["hybrid"]), "--out", str(tmp_path / "r")]
    else:
        argv = query_answer_argv(cfg, workspace["hybrid"], first_task())
    assert main(argv) == 2
    assert capsys.readouterr() == (
        "", f"error: {command} requires a templates directory in the config\n")
    assert not (tmp_path / "r").exists()


def test_query_answer_demonstration_comes_from_the_config_corpus(workspace, tmp_path, sent,
                                                                 capsys):
    task = first_task()
    no_corpus = write_config(tmp_path, corpus="")
    assert main(query_answer_argv(workspace["cfg"], workspace["hybrid"], task)) == 0
    assert main(query_answer_argv(no_corpus, workspace["hybrid"], task)) == 0
    with_demo, without_demo = sent[0][1][1], sent[1][1][1]
    assert "[示例病案 " in with_demo
    assert "[示例病案 " not in without_demo and "(无示例)" in without_demo
    assert "【检索到的相关医案 CONTEXT】" in without_demo


def test_query_answer_without_tokens_answers_without_context(workspace, sent, capsys):
    code = main(["--config", str(workspace["cfg"]), "--stub", "query", "？？",
                 "--index", str(workspace["hybrid"]), "--answer"])
    assert code == 0
    captured = capsys.readouterr()
    assert "no searchable tokens" in captured.err
    assert "nothing retrieved; answered without context" in captured.err
    user = sent[0][1][1]
    assert COT_STEP_HEADERS[0] in user and "【检索到的相关医案 CONTEXT】" not in user
    assert json.loads(captured.out.splitlines()[-1])["pathogenesis"] == []


@pytest.mark.parametrize("question", ["症见胃脘胀痛，嗳气吞酸。", "？？"])
def test_query_answer_unparseable_prints_warnings_and_exits_1(workspace, monkeypatch, capsys,
                                                              question):
    from tcmrag import cli
    from tcmrag.llm import FnChatProvider

    provider = FnChatProvider(fn=lambda messages: "自由文本")
    monkeypatch.setattr(cli, "_chat_provider", lambda cfg, args, items=None: provider)
    code = main(["--config", str(workspace["cfg"]), "--stub", "query", question,
                 "--index", str(workspace["hybrid"]), "--answer"])
    assert code == 1
    captured = capsys.readouterr()
    assert "warning: unparseable answer: no JSON object found" in captured.err
    if question == "？？":
        assert "warning: nothing retrieved; answered without context" in captured.err
    assert not captured.out.splitlines()[-1].startswith("{")


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("content, message", [
    ("", "not JSON: Expecting value: line 1 column 1 (char 0)"),
    ("[1, 2]", "not a JSON object of canned responses (digest -> text)"),
], ids=["empty", "array"])
def test_query_answer_with_an_unusable_canned_file_is_config_error_before_retrieval(
        workspace, tmp_path, capsys, content, message):
    canned = tmp_path / "canned.json"
    canned.write_text(content, encoding="utf-8")
    argv = query_answer_argv(workspace["cfg"], workspace["hybrid"], first_task())
    assert main(argv + ["--chat", "canned", "--canned", str(canned)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: unusable --canned file: {canned}: {message}\n"


@pytest.mark.parametrize("command", ["eval", "query --answer", "ingest --clean"])
def test_a_canned_file_holding_a_lone_surrogate_is_config_error(workspace, tmp_path, capsys,
                                                                command):
    """json.dumps writes "\\ud800" as an escape, which loading the file decodes."""
    canned = tmp_path / "canned.json"
    canned.write_text(json.dumps({"0" * 64: "\ud800"}), encoding="utf-8")
    cfg = workspace["cfg"]
    if command == "eval":
        argv = ["--config", str(cfg), "--stub", "eval", "--tasks", str(DATA / "tasks.jsonl"),
                "--out", str(tmp_path / "r")]
    elif command == "query --answer":
        argv = query_answer_argv(cfg, workspace["hybrid"], first_task())
    else:
        (tmp_path / "raw").mkdir()
        (tmp_path / "raw" / "a.txt").write_text("病案一:胃脘胀痛。", encoding="utf-8")
        argv = ["--config", str(cfg), "ingest", str(tmp_path / "raw"),
                str(tmp_path / "corpus.jsonl"), "--clean"]
    assert main(argv + ["--chat", "canned", "--canned", str(canned)]) == 2
    assert capsys.readouterr() == ("", f"error: unusable --canned file: {canned}: "
                                       f"a canned response holds a lone surrogate\n")
    assert not (tmp_path / "r").exists() and not (tmp_path / "corpus.jsonl").exists()


def test_a_chat_reply_holding_a_lone_surrogate_fails_only_its_item(
        workspace, tmp_path, monkeypatch, slept, capsys):
    """The body's JSON escape "\\ud800" decodes to the lone surrogate itself: the body is
    malformed, retried, and then a provider failure; the report is written."""
    tasks = [json.loads(line)
             for line in (DATA / "tasks.jsonl").read_text(encoding="utf-8").splitlines()[:2]]
    path = tmp_path / "two.jsonl"
    path.write_text("".join(json.dumps(t, ensure_ascii=False) + "\n" for t in tasks),
                    encoding="utf-8")
    bad = json.dumps({"clinical_features": ["\ud800"], "pathogenesis": [], "syndromes": [],
                      "reasoning": ""}, ensure_ascii=False)  # the surrogate itself, unescaped

    def post(url, json, headers, timeout):
        first = tasks[0]["case_text"] in json["messages"][-1]["content"]
        return SimpleNamespace(status_code=200, json=lambda: {
            "choices": [{"message": {"content": bad if first else EMPTY_ANSWER}}]})

    monkeypatch.setattr(requests, "post", post)
    out = tmp_path / "r"
    assert main(["--config", str(write_config(tmp_path, chat_url=CHAT_URL)), "eval",
                 "--tasks", str(path), "--out", str(out)]) == 1
    report = json.loads((out / "report_none.json").read_text(encoding="utf-8"))
    assert (report["provider_failures"], report["parse_failures"]) == (1, 0)
    items = {item["item_id"]: item for item in report["items"]}
    failed, answered = items[tasks[0]["item_id"]], items[tasks[1]["item_id"]]
    assert (failed["parsed"], failed["answer"]) == (False, "")
    assert failed["warnings"] == [
        f"chat provider failed: {CHAT_URL}: malformed response body: ValueError('message "
        f"content holds a lone surrogate') (failed after 3 retries)"]
    assert answered["parsed"] and answered["warnings"] == []
    assert slept == [1.0, 2.0, 4.0]
    assert "provider_failures=1" in capsys.readouterr().out


def test_a_failed_chat_call_fails_its_item_and_eval_still_writes_every_report(
        workspace, tmp_path, capsys):
    canned = tmp_path / "canned.json"
    canned.write_text("{}", encoding="utf-8")  # no reply for any prompt
    out = tmp_path / "reports"
    code = main(["--config", str(workspace["cfg"]), "--stub", "eval",
                 "--tasks", str(DATA / "tasks.jsonl"), "--mode", "none",
                 "--mode", "hybrid_jieba", "--index-hybrid", str(workspace["hybrid"]),
                 "--chat", "canned", "--canned", str(canned), "--out", str(out)])
    assert code == 1
    for label in ("none", "hybrid_jieba"):
        report = json.loads((out / f"report_{label}.json").read_text(encoding="utf-8"))
        assert (report["provider_failures"], report["parse_failures"]) == (20, 0)
        assert report["aggregate"] == 0.0
        for item in report["items"]:
            assert item["score"] == 0.0 and not item["parsed"]
            assert item["warnings"][-1].startswith(
                "chat provider failed: no canned response for digest ")
    assert (out / "comparison.txt").exists() and (out / "comparison.json").exists()
    assert "provider_failures=20" in capsys.readouterr().out
    assert not (out / ".lock").exists()


def test_an_over_budget_prompt_fails_its_item_and_eval_still_writes_every_report(
        workspace, tmp_path, capsys):
    tasks = [json.loads(line)
             for line in (DATA / "tasks.jsonl").read_text(encoding="utf-8").splitlines()]
    tasks[1]["case_text"] = "胃" * 7000  # longer than the whole budget
    path = tmp_path / "tasks.jsonl"
    path.write_text("".join(json.dumps(t, ensure_ascii=False) + "\n" for t in tasks),
                    encoding="utf-8")
    out = tmp_path / "reports"
    code = main(["--config", str(workspace["cfg"]), "--stub", "eval", "--tasks", str(path),
                 "--mode", "none", "--mode", "hybrid_jieba",
                 "--index-hybrid", str(workspace["hybrid"]),
                 "--chat", "echo_gold", "--out", str(out)])
    assert code == 1
    for label in ("none", "hybrid_jieba"):
        report = json.loads((out / f"report_{label}.json").read_text(encoding="utf-8"))
        assert (report["prompt_failures"], report["provider_failures"],
                report["parse_failures"]) == (1, 0, 0)
        for item in report["items"]:
            if item["item_id"] == tasks[1]["item_id"]:
                assert item["score"] == 0.0 and not item["parsed"]
                assert item["warnings"][-1] == ("prompt not built: prompt exceeds budget "
                                                "6000 even with all optional parts dropped")
            else:
                assert item["score"] == 1.0 and item["parsed"]
    assert (out / "comparison.txt").exists() and (out / "comparison.json").exists()
    assert capsys.readouterr().out.count("prompt_failures=1") == 2
    assert not (out / ".lock").exists()


def test_query_answer_with_a_failed_chat_call_prints_the_warning_and_exits_1(
        workspace, tmp_path, capsys):
    canned = tmp_path / "canned.json"
    canned.write_text("{}", encoding="utf-8")
    argv = query_answer_argv(workspace["cfg"], workspace["hybrid"], first_task())
    assert main(argv + ["--chat", "canned", "--canned", str(canned)]) == 1
    out, err = capsys.readouterr()
    assert "warning: chat provider failed: no canned response for digest " in err
    assert "error:" not in err
    assert not out.splitlines()[-1].startswith("{")


@pytest.mark.parametrize("reply, listed", [
    (EMPTY_ANSWER, [FLAGGED]),
    ('{"clinical_features": [', [FLAGGED, FLAGGED,
                                 "unparseable answer: no JSON object found in model output"]),
], ids=["parseable", "unparseable"])
def test_eval_lists_each_flagged_reply_in_its_item(workspace, tmp_path, monkeypatch, reply,
                                                   listed):
    truncated_chat(monkeypatch, lambda messages: reply)
    tasks = tmp_path / "one.jsonl"
    tasks.write_text(json.dumps(first_task(), ensure_ascii=False) + "\n", encoding="utf-8")
    out = tmp_path / "r"
    assert main(["--config", str(write_config(tmp_path, chat_url=CHAT_URL)), "eval",
                 "--tasks", str(tasks), "--out", str(out)]) == 0
    report = json.loads((out / "report_none.json").read_text(encoding="utf-8"))
    assert report["items"][0]["warnings"] == listed
    assert report["warning_count"] == len(listed)
    assert report["parse_failures"] == (len(listed) == 3)


def test_query_answer_prints_a_flagged_reply(workspace, tmp_path, monkeypatch, capsys):
    truncated_chat(monkeypatch, lambda messages: EMPTY_ANSWER)
    cfg = write_config(tmp_path, chat_url=CHAT_URL)
    assert main(query_answer_argv(cfg, workspace["hybrid"], first_task())) == 0
    out, err = capsys.readouterr()
    assert f"warning: {FLAGGED}\n" in err
    assert json.loads(out.splitlines()[-1])["pathogenesis"] == []


def test_eval_counts_a_reply_whose_json_escapes_a_lone_surrogate_as_a_parse_failure(
        workspace, tmp_path, monkeypatch, capsys):
    """The reply is unreadable, so the repair turn runs and the item fails to parse; the
    report replaces the previous one."""
    from tcmrag import cli

    bad = json.dumps({"clinical_features": ["\ud800"], "pathogenesis": [], "syndromes": [],
                      "reasoning": ""})  # "\ud800" stays an escape in the reply text
    tasks = tmp_path / "one.jsonl"
    tasks.write_text(json.dumps(first_task(), ensure_ascii=False) + "\n", encoding="utf-8")
    argv = ["--config", str(workspace["cfg"]), "--stub", "eval", "--tasks", str(tasks)]
    digests = []  # of each prompt eval sends when every reply is `bad`
    recorder = FnChatProvider(fn=lambda messages: digests.append(messages_digest(messages))
                              or bad)
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_chat_provider", lambda cfg, args, items=None: recorder)
        main(argv + ["--out", str(tmp_path / "recorded")])
    canned = tmp_path / "canned.json"
    canned.write_text(json.dumps(dict.fromkeys(digests, bad)), encoding="utf-8")
    out = tmp_path / "r"
    out.mkdir()
    (out / "report_none.json").write_text("previous\n", encoding="utf-8")
    assert main(argv + ["--chat", "canned", "--canned", str(canned), "--out", str(out)]) == 0
    assert len(digests) == 2  # the reply and its repair
    report = json.loads((out / "report_none.json").read_text(encoding="utf-8"))
    assert report["parse_failures"] == 1 and report["provider_failures"] == 0
    assert report["items"][0]["warnings"] == [
        "unparseable answer: the reply's JSON holds a lone surrogate"]
    assert "parse_failures=1" in capsys.readouterr().out


def test_eval_runs_a_repeated_mode_once(workspace, tmp_path, sent, capsys):
    out = tmp_path / "r"
    assert main(["--config", str(workspace["cfg"]), "--stub", "eval",
                 "--tasks", str(DATA / "tasks.jsonl"), "--mode", "none",
                 "--mode", "hybrid_jieba", "--mode", "none",
                 "--index-hybrid", str(workspace["hybrid"]), "--out", str(out)]) == 0
    assert len(sent) == 2 * 20
    labels = [line.split(":")[1].strip() for line in capsys.readouterr().out.splitlines()
              if line.startswith("eval: ")]
    assert labels == ["none", "hybrid_jieba"]
    rows = json.loads((out / "comparison.json").read_text(encoding="utf-8"))
    assert sorted(r["label"] for r in rows) == ["hybrid_jieba", "none"]


def test_eval_three_modes_writes_reports_and_comparison(workspace, tmp_path, capsys):
    out = tmp_path / "reports"
    code = main(["--config", str(workspace["cfg"]), "--stub", "eval",
                 "--tasks", str(DATA / "tasks.jsonl"),
                 "--mode", "none", "--mode", "naive_rag", "--mode", "hybrid_jieba",
                 "--chat", "retrieval_sensitive",
                 "--index-naive", str(workspace["naive"]),
                 "--index-hybrid", str(workspace["hybrid"]),
                 "--out", str(out)])
    assert code == 0
    for name in ("report_none.json", "report_naive_rag.json", "report_hybrid_jieba.json",
                 "comparison.txt", "comparison.json"):
        assert (out / name).exists(), name
    rows = json.loads((out / "comparison.json").read_text(encoding="utf-8"))
    by_label = {r["label"]: r["aggregate"] for r in rows}
    assert by_label["hybrid_jieba"] >= by_label["naive_rag"] >= by_label["none"]
    assert "Method" in (out / "comparison.txt").read_text(encoding="utf-8")
    assert not (out / ".lock").exists()


def rerank_reply(payload, status_code=200):
    return SimpleNamespace(status_code=status_code, json=lambda: payload)


def test_eval_falls_back_to_fusion_when_the_rerank_provider_fails(workspace, tmp_path, sent,
                                                                   monkeypatch, capsys):
    cfg = write_config(tmp_path, rerank_url="http://rerank.test/v1/rerank")
    monkeypatch.setattr(requests, "post", lambda *a, **k: rerank_reply(None, status_code=500))
    out = tmp_path / "r"
    assert main(["--config", str(cfg), "eval", "--tasks", str(DATA / "tasks.jsonl"),
                 "--mode", "hybrid_jieba", "--index-hybrid", str(workspace["hybrid"]),
                 "--out", str(out)]) == 0
    report = json.loads((out / "report_hybrid_jieba.json").read_text(encoding="utf-8"))
    assert report["provider_fallbacks"] == len(report["items"]) == 20


def test_eval_and_query_rank_by_the_rerank_provider(workspace, tmp_path, sent, monkeypatch,
                                                    capsys):
    """The provider scores the pool (sent in chunk_id order) by position, so the context
    lists the pooled chunks last to first, as the provider ranks them, in eval and query."""
    posted: list[list[str]] = []

    def post(url, json, headers, timeout):
        posted.append(json["documents"])
        return rerank_reply({"results": [{"index": i, "relevance_score": float(i)}
                                         for i in range(len(json["documents"]))]})

    monkeypatch.setattr(requests, "post", post)
    cfg = write_config(tmp_path, rerank_url="http://rerank.test/v1/rerank")
    task = first_task()
    tasks = tmp_path / "one.jsonl"
    tasks.write_text(json.dumps(task, ensure_ascii=False) + "\n", encoding="utf-8")
    assert main(["--config", str(cfg), "eval", "--tasks", str(tasks), "--mode", "hybrid_jieba",
                 "--cot", "--index-hybrid", str(workspace["hybrid"]),
                 "--out", str(tmp_path / "r")]) == 0
    query_argv = [a for a in query_answer_argv(cfg, workspace["hybrid"], task) if a != "--stub"]
    assert main(query_argv) == 0
    assert len(posted) == 2 and len(sent) == 2 and sent[1] == sent[0]
    chunk_texts = {c.chunk_id: c.text for c in load_chunks(workspace["hybrid"] / "chunks.bin")}
    context_ids = re.findall(r"\[CONTEXT \d+ \| ([^\]]+)\]", sent[0][1][1])
    assert len(context_ids) >= 2
    assert [chunk_texts[c] for c in context_ids] == posted[0][::-1][:len(context_ids)]
    report = json.loads((tmp_path / "r" / "report_hybrid_jieba+CoT.json")
                        .read_text(encoding="utf-8"))
    assert report["provider_fallbacks"] == 0


def test_eval_loads_the_lexicon_and_hmm_once_for_both_indexes(workspace, tmp_path,
                                                             monkeypatch):
    from tcmrag import cli
    loads = []
    for name in ("load_lexicon", "load_hmm"):
        load = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda path, load=load: loads.append(path) or load(path))
    assert main(["--config", str(workspace["cfg"]), "--stub", "eval",
                 "--tasks", str(DATA / "tasks.jsonl"), "--mode", "naive_rag",
                 "--mode", "hybrid_jieba", "--chat", "echo_gold",
                 "--index-naive", str(workspace["naive"]),
                 "--index-hybrid", str(workspace["hybrid"]),
                 "--out", str(tmp_path / "r")]) == 0
    assert loads == [str(DATA / "lexicon.txt"), str(DATA / "hmm_model.json")]


def test_eval_missing_index_is_config_error(workspace, tmp_path, capsys):
    code = main(["--config", str(workspace["cfg"]), "--stub", "eval",
                 "--tasks", str(DATA / "tasks.jsonl"),
                 "--mode", "naive_rag",
                 "--out", str(tmp_path / "r")])
    assert code == 2
    assert "index directory is missing" in capsys.readouterr().err


def test_eval_default_mode_none_with_echo_gold(workspace, tmp_path, capsys):
    out = tmp_path / "r"
    code = main(["--config", str(workspace["cfg"]), "--stub", "eval",
                 "--tasks", str(DATA / "tasks.jsonl"),
                 "--chat", "echo_gold", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report_none.json").read_text(encoding="utf-8"))
    assert report["aggregate"] == pytest.approx(100.0)
    assert report["parse_failures"] == 0
