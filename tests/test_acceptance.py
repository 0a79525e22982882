"""Acceptance suite: one test per shipped guarantee, each printing a PASS line.

Every test here is independent of the unit suites and re-derives its expected
values from brute force oracles, the shipped fixtures, or hand arithmetic.
"""
from __future__ import annotations

import itertools
import json
import random
import time
from pathlib import Path

import numpy as np
import pytest

from tcmrag.cli import main
from tcmrag.corpus import OVERLAP_WINDOW, TOKEN_CHUNK
from tcmrag.dense import StubEmbedProvider, VectorIndex, stub_embed
from tcmrag.engine import build_retriever, make_tokenizer
from tcmrag.evalharness import (MODE_HYBRID_JIEBA, MODE_NAIVE_RAG, MODE_NONE, RUN_MODES,
                                EvalDeps, RunConfig, echo_gold_provider, run_eval)
from tcmrag.prompt import COT_STEP_HEADERS, VARIANTS, build_prompt, parse_answer, serialize_answer
from tcmrag.retrieve import (DENSE_ONLY, HYBRID, SPARSE_ONLY, RetrievalCandidate,
                             RetrievalConfig, RetrieverDeps, rerank, two_stage_retrieve)
from tcmrag.segment import build_lexicon, cut
from tcmrag.sparse import KeywordIndex, iou_score

from test_segment import brute_force_cut, brute_force_viterbi

DATA = Path(__file__).resolve().parent.parent / "data"


def announce(n: int, text: str) -> None:
    print(f"criterion {n}: PASS - {text}")


# ---------------------------------------------------------------------------
# 1. Segmentation DP against exhaustive enumeration
# ---------------------------------------------------------------------------

def test_criterion_1_segmentation_dp_oracle():
    alphabet = "风寒湿火"
    rng = random.Random(101)
    words = set()
    while len(words) < 30:
        n = rng.choice([1, 1, 2, 2, 2, 3])
        words.add("".join(rng.choice(alphabet) for _ in range(n)))
    lex = build_lexicon([(w, rng.randint(1, 40)) for w in sorted(words)])

    started = time.monotonic()
    checked = 0
    for n in range(1, 7):  # exhaustive up to length 6
        for chars in itertools.product(alphabet, repeat=n):
            sentence = "".join(chars)
            got = [t for t, _ in cut(sentence, lex).tokens]
            assert got == brute_force_cut(sentence, lex), sentence
            checked += 1
    for _ in range(200):  # random longer sentences up to length 12
        n = rng.randint(7, 12)
        sentence = "".join(rng.choice(alphabet) for _ in range(n))
        got = [t for t, _ in cut(sentence, lex).tokens]
        assert got == brute_force_cut(sentence, lex), sentence
        checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"took {elapsed:.1f}s"
    announce(1, f"DP segmentation matches enumeration on {checked} sentences "
                f"({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 2. Viterbi against exhaustive path search
# ---------------------------------------------------------------------------

def test_criterion_2_viterbi_oracle(hmm):
    # Exhaustive over the full 6-char emission alphabet would mean ~2M fragments;
    # this checks every fragment up to length 4 and a seeded sample of longer ones.
    alphabet = "风寒暑湿燥火"
    rng = random.Random(202)
    started = time.monotonic()
    checked = 0
    for n in range(1, 5):
        for chars in itertools.product(alphabet, repeat=n):
            frag = "".join(chars)
            got = brute_force_viterbi(frag, hmm)
            from tcmrag.segment import viterbi
            assert [t for t, _ in viterbi(frag, hmm)] == got, frag
            checked += 1
    from tcmrag.segment import viterbi
    for _ in range(400):
        n = rng.randint(5, 8)
        frag = "".join(rng.choice(alphabet) for _ in range(n))
        assert [t for t, _ in viterbi(frag, hmm)] == brute_force_viterbi(frag, hmm), frag
        checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"took {elapsed:.1f}s"
    announce(2, f"Viterbi matches exhaustive BMES path search on {checked} fragments "
                f"({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 3. Sparse search against a brute-force IoU scan
# ---------------------------------------------------------------------------

def test_criterion_3_sparse_oracle():
    rng = random.Random(303)
    universe = [f"tok{i}" for i in range(30)]
    for trial in range(1000):
        docs = {f"d{i:02d}": set(rng.sample(universe, rng.randint(1, 6)))
                for i in range(rng.randint(1, 50))}
        index = KeywordIndex(docs.items())  # d00, d01, ...: in chunk_id order
        query = set(rng.sample(universe, rng.randint(1, 4)))
        n = rng.randint(1, 10)
        expected = sorted(((cid, iou_score(query, toks)) for cid, toks in docs.items()
                           if query & toks), key=lambda x: (-x[1], x[0]))[:n]
        got = index.search(query, n)
        assert [cid for cid, _ in got] == [cid for cid, _ in expected], trial
        for (_, a), (_, b) in zip(got, expected):
            assert abs(a - b) <= 1e-12
    announce(3, "keyword search matches the brute-force IoU scan on 1000 random corpora")


# ---------------------------------------------------------------------------
# 4. Dense search against a naive full-sort cosine oracle
# ---------------------------------------------------------------------------

def test_criterion_4_dense_oracle():
    rng = np.random.default_rng(404)
    pyrng = random.Random(404)
    for trial in range(1000):
        m = pyrng.randint(1, 200)
        mat = rng.standard_normal((m, 32))
        mat /= np.linalg.norm(mat, axis=1, keepdims=True)
        ids = [f"v{i:03d}" for i in range(m)]
        index = VectorIndex(ids, mat)
        q = rng.standard_normal(32)
        q /= np.linalg.norm(q)
        n = pyrng.randint(1, 10)
        scores = mat @ q
        expected = sorted(zip(ids, scores), key=lambda x: (-x[1], x[0]))[:n]
        got = index.search(q, n)
        assert [cid for cid, _ in got] == [cid for cid, _ in expected], trial
        for (_, a), (_, b) in zip(got, expected):
            assert abs(a - b) <= 1e-9
    announce(4, "flat cosine search matches the naive full-sort oracle on 1000 indexes")


# ---------------------------------------------------------------------------
# 5. Planted-document retrieval on the shipped synthetic corpus
# ---------------------------------------------------------------------------

def test_criterion_5_planted_retrieval(planted):
    dim = planted["dim"]
    tokenize = lambda text: set(text.split())
    embedder = StubEmbedProvider(tokenize=tokenize, dim=dim)
    texts = {chunk["chunk_id"]: chunk["text"] for chunk in planted["chunks"]}
    ids = sorted(texts)
    dense_index = VectorIndex(ids, np.array([stub_embed(tokenize(texts[cid]), dim)
                                             for cid in ids]))
    kw_index = KeywordIndex((cid, tokenize(texts[cid])) for cid in ids)
    deps = RetrieverDeps(tokenize=tokenize, embedder=embedder, dense_index=dense_index,
                         kw_index=kw_index, chunk_texts=texts)

    def recall(queries, mode):
        hits = 0
        cfg = RetrievalConfig(n_dense=50, n_sparse=50, top_k=5, alpha=0.5, mode=mode)
        for q in queries:
            result = two_stage_retrieve(q["text"], deps, cfg)
            hits += any(c.chunk_id == q["target"] for c in result.candidates)
        return hits / len(queries)

    sparse_qs = [q for q in planted["queries"] if q["kind"] == "sparse"]
    dense_qs = [q for q in planted["queries"] if q["kind"] == "dense"]
    assert len(sparse_qs) == 50 and len(dense_qs) == 50

    r_sparse = recall(sparse_qs, SPARSE_ONLY)
    assert r_sparse == 1.0
    r_dense = recall(dense_qs, DENSE_ONLY)
    assert r_dense >= 0.9
    all_qs = planted["queries"]
    r_hybrid = recall(all_qs, HYBRID)
    r_sparse_all = recall(all_qs, SPARSE_ONLY)
    r_dense_all = recall(all_qs, DENSE_ONLY)
    assert r_hybrid >= max(r_sparse_all, r_dense_all)
    announce(5, f"planted recall@5: sparse {r_sparse:.0%}, dense {r_dense:.0%}, "
                f"hybrid {r_hybrid:.0%} >= max single mode "
                f"({max(r_sparse_all, r_dense_all):.0%})")


# ---------------------------------------------------------------------------
# 6. Fusion algebra
# ---------------------------------------------------------------------------

def test_criterion_6_fusion_algebra():
    rng = random.Random(606)
    tokenize = lambda text: set(text.split())
    embedder = StubEmbedProvider(tokenize=tokenize, dim=64)
    deps = RetrieverDeps(tokenize=tokenize, embedder=embedder, dense_index=VectorIndex([], np.empty((0, 0))),
                         kw_index=KeywordIndex([]), chunk_texts={})
    for trial in range(200):
        pool = [RetrievalCandidate(chunk_id=f"c{i:02d}", dense_score=rng.random(),
                                   sparse_score=rng.random())
                for i in range(rng.randint(1, 30))]
        dense_order = [c.chunk_id for c in
                       sorted(pool, key=lambda c: (-c.dense_score, c.chunk_id))]
        sparse_order = [c.chunk_id for c in
                        sorted(pool, key=lambda c: (-c.sparse_score, c.chunk_id))]
        ranked, _ = rerank("q", pool, deps, RetrievalConfig(alpha=1.0))
        assert [c.chunk_id for c in ranked] == dense_order
        ranked, _ = rerank("q", pool, deps, RetrievalConfig(alpha=0.0))
        assert [c.chunk_id for c in ranked] == sparse_order
        alpha = rng.random()
        ranked, _ = rerank("q", pool, deps, RetrievalConfig(alpha=alpha))
        for cand in ranked:
            expected = alpha * cand.dense_score + (1.0 - alpha) * cand.sparse_score
            assert abs(cand.rerank_score - expected) <= 1e-12
    announce(6, "fallback rerank reproduces single-mode orders at alpha extremes and "
                "exact linear fusion everywhere")


# ---------------------------------------------------------------------------
# 7. Prompt invariants over the full fixture
# ---------------------------------------------------------------------------

def test_criterion_7_prompt_invariants(task_items, templates, sample_cases, lexicon, hmm):
    from tcmrag.corpus import render_demonstration
    from tcmrag.retrieve import parent_case_id

    tokenize = make_tokenizer(lexicon, hmm)
    embedder = StubEmbedProvider(tokenize=tokenize)
    rdeps = build_retriever(sample_cases, TOKEN_CHUNK, lexicon, embedder, hmm)
    corpus = {c.case_id: c for c in sample_cases}
    chat = echo_gold_provider(task_items)
    rcfg = RetrievalConfig(top_k=3)

    prompts = 0
    for item in task_items:
        retrieved = two_stage_retrieve(item.case_text, rdeps, rcfg)
        blocks = [(c.chunk_id, rdeps.chunk_texts[c.chunk_id]) for c in retrieved.candidates]
        demo = None
        if retrieved.candidates:
            demo = render_demonstration(corpus[parent_case_id(retrieved.candidates[0].chunk_id)])
        for variant in VARIANTS:
            kwargs = {}
            if variant in ("rag", "rag_cot"):
                kwargs = {"context_blocks": blocks, "demonstration": demo}
            bundle = build_prompt(item, variant, templates, **kwargs)
            prompts += 1
            for opt in item.pathogenesis_options + item.syndrome_options:
                count = bundle.user_text.count(opt)
                assert count == 1, (item.item_id, variant, opt, count)
                assert opt not in bundle.system_text
            if variant in ("cot", "rag_cot"):
                positions = [bundle.user_text.index(h) for h in COT_STEP_HEADERS]
                assert positions == sorted(positions)
            else:
                for header in COT_STEP_HEADERS:
                    assert header not in bundle.user_text

        # option containment and lossless round-trip on a parsed answer
        raw = chat.fn([("system", templates.system_text), ("user", item.case_text)])
        answer, warnings = parse_answer(raw, item)
        assert warnings == []
        assert set(answer.pathogenesis) <= set(item.pathogenesis_options)
        assert set(answer.syndromes) <= set(item.syndrome_options)
        again, _ = parse_answer(serialize_answer(answer), item)
        assert again == answer
    announce(7, f"option strings appear exactly once across {prompts} prompts; CoT "
                f"headers ordered; answers option-contained and round-trip lossless")


# ---------------------------------------------------------------------------
# 8. End-to-end determinism of the eval command
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def cli_workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance")
    cfg = root / "app.cfg"
    cfg.write_text(
        f"corpus = {DATA / 'sample_corpus.jsonl'}\n"
        f"lexicon = {DATA / 'lexicon.txt'}\n"
        f"hmm = {DATA / 'hmm_model.json'}\n"
        f"templates = {DATA / 'templates'}\n", encoding="utf-8")
    naive = root / "idx_naive"
    hybrid = root / "idx_hybrid"
    assert main(["--config", str(cfg), "--stub", "index",
                 "--strategy", OVERLAP_WINDOW, "--out", str(naive)]) == 0
    assert main(["--config", str(cfg), "--stub", "index",
                 "--strategy", TOKEN_CHUNK, "--out", str(hybrid)]) == 0
    return {"cfg": cfg, "naive": naive, "hybrid": hybrid, "root": root}


def run_cli_eval(ws, out: Path, chat: str) -> int:
    return main(["--config", str(ws["cfg"]), "--stub", "eval",
                 "--tasks", str(DATA / "tasks.jsonl"),
                 "--mode", "none", "--mode", "naive_rag", "--mode", "hybrid_jieba",
                 "--chat", chat,
                 "--index-naive", str(ws["naive"]), "--index-hybrid", str(ws["hybrid"]),
                 "--out", str(out)])


REPORT_FILES = ("report_none.json", "report_naive_rag.json", "report_hybrid_jieba.json",
                "comparison.txt", "comparison.json")


def test_criterion_8_end_to_end_determinism(cli_workspace):
    ws = cli_workspace
    out1 = ws["root"] / "echo1"
    out2 = ws["root"] / "echo2"
    assert run_cli_eval(ws, out1, "echo_gold") == 0
    assert run_cli_eval(ws, out2, "echo_gold") == 0
    for name in REPORT_FILES:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    for name in REPORT_FILES[:3]:
        report = json.loads((out1 / name).read_text(encoding="utf-8"))
        assert report["aggregate"] == pytest.approx(100.0), name

    out3 = ws["root"] / "empty"
    assert run_cli_eval(ws, out3, "empty") == 0
    for name in REPORT_FILES[:3]:
        report = json.loads((out3 / name).read_text(encoding="utf-8"))
        assert report["aggregate"] == pytest.approx(0.0), name
    announce(8, "repeated eval runs are byte-identical; echo-gold scores 100.0 and the "
                "empty mock 0.0 in all three modes")


# ---------------------------------------------------------------------------
# 9. Retrieval-quality ordering with the retrieval-sensitive mock
# ---------------------------------------------------------------------------

def test_criterion_9_ablation_ordering(cli_workspace):
    ws = cli_workspace
    started = time.monotonic()
    out = ws["root"] / "sensitive"
    assert run_cli_eval(ws, out, "retrieval_sensitive") == 0
    rows = json.loads((out / "comparison.json").read_text(encoding="utf-8"))
    agg = {r["label"]: r["aggregate"] for r in rows}
    assert agg["hybrid_jieba"] >= agg["naive_rag"] >= agg["none"]
    assert agg["hybrid_jieba"] > agg["none"]
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    announce(9, f"retrieval-sensitive mock: hybrid_jieba {agg['hybrid_jieba']:.2f} >= "
                f"naive_rag {agg['naive_rag']:.2f} >= none {agg['none']:.2f} "
                f"({elapsed:.1f}s)")
