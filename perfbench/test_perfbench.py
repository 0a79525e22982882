"""Tests of the benchmark itself: input determinism, the oracles and the guard.

Run from the repository root: `PYTHONPATH=src python -m pytest perfbench -q`.
"""
from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import bench_gen  # noqa: E402
import bench_oracle as orc  # noqa: E402
from bench_gen import Task  # noqa: E402
from tcmrag.dense import StubEmbedProvider  # noqa: E402
from tcmrag.engine import build_indexes, make_tokenizer  # noqa: E402
from tcmrag.corpus import Chunk  # noqa: E402
from tcmrag.retrieve import RetrievalConfig, RetrieverDeps, two_stage_retrieve  # noqa: E402
from tcmrag.segment import load_hmm, load_lexicon  # noqa: E402


@pytest.fixture(scope="module")
def vocab():
    return bench_gen.load_vocabulary(ROOT)


@pytest.fixture(scope="module")
def lexicon():
    return load_lexicon(ROOT / "data" / "lexicon.txt"), load_hmm(ROOT / "data" / "hmm_model.json")


@pytest.mark.parametrize("workload", sorted(bench_gen.WORKLOADS))
def test_same_seed_same_bytes_other_seed_other_inputs(workload, vocab):
    a = bench_gen.generate(workload, 3, 0, vocab).to_json()
    assert a == bench_gen.generate(workload, 3, 0, vocab).to_json()
    assert a != bench_gen.generate(workload, 4, 0, vocab).to_json()
    assert a != bench_gen.generate(workload, 3, 1, vocab).to_json()


def test_clinic_fails_one_query_per_hundred_whatever_the_seed(vocab):
    for seed in (1, 2):
        queries = bench_gen.generate("clinic", seed, 0, vocab).queries
        punct = [i for i, q in enumerate(queries) if q.gold_case is None]
        assert punct == list(range(50, len(queries), 100))
        assert all(q.text in bench_gen.PUNCT_QUERIES for q in queries if q.gold_case is None)


# A hand-worked example. ASCII words are single tokens and spaces are dropped,
# so the token sets are: query {alpha, beta}; a {alpha, beta}; b {alpha, gamma};
# c {delta}. The four tokens fall in distinct hash buckets (checked below), so
#   cosine:  a 1,   b 1/2 (one shared of two each),  c 0
#   Jaccard: a 1,   b 1/3,                           c 0
#   fused (alpha 0.5): a 1, b 0.25 + 1/6 = 5/12, c 0.
THREE = {"d#a": "alpha beta", "d#b": "alpha gamma", "d#c": "delta"}
WANT = [("d#a", 1.0), ("d#b", 5 / 12), ("d#c", 0.0)]


def test_fnv1a_known_values():
    assert orc.fnv1a64(b"") == 0xCBF29CE484222325
    assert orc.fnv1a64(b"a") == 0xAF63DC4C8601EC8C


def test_brute_force_matches_hand_worked_three_chunks(lexicon):
    lex, hmm = lexicon
    words = ("alpha", "beta", "gamma", "delta")
    assert len({orc.fnv1a64(w.encode()) % 256 for w in words}) == 4
    got, fused, pool = orc.BruteForce(THREE, lex, hmm, 256).retrieve(
        "alpha beta", "hybrid", 50, 50, 0.5, 3)
    assert [cid for cid, _ in got] == [cid for cid, _ in WANT]
    for (_, score), (_, want) in zip(got, WANT):
        assert score == pytest.approx(want, abs=1e-12)
    assert pool == set(THREE)


def test_program_agrees_with_brute_force_on_three_chunks(lexicon):
    lex, hmm = lexicon
    tokenize = make_tokenizer(lex, hmm)
    embedder = StubEmbedProvider(tokenize=tokenize)
    chunks = [Chunk(chunk_id=cid, case_id="d", text=text, char_span=(0, len(text)),
                    strategy="token_chunk") for cid, text in THREE.items()]
    dense_index, kw_index = build_indexes(chunks, tokenize, embedder)
    deps = RetrieverDeps(tokenize=tokenize, embedder=embedder, dense_index=dense_index,
                         kw_index=kw_index, chunk_texts=dict(THREE))
    res = two_stage_retrieve("alpha beta", deps, RetrievalConfig(top_k=3))
    want, fused, pool = orc.BruteForce(THREE, lex, hmm, 256).retrieve(
        "alpha beta", "hybrid", 50, 50, 0.5, 3)
    orc.check_ranking([(c.chunk_id, c.rerank_score) for c in res.candidates], want, fused,
                      pool, "three chunks")


def test_planted_wrong_results_fail_the_check():
    fused = dict(WANT)
    pool = set(fused)
    orc.check_ranking(list(WANT), WANT, fused, pool, "as computed")
    with pytest.raises(orc.CheckError):   # top two ids swapped
        orc.check_ranking([WANT[1], WANT[0], WANT[2]], WANT, fused, pool, "swapped")
    with pytest.raises(orc.CheckError):   # ids right, a score off by more than 1e-9
        orc.check_ranking([WANT[0], ("d#b", 5 / 12 + 1e-6), WANT[2]], WANT, fused, pool, "score")
    with pytest.raises(orc.CheckError):   # a result missing
        orc.check_ranking(WANT[:2], WANT, fused, pool, "short")


def test_tied_scores_may_come_in_either_order():
    tied = [("x#0", 0.5), ("x#1", 0.5 + 1e-12), ("x#2", 0.1)]
    fused = dict(tied)
    orc.check_ranking([tied[1], tied[0], tied[2]], tied, fused, set(fused), "tie")


def test_lossless_check_catches_a_gap_and_a_wrong_token():
    orc.check_lossless("舌红苔黄", [("舌红", (0, 2)), ("苔黄", (2, 4))])
    with pytest.raises(orc.CheckError):
        orc.check_lossless("舌红苔黄", [("舌红", (0, 2)), ("黄", (3, 4))])
    with pytest.raises(orc.CheckError):
        orc.check_lossless("舌红苔黄", [("舌红", (0, 2)), ("苔白", (2, 4))])


def _task(item_id: str, malformed: bool) -> Task:
    return Task(item_id=item_id, case_text=item_id, pathogenesis_options=["甲", "乙"],
                syndrome_options=["丙", "丁"], gold_pathogenesis=["甲"], gold_syndromes=["丙"],
                gold_case="c", malformed_first=malformed)


def test_ablation_properties_catch_planted_faults():
    tasks = [_task("t0", True), _task("t1", False)]
    gold = '{"pathogenesis": ["甲"], "syndromes": ["丙"]}'
    empty = '{"pathogenesis": [], "syndromes": []}'
    reports = {
        "none": {"aggregate": 0.0, "parse_failures": 0,
                 "items": [{"item_id": "t0", "answer": empty}, {"item_id": "t1", "answer": empty}]},
        "hybrid_jieba": {"aggregate": 50.0, "parse_failures": 0,
                         "items": [{"item_id": "t0", "answer": gold},
                                   {"item_id": "t1", "answer": empty}]},
    }
    cited = {"none": {"t0": False, "t1": False}, "hybrid_jieba": {"t0": True, "t1": False}}
    orc.check_ablation(reports, tasks, cited, completions=2 * (2 + 1))
    with pytest.raises(orc.CheckError):   # the repair retry did not run
        orc.check_ablation(reports, tasks, cited, completions=2 * 2)
    with pytest.raises(orc.CheckError):   # score disagrees with what reached the prompt
        orc.check_ablation(reports, tasks, {**cited, "hybrid_jieba": {"t0": True, "t1": True}},
                           completions=6)
    reports["hybrid_jieba"]["items"][0]["answer"] = '{"pathogenesis": ["戊"], "syndromes": []}'
    with pytest.raises(orc.CheckError):   # a label outside the options
        orc.check_ablation(reports, tasks, cited, completions=6)


def test_refuses_to_run_outside_a_checkout(tmp_path):
    bench = tmp_path / "perfbench"
    shutil.copytree(HERE, bench, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "clinic",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "not a tcmrag checkout" in proc.stderr
