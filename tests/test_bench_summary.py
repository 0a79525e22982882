"""scripts/bench_summary.py: the summary of a committed BENCH file, from its runs."""
from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def bench_summary():
    spec = importlib.util.spec_from_file_location("bench_summary",
                                                  ROOT / "scripts" / "bench_summary.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def read_json(name):
    return json.loads((ROOT / name).read_text(encoding="utf-8"))


def test_reproduces_bench_31s_summary_and_unresolved_from_its_runs(bench_summary):
    doc = read_json("BENCH_31.json")
    summary, unresolved = bench_summary.summarize(doc["runs"],
                                                  read_json("BENCHMARK.json")["end_to_end"])
    assert summary == doc["summary"]
    assert unresolved == doc["unresolved"] == []


def test_reproduces_bench_28s_unresolved_metrics(bench_summary):
    doc = read_json("BENCH_28.json")
    _, unresolved = bench_summary.summarize(doc["runs"],
                                            read_json("BENCHMARK.json")["end_to_end"])
    assert unresolved == ["clinic query_p99_ms", "ablation query_p99_ms"]


def test_rewrites_the_file_in_place_keeping_its_other_keys(bench_summary, tmp_path):
    doc = read_json("BENCH_31.json")
    path = tmp_path / "BENCH.json"
    path.write_text(json.dumps({**doc, "summary": {}, "unresolved": None}), encoding="utf-8")
    assert bench_summary.main([str(path)]) == 0
    assert path.read_text(encoding="utf-8") == (ROOT / "BENCH_31.json").read_text(
        encoding="utf-8")
