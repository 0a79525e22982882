#!/usr/bin/env python3
"""Print the make-up of each workload's first-round inputs, as in README.md.

    python3 perfbench/describe.py --seed 1
"""
from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import bench_gen  # noqa: E402
from tcmrag.corpus import case_document  # noqa: E402
from tcmrag.engine import chunk_corpus  # noqa: E402
from tcmrag.segment import load_hmm, load_lexicon  # noqa: E402

_SENTENCE = re.compile(r"[^。！？；\n]+[。！？；]?")


def repeated_share(items: list[str]) -> float:
    """Share of occurrences whose text occurred earlier in the list."""
    return 1 - len(set(items)) / len(items) if items else 0.0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    lex = load_lexicon(ROOT / "data" / "lexicon.txt")
    hmm = load_hmm(ROOT / "data" / "hmm_model.json")
    lexicon_chars = {ch for word in lex.entries for ch in word}
    vocab = bench_gen.load_vocabulary(ROOT)
    for name, spec in bench_gen.WORKLOADS.items():
        inp = bench_gen.generate(name, args.seed, 0, vocab)
        docs = [case_document(c) for c in inp.cases]
        chunks = {s: len(chunk_corpus(inp.cases, s, lex, hmm))
                  for s in ("overlap_window", "token_chunk")}
        sentences = [s for d in docs for s in _SENTENCE.findall(d)]
        texts = [q.text for q in inp.queries if q.gold_case]
        cjk = [ch for t in texts for ch in t if "一" <= ch <= "鿿"]
        oov = sum(ch not in lexicon_chars for ch in cjk) / len(cjk)
        retrieved = texts + [t.case_text for t in inp.tasks for _ in range(4)]
        print(f"{name}: {len(inp.cases)} cases, {sum(map(len, docs))} chars "
              f"({sum(map(len, docs)) // len(docs)} per case), chunks "
              f"{chunks['overlap_window']} overlap_window / {chunks['token_chunk']} token_chunk; "
              f"{len(inp.queries)} queries ({len(inp.queries) - len(texts)} punctuation-only), "
              f"{len(inp.tasks)} tasks, {spec.min_rounds} rounds at least")
        print(f"  out-of-lexicon CJK chars in queries {oov:.1%}; malformed first replies "
              f"{sum(t.malformed_first for t in inp.tasks) / len(inp.tasks):.0%} of tasks; "
              f"repeated sentences in the library {repeated_share(sentences):.1%}; "
              f"repeated query texts {repeated_share(texts):.1%} in the stream, "
              f"{repeated_share(retrieved):.1%} with the eval's retrievals")


if __name__ == "__main__":
    main()
