#!/usr/bin/env python3
"""Digests of retrieval outputs, to show that a change leaves them bit-identical.

    python3 scripts/identity_digests.py > digests.json
    python3 scripts/identity_digests.py --workloads clinic --queries 100

Run it in the parent's checkout and in the change's, then compare the two JSON objects:
equal digests mean equal pools and top 3, every score to the last bit. The inputs are
perfbench's seed-1 round-0 cases and stream queries (perfbench/bench_gen.py), indexed
with both chunking strategies and the stub embedder at the default settings. For each
workload x strategy x index x mode x call, the digest covers the first `--queries`
stream queries, each run in that mode whatever mode the stream gives it:

- index: `mem`, the indexes as the build returns them, or `load`, the same indexes saved
  and loaded back;
- call: `first`, each query searching an index no search has touched yet, or `again`,
  each query searching one index that has answered every query before, through a
  RetrieverDeps of its own so that no pool is remembered. With a float32 prefilter made
  only from an index's second search, `first` takes the float64 scan of every row and
  `again` the prefilter wherever the index is large enough to prefilter;
- `pool`, the first stage: one line per query, `chunk_id dense.hex sparse.hex` per
  candidate, `|` between candidates; `top3`, `two_stage_retrieve`'s result over that
  pool, each candidate with its rerank score's hex too, then its warnings.

Each digest is the first 16 hex digits of the sha256 of those lines. The output is one
JSON object, keys sorted: `workload/strategy/index/mode/call/pool|top3` -> digest. It
reads only public interfaces of the package and changes no file.
"""
from __future__ import annotations

import argparse
import copy
import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import bench_gen  # noqa: E402
from tcmrag import corpus, dense, engine, retrieve, segment, sparse  # noqa: E402

WORKLOADS = ("ablation", "library", "clinic")
STRATEGIES = (corpus.OVERLAP_WINDOW, corpus.TOKEN_CHUNK)
SEED, ROUND = 1, 0


def _line(candidates, *fields: str) -> str:
    return "|".join(" ".join([c.chunk_id] + [getattr(c, f).hex() for f in fields])
                    for c in candidates)


class _Digest:
    def __init__(self) -> None:
        self._pool, self._top3 = hashlib.sha256(), hashlib.sha256()

    def add(self, text: str, deps: retrieve.RetrieverDeps, cfg: retrieve.RetrievalConfig):
        """One query's pool and top 3. The pool's search goes first; the top 3 is ranked
        from the pool the same deps remembers."""
        pool = retrieve.first_stage(text, deps, cfg)
        self._pool.update((_line(pool, "dense_score", "sparse_score") + "\n").encode())
        result = retrieve.two_stage_retrieve(text, deps, cfg)
        top3 = _line(result.candidates, "dense_score", "sparse_score", "rerank_score")
        self._top3.update((json.dumps([top3, result.warnings], ensure_ascii=False)
                           + "\n").encode())

    def digests(self) -> dict[str, str]:
        return {"pool": self._pool.hexdigest()[:16], "top3": self._top3.hexdigest()[:16]}


def workload_digests(workload: str, queries: int, tmp: Path) -> dict[str, str]:
    data = ROOT / "data"
    lex = segment.load_lexicon(data / "lexicon.txt")
    hmm = segment.load_hmm(data / "hmm_model.json")
    inp = bench_gen.generate(workload, SEED, ROUND, bench_gen.load_vocabulary(ROOT))
    texts = [q.text for q in inp.queries[:queries]]
    tokenize = engine.make_tokenizer(lex, hmm)
    embedder = dense.StubEmbedProvider(tokenize=tokenize)
    out: dict[str, str] = {}
    for strategy in STRATEGIES:
        chunks = engine.chunk_corpus(inp.cases, strategy, lex, hmm)
        chunk_texts = {c.chunk_id: c.text for c in chunks}
        built = engine.build_indexes(chunks, tokenize, embedder)
        saved = tmp / workload / strategy
        saved.mkdir(parents=True)
        built[0].save(saved / "vectors.bin")
        built[1].save(saved / "keywords.bin")
        loaded = (dense.VectorIndex.load(saved / "vectors.bin"),
                  sparse.KeywordIndex.load(saved / "keywords.bin"))
        for where, (vectors, keywords) in (("mem", built), ("load", loaded)):
            def deps(index: dense.VectorIndex) -> retrieve.RetrieverDeps:
                return retrieve.RetrieverDeps(tokenize=tokenize, embedder=embedder,
                                              dense_index=index, kw_index=keywords,
                                              chunk_texts=chunk_texts)
            for mode in retrieve.MODES:
                cfg = retrieve.RetrievalConfig(mode=mode)
                first, again = _Digest(), _Digest()
                for text in texts:  # a shallow copy of an unsearched index is unsearched
                    first.add(text, deps(copy.copy(vectors)), cfg)
                warm = copy.copy(vectors)
                warm_deps = deps(warm)
                for text in texts:
                    retrieve.first_stage(text, warm_deps, cfg)
                again_deps = deps(warm)
                for text in texts:
                    again.add(text, again_deps, cfg)
                for call, digest in (("first", first), ("again", again)):
                    for part, value in digest.digests().items():
                        out[f"{workload}/{strategy}/{where}/{mode}/{call}/{part}"] = value
    return out


def digests(workloads=WORKLOADS, queries: int = 300) -> dict[str, str]:
    with tempfile.TemporaryDirectory(prefix="identity-") as tmp:
        out: dict[str, str] = {}
        for workload in workloads:
            out.update(workload_digests(workload, queries, Path(tmp)))
    return dict(sorted(out.items()))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    ap.add_argument("--queries", type=int, default=300,
                    help="stream queries per workload, from the first (default 300)")
    args = ap.parse_args(argv)
    json.dump(digests(args.workloads, args.queries), sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
