"""Per-layer metrics of a traced run, derived from its spans.

Each round of a run does the same work, so counts are taken per round and
repeat exactly for a seed; a per-round time is the median over the rounds, and
a `_ms_p50` latency is the median over every span of that name in the run.
"""
from __future__ import annotations

import statistics

from bench_gen import OPENS
from bench_spans import SpanView

# (name, unit, better): the per-layer metrics, in BENCHMARK.json order.
PER_LAYER = (
    ("segment.cut_calls", "count", "lower"),
    ("segment.cut_s", "s", "lower"),
    ("segment.cut_chars_per_s", "chars/s", "higher"),
    ("segment.chars_cut_per_char_indexed", "ratio", "lower"),
    ("segment.cuts_per_query", "count", "lower"),
    ("corpus.chunk_s", "s", "lower"),
    ("engine.build_indexes_s", "s", "lower"),
    ("dense.embed_calls", "count", "lower"),
    ("dense.embed_s", "s", "lower"),
    ("dense.add_s", "s", "lower"),
    ("dense.save_s", "s", "lower"),
    ("dense.load_s", "s", "lower"),
    ("dense.file_mb", "MB", "lower"),
    ("dense.search_ms_p50", "ms", "lower"),
    ("dense.score_calls_per_query", "count", "lower"),
    ("sparse.add_s", "s", "lower"),
    ("sparse.save_s", "s", "lower"),
    ("sparse.load_s", "s", "lower"),
    ("sparse.file_mb", "MB", "lower"),
    ("sparse.search_ms_p50", "ms", "lower"),
    ("retrieve.first_stage_ms_p50", "ms", "lower"),
    ("retrieve.rerank_ms_p50", "ms", "lower"),
    ("retrieve.gold_in_pool", "ratio", "higher"),
    ("prompt.build_ms_p50", "ms", "lower"),
    ("prompt.parse_ms_p50", "ms", "lower"),
    ("prompt.blocks_dropped", "count", "lower"),
    ("llm.completions", "count", "lower"),
    ("llm.generate_ms_p50", "ms", "lower"),
    ("evalharness.run_eval_self_s", "s", "lower"),
    ("cli.open_index_s", "s", "lower"),
    ("cli.index_write_s", "s", "lower"),
)

# Children of `cmd_index` that do the build; the rest of its time writes the index.
_BUILD_STEPS = {"corpus.load_corpus", "segment.load_lexicon", "segment.load_hmm",
                "engine.make_tokenizer", "engine.chunk_corpus", "engine.build_indexes"}


def _keep_pool(tracer, args, kwargs, result) -> None:
    tracer.last["retrieve.first_stage"] = result


def _count_dropped(tracer, args, kwargs, result) -> None:
    given = kwargs.get("context_blocks") or (args[3] if len(args) > 3 else None) or []
    tracer.counts["prompt.blocks_dropped"] += len(given) - len(result.context_blocks)


HOOKS = {"retrieve.first_stage": _keep_pool, "prompt.build_prompt": _count_dropped}


def layer_metrics(journey, tracer, bounds) -> dict[str, tuple[float, str]]:
    kinds = journey.kinds

    def requests(pred) -> set[int]:
        return {i for i, kind in enumerate(kinds) if pred(kind)}

    queries = requests(lambda k: k == "query")
    opens = requests(lambda k: k == "open")
    tc_builds = requests(lambda k: k == "index:token_chunk")
    evals = requests(lambda k: k.startswith("eval:"))

    per_round: dict[str, list[float]] = {}
    pooled: dict[str, list[float]] = {}

    def put(name: str, value: float) -> None:
        per_round.setdefault(name, []).append(value)

    def pool(name: str, span: str, reqs: set[int], minus: set[str] | None = None) -> None:
        ids = view.ids(span, reqs)
        vals = [view.minus_children(i, minus) if minus else view.dur[i] for i in ids]
        pooled.setdefault(name, []).extend(vals)

    for lo, hi, counts in bounds:
        view = SpanView(tracer, lo, hi)
        cuts = view.ids("segment.cut")
        cut_s = sum(view.dur[i] for i in cuts)
        put("segment.cut_calls", len(cuts))
        put("segment.cut_s", cut_s)
        put("segment.cut_chars_per_s", sum(tracer.work[i] for i in cuts) / cut_s)
        put("segment.chars_cut_per_char_indexed",
            sum(tracer.work[i] for i in cuts if tracer.req[i] in tc_builds)
            / journey.doc_chars[len(per_round["segment.cut_calls"]) - 1])
        n_queries = len(view.ids("retrieve.two_stage_retrieve", queries))
        put("segment.cuts_per_query", len(view.ids("segment.cut", queries)) / n_queries)
        put("corpus.chunk_s", sum(view.minus_children(i, {"segment.cut"})
                                  for i in view.ids("engine.chunk_corpus")))
        put("engine.build_indexes_s", view.total("engine.build_indexes"))
        put("dense.embed_calls", len(view.ids("dense.embed")))
        put("dense.embed_s", sum(view.self_total(n) for n in (
            "dense.embed", "dense.StubEmbedProvider.embed_raw", "dense.stub_embed")))
        for layer, cls in (("dense", "VectorIndex"), ("sparse", "KeywordIndex")):
            adds = view.ids(f"{layer}.{cls}.add")
            put(f"{layer}.add_s", sum(view.dur[i] for i in adds
                                      if not view.has_parent(i, f"{layer}.{cls}.load")))
            put(f"{layer}.save_s", view.total(f"{layer}.{cls}.save"))
            put(f"{layer}.load_s", view.total(f"{layer}.{cls}.load", opens) / OPENS)
            pool(f"{layer}.search_ms_p50", f"{layer}.{cls}.search", queries)
        put("dense.score_calls_per_query",
            counts["dense.VectorIndex.score"] / len(view.ids("retrieve.first_stage")))
        put("prompt.blocks_dropped", counts["prompt.blocks_dropped"])
        put("llm.completions", len(view.ids("llm.complete")))
        put("evalharness.run_eval_self_s", view.self_total("evalharness.run_eval"))
        put("cli.index_write_s", sum(view.minus_children(i, _BUILD_STEPS)
                                     for i in view.ids("cli.cmd_index")))
        pool("retrieve.first_stage_ms_p50", "retrieve.first_stage", queries)
        pool("retrieve.rerank_ms_p50", "retrieve.rerank", queries)
        pool("prompt.build_ms_p50", "prompt.build_prompt", evals)
        pool("prompt.parse_ms_p50", "prompt.parse_answer", evals)
        pool("llm.generate_ms_p50", "llm.generate_answer", evals)
        pool("cli.open_index_s", "cli.cmd_query", opens, {"retrieve.two_stage_retrieve"})

    sizes = {"dense": 0, "sparse": 0}
    for d in journey.dirs(0).values():
        sizes["dense"] += (d / "vectors.bin").stat().st_size
        sizes["sparse"] += (d / "keywords.tsv").stat().st_size

    units = {name: unit for name, unit, _ in PER_LAYER}
    out: dict[str, tuple[float, str]] = {}
    for name, unit, _ in PER_LAYER:
        if name in per_round:
            out[name] = (statistics.median(per_round[name]), unit)
        elif name in pooled:
            scale = 1e3 if unit == "ms" else 1.0
            out[name] = (statistics.median(pooled[name]) * scale, unit)
    out["dense.file_mb"] = (sizes["dense"] / 1e6, units["dense.file_mb"])
    out["sparse.file_mb"] = (sizes["sparse"] / 1e6, units["sparse.file_mb"])
    out["retrieve.gold_in_pool"] = (sum(journey.gold_in_pool) / len(journey.gold_in_pool),
                                    units["retrieve.gold_in_pool"])
    return {name: out[name] for name, _, _ in PER_LAYER}
