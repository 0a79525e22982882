#!/usr/bin/env python3
"""tcmrag benchmark: index build, cold query sessions, a query stream and the ablation.

Run from the root of a checkout:

    python3 perfbench/run.py --workload clinic --seed 1 --seconds 20 --trace 0

Every round of a run walks the whole user journey in order on fresh inputs: it
builds both indexes through the `index` subcommand (overlap_window for naive
RAG, token_chunk for the hybrid), pays the cold start of `query` on both,
serves the query stream with one closed-loop client, and runs the six ablation
runs (none / naive_rag / hybrid_jieba x base / CoT) with a retrieval-driven
chat mock. Rounds repeat, whole, until `--seconds` have passed and the
workload's minimum number of rounds is done. The first round's outputs are
checked against independent computations (see bench_oracle.py).

The last line of standard output is one JSON object: the end-to-end metrics
with `--trace 0`, the per-layer metrics of a traced run with `--trace 1`.
A failed check exits 1 and names the workload on standard error.
"""
from __future__ import annotations

import os

# One BLAS thread: the run is a single closed-loop client.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
# Timed units count this thread's CPU time. The program is CPU-bound, and on a
# shared host the wall clock also counts the milliseconds the process sits
# preempted, which would make every tail a measure of the neighbours.
clock = time.thread_time
NEEDED = ("src/tcmrag/cli.py", "scripts/make_fixtures.py", "data/lexicon.txt",
          "data/hmm_model.json", "data/templates/system.txt")
OUT = ROOT / ".perfbench"

OW, TC = "overlap_window", "token_chunk"
K = 3                  # top-k, as `query --k 3` and the eval config default
BLOCK = 200            # consecutive retrievals per host speed probe
CHECKED_QUERIES = 40   # first-round stream queries checked against the brute force
REOPEN_QUERIES = 20    # queries compared between in-memory and reopened indexes
REOPEN_MODES = {OW: "dense_only", TC: "hybrid"}   # how `query` uses each index
MB = 1e6

_CASE = re.compile(r"【病案 CASE】\n(.*?)\n\n【", re.S)
_MALFORMED = "好的，我来分析这个病案：证属待定，病机待查。"
_EMPTY = json.dumps({"clinical_features": [], "pathogenesis": [], "syndromes": [],
                     "reasoning": "无法判断。"}, ensure_ascii=False)


def texts_digest(texts: dict[str, str]) -> str:
    return hashlib.sha256(json.dumps(sorted(texts.items())).encode()).hexdigest()


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


class AblationChat:
    """Retrieval-driven chat mock, as `retrieval_sensitive` answers.

    It answers an item's gold labels, plus one label outside the options that
    the parser must drop, when a chunk of the item's gold case is cited in the
    prompt context, and empty lists otherwise. The first reply to every
    `malformed_first` item holds no JSON, so the one repair retry runs; the
    repair is answered from the original prompt.
    """

    def __init__(self, tasks) -> None:
        from bench_oracle import cited_cases
        self.cited_cases = cited_cases
        self.tasks = {t.case_text: t for t in tasks}
        self.completions = 0
        self.label = ""
        self.cited: dict[str, dict[str, bool]] = {}

    def send(self, messages, params):
        self.completions += 1
        user = messages[1][1]
        task = self.tasks[_CASE.search(user).group(1)]
        seen = self.cited.setdefault(self.label, {})
        if len(messages) == 2:
            seen[task.item_id] = task.gold_case in self.cited_cases(user)
            if task.malformed_first:
                return _MALFORMED, "stop"
        if not seen[task.item_id]:
            return _EMPTY, "stop"
        return json.dumps({"clinical_features": ["依据病案提取的特征"],
                           "pathogenesis": task.gold_pathogenesis,
                           "syndromes": task.gold_syndromes + ["未列证型"],
                           "reasoning": "按步骤推理得出。"}, ensure_ascii=False), "stop"


class Journey:
    """One workload run: its rounds, timing samples and first-round outputs."""

    def __init__(self, workload: str, seed: int, work: Path, tracer=None) -> None:
        import bench_gen
        from bench_speed import HostSpeed
        from tcmrag import segment
        self.workload, self.seed, self.work, self.tracer = workload, seed, work, tracer
        self.speed = HostSpeed()
        self.spec = bench_gen.WORKLOADS[workload]
        self.vocab = bench_gen.load_vocabulary(ROOT)
        data = ROOT / "data"
        self.templates_dir = data / "templates"
        self.cfg = work / "app.cfg"
        self.cfg.write_text(f"lexicon = {data / 'lexicon.txt'}\nhmm = {data / 'hmm_model.json'}\n"
                            f"templates = {self.templates_dir}\n", encoding="utf-8")
        self.lex = segment.load_lexicon(data / "lexicon.txt")
        self.hmm = segment.load_hmm(data / "hmm_model.json")
        self.kinds: list[str] = ["run"]   # request id -> what the request was
        self.round_no = 0
        self.attempted = 0
        self.failed = 0
        # Timing samples are CPU seconds, scaled at the end; see bench_speed.py.
        self.doc_chars: list[int] = []                # per round
        self.builds: list[tuple] = []     # per index command: chars, seconds
        self.sessions: list[float] = []   # per cold session
        self.queries: list[float] = []    # per retrieval
        self.evals: list[tuple] = []      # per eval run: items, seconds
        self.gold_hits: list[bool] = []               # first min_rounds rounds
        self.gold_in_pool: list[bool] = []
        self.first = None                             # first round's inputs
        self.checked: list[tuple] = []                # first round: (query, results)
        self.cli_answers: dict[str, str] = {}

    # -- helpers -----------------------------------------------------------
    @contextlib.contextmanager
    def untraced(self):
        """Checks inside a round leave no spans."""
        if self.tracer is None:
            yield
            return
        self.tracer.uninstall()
        try:
            yield
        finally:
            self.tracer.install()

    def sampling(self):
        """Timer probes inside long units; off when tracing, so spans hold no probe time."""
        return self.speed.sampling() if self.tracer is None else contextlib.nullcontext()

    def started(self) -> tuple[float, float]:
        return clock(), self.speed.injected

    def cpu_since(self, start: tuple[float, float]) -> float:
        """CPU seconds since `start`, less the probes the timer ran meanwhile."""
        t0, injected = start
        return clock() - t0 - (self.speed.injected - injected)

    def request(self, kind: str) -> None:
        if self.tracer is not None:
            self.tracer.request = len(self.kinds)
        self.kinds.append(kind)

    def tcmrag(self, *argv: str) -> str:
        """One `tcmrag --stub` command in this process; its standard output."""
        from tcmrag import cli
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["--config", str(self.cfg), "--stub", *argv])
        if code != 0:
            raise RuntimeError(f"tcmrag {argv[0]} exited with {code}")
        return buf.getvalue()

    def dirs(self, round_no: int) -> dict[str, Path]:
        return {OW: self.work / f"r{round_no}" / "idx_naive",
                TC: self.work / f"r{round_no}" / "idx_hybrid"}

    def open_deps(self, d: Path):
        """Open a persisted index the way `query` and `eval` do."""
        from tcmrag import cli, corpus, dense, engine, retrieve, sparse
        meta = json.loads((d / cli.META_FILE).read_text(encoding="utf-8"))
        tokenize = engine.make_tokenizer(self.lex, self.hmm)
        return retrieve.RetrieverDeps(
            tokenize=tokenize,
            embedder=dense.StubEmbedProvider(tokenize=tokenize, dim=meta["dim"]),
            dense_index=dense.VectorIndex.load(d / cli.VECTORS_FILE),
            kw_index=sparse.KeywordIndex.load(d / cli.KEYWORDS_FILE),
            chunk_texts={c.chunk_id: c.text for c in corpus.load_chunks(d / cli.CHUNKS_FILE)})

    # -- one round of the journey -------------------------------------------
    def round(self) -> None:
        import bench_gen
        from tcmrag import corpus, evalharness
        r = self.round_no
        inp = bench_gen.generate(self.workload, self.seed, r, self.vocab)
        rdir = self.work / f"r{r}"
        rdir.mkdir()
        corpus_path = rdir / "corpus.jsonl"
        corpus.save_corpus(inp.cases, corpus_path)
        tasks_path = rdir / "tasks.jsonl"
        with open(tasks_path, "w", encoding="utf-8") as fh:
            for t in inp.tasks:
                rec = {k: getattr(t, k) for k in ("item_id", "case_text", "pathogenesis_options",
                                                  "syndrome_options", "gold_pathogenesis",
                                                  "gold_syndromes")}
                fh.write(json.dumps(rec, ensure_ascii=False) + "\n")
        items = evalharness.load_tasks(tasks_path)
        self.doc_chars.append(sum(len(corpus.case_document(c)) for c in inp.cases))
        dirs = self.dirs(r)

        live = self.build(inp, corpus_path, dirs, capture=r == 0)
        templates = self.cold_sessions(inp, dirs, r == 0)
        deps = {s: self.open_deps(d) for s, d in dirs.items()}
        if r == 0:
            self.first = inp
            with self.untraced():
                self.check_reopen(inp, live, deps)
        self.stream(inp, deps, r)
        self.ablation(inp, items, deps, templates, rdir, r == 0)
        if r > 0:   # the first round's files stay for the checks at the end
            shutil.rmtree(rdir)
        self.round_no += 1

    def build(self, inp, corpus_path: Path, dirs, capture: bool) -> dict:
        """The `index` path for both strategies.

        On request, each in-memory index the build returned answers the reopen
        queries right after its command and is dropped before the next build,
        so that no second copy of an index raises the peak memory.
        """
        from tcmrag import cli
        built: dict = {}
        live: dict = {}

        def keep(chunks, tokenize, embedder):
            indexes = build_indexes(chunks, tokenize, embedder)
            built[chunks[0].strategy] = (indexes, {c.chunk_id: c.text for c in chunks},
                                         tokenize, embedder)
            return indexes

        self.speed.tick()
        with self.sampling():
            for strategy in (OW, TC):
                # bound per command: a paused tracer re-binds cli.build_indexes on resuming
                build_indexes = cli.build_indexes
                if capture:
                    cli.build_indexes = keep
                self.request(f"index:{strategy}")
                start = self.started()
                try:
                    self.tcmrag("index", "--strategy", strategy, "--out", str(dirs[strategy]),
                                "--corpus", str(corpus_path))
                finally:
                    cli.build_indexes = build_indexes
                self.builds.append((self.doc_chars[-1], self.cpu_since(start)))
                self.speed.tick()
                self.attempted += 1
                if capture:
                    with self.untraced():
                        live[strategy] = self.live_answers(inp, strategy, *built.pop(strategy))
        return live

    def live_answers(self, inp, strategy: str, indexes, texts, tokenize, embedder) -> tuple:
        """An in-memory index's chunk-text digest and answers to the reopen queries."""
        from tcmrag import retrieve
        dense_index, kw_index = indexes
        live = retrieve.RetrieverDeps(tokenize=tokenize, embedder=embedder,
                                      dense_index=dense_index, kw_index=kw_index,
                                      chunk_texts=texts)
        cfg = retrieve.RetrievalConfig(top_k=K, mode=REOPEN_MODES[strategy])
        gold_queries = [q for q in inp.queries if q.gold_case][:REOPEN_QUERIES]
        return texts_digest(texts), [retrieve.two_stage_retrieve(q.text, live, cfg).candidates
                                     for q in gold_queries]

    def cold_sessions(self, inp, dirs, first: bool):
        """What fresh `query` commands pay before their answers, for both indexes."""
        import bench_gen
        from tcmrag import prompt
        q = next(q for q in inp.queries if q.gold_case)
        self.speed.tick()
        for _ in range(bench_gen.OPENS):
            self.request("open")
            t0 = clock()
            templates = prompt.TemplateSet.load(self.templates_dir)
            naive = self.tcmrag("query", q.text, "--index", str(dirs[OW]),
                                "--k", str(K), "--mode", "dense_only")
            hybrid = self.tcmrag("query", q.text, "--index", str(dirs[TC]),
                                 "--k", str(K), "--mode", "hybrid")
            self.sessions.append(clock() - t0)
            self.speed.tick()
            self.attempted += 1
        if first:
            self.cli_answers = {"dense_only": naive, "hybrid": hybrid}
        return templates

    def stream(self, inp, deps, r: int) -> None:
        """The query stream: one closed-loop client, timed per retrieval.

        Probes run between blocks of retrievals only: one inside a retrieval
        would leave it a cold cache and land in the tail.
        """
        from tcmrag import retrieve
        cfgs = {m: retrieve.RetrievalConfig(top_k=K, mode=m) for m in retrieve.MODES}
        check_every = max(1, len(inp.queries) // CHECKED_QUERIES)
        counted = r < self.spec.min_rounds
        tr = self.tracer
        self.speed.tick()
        for i, q in enumerate(inp.queries):
            if i and i % BLOCK == 0:
                self.speed.tick()
            d = deps[OW if q.mode == "dense_only" else TC]
            self.request("query")
            self.attempted += 1
            t0 = clock()
            try:
                res = retrieve.two_stage_retrieve(q.text, d, cfgs[q.mode])
            except Exception as exc:  # counted; only punctuation-only queries may fail
                self.failed += 1
                if q.gold_case is not None:
                    raise RuntimeError(f"query {q.text!r} failed: {exc!r}") from exc
                continue
            self.queries.append(clock() - t0)
            if not counted or q.gold_case is None:
                continue
            got = [(c.chunk_id, c.rerank_score, c.dense_score, c.sparse_score)
                   for c in res.candidates]
            self.gold_hits.append(any(c[0].rsplit("#", 1)[0] == q.gold_case for c in got))
            if tr is not None:
                self.gold_in_pool.append(any(c.chunk_id.rsplit("#", 1)[0] == q.gold_case
                                             for c in tr.last["retrieve.first_stage"]))
            if r == 0 and i % check_every == 0:
                self.checked.append((q, got))

    def ablation(self, inp, items, deps, templates, rdir: Path, first: bool) -> None:
        from tcmrag import evalharness as ev
        from tcmrag import llm, retrieve
        chat = AblationChat(inp.tasks)
        edeps = ev.EvalDeps(templates=templates, chat=chat,
                            corpus={c.case_id: c for c in inp.cases},
                            retrievers={ev.MODE_NAIVE_RAG: deps[OW],
                                        ev.MODE_HYBRID_JIEBA: deps[TC]},
                            params=llm.GenerationParams(), budget=6000)
        rcfg = retrieve.RetrievalConfig(top_k=K)
        out = rdir / "reports"
        out.mkdir()
        paths = {}
        self.speed.tick()
        with self.sampling():
            for cot in (False, True):
                group = []
                for mode in ev.RUN_MODES:
                    run_cfg = ev.RunConfig(retrieval_mode=mode, cot=cot,
                                           provider_name="perfbench", retrieval=rcfg)
                    self.request(f"eval:{run_cfg.label}")
                    chat.label = run_cfg.label
                    start = self.started()
                    report = ev.run_eval(items, run_cfg, edeps)
                    path = out / f"report_{report.label}.json"
                    path.write_text(report.to_json(), encoding="utf-8")
                    group.append(report)
                    if mode == ev.RUN_MODES[-1]:   # as `eval` writes after its modes
                        table, rows = ev.compare_runs(group)
                        suffix = "_cot" if cot else ""
                        (out / f"comparison{suffix}.txt").write_text(table, encoding="utf-8")
                        (out / f"comparison{suffix}.json").write_text(
                            json.dumps(rows, ensure_ascii=False, sort_keys=True, indent=2)
                            + "\n", encoding="utf-8")
                    self.evals.append((len(items), self.cpu_since(start)))
                    self.speed.tick()
                    self.attempted += len(items)
                    paths[report.label] = path
        if first:
            from bench_oracle import check_ablation
            reports = {label: json.loads(p.read_text(encoding="utf-8"))
                       for label, p in paths.items()}
            check_ablation(reports, inp.tasks, chat.cited, chat.completions)

    # -- checks ------------------------------------------------------------
    def check_reopen(self, inp, live, deps) -> None:
        """Indexes reopened from disk answer exactly as the in-memory ones did.

        Also keeps the reopened indexes' answers to the cold sessions' query,
        which their `query` commands must have printed.
        """
        from bench_oracle import CheckError
        from tcmrag import retrieve
        gold_queries = [q for q in inp.queries if q.gold_case]
        for strategy, mode in REOPEN_MODES.items():
            digest, answers = live[strategy]
            if digest != texts_digest(deps[strategy].chunk_texts):
                raise CheckError(f"{strategy}: reopened chunk texts differ from the build")
            cfg = retrieve.RetrievalConfig(top_k=K, mode=mode)
            cold = retrieve.two_stage_retrieve(gold_queries[0].text, deps[strategy], cfg)
            self.checked.append((replace(gold_queries[0], mode=mode),
                                 [(c.chunk_id, c.rerank_score, c.dense_score, c.sparse_score)
                                  for c in cold.candidates]))
            for q, a in zip(gold_queries[:REOPEN_QUERIES], answers):
                b = retrieve.two_stage_retrieve(q.text, deps[strategy], cfg).candidates
                if a != b:
                    raise CheckError(f"{strategy}: reopened index answers {q.text!r} "
                                     f"differently from the in-memory one")

    def check_outputs(self) -> None:
        """First-round chunks and retrievals against the brute force; CLI output."""
        import bench_oracle as orc
        from tcmrag import cli, corpus, retrieve
        app, rcfg = cli.AppConfig(), retrieve.RetrievalConfig(top_k=K)
        docs = {c.case_id: corpus.case_document(c) for c in self.first.cases}
        dirs = self.dirs(0)
        chunks = {s: corpus.load_chunks(d / cli.CHUNKS_FILE) for s, d in dirs.items()}
        for strategy in (OW, TC):
            per_case: dict[str, list] = {}
            for c in chunks[strategy]:
                per_case.setdefault(c.case_id, []).append(c)
            if sorted(per_case) != sorted(docs):
                raise orc.CheckError(f"{strategy}: chunked cases differ from the library")
            for case_id, cs in per_case.items():
                if strategy == OW:
                    orc.check_windows(docs[case_id], cs, app.window, app.overlap)
                else:
                    orc.check_token_chunks(docs[case_id], cs)
        needed = sorted({OW if q.mode == "dense_only" else TC for q, _ in self.checked})
        brute = {s: orc.BruteForce({c.chunk_id: c.text for c in chunks[s]}, self.lex,
                                   self.hmm, app.stub_dim) for s in needed}
        for q, got in self.checked:
            b = brute[OW if q.mode == "dense_only" else TC]
            want, fused, pool = b.retrieve(q.text, q.mode, rcfg.n_dense, rcfg.n_sparse,
                                           rcfg.alpha, K)
            orc.check_ranking([(g[0], g[1]) for g in got], want, fused, pool,
                              f"{q.mode} query {q.text!r}")
            scores = b.scores(q.text)
            for cid, _, d, s in got:
                if abs(scores[cid][0] - d) > orc.TOL or abs(scores[cid][1] - s) > orc.TOL:
                    raise orc.CheckError(f"{cid}: dense/sparse scores {d!r}/{s!r}, brute "
                                         f"force {scores[cid]!r}")
        for (q, got), (mode, printed) in zip(self.checked[:2], self.cli_answers.items()):
            ids = [line.split("\t")[1] for line in printed.splitlines() if "\t" in line]
            if q.mode != mode or ids != [g[0] for g in got]:
                raise orc.CheckError(f"`query --mode {mode}` printed {ids}, the opened "
                                     f"index answers {[g[0] for g in got]}")

    # -- results -----------------------------------------------------------
    def end_to_end(self, peak_rss_mb: float, scaled: bool = True) -> dict[str, tuple[float, str]]:
        """The end-to-end metrics; times scaled to the reference host unless `scaled` is off."""
        f = self.speed.factor() if scaled else 1.0
        lat = sorted(took * f for took in self.queries)
        index_bytes = sum(f.stat().st_size for d in self.dirs(0).values() for f in d.iterdir())
        return {
            "setup_s": (statistics.median(self.sessions) * f, "s"),
            "index_chars_per_s": (sum(c for c, _ in self.builds)
                                  / (sum(s for _, s in self.builds) * f), "chars/s"),
            "index_mb": (index_bytes / MB, "MB"),
            "query_p50_ms": (statistics.median(lat) * 1e3, "ms"),
            "query_p99_ms": (percentile(lat, 0.99) * 1e3, "ms"),
            "eval_items_per_s": (sum(n for n, _ in self.evals)
                                 / (sum(s for _, s in self.evals) * f), "items/s"),
            "gold_recall": (sum(self.gold_hits) / len(self.gold_hits), "ratio"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }


def run(workload: str, seed: int, seconds: float, trace: bool):
    """(metrics, end-to-end metrics, journey) of one run; metrics are per-layer if traced."""
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
    try:
        tracer = None
        if trace:
            from bench_layers import HOOKS
            from bench_spans import Tracer
            tracer = Tracer()
            tracer.hooks.update(HOOKS)
        journey = Journey(workload, seed, work, tracer)
        bounds = []
        if tracer is not None:
            tracer.install()
        try:
            t0 = time.perf_counter()
            while (journey.round_no < journey.spec.min_rounds
                   or time.perf_counter() - t0 < seconds):
                lo = len(tracer) if tracer is not None else 0
                counts = tracer.counts.copy() if tracer is not None else None
                journey.round()
                if tracer is not None:
                    bounds.append((lo, len(tracer), tracer.counts - counts))
        finally:
            if tracer is not None:
                tracer.uninstall()
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        journey.check_outputs()
        e2e = journey.end_to_end(peak)
        raw = journey.end_to_end(peak, scaled=False)
        print(f"perfbench: unscaled {json.dumps({k: round(v, 4) for k, (v, _) in raw.items()})}"
              f" host speed probe median {statistics.median(journey.speed.probes) * 1e3:.3f} ms",
              file=sys.stderr)
        if tracer is None:
            return e2e, e2e, journey
        from bench_layers import layer_metrics
        measured = bounds[:journey.spec.min_rounds]
        tracer.write(OUT / f"spans-{workload}.jsonl", 0, measured[-1][1])
        return layer_metrics(journey, tracer, measured), e2e, journey
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in NEEDED if not (ROOT / p).exists()]
    if missing:
        print(f"perfbench: {ROOT} is not a tcmrag checkout (missing {', '.join(missing)})",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import bench_gen
    from bench_oracle import CheckError
    if args.workload not in bench_gen.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(bench_gen.WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        metrics, e2e, journey = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except CheckError as exc:
        print(f"perfbench: workload {args.workload}: check failed: {exc}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        print(f"perfbench: workload {args.workload}: the program failed", file=sys.stderr)
        return 1
    summary = {k: round(v, 4) for k, (v, _) in e2e.items()}
    print(f"perfbench: {args.workload} seed={args.seed} rounds={journey.round_no} "
          f"{json.dumps(summary)}", file=sys.stderr)
    print(json.dumps({"correct": True, "attempted": journey.attempted, "failed": journey.failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
