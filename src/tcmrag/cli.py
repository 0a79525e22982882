"""Command-line entry point: ingest, index, query, and eval subcommands."""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from . import corpus as corpus_mod
from . import evalharness as ev
from .corpus import (OVERLAP_WINDOW, TOKEN_CHUNK, ClinicalCase, _SURROGATE,
                     _chunk_columns, dump_chunks, load_corpus, normalize_text, save_corpus)
from .dense import DEFAULT_STUB_DIM, HttpEmbedProvider, StubEmbedProvider, VectorIndex
from .engine import build_indexes, chunk_corpus, make_tokenizer
from .llm import CannedChatProvider, CleaningError, HttpChatProvider, extract_fields, split_cases
from .prompt import DEFAULT_BUDGET, TemplateSet, serialize_answer
from .retrieve import (HttpRerankProvider, MODES, RetrievalConfig, RetrievalError,
                       RetrieverDeps, two_stage_retrieve)
from .segment import load_hmm, load_lexicon
from .sparse import KeywordIndex
from .transport import ProviderError

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2

META_FILE = "meta.json"
VECTORS_FILE = "vectors.bin"
KEYWORDS_FILE = "keywords.bin"
_KEYWORDS_RECORD = "keywords.tsv"  # the keyword index as text, for people; never read
CHUNKS_FILE = "chunks.bin"
LOCK_FILE = ".lock"
# the layout of an index's files, recorded in meta.json; an index of another does not open
_INDEX_FORMAT = 2


class CliConfigError(ValueError):
    pass


@dataclass
class AppConfig:
    corpus: str = ""
    lexicon: str = ""
    hmm: str = ""
    templates: str = ""
    out_dir: str = "out"
    window: int = corpus_mod.DEFAULT_WINDOW
    overlap: int = corpus_mod.DEFAULT_OVERLAP
    max_tokens: int = corpus_mod.DEFAULT_MAX_TOKENS
    overlap_tokens: int = corpus_mod.DEFAULT_OVERLAP_TOKENS
    stub_dim: int = DEFAULT_STUB_DIM
    n_dense: int = RetrievalConfig.n_dense
    n_sparse: int = RetrievalConfig.n_sparse
    top_k: int = RetrievalConfig.top_k
    alpha: float = RetrievalConfig.alpha
    budget: int = DEFAULT_BUDGET
    embed_url: str = ""
    embed_model: str = ""
    rerank_url: str = ""
    rerank_model: str = ""
    chat_url: str = ""
    chat_model: str = ""

    @classmethod
    def load(cls, path: str | Path) -> "AppConfig":
        """Each value is converted with the type of its field's default."""
        cfg = cls()
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise CliConfigError(f"{path}:{lineno}: expected 'key = value'")
                key, _, value = line.partition("=")
                key, value = key.strip(), value.strip()
                if not hasattr(cfg, key):
                    raise CliConfigError(f"{path}:{lineno}: unknown config key {key!r}")
                try:
                    setattr(cfg, key, type(getattr(cfg, key))(value))
                except ValueError as exc:
                    raise CliConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
        return cfg


@contextmanager
def _acquire_lock(out_dir: Path):
    """Create `out_dir/.lock` holding this process's pid and start time, for the `with` block.
    A lock that exists is never taken over: the error names its owner and whether it runs."""
    out_dir.mkdir(parents=True, exist_ok=True)
    lock = out_dir / LOCK_FILE
    try:
        fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        raise CliConfigError(f"output directory {out_dir} is locked ({lock}): "
                             f"{_lock_owner(lock)}") from None
    with os.fdopen(fd, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"pid": os.getpid(), "started": time.strftime(
            "%Y-%m-%dT%H:%M:%SZ", time.gmtime())}) + "\n")
    try:
        yield
    finally:
        lock.unlink(missing_ok=True)


def _lock_owner(lock: Path) -> str:
    remove = f"if no command is using it, remove {lock}"
    try:
        owner = json.loads(lock.read_text(encoding="utf-8"))
        pid, started = int(owner["pid"]), str(owner["started"])
    except (OSError, ValueError, TypeError, KeyError):
        pid = 0
    if not 0 < pid < 2 ** 31:  # pid 0 and -1 would name groups of processes
        return f"its owner is unknown (the lock holds no pid); {remove}"
    if os.name != "posix":  # os.kill(pid, 0) would end the process elsewhere
        return f"held by pid {pid} since {started}; {remove}"
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return (f"held by pid {pid} since {started}, which is no longer running "
                f"(a stale lock, left by a killed command); {remove}")
    except PermissionError:
        pass  # the pid exists under another user
    return f"held by pid {pid} since {started}, which is still running"


def _sha256(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _segmenter(cfg: AppConfig) -> tuple:
    """The lexicon and HMM (or None) `cfg` names, and what meta.json records of how an index
    was built beyond its shape, which its queries must share: the layout of its files and
    the digests of that lexicon and HMM ("" for no HMM)."""
    lex, hmm = load_lexicon(cfg.lexicon), load_hmm(cfg.hmm) if cfg.hmm else None
    return lex, hmm, {"format": _INDEX_FORMAT, "lexicon_sha256": _sha256(cfg.lexicon),
                      "hmm_sha256": _sha256(cfg.hmm) if cfg.hmm else ""}


def _embedder(cfg: AppConfig, stub: bool, tokenize, dim: int | None = None):
    if stub:
        return StubEmbedProvider(tokenize=tokenize, dim=dim or cfg.stub_dim)
    if not cfg.embed_url:
        raise CliConfigError("no embed_url configured and --stub not given")
    return HttpEmbedProvider(url=cfg.embed_url, model=cfg.embed_model)


def _chat_provider(cfg: AppConfig, args, items=None):
    kind = args.chat
    if kind == "canned":
        if not args.canned:
            raise CliConfigError("--chat canned requires --canned <file>")
        try:
            return CannedChatProvider.from_file(args.canned)
        except (OSError, ValueError) as exc:
            raise CliConfigError(f"unusable --canned file: {exc}") from exc
    if kind in ev.MOCK_CHATS:
        return ev.MOCK_CHATS[kind](items or [])
    if not cfg.chat_url:
        raise CliConfigError("no chat_url configured; choose another --chat")
    return HttpChatProvider(url=cfg.chat_url, model=cfg.chat_model)


def _answer_deps(cfg: AppConfig, args, items=None, retrievers=None) -> ev.EvalDeps:
    """What `query --answer` and `eval` answer with, checked before anything is retrieved:
    the templates, the chat provider, the budget, the `retrievers` and, as the
    demonstrations (the top chunk's parent case), the cases of the config's `corpus`, or
    none when it is not set."""
    if not cfg.templates:
        command = "query --answer" if args.command == "query" else args.command
        raise CliConfigError(f"{command} requires a templates directory in the config")
    corpus_map = {c.case_id: c for c in load_corpus(cfg.corpus)} if cfg.corpus else {}
    return ev.EvalDeps(templates=TemplateSet.load(cfg.templates),
                       chat=_chat_provider(cfg, args, items), corpus=corpus_map,
                       retrievers=retrievers or {}, budget=cfg.budget)


def _retrieval_config(cfg: AppConfig, mode: str = RetrievalConfig.mode,
                      top_k: int | None = None) -> RetrievalConfig:
    """The config's retrieval settings, with `top_k` (query's --k) in place of its own."""
    return RetrievalConfig(n_dense=cfg.n_dense, n_sparse=cfg.n_sparse,
                           top_k=cfg.top_k if top_k is None else top_k, alpha=cfg.alpha,
                           mode=mode)


def cmd_ingest(cfg: AppConfig, args) -> int:
    raw_dir = Path(args.raw_dir)
    files = sorted(raw_dir.glob("*.txt"))
    if not files:
        raise CliConfigError(f"no .txt files in {raw_dir}")
    cases: list[ClinicalCase] = []
    failures: list[str] = []
    provider = _chat_provider(cfg, args) if args.clean else None
    for path in files:
        try:
            text = normalize_text(path.read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError) as exc:
            print(f"ingest: cannot read {path}: {exc}", file=sys.stderr)
            failures.append(str(path))
            continue
        if not text:
            failures.append(str(path))
            print(f"ingest: {path} is empty after normalization", file=sys.stderr)
            continue
        if provider is None:
            cases.append(ClinicalCase(
                case_id=path.stem, patient_background="", clinical_info=text,
                pathogenesis="", syndromes=[], source=str(path), raw_text=text))
            continue
        warnings: list[str] = []
        try:  # a file adds its cases only when every one of them cleans
            pieces = split_cases(provider, text, warnings)
            file_cases = [extract_fields(provider, piece, warnings) for piece in pieces]
        except (CleaningError, ProviderError) as exc:
            failures.append(str(path))
            print(f"ingest: cleaning failed for {path}: {exc}", file=sys.stderr)
        else:
            for i, case in enumerate(file_cases):
                case.case_id = f"{path.stem}-{i}"
                case.source = str(path)
            cases += file_cases
        finally:
            for warning in warnings:
                print(f"ingest: warning: {path}: {warning}", file=sys.stderr)
    save_corpus(cases, args.out_corpus)
    print(f"ingest: wrote {len(cases)} cases to {args.out_corpus}; "
          f"{len(failures)} guard/IO failures")
    if failures:
        for name in failures:
            print(f"ingest: failed: {name}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def cmd_index(cfg: AppConfig, args) -> int:
    # the settings this build uses, checked before any input is read
    small, large = (("overlap", "window") if args.strategy == OVERLAP_WINDOW
                    else ("overlap_tokens", "max_tokens"))
    if not 0 <= getattr(cfg, small) < getattr(cfg, large):
        raise CliConfigError(f"need 0 <= {small} < {large}, got {small} = "
                             f"{getattr(cfg, small)} and {large} = {getattr(cfg, large)}")
    if args.stub and cfg.stub_dim < 8:
        raise CliConfigError(f"stub_dim must be >= 8, got {cfg.stub_dim}")
    cases = load_corpus(args.corpus or cfg.corpus)
    lex, hmm, fingerprint = _segmenter(cfg)
    tokenize = make_tokenizer(lex, hmm)
    out_dir = Path(args.out)
    with _acquire_lock(out_dir):
        chunks = chunk_corpus(cases, args.strategy, lex, hmm,
                              window=cfg.window, overlap=cfg.overlap,
                              max_tokens=cfg.max_tokens, overlap_tokens=cfg.overlap_tokens)
        embedder = _embedder(cfg, args.stub, tokenize)
        dense_index, kw_index = build_indexes(chunks, tokenize, embedder)
        # staged, so that a failed build leaves the previous index whole; meta.json moves last
        with tempfile.TemporaryDirectory(prefix=".index-", dir=out_dir) as tmp:
            stage = Path(tmp)
            dense_index.save(stage / VECTORS_FILE)
            kw_index.save(stage / KEYWORDS_FILE)
            kw_index._save_tsv(stage / _KEYWORDS_RECORD)
            dump_chunks(chunks, stage / CHUNKS_FILE)
            meta = {"strategy": args.strategy, "dim": dense_index.dim, "count": len(chunks),
                    "stub": bool(args.stub), **fingerprint}
            (stage / META_FILE).write_text(json.dumps(meta, sort_keys=True) + "\n",
                                           encoding="utf-8")
            for name in (VECTORS_FILE, KEYWORDS_FILE, _KEYWORDS_RECORD, CHUNKS_FILE, META_FILE):
                os.replace(stage / name, out_dir / name)
        print(f"index: {len(cases)} cases -> {len(chunks)} chunks "
              f"(strategy={args.strategy}, dim={dense_index.dim}) in {out_dir}")
    return EXIT_OK


def _retriever_from_dir(cfg: AppConfig, index_dir: Path, stub: bool,
                        segmenter: tuple) -> tuple[dict, RetrieverDeps]:
    """The index's retriever, tokenizing with the `_segmenter(cfg)` given; it reranks with the
    configured provider unless `stub`. Raises CliConfigError for a missing, unreadable or
    inconsistent index, or one built with another file layout, lexicon or HMM."""
    meta_path = index_dir / META_FILE
    if not meta_path.exists():
        raise CliConfigError(f"no index at {index_dir} (missing {META_FILE})")
    try:
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        if not isinstance(meta, dict):
            raise ValueError(f"{META_FILE} is not a JSON object")
        dense_index = VectorIndex.load(index_dir / VECTORS_FILE)
        kw_index = KeywordIndex.load(index_dir / KEYWORDS_FILE)
        _, chunk_ids, _, texts, _, _ = _chunk_columns(index_dir / CHUNKS_FILE)
    except FileNotFoundError as exc:
        raise CliConfigError(f"index at {index_dir} is missing {Path(exc.filename).name}; "
                             f"rebuild it with 'index'") from exc
    except ValueError as exc:
        raise CliConfigError(f"index at {index_dir} is unusable: {exc}; "
                             f"rebuild it with 'index'") from exc
    chunk_texts = dict(zip(chunk_ids, texts))
    if not (dense_index.ids == kw_index.ids == sorted(chunk_texts)
            and len(chunk_ids) == len(chunk_texts) == meta.get("count")
            and meta.get("dim") == dense_index.dim):
        raise CliConfigError(f"index at {index_dir} is inconsistent: its files disagree on "
                             f"the chunk ids, their count or the dim, or repeat a chunk id; "
                             f"rebuild it with 'index'")
    lex, hmm, fingerprint = segmenter
    for key, now in fingerprint.items():
        if meta.get(key) != now:
            raise CliConfigError(f"index at {index_dir} was built with {key} "
                                 f"{meta.get(key)!r} and this command uses {now!r}; "
                                 f"rebuild it with 'index'")
    tokenize = make_tokenizer(lex, hmm)
    embedder = _embedder(cfg, stub or meta.get("stub", False), tokenize, dim=dense_index.dim)
    rerank_provider = None
    if cfg.rerank_url and not stub:
        rerank_provider = HttpRerankProvider(url=cfg.rerank_url, model=cfg.rerank_model)
    deps = RetrieverDeps(tokenize=tokenize, embedder=embedder, dense_index=dense_index,
                         kw_index=kw_index, chunk_texts=chunk_texts,
                         rerank_provider=rerank_provider)
    return meta, deps


def cmd_query(cfg: AppConfig, args) -> int:
    for name, values in (("the question", [args.question]),
                         ("--pathogenesis-option", args.pathogenesis_option),
                         ("--syndrome-option", args.syndrome_option)):
        for value in values or ():
            if _SURROGATE.search(value):  # argument bytes that are not UTF-8
                raise CliConfigError(f"{name} {value!r} is not UTF-8 text")
    rcfg = _retrieval_config(cfg, args.mode, args.k)
    meta, deps = _retriever_from_dir(cfg, Path(args.index), args.stub, _segmenter(cfg))
    if args.expect_strategy and args.expect_strategy != meta["strategy"]:
        raise CliConfigError(
            f"index was built with strategy {meta['strategy']!r} but the query "
            f"expects {args.expect_strategy!r}")
    answer_deps = _answer_deps(cfg, args) if args.answer else None
    result = two_stage_retrieve(args.question, deps, rcfg)
    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    for rank, cand in enumerate(result.candidates, 1):
        print(f"{rank}\t{cand.chunk_id}\trerank={cand.rerank_score:.6f}"
              f"\tdense={cand.dense_score:.6f}\tsparse={cand.sparse_score:.6f}")
    if not result.candidates:
        print("(no results)")

    if answer_deps is not None:
        item = ev.TaskItem(item_id="query", case_text=args.question,
                           pathogenesis_options=args.pathogenesis_option or ["未知病机"],
                           syndrome_options=args.syndrome_option or ["未知证型"],
                           gold_pathogenesis=[], gold_syndromes=[])
        answer, warnings = ev.answer_item(item, True, answer_deps, result, deps.chunk_texts)
        for warning in warnings:
            print(f"warning: {warning}", file=sys.stderr)
        if answer is None:
            return EXIT_RUNTIME
        print(serialize_answer(answer))
    return EXIT_OK


def cmd_eval(cfg: AppConfig, args) -> int:
    items = ev.load_tasks(args.tasks)
    modes = list(dict.fromkeys(args.mode or [ev.MODE_NONE]))  # each mode runs once
    rcfg = _retrieval_config(cfg)

    retrievers: dict[str, RetrieverDeps] = {}
    segmenter = None  # loaded once, so that every retriever shares the lexicon's run memo
    index_dirs = {ev.MODE_NAIVE_RAG: args.index_naive, ev.MODE_HYBRID_JIEBA: args.index_hybrid}
    for mode in modes:
        if mode == ev.MODE_NONE:
            continue
        index_dir = index_dirs.get(mode)
        if not index_dir:
            raise CliConfigError(f"mode {mode!r} requested but its index directory is missing")
        segmenter = segmenter or _segmenter(cfg)
        _, retrievers[mode] = _retriever_from_dir(cfg, Path(index_dir), args.stub, segmenter)
    eval_deps = _answer_deps(cfg, args, items, retrievers)

    out_dir = Path(args.out or cfg.out_dir)
    with _acquire_lock(out_dir):
        reports = []
        for mode in modes:
            run_cfg = ev.RunConfig(retrieval_mode=mode, cot=args.cot,
                                   provider_name=args.chat, retrieval=rcfg)
            report = ev.run_eval(items, run_cfg, eval_deps)
            reports.append(report)
            path = out_dir / f"report_{report.label}.json"
            path.write_text(report.to_json(), encoding="utf-8")
            print(f"eval: {report.label}: aggregate={report.aggregate:.2f} "
                  f"parse_failures={report.parse_failures} "
                  f"provider_failures={report.provider_failures} "
                  f"prompt_failures={report.prompt_failures} -> {path}")
        if len(reports) >= 2:
            table, rows = ev.compare_runs(reports)
            (out_dir / "comparison.txt").write_text(table, encoding="utf-8")
            (out_dir / "comparison.json").write_text(
                json.dumps(rows, ensure_ascii=False, sort_keys=True, indent=2) + "\n",
                encoding="utf-8")
            print(table, end="")
    # every report is written first, so a failed chat call or prompt costs its item only
    failed = any(r.provider_failures or r.prompt_failures for r in reports)
    return EXIT_RUNTIME if failed else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tcmrag",
                                     description="TCM case retrieval and diagnosis pipeline")
    parser.add_argument("--config", default=None, help="path to a key = value config file")
    parser.add_argument("--stub", action="store_true",
                        help="use offline deterministic providers (no network)")
    parser.add_argument("--verbose", action="store_true", help="verbose diagnostics")
    sub = parser.add_subparsers(dest="command", required=True)

    def chat_options(p, *mocks):  # the chat provider of ingest --clean, query --answer, eval
        p.add_argument("--chat", default="http", choices=["http", "canned", *mocks])
        p.add_argument("--canned", default=None, help="canned response file for --chat canned")

    p = sub.add_parser("ingest", help="normalize (and optionally LLM-clean) raw text files")
    p.add_argument("raw_dir", help="directory of UTF-8 .txt files")
    p.add_argument("out_corpus", help="corpus file to write")
    p.add_argument("--clean", action="store_true", help="run the LLM cleaning pipeline")
    p.add_argument("--no-clean", dest="clean", action="store_false",
                   help="one case per file, normalize only (default)")
    chat_options(p)
    p.set_defaults(clean=False, func=cmd_ingest)

    p = sub.add_parser("index", help="chunk, segment, embed, and persist both indexes")
    p.add_argument("--corpus", default=None, help="corpus file (default: config corpus)")
    p.add_argument("--strategy", required=True, choices=[OVERLAP_WINDOW, TOKEN_CHUNK])
    p.add_argument("--out", required=True, help="index output directory")
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("query", help="one-shot retrieval with optional answer generation")
    p.add_argument("question")
    p.add_argument("--index", required=True, help="index directory from 'index'")
    p.add_argument("--k", type=int, default=None, help="results to print (default: config top_k)")
    p.add_argument("--mode", default="hybrid", choices=list(MODES))
    p.add_argument("--expect-strategy", default=None, choices=[OVERLAP_WINDOW, TOKEN_CHUNK],
                   help="fail if the index was built with a different chunking strategy")
    p.add_argument("--answer", action="store_true", help="also generate a JSON answer")
    chat_options(p)
    p.add_argument("--pathogenesis-option", action="append", default=None)
    p.add_argument("--syndrome-option", action="append", default=None)
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("eval", help="run ablation evaluations and emit reports")
    p.add_argument("--tasks", required=True, help="task file (one JSON item per line)")
    p.add_argument("--mode", action="append", choices=list(ev.RUN_MODES),
                   help="repeatable; defaults to 'none'")
    p.add_argument("--cot", action="store_true", help="use chain-of-thought variants")
    chat_options(p, *ev.MOCK_CHATS)
    p.add_argument("--index-naive", default=None, help="index dir for naive_rag")
    p.add_argument("--index-hybrid", default=None, help="index dir for hybrid_jieba")
    p.add_argument("--out", default=None, help="report output directory")
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = AppConfig.load(args.config) if args.config else AppConfig()
        return args.func(cfg, args)
    except (CliConfigError, ev.ConfigurationError, RetrievalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:
        if getattr(args, "verbose", False):
            raise
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
