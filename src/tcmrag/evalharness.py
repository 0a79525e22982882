"""Benchmark loading, ablation runs over retrieval modes, scoring, and comparison reports."""
from __future__ import annotations

import json
import re
from dataclasses import dataclass, field, replace
from pathlib import Path

from .corpus import ClinicalCase, _read_records
from .llm import ChatProvider, FnChatProvider, GenerationParams, generate_answer
from .prompt import (DEFAULT_BUDGET, Answer, AnswerParseError, OptionItem, PromptError,
                     TemplateSet, build_prompt, serialize_answer)
from .retrieve import (DENSE_ONLY, HYBRID, RERANK_FALLBACK, RetrievalConfig, RetrievalResult,
                       RetrieverDeps, parent_case_id, prompt_context, two_stage_retrieve)
from .sparse import iou_score
from .transport import ProviderError

MODE_NONE = "none"
MODE_NAIVE_RAG = "naive_rag"
MODE_HYBRID_JIEBA = "hybrid_jieba"
RUN_MODES = (MODE_NONE, MODE_NAIVE_RAG, MODE_HYBRID_JIEBA)

# Retrieval modes backing each RAG ablation row.
_STAGE1_MODE = {MODE_NAIVE_RAG: DENSE_ONLY, MODE_HYBRID_JIEBA: HYBRID}

METRIC_NOTE = "artifact metric: 100 x mean of (Jaccard(pathogenesis)/2 + Jaccard(syndromes)/2)"
_CHAT_FAILED = "chat provider failed"
_PROMPT_FAILED = "prompt not built"


class TaskError(ValueError):
    pass


class ConfigurationError(ValueError):
    pass


TASK_KEYS = ("item_id", "case_text", "pathogenesis_options", "syndrome_options",
             "gold_pathogenesis", "gold_syndromes")


@dataclass
class TaskItem:
    item_id: str
    case_text: str
    pathogenesis_options: list[str]
    syndrome_options: list[str]
    gold_pathogenesis: list[str]
    gold_syndromes: list[str]


@dataclass(frozen=True)
class RunConfig:
    retrieval_mode: str = MODE_NONE
    cot: bool = False
    provider_name: str = "mock"
    retrieval: RetrievalConfig = RetrievalConfig()

    def __post_init__(self) -> None:
        if self.retrieval_mode not in RUN_MODES:
            raise ConfigurationError(f"unknown retrieval_mode {self.retrieval_mode!r}")

    @property
    def label(self) -> str:
        suffix = "+CoT" if self.cot else ""
        return f"{self.retrieval_mode}{suffix}"


@dataclass
class EvalDeps:
    templates: TemplateSet
    chat: ChatProvider
    corpus: dict[str, ClinicalCase]
    retrievers: dict[str, RetrieverDeps] = field(default_factory=dict)
    params: GenerationParams = GenerationParams()
    budget: int = DEFAULT_BUDGET


@dataclass
class ItemResult:
    item_id: str
    score: float
    parsed: bool
    answer_json: str
    warnings: list[str] = field(default_factory=list)


@dataclass
class ScoreReport:
    label: str
    aggregate: float
    items: list[ItemResult]
    parse_failures: int
    provider_failures: int
    prompt_failures: int
    provider_fallbacks: int
    warning_count: int
    config: dict

    def to_json(self) -> str:
        doc = {
            "label": self.label,
            "metric": METRIC_NOTE,
            "aggregate": self.aggregate,
            "parse_failures": self.parse_failures,
            "provider_failures": self.provider_failures,
            "prompt_failures": self.prompt_failures,
            "provider_fallbacks": self.provider_fallbacks,
            "warning_count": self.warning_count,
            "config": self.config,
            "items": [
                {"item_id": r.item_id, "score": r.score, "parsed": r.parsed,
                 "answer": r.answer_json, "warnings": r.warnings}
                for r in self.items
            ],
        }
        return json.dumps(doc, ensure_ascii=False, sort_keys=True, indent=2) + "\n"


def load_tasks(path: str | Path) -> list[TaskItem]:
    items: list[TaskItem] = []
    seen: set[str] = set()
    for lineno, rec in _read_records(path, TASK_KEYS, (), TaskError):
        item = TaskItem(**rec)
        _validate_item(item)
        if item.item_id in seen:
            raise TaskError(f"{path}:{lineno}: duplicate item_id {item.item_id!r}")
        seen.add(item.item_id)
        items.append(item)
    return items


def _validate_item(item: TaskItem) -> None:
    for name in ("item_id", "case_text"):
        if not isinstance(getattr(item, name), str):
            raise TaskError(f"item {item.item_id!r}: {name} must be a string")
    for name in TASK_KEYS[2:]:  # the option and gold label lists
        value = getattr(item, name)
        if not isinstance(value, list) or any(not isinstance(s, str) for s in value):
            raise TaskError(f"item {item.item_id!r}: {name} must be an array of strings")
    for name, options in (("pathogenesis_options", item.pathogenesis_options),
                          ("syndrome_options", item.syndrome_options)):
        if len(options) < 2:
            raise TaskError(f"item {item.item_id!r}: {name} needs >= 2 options")
        if len(set(options)) != len(options):
            raise TaskError(f"item {item.item_id!r}: duplicate strings in {name}")
    for name, gold, options in (
            ("gold_pathogenesis", item.gold_pathogenesis, item.pathogenesis_options),
            ("gold_syndromes", item.gold_syndromes, item.syndrome_options)):
        if not gold:
            raise TaskError(f"item {item.item_id!r}: empty {name}")
        bad = [g for g in gold if g not in options]
        if bad:
            raise TaskError(f"item {item.item_id!r}: {name} values {bad} not among options")


def score_item(pred: Answer, item: TaskItem) -> float:
    """Mean of the two label-set Jaccards; empty-vs-empty counts as 0."""
    return 0.5 * iou_score(set(pred.pathogenesis), set(item.gold_pathogenesis)) \
        + 0.5 * iou_score(set(pred.syndromes), set(item.gold_syndromes))


def answer_item(item: OptionItem, cot: bool, deps: EvalDeps,
                retrieved: RetrievalResult | None = None,
                chunk_texts: dict[str, str] | None = None) -> tuple[Answer | None, list[str]]:
    """Prompt (rag/rag_cot with context blocks, base/cot without) and generate one parsed
    answer, or None with a last warning that says why: "unparseable answer" (even the
    repaired reply does not parse), "chat provider failed" or "prompt not built" (over the
    budget with every optional part dropped). Also warns when a retrieval ran (`retrieved`
    not None) but found nothing, and for each reply with a finish reason other than stop."""
    blocks, demo_text, warnings = [], None, []
    if retrieved is not None:
        blocks, demo_text = prompt_context(retrieved, chunk_texts, deps.corpus)
        if not blocks:
            warnings.append("nothing retrieved; answered without context")
    variant = ("rag_cot" if cot else "rag") if blocks else ("cot" if cot else "base")
    try:
        bundle = build_prompt(item, variant, deps.templates, context_blocks=blocks,
                              demonstration=demo_text, budget=deps.budget)
        answer = generate_answer(deps.chat, bundle, item, warnings, deps.params)
    except PromptError as exc:
        warnings.append(f"{_PROMPT_FAILED}: {exc}")
        return None, warnings
    except AnswerParseError as exc:
        warnings.append(f"unparseable answer: {exc}")
        return None, warnings
    except ProviderError as exc:
        warnings.append(f"{_CHAT_FAILED}: {exc}")
        return None, warnings
    return answer, warnings


def run_eval(items: list[TaskItem], config: RunConfig, deps: EvalDeps) -> ScoreReport:
    """Retrieve (per mode), prompt, generate, parse, and score every item. An item with no
    answer (prompt not built, chat call failed, answer unparseable) scores 0 and is counted."""
    if config.retrieval_mode != MODE_NONE and config.retrieval_mode not in deps.retrievers:
        raise ConfigurationError(
            f"retrieval_mode {config.retrieval_mode!r} requested but no index is loaded")

    results: list[ItemResult] = []
    parse_failures = provider_failures = prompt_failures = 0
    fallbacks = 0
    for item in sorted(items, key=lambda it: it.item_id):
        retrieved, chunk_texts = None, None
        if config.retrieval_mode != MODE_NONE:
            rdeps = deps.retrievers[config.retrieval_mode]
            rcfg = replace(config.retrieval, mode=_STAGE1_MODE[config.retrieval_mode])
            retrieved = two_stage_retrieve(item.case_text, rdeps, rcfg)
            chunk_texts = rdeps.chunk_texts
            fallbacks += any(w.startswith(RERANK_FALLBACK) for w in retrieved.warnings)
        answer, warnings = answer_item(item, config.cot, deps, retrieved, chunk_texts)
        warnings = (retrieved.warnings if retrieved is not None else []) + warnings
        if answer is None:
            if warnings[-1].startswith(_CHAT_FAILED):
                provider_failures += 1
            elif warnings[-1].startswith(_PROMPT_FAILED):
                prompt_failures += 1
            else:
                parse_failures += 1
            score, answer_json = 0.0, ""
        else:
            score, answer_json = score_item(answer, item), serialize_answer(answer)
        results.append(ItemResult(item_id=item.item_id, score=score, parsed=answer is not None,
                                  answer_json=answer_json, warnings=warnings))

    aggregate = 100.0 * (sum(r.score for r in results) / len(results)) if results else 0.0
    return ScoreReport(
        label=config.label,
        aggregate=aggregate,
        items=results,
        parse_failures=parse_failures,
        provider_failures=provider_failures,
        prompt_failures=prompt_failures,
        provider_fallbacks=fallbacks,
        warning_count=sum(len(r.warnings) for r in results),
        config={"retrieval_mode": config.retrieval_mode, "cot": config.cot,
                "provider": config.provider_name,
                "top_k": config.retrieval.top_k, "alpha": config.retrieval.alpha},
    )


def compare_runs(reports: list[ScoreReport]) -> tuple[str, list[dict]]:
    """Rows sorted by aggregate descending with deltas against the leader."""
    if len(reports) < 2:
        raise ConfigurationError("comparison needs at least 2 reports")
    id_sets = [tuple(sorted(r.item_id for r in rep.items)) for rep in reports]
    if len(set(id_sets)) != 1:
        raise ConfigurationError("reports cover different item sets")
    ordered = sorted(reports, key=lambda r: (-r.aggregate, r.label))
    rows = [{"label": r.label, "aggregate": round(r.aggregate, 4),
             "delta": round(r.aggregate - ordered[0].aggregate, 4)} for r in ordered]
    width = max(len(r["label"]) for r in rows)
    lines = [f"{'Method'.ljust(width)}  {'Score':>8}  {'Delta':>8}",
             "-" * (width + 20)]
    for row in rows:
        lines.append(f"{row['label'].ljust(width)}  {row['aggregate']:>8.2f}  "
                     f"{row['delta']:>+8.2f}")
    lines.append(f"({METRIC_NOTE})")
    return "\n".join(lines) + "\n", rows


# --- Offline mock chat providers for ablation tests -------------------------

def _gold_json(item: TaskItem) -> str:
    return json.dumps({
        "clinical_features": ["依据病案提取的特征"],
        "pathogenesis": item.gold_pathogenesis,
        "syndromes": item.gold_syndromes,
        "reasoning": "按步骤推理得出。",
    }, ensure_ascii=False)


_EMPTY_ANSWER = json.dumps({"clinical_features": [], "pathogenesis": [],
                            "syndromes": [], "reasoning": "无法判断。"}, ensure_ascii=False)


def _find_item(items: list[TaskItem], user_text: str) -> TaskItem | None:
    for item in items:
        if item.case_text in user_text:
            return item
    return None


def echo_gold_provider(items: list[TaskItem]) -> FnChatProvider:
    """Answers every item with its gold labels (perfect oracle)."""

    def fn(messages):
        user_text = messages[-1][1]
        item = _find_item(items, user_text)
        return _gold_json(item) if item is not None else _EMPTY_ANSWER

    return FnChatProvider(fn=fn)


def empty_answer_provider() -> FnChatProvider:
    """Answers every item with empty label lists (null predictor)."""
    return FnChatProvider(fn=lambda messages: _EMPTY_ANSWER)


def retrieval_sensitive_provider(items: list[TaskItem],
                                 gold_case_ids: dict[str, str]) -> FnChatProvider:
    """Answers gold iff a chunk of the item's gold case appears in the prompt context.

    Context blocks carry their chunk ids in the `[CONTEXT n | <chunk_id>]` headers,
    so presence is decided from the parent case of any cited chunk.
    """
    header = re.compile(r"\[CONTEXT \d+ \| ([^\]]+)\]")

    def fn(messages):
        user_text = messages[-1][1]
        item = _find_item(items, user_text)
        if item is None:
            return _EMPTY_ANSWER
        gold_case = gold_case_ids[item.item_id]
        cited = {parent_case_id(cid) for cid in header.findall(user_text)}
        return _gold_json(item) if gold_case in cited else _EMPTY_ANSWER

    return FnChatProvider(fn=fn)
