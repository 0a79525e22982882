"""Prompt variants (base / CoT / RAG / RAG+CoT) and strict-JSON answer parsing."""
from __future__ import annotations

import json
import re
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Protocol

from .corpus import _SURROGATE

VARIANTS = ("base", "cot", "rag", "rag_cot")
RAG_VARIANTS = ("rag", "rag_cot")
COT_VARIANTS = ("cot", "rag_cot")

# The three reasoning-step headers, in their required order. The CoT template
# files must contain these lines verbatim.
COT_STEP_HEADERS = (
    "STEP 1 - 提取临床特征 (extract clinical features)",
    "STEP 2 - 推断病机 (infer pathogenesis)",
    "STEP 3 - 判定证型 (determine syndromes)",
)

DEFAULT_BUDGET = 6000

_PLACEHOLDER_RE = re.compile(r"\{\{(\w+)\}\}")
KNOWN_PLACEHOLDERS = {"case", "options_pathogenesis", "options_syndromes",
                      "context", "demonstration"}


class PromptError(ValueError):
    pass


class TemplateError(ValueError):
    pass


class AnswerParseError(ValueError):
    """The model output holds no valid answer; raised as is when it has no JSON object."""


class AnswerSchemaError(AnswerParseError):
    """JSON found but required keys/types missing."""


class OptionItem(Protocol):
    case_text: str
    pathogenesis_options: list[str]
    syndrome_options: list[str]


@dataclass
class PromptBundle:
    system_text: str
    user_text: str
    context_blocks: list[tuple[str, str]] = field(default_factory=list)


@dataclass
class Answer:
    clinical_features: list[str]
    pathogenesis: list[str]
    syndromes: list[str]
    reasoning: str


ANSWER_KEYS = tuple(f.name for f in fields(Answer))  # the answer JSON's keys, in order


@dataclass
class TemplateSet:
    system_text: str
    user_templates: dict[str, str]  # variant -> template text

    @classmethod
    def load(cls, directory: str | Path) -> "TemplateSet":
        directory = Path(directory)
        system_path = directory / "system.txt"
        if not system_path.exists():
            raise TemplateError(f"missing template {system_path}")
        templates: dict[str, str] = {}
        for variant in VARIANTS:
            path = directory / f"{variant}.txt"
            if not path.exists():
                raise TemplateError(f"missing template {path}")
            text = path.read_text(encoding="utf-8")
            unknown = set(_PLACEHOLDER_RE.findall(text)) - KNOWN_PLACEHOLDERS
            if unknown:
                raise TemplateError(f"{path}: unknown placeholders {sorted(unknown)}")
            templates[variant] = text
        return cls(system_text=system_path.read_text(encoding="utf-8").strip(),
                   user_templates=templates)


def _numbered(options: list[str]) -> str:
    return "\n".join(f"{i}. {opt}" for i, opt in enumerate(options, 1))


def _render_context(blocks: list[tuple[str, str]]) -> str:
    if not blocks:
        return "(无检索结果)"
    parts = [f"[CONTEXT {i} | {cid}]\n{text}" for i, (cid, text) in enumerate(blocks, 1)]
    return "\n".join(parts)


def _render(template: str, item: OptionItem, blocks: list[tuple[str, str]],
            demonstration: str | None) -> str:
    subs = {
        "case": item.case_text,
        "options_pathogenesis": _numbered(item.pathogenesis_options),
        "options_syndromes": _numbered(item.syndrome_options),
        "context": _render_context(blocks),
        "demonstration": demonstration or "(无示例)",
    }
    return _PLACEHOLDER_RE.sub(lambda m: subs[m.group(1)], template)


def build_prompt(item: OptionItem, variant: str, templates: TemplateSet,
                 context_blocks: list[tuple[str, str]] | None = None,
                 demonstration: str | None = None,
                 budget: int = DEFAULT_BUDGET) -> PromptBundle:
    """Render one prompt variant. Over budget, the demonstration is dropped first,
    then context blocks from the last backwards; an irreducible overflow is an error."""
    if variant not in VARIANTS:
        raise PromptError(f"unknown variant {variant!r}")
    if not item.pathogenesis_options or not item.syndrome_options:
        raise PromptError("option lists must be non-empty")
    blocks = list(context_blocks or [])
    demo = demonstration
    if variant not in RAG_VARIANTS:
        if blocks or demo:
            raise PromptError(f"variant {variant!r} takes no context or demonstration")
        blocks, demo = [], None
    elif not blocks and demo is None:
        raise PromptError(f"variant {variant!r} requires context blocks or a demonstration")

    template = templates.user_templates[variant]
    room = budget - len(templates.system_text)
    user = _render(template, item, blocks, demo)
    if len(user) > room and demo is not None:
        demo = None
        user = _render(template, item, blocks, demo)
    while len(user) > room and blocks:
        blocks = blocks[:-1]
        user = _render(template, item, blocks, demo)
    if len(user) > room:
        raise PromptError(f"prompt exceeds budget {budget} even with all optional parts dropped")
    return PromptBundle(system_text=templates.system_text, user_text=user, context_blocks=blocks)


def _first_json(raw: str, kind: type, error: type[ValueError], source: str):
    """The first JSON value of type `kind` (dict or list) embedded in raw. Raises `error` if
    there is none (its message calls raw `source`) or if it holds a lone surrogate, which no
    output can encode."""
    decoder = json.JSONDecoder()
    for match in re.finditer(r"\{" if kind is dict else r"\[", raw):
        try:
            value, _ = decoder.raw_decode(raw, match.start())
        except json.JSONDecodeError:
            continue
        if isinstance(value, kind):
            # decoding makes a lone surrogate only of a \u escape, as in "\ud800"
            if "\\u" in raw and _SURROGATE.search(json.dumps(value, ensure_ascii=False)):
                raise error("the reply's JSON holds a lone surrogate")
            return value
    raise error(f"no JSON {'object' if kind is dict else 'array'} found in {source}")


def _string_list(obj: dict, key: str) -> list[str]:
    value = obj[key]
    if not isinstance(value, list) or any(not isinstance(v, str) for v in value):
        raise AnswerSchemaError(f"key {key!r} must be a list of strings")
    return value


def _dedupe(values: list[str]) -> list[str]:
    seen: set[str] = set()
    out: list[str] = []
    for v in values:
        if v and v not in seen:
            seen.add(v)
            out.append(v)
    return out


def parse_answer(raw: str, item: OptionItem) -> tuple[Answer, list[str]]:
    """Extract and validate the first JSON object in raw; returns (answer, warnings).

    Selections outside the item's option lists are dropped with a warning, never
    kept; duplicates collapse to first occurrence.
    """
    obj = _first_json(raw, dict, AnswerParseError, "model output")
    missing = [k for k in ANSWER_KEYS if k not in obj]
    if missing:
        raise AnswerSchemaError(f"missing required keys {missing}")
    if not isinstance(obj["reasoning"], str):
        raise AnswerSchemaError("key 'reasoning' must be a string")

    warnings: list[str] = []

    def filtered(key: str, options: list[str]) -> list[str]:
        kept = []
        for v in _dedupe(_string_list(obj, key)):
            if v in options:
                kept.append(v)
            else:
                warnings.append(f"{key}: dropped out-of-option value {v!r}")
        return kept

    answer = Answer(
        clinical_features=_dedupe(_string_list(obj, "clinical_features")),
        pathogenesis=filtered("pathogenesis", item.pathogenesis_options),
        syndromes=filtered("syndromes", item.syndrome_options),
        reasoning=obj["reasoning"],
    )
    return answer, warnings


def serialize_answer(answer: Answer) -> str:
    return json.dumps(vars(answer), ensure_ascii=False)
