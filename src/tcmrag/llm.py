"""Chat-completion providers, retry/repair policy, and LLM-backed corpus cleaning."""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Protocol

from .corpus import ClinicalCase, _SURROGATE
from .prompt import ANSWER_KEYS, Answer, OptionItem, PromptBundle, _first_json, parse_answer
from .transport import PermanentError, post_json, with_retries

Message = tuple[str, str]  # (role, content)


class CleaningError(ValueError):
    """LLM cleaning output failed validation (format or coverage guard)."""


@dataclass(frozen=True)
class GenerationParams:
    temperature: float = 0.0
    max_tokens: int = 1024

    def __post_init__(self) -> None:
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")


class ChatProvider(Protocol):
    def send(self, messages: list[Message], params: GenerationParams) -> tuple[str, str]:
        """(text, finish_reason), or a transport.ProviderError; a TransientError is retried."""


def canonical_messages(messages: list[Message]) -> str:
    return json.dumps([{"role": r, "content": c} for r, c in messages],
                      ensure_ascii=False, sort_keys=True)


def messages_digest(messages: list[Message]) -> str:
    return hashlib.sha256(canonical_messages(messages).encode("utf-8")).hexdigest()


@dataclass
class CannedChatProvider:
    """Offline mock: SHA-256 of the serialized messages keys a canned response."""
    responses: dict[str, str]

    @classmethod
    def from_file(cls, path: str | Path) -> "CannedChatProvider":
        """Raises ValueError, naming the file, unless it holds one JSON object of UTF-8 strings."""
        with open(path, encoding="utf-8") as fh:
            try:
                responses = json.load(fh)
            except ValueError as exc:  # not JSON, or not UTF-8
                raise ValueError(f"{path}: not JSON: {exc}") from exc
        if not (isinstance(responses, dict)
                and all(isinstance(text, str) for text in responses.values())):
            raise ValueError(f"{path}: not a JSON object of canned responses (digest -> text)")
        # json.load makes a lone surrogate of an escape such as "\\ud800"
        if any(_SURROGATE.search(text) for text in responses.values()):
            raise ValueError(f"{path}: a canned response holds a lone surrogate")
        return cls(responses=responses)

    def send(self, messages: list[Message], params: GenerationParams) -> tuple[str, str]:
        key = messages_digest(messages)
        if key not in self.responses:
            raise PermanentError(f"no canned response for digest {key}")
        return self.responses[key], "stop"


@dataclass
class FnChatProvider:
    """Mock backed by a pure function of the messages; for tests and offline runs."""
    fn: Callable[[list[Message]], str]

    def send(self, messages: list[Message], params: GenerationParams) -> tuple[str, str]:
        return self.fn(messages), "stop"


@dataclass
class HttpChatProvider:
    url: str
    model: str
    api_key_env: str = "CHAT_API_KEY"
    timeout: float = 60.0

    def send(self, messages: list[Message], params: GenerationParams) -> tuple[str, str]:
        body = {
            "model": self.model,
            "messages": [{"role": r, "content": c} for r, c in messages],
            "temperature": params.temperature,
            "max_tokens": params.max_tokens,
        }
        return post_json(self.url, body, self.api_key_env, self.timeout, _first_choice)


def _first_choice(reply) -> tuple[str, str]:
    choice = reply["choices"][0]
    content = choice["message"]["content"]
    if not isinstance(content, str):
        raise ValueError(f"message content is {type(content).__name__}, not a string")
    if _SURROGATE.search(content):
        raise ValueError("message content holds a lone surrogate")
    return content, choice.get("finish_reason", "stop")


def complete(provider: ChatProvider, messages: list[Message], warnings: list[str],
             params: GenerationParams = GenerationParams()) -> str:
    """One completion with up to 3 retries (1s/2s/4s) on transient failures.

    Auth/config (4xx) errors never retry. A finish reason other than stop (a truncated
    reply, say) is appended to `warnings`, never a silent cut.
    """
    if not messages:
        raise ValueError("messages must be non-empty")
    if messages[0][0] not in ("system", "user"):
        raise ValueError("first message role must be system or user")
    text, finish_reason = with_retries(lambda: provider.send(messages, params))
    if finish_reason not in ("stop", ""):
        warnings.append(f"completion flagged finish_reason={finish_reason!r}")
    return text


_SPLIT_SYSTEM = (
    "你是中医医案整理助手。用户给出的是多则医案连写的原始文本。"
    "请将其拆分为独立医案，逐字保留原文内容，不要改写、补充或删减。"
)
_SPLIT_FORMAT = "只输出一个 JSON 数组，每个元素是一则完整医案的原文字符串。"

_EXTRACT_SYSTEM = (
    "你是中医医案结构化助手。请从给定医案原文中抽取字段，过滤无关符号，"
    "不要虚构内容。"
)
_EXTRACT_FORMAT = (
    '只输出一个 JSON 对象，键为 "patient_background", "clinical_info", '
    '"pathogenesis", "syndromes", "doctor_notes"；其中 syndromes 是字符串数组，'
    "缺失的字段用空值。"
)

_ANSWER_REPAIR = ("上一次输出无法解析（{}）。请严格按要求重新输出 JSON 对象，"
                  f"键为 {', '.join(ANSWER_KEYS)}。")

COVERAGE_THRESHOLD = 0.8
_CLEANING = "cleaning output"  # a cleaning reply, as its parse errors name it


def _complete_repaired(provider: ChatProvider, messages: list[Message],
                       read: Callable[[str], object], repair_note: Callable[[ValueError], str],
                       warnings: list[str], params: GenerationParams = GenerationParams()):
    """read() of the reply. When read raises ValueError, one repair turn sends the reply
    back with repair_note(error), and read() of the second reply is returned or raises.
    Each reply's finish-reason warning is in `warnings` before read() sees the reply."""
    raw = complete(provider, messages, warnings, params)
    try:
        return read(raw)
    except ValueError as exc:
        messages = messages + [("assistant", raw), ("user", repair_note(exc))]
    return read(complete(provider, messages, warnings, params))


def _strip_ws(text: str) -> str:
    return "".join(text.split())


def split_cases(provider: ChatProvider, blob: str, warnings: list[str]) -> list[str]:
    """Split a concatenated multi-case blob into individual case texts.

    The provider must return a JSON array; one repair retry re-states the format.
    A coverage guard rejects outputs that rewrite rather than split: the returned
    pieces must cover >= 80% of the blob's non-whitespace characters.
    """
    if not blob:
        raise ValueError("blob must be non-empty")
    messages: list[Message] = [("system", _SPLIT_SYSTEM),
                               ("user", blob + "\n\n" + _SPLIT_FORMAT)]
    items = _complete_repaired(provider, messages,
                               lambda raw: _first_json(raw, list, CleaningError, _CLEANING),
                               lambda exc: _SPLIT_FORMAT, warnings)
    if not items or any(not isinstance(x, str) or not x.strip() for x in items):
        raise CleaningError("cleaning output must be a non-empty array of non-empty strings")

    blob_stripped = _strip_ws(blob)
    covered = sum(len(_strip_ws(x)) for x in items if _strip_ws(x) in blob_stripped)
    if blob_stripped and covered / len(blob_stripped) < COVERAGE_THRESHOLD:
        raise CleaningError(
            f"coverage guard: split output covers {covered}/{len(blob_stripped)} "
            f"non-whitespace chars (< {COVERAGE_THRESHOLD:.0%}); refusing rewritten text")
    return [x.strip() for x in items]


def extract_fields(provider: ChatProvider, raw_case: str,
                   warnings: list[str]) -> ClinicalCase:
    """Extract structured case fields from one raw case text (case_id left empty)."""
    if not raw_case:
        raise ValueError("raw_case must be non-empty")
    messages: list[Message] = [("system", _EXTRACT_SYSTEM),
                               ("user", raw_case + "\n\n" + _EXTRACT_FORMAT)]
    obj = _complete_repaired(provider, messages,
                             lambda raw: _first_json(raw, dict, CleaningError, _CLEANING),
                             lambda exc: _EXTRACT_FORMAT, warnings)

    def text_field(key: str) -> str:
        value = obj.get(key) or ""
        if not isinstance(value, str):
            raise CleaningError(f"field {key!r} must be a string")
        return value.strip()

    clinical_info = text_field("clinical_info")
    if not clinical_info:
        raise CleaningError("extracted case has empty clinical_info")
    syndromes = obj.get("syndromes") or []
    if not isinstance(syndromes, list) or any(not isinstance(s, str) for s in syndromes):
        raise CleaningError("field 'syndromes' must be an array of strings")
    return ClinicalCase(
        case_id="",
        patient_background=text_field("patient_background"),
        clinical_info=clinical_info,
        pathogenesis=text_field("pathogenesis"),
        syndromes=[s for s in (x.strip() for x in syndromes) if s],
        doctor_notes=text_field("doctor_notes"),
        raw_text=raw_case,
    )


def generate_answer(provider: ChatProvider, bundle: PromptBundle, item: OptionItem,
                    warnings: list[str], params: GenerationParams = GenerationParams()) -> Answer:
    """One completion parsed into an answer, its parse warnings appended to `warnings`; if
    the answer fails to parse, exactly one repair retry with the parse error appended,
    whose AnswerParseError propagates."""
    messages: list[Message] = [("system", bundle.system_text), ("user", bundle.user_text)]
    answer, parse_warnings = _complete_repaired(provider, messages,
                                                lambda raw: parse_answer(raw, item),
                                                _ANSWER_REPAIR.format, warnings, params)
    warnings.extend(parse_warnings)
    return answer
