"""Clinical case / chunk data model, corpus file IO, and chunking strategies."""
from __future__ import annotations

import json
import unicodedata
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path


class CorpusError(ValueError):
    """Malformed corpus file or invariant violation."""


class ChunkingError(ValueError):
    """Bad chunking parameters or token list inconsistent with text."""


CHUNK_KEYS = ("chunk_id", "case_id", "text", "start", "end", "strategy")

OVERLAP_WINDOW = "overlap_window"
TOKEN_CHUNK = "token_chunk"

# Sentence-final punctuation that token-chunk boundaries snap to.
SENTENCE_ENDS = frozenset("。！？；")
SNAP_LOOKBACK = 16

DEFAULT_WINDOW = 512
DEFAULT_OVERLAP = 128
DEFAULT_MAX_TOKENS = 256
DEFAULT_OVERLAP_TOKENS = 32


@dataclass
class ClinicalCase:
    case_id: str
    patient_background: str
    clinical_info: str
    pathogenesis: str
    syndromes: list[str]
    doctor_notes: str = ""
    source: str = ""
    raw_text: str = ""


@dataclass(frozen=True)
class Chunk:
    chunk_id: str
    case_id: str
    text: str
    char_span: tuple[int, int]
    strategy: str


def validate_case(case: ClinicalCase, where: str = "") -> None:
    ctx = f" ({where})" if where else ""
    if not case.case_id:
        raise CorpusError(f"empty case_id{ctx}")
    if any(sep in case.case_id for sep in "\t\n\r"):  # the index files' separators
        raise CorpusError(f"case {case.case_id!r}: tab or line break in case_id{ctx}")
    if not case.clinical_info:
        raise CorpusError(f"case {case.case_id!r}: empty clinical_info{ctx}")
    if any(not s for s in case.syndromes):
        raise CorpusError(f"case {case.case_id!r}: empty string in syndromes{ctx}")


def _record_keys(cls) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """A dataclass's field names as a record line's (required, optional) keys, in field
    order: a field with a default or a default factory is optional."""
    optional = tuple(f.name for f in fields(cls)
                     if f.default is not MISSING or f.default_factory is not MISSING)
    return tuple(f.name for f in fields(cls) if f.name not in optional), optional


def _read_records(path: str | Path, required: tuple[str, ...], optional: tuple[str, ...],
                  error: type[Exception]):
    """Yield (lineno, record) for each non-blank line; raise `error`, naming `path:lineno`,
    unless the line is a JSON object with every `required` key and no key outside
    `required + optional`."""
    needed, allowed = set(required), set(required + optional)
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise error(f"{path}:{lineno}: malformed JSON: {exc}") from exc
            if not (isinstance(rec, dict) and needed <= rec.keys() <= allowed):
                where = f"{path}:{lineno}"
                if not isinstance(rec, dict):
                    raise error(f"{where}: record is not an object")
                missing = [k for k in required if k not in rec]
                if missing:
                    raise error(f"{where}: missing keys {missing}")
                raise error(f"{where}: unknown keys {[k for k in rec if k not in allowed]}")
            yield lineno, rec


def load_corpus(path: str | Path) -> list[ClinicalCase]:
    """Read a line-delimited JSON corpus file into validated cases (order kept)."""
    cases: list[ClinicalCase] = []
    seen: set[str] = set()
    for lineno, rec in _read_records(path, *_record_keys(ClinicalCase), CorpusError):
        where = f"{path}:{lineno}"
        syndromes = rec["syndromes"]
        if not isinstance(syndromes, list) or any(not isinstance(s, str) for s in syndromes):
            raise CorpusError(f"{where}: syndromes must be an array of strings")
        case = ClinicalCase(**rec)
        validate_case(case, where=where)
        if case.case_id in seen:
            raise CorpusError(f"{where}: duplicate case_id {case.case_id!r}")
        seen.add(case.case_id)
        cases.append(case)
    return cases


def save_corpus(cases: list[ClinicalCase], path: str | Path) -> None:
    """Write the cases, or raise CorpusError for an invalid one before touching `path`."""
    for case in cases:
        validate_case(case)
    with open(path, "w", encoding="utf-8") as fh:
        for case in cases:
            fh.write(json.dumps(asdict(case), ensure_ascii=False) + "\n")


def case_document(case: ClinicalCase) -> str:
    """The retrievable text of a case: all narrative fields in a fixed order."""
    parts = [
        case.patient_background,
        case.clinical_info,
        case.pathogenesis,
        "、".join(case.syndromes) + "。" if case.syndromes else "",
        case.doctor_notes,
    ]
    return "\n".join(p for p in parts if p)


def render_demonstration(case: ClinicalCase) -> str:
    """Render a case as an in-context worked example."""
    lines = [
        f"[示例病案 {case.case_id}]",
        f"患者背景: {case.patient_background}",
        f"临床信息: {case.clinical_info}",
        f"病机: {case.pathogenesis}",
        f"证型: {'、'.join(case.syndromes)}",
    ]
    if case.doctor_notes:
        lines.append(f"按语: {case.doctor_notes}")
    return "\n".join(lines)


_FULLWIDTH = {code: code - 0xFEE0 for code in range(0xFF01, 0xFF5F)}
_FULLWIDTH[0x3000] = 0x20  # ideographic space


def normalize_text(raw: str) -> str:
    """Strip control chars, map full-width ASCII to half-width, collapse whitespace."""
    mapped = raw.translate(_FULLWIDTH)
    cleaned = "".join(ch for ch in mapped if ch.isspace() or unicodedata.category(ch) != "Cc")
    return " ".join(cleaned.split())


def chunk_overlap(text: str, window: int = DEFAULT_WINDOW, overlap: int = DEFAULT_OVERLAP,
                  case_id: str = "") -> list[Chunk]:
    """Sliding character windows with fixed overlap; spans in Unicode scalar values."""
    if not (0 <= overlap < window):
        raise ChunkingError(f"need 0 <= overlap < window, got overlap={overlap} window={window}")
    if not text:
        raise ChunkingError("empty text")
    stride = window - overlap
    chunks: list[Chunk] = []
    start = 0
    while True:
        end = min(start + window, len(text))
        ordinal = len(chunks)
        chunks.append(Chunk(
            chunk_id=f"{case_id}#{ordinal}",
            case_id=case_id,
            text=text[start:end],
            char_span=(start, end),
            strategy=OVERLAP_WINDOW,
        ))
        if end == len(text):
            break
        start += stride
    return chunks


def chunk_by_tokens(text: str, tokens: list[tuple[str, tuple[int, int]]],
                    max_tokens: int = DEFAULT_MAX_TOKENS,
                    overlap_tokens: int = DEFAULT_OVERLAP_TOKENS,
                    case_id: str = "") -> list[Chunk]:
    """Token-aligned windows; boundaries snap back to recent sentence-final punctuation."""
    if not (0 <= overlap_tokens < max_tokens):
        raise ChunkingError(
            f"need 0 <= overlap_tokens < max_tokens, got {overlap_tokens} vs {max_tokens}")
    pos = 0
    for tok, (s, e) in tokens:
        if s != pos or text[s:e] != tok:
            raise ChunkingError(f"token list inconsistent with text at offset {pos}")
        pos = e
    if pos != len(text):
        raise ChunkingError("tokens do not cover the full text")
    if not tokens:
        raise ChunkingError("empty text")

    chunks: list[Chunk] = []
    start = 0
    n = len(tokens)
    while start < n:
        end = min(start + max_tokens, n)
        if end < n:
            for j in range(end - 1, max(start, end - 1 - SNAP_LOOKBACK), -1):
                if tokens[j][0] in SENTENCE_ENDS:
                    # only snap if the next window still advances
                    if j + 1 - overlap_tokens > start:
                        end = j + 1
                    break
        span = (tokens[start][1][0], tokens[end - 1][1][1])
        ordinal = len(chunks)
        chunks.append(Chunk(
            chunk_id=f"{case_id}#{ordinal}",
            case_id=case_id,
            text=text[span[0]:span[1]],
            char_span=span,
            strategy=TOKEN_CHUNK,
        ))
        if end == n:
            break
        start = end - overlap_tokens
    return chunks


def dump_chunks(chunks: list[Chunk], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for c in chunks:
            rec = dict(zip(CHUNK_KEYS, (c.chunk_id, c.case_id, c.text, *c.char_span, c.strategy)))
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")


def load_chunks(path: str | Path) -> list[Chunk]:
    return [Chunk(chunk_id=rec["chunk_id"], case_id=rec["case_id"], text=rec["text"],
                  char_span=(rec["start"], rec["end"]), strategy=rec["strategy"])
            for _, rec in _read_records(path, CHUNK_KEYS, (), CorpusError)]
