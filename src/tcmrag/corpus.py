"""Clinical case / chunk data model, corpus file IO, and chunking strategies."""
from __future__ import annotations

import json
import unicodedata
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path


class CorpusError(ValueError):
    """Malformed corpus file or invariant violation."""


class ChunkingError(ValueError):
    """Bad chunking parameters or an empty text."""


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


# What a record line's value must be, by the annotation of the dataclass field it fills.
_VALUE_RULES = {
    "str": ("a string", lambda v: isinstance(v, str)),
    "list[str]": ("an array of strings",
                  lambda v: isinstance(v, list) and all(isinstance(s, str) for s in v)),
}


def _read_records(path: str | Path, shape: type | tuple[str, ...], error: type[Exception]):
    """Yield (lineno, record) for each non-blank line; raise `error`, naming `path:lineno`,
    unless the line is a JSON object of `shape`. A dataclass `shape` takes a key per field,
    optional if the field has a default, and a value of the field's annotation; a tuple
    `shape` takes exactly its keys, of any value."""
    if isinstance(shape, tuple):
        required, optional, rules = shape, (), []
    else:
        optional = tuple(f.name for f in fields(shape)
                         if f.default is not MISSING or f.default_factory is not MISSING)
        required = tuple(f.name for f in fields(shape) if f.name not in optional)
        rules = [(f.name, *_VALUE_RULES[f.type]) for f in fields(shape)]
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
            for name, kind, ok in rules:
                if name in rec and not ok(rec[name]):
                    raise error(f"{path}:{lineno}: {name} must be {kind}")
            yield lineno, rec


def load_corpus(path: str | Path) -> list[ClinicalCase]:
    """Read a line-delimited JSON corpus file into validated cases (order kept)."""
    cases: list[ClinicalCase] = []
    seen: set[str] = set()
    for lineno, rec in _read_records(path, ClinicalCase, CorpusError):
        where = f"{path}:{lineno}"
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


def _windows(text: str, ends, size: int, overlap: int, strategy: str,
             case_id: str) -> list[Chunk]:
    """Windows of `size` units of `text`, each next one starting `overlap` units before the
    last one ended. The units tile the text and are given by their end offsets. A
    TOKEN_CHUNK window short of the end ends instead after the last sentence-final unit
    among its last SNAP_LOOKBACK, if the next window still advances."""
    if not ends:
        raise ChunkingError("empty text")
    n = len(ends)
    snap = strategy == TOKEN_CHUNK
    chunks: list[Chunk] = []
    start = 0
    while True:
        end = min(start + size, n)
        if snap and end < n:
            for j in range(end - 1, max(start, end - 1 - SNAP_LOOKBACK), -1):
                if text[ends[j - 1]:ends[j]] in SENTENCE_ENDS:  # j > start >= 0
                    if j + 1 - overlap > start:
                        end = j + 1
                    break
        span = (ends[start - 1] if start else 0, ends[end - 1])
        chunks.append(Chunk(
            chunk_id=f"{case_id}#{len(chunks)}",
            case_id=case_id,
            text=text[span[0]:span[1]],
            char_span=span,
            strategy=strategy,
        ))
        if end == n:
            return chunks
        start = end - overlap


def chunk_overlap(text: str, window: int = DEFAULT_WINDOW, overlap: int = DEFAULT_OVERLAP,
                  case_id: str = "") -> list[Chunk]:
    """Sliding character windows with fixed overlap; spans in Unicode scalar values."""
    if not (0 <= overlap < window):
        raise ChunkingError(f"need 0 <= overlap < window, got overlap={overlap} window={window}")
    return _windows(text, range(1, len(text) + 1), window, overlap, OVERLAP_WINDOW, case_id)


def chunk_by_tokens(text: str, tokens: list[tuple[str, tuple[int, int]]],
                    max_tokens: int = DEFAULT_MAX_TOKENS,
                    overlap_tokens: int = DEFAULT_OVERLAP_TOKENS,
                    case_id: str = "") -> list[Chunk]:
    """Token-aligned windows; boundaries snap back to recent sentence-final punctuation.
    `tokens` must tile `text`, as `segment.cut`'s do."""
    if not (0 <= overlap_tokens < max_tokens):
        raise ChunkingError(
            f"need 0 <= overlap_tokens < max_tokens, got {overlap_tokens} vs {max_tokens}")
    return _windows(text, [e for _, (_, e) in tokens], max_tokens, overlap_tokens, TOKEN_CHUNK,
                    case_id)


def dump_chunks(chunks: list[Chunk], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for c in chunks:
            rec = dict(zip(CHUNK_KEYS, (c.chunk_id, c.case_id, c.text, *c.char_span, c.strategy)))
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")


def load_chunks(path: str | Path) -> list[Chunk]:
    return [Chunk(chunk_id=rec["chunk_id"], case_id=rec["case_id"], text=rec["text"],
                  char_span=(rec["start"], rec["end"]), strategy=rec["strategy"])
            for _, rec in _read_records(path, CHUNK_KEYS, CorpusError)]
