"""Clinical case / chunk data model, corpus file IO, and chunking strategies."""
from __future__ import annotations

import json
import re
import unicodedata
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import _block


class CorpusError(ValueError):
    """Malformed corpus file or invariant violation."""


class ChunkingError(ValueError):
    """Bad chunking parameters or an empty text."""


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


# What a record line's value must be, by the annotation of the dataclass field it fills,
# and its strings as one text, which UTF-8 must encode.
_VALUE_RULES = {
    "str": ("a string", lambda v: isinstance(v, str), str),
    "list[str]": ("an array of strings",
                  lambda v: isinstance(v, list) and all(isinstance(s, str) for s in v), "".join),
}
_SURROGATE = re.compile(r"[\ud800-\udfff]")  # what UTF-8 cannot encode


def _read_records(path: str | Path, shape: type, error: type[Exception]):
    """Yield (lineno, record) for each non-blank line; raise `error`, naming `path:lineno`,
    unless the line is a JSON object of the dataclass `shape`: a key per field, optional if
    the field has a default, and a value of the field's annotation that UTF-8 can encode."""
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
            escaped = "\\u" in line  # only a \u escape puts a lone surrogate in a record
            for name, kind, ok, text in rules:
                if name in rec and not ok(rec[name]):
                    raise error(f"{path}:{lineno}: {name} must be {kind}")
                if escaped and name in rec and _SURROGATE.search(text(rec[name])):
                    raise error(f"{path}:{lineno}: {name} holds a lone surrogate")
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
    """Write the cases, or raise CorpusError for an invalid one before touching `path`.
    A case made in memory may hold a lone surrogate, which `_read_records` refuses in a file."""
    for case in cases:
        validate_case(case)
        for name, value in vars(case).items():
            try:  # UTF-8 refuses exactly what _SURROGATE matches, and faster than it scans
                (value if type(value) is str else "".join(value)).encode("utf-8")
            except UnicodeEncodeError:
                raise CorpusError(f"case {case.case_id!r}: {name} holds a lone "
                                  f"surrogate") from None
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


# the header fields: chunk count, byte lengths of the head and of the text run; then the
# head (JSON: {"strategy": ..., "chunk_ids": [...], "case_ids": [...]}, the ids in the
# order the chunks were given), every chunk's text end to end as one UTF-8 run, and the
# chunks' starts, then their ends, as <i8
_FORMAT = _block.BlockFormat(b"TCMRAGCHUNK\0", 1, "IQQ", "chunk", "spans", CorpusError)


def dump_chunks(chunks: list[Chunk], path: str | Path) -> None:
    """Write the chunks as one block (see `_FORMAT`), or raise CorpusError before touching
    `path` for a chunk `load_chunks` would refuse (a text not its span's length, an empty or
    negative span, a second strategy) or whose strings UTF-8 cannot encode."""
    strategy = chunks[0].strategy if chunks else None  # held once, for every chunk
    if strategy not in (None, OVERLAP_WINDOW, TOKEN_CHUNK):
        raise CorpusError(f"unknown chunking strategy {strategy!r}")
    for c in chunks:
        start, end = c.char_span
        if not 0 <= start < end or len(c.text) != end - start:
            raise CorpusError(f"chunk {c.chunk_id!r}: text of {len(c.text)} characters for "
                              f"span {c.char_span}")
        if c.strategy != strategy:
            raise CorpusError(f"chunk {c.chunk_id!r}: strategy {c.strategy!r} among "
                              f"{strategy!r} chunks")
    try:
        head = json.dumps({"strategy": strategy, "chunk_ids": [c.chunk_id for c in chunks],
                           "case_ids": [c.case_id for c in chunks]},
                          ensure_ascii=False).encode("utf-8")
        text = "".join(c.text for c in chunks).encode("utf-8")
    except UnicodeEncodeError:
        bad = next(c for c in chunks if _SURROGATE.search(c.chunk_id + c.case_id + c.text))
        raise CorpusError(f"chunk {bad.chunk_id!r}: its id, case id or text holds a lone "
                          f"surrogate, which UTF-8 cannot encode") from None
    spans = np.array([c.char_span for c in chunks], dtype="<i8").reshape(-1, 2)
    _FORMAT.write(path, (len(chunks), len(head), len(text)), head + text, spans.T.tobytes())


def _chunk_columns(path: str | Path):
    """(strategy, chunk ids, case ids, texts, starts, ends) of a block `dump_chunks` wrote:
    the texts are slices of the run by the spans' lengths, the starts and ends the rows of
    one int64 array. Raises CorpusError for a file that is not a whole, well-formed block."""
    with open(path, "rb") as fh:
        count, head_bytes, text_bytes = _FORMAT.read_header(
            fh, path, lambda count, head_bytes, text_bytes: head_bytes + text_bytes + 16 * count)
        head = _FORMAT.text_part(fh, path, head_bytes, "chunk head is", "JSON")
        text = _FORMAT.text_part(fh, path, text_bytes, "chunk texts are")
        starts, ends = _FORMAT.read_into(fh, path, np.empty((2, count), dtype="<i8"))
    if not (isinstance(head, dict) and head.keys() == {"strategy", "chunk_ids", "case_ids"}
            and all(isinstance(head[k], list) and len(head[k]) == count
                    and set(map(type, head[k])) <= {str} for k in ("chunk_ids", "case_ids"))):
        raise CorpusError(f"{path}: chunk head is not an object of {count} chunk ids and "
                          f"{count} case ids")
    strategy = head["strategy"]
    if strategy not in (OVERLAP_WINDOW, TOKEN_CHUNK) and not (count == 0 and strategy is None):
        raise CorpusError(f"{path}: unknown chunking strategy {strategy!r}")
    lengths = ends - starts  # cannot wrap once every start is at least 0
    if count and (starts.min() < 0 or lengths.min() <= 0):
        raise CorpusError(f"{path}: a span starts below 0 or does not end after its start")
    # each length at most the text's, so the sum cannot wrap
    if count and (lengths.max() > len(text) or lengths.sum() != len(text)):
        raise CorpusError(f"{path}: the span lengths do not sum to the texts' "
                          f"{len(text)} characters")
    bounds = np.cumsum(lengths).tolist()
    texts = [text[a:b] for a, b in zip([0, *bounds], bounds)]
    return strategy, head["chunk_ids"], head["case_ids"], texts, starts, ends


def load_chunks(path: str | Path) -> list[Chunk]:
    strategy, chunk_ids, case_ids, texts, starts, ends = _chunk_columns(path)
    return [Chunk(cid, case_id, text, span, strategy) for cid, case_id, text, span
            in zip(chunk_ids, case_ids, texts, zip(starts.tolist(), ends.tolist()))]
