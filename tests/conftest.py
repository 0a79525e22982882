from __future__ import annotations

import json
from pathlib import Path

import pytest

from tcmrag import transport
from tcmrag.corpus import OVERLAP_WINDOW, TOKEN_CHUNK, load_corpus
from tcmrag.dense import StubEmbedProvider
from tcmrag.engine import build_indexes, chunk_corpus, make_tokenizer
from tcmrag.evalharness import load_tasks
from tcmrag.prompt import TemplateSet
from tcmrag.retrieve import RetrieverDeps
from tcmrag.segment import load_hmm, load_lexicon

DATA = Path(__file__).resolve().parent.parent / "data"


@pytest.fixture(autouse=True)
def slept(monkeypatch) -> list[float]:
    """The retry policy's waits, recorded instead of slept, so that no test waits."""
    delays: list[float] = []
    monkeypatch.setattr(transport, "sleep", delays.append)
    return delays


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA


@pytest.fixture(scope="session")
def lexicon():
    return load_lexicon(DATA / "lexicon.txt")


@pytest.fixture(scope="session")
def hmm():
    return load_hmm(DATA / "hmm_model.json")


@pytest.fixture(scope="session")
def templates():
    return TemplateSet.load(DATA / "templates")


@pytest.fixture(scope="session")
def sample_cases():
    return load_corpus(DATA / "sample_corpus.jsonl")


@pytest.fixture(scope="session")
def sample_retrievers(sample_cases, lexicon, hmm) -> dict[str, RetrieverDeps]:
    """Stub retrievers over the sample corpus by chunking strategy, built as `index`
    builds them."""
    tokenize = make_tokenizer(lexicon, hmm)
    embedder = StubEmbedProvider(tokenize=tokenize)
    retrievers = {}
    for strategy in (OVERLAP_WINDOW, TOKEN_CHUNK):
        chunks = chunk_corpus(sample_cases, strategy, lexicon, hmm)
        dense_index, kw_index = build_indexes(chunks, tokenize, embedder)
        retrievers[strategy] = RetrieverDeps(tokenize=tokenize, embedder=embedder,
                                             dense_index=dense_index, kw_index=kw_index,
                                             chunk_texts={c.chunk_id: c.text for c in chunks})
    return retrievers


@pytest.fixture(scope="session")
def task_items():
    return load_tasks(DATA / "tasks.jsonl")


@pytest.fixture(scope="session")
def planted():
    with open(DATA / "planted" / "planted_corpus.json", encoding="utf-8") as fh:
        return json.load(fh)
