from __future__ import annotations

import json
from pathlib import Path

import pytest

from tcmrag import transport
from tcmrag.corpus import load_corpus
from tcmrag.evalharness import load_tasks
from tcmrag.prompt import TemplateSet
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
def task_items():
    return load_tasks(DATA / "tasks.jsonl")


@pytest.fixture(scope="session")
def planted():
    with open(DATA / "planted" / "planted_corpus.json", encoding="utf-8") as fh:
        return json.load(fh)
