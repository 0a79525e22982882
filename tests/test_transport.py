from __future__ import annotations

from types import SimpleNamespace

import pytest
import requests

from tcmrag import transport
from tcmrag.dense import HttpEmbedProvider
from tcmrag.llm import CannedChatProvider, HttpChatProvider, complete, messages_digest
from tcmrag.retrieve import HttpRerankProvider

EMBED_URL = "http://embed.test/v1/embeddings"
RERANK_URL = "http://rerank.test/v1/rerank"
CHAT_URL = "http://chat.test/v1/chat/completions"
MSGS = [("system", "s"), ("user", "u")]


def embed_call():
    return HttpEmbedProvider(url=EMBED_URL, model="m").embed_raw("文本")


def rerank_call():
    return HttpRerankProvider(url=RERANK_URL, model="m").rerank("问", ["甲", "乙"])


def chat_call():
    return complete(HttpChatProvider(url=CHAT_URL, model="m"), MSGS, [])


def canned_call():
    return complete(CannedChatProvider(responses={}), MSGS, [])


# Each failure: the call, the reply every request gets (or the exception it raises), the
# error's class, what its message names, the requests sent and the waits between them. Embedding and chat retry a
# transient failure three times; rerank makes one attempt, as fusion is its fallback.
BACKOFF = [1.0, 2.0, 4.0]
FAILURES = {
    "embed 4xx": (embed_call, (401, None), transport.PermanentError, EMBED_URL, 1, []),
    "embed 5xx": (embed_call, (503, None), transport.TransientError, EMBED_URL, 4, BACKOFF),
    "embed malformed": (embed_call, (200, {"data": []}), transport.TransientError, EMBED_URL,
                        4, BACKOFF),
    "embed unreachable": (embed_call, requests.ConnectionError("refused"),
                          transport.TransientError, EMBED_URL, 4, BACKOFF),
    "rerank 4xx": (rerank_call, (403, None), transport.PermanentError, RERANK_URL, 1, []),
    "rerank 5xx": (rerank_call, (500, None), transport.TransientError, RERANK_URL, 1, []),
    "rerank malformed": (rerank_call, (200, {"results": [{"index": 0}]}),
                         transport.TransientError, RERANK_URL, 1, []),
    "chat 4xx": (chat_call, (429, None), transport.PermanentError, CHAT_URL, 1, []),
    "chat 5xx": (chat_call, (502, None), transport.TransientError, CHAT_URL, 4, BACKOFF),
    "canned digest miss": (canned_call, (200, None), transport.PermanentError,
                           messages_digest(MSGS), 0, []),
}


@pytest.mark.parametrize("case", list(FAILURES))
def test_every_provider_failure_is_one_provider_error(case, monkeypatch, slept):
    call, reply, kind, named, requests_sent, delays = FAILURES[case]
    posted = []

    def post(url, json, headers, timeout):
        posted.append(url)
        if isinstance(reply, Exception):
            raise reply
        return SimpleNamespace(status_code=reply[0], json=lambda: reply[1])

    monkeypatch.setattr(requests, "post", post)
    with pytest.raises(transport.ProviderError) as exc:
        call()
    assert type(exc.value) is kind
    assert named in str(exc.value)
    assert ("after 3 retries" in str(exc.value)) == (requests_sent == 4)
    assert len(posted) == requests_sent  # each request
    assert slept == delays  # each retry
