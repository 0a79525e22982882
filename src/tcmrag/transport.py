"""The one HTTP call-and-retry policy shared by the embedding, rerank and chat providers."""
from __future__ import annotations

import os
from typing import Any, Callable

import requests

BACKOFF_SECONDS = (1.0, 2.0, 4.0)
RETRIES = len(BACKOFF_SECONDS)


class TransientError(RuntimeError):
    """Retryable failure: transport error, HTTP 5xx, or a body the caller cannot read."""


class PermanentError(RuntimeError):
    """The provider rejected the request (HTTP 4xx); retrying cannot help."""


def post_json(url: str, body: dict, api_key_env: str, timeout: float,
              extract: Callable[[Any], Any]) -> Any:
    """POST body with a bearer key; `extract` reads the decoded reply and signals an
    unreadable one by raising LookupError, TypeError, ValueError or OverflowError (an
    integer too large for a float)."""
    headers = {"Authorization": f"Bearer {os.environ.get(api_key_env, '')}"}
    try:
        resp = requests.post(url, json=body, headers=headers, timeout=timeout)
    except OSError as exc:  # requests.RequestException is an OSError
        raise TransientError(f"transport failure: {exc}") from exc
    if 400 <= resp.status_code < 500:
        raise PermanentError(f"HTTP {resp.status_code}")
    if resp.status_code >= 500:
        raise TransientError(f"server failure: HTTP {resp.status_code}")
    try:
        return extract(resp.json())
    except (LookupError, TypeError, ValueError, OverflowError) as exc:
        raise TransientError(f"malformed response body: {exc!r}") from exc


def with_retries(call: Callable[[], Any], sleep: Callable[[float], None],
                 on_retry: Callable[[], None] = lambda: None) -> Any:
    """call(), retried after 1, 2 and 4 s on TransientError; the last failure propagates."""
    for delay in BACKOFF_SECONDS:
        try:
            return call()
        except TransientError:
            on_retry()
            sleep(delay)
    return call()
