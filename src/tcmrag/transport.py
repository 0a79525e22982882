"""The one HTTP call-and-retry policy shared by the embedding, rerank and chat providers,
and the one type their failures have."""
from __future__ import annotations

import os
import time
from typing import Any, Callable

import requests

BACKOFF_SECONDS = (1.0, 2.0, 4.0)
sleep = time.sleep  # how with_retries waits; tests replace it with a recorder


class ProviderError(RuntimeError):
    """A provider call failed; each message names the provider's URL (or canned digest)."""


class TransientError(ProviderError):
    """Retryable failure: transport error, HTTP 5xx, or a body the caller cannot read."""


class PermanentError(ProviderError):
    """The provider rejected the request (HTTP 4xx) or has no answer; retrying cannot help."""


def post_json(url: str, body: dict, api_key_env: str, timeout: float,
              extract: Callable[[Any], Any]) -> Any:
    """POST body with a bearer key; `extract` reads the decoded reply and signals an
    unreadable one by raising LookupError, TypeError, ValueError or OverflowError (an
    integer too large for a float)."""
    headers = {"Authorization": f"Bearer {os.environ.get(api_key_env, '')}"}
    try:
        resp = requests.post(url, json=body, headers=headers, timeout=timeout)
    except OSError as exc:  # requests.RequestException is an OSError
        raise TransientError(f"{url}: transport failure: {exc}") from exc
    if 400 <= resp.status_code < 500:
        raise PermanentError(f"{url}: HTTP {resp.status_code}")
    if resp.status_code >= 500:
        raise TransientError(f"{url}: server failure: HTTP {resp.status_code}")
    try:
        return extract(resp.json())
    except (LookupError, TypeError, ValueError, OverflowError) as exc:
        raise TransientError(f"{url}: malformed response body: {exc!r}") from exc


def with_retries(call: Callable[[], Any]) -> Any:
    """call(), retried after 1, 2 and 4 s on TransientError; the last failure propagates
    as a TransientError that says so."""
    for delay in BACKOFF_SECONDS:
        try:
            return call()
        except TransientError:
            sleep(delay)
    try:
        return call()
    except TransientError as exc:
        raise TransientError(f"{exc} (failed after {len(BACKOFF_SECONDS)} retries)") from exc
