"""Uniform completion interface over chat-completion HTTP APIs and a
deterministic mock, with a content-addressed append-only response log,
bounded retries with exponential backoff, and call accounting.
"""
from __future__ import annotations

import functools
import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable, Mapping, Optional, Protocol

from .core import TripleSet
from .prompting import TABLE_HEADER, PromptFormat, serialize_triples

API_KEY_ENV = "TRIPLEFORGE_API_KEY"
HTTP_TIMEOUT_S = 60.0
RETRYABLE_STATUSES = frozenset({429, 500, 502, 503, 504})
CACHE_LOG = "completions.log"


class GatewayError(RuntimeError):
    """Completion failed: bad configuration, a bad reply or exhausted retries.
    ``status`` is the HTTP status, when there is one."""

    def __init__(self, message: str, status: Optional[int] = None):
        super().__init__(message)
        self.status = status


class TransientProviderError(GatewayError):
    """A retryable provider failure (rate limit, 5xx, connection trouble)."""


@dataclass(frozen=True)
class LlmRequest:
    """One completion request.  ``prefix`` is a leading part of ``prompt``
    that other requests of a batch share, such as the demonstration block;
    the gateway escapes and hashes it once for all of them.  It never
    changes the cache key."""

    model_id: str
    prompt: str
    prefix: str = ""

    def __post_init__(self) -> None:
        if not self.prompt:
            raise ValueError("prompt must be non-empty")
        if not self.prompt.startswith(self.prefix):
            raise ValueError("prefix must be a leading part of prompt")


@dataclass(frozen=True)
class LlmResponse:
    text: str
    from_cache: bool


class CompletionProvider(Protocol):
    name: str

    def generate(self, request: LlmRequest) -> str: ...


class MockEchoGoldProvider:
    """Pure-function provider for offline runs: answers any prompt with the
    serialized gold triples of the sentence being queried.

    The query sentence is recovered positionally: the last prompt line, or
    the one above it when the prompt ends with the table header.  Unknown
    sentences and empty gold produce an empty completion.
    """

    name = "mock"

    def __init__(self, gold_by_text: Mapping[str, TripleSet],
                 fmt: PromptFormat = PromptFormat.TABLEIE):
        self._gold = dict(gold_by_text)
        self._fmt = fmt

    def generate(self, request: LlmRequest) -> str:
        # the last two lines, without splitting the demonstration block
        lines = request.prompt.rsplit("\n", 2)
        if lines[-1] == TABLE_HEADER and len(lines) >= 2:
            # a header-terminated prompt asks for table rows whatever the
            # few-shot format configured for this provider
            sentence, fmt = lines[-2], PromptFormat.TABLEIE
        else:
            sentence, fmt = lines[-1], self._fmt
        gold = self._gold.get(sentence)
        if gold is None or len(gold) == 0:
            return ""
        return serialize_triples(fmt, gold)


class JsonEndpoint:
    """A JSON-over-HTTP endpoint with a bearer API key, for the HTTP providers.
    A call returns the decoded body of a 200 reply; a connection failure, 429
    or 5xx raises ``TransientProviderError``, any other status or a body that
    is not JSON ``GatewayError``.  The first call imports ``requests``."""

    def __init__(self, url: str, api_key: Optional[str] = None,
                 post: Optional[Callable] = None):
        if not url:
            raise GatewayError("HTTP provider requires an endpoint URL")
        key = api_key if api_key is not None else os.environ.get(API_KEY_ENV, "")
        if not key:
            raise GatewayError(f"missing API key: set the {API_KEY_ENV} environment variable")
        self._url = url
        self._key = key
        self._post = post

    def __call__(self, payload: dict):
        import requests
        post = self._post or requests.post
        try:
            response = post(self._url, json=payload, timeout=HTTP_TIMEOUT_S,
                            headers={"Authorization": f"Bearer {self._key}"})
        except requests.RequestException as exc:
            raise TransientProviderError(f"connection failure: {exc}") from exc
        if response.status_code in RETRYABLE_STATUSES:
            raise TransientProviderError(f"HTTP {response.status_code}", status=response.status_code)
        if response.status_code != 200:
            raise GatewayError(f"HTTP {response.status_code}: {response.text[:200]}",
                               status=response.status_code)
        try:
            return response.json()
        except ValueError as exc:
            raise GatewayError(f"reply is not JSON: {exc}") from exc


class HttpChatProvider:
    """Chat-completions provider: POSTs ``{model, messages, temperature: 0}``
    and reads ``choices[0].message.content``."""

    name = "http"

    def __init__(self, endpoint_url: str, api_key: Optional[str] = None,
                 post: Optional[Callable] = None):
        self._endpoint = JsonEndpoint(endpoint_url, api_key, post)

    def generate(self, request: LlmRequest) -> str:
        body = self._endpoint({
            "model": request.model_id,
            "messages": [{"role": "user", "content": request.prompt}],
            "temperature": 0.0,
        })
        try:
            text = body["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise GatewayError(f"malformed completion response: {exc}") from exc
        if not isinstance(text, str):  # JSON null, a list of parts, a number
            raise GatewayError(
                f"malformed completion response: content is {type(text).__name__}, not str")
        return text


@functools.lru_cache(maxsize=1)
def _key_head(model_id: str, prefix: str) -> hashlib._Hash:
    """The sha256 state after a cache key's head and the escaped ``prefix``.
    Callers copy it and never update it, so every gateway can share it."""
    head = (f'{{"model_id": {json.dumps(model_id)}, "prompt": '
            f'{encode_basestring_ascii(prefix)[:-1]}')
    return hashlib.sha256(head.encode("ascii"))


@dataclass
class GatewayStats:
    """Call accounting; a stage's manifest info records it under these names."""

    llm_calls: int = 0
    cache_hits: int = 0
    retries: int = 0
    unreadable_cache_entries: int = 0  # treated as misses and regenerated


class LlmGateway:
    """Caching, retrying front end over a completion provider.

    Responses are cached in one append-only log, ``cache_dir/completions.log``.
    Each line is the 64-hex cache key, a tab, and the compact JSON entry
    ``{"model_id", "provider", "text"}``; the last line for a key wins.  The
    log is read into memory once, when the gateway is built, and an entry is
    decoded only when its key is looked up.  A miss appends its line with one
    ``O_APPEND`` write under the gateway lock.  The caller bounds the calls
    in flight.
    """

    def __init__(self, provider: CompletionProvider, cache_dir: str | Path,
                 max_attempts: int = 3, backoff_base: float = 0.5,
                 sleep: Callable[[float], None] = time.sleep):
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.provider = provider
        self.cache_dir = Path(cache_dir)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self.cache_log = self.cache_dir / CACHE_LOG
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base
        self._sleep = sleep
        self._lock = threading.Lock()
        try:
            data = self.cache_log.read_bytes()
        except FileNotFoundError:
            data = b""
        # the log ends in a line torn by a crash mid-append
        self._torn_tail = bool(data) and not data.endswith(b"\n")
        # key bytes -> raw entry bytes; JSON escapes control characters, so a
        # newline only ends a line
        self._index = {line[:64]: line[65:] for line in data.split(b"\n") if line}
        self.stats = GatewayStats()

    def cache_key(self, request: LlmRequest) -> str:
        """SHA-256 over the response-determining request content; stable
        across runs and platforms.  Requests are always greedy and unstopped;
        the two literals keep the keys of existing completion logs.

        The hashed bytes are ``json.dumps`` of ``{"model_id", "prompt",
        "provider", "stop_sequences": [], "temperature": 0.0}`` with sorted
        keys and ASCII escapes.  That escaping maps each code point on its
        own, so the escaped prompt is the escaped prefix followed by the
        escaped rest: the hash of everything up to the end of the prefix is
        computed once for a run of requests with one model and prefix (see
        ``_key_head``), and copied for each of them."""
        digest = _key_head(request.model_id, request.prefix).copy()
        rest = encode_basestring_ascii(request.prompt[len(request.prefix):])[1:]
        digest.update(f'{rest}, "provider": {json.dumps(self.provider.name)}, '
                      f'"stop_sequences": [], "temperature": 0.0}}'.encode("ascii"))
        return digest.hexdigest()

    def _read_cache(self, key: bytes) -> Optional[str]:
        """Cached text, or None on a miss.  An entry that cannot be parsed
        (truncated JSON, no ``"text"``) is counted and treated as a miss, so
        the completion is regenerated and its new line shadows the bad one."""
        with self._lock:
            raw = self._index.get(key)
        if raw is None:
            return None
        try:
            entry = json.loads(raw)
        except (json.JSONDecodeError, UnicodeDecodeError):
            entry = None
        text = entry.get("text") if isinstance(entry, dict) else None
        if not isinstance(text, str):
            with self._lock:
                self.stats.unreadable_cache_entries += 1
            return None
        return text

    def _write_cache(self, key: bytes, request: LlmRequest, text: str) -> None:
        entry = json.dumps(
            {"model_id": request.model_id, "provider": self.provider.name, "text": text},
            ensure_ascii=False, sort_keys=True, separators=(",", ":"),
        ).encode("utf-8")
        line = key + b"\t" + entry + b"\n"
        with self._lock:
            if self._torn_tail:
                # end the torn line so that it cannot absorb this one
                line = b"\n" + line
            fd = os.open(self.cache_log, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
            try:
                # a write that fails part-way leaves a torn line behind
                self._torn_tail = True
                pending = memoryview(line)
                while pending:
                    pending = pending[os.write(fd, pending):]
                self._torn_tail = False
            finally:
                os.close(fd)
            self._index[key] = entry

    def complete(self, request: LlmRequest) -> LlmResponse:
        key = self.cache_key(request).encode("ascii")
        cached = self._read_cache(key)
        if cached is not None:
            with self._lock:
                self.stats.cache_hits += 1
            return LlmResponse(text=cached, from_cache=True)

        for attempt in range(self.max_attempts):
            if attempt > 0:
                self._sleep(self.backoff_base * (2 ** (attempt - 1)))
                with self._lock:
                    self.stats.retries += 1
            with self._lock:
                self.stats.llm_calls += 1
            try:
                text = self.provider.generate(request)
                break
            except TransientProviderError as exc:
                if attempt + 1 == self.max_attempts:
                    raise GatewayError(
                        f"provider failed after {self.max_attempts} attempts: {exc}",
                        status=exc.status) from exc
        self._write_cache(key, request, text)
        return LlmResponse(text=text, from_cache=False)
