"""Uniform completion interface over chat-completion HTTP APIs and a
deterministic mock, with a content-addressed append-only response log,
bounded retries with exponential backoff, and call accounting.
"""
from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Optional, Protocol

import requests

from .core import TripleSet
from .prompting import TABLE_HEADER, PromptFormat, serialize_triples

API_KEY_ENV = "TRIPLEFORGE_API_KEY"
RETRYABLE_STATUSES = frozenset({429, 500, 502, 503, 504})
CACHE_LOG = "completions.log"


class GatewayError(RuntimeError):
    """Completion failed for good (bad configuration or exhausted retries)."""

    def __init__(self, message: str, status: Optional[int] = None):
        super().__init__(message)
        self.status = status


class TransientProviderError(RuntimeError):
    """A retryable provider failure (rate limit, 5xx, connection trouble)."""

    def __init__(self, message: str, status: Optional[int] = None):
        super().__init__(message)
        self.status = status


@dataclass(frozen=True)
class LlmRequest:
    model_id: str
    prompt: str

    def __post_init__(self) -> None:
        if not self.prompt:
            raise ValueError("prompt must be non-empty")


@dataclass(frozen=True)
class LlmResponse:
    text: str
    from_cache: bool
    latency_ms: int
    provider: str


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
        lines = request.prompt.split("\n")
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
    """An HTTP endpoint that takes a JSON body and a bearer API key, shared by
    the remote completion and embedding providers.  A call returns the decoded
    body of a 200 reply; a connection failure, 429 or 5xx raises
    ``TransientProviderError`` and any other status ``GatewayError``."""

    def __init__(self, url: str, api_key: Optional[str] = None,
                 api_key_env: str = API_KEY_ENV, timeout: float = 60.0,
                 post: Callable = requests.post):
        if not url:
            raise GatewayError("HTTP provider requires an endpoint URL")
        key = api_key if api_key is not None else os.environ.get(api_key_env, "")
        if not key:
            raise GatewayError(f"missing API key: set the {api_key_env} environment variable")
        self._url = url
        self._key = key
        self._timeout = timeout
        self._post = post

    def __call__(self, payload: dict):
        try:
            response = self._post(self._url, json=payload, timeout=self._timeout,
                                  headers={"Authorization": f"Bearer {self._key}"})
        except requests.RequestException as exc:
            raise TransientProviderError(f"connection failure: {exc}") from exc
        if response.status_code in RETRYABLE_STATUSES:
            raise TransientProviderError(f"HTTP {response.status_code}", status=response.status_code)
        if response.status_code != 200:
            raise GatewayError(f"HTTP {response.status_code}: {response.text[:200]}",
                               status=response.status_code)
        return response.json()


class HttpChatProvider:
    """Chat-completions provider: POSTs ``{model, messages, temperature: 0}``
    and reads ``choices[0].message.content``."""

    def __init__(self, endpoint_url: str, api_key: Optional[str] = None,
                 api_key_env: str = API_KEY_ENV, timeout: float = 60.0,
                 post: Callable = requests.post, name: str = "http"):
        self.name = name
        self._endpoint = JsonEndpoint(endpoint_url, api_key, api_key_env, timeout, post)

    def generate(self, request: LlmRequest) -> str:
        body = self._endpoint({
            "model": request.model_id,
            "messages": [{"role": "user", "content": request.prompt}],
            "temperature": 0.0,
        })
        try:
            return body["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise GatewayError(f"malformed completion response: {exc}") from exc


@dataclass
class GatewayStats:
    provider_calls: int = 0
    cache_hits: int = 0
    retries: int = 0
    unreadable_cache_entries: int = 0  # treated as misses and regenerated


class LlmGateway:
    """Caching, retrying front end over a completion provider.

    Responses are cached in one append-only log, ``cache_dir/completions.log``.
    Each line is the 64-hex cache key, a tab, and the compact JSON entry
    ``{"model_id", "provider", "text"}``; the last line for a key wins.  The
    log is read into memory once, on first use, and an entry is decoded only
    when its key is looked up.  A miss appends its line with one ``O_APPEND``
    write under the gateway lock.  At most ``concurrency`` provider calls are
    in flight at once.
    """

    def __init__(self, provider: CompletionProvider, cache_dir: str | Path,
                 max_attempts: int = 3, backoff_base: float = 0.5,
                 concurrency: int = 4, sleep: Callable[[float], None] = time.sleep):
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        self.provider = provider
        self.cache_dir = Path(cache_dir)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self.cache_log = self.cache_dir / CACHE_LOG
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base
        self._sleep = sleep
        self._slots = threading.Semaphore(concurrency)
        self._lock = threading.Lock()
        # key bytes -> raw entry bytes; None until the log is first read
        self._index: Optional[dict[bytes, bytes]] = None
        # the log ends in a line torn by a crash mid-append
        self._torn_tail = False
        self.stats = GatewayStats()

    def cache_key(self, request: LlmRequest) -> str:
        """SHA-256 over the response-determining request content; stable
        across runs and platforms.  Requests are always greedy and unstopped;
        the two literals keep the keys of existing completion logs."""
        material = json.dumps(
            {
                "provider": self.provider.name,
                "model_id": request.model_id,
                "prompt": request.prompt,
                "temperature": 0.0,
                "stop_sequences": [],
            },
            sort_keys=True,
            ensure_ascii=True,
        )
        return hashlib.sha256(material.encode("utf-8")).hexdigest()

    def _loaded_index(self) -> dict[bytes, bytes]:
        """The log's entries by key, read on first use.  Call with the lock
        held."""
        if self._index is None:
            try:
                data = self.cache_log.read_bytes()
            except FileNotFoundError:
                data = b""
            self._torn_tail = bool(data) and not data.endswith(b"\n")
            # JSON escapes control characters, so a newline only ends a line
            self._index = {line[:64]: line[65:] for line in data.split(b"\n") if line}
        return self._index

    def _read_cache(self, key: bytes) -> Optional[str]:
        """Cached text, or None on a miss.  An entry that cannot be parsed
        (truncated JSON, no ``"text"``) is counted and treated as a miss, so
        the completion is regenerated and its new line shadows the bad one."""
        with self._lock:
            raw = self._loaded_index().get(key)
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
            index = self._loaded_index()
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
            index[key] = entry

    def complete(self, request: LlmRequest) -> LlmResponse:
        key = self.cache_key(request).encode("ascii")
        cached = self._read_cache(key)
        if cached is not None:
            with self._lock:
                self.stats.cache_hits += 1
            return LlmResponse(text=cached, from_cache=True, latency_ms=0,
                               provider=self.provider.name)

        last_error: Optional[TransientProviderError] = None
        started = time.monotonic()
        for attempt in range(self.max_attempts):
            if attempt > 0:
                self._sleep(self.backoff_base * (2 ** (attempt - 1)))
                with self._lock:
                    self.stats.retries += 1
            try:
                with self._slots:
                    with self._lock:
                        self.stats.provider_calls += 1
                    text = self.provider.generate(request)
            except TransientProviderError as exc:
                last_error = exc
                continue
            self._write_cache(key, request, text)
            latency = int((time.monotonic() - started) * 1000)
            return LlmResponse(text=text, from_cache=False, latency_ms=latency,
                               provider=self.provider.name)
        assert last_error is not None
        raise GatewayError(
            f"provider failed after {self.max_attempts} attempts: {last_error}",
            status=last_error.status,
        )
