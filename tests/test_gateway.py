import errno
import json
import os
import sys
import threading
import time

import pytest

from tripleforge.config import PipelineConfig
from tripleforge.core import TripleSet
from tripleforge.gateway import (
    CACHE_LOG,
    HTTP_TIMEOUT_S,
    GatewayError,
    HttpChatProvider,
    LlmGateway,
    LlmRequest,
    MockEchoGoldProvider,
    TransientProviderError,
)
from tripleforge.pipeline import _complete_all
from tripleforge.prompting import TABLE_HEADER, PromptFormat, render_zero_shot, serialize_triples
from tripleforge.similarity import HttpEmbeddingProvider

from conftest import make_triple


class CountingProvider:
    name = "counting"

    def __init__(self, reply="ok"):
        self.calls = 0
        self.reply = reply

    def generate(self, request):
        self.calls += 1
        return self.reply


class EchoProvider:
    """Answers each prompt with itself; safe to call from several threads."""

    name = "echo"

    def __init__(self):
        self.calls = 0
        self._lock = threading.Lock()

    def generate(self, request):
        with self._lock:
            self.calls += 1
        return f"echo:{request.prompt}"


class InFlightProvider:
    """Records the most ``generate`` calls that ran at once."""

    name = "in-flight"

    def __init__(self):
        self.running = self.peak = 0
        self._lock = threading.Lock()

    def generate(self, request):
        with self._lock:
            self.running += 1
            self.peak = max(self.peak, self.running)
        time.sleep(0.005)
        with self._lock:
            self.running -= 1
        return "ok"


class FlakyProvider:
    name = "flaky"

    def __init__(self, failures, status=429):
        self.failures = failures
        self.status = status
        self.calls = 0

    def generate(self, request):
        self.calls += 1
        if self.calls <= self.failures:
            raise TransientProviderError(f"HTTP {self.status}", status=self.status)
        return "recovered"


def request(prompt="hello", **kw):
    return LlmRequest(model_id="m1", prompt=prompt, **kw)


def log_lines(cache_dir):
    """(key, raw JSON entry) for each line of the completion log, in order."""
    text = (cache_dir / CACHE_LOG).read_text(encoding="utf-8")
    return [tuple(line.split("\t", 1)) for line in text.split("\n") if line]


def last_entry(cache_dir, key):
    """The raw entry of the last log line for ``key``: the one that wins."""
    return [raw for k, raw in log_lines(cache_dir) if k == key][-1]


class TestCacheAndRetry:
    def test_second_call_served_from_cache(self, tmp_path):
        provider = CountingProvider("answer")
        gw = LlmGateway(provider, tmp_path / "cache")
        first = gw.complete(request())
        second = gw.complete(request())
        assert not first.from_cache and second.from_cache
        assert first.text == second.text == "answer"
        assert provider.calls == 1
        assert gw.stats.llm_calls == 1 and gw.stats.cache_hits == 1

    def test_cache_persists_across_gateway_instances(self, tmp_path):
        gw1 = LlmGateway(CountingProvider("x"), tmp_path / "cache")
        gw1.complete(request())
        fresh = CountingProvider("should-not-be-called")
        gw2 = LlmGateway(fresh, tmp_path / "cache")
        assert gw2.complete(request()).text == "x"
        assert fresh.calls == 0

    def test_cache_file_is_inspectable_json(self, tmp_path):
        gw = LlmGateway(CountingProvider("body"), tmp_path / "cache")
        req = request()
        gw.complete(req)
        [(key, raw)] = log_lines(tmp_path / "cache")
        assert key == gw.cache_key(req)
        entry = json.loads(raw)
        assert entry["text"] == "body"
        assert raw == json.dumps({"model_id": "m1", "provider": "counting", "text": "body"},
                                 separators=(",", ":"))

    def test_transient_failures_retried_with_backoff(self, tmp_path):
        sleeps = []
        gw = LlmGateway(FlakyProvider(failures=2), tmp_path / "cache",
                        max_attempts=4, backoff_base=0.5, sleep=sleeps.append)
        assert gw.complete(request()).text == "recovered"
        assert sleeps == [0.5, 1.0]
        assert gw.stats.retries == 2

    def test_exhausted_retries_carry_last_status(self, tmp_path):
        gw = LlmGateway(FlakyProvider(failures=99, status=503), tmp_path / "cache",
                        max_attempts=3, sleep=lambda _: None)
        with pytest.raises(GatewayError, match="after 3 attempts") as err:
            gw.complete(request())
        assert err.value.status == 503

    def test_max_attempts_below_one_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="max_attempts must be >= 1"):
            LlmGateway(CountingProvider("x"), tmp_path / "cache", max_attempts=0)

    def test_failed_requests_not_cached(self, tmp_path):
        provider = FlakyProvider(failures=1)
        gw = LlmGateway(provider, tmp_path / "cache", max_attempts=1, sleep=lambda _: None)
        with pytest.raises(GatewayError):
            gw.complete(request())
        gw2 = LlmGateway(provider, tmp_path / "cache", max_attempts=2, sleep=lambda _: None)
        assert gw2.complete(request()).text == "recovered"


class TestCacheKey:
    def test_identical_requests_same_key(self, tmp_path):
        gw = LlmGateway(CountingProvider(), tmp_path)
        assert gw.cache_key(request()) == gw.cache_key(request())

    def test_one_char_prompt_difference(self, tmp_path):
        gw = LlmGateway(CountingProvider(), tmp_path)
        assert gw.cache_key(request("hello")) != gw.cache_key(request("hellp"))

    def test_key_bytes_pinned(self, tmp_path):
        # every completion log is addressed by these keys: a drift in the key
        # material turns each cached response into a miss
        gw = LlmGateway(MockEchoGoldProvider({}), tmp_path)
        key = gw.cache_key(request("Extract the triples.\nB\u00fcchner wrote Woyzeck ."))
        assert key == "9380e7dca0a86a0fd25ffb8b839d93ac158cc4c6c43addf98408a7a97fa78849"

    def test_provider_in_key(self, tmp_path):
        a = LlmGateway(CountingProvider(), tmp_path)
        b = LlmGateway(FlakyProvider(0), tmp_path)
        assert a.cache_key(request()) != b.cache_key(request())


class TestLlmRequest:
    def test_empty_prompt_rejected(self):
        with pytest.raises(ValueError, match="prompt"):
            LlmRequest(model_id="m", prompt="")

    def test_prefix_must_lead_the_prompt(self):
        with pytest.raises(ValueError, match="prefix"):
            LlmRequest(model_id="m", prompt="ab", prefix="b")
        assert LlmRequest(model_id="m", prompt="ab").prefix == ""
        assert LlmRequest(model_id="m", prompt="ab", prefix="ab").prefix == "ab"


class TestMockEchoGold:
    def test_zero_shot_echoes_gold_table(self, pool_dataset):
        by_id = pool_dataset.sample_by_id()
        gold_by_text = {by_id[sid].text: ann.triples for sid, ann in pool_dataset.gold.items()}
        provider = MockEchoGoldProvider(gold_by_text)
        sample = pool_dataset.samples[0]
        reply = provider.generate(request(prompt=render_zero_shot(sample)))
        assert reply == serialize_triples(PromptFormat.TABLEIE, pool_dataset.gold[sample.id].triples)

    def test_unknown_sentence_yields_empty(self):
        provider = MockEchoGoldProvider({})
        assert provider.generate(request(prompt=render_zero_shot_like("mystery"))) == ""

    def test_deterministic(self, pool_dataset):
        by_id = pool_dataset.sample_by_id()
        gold_by_text = {by_id[sid].text: ann.triples for sid, ann in pool_dataset.gold.items()}
        provider = MockEchoGoldProvider(gold_by_text)
        req = request(prompt=render_zero_shot(pool_dataset.samples[3]))
        assert provider.generate(req) == provider.generate(req)

    def test_textie_mode_uses_text_grammar(self):
        gold = TripleSet.of([make_triple()])
        provider = MockEchoGoldProvider({"Some sentence .": gold}, fmt=PromptFormat.TEXTIE)
        reply = provider.generate(request(prompt="instruction\nSome sentence ."))
        assert reply == "(Per: Booth, Kill, Per: Lincoln)"

    # the query line and format as the whole-prompt split picked them; the
    # mock reads only the last two lines of the prompt
    @pytest.mark.parametrize("prompt, query, fmt", [
        ("Some sentence .", "Some sentence .", PromptFormat.TEXTIE),
        (TABLE_HEADER, TABLE_HEADER, PromptFormat.TEXTIE),
        (f"Some sentence .\n{TABLE_HEADER}", "Some sentence .", PromptFormat.TABLEIE),
        (f"a\nb\nSome sentence .\n{TABLE_HEADER}", "Some sentence .", PromptFormat.TABLEIE),
        (f"{TABLE_HEADER}\n{TABLE_HEADER}", TABLE_HEADER, PromptFormat.TABLEIE),
        ("a\n\nSome sentence .", "Some sentence .", PromptFormat.TEXTIE),
        ("Some sentence .\n", "", PromptFormat.TEXTIE),
    ])
    def test_query_line_and_format_come_from_the_last_two_lines(self, prompt, query, fmt):
        gold = TripleSet.of([make_triple()])
        provider = MockEchoGoldProvider({query: gold}, fmt=PromptFormat.TEXTIE)
        assert provider.generate(request(prompt=prompt)) == serialize_triples(fmt, gold)
        lines = prompt.split("\n")
        header_ended = lines[-1] == TABLE_HEADER and len(lines) >= 2
        assert (lines[-2] if header_ended else lines[-1]) == query


def render_zero_shot_like(text):
    from tripleforge.prompting import TABLE_HEADER, ZERO_SHOT_INSTRUCTION
    return f"{ZERO_SHOT_INSTRUCTION}\n{text}\n{TABLE_HEADER}"


class FakeResponse:
    def __init__(self, status_code, payload=None, text=""):
        self.status_code = status_code
        self._payload = payload
        self.text = text

    def json(self):
        return self._payload


class NotJsonResponse(FakeResponse):
    """A 200 reply whose body does not decode, as ``requests`` reports it."""

    def __init__(self, text):
        super().__init__(200, text=text)

    def json(self):
        return json.loads(self.text)


def patch_requests_post(monkeypatch, post):
    """Install ``post`` as ``requests.post``; a request that reaches
    ``requests`` any other way fails the test instead of the network."""
    import requests

    monkeypatch.setattr(requests, "post", post)
    monkeypatch.setattr(requests.Session, "send",
                        lambda *a, **k: pytest.fail("request sent past requests.post"))


class TestHttpChatProvider:
    def test_missing_api_key_is_configuration_error(self, monkeypatch):
        monkeypatch.delenv("TRIPLEFORGE_API_KEY", raising=False)
        with pytest.raises(GatewayError, match="TRIPLEFORGE_API_KEY"):
            HttpChatProvider("https://example.test/v1/chat")

    def test_success_reads_message_content(self):
        seen = {}

        def post(url, json=None, headers=None, timeout=None):
            seen.update(url=url, payload=json, headers=headers)
            return FakeResponse(200, {"choices": [{"message": {"content": "|1|a|b|c|d|e|"}}]})

        provider = HttpChatProvider("https://example.test/v1/chat", api_key="k", post=post)
        text = provider.generate(request(prompt="Do it"))
        assert text == "|1|a|b|c|d|e|"
        assert seen["payload"]["model"] == "m1"
        assert seen["payload"]["messages"] == [{"role": "user", "content": "Do it"}]
        assert seen["payload"]["temperature"] == 0.0
        assert seen["headers"]["Authorization"] == "Bearer k"

    def test_posts_with_the_fixed_timeout(self):
        # both remote providers share JsonEndpoint; neither has a timeout to set
        timeouts = []

        def post(url, json=None, headers=None, timeout=None):
            timeouts.append(timeout)
            if "input" in json:
                return FakeResponse(200, {"data": [{"embedding": [1.0]}]})
            return FakeResponse(200, {"choices": [{"message": {"content": "x"}}]})

        HttpChatProvider("https://x.test", api_key="k", post=post).generate(request())
        HttpEmbeddingProvider("https://x.test", "emb-1", dim=1, api_key="k",
                              post=post).embed(["text"])
        assert timeouts == [HTTP_TIMEOUT_S, HTTP_TIMEOUT_S] == [60.0, 60.0]

    def test_429_is_transient(self):
        provider = HttpChatProvider("https://x.test", api_key="k",
                                    post=lambda *a, **k: FakeResponse(429))
        with pytest.raises(TransientProviderError):
            provider.generate(request())

    def test_400_is_fatal(self):
        provider = HttpChatProvider("https://x.test", api_key="k",
                                    post=lambda *a, **k: FakeResponse(400, text="bad request"))
        with pytest.raises(GatewayError, match="HTTP 400"):
            provider.generate(request())

    def test_connection_error_is_transient(self):
        import requests

        def post(*a, **k):
            raise requests.ConnectionError("refused")

        provider = HttpChatProvider("https://x.test", api_key="k", post=post)
        with pytest.raises(TransientProviderError, match="connection failure"):
            provider.generate(request())

    def test_without_post_the_providers_call_requests_post(self, monkeypatch):
        urls = []

        def post(url, json=None, headers=None, timeout=None):
            urls.append(url)
            if "input" in json:
                return FakeResponse(200, {"data": [{"embedding": [1.0]}]})
            return FakeResponse(200, {"choices": [{"message": {"content": "x"}}]})

        patch_requests_post(monkeypatch, post)
        assert HttpChatProvider("https://chat.test", api_key="k").generate(request()) == "x"
        embedder = HttpEmbeddingProvider("https://emb.test", "emb-1", dim=1, api_key="k")
        assert embedder.embed(["text"]).tolist() == [[1.0]]
        assert urls == ["https://chat.test", "https://emb.test"]

    def test_without_post_a_connection_error_is_transient(self, monkeypatch):
        import requests

        def post(*a, **k):
            raise requests.ConnectionError("refused")

        patch_requests_post(monkeypatch, post)
        with pytest.raises(TransientProviderError, match="connection failure: refused"):
            HttpChatProvider("https://x.test", api_key="k").generate(request())
        with pytest.raises(TransientProviderError, match="connection failure: refused"):
            HttpEmbeddingProvider("https://x.test", "emb-1", dim=1, api_key="k").embed(["text"])

    def test_reply_without_choices_is_fatal(self):
        provider = HttpChatProvider("https://x.test", api_key="k",
                                    post=lambda *a, **k: FakeResponse(200, {"id": "x"}))
        with pytest.raises(GatewayError, match="malformed completion response"):
            provider.generate(request())

    @pytest.mark.parametrize("content", [None, [{"type": "text", "text": "x"}], 7],
                             ids=["null", "list", "number"])
    def test_content_that_is_not_a_string_is_refused_before_caching(self, tmp_path, content):
        log = tmp_path / CACHE_LOG
        log.touch()
        reply = FakeResponse(200, {"choices": [{"message": {"content": content}}]})
        provider = HttpChatProvider("https://x.test", api_key="k", post=lambda *a, **k: reply)
        gateway = LlmGateway(provider, tmp_path)
        with pytest.raises(GatewayError, match="malformed completion response: content is"):
            gateway.complete(request())
        assert gateway.stats.llm_calls == 1
        assert log.read_bytes() == b""

    @pytest.mark.parametrize("provider, reply, match", [
        ("chat", NotJsonResponse("<html>busy</html>"), "reply is not JSON"),
        ("embed", NotJsonResponse(""), "reply is not JSON"),
        ("embed", FakeResponse(200, {"id": "x"}), "malformed embedding response"),
        ("embed", FakeResponse(200, {"data": [{"vector": [1.0]}]}),
         "malformed embedding response"),
        ("embed", FakeResponse(200, {"data": [{"embedding": ["one"]}]}),
         "malformed embedding response"),
        ("embed", FakeResponse(200, [{"embedding": [1.0]}]), "malformed embedding response"),
    ], ids=["chat-not-json", "embed-not-json", "no-data", "no-embedding", "not-numeric",
            "list-body"])
    def test_malformed_200_reply_is_a_fatal_gateway_error(self, provider, reply, match):
        post = lambda *a, **k: reply  # noqa: E731
        with pytest.raises(GatewayError, match=match) as raised:
            if provider == "chat":
                HttpChatProvider("https://x.test", api_key="k", post=post).generate(request())
            else:
                HttpEmbeddingProvider("https://x.test", "emb-1", dim=1, api_key="k",
                                      post=post).embed(["text"])
        assert not isinstance(raised.value, TransientProviderError)


class TestUnreadableCacheEntry:
    @pytest.mark.parametrize("damage", ["truncate", "no_text"])
    def test_unreadable_entry_is_a_miss_and_is_rewritten(self, tmp_path, damage):
        req = request()
        first = LlmGateway(CountingProvider("answer"), tmp_path / "cache")
        first.complete(req)
        path = tmp_path / "cache" / CACHE_LOG
        key = first.cache_key(req)
        [(_, whole)] = log_lines(tmp_path / "cache")
        if damage == "truncate":
            # a crash mid-append: half the entry and no final newline
            path.write_text(f"{key}\t{whole[: len(whole) // 2]}", encoding="utf-8")
        else:
            path.write_text(f"{key}\t{json.dumps({'provider': 'counting'})}\n",
                            encoding="utf-8")

        provider = CountingProvider("answer")
        gw = LlmGateway(provider, tmp_path / "cache")
        response = gw.complete(req)
        assert response.text == "answer" and not response.from_cache
        assert provider.calls == 1
        assert gw.stats.unreadable_cache_entries == 1 and gw.stats.cache_hits == 0
        assert json.loads(last_entry(tmp_path / "cache", key))["text"] == "answer"
        assert sorted(p.name for p in path.parent.iterdir()) == [path.name]

        again = LlmGateway(CountingProvider("unused"), tmp_path / "cache")
        assert again.complete(req).from_cache
        assert again.stats.unreadable_cache_entries == 0


class TestCompletionLog:
    def test_torn_final_line_does_not_absorb_the_next_append(self, tmp_path):
        cache = tmp_path / "cache"
        first = LlmGateway(EchoProvider(), cache)
        for prompt in ("a", "b", "c"):
            first.complete(request(prompt))
        path = cache / CACHE_LOG
        whole = path.read_bytes()
        path.write_bytes(whole[:-10])  # the line for "c" loses its tail

        second = LlmGateway(EchoProvider(), cache)
        assert not second.complete(request("d")).from_cache

        provider = EchoProvider()
        fresh = LlmGateway(provider, cache)
        for prompt in ("a", "b", "d"):
            response = fresh.complete(request(prompt))
            assert response.from_cache and response.text == f"echo:{prompt}"
        assert provider.calls == 0
        assert fresh.complete(request("c")).text == "echo:c"
        assert provider.calls == 1 and fresh.stats.unreadable_cache_entries == 1

    def test_failed_append_does_not_absorb_the_next_one(self, tmp_path, monkeypatch):
        cache = tmp_path / "cache"
        gw = LlmGateway(EchoProvider(), cache)
        gw.complete(request("a"))
        write = os.write

        def half_then_full_disk(fd, data):
            write(fd, bytes(data[: len(data) // 2]))
            raise OSError(errno.ENOSPC, "No space left on device")

        with monkeypatch.context() as m:
            m.setattr(os, "write", half_then_full_disk)
            with pytest.raises(OSError):
                gw.complete(request("b"))
        gw.complete(request("c"))

        provider = EchoProvider()
        fresh = LlmGateway(provider, cache)
        assert all(fresh.complete(request(p)).from_cache for p in ("a", "c"))
        assert provider.calls == 0

    def test_last_line_for_a_key_wins(self, tmp_path):
        cache = tmp_path / "cache"
        first = LlmGateway(CountingProvider("old"), cache)
        req = request()
        first.complete(req)
        entry = {"model_id": "m1", "provider": "counting", "text": "new"}
        with (cache / CACHE_LOG).open("a", encoding="utf-8") as fh:
            fh.write(f"{first.cache_key(req)}\t{json.dumps(entry)}\n")

        provider = CountingProvider("unused")
        fresh = LlmGateway(provider, cache)
        response = fresh.complete(req)
        assert response.from_cache and response.text == "new"
        assert provider.calls == 0

    def test_concurrent_completions_share_one_log(self, tmp_path):
        cache = tmp_path / "cache"
        cfg = PipelineConfig(pool_path=tmp_path / "pool.jsonl",
                             test_path=tmp_path / "test.jsonl",
                             run_dir=tmp_path / "run", concurrency=4)
        gw = LlmGateway(EchoProvider(), cache)
        prompts = [f"prompt {i}" for i in range(50)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            texts = _complete_all(cfg, gw, prompts)
        finally:
            sys.setswitchinterval(interval)
        assert texts == [f"echo:{p}" for p in prompts]
        assert [p.name for p in cache.iterdir()] == [CACHE_LOG]

        lines = log_lines(cache)
        assert len(lines) == 50
        expected = {gw.cache_key(LlmRequest(model_id=cfg.model_id, prompt=p)): f"echo:{p}"
                    for p in prompts}
        assert {key: json.loads(raw)["text"] for key, raw in lines} == expected

    def test_shared_prefix_writes_the_log_lines_of_a_serial_run(self, tmp_path):
        prefix = "Extract.\nDémo \"one\" \U0001F600 | x\n\n"
        bodies = [f"query {i}\n{i}" for i in range(40)]
        prompts = [prefix + body for body in bodies]
        logs = {}
        for concurrency in (1, 4):
            cfg = PipelineConfig(pool_path=tmp_path / "pool.jsonl",
                                 test_path=tmp_path / "test.jsonl",
                                 run_dir=tmp_path / "run", concurrency=concurrency)
            cache = tmp_path / f"cache{concurrency}"
            gw = LlmGateway(EchoProvider(), cache)
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                assert _complete_all(cfg, gw, bodies, prefix) == [f"echo:{p}" for p in prompts]
            finally:
                sys.setswitchinterval(interval)
            logs[concurrency] = (cache / CACHE_LOG).read_text(encoding="utf-8").splitlines()
        assert len(logs[4]) == len(prompts) and sorted(logs[4]) == sorted(logs[1])
        # the prefix changes no key
        assert {line.split("\t")[0] for line in logs[1]} == {
            gw.cache_key(LlmRequest(model_id=cfg.model_id, prompt=p)) for p in prompts}

    @pytest.mark.parametrize("concurrency", [1, 3])
    def test_calls_in_flight_bounded_by_concurrency(self, tmp_path, concurrency):
        cfg = PipelineConfig(pool_path=tmp_path / "pool.jsonl",
                             test_path=tmp_path / "test.jsonl",
                             run_dir=tmp_path / "run", concurrency=concurrency)
        provider = InFlightProvider()
        gw = LlmGateway(provider, tmp_path / "cache")
        assert _complete_all(cfg, gw, [f"prompt {i}" for i in range(30)]) == ["ok"] * 30
        assert provider.peak <= concurrency
        # more than one call does run at once when the bound allows it
        assert (provider.peak > 1) == (concurrency > 1)
