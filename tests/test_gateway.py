from __future__ import annotations

import csv
import gc
import json
import logging
import os
import shutil
import socket
import sys
import tempfile
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from restory.corpus import CodeSnippet
from restory.errors import DataError, GatewayError
from restory.gateway import (
    BudgetExceededError,
    EchoProvider,
    Gateway,
    GenerationConfig,
    HttpProvider,
    Ledger,
    ModelSpec,
    ProviderResponse,
    StaticProvider,
    TransientProviderError,
    estimate_cost,
    model_spec,
)
from restory.prompts import default_prompt_config, render_prompt

from conftest import (
    AlwaysFailingProvider,
    CountingProvider,
    FlakyProvider,
    HeldProvider,
    close_at_teardown,
    ledger_cost,
    make_snippet,
    wait_until,
)
from oracles import oracle_cache_key

MODEL = ModelSpec("llama-3.1-8b", 0.05, 0.25)
NOSLEEP = lambda s: None


def _gateway(provider, tmp_path, **kwargs):
    """A gateway caching under `tmp_path / "cache"`, its ledger `ledger.csv` there."""
    return close_at_teardown(Gateway(provider, MODEL, cache_dir=tmp_path / "cache",
                                     sleep=NOSLEEP, **kwargs))


# ---------------------------------------------------------------------------
# cost


def test_cost_table_rates_exact():
    assert estimate_cost(1_000_000, 1_000_000, model_spec("llama-3.1-8b")) == 0.30


def test_cost_zero_tokens():
    assert estimate_cost(0, 0, model_spec("o1")) == 0.0


def test_cost_partial_usage_arithmetic():
    got = estimate_cost(500_000, 250_000, model_spec("gpt-4o-mini"))
    assert abs(got - 1.20) < 1e-9


def test_unknown_model_errors():
    with pytest.raises(DataError):
        model_spec("gpt-99")


def test_model_spec_rejects_negative_rates():
    with pytest.raises(DataError):
        ModelSpec("m", -0.1, 0.2)


# ---------------------------------------------------------------------------
# generation config defaults


def test_config_defaults_match_decoding_setup():
    config = GenerationConfig()
    assert config.temperature == 0.0
    assert config.min_output_tokens == 50
    assert config.repetition_penalty == 0.2


def test_config_validation():
    with pytest.raises(DataError):
        GenerationConfig(temperature=-1)
    with pytest.raises(DataError):
        GenerationConfig(repetition_penalty=0)
    with pytest.raises(DataError):
        GenerationConfig(min_output_tokens=200, max_output_tokens=100)


@pytest.mark.parametrize("field", ["temperature", "repetition_penalty"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_config_rejects_non_finite_decoding_values(field, value):
    with pytest.raises(DataError, match=f"{field} must be finite"):
        GenerationConfig(**{field: value})


# ---------------------------------------------------------------------------
# cache contract


def test_cache_hit_returns_same_text_and_skips_provider(tmp_path):
    provider = CountingProvider("fixed answer")
    gateway = _gateway(provider, tmp_path)
    first = gateway.complete("describe this")
    second = gateway.complete("describe this")
    assert provider.calls == 1
    assert first.cached is False
    assert second.cached is True
    assert second.text == first.text == "fixed answer"
    assert second.cost_usd == first.cost_usd  # stored cost, not re-incurred


def test_cache_key_depends_on_prompt_and_config(tmp_path):
    provider = CountingProvider()
    gateway = _gateway(provider, tmp_path)
    gateway.complete("prompt one")
    gateway.complete("prompt two")
    assert provider.calls == 2
    other = close_at_teardown(Gateway(provider, MODEL, GenerationConfig(temperature=0.7),
                                      cache_dir=tmp_path / "cache", sleep=NOSLEEP))
    other.complete("prompt one")  # different decoding config -> miss
    assert provider.calls == 3


# Two (model, decoding config) pairs; the second model id holds the text the
# key derivation splits its payload at, escaped as JSON escapes it.
_KEY_CONFIGS = [
    (MODEL, GenerationConfig()),
    (ModelSpec('m\u00f6del "prompt": "" \\', 0.0, 0.0),
     GenerationConfig(temperature=0.7, min_output_tokens=1, repetition_penalty=1.3,
                      max_output_tokens=512)),
]
# About half the texts are pure ASCII, with and without DEL, which only the
# ASCII escaper escapes; the rest may hold any character.
_KEY_TEXT = st.one_of(
    st.text(alphabet=st.characters(max_codepoint=0x7e)),
    st.text(alphabet=st.characters(max_codepoint=0x7f)),
    st.text(alphabet=st.one_of(
        st.sampled_from('"\\\x00\x1f\x7f\n\r\t\u2028\xe9\u4e2d\U0001f600'),
        st.characters(),
    )),
)


# A provider without an identity, and one with each kind of identity.
_SHA256_OF_A = "559aead08264d5795d3909718cdd05abd49572e84fe55590eef31a88a08fdffd"
_KEY_PROVIDERS = [(CountingProvider(), None), (EchoProvider({}), "echo"),
                  (StaticProvider("A"), f"static:{_SHA256_OF_A}")]


@settings(max_examples=200)
@given(st.sampled_from(_KEY_CONFIGS), st.sampled_from(_KEY_PROVIDERS), _KEY_TEXT)
def test_cache_key_equals_the_whole_payload_derivation(tmp_path_factory, model_and_config,
                                                      provider_and_identity, prompt):
    model, config = model_and_config
    provider, identity = provider_and_identity
    # Never written: no completion is made.
    gateway = Gateway(provider, model, config,
                      cache_dir=tmp_path_factory.getbasetemp() / "unused-cache")
    try:
        want = oracle_cache_key(model.model_id, config, prompt, identity)
    except UnicodeEncodeError:  # a lone surrogate has no UTF-8 form
        with pytest.raises(UnicodeEncodeError):
            gateway._cache_key(prompt)
        return
    assert gateway._cache_key(prompt) == want


@pytest.mark.parametrize("prompt, key", [
    ('Describe "this":\n\tint x = 1; // a \\ b\n',
     "4ed7ab8dc10601220251b393930fa066fa8292663b88286c0a193ffb6277acd7"),
    ("DEL \x7f and a unit separator \x1f\n",
     "c30d52a0001e7ca3303740928c1cdb2a951747e19582dd9d05dcee86d34c1ea2"),
    ("caf\u00e9 \u4e2d \U0001f600 \u2028 \x7f\n",
     "c6680d711f6759f63c8629a31e71cb687b0d0a64d42c6bea59d6ee638ddd0016"),
], ids=["ascii", "ascii-with-del", "non-ascii"])
def test_cache_keys_of_fixed_prompts_are_pinned(tmp_path, prompt, key):
    # Keys name the entries of existing caches, so they never change.
    gateway = Gateway(CountingProvider(), MODEL, cache_dir=tmp_path / "unused-cache")
    assert gateway._cache_key(prompt) == key


def test_a_cache_entry_answers_only_the_provider_identity_that_wrote_it(tmp_path):
    assert _gateway(StaticProvider("A"), tmp_path).complete("p").text == "A"
    other = _gateway(StaticProvider("B"), tmp_path)
    missed = other.complete("p")
    assert (missed.text, missed.cached, other.provider_calls) == ("B", False, 1)
    echo = _gateway(EchoProvider({"x": "from echo"}), tmp_path)
    with pytest.raises(GatewayError, match="no canned completion"):
        echo.complete("p")  # a miss too: no prompted code to echo
    again = _gateway(StaticProvider("A"), tmp_path)
    hit = again.complete("p")
    assert (hit.text, hit.cached, again.provider_calls) == ("A", True, 0)


def test_cache_idempotence_under_concurrency(tmp_path):
    provider = CountingProvider()
    gateway = _gateway(provider, tmp_path)
    gateway.complete("warm me")
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda _: gateway.complete("warm me"), range(16)))
    assert provider.calls == 1
    assert all(r.text == provider.text for r in results)


class SlowProvider:
    """Answers after `delay_s`, counting its calls; the calls listed in
    `rejected` (1 is the first) are refused after the same wait."""

    def __init__(self, delay_s: float, text: str = "tok " * 400, rejected=()):
        self.delay_s, self.text, self.rejected = delay_s, text, set(rejected)
        self.calls = 0
        self._lock = threading.Lock()

    def generate(self, model_id: str, prompt_text: str, config: GenerationConfig):
        with self._lock:
            self.calls += 1
            number = self.calls
        time.sleep(self.delay_s)
        if number in self.rejected:
            raise GatewayError(f"synthetic rejection of call {number}")
        return StaticProvider(self.text).generate(model_id, prompt_text, config)


def _complete_together(gateway, prompt: str, threads: int) -> list:
    """`threads` calls of `gateway.complete(prompt)` released at once: each
    one's result, or the GatewayError it raised."""
    start = threading.Barrier(threads)

    def call(_):
        start.wait()
        try:
            return gateway.complete(prompt)
        except GatewayError as exc:
            return exc

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(call, range(threads)))


def test_concurrent_misses_on_one_key_make_one_provider_call(tmp_path):
    provider = SlowProvider(0.1)
    gateway = _gateway(provider, tmp_path, concurrency=4)
    results = _complete_together(gateway, "the same prompt", 4)
    assert provider.calls == 1
    assert sorted(r.cached for r in results) == [False, True, True, True]
    (paid,) = [r for r in results if not r.cached]
    assert all(r.text == paid.text for r in results)
    assert all(r.cost_usd == paid.cost_usd for r in results)  # the stored entry
    assert gateway.spent_usd == paid.cost_usd > 0
    gateway.close()
    with open(tmp_path / "cache" / "ledger.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert sorted((row["cached"], float(row["cost_usd"])) for row in rows) == [
        ("false", paid.cost_usd), ("true", 0.0), ("true", 0.0), ("true", 0.0)]


def test_a_failed_call_leaves_its_key_to_the_next_waiting_miss(tmp_path):
    provider = SlowProvider(0.1, rejected={1})
    gateway = _gateway(provider, tmp_path, concurrency=4)
    results = _complete_together(gateway, "the same prompt", 4)
    assert provider.calls == 2
    failed = [r for r in results if isinstance(r, GatewayError)]
    assert [str(exc) for exc in failed] == ["synthetic rejection of call 1"]
    completed = [r for r in results if r not in failed]
    assert sorted(r.cached for r in completed) == [False, True, True]
    assert ledger_cost(tmp_path / "cache" / "ledger.csv") == gateway.spent_usd > 0
    assert gateway._claimed == set()


class WatchedCondition(threading.Condition):
    """A gateway's admission condition that sets `blocked` when a call waits
    on it, and calls `after_notify` once a call that woke the waiters has
    left its critical section."""

    def __init__(self, after_notify=lambda: None):
        super().__init__()
        self.blocked = threading.Event()
        self.after_notify = after_notify
        self._notified = False  # set and cleared with the lock held

    def wait(self, timeout=None):
        self.blocked.set()
        return super().wait(timeout)

    def notify_all(self):
        super().notify_all()
        self._notified = True

    def __exit__(self, *exc_info):
        notified, self._notified = self._notified, False
        super().__exit__(*exc_info)
        if notified:
            self.after_notify()


def _first_and_waiter(gateway, provider, prompt: str):
    """Two completions of `prompt`: the first held in `provider` until the
    second waits on the gateway's condition, then both let through. Their results."""
    gateway._admission = watched = WatchedCondition()
    with ThreadPoolExecutor(max_workers=2) as pool:
        try:
            first = pool.submit(gateway.complete, prompt)
            wait_until(lambda: provider.in_flight == 1)
            waiter = pool.submit(gateway.complete, prompt)
            assert watched.blocked.wait(timeout=10)
        finally:
            provider.release()
        return first.result(timeout=10), waiter.result(timeout=10)


def test_a_call_that_waits_on_a_claimed_key_reads_the_stored_entry(tmp_path):
    provider = HeldProvider(CountingProvider())
    gateway = _gateway(provider, tmp_path, concurrency=2)  # a free permit: it waits on the key
    first, waiter = _first_and_waiter(gateway, provider, "p")
    assert provider.calls == 1
    assert first.cached is False and waiter.cached is True
    assert (waiter.text, waiter.cost_usd) == (first.text, first.cost_usd)
    gateway.close()
    with open(tmp_path / "cache" / "ledger.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [(row["cached"], float(row["cost_usd"])) for row in rows] == [
        ("false", first.cost_usd), ("true", 0.0)]


def test_every_completion_opens_its_cache_entry_once(tmp_path):
    provider = HeldProvider(CountingProvider())
    gateway = _gateway(provider, tmp_path, concurrency=2)
    probes = []
    load = gateway._cache_load
    gateway._cache_load = lambda key: probes.append(key) or load(key)

    def probes_of(complete) -> int:
        probes.clear()
        complete()
        return len(probes)

    # a cold miss, and a waiter on its key while its call is in flight
    assert probes_of(lambda: _first_and_waiter(gateway, provider, "p")) == 2
    assert probes_of(lambda: gateway.complete("p")) == 1  # a hit
    Path(gateway._cache_path(gateway._cache_key("p"))).write_text('{"trunc', encoding="utf-8")
    assert probes_of(lambda: gateway.complete("p")) == 1  # a damaged entry
    assert provider.calls == 2


def test_permits_bound_the_calls_in_flight_under_frequent_thread_switches(tmp_path):
    provider = HeldProvider(SlowProvider(0.001))
    provider.release()
    gateway = _gateway(provider, tmp_path, concurrency=2)
    prompts = [f"prompt {i}" for i in range(200)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(gateway.complete, prompts))
    finally:
        sys.setswitchinterval(interval)
    assert provider.peak <= 2 and provider.calls == len(prompts)
    assert not any(r.cached for r in results)
    gateway.close()
    with open(tmp_path / "cache" / "ledger.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert gateway.provider_calls == sum(row["cached"] == "false" for row in rows)
    assert gateway.spent_usd == pytest.approx(sum(float(row["cost_usd"]) for row in rows),
                                              rel=1e-12)


def test_many_threads_on_few_keys_make_one_call_per_key(tmp_path):
    provider = SlowProvider(0.0)
    gateway = _gateway(provider, tmp_path, concurrency=3)
    prompts = [f"prompt {i % 50}" for i in range(400)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # thread switches between any two steps
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(gateway.complete, p) for p in prompts]
            results = [f.result(timeout=30) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert provider.calls == 50  # a second call of a key would be a lost claim
    assert sum(not r.cached for r in results) == 50 and gateway._claimed == set()
    gateway.close()
    assert len(_ledger_lines(tmp_path / "cache" / "ledger.csv")) == 1 + len(prompts)


_ENTRY = {"text": "t", "input_tokens": 1, "output_tokens": 1, "latency_ms": 0,
          "cost_usd": 0.0, "cached": False, "retries": 0, "tokens_estimated": True}


@pytest.mark.parametrize(
    "damage",
    ['{"text": "trunc', "[1, 2]"]
    + [json.dumps({**_ENTRY, field: value})
       for field, value in [("text", 5), ("input_tokens", "12"), ("output_tokens", True),
                            ("cost_usd", None), ("cached", "no"), ("retries", 1.5),
                            ("cost_usd", float("nan")), ("cost_usd", float("inf")),
                            ("cost_usd", -0.5), ("input_tokens", -5), ("output_tokens", -1),
                            ("latency_ms", -1), ("retries", -1), ("text", "a\ud800")]],
    ids=["truncated", "list", "text-int", "input-tokens-str", "output-tokens-bool",
         "cost-null", "cached-str", "retries-float", "cost-nan", "cost-inf",
         "cost-negative", "input-tokens-negative", "output-tokens-negative",
         "latency-negative", "retries-negative", "text-lone-surrogate"],
)
def test_damaged_cache_entry_is_a_miss_and_rewritten(tmp_path, caplog, damage):
    provider = CountingProvider("fixed answer")
    _gateway(provider, tmp_path).complete("describe this")
    (entry,) = (tmp_path / "cache").glob("*.json")
    entry.write_text(damage, encoding="utf-8")
    with caplog.at_level(logging.WARNING, logger="restory.gateway"):
        result = _gateway(provider, tmp_path).complete("describe this")
    assert provider.calls == 2
    assert result.cached is False and result.text == "fixed answer"
    assert sum(str(entry) in r.getMessage() for r in caplog.records) == 1  # probed once
    again = _gateway(provider, tmp_path).complete("describe this")
    assert again.cached is True and provider.calls == 2


def test_cache_store_leaves_another_writers_tmp_file_alone(tmp_path):
    gateway = _gateway(CountingProvider("fixed answer"), tmp_path)
    cache = tmp_path / "cache"
    cache.mkdir()
    key = gateway._cache_key("describe this")
    foreign = cache / f"{key}.tmp"
    foreign.write_text("half written by another process", encoding="utf-8")
    gateway.complete("describe this")
    assert foreign.read_text(encoding="utf-8") == "half written by another process"
    assert sorted(p.name for p in cache.iterdir()) == sorted(
        [foreign.name, f"{key}.json", "ledger.csv"])


def test_completion_cost_matches_estimate(tmp_path):
    gateway = _gateway(CountingProvider("some text" * 10), tmp_path)
    result = gateway.complete(
        render_prompt(default_prompt_config("zero"), make_snippet("s", 4)).text)
    assert abs(result.cost_usd - estimate_cost(result.input_tokens, result.output_tokens, MODEL)) < 1e-9
    assert result.tokens_estimated is True  # CountingProvider reports no usage


# ---------------------------------------------------------------------------
# retry contract


def test_retry_succeeds_after_two_failures(tmp_path):
    provider = FlakyProvider(failures=2)
    gateway = _gateway(provider, tmp_path, retries=3)
    result = gateway.complete("prompt")
    assert result.retries == 2
    assert provider.calls == 3


def test_retry_exhaustion_after_three_retries(tmp_path):
    provider = AlwaysFailingProvider()
    gateway = _gateway(provider, tmp_path, retries=3)
    with pytest.raises(GatewayError,
                       match="^provider still failing after 3 retries: synthetic outage$"):
        gateway.complete("prompt")
    assert provider.calls == 4  # initial attempt + 3 retries


def test_rejection_is_not_retried(tmp_path):
    provider = AlwaysFailingProvider(transient=False)
    gateway = _gateway(provider, tmp_path)
    with pytest.raises(GatewayError, match="^synthetic rejection$"):
        gateway.complete("prompt")
    assert provider.calls == 1


def test_backoff_delays_grow_exponentially(tmp_path):
    delays = []
    provider = FlakyProvider(failures=3)
    gateway = close_at_teardown(Gateway(provider, MODEL, cache_dir=tmp_path / "cache",
                                        retries=3, sleep=delays.append))
    gateway.complete("prompt")
    assert len(delays) == 3
    assert delays[0] < delays[1] < delays[2]
    assert 1.0 <= delays[0] <= 1.1 * 1.0 + 1e-9
    assert 4.0 <= delays[2] <= 1.1 * 4.0 + 1e-9


# ---------------------------------------------------------------------------
# ledger and budget


def test_ledger_rows_and_total(tmp_path):
    gateway = _gateway(CountingProvider("words " * 100), tmp_path)
    first = gateway.complete("p1")
    gateway.complete("p1")  # cached: logged at zero cost
    gateway.complete("p2")
    with open(tmp_path / "cache" / "ledger.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    assert [row["cached"] for row in rows] == ["false", "true", "false"]
    assert float(rows[1]["cost_usd"]) == 0.0
    assert abs(ledger_cost(tmp_path / "cache" / "ledger.csv") - gateway.spent_usd) < 1e-12
    assert first.cost_usd > 0


def test_a_paid_call_keeps_its_ledger_row_when_the_cache_write_fails(tmp_path):
    gateway = _gateway(CountingProvider("words " * 100), tmp_path)

    def full_disk(key, result):
        raise OSError(28, "No space left on device")

    gateway._cache_store = full_disk
    with pytest.raises(OSError, match="No space left"):
        gateway.complete("p1")
    assert gateway.provider_calls == 1 and gateway.spent_usd > 0
    ledger = tmp_path / "cache" / "ledger.csv"
    assert len(_ledger_lines(ledger)) == 2  # the header and the paid call's row
    assert ledger_cost(ledger) == pytest.approx(gateway.spent_usd, abs=1e-15)


def _ledger_lines(path) -> list[str]:
    return path.read_text(encoding="utf-8").splitlines()


def test_ledger_row_is_on_disk_after_each_append(tmp_path):
    ledger = Ledger(tmp_path / "sub" / "ledger.csv")
    try:
        ledger.append("m", 1, 2, 0.5, cached=False)
        lines = _ledger_lines(ledger.path)
        assert lines[0] == ",".join(Ledger.COLUMNS)
        assert len(lines) == 2 and lines[1].endswith(",m,1,2,0.5,false")
        ledger.append("m", 3, 4, 0.0, cached=True)
        assert len(_ledger_lines(ledger.path)) == 3
    finally:
        ledger.close()


def test_ledger_header_is_written_once_across_close_and_reopen(tmp_path):
    path = tmp_path / "ledger.csv"
    ledger = Ledger(path)
    ledger.append("m", 1, 1, 0.25, cached=False)
    ledger.close()
    ledger.append("m", 1, 1, 0.25, cached=False)  # reopens the file
    ledger.close()
    other = Ledger(path)
    other.append("m", 1, 1, 0.25, cached=False)
    other.close()
    lines = _ledger_lines(path)
    assert lines.count(",".join(Ledger.COLUMNS)) == 1 and len(lines) == 4
    assert ledger_cost(path) == 0.75


def test_ledger_writes_its_header_into_an_empty_file(tmp_path):
    path = tmp_path / "ledger.csv"
    path.touch()
    ledger = Ledger(path)
    ledger.append("m", 1, 1, 0.5, cached=False)
    ledger.close()
    assert _ledger_lines(path)[0] == ",".join(Ledger.COLUMNS)
    assert ledger_cost(path) == 0.5


@pytest.mark.parametrize(
    "before",
    [b"", b"timestamp,model,input_tokens,output_tokens,cost_usd,cached\r\n"
          b"2026-01-01T00:00:00+00:00,old,1,2,0.25,false\r\n"],
    ids=["new", "after-crlf-rows"],
)
def test_ledger_cells_holding_commas_and_quotes_read_back_with_csv(tmp_path, before):
    path = tmp_path / "ledger.csv"
    path.write_bytes(before)
    ledger = Ledger(path)
    ledger.append('odd, "quoted" model', 3, 4, 0.1, cached=True)
    ledger.close()
    assert path.read_bytes().endswith(b',"odd, ""quoted"" model",3,4,0.1,true\n')
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == (2 if before else 1)
    last = rows[-1]
    assert (last["model"], last["input_tokens"], last["cost_usd"], last["cached"]) == \
        ('odd, "quoted" model', "3", "0.1", "true")


def test_ledger_close_is_idempotent(tmp_path):
    ledger = Ledger(tmp_path / "ledger.csv")
    ledger.close()  # nothing opened yet
    ledger.append("m", 1, 1, 0.0, cached=True)
    ledger.close()
    ledger.close()
    assert len(_ledger_lines(ledger.path)) == 2


def test_ledger_concurrent_appends_lose_no_row(tmp_path):
    ledger = Ledger(tmp_path / "ledger.csv")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(lambda i: ledger.append(f"m{i}", i, i, 0.0, cached=True), range(400)))
    finally:
        sys.setswitchinterval(interval)
        ledger.close()
    with open(ledger.path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert sorted(int(row["input_tokens"]) for row in rows) == list(range(400))
    assert all(row["model"] == f"m{row['input_tokens']}" for row in rows)


def _resource_warnings(tmp_path, use) -> list:
    """ResourceWarnings seen once a gateway that wrote its ledger is gone."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        use(Gateway(CountingProvider(), MODEL, cache_dir=tmp_path / "cache"))
        gc.collect()
    return [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_gateway_close_and_with_release_the_ledger(tmp_path):
    def closed(gateway):
        gateway.complete("p")
        gateway.close()
        gateway.close()

    def with_block(gateway):
        with gateway as same:
            assert same is gateway
            gateway.complete("p")

    assert _resource_warnings(tmp_path / "a", closed) == []
    assert _resource_warnings(tmp_path / "b", with_block) == []
    # The control: a gateway dropped without close leaks its handle.
    assert len(_resource_warnings(tmp_path / "c", lambda g: g.complete("p"))) == 1
    for name in "abc":
        assert len(_ledger_lines(tmp_path / name / "cache" / "ledger.csv")) == 2


def test_budget_exceeded_aborts_but_caches(tmp_path):
    text = "tok " * 4000  # enough output tokens for measurable cost
    provider = CountingProvider(text)
    gateway = _gateway(provider, tmp_path, budget_usd=1e-9)
    with pytest.raises(BudgetExceededError):
        gateway.complete("p1")
    # the result was persisted: a new gateway can serve it from cache
    fresh = _gateway(provider, tmp_path, budget_usd=1e-9)
    assert fresh.complete("p1").cached is True
    assert provider.calls == 1


def test_budget_precheck_blocks_next_call(tmp_path):
    provider = CountingProvider("tok " * 4000)
    gateway = _gateway(provider, tmp_path, budget_usd=1e-9)
    with pytest.raises(BudgetExceededError):
        gateway.complete("p1")
    with pytest.raises(BudgetExceededError):
        gateway.complete("p2")
    assert provider.calls == 1  # second prompt never reached the provider


def test_a_call_that_waited_for_the_permit_rechecks_the_budget(tmp_path):
    provider = HeldProvider(CountingProvider("tok " * 4000))
    gateway = _gateway(provider, tmp_path, budget_usd=1e-9, concurrency=1)
    refused = {}

    def first_call_pauses():
        # until the waiting call is past its budget check, so that a cost
        # settled only after the release would come too late for it
        if threading.current_thread() is first:
            wait_until(lambda: "p2" in refused or provider.calls == 2)

    gateway._admission = WatchedCondition(first_call_pauses)

    def call(prompt):
        try:
            gateway.complete(prompt)
        except BudgetExceededError as exc:
            refused[prompt] = exc

    first = threading.Thread(target=call, args=("p1",))
    second = threading.Thread(target=call, args=("p2",))
    try:
        first.start()
        wait_until(lambda: provider.in_flight == 1)
        second.start()
        assert gateway._admission.blocked.wait(timeout=10)
    finally:
        provider.release()  # the first call crosses the budget
    first.join(timeout=10)
    second.join(timeout=10)
    assert not first.is_alive() and not second.is_alive()
    assert sorted(refused) == ["p1", "p2"]
    assert provider.calls == 1  # the waiting call never reached the provider


@pytest.mark.parametrize("concurrency", [0, -1])
def test_concurrency_below_one_is_refused(tmp_path, concurrency):
    with pytest.raises(DataError, match="concurrency must be >= 1"):
        Gateway(CountingProvider(), MODEL, cache_dir=tmp_path / "cache", concurrency=concurrency)


def test_a_gateway_writes_nothing_before_its_first_completion(tmp_path):
    cache = tmp_path / "cache"
    Gateway(CountingProvider(), MODEL, cache_dir=cache).close()
    assert not cache.exists()


# ---------------------------------------------------------------------------
# sequential model


MODEL_RETRIES = 2
MODEL_PROMPTS = ("p0", "p1", "p2", "p3")
# What each provider call of one `complete` does: raise the error, or answer (None).
OUTCOMES = {
    "ok": lambda: [None],
    "transient-then-ok": lambda: [TransientProviderError("synthetic"), None],
    "transient-exhausted": lambda: [TransientProviderError("synthetic")
                                    for _ in range(MODEL_RETRIES + 1)],
    "rejected": lambda: [GatewayError("synthetic")],
}


class ScriptedProvider:
    """Takes each call's outcome from the front of `script`. Its nth answer is
    `story n` at 100 input and 10 * n output tokens, so that every paid call
    has a text and a cost of its own."""

    def __init__(self):
        self.script = []
        self.answers = 0

    def generate(self, model_id: str, prompt_text: str, config: GenerationConfig):
        failure = self.script.pop(0)
        if failure is not None:
            raise failure
        self.answers += 1
        return ProviderResponse(f"story {self.answers}", 100, 10 * self.answers)


class GatewayModel(RuleBasedStateMachine):
    """A gateway checked against a sequential model of its cache and spend:
    the text each prompt's entry holds, the entries that are damaged, and
    the cost of every paid call, in call order, across every gateway opened
    on one cache dir."""

    def __init__(self):
        super().__init__()
        self.cache_dir = Path(tempfile.mkdtemp(prefix="gateway-model-"))
        self.provider = ScriptedProvider()
        self.warnings = []
        self.handler = logging.Handler(logging.WARNING)
        self.handler.emit = self.warnings.append
        logging.getLogger("restory.gateway").addHandler(self.handler)
        self.gateway = self._open()
        self.stored: dict[str, tuple] = {}  # prompt -> its entry's text and cost
        self.damaged: set[str] = set()
        self.settled = 0.0
        self.closed_spend = 0.0  # `spent_usd` of the gateways closed so far
        self.paid = 0

    def _open(self) -> Gateway:
        return Gateway(self.provider, MODEL, cache_dir=self.cache_dir,
                       retries=MODEL_RETRIES, sleep=NOSLEEP)

    def _entry(self, prompt: str) -> Path:
        return Path(self.gateway._cache_path(self.gateway._cache_key(prompt)))

    @rule(prompt=st.sampled_from(MODEL_PROMPTS), outcome=st.sampled_from(sorted(OUTCOMES)))
    def complete(self, prompt, outcome):
        script = OUTCOMES[outcome]()
        self.provider.script = list(script)
        calls_before, warned = self.gateway.provider_calls, len(self.warnings)
        try:
            result = self.gateway.complete(prompt)
        except GatewayError as exc:
            assert type(exc) is GatewayError  # neither a transient error nor a budget stop
            result = None
        calls = len(script) - len(self.provider.script)
        assert self.gateway.provider_calls - calls_before == calls
        assert len(self.warnings) - warned == (prompt in self.damaged)  # probed once
        if prompt in self.stored:
            assert calls == 0 and result.cached is True  # its ledger row costs 0
            assert (result.text, result.cost_usd) == self.stored[prompt]
            return
        assert calls == len(script)
        if outcome in ("transient-exhausted", "rejected"):
            assert result is None
            return
        assert result.cached is False and result.retries == len(script) - 1
        assert result.text == f"story {self.provider.answers}"
        assert result.cost_usd == estimate_cost(100, 10 * self.provider.answers, MODEL)
        self.stored[prompt] = result.text, result.cost_usd
        self.damaged.discard(prompt)
        self.settled += result.cost_usd
        self.paid += 1

    @rule(prompt=st.sampled_from(MODEL_PROMPTS))
    def damage_entry(self, prompt):
        self.cache_dir.mkdir(exist_ok=True)
        self._entry(prompt).write_text('{"text": "trunc', encoding="utf-8")
        self.stored.pop(prompt, None)
        self.damaged.add(prompt)

    @rule(prompt=st.sampled_from(MODEL_PROMPTS))
    def delete_entry(self, prompt):
        self._entry(prompt).unlink(missing_ok=True)
        self.stored.pop(prompt, None)
        self.damaged.discard(prompt)

    @rule()
    def reopen(self):
        self.gateway.close()
        self.closed_spend += self.gateway.spent_usd
        self.gateway = self._open()

    @invariant()
    def the_ledger_holds_one_paid_row_per_call_and_sums_the_settled_spend(self):
        ledger = self.cache_dir / "ledger.csv"
        rows = []
        if ledger.exists():
            with open(ledger, newline="", encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
        assert sum(float(row["cost_usd"]) for row in rows) == self.settled
        assert self.closed_spend + self.gateway.spent_usd == pytest.approx(self.settled,
                                                                           rel=1e-12)
        assert sum(row["cached"] == "false" for row in rows) == self.paid
        assert all(float(row["cost_usd"]) == 0.0 for row in rows if row["cached"] == "true")

    def teardown(self):
        self.gateway.close()
        logging.getLogger("restory.gateway").removeHandler(self.handler)
        shutil.rmtree(self.cache_dir)


TestGatewayModel = GatewayModel.TestCase
TestGatewayModel.settings = settings(max_examples=50, stateful_step_count=30, deadline=None)


# ---------------------------------------------------------------------------
# providers


def test_static_provider_fixed_text():
    provider = StaticProvider("always this")
    assert provider.generate("m", "whatever", GenerationConfig()).text == "always this"


def test_echo_provider_maps_code_from_prompt():
    snippet = make_snippet("s", 6)
    provider = EchoProvider({snippet.source_text: "the canned story"})
    rendered = render_prompt(default_prompt_config("one-scot"), snippet)
    assert provider.generate("m", rendered.text, GenerationConfig()).text == "the canned story"


@given(st.text(alphabet="\n\r\t x;`", min_size=1).filter(str.strip))
def test_echo_provider_finds_any_code_as_the_prompt_shows_it(code):
    rendered = render_prompt(default_prompt_config("zero"), CodeSnippet("s", code, "cpp", 1, 0))
    provider = EchoProvider({code: "the canned story"})
    assert provider.generate("m", rendered.text, GenerationConfig()).text == "the canned story"


def test_echo_provider_rejects_unknown_code():
    provider = EchoProvider({})
    with pytest.raises(GatewayError, match="^no canned completion for the prompted code$"):
        provider.generate("m", "```cpp\nint x;\n```", GenerationConfig())


# ---------------------------------------------------------------------------
# HTTP provider contract, against a real server on 127.0.0.1


class _Endpoint:
    """A local HTTP server: every POST gets `status`, `headers` and `body`,
    with `length` (default: the body's) as its Content-Length. `seen` holds
    the path, headers and body of each POST received."""

    def __init__(self):
        self.seen: list[dict] = []
        self.answer(200, {"text": "a story"})
        endpoint = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args):
                pass

            def do_POST(self):
                body = self.rfile.read(int(self.headers["Content-Length"]))
                endpoint.seen.append({"path": self.path, "headers": self.headers, "body": body})
                self.send_response(endpoint.status)
                for name, value in endpoint.headers.items():
                    self.send_header(name, value)
                self.send_header("Content-Length", str(endpoint.length))
                self.end_headers()
                self.wfile.write(endpoint.body)

        self.server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.server.daemon_threads = True
        self.url = f"http://127.0.0.1:{self.server.server_address[1]}"

    def answer(self, status: int, body=b"{}", length: int | None = None, **headers) -> None:
        """Reply with `body`: bytes as they are, anything else as JSON."""
        self.status = status
        self.body = body if isinstance(body, bytes) else json.dumps(body).encode("utf-8")
        self.length = len(self.body) if length is None else length
        self.headers = {"Content-Type": "application/json", **headers}

    def provider(self, **kwargs) -> HttpProvider:
        return HttpProvider(self.url + "/v1/complete", timeout=10, **kwargs)


@pytest.fixture
def no_proxy(monkeypatch):
    """The requests must reach 127.0.0.1 directly."""
    for name in list(os.environ):
        if name.lower().endswith("_proxy"):
            monkeypatch.delenv(name)


@pytest.fixture
def endpoint(no_proxy):
    server = _Endpoint()
    # A short poll interval keeps `shutdown` from waiting half a second.
    thread = threading.Thread(target=server.server.serve_forever, kwargs={"poll_interval": 0.02},
                              daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.server.shutdown()
        server.server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()


def test_http_provider_request_shape_and_response(endpoint, monkeypatch):
    endpoint.answer(200, {"text": "a story", "input_tokens": 11, "output_tokens": 7})
    monkeypatch.setenv("MY_KEY", "sekrit")
    provider = endpoint.provider(api_key_env="MY_KEY")
    config = GenerationConfig(max_output_tokens=512)
    response = provider.generate("llama-3.1-8b", "the prompt", config)
    assert response.text == "a story"
    assert (response.input_tokens, response.output_tokens) == (11, 7)
    (seen,) = endpoint.seen
    assert seen["path"] == "/v1/complete"
    payload = {
        "model": "llama-3.1-8b",
        "prompt": "the prompt",
        "temperature": 0.0,
        "min_tokens": 50,
        "max_tokens": 512,
        "repetition_penalty": 0.2,
    }
    assert json.loads(seen["body"]) == payload
    assert seen["body"] == json.dumps(payload, allow_nan=False).encode("utf-8")
    assert seen["headers"]["Authorization"] == "Bearer sekrit"
    assert seen["headers"]["Content-Type"] == "application/json"


def test_http_provider_accepts_output_key_and_missing_usage(endpoint):
    endpoint.answer(200, {"output": "alt shape"})
    response = endpoint.provider().generate("m", "p", GenerationConfig())
    assert response.text == "alt shape"
    assert response.input_tokens is None and response.output_tokens is None


@pytest.mark.parametrize("status", [429, 500, 503])
def test_http_provider_retryable_statuses(endpoint, status):
    endpoint.answer(status)
    with pytest.raises(TransientProviderError, match=f"provider returned {status}"):
        endpoint.provider().generate("m", "p", GenerationConfig())


def test_http_provider_rejects_4xx_and_malformed(endpoint):
    endpoint.answer(401, {"error": "bad key"})
    with pytest.raises(GatewayError, match="^provider rejected request: 401 .*bad key"):
        endpoint.provider().generate("m", "p", GenerationConfig())
    endpoint.answer(200, {"nope": 1})
    with pytest.raises(GatewayError,
                       match="^malformed provider response: text is NoneType, not a string$"):
        endpoint.provider().generate("m", "p", GenerationConfig())


@pytest.mark.parametrize(
    "body",
    [["a story"], "a story", {"text": 5}, {"text": "a story", "input_tokens": "12"},
     {"text": "a story", "output_tokens": -1}, {"text": "a story", "input_tokens": True},
     {"text": "a story", "output_tokens": 3.0}, b"not json", b'{"text": "caf\xe9"}',
     {"text": "a story", "input_tokens": 2**1024}],
    ids=["list", "string", "non-string-text", "string-tokens", "negative-tokens",
         "bool-tokens", "float-tokens", "not-json", "not-utf-8", "huge-tokens"],
)
def test_http_provider_rejects_malformed_bodies(endpoint, body):
    endpoint.answer(200, body)
    with pytest.raises(GatewayError, match="^malformed provider response: "):
        endpoint.provider().generate("m", "p", GenerationConfig())


def test_http_provider_rejection_of_a_non_utf8_body_names_the_status(endpoint):
    endpoint.answer(400, b"bad request: caf\xe9")
    with pytest.raises(GatewayError, match="^provider rejected request: 400 bad request"):
        endpoint.provider().generate("m", "p", GenerationConfig())


def test_http_provider_rejects_a_redirect_without_following_it(endpoint):
    endpoint.answer(302, Location="/elsewhere")
    with pytest.raises(GatewayError, match="^provider answered 302 .*redirects are not followed$"):
        endpoint.provider().generate("m", "p", GenerationConfig())
    assert [s["path"] for s in endpoint.seen] == ["/v1/complete"]


def test_http_provider_connection_closed_mid_body_is_transient(endpoint):
    endpoint.answer(200, b'{"text": "a st', length=100)
    with pytest.raises(TransientProviderError, match="request failed"):
        endpoint.provider().generate("m", "p", GenerationConfig())


def test_http_provider_connection_error_is_transient(no_proxy):
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        port = s.getsockname()[1]
    with pytest.raises(TransientProviderError, match="request failed"):
        HttpProvider(f"http://127.0.0.1:{port}/v1", timeout=10).generate(
            "m", "p", GenerationConfig())


@pytest.mark.parametrize("endpoint_url", ["file:///etc/hostname", "models.example/v1"])
def test_http_provider_rejects_an_endpoint_that_is_not_http(endpoint_url):
    with pytest.raises(ValueError, match="not an http"):
        HttpProvider(endpoint_url)


def test_http_provider_rejects_a_key_that_cannot_be_a_header(endpoint, monkeypatch):
    monkeypatch.setenv("MY_KEY", "sekrit\nX-Injected: 1")
    with pytest.raises(GatewayError, match="^request not sent: "):
        endpoint.provider(api_key_env="MY_KEY").generate("m", "p", GenerationConfig())
    assert endpoint.seen == []
