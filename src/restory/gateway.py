"""Uniform gateway to chat-completion providers.

Wraps any provider behind one `complete()` call with deterministic
response caching (key = digest of model + decoding config + the
provider's identity, when it has one + prompt text),
bounded retries with exponential backoff on transient failures, an
append-only cost ledger, and an optional per-invocation budget ceiling.

A provider is any object with
    generate(model_id: str, prompt_text: str, config: GenerationConfig)
        -> ProviderResponse
raising TransientProviderError to get a retry; any other GatewayError is a
permanent failure, recorded for that entry. A provider whose replies are
not the model's (`EchoProvider`, `StaticProvider`) has an `identity`
string, so that its cache entries answer it alone. Credentials travel via
environment variables only.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import random
import tempfile
import threading
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from json.encoder import encode_basestring, encode_basestring_ascii
from pathlib import Path

from .errors import BudgetExceededError, DataError, GatewayError
from .jsonl import csv_line, decoder, dumps
from .prompts import estimate_tokens, prompted_code, shown_code

logger = logging.getLogger(__name__)

BACKOFF_BASE_S = 1.0  # the first retry's wait; each later one doubles, plus up to 10% jitter


class TransientProviderError(GatewayError):
    """Retryable failure: timeouts, connection errors, 429/5xx statuses."""


@dataclass(frozen=True)
class GenerationConfig:
    temperature: float = 0.0
    min_output_tokens: int = 50
    repetition_penalty: float = 0.2
    max_output_tokens: int = 4096

    def __post_init__(self):
        if not (math.isfinite(self.temperature) and self.temperature >= 0):
            raise DataError(f"temperature must be finite and >= 0, got {self.temperature}")
        if not (math.isfinite(self.repetition_penalty) and self.repetition_penalty > 0):
            raise DataError(
                f"repetition_penalty must be finite and > 0, got {self.repetition_penalty}"
            )
        if self.min_output_tokens < 1 or self.max_output_tokens < 1:
            raise DataError("min_output_tokens and max_output_tokens must be >= 1")
        if self.min_output_tokens > self.max_output_tokens:
            raise DataError(
                f"min_output_tokens {self.min_output_tokens} exceeds "
                f"max_output_tokens {self.max_output_tokens}"
            )


@dataclass(frozen=True)
class ModelSpec:
    model_id: str
    input_cost_per_mtok: float
    output_cost_per_mtok: float

    def __post_init__(self):
        for name in ("input_cost_per_mtok", "output_cost_per_mtok"):
            v = getattr(self, name)
            if not (v >= 0 and v == v and v != float("inf")):
                raise DataError(f"{name} must be finite and non-negative, got {v}")


# Published pay-as-you-go rates, USD per 1M tokens (input, output).
MODEL_RATES = {
    "llama-3.1-8b": (0.05, 0.25),
    "llama-3.1-70b": (0.65, 2.75),
    "llama-3.1-405b": (9.50, 9.50),
    "deepseek-r1": (0.55, 2.19),
    "gpt-4o-mini": (0.80, 3.20),
    "o1": (10.00, 40.00),
}


def model_spec(model_id: str) -> ModelSpec:
    try:
        rates = MODEL_RATES[model_id]
    except KeyError:
        raise DataError(
            f"no built-in rates for model {model_id!r}; supply rates explicitly"
        ) from None
    return ModelSpec(model_id, rates[0], rates[1])


def estimate_cost(input_tokens: int, output_tokens: int, model: ModelSpec) -> float:
    """USD cost of a completion at the model's per-million-token rates."""
    return (
        input_tokens / 1e6 * model.input_cost_per_mtok
        + output_tokens / 1e6 * model.output_cost_per_mtok
    )


@dataclass(frozen=True)
class CompletionResult:
    text: str
    input_tokens: int
    output_tokens: int
    latency_ms: int
    cost_usd: float
    cached: bool
    retries: int = 0
    tokens_estimated: bool = False

    def __post_init__(self):
        if min(self.input_tokens, self.output_tokens, self.latency_ms, self.retries) < 0:
            raise DataError("token counts, latency_ms and retries must be >= 0")
        if not 0.0 <= self.cost_usd < math.inf:
            raise DataError(f"cost_usd must be finite and >= 0, got {self.cost_usd}")


def _cache_hit_flag(obj: dict) -> bool:
    """The `cached` field of an entry read back from the cache: True, once
    the stored flag is found to be a bool."""
    if obj["cached"].__class__ is not bool:
        raise TypeError(f"cached {obj['cached']!r} is not a bool")
    return True


_decode_entry = decoder(CompletionResult, cached=_cache_hit_flag)


@dataclass(frozen=True)
class ProviderResponse:
    text: str
    input_tokens: int | None = None
    output_tokens: int | None = None


class HttpProvider:
    """Generic HTTP(S) chat-completion endpoint.

    Sends JSON with the model id, prompt, and decoding parameters; expects
    JSON back with `text` (or `output`) and optional token counts. The API
    key is read from the named environment variable at call time. The
    stdlib client verifies HTTPS against the system trust store and takes
    proxies from the environment when the provider is made; a redirect is
    never followed, because it would turn the POST into a GET.
    """

    RETRYABLE_STATUSES = frozenset({408, 425, 429, 500, 502, 503, 504})

    def __init__(self, endpoint: str, api_key_env: str = "RESTORY_API_KEY", timeout: float = 120.0):
        # urllib would also open file:, ftp: and data: URLs.
        if not endpoint.lower().startswith(("http://", "https://")):
            raise ValueError(f"endpoint {endpoint!r} is not an http(s) URL")
        self.endpoint = endpoint
        self.api_key_env = api_key_env
        self.timeout = timeout
        self._opener = _build_opener()

    def generate(self, model_id: str, prompt_text: str, config: GenerationConfig) -> ProviderResponse:
        import http.client
        import urllib.error
        import urllib.request

        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(self.api_key_env)
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        payload = {
            "model": model_id,
            "prompt": prompt_text,
            "temperature": config.temperature,
            "min_tokens": config.min_output_tokens,
            "max_tokens": config.max_output_tokens,
            "repetition_penalty": config.repetition_penalty,
        }
        location = None
        try:
            request = urllib.request.Request(
                self.endpoint, data=json.dumps(payload, allow_nan=False).encode("utf-8"),
                headers=headers, method="POST",
            )
            try:
                with self._opener.open(request, timeout=self.timeout) as resp:
                    status, raw = resp.status, resp.read()
            except urllib.error.HTTPError as exc:
                with exc:
                    status, location, raw = exc.code, exc.headers.get("Location"), exc.read()
        except (OSError, http.client.HTTPException) as exc:
            raise TransientProviderError(f"request failed: {exc}") from exc
        except ValueError as exc:  # a config, URL or header value that cannot be sent
            raise GatewayError(f"request not sent: {exc}") from exc
        if status in self.RETRYABLE_STATUSES:
            raise TransientProviderError(f"provider returned {status}")
        if status >= 400:
            detail = raw.decode("utf-8", "replace")[:200]
            raise GatewayError(f"provider rejected request: {status} {detail}")
        if not 200 <= status < 300:
            raise GatewayError(
                f"provider answered {status} (location {location!r}); redirects are not followed"
            )
        try:
            body = json.loads(raw.decode("utf-8"))
        except ValueError as exc:
            raise GatewayError(f"malformed provider response: {exc}") from exc
        if not isinstance(body, dict):
            raise GatewayError(
                f"malformed provider response: expected a JSON object, got {type(body).__name__}"
            )
        text = body["text"] if "text" in body else body.get("output")
        if not isinstance(text, str):
            raise GatewayError(
                f"malformed provider response: text is {type(text).__name__}, not a string"
            )
        usage = {name: body.get(name) for name in ("input_tokens", "output_tokens")}
        for name, count in usage.items():
            if count is not None and (type(count) is not int or not 0 <= count < 2**63):
                raise GatewayError(
                    f"malformed provider response: {name} is {count!r}, "
                    "not a non-negative int below 2**63"
                )
        return ProviderResponse(text=text, **usage)


def _build_opener():
    """A urllib opener with the default handlers, proxies read from the
    environment now, and redirects refused: a 3xx surfaces as an HTTPError."""
    import urllib.request

    class RefuseRedirects(urllib.request.HTTPRedirectHandler):
        def redirect_request(self, req, fp, code, msg, headers, newurl):
            return None

    return urllib.request.build_opener(RefuseRedirects)


class StaticProvider:
    """Always returns the same text; hermetic stand-in for a live model."""

    def __init__(self, text: str):
        self.text = text
        # A text with no UTF-8 form has an identity too; each call refuses it.
        digest = hashlib.sha256(text.encode("utf-8", "surrogatepass")).hexdigest()
        self.identity = f"static:{digest}"

    def generate(self, model_id: str, prompt_text: str, config: GenerationConfig) -> ProviderResponse:
        return ProviderResponse(text=self.text)


class EchoProvider:
    """Replays a canned completion keyed by the code inside the prompt, as
    `shown_code` gives it and `prompted_code` reads it back. Useful for
    hermetic runs where the "model" should echo each snippet's reference
    story.
    """

    identity = "echo"

    def __init__(self, completion_by_code: dict[str, str]):
        self._completions = {
            shown_code(code): text for code, text in completion_by_code.items()
        }

    def generate(self, model_id: str, prompt_text: str, config: GenerationConfig) -> ProviderResponse:
        text = self._completions.get(prompted_code(prompt_text))
        if text is None:
            raise GatewayError("no canned completion for the prompted code")
        return ProviderResponse(text=text)


class Ledger:
    """Append-only CSV cost log: timestamp,model,input_tokens,output_tokens,cost_usd,cached.

    The first row opens one append handle, which every later row reuses;
    each row is flushed before `append` returns. `close` releases the
    handle, and an append after it opens a new one.
    """

    COLUMNS = ("timestamp", "model", "input_tokens", "output_tokens", "cost_usd", "cached")

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._lock = threading.Lock()
        self._fh = None

    def append(self, model_id: str, input_tokens: int, output_tokens: int,
               cost_usd: float, cached: bool) -> None:
        with self._lock:
            if self._fh is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._fh = open(self.path, "a", newline="", encoding="utf-8")
                if self._fh.tell() == 0:  # a new or empty file
                    self._fh.write(csv_line(self.COLUMNS))
            self._fh.write(csv_line((
                datetime.now(timezone.utc).isoformat(),
                model_id,
                input_tokens,
                output_tokens,
                repr(cost_usd),  # every digit, where a float cell keeps two decimals
                cached,
            )))
            self._fh.flush()

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None


class Gateway:
    """One model + one provider + shared cache, retry policy, and budget.

    `restory generate` makes one per invocation, so a `--grid`'s variants
    share its budget, ledger handle, permits and cache-key prefix.

    One condition admits every call. `complete` claims its cache key before
    its one cache probe: a later completion of the key waits for the claim,
    then reads the stored entry as a hit, or calls the provider itself if
    the first call failed. A provider call waits for one of `concurrency`
    permits and checks the budget as it takes one, and holds it through its
    last retry and the settling of its cost; the cache key, probe, ledger
    row and cache write take no permit.

    Completions are cached under `cache_dir`, which the first ledger row
    makes. Every completion, hit or miss, appends a row to the ledger
    `cache_dir / "ledger.csv"`; `close()`, or leaving a `with Gateway(...)`
    block, closes it.
    """

    def __init__(
        self,
        provider,
        model: ModelSpec,
        config: GenerationConfig | None = None,
        *,
        cache_dir: str | Path,
        retries: int = 3,
        budget_usd: float | None = None,
        concurrency: int = 1,
        sleep=time.sleep,
        rng: random.Random | None = None,
    ):
        if concurrency < 1:  # no permit would ever be free
            raise DataError(f"concurrency must be >= 1, got {concurrency}")
        self.provider = provider
        self.model = model
        self.config = config or GenerationConfig()
        self.cache_dir = Path(cache_dir)
        self.ledger = Ledger(self.cache_dir / "ledger.csv")
        self.retries = retries
        self.budget_usd = budget_usd
        self.concurrency = concurrency
        self._sleep = sleep
        self._rng = rng or random.Random()
        # Guards the claimed keys, the permits taken, `spent_usd` and `provider_calls`.
        self._admission = threading.Condition()
        self._claimed: set[str] = set()
        self._calls = 0  # calls holding a permit
        self.spent_usd = 0.0
        self.provider_calls = 0
        # The cache key hashes the `dumps` of the model id, the decoding
        # config, the provider's identity when it has one, and the prompt.
        # Only the prompt varies, so the bytes before and after its JSON
        # string are fixed here, once.
        keyed = {
            "model": self.model.model_id,
            "temperature": self.config.temperature,
            "min_output_tokens": self.config.min_output_tokens,
            "repetition_penalty": self.config.repetition_penalty,
            "max_output_tokens": self.config.max_output_tokens,
            "prompt": "",
        }
        if (identity := getattr(provider, "identity", None)) is not None:
            keyed["provider"] = identity
        head, _, tail = dumps(keyed).partition('"prompt": ""')
        self._key_prefix = hashlib.sha256((head + '"prompt": ').encode("utf-8"))
        self._key_suffix = tail.encode("utf-8")

    def close(self) -> None:
        self.ledger.close()

    def __enter__(self) -> "Gateway":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- cache ---------------------------------------------------------

    def _cache_key(self, prompt_text: str) -> str:
        digest = self._key_prefix.copy()
        # The bytes of `json.dumps(prompt_text, ensure_ascii=False)`: the ASCII
        # escaper gives them too, faster, for ASCII text free of the DEL it escapes.
        ascii_safe = prompt_text.isascii() and "\x7f" not in prompt_text
        escape = encode_basestring_ascii if ascii_safe else encode_basestring
        digest.update(escape(prompt_text).encode("utf-8"))
        digest.update(self._key_suffix)
        return digest.hexdigest()

    def _cache_path(self, key: str) -> str:
        # A string join: a `Path` per entry would parse its name and intern it.
        return os.path.join(self.cache_dir, f"{key}.json")

    def _cache_load(self, key: str) -> CompletionResult | None:
        path = self._cache_path(key)
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
        except FileNotFoundError:
            return None
        try:
            return _decode_entry(json.loads(raw.decode("utf-8")))
        except (ValueError, TypeError, KeyError, DataError) as exc:
            # A miss: the provider's result overwrites the damaged entry.
            logger.warning("ignoring damaged cache entry %s: %s", path, exc)
            return None

    def _cache_store(self, key: str, result: CompletionResult) -> None:
        # `cache_dir` exists: the ledger row before this made it.
        path = self._cache_path(key)
        # A temporary file of its own per writer, so that writers of the same
        # key in a shared cache dir never write into each other's file.
        fd, tmp = tempfile.mkstemp(dir=self.cache_dir, prefix=f"{key}.", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(dumps(vars(result)))
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise

    # -- completion ----------------------------------------------------

    def complete(self, prompt_text: str) -> CompletionResult:
        """Resolve a prompt's text to a completion, via cache when possible.

        Cache hits add nothing to the ledger total or the budget; misses
        call the provider with up to `retries` retries on transient errors,
        then write the ledger row before storing the result atomically, so
        a paid call keeps its row even if the store fails.
        """
        key = self._cache_key(prompt_text)
        with self._admission:
            while key in self._claimed:
                self._admission.wait()
            self._claimed.add(key)
        try:
            hit = self._cache_load(key)
            if hit is None:
                return self._call(key, prompt_text)
        finally:
            with self._admission:
                self._claimed.remove(key)
                self._admission.notify_all()
        self.ledger.append(self.model.model_id, hit.input_tokens,
                           hit.output_tokens, 0.0, cached=True)
        return hit

    def _call(self, key: str, prompt_text: str) -> CompletionResult:
        """The provider's completion of a prompt the cache does not hold."""
        with self._admission:
            # A call that waited for its permit sees the spend of every call before it.
            while self._calls >= self.concurrency:
                self._admission.wait()
            if self.budget_usd is not None and self.spent_usd >= self.budget_usd:
                raise self.over_budget()
            self._calls += 1
        cost = 0.0
        try:
            attempt = 0
            start = time.monotonic()
            while True:
                try:
                    with self._admission:
                        self.provider_calls += 1
                    response = self.provider.generate(self.model.model_id, prompt_text, self.config)
                    break
                except TransientProviderError as exc:
                    if attempt >= self.retries:
                        raise GatewayError(
                            f"provider still failing after {self.retries} retries: {exc}"
                        ) from exc
                    delay = BACKOFF_BASE_S * (2 ** attempt) * (1 + 0.1 * self._rng.random())
                    self._sleep(delay)
                    attempt += 1
            latency_ms = int((time.monotonic() - start) * 1000)
            try:
                response.text.encode("utf-8")
            except UnicodeEncodeError as exc:  # cache and results files are UTF-8
                raise GatewayError(
                    f"provider reply has no UTF-8 form: a lone surrogate at index {exc.start}"
                ) from None

            estimated = response.input_tokens is None or response.output_tokens is None
            input_tokens = (
                response.input_tokens
                if response.input_tokens is not None
                else estimate_tokens(prompt_text)
            )
            output_tokens = (
                response.output_tokens
                if response.output_tokens is not None
                else estimate_tokens(response.text)
            )
            cost = estimate_cost(input_tokens, output_tokens, self.model)
        finally:
            with self._admission:
                self.spent_usd += cost
                self._calls -= 1
                self._admission.notify_all()

        result = CompletionResult(
            text=response.text,
            input_tokens=input_tokens,
            output_tokens=output_tokens,
            latency_ms=latency_ms,
            cost_usd=cost,
            cached=False,
            retries=attempt,
            tokens_estimated=estimated,
        )
        self.ledger.append(self.model.model_id, input_tokens, output_tokens, cost, cached=False)
        self._cache_store(key, result)
        if self.budget_usd is not None and self.spent_usd > self.budget_usd:
            raise self.over_budget()
        return result

    def over_budget(self) -> BudgetExceededError:
        """The budget refusal, stating the spend settled so far."""
        return BudgetExceededError(f"budget {self.budget_usd} USD reached: spent {self.spent_usd:.6f}")
