from __future__ import annotations

import collections
import csv
import json
import threading
import time
from pathlib import Path

import pytest

from restory.corpus import (
    CodeSnippet,
    DatasetRecord,
    count_nloc,
    save_dataset,
    stratum_for_nloc,
)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    """One visible pass/fail line per acceptance criterion."""
    outcome = yield
    report = outcome.get_result()
    if report.when == "call" and item.module.__name__ == "test_acceptance":
        label = item.name.removeprefix("test_").replace("_", " ")
        status = "PASS" if report.passed else "FAIL"
        print(f"\nACCEPTANCE {status}: {label}")
from restory.errors import GatewayError
from restory.gateway import GenerationConfig, ProviderResponse, TransientProviderError


_open_gateways: list = []


def close_at_teardown(gateway):
    """`gateway`, closed when the current test ends, whether it passes or not."""
    _open_gateways.append(gateway)
    return gateway


@pytest.fixture(autouse=True)
def _close_open_gateways():
    yield
    while _open_gateways:
        _open_gateways.pop().close()


def make_cpp_source(nloc: int, tag: str = "v") -> str:
    """Straight-line C++ with exactly `nloc` code lines."""
    assert nloc >= 1
    return "\n".join(f"int {tag}{i} = {i};" for i in range(nloc)) + "\n"


def snippet_from_source(snippet_id: str, source_text: str) -> CodeSnippet:
    """A C++ snippet of `source_text`, its NLOC and stratum measured."""
    nloc = count_nloc(source_text)
    return CodeSnippet(id=snippet_id, source_text=source_text, language_tag="cpp",
                       nloc=nloc, stratum_index=stratum_for_nloc(nloc))


def make_snippet(snippet_id: str, nloc: int) -> CodeSnippet:
    return snippet_from_source(snippet_id, make_cpp_source(nloc, tag=f"x{nloc}_"))


def make_dataset(nlocs: list[int]) -> list[DatasetRecord]:
    records = []
    for i, nloc in enumerate(nlocs):
        snippet = make_snippet(f"snip-{i:03d}", nloc)
        story = (
            f"As a user{i}, I want task {i} handled for {nloc} lines "
            f"so that outcome {i} improves."
        )
        records.append(DatasetRecord(snippet=snippet, reference_story=story))
    return records


@pytest.fixture
def dataset_35(tmp_path):
    """35 snippets, one per stratum, saved as a JSON Lines dataset."""
    path = tmp_path / "dataset.jsonl"
    save_dataset(make_dataset([10 * i + 5 for i in range(35)]), path)
    return path


def write_manifest(tmp_path, dataset, out_name="run", **overrides):
    """A hermetic `echo`-provider run manifest; returns its path."""
    values = {
        "dataset": str(dataset),
        "model": "llama-3.1-8b",
        "prompt": "zero",
        "output_dir": str(tmp_path / out_name),
        "provider": "echo",
        "seed": "7",
        "min_output_tokens": "1",
    }
    values.update(overrides)
    path = tmp_path / f"{out_name}.manifest"
    path.write_text(
        "# hermetic run\n" + "\n".join(f"{k} = {v}" for k, v in values.items()) + "\n",
        encoding="utf-8",
    )
    return path


@pytest.fixture
def one_per_stratum_dataset() -> list[DatasetRecord]:
    """35 snippets, one per stratum (NLOC at each band midpoint)."""
    return make_dataset([10 * i + 5 for i in range(35)])


class CountingProvider:
    """Wraps fixed text and counts generate() calls."""

    def __init__(self, text: str = "As a tester, I want output so that tests pass."):
        self.text = text
        self.calls = 0

    def generate(self, model_id: str, prompt_text: str, config: GenerationConfig):
        self.calls += 1
        return ProviderResponse(text=self.text)


class FlakyProvider:
    """Fails transiently `failures` times, then succeeds."""

    def __init__(self, failures: int, text: str = "As a user, I want it so that it works."):
        self.remaining = failures
        self.text = text
        self.calls = 0

    def generate(self, model_id: str, prompt_text: str, config: GenerationConfig):
        self.calls += 1
        if self.remaining > 0:
            self.remaining -= 1
            raise TransientProviderError("synthetic transient failure")
        return ProviderResponse(text=self.text)


class AlwaysFailingProvider:
    def __init__(self, transient: bool = True):
        self.calls = 0
        self.transient = transient

    def generate(self, model_id: str, prompt_text: str, config: GenerationConfig):
        self.calls += 1
        if self.transient:
            raise TransientProviderError("synthetic outage")
        raise GatewayError("synthetic rejection")


class HeldProvider:
    """Wraps a provider so that each call waits until its prompt is released,
    holding calls in flight; counts calls, calls in flight and their peak,
    and lists the calls' prompts in the order they arrived."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = self.in_flight = self.peak = 0
        self.prompts = []
        self._lock = threading.Lock()
        self._gates = collections.defaultdict(threading.Event)
        self._all = threading.Event()

    def release(self, *prompts) -> None:
        """Let the calls of `prompts` through; with none, every call, now and later."""
        with self._lock:
            for prompt in prompts or self._gates:
                self._gates[prompt].set()
            if not prompts:
                self._all.set()

    def generate(self, model_id: str, prompt_text: str, config: GenerationConfig):
        with self._lock:
            self.calls += 1
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
            self.prompts.append(prompt_text)
            gate = self._all if self._all.is_set() else self._gates[prompt_text]
        try:
            if not gate.wait(timeout=10):
                raise RuntimeError("a held provider call was never released")
            return self.inner.generate(model_id, prompt_text, config)
        finally:
            with self._lock:
                self.in_flight -= 1


def wait_until(predicate, timeout: float = 10.0) -> None:
    """Poll `predicate` until it holds; fail the test after `timeout` seconds."""
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "timed out waiting for a condition"
        time.sleep(0.001)


def ledger_cost(path: str | Path) -> float:
    """The sum of a ledger's `cost_usd` cells; 0.0 before its first row."""
    if not Path(path).exists():
        return 0.0
    with open(path, newline="", encoding="utf-8") as fh:
        return sum(float(row["cost_usd"]) for row in csv.DictReader(fh))


def read_report(path: str | Path, format: str = "csv") -> list[dict]:
    """The rows of a report that `write_report_rows` wrote, typed as written."""
    path = Path(path)
    if format == "json":
        return json.loads(path.read_text(encoding="utf-8"))["rows"]
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        row["n"] = int(row["n"])
        row["failures"] = int(row["failures"])
        for key in ("precision", "recall", "f1"):  # empty in a band of failures alone
            row[key] = float(row[key]) if row[key] else None
        row["scot"] = row["scot"] == "true"
    return rows
