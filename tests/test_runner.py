from __future__ import annotations

import csv
import io
import json
import logging
import random
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings, strategies as st

from restory.corpus import CodeSnippet, DatasetRecord
from restory.errors import DataError, GatewayError
from restory.gateway import BudgetExceededError, Gateway, ModelSpec
from restory.jsonl import csv_text
from restory.metrics import FidelityBand, HashEmbedder, ScoreTriple, tokenize
from restory.prompts import default_prompt_config, render_prompt
from restory.runner import (
    AnnotationSet,
    BandAggregate,
    CalibrationPair,
    FailureRecord,
    GenerationRecord,
    aggregate_by_band,
    calibration_experiment,
    cohen_kappa,
    collect_report_rows,
    load_calibration_pairs,
    load_results,
    run_experiment,
    score_pair,
    write_report_rows,
)

from conftest import (
    AlwaysFailingProvider,
    CountingProvider,
    HeldProvider,
    close_at_teardown,
    ledger_cost,
    make_dataset,
    read_report,
    wait_until,
)
from oracles import OneHotEmbedder

MODEL = ModelSpec("llama-3.1-8b", 0.05, 0.25)


def _gateway(provider, tmp_path, **kwargs):
    from restory.gateway import GenerationConfig

    return close_at_teardown(Gateway(provider, MODEL, GenerationConfig(min_output_tokens=1),
                                     cache_dir=tmp_path / "cache",
                                     sleep=lambda s: None, **kwargs))


def _prompt_code(prompt_text: str) -> str:
    """The snippet code that a rendered prompt embeds."""
    return prompt_text.split("```")[-2].split("\n", 1)[1].rstrip("\n")


class EchoByPrompt:
    """Returns the reference story for whichever snippet the prompt embeds."""

    def __init__(self, dataset):
        self._stories = {rec.snippet.source_text.rstrip("\n"): rec.reference_story
                         for rec in dataset}
        self.calls = 0

    def generate(self, model_id, prompt_text, config):
        from restory.gateway import ProviderResponse

        self.calls += 1
        return ProviderResponse(text=self._stories[_prompt_code(prompt_text)])


# ---------------------------------------------------------------------------
# scoring


@pytest.mark.parametrize("candidate", ["", "a b"], ids=["empty", "non-empty"])
def test_score_pair_rejects_an_unknown_metric_whatever_the_texts(candidate):
    with pytest.raises(DataError, match="no-such-metric"):
        score_pair(candidate, "a b", HashEmbedder(dim=8), ("no-such-metric",))


def test_scorers_call_the_metric_functions_through_the_module(monkeypatch):
    """Wrappers set on the runner module (as the benchmark's tracer sets
    them) see every metric call."""
    import restory.runner as runner

    calls = dict.fromkeys(("bleu", "rouge_l", "greedy_embedding_score"), 0)
    for name in calls:
        def counting(*args, _name=name, _fn=getattr(runner, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(runner, name, counting)
    score_pair("sort the list", "sort a list", HashEmbedder(dim=8), tuple(runner.METRICS))
    assert calls == {"bleu": 2, "rouge_l": 2, "greedy_embedding_score": 1}
    calls.update(dict.fromkeys(calls, 0))
    pairs = load_calibration_pairs()
    calibration_experiment(pairs, HashEmbedder(dim=8))
    n = len(pairs)
    assert calls == {"bleu": 2 * n, "rouge_l": 2 * n, "greedy_embedding_score": n}


# ---------------------------------------------------------------------------
# run_experiment


def test_echo_run_is_all_faithful(tmp_path):
    dataset = make_dataset([5, 150, 349])
    provider = EchoByPrompt(dataset)
    result = run_experiment(dataset, _gateway(provider, tmp_path),
                            default_prompt_config("zero"), prompt_label="zero")
    assert len(result.records) == 3
    assert all(rec.band is FidelityBand.FAITHFUL for rec in result.records)
    assert all(rec.scores["greedy-embedding"].f1 > 1 - 1e-9 for rec in result.records)
    assert all(not rec.parse_fallback for rec in result.records)
    assert result.failures == []


def test_garbage_run_is_all_divergent(tmp_path):
    dataset = make_dataset([5, 150, 349])
    garbage = "the maintenance window moved to thursday evening"
    vocab = set(tokenize(garbage))
    for rec in dataset:
        vocab |= set(tokenize(rec.reference_story))
    result = run_experiment(
        dataset,
        _gateway(CountingProvider(garbage), tmp_path),
        default_prompt_config("zero"),
        embedder=OneHotEmbedder(sorted(vocab)),
        prompt_label="zero",
    )
    assert all(rec.band is FidelityBand.DIVERGENT for rec in result.records)
    assert all(rec.parse_fallback for rec in result.records)  # garbage has no story clause


def test_warm_rerun_zero_provider_calls_and_identical_bytes(tmp_path):
    dataset = make_dataset([5, 150, 349])
    provider = EchoByPrompt(dataset)
    config = default_prompt_config("one")
    first_path = tmp_path / "first.jsonl"
    second_path = tmp_path / "second.jsonl"

    cold = run_experiment(dataset, _gateway(provider, tmp_path), config,
                          results_path=first_path, prompt_label="one")
    calls_after_cold = provider.calls
    warm = run_experiment(dataset, _gateway(provider, tmp_path), config,
                          results_path=second_path, prompt_label="one")
    assert provider.calls == calls_after_cold  # zero new provider calls
    assert warm.provider_calls == 0
    assert first_path.read_bytes() == second_path.read_bytes()
    assert cold.records == warm.records
    assert warm.total_cost_usd == 0.0


def test_short_completions_are_counted_not_logged(tmp_path, caplog):
    from restory.gateway import GenerationConfig

    dataset = make_dataset([5, 25, 45, 65])
    provider = CountingProvider("tiny")  # one estimated output token
    config = default_prompt_config("zero")

    def gateway(min_output_tokens: int) -> Gateway:
        return close_at_teardown(Gateway(
            provider, MODEL, GenerationConfig(min_output_tokens=min_output_tokens),
            cache_dir=tmp_path / f"cache-{min_output_tokens}"))

    shared = gateway(2)
    with caplog.at_level(logging.DEBUG, logger="restory"):
        first = run_experiment(dataset[:2], shared, config)
        second = run_experiment(dataset, shared, config)  # its first two entries hit
        met = run_experiment(dataset[:2], gateway(1), config)
    assert (first.new_completions, first.short_completions) == (2, 2)
    assert (second.new_completions, second.short_completions) == (2, 2)
    assert (met.new_completions, met.short_completions) == (2, 0)
    assert provider.calls == 6
    assert caplog.records == []


def test_run_total_cost_equals_ledger_delta(tmp_path):
    dataset = make_dataset([5, 25, 45])
    provider = EchoByPrompt(dataset)
    gateway = _gateway(provider, tmp_path)
    before = ledger_cost(gateway.ledger.path)
    result = run_experiment(dataset, gateway, default_prompt_config("zero"))
    after = ledger_cost(gateway.ledger.path)
    assert abs(result.total_cost_usd - (after - before)) < 1e-12
    assert abs(sum(r.cost_usd for r in result.records) - result.total_cost_usd) < 1e-12


def test_provider_failures_recorded_not_fatal(tmp_path):
    dataset = make_dataset([5, 15])
    result = run_experiment(dataset, _gateway(AlwaysFailingProvider(), tmp_path, retries=0),
                            default_prompt_config("zero"),
                            results_path=tmp_path / "results.jsonl")
    assert result.records == []
    assert len(result.failures) == 2
    records, failures = load_results(tmp_path / "results.jsonl")
    assert records == []
    assert len(failures) == 2
    assert "still failing" in failures[0].failure


@pytest.mark.parametrize("reply", ["As a  , I want x so that y.", "As a dev, I want  "],
                         ids=["blank-role", "blank-goal"])
def test_a_reply_with_a_blank_role_or_goal_falls_back_to_its_text(tmp_path, reply):
    result = run_experiment(make_dataset([5]), _gateway(CountingProvider(reply), tmp_path),
                            default_prompt_config("zero"),
                            results_path=tmp_path / "results.jsonl")
    assert result.failures == []
    [record] = result.records
    assert record.parse_fallback and record.candidate_story == reply
    assert load_results(tmp_path / "results.jsonl") == ([record], [])


def test_a_reply_without_a_utf8_form_is_a_failure_record(tmp_path):
    result = run_experiment(make_dataset([5, 15]),
                            _gateway(CountingProvider("As a \ud800, I want x."), tmp_path),
                            default_prompt_config("zero"),
                            results_path=tmp_path / "results.jsonl")
    assert result.records == [] and len(result.failures) == 2
    assert result.failures[0].failure == (
        "provider reply has no UTF-8 form: a lone surrogate at index 5")
    assert load_results(tmp_path / "results.jsonl") == ([], result.failures)
    assert not list((tmp_path / "cache").glob("*.json"))


def test_budget_abort_saves_partial_results(tmp_path):
    dataset = make_dataset([5, 15, 25])
    probe = run_experiment(dataset, _gateway(EchoByPrompt(dataset), tmp_path / "probe"),
                           default_prompt_config("zero"))
    costs = [rec.cost_usd for rec in probe.records]
    # enough for the first completion, crossed by the second
    gateway = _gateway(EchoByPrompt(dataset), tmp_path, budget_usd=costs[0] + costs[1] / 2)
    with pytest.raises(BudgetExceededError):
        run_experiment(dataset, gateway, default_prompt_config("zero"),
                       results_path=tmp_path / "partial.jsonl")
    records, _ = load_results(tmp_path / "partial.jsonl")
    assert [rec.snippet_id for rec in records] == ["snip-000"]


def test_budget_below_first_call_saves_empty_prefix(tmp_path):
    dataset = make_dataset([5, 15, 25])
    gateway = _gateway(EchoByPrompt(dataset), tmp_path, budget_usd=1e-12)
    with pytest.raises(BudgetExceededError):
        run_experiment(dataset, gateway, default_prompt_config("zero"),
                       results_path=tmp_path / "partial.jsonl")
    records, _ = load_results(tmp_path / "partial.jsonl")
    assert records == []  # valid empty prefix; the paid call is cached for reruns


def test_multiple_stories_concatenated_and_flagged(tmp_path):
    dataset = make_dataset([5])
    two_stories = ("As a cook, I want menus planned so that waste drops. "
                   "As a buyer, I want stock tracked so that orders land on time.")
    result = run_experiment(dataset, _gateway(CountingProvider(two_stories), tmp_path),
                            default_prompt_config("zero"))
    rec = result.records[0]
    assert rec.multi_story is True
    assert rec.candidate_story.count("As a") == 2


def test_empty_dataset_rejected(tmp_path):
    results = tmp_path / "out" / "results.jsonl"
    with pytest.raises(DataError, match="^dataset is empty$"):
        run_experiment([], _gateway(CountingProvider(), tmp_path), default_prompt_config("zero"),
                       results_path=results)
    assert not results.exists()


def test_concurrent_run_matches_serial(tmp_path):
    dataset = make_dataset([5, 15, 25, 35, 45, 55])
    provider = EchoByPrompt(dataset)
    serial = run_experiment(dataset, _gateway(provider, tmp_path / "a"),
                            default_prompt_config("zero"), prompt_label="zero")
    threaded = run_experiment(dataset, _gateway(provider, tmp_path / "b", concurrency=4),
                              default_prompt_config("zero"), prompt_label="zero")
    assert [r.snippet_id for r in threaded.records] == [r.snippet_id for r in serial.records]
    assert threaded.records == serial.records


class RejectingEchoByPrompt(EchoByPrompt):
    """EchoByPrompt that permanently rejects the prompts of `rejected` records."""

    def __init__(self, dataset, rejected):
        super().__init__(dataset)
        self._rejected = {rec.snippet.source_text.rstrip("\n") for rec in rejected}

    def generate(self, model_id, prompt_text, config):
        if _prompt_code(prompt_text) in self._rejected:
            raise GatewayError("synthetic rejection")
        return super().generate(model_id, prompt_text, config)


def _serial_bytes(dataset, provider, tmp_path) -> bytes:
    path = tmp_path / "serial.jsonl"
    run_experiment(dataset, _gateway(provider, tmp_path / "serial"),
                   default_prompt_config("zero"), results_path=path, prompt_label="zero")
    return path.read_bytes()


def test_concurrent_budget_abort_leaves_a_prefix_of_the_serial_file(tmp_path):
    dataset = make_dataset([5, 15, 25, 35, 45])
    serial = _serial_bytes(dataset, EchoByPrompt(dataset), tmp_path)
    costs = [json.loads(line)["cost_usd"] for line in serial.splitlines()]
    # enough for the first completion, crossed by the second
    gateway = _gateway(EchoByPrompt(dataset), tmp_path, budget_usd=costs[0] + costs[1] / 2,
                       concurrency=2)
    with pytest.raises(BudgetExceededError):
        run_experiment(dataset, gateway, default_prompt_config("zero"),
                       results_path=tmp_path / "partial.jsonl", prompt_label="zero")
    partial = (tmp_path / "partial.jsonl").read_bytes()
    assert serial.startswith(partial)
    assert len(partial.splitlines()) < len(dataset)


def test_concurrent_failures_are_written_in_place_like_the_serial_run(tmp_path):
    dataset = make_dataset([5, 15, 25, 35, 45, 55, 65])
    rejected = dataset[1::3]
    serial = _serial_bytes(dataset, RejectingEchoByPrompt(dataset, rejected), tmp_path)
    result = run_experiment(dataset,
                            _gateway(RejectingEchoByPrompt(dataset, rejected), tmp_path / "pool",
                                     concurrency=3),
                            default_prompt_config("zero"), results_path=tmp_path / "pool.jsonl",
                            prompt_label="zero")
    assert (tmp_path / "pool.jsonl").read_bytes() == serial
    assert [f.snippet_id for f in result.failures] == [rec.snippet.id for rec in rejected]
    assert len(result.records) == len(dataset) - len(rejected)


@pytest.mark.parametrize("concurrency", [2, 3])
def test_concurrency_bounds_calls_in_flight_while_the_next_entry_waits_ready(tmp_path,
                                                                              concurrency):
    dataset = make_dataset([5, 15, 25, 35, 45, 55, 65, 75])
    serial = _serial_bytes(dataset, EchoByPrompt(dataset), tmp_path)
    provider = HeldProvider(EchoByPrompt(dataset))
    gateway = _gateway(provider, tmp_path / "pool", concurrency=concurrency)
    probed = []
    load = gateway._cache_load
    gateway._cache_load = lambda key: probed.append(key) or load(key)
    config = default_prompt_config("zero")
    ready = {gateway._cache_key(render_prompt(config, entry.snippet).text)
             for entry in dataset[:concurrency + 1]}
    with ThreadPoolExecutor(max_workers=1) as background:
        try:
            run = background.submit(run_experiment, dataset, gateway, config,
                                    results_path=tmp_path / "pool.jsonl", prompt_label="zero")
            wait_until(lambda: provider.in_flight == concurrency and len(probed) == len(ready))
            time.sleep(0.05)  # room for a call beyond the limit to start, were it allowed
            assert provider.in_flight == concurrency
            # the next entry is rendered and probed, once: no call ended since its probe
            assert Counter(probed) == dict.fromkeys(ready, 1)
        finally:
            provider.release()
        run.result(timeout=10)
    assert provider.peak == concurrency
    assert (tmp_path / "pool.jsonl").read_bytes() == serial


def test_budget_abort_states_the_settled_spend_of_the_calls_in_flight(tmp_path):
    dataset = make_dataset([5, 15, 25, 35, 45, 55])
    provider = HeldProvider(EchoByPrompt(dataset))
    gateway = _gateway(provider, tmp_path, budget_usd=1e-12, concurrency=3)
    with ThreadPoolExecutor(max_workers=1) as background:
        try:
            run = background.submit(run_experiment, dataset, gateway,
                                    default_prompt_config("zero"),
                                    results_path=tmp_path / "partial.jsonl")
            wait_until(lambda: provider.in_flight == 3)
            provider.release(provider.prompts[0])  # one call crosses the budget...
            wait_until(lambda: gateway.spent_usd > 0)
        finally:
            provider.release()  # ...while two more are still in flight
        with pytest.raises(BudgetExceededError) as raised:
            run.result(timeout=10)
    ledger = tmp_path / "cache" / "ledger.csv"
    assert provider.calls == 3 and len(ledger.read_text().splitlines()) == 1 + 3
    assert str(raised.value) == f"budget 1e-12 USD reached: spent {ledger_cost(ledger):.6f}"


def test_concurrent_render_error_propagates_and_leaks_no_handle(tmp_path, monkeypatch):
    import restory.runner as runner

    opened = []

    def recording_open(*args, **kwargs):
        opened.append(open(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(runner, "open", recording_open, raising=False)
    threads_before = set(threading.enumerate())
    dataset = make_dataset([5, 15, 25])
    blank = CodeSnippet("blank", " \n\t\n", "cpp", 1, 0)  # cannot be rendered
    dataset[0] = DatasetRecord(snippet=blank, reference_story=dataset[0].reference_story)
    with pytest.raises(DataError, match="^snippet blank has empty source$"):
        run_experiment(dataset, _gateway(CountingProvider(), tmp_path, concurrency=2),
                       default_prompt_config("one"),
                       results_path=tmp_path / "results.jsonl")
    assert len(opened) == 1 and opened[0].closed
    assert (tmp_path / "results.jsonl").read_bytes() == b""
    assert set(threading.enumerate()) <= threads_before  # the pool's workers are joined


def test_unknown_metric_is_refused_before_any_call_or_write(tmp_path):
    provider = CountingProvider()
    results = tmp_path / "results.jsonl"
    results.write_text("an earlier run\n", encoding="utf-8")
    with pytest.raises(DataError, match="^unknown metric 'nope'$"):
        run_experiment(make_dataset([5]), _gateway(provider, tmp_path),
                       default_prompt_config("zero"), metric_names=("nope",), results_path=results)
    assert provider.calls == 0
    assert not (tmp_path / "cache" / "ledger.csv").exists()
    assert results.read_text(encoding="utf-8") == "an earlier run\n"


# ---------------------------------------------------------------------------
# aggregation


def _record(snippet_id: str, nloc: int, p: float, r: float, **kwargs) -> GenerationRecord:
    from restory.metrics import classify_fidelity

    triple = ScoreTriple.from_pr(p, r)
    return GenerationRecord(
        snippet_id=snippet_id,
        nloc=nloc,
        model_id=kwargs.get("model_id", "llama-3.1-8b"),
        prompt_fingerprint="fp",
        prompt_label=kwargs.get("prompt_label", "zero"),
        scot=kwargs.get("scot", False),
        candidate_story="As a u, I want g.",
        scores={"greedy-embedding": triple},
        band=classify_fidelity(triple.f1),
        cost_usd=0.001,
    )


@pytest.mark.parametrize("nloc", [0, 351])
def test_records_reject_nloc_outside_the_design_range(nloc):
    message = rf"^nloc {nloc} outside \[1, 350\]$"
    with pytest.raises(DataError, match=message):
        _record("x", nloc, 0.5, 0.5)
    with pytest.raises(DataError, match=message):
        FailureRecord("x", nloc, "synthetic failure")


def test_band_aggregate_n_must_be_positive():
    with pytest.raises(DataError, match="aggregate n must be positive"):
        BandAggregate("1-100", 1, 100, 0, 0.5, 0.5, 0.5)
    with pytest.raises(DataError, match="aggregate n must be positive"):
        BandAggregate("1-100", 1, 100, -1, None, None, None, failures=1)
    assert BandAggregate("1-100", 1, 100, 0, None, None, None, failures=1).n == 0


def test_constant_band_mean():
    records = [_record(f"s{i}", 42, 0.8, 0.8) for i in range(4)]
    aggs = aggregate_by_band(records, "per-stratum")
    assert len(aggs) == 1
    assert aggs[0].band_label == "41-50"
    assert aggs[0].n == 4
    assert abs(aggs[0].mean_f1 - 0.8) < 1e-12


def test_two_record_mean():
    records = [_record("a", 50, 0.6, 0.6), _record("b", 99, 1.0, 1.0)]
    aggs = aggregate_by_band(records, "coarse3")
    assert aggs[0].band_label == "1-100"
    assert abs(aggs[0].mean_f1 - 0.8) < 1e-12


def test_thirty_record_spreadsheet_oracle():
    # hand-designed layout: 10 records in 1-100, 12 in 101-200, 8 in 201-350
    low = [0.60, 1.00, 0.80, 0.80, 0.70, 0.90, 0.75, 0.85, 0.65, 0.95]   # mean 0.80
    mid = [0.50, 0.70, 0.60, 0.80, 0.55, 0.65, 0.75, 0.85, 0.45, 0.95, 0.62, 0.78]  # mean 0.683...
    high = [0.40, 0.60, 0.50, 0.70, 0.45, 0.55, 0.65, 0.35]             # mean 0.525
    records = []
    for i, f in enumerate(low):
        records.append(_record(f"low{i}", 5 + 9 * i, f, f))
    for i, f in enumerate(mid):
        records.append(_record(f"mid{i}", 101 + 8 * i, f, f))
    for i, f in enumerate(high):
        records.append(_record(f"high{i}", 201 + 18 * i, f, f))
    aggs = aggregate_by_band(records, "coarse3")
    assert [a.n for a in aggs] == [10, 12, 8]
    assert abs(aggs[0].mean_f1 - sum(low) / 10) < 1e-12
    assert abs(aggs[1].mean_f1 - sum(mid) / 12) < 1e-12
    assert abs(aggs[2].mean_f1 - sum(high) / 8) < 1e-12
    assert abs(aggs[0].mean_f1 - 0.80) < 1e-12


def test_coarse_equals_weighted_per_stratum_means():
    rng = random.Random(7)
    records = [
        _record(f"r{i}", rng.randint(1, 350), rng.random(), rng.random()) for i in range(120)
    ]
    coarse = aggregate_by_band(records, "coarse3")
    fine = aggregate_by_band(records, "per-stratum")
    assert sum(a.n for a in coarse) == len(records) == sum(a.n for a in fine)
    for agg in coarse:
        members = [f for f in fine if agg.lower <= f.lower and f.upper <= agg.upper]
        weighted = sum(f.mean_f1 * f.n for f in members) / sum(f.n for f in members)
        assert abs(agg.mean_f1 - weighted) < 1e-9


def test_failures_counted_separately():
    records = [_record("ok", 50, 0.9, 0.9)]
    failures = [FailureRecord("down", 60, "transient"), FailureRecord("down2", 150, "transient")]
    aggs = aggregate_by_band(records, "coarse3", failures=failures)
    # The 101-200 failure has a band of its own, with no record and no means.
    assert [(a.band_label, a.n, a.failures) for a in aggs] == [("1-100", 1, 1),
                                                               ("101-200", 0, 1)]
    assert (aggs[1].mean_precision, aggs[1].mean_recall, aggs[1].mean_f1) == (None, None, None)


def test_aggregate_rejects_empty_and_bad_scheme():
    with pytest.raises(DataError):
        aggregate_by_band([], "coarse3")
    with pytest.raises(DataError):
        aggregate_by_band([_record("a", 5, 1, 1)], "weekly")


def test_aggregate_rejects_unknown_metric():
    with pytest.raises(DataError, match="no-such-metric"):
        aggregate_by_band([_record("a", 5, 1, 1)], "coarse3", metric="no-such-metric")


# ---------------------------------------------------------------------------
# reports


def test_emit_report_csv_round_trip(tmp_path):
    records = [_record("a", 50, 0.6, 0.6), _record("b", 99, 1.0, 1.0)]
    path = tmp_path / "report.csv"
    write_report_rows(collect_report_rows(records, "coarse3"), path, "csv")
    lines = path.read_text().splitlines()
    assert lines[0] == "band,n,precision,recall,f1,scot,prompt,model,failures"
    assert len(lines) == 2  # header + one band
    rows = read_report(path, "csv")
    assert rows[0]["band"] == "1-100"
    assert rows[0]["n"] == 2
    assert rows[0]["f1"] == 80.0
    assert rows[0]["scot"] is False
    assert rows[0]["model"] == "llama-3.1-8b"


@given(st.lists(st.lists(st.text(alphabet=',"\r\n a\u00e9\u2028'), min_size=2, max_size=4),
                min_size=1, max_size=4))
def test_csv_text_reads_back_with_the_csv_module(rows):
    text = csv_text(rows[0], rows[1:])
    assert list(csv.reader(io.StringIO(text, newline=""))) == rows


def test_emit_report_json_has_range_of_interest(tmp_path):
    records = [_record("a", 150, 0.7, 0.7)]
    path = tmp_path / "report.json"
    write_report_rows(collect_report_rows(records, "coarse3"), path, "json")
    import json

    doc = json.loads(path.read_text())
    assert doc["metadata"]["range_of_interest"] == "101-200"
    assert doc["rows"][0]["band"] == "101-200"
    assert read_report(path, "json") == doc["rows"]


def test_report_emission_is_deterministic(tmp_path):
    records = [_record("a", 50, 0.613, 0.727), _record("b", 222, 0.5, 0.5)]
    write_report_rows(collect_report_rows(records, "coarse3"), tmp_path / "r1.csv", "csv")
    write_report_rows(collect_report_rows(records, "coarse3"), tmp_path / "r2.csv", "csv")
    assert (tmp_path / "r1.csv").read_bytes() == (tmp_path / "r2.csv").read_bytes()


def test_side_by_side_scot_report(tmp_path):
    plain = [_record(f"p{i}", 50 + i, 0.8, 0.8, scot=False, prompt_label="one") for i in range(3)]
    scot = [_record(f"s{i}", 50 + i, 0.7, 0.7, scot=True, prompt_label="one-scot") for i in range(3)]
    rows = collect_report_rows(plain + scot, "coarse3")
    assert len(rows) == 2
    by_scot = {row["scot"]: row for row in rows}
    assert by_scot[False]["prompt"] == "one"
    assert by_scot[True]["prompt"] == "one-scot"
    assert by_scot[False]["band"] == by_scot[True]["band"] == "1-100"
    write_report_rows(rows, tmp_path / "paired.csv", "csv")
    parsed = read_report(tmp_path / "paired.csv")
    assert {r["scot"] for r in parsed} == {True, False}


# ---------------------------------------------------------------------------
# calibration


def test_calibration_ordering_with_shipped_fixture():
    rows = calibration_experiment(load_calibration_pairs(), HashEmbedder(dim=64))
    greedy = rows[0]
    assert greedy["metric"] == "greedy-embedding"
    assert greedy["twin-minimal"] > greedy["paraphrase-50"] > greedy["different-meaning"]


def test_calibration_scores_each_pair_once_with_the_per_metric_means(monkeypatch):
    import restory.runner as runner

    pairs = load_calibration_pairs()
    embedder = HashEmbedder(dim=16)
    # The rows as computed with one score_pair call per metric per pair.
    want = []
    for metric, (_, variant) in runner.METRICS.items():
        row = {"metric": metric, "variant": variant or embedder.provider_id}
        for category in runner.CALIBRATION_CATEGORIES:
            members = [p for p in pairs if p.category == category]
            total = 0.0
            for p in members:
                total += score_pair(p.candidate, p.reference, embedder, (metric,))[metric].f1
            row[category] = round(total / len(members) * 100, 2)
        want.append(row)

    calls = []
    monkeypatch.setattr(runner, "tokenize", lambda text: calls.append(text) or tokenize(text))
    assert calibration_experiment(pairs, embedder) == want
    assert len(calls) == 2 * len(pairs)


def test_calibration_identical_pairs_rouge_is_100():
    pairs = []
    for category in ("twin-minimal", "paraphrase-50", "different-meaning"):
        for i in range(2):
            text = f"identical text number {i}"
            pairs.append(CalibrationPair(text, text, category))
    rows = {(r["metric"]): r for r in calibration_experiment(pairs, HashEmbedder(dim=16))}
    for metric in ("rouge-l", "rouge-l-nostem", "greedy-embedding"):
        row = rows[metric]
        assert row["twin-minimal"] == row["paraphrase-50"] == row["different-meaning"] == 100.0


def test_calibration_empty_category_rejected():
    pairs = [CalibrationPair("a b", "a b", "twin-minimal")]
    with pytest.raises(DataError,
                       match="^empty calibration categories: paraphrase-50, different-meaning$"):
        calibration_experiment(pairs, HashEmbedder(dim=8))


def test_calibration_pair_validation():
    with pytest.raises(DataError):
        CalibrationPair("", "x", "twin-minimal")
    with pytest.raises(DataError):
        CalibrationPair("x", "y", "unknown-category")


def test_shipped_fixture_has_20_per_category():
    pairs = load_calibration_pairs()
    counts = {}
    for p in pairs:
        counts[p.category] = counts.get(p.category, 0) + 1
    assert counts == {"twin-minimal": 20, "paraphrase-50": 20, "different-meaning": 20}


# ---------------------------------------------------------------------------
# Cohen's kappa


def _ann(a, b):
    return AnnotationSet(tuple(range(len(a))), tuple(a), tuple(b))


def test_kappa_identical_labels():
    assert cohen_kappa(_ann([1, 0, 2, 1], [1, 0, 2, 1])) == 1.0


def test_kappa_hand_case_zero():
    assert cohen_kappa(_ann([1, 1, 0, 0], [1, 0, 1, 0])) == 0.0


def test_kappa_degenerate_constant_case():
    assert cohen_kappa(_ann(["x", "x"], ["x", "x"])) == 1.0


def test_kappa_constant_but_different_labels():
    assert cohen_kappa(_ann(["x", "x"], ["y", "y"])) == 0.0


def test_kappa_length_mismatch():
    with pytest.raises(DataError, match=r"^length mismatch: 2 items, 2 vs 1 labels$"):
        AnnotationSet((1, 2), (0, 1), (0,))


def test_kappa_needs_an_annotated_item():
    with pytest.raises(DataError, match="need at least one annotated item"):
        AnnotationSet((), (), ())


@settings(max_examples=200)
@given(
    st.lists(st.sampled_from(["x", "y", "z"]), min_size=1, max_size=30).flatmap(
        lambda a: st.tuples(
            st.just(a),
            st.lists(st.sampled_from(["x", "y", "z"]), min_size=len(a), max_size=len(a)),
        )
    )
)
def test_kappa_symmetry_and_renaming(pair):
    a, b = pair
    forward = cohen_kappa(_ann(a, b))
    backward = cohen_kappa(_ann(b, a))
    assert abs(forward - backward) < 1e-12
    rename = {"x": "alpha", "y": "beta", "z": "gamma"}
    renamed = cohen_kappa(_ann([rename[v] for v in a], [rename[v] for v in b]))
    assert abs(forward - renamed) < 1e-12
    assert -1.0 - 1e-12 <= forward <= 1.0 + 1e-12
