"""Experiment orchestration and evaluation.

Runs generation over a dataset (render -> complete -> parse -> score ->
classify), aggregates scores by NLOC band, computes the metric-calibration
table over curated text pairs, measures annotator agreement, and emits
CSV/JSON reports. Per-entry failures never abort a run; they are recorded
and excluded from means. Results persist incrementally in dataset order,
so partial files are valid prefixes and warm-cache reruns are byte-stable.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from .corpus import BANDS, GREEDY_METRIC, SCHEMES, DatasetRecord, stratum_for_nloc
from .errors import BudgetExceededError, DataError, GatewayError
from .jsonl import csv_text, decoder, dumps, read_jsonl
from .metrics import (
    FidelityBand,
    HashEmbedder,
    ScoreTriple,
    bleu,
    classify_fidelity,
    greedy_embedding_score,
    rouge_l,
    tokenize,
)
from .prompts import PromptConfig, render_prompt
from .story import canonical_text, parse_stories

if TYPE_CHECKING:
    from .gateway import Gateway

DEFAULT_METRICS = (GREEDY_METRIC, "bleu", "rouge-l")

RANGE_OF_INTEREST = "101-200"
# The columns of a report row, in the order a CSV report writes them.
REPORT_COLUMNS = ("band", "n", "precision", "recall", "f1", "scot", "prompt", "model", "failures")


# ---------------------------------------------------------------------------
# Scoring


def _widened(v: float) -> ScoreTriple:
    return ScoreTriple(v, v, v)


# Metric name -> (scorer of candidate and reference tokens, calibration
# variant label; "" stands for the embedder id). The scorers look `bleu`,
# `rouge_l` and `greedy_embedding_score` up in this module at each call, so
# a wrapper set on the module sees every call.
METRICS = {
    GREEDY_METRIC: (
        lambda cand, ref, embedder: greedy_embedding_score(
            embedder.embed_tokens(cand), embedder.embed_tokens(ref)),
        "",
    ),
    "bleu": (lambda cand, ref, _: _widened(bleu(cand, ref, smoothing=False)), "default"),
    "bleu-smoothed": (lambda cand, ref, _: _widened(bleu(cand, ref, smoothing=True)), "smoothing"),
    "rouge-l": (lambda cand, ref, _: rouge_l(cand, ref, use_stemming=True), "default"),
    "rouge-l-nostem": (lambda cand, ref, _: rouge_l(cand, ref, use_stemming=False), "no-stem"),
}


def score_pair(
    candidate_text: str,
    reference_text: str,
    embedder,
    metric_names: Sequence[str] = DEFAULT_METRICS,
) -> dict[str, ScoreTriple]:
    """All requested metrics for one candidate/reference text pair.

    Scalar metrics (BLEU) are widened to a triple with P = R = F1. An empty
    side yields zero triples across the board. An unknown metric name
    raises DataError whatever the texts.
    """
    try:
        scorers = [(name, METRICS[name][0]) for name in metric_names]
    except KeyError as exc:
        raise DataError(f"unknown metric {exc.args[0]!r}") from None
    cand_tokens = tokenize(candidate_text)
    ref_tokens = tokenize(reference_text)
    if not cand_tokens or not ref_tokens:
        return {name: ScoreTriple(0.0, 0.0, 0.0) for name, _ in scorers}
    return {name: score(cand_tokens, ref_tokens, embedder) for name, score in scorers}


# ---------------------------------------------------------------------------
# Generation records


@dataclass(frozen=True)
class GenerationRecord:
    snippet_id: str
    nloc: int
    model_id: str
    prompt_fingerprint: str
    candidate_story: str
    scores: dict[str, ScoreTriple]
    band: FidelityBand
    cost_usd: float
    parse_fallback: bool = False
    multi_story: bool = False
    # A results line without these keys reads as "" and False.
    prompt_label: str = ""
    scot: bool = False

    def __post_init__(self):
        if GREEDY_METRIC not in self.scores:  # the score the band is classified by
            raise DataError(f"record {self.snippet_id}: no {GREEDY_METRIC} scores")
        if self.band is not classify_fidelity(self.scores[GREEDY_METRIC].f1):
            raise DataError(
                f"record {self.snippet_id}: band {self.band.value} inconsistent "
                f"with {GREEDY_METRIC} f1"
            )
        stratum_for_nloc(self.nloc)
        if not 0.0 <= self.cost_usd < math.inf:
            raise DataError(f"cost_usd must be finite and >= 0, got {self.cost_usd}")

    def to_json(self) -> str:
        return dumps({
            **vars(self),
            "scores": {name: vars(t) for name, t in self.scores.items()},
            "band": self.band.value,
        })

@dataclass(frozen=True)
class FailureRecord:
    snippet_id: str
    nloc: int
    failure: str

    def __post_init__(self):
        stratum_for_nloc(self.nloc)

    def to_json(self) -> str:
        return dumps(vars(self))


@dataclass
class RunResult:
    records: list[GenerationRecord]
    failures: list[FailureRecord]
    total_cost_usd: float
    provider_calls: int
    # Completions the provider made in this run (cache misses that returned),
    # and how many of them fell short of the gateway's `min_output_tokens`.
    new_completions: int
    short_completions: int


def _scores(obj: dict) -> dict[str, ScoreTriple]:
    scores = {}
    for name, t in obj["scores"].items():
        values = t["precision"], t["recall"], t["f1"]
        for value in values:
            # Parsed JSON holds exact classes: a bool is never a number here.
            if value.__class__ is not float and value.__class__ is not int:
                raise TypeError(f"score {value!r} is not a number")
        # Built as `jsonl.decoder` builds, without the frozen `__init__`.
        scores[name] = triple = object.__new__(ScoreTriple)
        fields = triple.__dict__
        fields["precision"], fields["recall"], fields["f1"] = values
        ScoreTriple.__post_init__(triple)
    return scores


def _band(obj: dict) -> FidelityBand:
    try:
        return _BANDS[obj["band"]]
    except (KeyError, TypeError):  # the Enum raises its own error for this value
        return FidelityBand(obj["band"])


_BANDS = {band.value: band for band in FidelityBand}
_decode_failure = decoder(FailureRecord)
_decode_record = decoder(GenerationRecord, scores=_scores, band=_band)


def _result_from_dict(obj: dict) -> GenerationRecord | FailureRecord:
    return _decode_failure(obj) if "failure" in obj else _decode_record(obj)


def load_results(path: str | Path) -> tuple[list[GenerationRecord], list[FailureRecord]]:
    records: list[GenerationRecord] = []
    failures: list[FailureRecord] = []
    for _, record in read_jsonl(path, _result_from_dict):
        (failures if isinstance(record, FailureRecord) else records).append(record)
    return records, failures


# ---------------------------------------------------------------------------
# Experiment runner


def run_experiment(
    dataset: Sequence[DatasetRecord],
    gateway: Gateway,
    prompt_config: PromptConfig,
    embedder=None,
    metric_names: Sequence[str] = DEFAULT_METRICS,
    results_path: str | Path | None = None,
) -> RunResult:
    """Generate and score one candidate story per dataset entry.

    Provider failures after retries are recorded per entry and the run
    continues; a budget overrun cancels the pending work and, once the
    calls in flight have settled, aborts stating the gateway's spend, after
    flushing everything completed so far. Records are written (and
    returned) in dataset order at any `gateway.concurrency`. The result's
    cost and provider calls are this run's own, on a gateway a grid shares.
    Each record names its variant by `prompt_config.label`.
    """
    if not dataset:
        raise DataError("dataset is empty")
    if embedder is None:
        embedder = HashEmbedder()
    metric_names = tuple(metric_names)
    for name in metric_names:  # before the results file is opened or a call is paid for
        if name not in METRICS:
            raise DataError(f"unknown metric {name!r}")
    if GREEDY_METRIC not in metric_names:
        metric_names = (GREEDY_METRIC,) + metric_names

    records: list[GenerationRecord] = []
    failures: list[FailureRecord] = []
    spent_before = gateway.spent_usd
    calls_before = gateway.provider_calls
    new_completions = short_completions = 0
    min_output_tokens = gateway.config.min_output_tokens

    def generate(entry: DatasetRecord):
        """The completion, or the GatewayError that ended the call."""
        try:
            return gateway.complete(render_prompt(prompt_config, entry.snippet).text)
        except GatewayError as exc:
            return exc

    def scored(entry: DatasetRecord, completion) -> GenerationRecord:
        stories = parse_stories(completion.text)
        if stories:
            candidate = " ".join(canonical_text(s) for s in stories)
        else:
            candidate = completion.text
        scores = score_pair(candidate, entry.reference_story, embedder, metric_names)
        return GenerationRecord(
            snippet_id=entry.snippet.id,
            nloc=entry.snippet.nloc,
            model_id=gateway.model.model_id,
            prompt_fingerprint=prompt_config.fingerprint,
            prompt_label=prompt_config.label,
            scot=prompt_config.scot,
            candidate_story=candidate,
            scores=scores,
            band=classify_fidelity(scores[GREEDY_METRIC].f1),
            cost_usd=completion.cost_usd,
            parse_fallback=not stories,
            multi_story=len(stories) > 1,
        )

    out_fh = pool = refusal = None
    try:
        if results_path is not None:
            results_path = Path(results_path)
            results_path.parent.mkdir(parents=True, exist_ok=True)
            out_fh = open(results_path, "w", encoding="utf-8")
        if gateway.concurrency > 1:
            from concurrent.futures import ThreadPoolExecutor
            # The gateway bounds the calls in flight; the one thread more
            # renders and probes the next entry while they wait.
            pool = ThreadPoolExecutor(max_workers=gateway.concurrency + 1)
        # Outcomes arrive in dataset order either way; the pool only runs
        # generation ahead of this loop.
        outcomes = pool.map(generate, dataset) if pool else map(generate, dataset)
        for entry, outcome in zip(dataset, outcomes):
            if isinstance(outcome, BudgetExceededError):
                refusal = outcome
                break
            if isinstance(outcome, GatewayError):
                record = FailureRecord(entry.snippet.id, entry.snippet.nloc, str(outcome))
                failures.append(record)
            else:
                record = scored(entry, outcome)
                records.append(record)
                if not outcome.cached:
                    new_completions += 1
                    short_completions += outcome.output_tokens < min_output_tokens
            if out_fh:
                out_fh.write(record.to_json() + "\n")
                out_fh.flush()
    finally:
        if pool:
            pool.shutdown(cancel_futures=True)
        if out_fh:
            out_fh.close()
    if refusal:
        raise gateway.over_budget() from refusal

    return RunResult(
        records=records,
        failures=failures,
        total_cost_usd=gateway.spent_usd - spent_before,
        provider_calls=gateway.provider_calls - calls_before,
        new_completions=new_completions,
        short_completions=short_completions,
    )


# ---------------------------------------------------------------------------
# Band aggregation


@dataclass(frozen=True)
class BandAggregate:
    band_label: str  # a band's label in corpus.BANDS
    n: int
    mean_precision: float | None  # None in a band of failures alone (n 0)
    mean_recall: float | None
    mean_f1: float | None
    failures: int = 0

    def __post_init__(self):
        if self.n < 0 or self.n == 0 and self.failures < 1:
            raise DataError("aggregate n must be positive, or 0 in a band of failures alone")


def aggregate_by_band(
    records: Sequence[GenerationRecord],
    scheme: str = "coarse3",
    metric: str = GREEDY_METRIC,
    failures: Sequence[FailureRecord] = (),
) -> list[BandAggregate]:
    """Mean P/R/F1 of `metric` per NLOC band; empty bands are omitted.

    Failures count per band but never enter the means. A band that holds
    failures and no record has n 0 and None for each mean.
    """
    if not records:
        raise DataError("no records to aggregate")
    if scheme not in BANDS:
        raise DataError(f"unknown aggregation scheme {scheme!r}; choose {' or '.join(SCHEMES)}")
    bands = BANDS[scheme]
    # Band index by NLOC - 1; records and failures hold an NLOC in [1, 350].
    band_at = [i for i, (_, lo, hi) in enumerate(bands) for _ in range(lo, hi + 1)]

    grouped: dict[int, list[ScoreTriple]] = {}
    try:
        for rec in records:
            grouped.setdefault(band_at[rec.nloc - 1], []).append(rec.scores[metric])
    except KeyError:
        raise DataError(f"records carry no scores for metric {metric!r}") from None
    failed = Counter(band_at[f.nloc - 1] for f in failures)

    out: list[BandAggregate] = []
    for idx in sorted(grouped.keys() | failed.keys()):
        triples = grouped.get(idx, ())
        n = len(triples)
        out.append(
            BandAggregate(
                band_label=bands[idx][0],
                n=n,
                mean_precision=sum(t.precision for t in triples) / n if n else None,
                mean_recall=sum(t.recall for t in triples) / n if n else None,
                mean_f1=sum(t.f1 for t in triples) / n if n else None,
                failures=failed[idx],
            )
        )
    return out


# ---------------------------------------------------------------------------
# Reports


def collect_report_rows(
    records: Sequence[GenerationRecord],
    scheme: str = "coarse3",
    metric: str = GREEDY_METRIC,
    failures: Sequence[FailureRecord] = (),
) -> list[dict]:
    """Report rows for possibly mixed record sets: records are grouped by
    (model, prompt label, scot) and each group is aggregated separately,
    so side-by-side runs land in one table. Failure counts carry context
    for single-run sets only; they are omitted from mixed tables."""
    groups: dict[tuple[str, str, bool], list[GenerationRecord]] = {}
    for rec in records:
        groups.setdefault((rec.model_id, rec.prompt_label, rec.scot), []).append(rec)
    rows: list[dict] = []
    single = len(groups) == 1
    for (model, prompt, scot), group in sorted(groups.items()):
        for agg in aggregate_by_band(group, scheme, metric, failures if single else ()):
            rows.append(dict(zip(REPORT_COLUMNS, (
                agg.band_label, agg.n, _percent(agg.mean_precision),
                _percent(agg.mean_recall), _percent(agg.mean_f1),
                scot, prompt, model, agg.failures,
            ))))
    return rows


def _percent(mean: float | None) -> float | None:
    return None if mean is None else round(mean * 100, 2)


def write_report_rows(rows: Sequence[dict], path: str | Path, format: str = "csv") -> None:
    if format == "csv":
        text = csv_text(REPORT_COLUMNS, ([row[c] for c in REPORT_COLUMNS] for row in rows))
    elif format == "json":
        doc = {
            "metadata": {"range_of_interest": RANGE_OF_INTEREST, "scale": "x100"},
            "rows": list(rows),
        }
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    else:
        raise DataError(f"unknown report format {format!r}; choose csv or json")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


# ---------------------------------------------------------------------------
# Metric calibration


CALIBRATION_CATEGORIES = ("twin-minimal", "paraphrase-50", "different-meaning")


@dataclass(frozen=True)
class CalibrationPair:
    candidate: str
    reference: str
    category: str

    def __post_init__(self):
        if not self.candidate or not self.reference:
            raise DataError("calibration pair texts must be non-empty")
        if self.category not in CALIBRATION_CATEGORIES:
            raise DataError(f"unknown calibration category {self.category!r}")


_decode_pair = decoder(CalibrationPair)


def load_calibration_pairs(path: str | Path | None = None) -> list[CalibrationPair]:
    """Pairs from a JSON Lines file with `candidate`, `reference` and
    `category` keys; defaults to the bundled fixture."""
    if path is None:
        path = resources.files("restory") / "data" / "calibration_pairs.jsonl"
    return [pair for _, pair in read_jsonl(path, _decode_pair)]


def calibration_experiment(
    pairs: Sequence[CalibrationPair],
    embedder=None,
) -> list[dict]:
    """Mean score (x100) per metric variant and category, rows ordered
    twin-minimal, paraphrase-50, different-meaning column-wise to make
    the separation gradient easy to read."""
    if embedder is None:
        embedder = HashEmbedder()
    counts = Counter(pair.category for pair in pairs)
    empty = [c for c in CALIBRATION_CATEGORIES if not counts[c]]
    if empty:
        raise DataError("empty calibration categories: " + ", ".join(empty))

    # Every metric of a pair from one score_pair call; each (metric, category)
    # total still adds its F1 values in file order.
    names = tuple(METRICS)
    totals = {metric: dict.fromkeys(CALIBRATION_CATEGORIES, 0.0) for metric in names}
    for pair in pairs:
        scores = score_pair(pair.candidate, pair.reference, embedder, names)
        for metric, triple in scores.items():
            totals[metric][pair.category] += triple.f1

    rows = []
    for metric, (_, variant) in METRICS.items():
        row: dict = {
            "metric": metric,
            "variant": variant or embedder.provider_id,
        }
        for category in CALIBRATION_CATEGORIES:
            row[category] = round(totals[metric][category] / counts[category] * 100, 2)
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Annotator agreement


@dataclass(frozen=True)
class AnnotationSet:
    item_ids: tuple
    labels_a: tuple
    labels_b: tuple

    def __post_init__(self):
        if not (len(self.item_ids) == len(self.labels_a) == len(self.labels_b)):
            raise DataError(
                f"length mismatch: {len(self.item_ids)} items, "
                f"{len(self.labels_a)} vs {len(self.labels_b)} labels"
            )
        if len(self.item_ids) < 1:
            raise DataError("need at least one annotated item")


def cohen_kappa(annotations: AnnotationSet) -> float:
    """Chance-corrected agreement (p_o - p_e) / (1 - p_e) between two
    annotators; 1.0 in the degenerate all-same-label case."""
    a, b = annotations.labels_a, annotations.labels_b
    n = len(a)
    p_o = sum(1 for x, y in zip(a, b) if x == y) / n
    labels = set(a) | set(b)
    p_e = sum((a.count(l) / n) * (b.count(l) / n) for l in labels)
    if p_e == 1.0:
        return 1.0
    return (p_o - p_e) / (1 - p_e)
