"""Span tracing around restory's layers, installed from outside the package.

Inside `Tracer.iteration()`, each traced function is replaced where its
callers look it up (a module global or a class attribute) by a wrapper that
records a span: name, start, end, parent span, thread and the record id it
belongs to. On leaving the block the originals are put back, so untraced
iterations run the unchanged code. Spans stay in memory until `write_spans`
at the end of the run; `layer_metrics` turns them into per-layer metrics.

A span's parent is the innermost open span on its own thread. A span opened
on a worker thread with nothing open there gets the open
`runner.run_experiment` span as its parent, marked as on another thread;
self time subtracts only children on the span's own thread.
"""

from __future__ import annotations

import itertools
import json
import logging
import math
import statistics
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, NamedTuple

from restory import cli, corpus, gateway, metrics, runner

ROOT_SPAN = "runner.run_experiment"
LAYERS = ("cli", "corpus", "prompts", "gateway", "story", "metrics", "runner")
CLI_COMMANDS = ("generate", "profile", "sample", "evaluate", "report", "calibrate")

# Per-call timings: span name, and the name of its call count where that
# count has a name of its own. Each yields `<stem>_s` (median), `<stem>_s.p99`
# and a count.
TIMINGS = (
    ("corpus.count_nloc", None),
    ("corpus.load_dataset", None),
    ("corpus.sample", None),
    ("corpus.save_dataset", None),
    ("prompts.render", "prompts.render_calls"),
    ("gateway.complete", None),
    ("gateway.provider_wait", "gateway.provider_calls"),
    ("gateway.self", None),
    ("gateway.ledger_append", "gateway.ledger_appends"),
    ("story.parse", None),
    ("metrics.score", None),
    ("metrics.rouge_l", None),
    ("metrics.bleu", None),
    ("metrics.greedy", None),
    ("metrics.embed", None),
    ("runner.run_experiment", None),
    ("runner.self", None),
    ("runner.load_results", None),
    ("runner.aggregate", None),
    ("runner.report_write", None),
    ("runner.calibrate", None),
)

SCALARS = (
    ("corpus.count_nloc_mb_per_s", "MB/s", "higher"),
    ("prompts.prompt_chars_mean", "chars", "lower"),
    ("gateway.cache_hits", "count", "higher"),
    ("gateway.cache_misses", "count", "lower"),
    ("gateway.hit_ratio", "ratio", "higher"),
    ("gateway.retries", "count", "lower"),
    ("gateway.short_completion_warnings", "count", "lower"),
    ("story.fallback_ratio", "ratio", "lower"),
    ("story.multi_story_ratio", "ratio", "lower"),
    ("metrics.tokenize_calls_per_text", "ratio", "lower"),
    ("metrics.porter_stem_calls", "count", "lower"),
    ("metrics.porter_stem_distinct_ratio", "ratio", "higher"),
    *((f"layer.{layer}.self_s", "s", "lower") for layer in LAYERS),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def _timing_names(stem: str, count_name: str | None) -> tuple[str, str, str]:
    if stem.startswith("cli.dispatch."):
        sub = stem.rsplit(".", 1)[1]
        return f"cli.dispatch_s.{sub}", f"cli.dispatch_s.{sub}.p99", f"{stem}.calls"
    return f"{stem}_s", f"{stem}_s.p99", count_name or f"{stem}.calls"


def _all_timings():
    yield from TIMINGS
    for sub in CLI_COMMANDS:
        yield f"cli.dispatch.{sub}", None


def catalog() -> list[dict]:
    """Every per-layer metric: name, unit and which direction is better."""
    out = []
    for stem, count_name in _all_timings():
        median, p99, count = _timing_names(stem, count_name)
        out += [
            {"name": median, "unit": "s", "better": "lower"},
            {"name": p99, "unit": "s", "better": "lower"},
            {"name": count, "unit": "count", "better": "lower"},
        ]
    out += [{"name": n, "unit": u, "better": b} for n, u, b in SCALARS]
    return out


class Span(NamedTuple):
    id: int
    name: str
    thread: int
    start: float
    end: float
    parent: int | None
    same_thread: bool  # False: parent is the run span on another thread
    record: str | None
    extra: object  # what the layer reported about the call, if anything


class IterationTrace:
    def __init__(self):
        self.spans: list[Span] = []
        self.stem_calls = 0
        self.stem_words: set[str] = set()
        self.short_warnings = 0


class Tracer:
    def __init__(self, id_by_reply: dict[str, str], id_by_reference: dict[str, str]):
        self.iterations: list[IterationTrace] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root: int | None = None
        self._current = IterationTrace()
        self._targets = [
            # (owner, attribute, span name, record id from args, extra from (args, result))
            (corpus, "count_nloc", "corpus.count_nloc", None, lambda a, r: len(a[0])),
            (corpus, "load_dataset", "corpus.load_dataset", None, None),
            (corpus, "sample_stratified", "corpus.sample", None, None),
            (corpus, "save_dataset", "corpus.save_dataset", None, None),
            (runner, "render_prompt", "prompts.render", lambda a: a[1].id,
             lambda a, r: len(r.text)),
            (gateway.Gateway, "complete", "gateway.complete", None,
             lambda a, r: (r.cached, r.retries)),
            (gateway.HttpProvider, "generate", "gateway.provider_wait", None, None),
            (gateway.Ledger, "append", "gateway.ledger_append", None, None),
            (runner, "parse_stories", "story.parse", lambda a: id_by_reply.get(a[0]),
             lambda a, r: len(r)),
            (runner, "score_pair", "metrics.score", lambda a: id_by_reference.get(a[1]), None),
            (runner, "tokenize", "metrics.tokenize", None, None),
            (metrics, "tokenize", "metrics.tokenize", None, None),
            (runner, "rouge_l", "metrics.rouge_l", None, None),
            (runner, "bleu", "metrics.bleu", None, None),
            (runner, "greedy_embedding_score", "metrics.greedy", None, None),
            (metrics.HashEmbedder, "embed", "metrics.embed", None, None),
            (runner, "run_experiment", ROOT_SPAN, None, None),
            (runner, "load_results", "runner.load_results", None, None),
            (runner, "aggregate_by_band", "runner.aggregate", None, None),
            (runner, "write_report_rows", "runner.report_write", None, None),
            (runner, "calibration_experiment", "runner.calibrate", None, None),
            (cli, "dispatch", lambda a: f"cli.dispatch.{a[0][0]}", None, None),
        ]

    @contextmanager
    def iteration(self):
        """Trace one iteration: install the wrappers, restore on exit."""
        self._current = IterationTrace()
        self._local.record = None
        originals = []
        try:
            for owner, attr, name, record_of, extra_of in self._targets:
                fn = getattr(owner, attr)
                originals.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(fn, name, record_of, extra_of))
            stem = metrics.porter_stem
            originals.append((metrics, "porter_stem", stem))
            metrics.porter_stem = self._count_stems(stem)
            gateway.logger.addFilter(self._count_warning)
            yield self._current
        finally:
            gateway.logger.removeFilter(self._count_warning)
            for owner, attr, fn in reversed(originals):
                setattr(owner, attr, fn)
            self.iterations.append(self._current)

    def _count_warning(self, record: logging.LogRecord) -> bool:
        if record.getMessage().startswith("completion shorter than minimum"):
            self._current.short_warnings += 1
        return True

    def _count_stems(self, stem: Callable[[str], str]) -> Callable[[str], str]:
        current = self._current

        def counted(word: str) -> str:
            current.stem_calls += 1
            current.stem_words.add(word)
            return stem(word)

        return counted

    def _wrap(self, fn, name, record_of, extra_of):
        tracer, local, ids, spans = self, self._local, self._ids, self._current.spans
        clock, ident = time.perf_counter, threading.get_ident

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if stack:
                parent, record = stack[-1]
                same = True
            else:
                parent, record, same = tracer._root, None, False
            own = record_of(args) if record_of else None
            if own:
                local.record = record = own
            elif record is None:
                record = getattr(local, "record", None)
            span_name = name(args) if callable(name) else name
            sid = next(ids)
            stack.append((sid, record))
            is_root = span_name == ROOT_SPAN
            if is_root:
                outer, tracer._root = tracer._root, sid
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                if is_root:
                    tracer._root = outer
                extra = extra_of(args, result) if extra_of and result is not None else None
                spans.append(Span(sid, span_name, ident(), start, end, parent, same, record, extra))

        return traced

    def write_spans(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, it in enumerate(self.iterations):
                for s in it.spans:
                    fh.write(json.dumps({
                        "iteration": i, "id": s.id, "name": s.name, "thread": s.thread,
                        "start": s.start, "end": s.end, "parent": s.parent,
                        "same_thread": s.same_thread, "record": s.record,
                    }) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the children on the span's own thread."""
    child = dict.fromkeys((s.id for s in spans), 0.0)
    for s in spans:
        if s.same_thread and s.parent in child:
            child[s.parent] += s.end - s.start
    return {s.id: (s.end - s.start) - child[s.id] for s in spans}


class TraceCheckError(Exception):
    pass


def check_iteration(it: IterationTrace) -> None:
    """No self time is negative, and the self times of the spans under each
    run span, the run span included, add up to the run span."""
    own = self_times(it.spans)
    worst = min(own.values(), default=0.0)
    if worst < -1e-9:
        raise TraceCheckError(f"negative self time {worst!r}")
    for run in (s for s in it.spans if s.name == ROOT_SPAN):
        inside = sum(
            own[s.id] for s in it.spans
            if s.thread == run.thread and run.start <= s.start and s.end <= run.end
        )
        if abs(inside - (run.end - run.start)) > 1e-6:
            raise TraceCheckError(
                f"self times under {ROOT_SPAN} add up to {inside!r}, span is {run.end - run.start!r}"
            )


def _p99(values: list[float]) -> float:
    ordered = sorted(values)
    return ordered[math.ceil(0.99 * len(ordered)) - 1]


def layer_metrics(traced: list[IterationTrace], traced_walls: list[float],
                  untraced_walls: list[float]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics over the traced iterations. Timings pool every
    call; counts and ratios are per iteration (all iterations do the same
    work, so the last one stands for each)."""
    units = {m["name"]: m["unit"] for m in catalog()}
    values: dict[str, float] = {}
    durations: dict[str, list[float]] = {stem: [] for stem, _ in _all_timings()}
    layer_self: dict[str, list[float]] = {layer: [] for layer in LAYERS}
    for it in traced:
        own = self_times(it.spans)
        per_layer = dict.fromkeys(LAYERS, 0.0)
        provider = dict.fromkeys((s.id for s in it.spans if s.name == "gateway.complete"), 0.0)
        for s in it.spans:
            per_layer[s.name.split(".", 1)[0]] += own[s.id]
            if s.name == "gateway.provider_wait" and s.same_thread and s.parent in provider:
                provider[s.parent] += s.end - s.start
            if s.name in durations:
                durations[s.name].append(s.end - s.start)
            if s.name == "gateway.complete":
                durations["gateway.self"].append((s.end - s.start) - provider.get(s.id, 0.0))
            if s.name == ROOT_SPAN:
                durations["runner.self"].append(own[s.id])
        for layer in LAYERS:
            layer_self[layer].append(per_layer[layer])

    last = traced[-1]
    calls: dict[str, int] = {}
    for s in last.spans:
        calls[s.name] = calls.get(s.name, 0) + 1
    calls["gateway.self"] = calls.get("gateway.complete", 0)
    calls["runner.self"] = calls.get(ROOT_SPAN, 0)
    for stem, count_name in _all_timings():
        median, p99, count = _timing_names(stem, count_name)
        samples = durations[stem]
        values[median] = statistics.median(samples) if samples else 0.0
        values[p99] = _p99(samples) if samples else 0.0
        values[count] = calls.get(stem, 0)

    def of(name):
        return [s for s in last.spans if s.name == name]

    def ratio(a, b):
        return a / b if b else 0.0

    lex = of("corpus.count_nloc")
    values["corpus.count_nloc_mb_per_s"] = ratio(
        sum(s.extra for s in lex) / 1e6, sum(s.end - s.start for s in lex))
    renders = of("prompts.render")
    values["prompts.prompt_chars_mean"] = ratio(sum(s.extra for s in renders), len(renders))
    completes = [s.extra for s in of("gateway.complete") if s.extra is not None]
    hits = sum(1 for cached, _ in completes if cached)
    values["gateway.cache_hits"] = hits
    values["gateway.cache_misses"] = len(completes) - hits
    values["gateway.hit_ratio"] = ratio(hits, len(completes))
    values["gateway.retries"] = sum(retries for _, retries in completes)
    values["gateway.short_completion_warnings"] = last.short_warnings
    parses = [s.extra for s in of("story.parse") if s.extra is not None]
    values["story.fallback_ratio"] = ratio(sum(1 for n in parses if n == 0), len(parses))
    values["story.multi_story_ratio"] = ratio(sum(1 for n in parses if n > 1), len(parses))
    values["metrics.tokenize_calls_per_text"] = ratio(
        len(of("metrics.tokenize")), 2 * len(of("metrics.score")))
    values["metrics.porter_stem_calls"] = last.stem_calls
    values["metrics.porter_stem_distinct_ratio"] = ratio(len(last.stem_words), last.stem_calls)
    for layer in LAYERS:
        values[f"layer.{layer}.self_s"] = statistics.median(layer_self[layer])
    values["trace.wall_s"] = statistics.median(traced_walls)
    values["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(untraced_walls)
    return {name: (value, units[name]) for name, value in values.items()}
