"""Golden run: byte-identical results and reports for a fixed experiment.

Drives `run_experiment` over all six prompt variants on a small fixed
dataset, with a deterministic provider that returns perturbed stories
(paraphrases, a dropped benefit clause, two stories in one reply, long
stories, free text that does not parse), then pins the SHA-256 of every
`results.jsonl` and of two report CSVs. Any change to rendering, parsing
or scoring that moves one output byte fails here.

The provider picks its reply from a digest of the whole prompt text, so a
rendering change also changes which reply each record gets. Greedy
matching uses one-hot vectors: every dot product and mean is exact, so the
digests do not depend on the BLAS build.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

from restory.corpus import DatasetRecord
from restory.gateway import Gateway, GenerationConfig, ProviderResponse, model_spec
from restory.metrics import tokenize
from restory.prompts import PROMPT_VARIANTS, default_prompt_config
from restory.runner import collect_report_rows, load_results, run_experiment, write_report_rows
from restory.story import canonical_text, parse_stories

from conftest import make_dataset, snippet_from_source
from oracles import OneHotEmbedder

METRICS = ("greedy-embedding", "bleu", "bleu-smoothed", "rouge-l", "rouge-l-nostem")

GOLDEN_RESULTS = {
    "few": "9687ef77a3dae6297e8707b20dab67c53591a34f1308bfb732b445bbe390484e",
    "few-scot": "ca0fb5f663f89441c8c763753b2f6c0e2864ca556730dee9fa2eb89c4daf1f82",
    "one": "eda22b5a6e0676e4b225617776a316dd02f817ff20435e51e1df45eb0d8df2aa",
    "one-scot": "c13066bc112c6f6e74af80243564b95075c6b122bf12c4a7b8ecd1b5090b406e",
    "zero": "65874bdc23c53f47553839776ff0f0603aee363d9530cc77f045aa8f5d6fc21d",
    "zero-scot": "8999eaed7522fc8b1a46fdc853902f9b1db515be8c26c8615c91c6dc6e940dbf",
}
GOLDEN_REPORTS = {
    "coarse3-greedy": "ddf157673176a1d59eb4be21f1e58fd748d7649f57c9a21eb19fa6b90f8ad816",
    "per-stratum-rouge-l": "e0cf450db4ca49889abc97aeff270e8f5f8158d27d373e81bf7107acddbfd023",
}


def _long_clause(n: int) -> str:
    return ", ".join(f"step {k} validated and organized" for k in range(n))


def golden_dataset() -> list[DatasetRecord]:
    records = make_dataset([3, 17, 55, 101, 150, 199, 260, 349])
    # Two long references (over 64 tokens) with words the stemmer folds.
    for i in (2, 5):
        rec = records[i]
        story = (
            f"As a maintainer{i}, I want the generated relational tables normalized, "
            f"{_long_clause(14)} so that the operators are happily organizing outcome {i}."
        )
        records[i] = replace(rec, reference_story=story)
    # A snippet whose code holds runs of 3, 4 and 7 newlines.
    source = "int a = 1;\n\n\nint b = 2;\n\n\n\nint c = 3;\n\n\n\n\n\n\nint d = 4;\n"
    records.append(DatasetRecord(
        snippet=snippet_from_source("snip-blank", source),
        reference_story="As a reader, I want four values assigned so that blank lines never matter.",
    ))
    return records


def _replies(i: int, rec: DatasetRecord) -> list[str]:
    nloc = rec.snippet.nloc
    return [
        # paraphrase
        f"As a user{i}, I want the {nloc} lines of task {i} organized and processed "
        f"so that outcomes for {i} are improving.",
        # benefit clause dropped
        f"As a user{i}, I want task {i} handled for {nloc} lines.",
        # two stories in one reply
        f"Sure! Here are two stories.\nAs a user{i}, I want task {i} handled so that "
        f"outcome {i} improves.\nAs an operator, I want all {nloc} relational lines "
        f"checked so that nothing breaks.",
        # free text with no story clause
        f"The snippet declares {nloc} integers named x{nloc}_0 onwards and assigns "
        f"each its index; relational checks are generated happily.",
        # long story, over 64 tokens
        f"As a user{i}, I want task {i} handled for {nloc} lines, {_long_clause(13)} "
        f"so that outcome {i} improves.",
    ]


class PerturbingProvider:
    """Replies with one of five perturbed stories for the prompted snippet
    (known by its first code line), chosen by a digest of the whole prompt."""

    def __init__(self, dataset: list[DatasetRecord]):
        self._replies = {
            rec.snippet.source_text.split("\n", 1)[0]: _replies(i, rec)
            for i, rec in enumerate(dataset)
        }

    def generate(self, model_id, prompt_text, config):
        code = prompt_text.split("```")[-2].split("\n")[1]
        choice = int(hashlib.sha256(prompt_text.encode("utf-8")).hexdigest(), 16) % 5
        return ProviderResponse(text=self._replies[code][choice])

    def vocabulary(self, dataset: list[DatasetRecord]) -> list[str]:
        texts = [rec.reference_story for rec in dataset]
        for replies in self._replies.values():
            for reply in replies:
                texts.append(reply)
                texts.extend(canonical_text(s) for s in parse_stories(reply))
        return sorted({tok for text in texts for tok in tokenize(text)})


def _sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_golden_run_is_byte_identical(tmp_path):
    dataset = golden_dataset()
    provider = PerturbingProvider(dataset)
    embedder = OneHotEmbedder(provider.vocabulary(dataset))
    records = []
    digests = {}
    for variant in sorted(PROMPT_VARIANTS):
        config = default_prompt_config(variant)
        path = tmp_path / variant / "results.jsonl"
        with Gateway(provider, model_spec("llama-3.1-8b"), GenerationConfig(min_output_tokens=1),
                     cache_dir=tmp_path / "cache") as gateway:
            run_experiment(dataset, gateway, config, embedder=embedder, metric_names=METRICS,
                           results_path=path, prompt_label=variant)
        digests[variant] = _sha(path)
        records.extend(load_results(path)[0])

    # The perturbations keep the scores away from the trivial all-1.0 run.
    assert any(r.parse_fallback for r in records)
    assert any(r.multi_story for r in records)
    for name in METRICS:
        assert len({r.scores[name].f1 for r in records}) > 3, name

    reports = {}
    for label, scheme, metric in (("coarse3-greedy", "coarse3", "greedy-embedding"),
                                  ("per-stratum-rouge-l", "per-stratum", "rouge-l")):
        path = tmp_path / f"{label}.csv"
        write_report_rows(collect_report_rows(records, scheme, metric), path)
        reports[label] = _sha(path)

    assert digests == GOLDEN_RESULTS
    assert reports == GOLDEN_REPORTS
