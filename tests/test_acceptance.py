"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (see the conftest hook). Run with:

    pytest tests/test_acceptance.py -v -s
"""

from __future__ import annotations

import itertools
import math
import random
import time

import numpy as np

from restory.corpus import MAX_NLOC, STRATA, count_nloc, sample_stratified, stratum_for_nloc
from restory.gateway import (
    Gateway,
    GenerationConfig,
    ModelSpec,
    StaticProvider,
    estimate_cost,
    model_spec,
)
from restory.metrics import (
    EmbeddedText,
    FidelityBand,
    HashEmbedder,
    bleu,
    classify_fidelity,
    greedy_embedding_score,
    rouge_l,
    tokenize,
)
from restory.prompts import (
    PROMPT_VARIANTS,
    SCOT_PRIMITIVES,
    default_prompt_config,
    estimate_tokens,
    load_directive,
    render_prompt,
)
from restory.runner import (
    AnnotationSet,
    calibration_experiment,
    cohen_kappa,
    load_calibration_pairs,
    run_experiment,
)

from conftest import close_at_teardown, ledger_cost, make_dataset, make_snippet
from oracles import OneHotEmbedder, oracle_bleu, oracle_rouge_l

MODEL = ModelSpec("llama-3.1-8b", 0.05, 0.25)


# ---------------------------------------------------------------------------
# 1. Metric oracle equivalence


def _sentences(vocab: list[str], max_len: int) -> list[list[str]]:
    out: list[list[str]] = [[]]
    for n in range(1, max_len + 1):
        out.extend(list(p) for p in itertools.product(vocab, repeat=n))
    return out


def _assert_pair_matches_oracles(candidate, reference):
    for smoothing in (False, True):
        got = bleu(candidate, reference, smoothing=smoothing)
        want = oracle_bleu(candidate, reference, smoothing=smoothing)
        assert abs(got - want) <= 1e-9, (candidate, reference, smoothing)
    triple = rouge_l(candidate, reference)
    p, r, f1 = oracle_rouge_l(candidate, reference)
    assert abs(triple.precision - p) <= 1e-9
    assert abs(triple.recall - r) <= 1e-9
    assert abs(triple.f1 - f1) <= 1e-9


def test_metric_oracle_equivalence():
    start = time.perf_counter()
    # exhaustive: every pair up to length 6 over a 2-token vocabulary
    two = _sentences(["a", "b"], 6)
    for candidate in two:
        for reference in two:
            _assert_pair_matches_oracles(candidate, reference)

    # exhaustive: every pair up to length 3 over the 4-token vocabulary
    four_short = _sentences(["a", "b", "c", "d"], 3)
    for candidate in four_short:
        for reference in four_short:
            _assert_pair_matches_oracles(candidate, reference)

    # seeded random sample of the full length-6 / 4-token space
    rng = random.Random(20240817)
    four_long = _sentences(["a", "b", "c", "d"], 6)
    for _ in range(20000):
        _assert_pair_matches_oracles(rng.choice(four_long), rng.choice(four_long))

    # ten hand-computed pairs, frozen from closed forms
    tokens = ["the", "cat", "sat", "on", "mats"]
    assert bleu(tokens, tokens) == 1.0                                        # 1
    assert rouge_l(tokens, tokens).f1 == 1.0                                  # 2
    assert bleu(["the", "the", "the"], ["the", "cat"]) == 0.0                 # 3
    got = bleu(["the", "the", "the"], ["the", "cat"], smoothing=True)         # 4
    assert abs(got - (1 / 3 * 1 / 3 * 1 / 2) ** 0.25) < 1e-12
    assert abs(bleu(["a", "b"], ["a", "b", "c", "d"], smoothing=True) - math.exp(-1)) < 1e-12  # 5
    assert abs(bleu(["a", "b", "c", "d", "e"], ["a", "b", "c", "d", "x"]) - 0.2 ** 0.25) < 1e-12  # 6
    triple = rouge_l(["a", "b", "c", "d"], ["a", "c", "d"])                   # 7
    assert (triple.precision, triple.recall) == (0.75, 1.0)
    assert abs(triple.f1 - 6 / 7) < 1e-12
    assert rouge_l(["a", "b"], ["c", "d"]).f1 == 0.0                          # 8
    half = rouge_l(["a", "x", "b", "y"], ["a", "b"])                          # 9
    assert (half.precision, half.recall) == (0.5, 1.0)
    assert abs(half.f1 - 2 / 3) < 1e-12
    stemmed = rouge_l(["the", "cats", "were", "running"],
                      ["the", "cat", "was", "running"], use_stemming=True)    # 10
    assert stemmed.precision == 0.75

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"oracle equivalence took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 2. Greedy embedding score


def test_greedy_embedding_cases_and_symmetry():
    identity = EmbeddedText(tokens=("a", "b"), vectors=np.eye(2))
    same = greedy_embedding_score(identity, identity)
    assert (same.precision, same.recall, same.f1) == (1.0, 1.0, 1.0)

    orth_a = EmbeddedText(tokens=("a",), vectors=np.array([[1.0, 0.0]]))
    orth_b = EmbeddedText(tokens=("b",), vectors=np.array([[0.0, 1.0]]))
    zero = greedy_embedding_score(orth_a, orth_b)
    assert (zero.precision, zero.recall, zero.f1) == (0.0, 0.0, 0.0)

    hand = greedy_embedding_score(
        EmbeddedText(tokens=("a", "b"), vectors=np.array([[1.0, 0.0], [0.0, 1.0]])),
        EmbeddedText(tokens=("a",), vectors=np.array([[1.0, 0.0]])),
    )
    assert hand.precision == 0.5
    assert hand.recall == 1.0
    assert abs(hand.f1 - 2 / 3) < 1e-15

    embedder = HashEmbedder(dim=32)
    vocab = [f"w{i}" for i in range(40)]
    rng = random.Random(99)
    for _ in range(1000):
        left = embedder.embed(" ".join(rng.choices(vocab, k=rng.randint(1, 8))))
        right = embedder.embed(" ".join(rng.choices(vocab, k=rng.randint(1, 8))))
        lr = greedy_embedding_score(left, right)
        rl = greedy_embedding_score(right, left)
        assert abs(lr.precision - rl.recall) < 1e-12
        assert abs(lr.recall - rl.precision) < 1e-12
        assert abs(lr.f1 - rl.f1) < 1e-12


# ---------------------------------------------------------------------------
# 3. Fidelity bands


def test_fidelity_band_boundaries_and_monotonicity():
    assert classify_fidelity(0.9) is FidelityBand.FAITHFUL
    assert classify_fidelity(0.95) is FidelityBand.FAITHFUL
    assert classify_fidelity(0.66) is FidelityBand.ADEQUATE
    assert classify_fidelity(0.70) is FidelityBand.ADEQUATE
    assert classify_fidelity(0.65) is FidelityBand.DIVERGENT
    assert classify_fidelity(0.50) is FidelityBand.DIVERGENT

    order = {FidelityBand.DIVERGENT: 0, FidelityBand.ADEQUATE: 1, FidelityBand.FAITHFUL: 2}
    previous = -1
    for step in range(101):  # total and monotone over the 0..1 sweep
        rank = order[classify_fidelity(step / 100)]
        assert rank >= previous
        previous = rank


# ---------------------------------------------------------------------------
# 4. NLOC counting and stratification


def test_nloc_and_stratification():
    assert count_nloc("int add(int a, int b) {\n// sum helper\n\n  return a + b;\n}\n") == 3
    assert count_nloc('s = "//not a comment";\n') == 1
    assert count_nloc("/* header\n   block */\nint x = 0; /* mid */ int y;\n") == 1
    assert count_nloc("int a;\n/* two\nlines */ int b; // tail\n\n") == 2
    assert count_nloc('printf("/* not a comment */");\n') == 1

    for nloc in range(1, MAX_NLOC + 1):
        holders = [s for s in STRATA if s.lower <= nloc <= s.upper]
        assert len(holders) == 1 and holders[0].index == stratum_for_nloc(nloc)

    corpus = []
    for stratum in range(35):
        for j in range(60):
            corpus.append(make_snippet(f"s{stratum:02d}-{j:02d}", 10 * stratum + 1 + j % 10))
    sampled = sample_stratified(corpus, per_stratum=50, seed=42)
    assert len(sampled) == 1750
    counts: dict[int, int] = {}
    for snip in sampled:
        counts[snip.stratum_index] = counts.get(snip.stratum_index, 0) + 1
    assert counts == {i: 50 for i in range(35)}
    again = sample_stratified(corpus, per_stratum=50, seed=42)
    assert [s.id for s in again] == [s.id for s in sampled]


# ---------------------------------------------------------------------------
# 5. Prompt variants


def test_prompt_variant_contracts():
    configs = {name: default_prompt_config(name) for name in PROMPT_VARIANTS}
    assert len({c.fingerprint for c in configs.values()}) == 6

    snippet = make_snippet("mid", 20)
    for name, config in configs.items():
        rendered = render_prompt(config, snippet)
        assert rendered.text.startswith(load_directive())
        has_primitives = all(p in rendered.text.lower() for p in SCOT_PRIMITIVES)
        if config.scot:
            assert has_primitives, name
        else:
            assert "sequence of operations" not in rendered.text, name

    small = render_prompt(configs["zero"], make_snippet("tiny", 5))
    large = render_prompt(configs["few-scot"], make_snippet("large", 345))
    assert estimate_tokens(small.text) < estimate_tokens(large.text)


# ---------------------------------------------------------------------------
# 6. Calibration ordering


def test_calibration_ordering():
    start = time.perf_counter()
    pairs = load_calibration_pairs()
    per_category: dict[str, int] = {}
    for pair in pairs:
        per_category[pair.category] = per_category.get(pair.category, 0) + 1
    assert per_category == {"twin-minimal": 20, "paraphrase-50": 20, "different-meaning": 20}

    rows = calibration_experiment(pairs, HashEmbedder(dim=64))
    greedy = next(r for r in rows if r["metric"] == "greedy-embedding")
    assert greedy["twin-minimal"] > greedy["paraphrase-50"] > greedy["different-meaning"]
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"calibration took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 7. Cohen's kappa


def test_cohen_kappa_cases_and_invariances():
    identical = AnnotationSet((0, 1, 2, 3), (1, 0, 2, 1), (1, 0, 2, 1))
    assert cohen_kappa(identical) == 1.0

    hand = AnnotationSet((0, 1, 2, 3), (1, 1, 0, 0), (1, 0, 1, 0))
    assert cohen_kappa(hand) == 0.0

    rng = random.Random(512)
    labels = ["x", "y", "z"]
    rename = {"x": "r1", "y": "r2", "z": "r3"}
    for _ in range(500):
        n = rng.randint(1, 25)
        a = [rng.choice(labels) for _ in range(n)]
        b = [rng.choice(labels) for _ in range(n)]
        ids = tuple(range(n))
        forward = cohen_kappa(AnnotationSet(ids, tuple(a), tuple(b)))
        backward = cohen_kappa(AnnotationSet(ids, tuple(b), tuple(a)))
        renamed = cohen_kappa(
            AnnotationSet(ids, tuple(rename[v] for v in a), tuple(rename[v] for v in b))
        )
        assert abs(forward - backward) < 1e-12
        assert abs(forward - renamed) < 1e-12
        assert -1.0 - 1e-12 <= forward <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# 8. End-to-end hermetic run


class _EchoByPrompt:
    def __init__(self, dataset):
        self._stories = {
            rec.snippet.source_text.rstrip("\n"): rec.reference_story for rec in dataset
        }
        self.calls = 0

    def generate(self, model_id, prompt_text, config):
        from restory.gateway import ProviderResponse

        self.calls += 1
        block = prompt_text.split("```")[-2]
        return ProviderResponse(text=self._stories[block.split("\n", 1)[1].rstrip("\n")])


def test_end_to_end_hermetic_run(tmp_path):
    start = time.perf_counter()
    dataset = make_dataset([10 * i + 5 for i in range(35)])
    config = default_prompt_config("zero")

    # echo provider: candidate == reference, every band Faithful
    echo = _EchoByPrompt(dataset)
    gateway = close_at_teardown(Gateway(echo, MODEL, GenerationConfig(min_output_tokens=1),
                                        cache_dir=tmp_path / "cache",
                                        sleep=lambda s: None))
    first_path = tmp_path / "echo-cold.jsonl"
    cold = run_experiment(dataset, gateway, config, results_path=first_path)
    assert len(cold.records) == 35
    assert all(rec.band is FidelityBand.FAITHFUL for rec in cold.records)
    assert all(rec.scores["greedy-embedding"].f1 > 1 - 1e-9 for rec in cold.records)

    # fixed garbage + exactly-orthogonal embeddings: every band Divergent
    garbage = "the quarterly maintenance window has been rescheduled again"
    vocab = set(tokenize(garbage))
    for rec in dataset:
        vocab |= set(tokenize(rec.reference_story))
    garbage_gateway = close_at_teardown(Gateway(StaticProvider(garbage), MODEL,
                                                GenerationConfig(min_output_tokens=1),
                                                cache_dir=tmp_path / "garbage-cache",
                                                sleep=lambda s: None))
    divergent = run_experiment(dataset, garbage_gateway, config,
                               embedder=OneHotEmbedder(sorted(vocab)))
    assert all(rec.band is FidelityBand.DIVERGENT for rec in divergent.records)

    # warm rerun: zero provider calls, byte-identical results
    calls_before = echo.calls
    warm_gateway = close_at_teardown(Gateway(echo, MODEL, GenerationConfig(min_output_tokens=1),
                                             cache_dir=tmp_path / "cache",
                                             sleep=lambda s: None))
    second_path = tmp_path / "echo-warm.jsonl"
    warm = run_experiment(dataset, warm_gateway, config, results_path=second_path)
    assert echo.calls == calls_before
    assert warm.provider_calls == 0
    assert first_path.read_bytes() == second_path.read_bytes()

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"hermetic run took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 9. Cost ledger


def test_cost_ledger(tmp_path):
    assert estimate_cost(1_000_000, 1_000_000, model_spec("llama-3.1-8b")) == 0.30

    dataset = make_dataset([5, 55, 305])
    gateway = close_at_teardown(Gateway(_EchoByPrompt(dataset), MODEL,
                                        GenerationConfig(min_output_tokens=1),
                                        cache_dir=tmp_path / "cache",
                                        sleep=lambda s: None))
    before = ledger_cost(gateway.ledger.path)
    result = run_experiment(dataset, gateway, default_prompt_config("zero"))
    delta = ledger_cost(gateway.ledger.path) - before
    assert abs(result.total_cost_usd - delta) < 1e-12
    assert result.total_cost_usd > 0
