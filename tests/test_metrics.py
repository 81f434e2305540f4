from __future__ import annotations

import math
import string
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from restory.errors import DataError
from restory.metrics import (
    EmbeddedText,
    FidelityBand,
    HashEmbedder,
    ScoreTriple,
    bleu,
    classify_fidelity,
    greedy_embedding_score,
    porter_stem,
    rouge_l,
    tokenize,
)

from oracles import (
    OneHotEmbedder,
    oracle_bag_max_match,
    oracle_bleu,
    oracle_bleu_counted,
    oracle_greedy_embedding_score,
    oracle_rouge_l,
    oracle_tokenize,
)


# ---------------------------------------------------------------------------
# tokenize


def test_tokenize_splits_punctuation():
    assert tokenize("Add two numbers.") == ["add", "two", "numbers", "."]


def test_tokenize_empty():
    assert tokenize("") == []
    assert tokenize("   \n\t ") == []


def test_tokenize_leading_and_trailing_punctuation_order():
    assert tokenize('"Hello!"') == ['"', "hello", "!", '"']


def test_tokenize_keeps_internal_punctuation():
    assert tokenize("don't stop") == ["don't", "stop"]


def test_tokenize_all_punctuation_word():
    assert tokenize("-- ok") == ["-", "-", "ok"]


@given(st.text(max_size=60))
def test_tokenize_idempotent_on_joined_output(text):
    once = tokenize(text)
    assert tokenize(" ".join(once)) == once


# Punctuation, letters and whitespace that `str.split` splits on, some of it
# beyond ASCII, so that words of every punctuation shape show up.
_TOKENIZE_ALPHABET = string.punctuation + string.ascii_letters + " \t\n\xa0\u2028"


@settings(max_examples=300)
@given(st.text(alphabet=_TOKENIZE_ALPHABET, max_size=60))
def test_tokenize_equals_the_per_character_loop(text):
    assert tokenize(text) == oracle_tokenize(text)


# ---------------------------------------------------------------------------
# Porter stemmer (full-pipeline expectations)


@pytest.mark.parametrize(
    "word,stem",
    [
        ("caresses", "caress"), ("ponies", "poni"), ("ties", "ti"), ("caress", "caress"),
        ("cats", "cat"), ("feed", "feed"), ("agreed", "agre"), ("plastered", "plaster"),
        ("bled", "bled"), ("motoring", "motor"), ("sing", "sing"), ("hopping", "hop"),
        ("tanned", "tan"), ("falling", "fall"), ("hissing", "hiss"), ("fizzed", "fizz"),
        ("failing", "fail"), ("filing", "file"), ("happy", "happi"), ("sky", "sky"),
        ("relational", "relat"), ("conditional", "condit"), ("rational", "ration"),
        ("operator", "oper"), ("feudalism", "feudal"), ("formalize", "formal"),
        ("electrical", "electr"), ("electriciti", "electr"), ("hopefulness", "hope"),
        ("goodness", "good"), ("replacement", "replac"), ("adjustment", "adjust"),
        ("dependent", "depend"), ("adoption", "adopt"), ("communism", "commun"),
        ("effective", "effect"), ("rate", "rate"), ("cease", "ceas"),
        ("controll", "control"), ("roll", "roll"), ("running", "run"), ("runs", "run"),
    ],
)
def test_porter_stem_vectors(word, stem):
    assert porter_stem(word) == stem


def test_porter_stem_groups_inflections():
    assert porter_stem("organize") == porter_stem("organizes") == porter_stem("organized")


@pytest.mark.parametrize("word", ["organizations", "Hopping", "relational", "ab", ""])
def test_porter_stem_memo_is_transparent(word):
    first = porter_stem(word)
    hits = porter_stem.cache_info().hits
    assert porter_stem(word) == first == porter_stem.__wrapped__(word)
    assert porter_stem.cache_info().hits == hits + 1


# ---------------------------------------------------------------------------
# BLEU


def test_bleu_identity_at_length_four_or_more():
    tokens = ["the", "cat", "sat", "on", "mats"]
    assert bleu(tokens, tokens) == 1.0
    assert bleu(tokens, tokens, smoothing=True) == 1.0


def test_bleu_repeated_token_zero_without_smoothing():
    # clipped unigram precision is 1/3; bigram precision 0 kills the product
    assert bleu(["the", "the", "the"], ["the", "cat"]) == 0.0


def test_bleu_repeated_token_smoothed_hand_value():
    got = bleu(["the", "the", "the"], ["the", "cat"], smoothing=True)
    expected = (1 / 3 * 1 / 3 * 1 / 2 * 1) ** 0.25  # p1..p4 with add-one for n>=2
    assert abs(got - expected) < 1e-12


def test_bleu_brevity_penalty_hand_value():
    got = bleu(["a", "b"], ["a", "b", "c", "d"], smoothing=True)
    assert abs(got - math.exp(-1)) < 1e-12  # all precisions 1, BP = e^(1 - 4/2)


def test_bleu_near_match_hand_value():
    got = bleu(["a", "b", "c", "d", "e"], ["a", "b", "c", "d", "x"])
    assert abs(got - 0.2 ** 0.25) < 1e-12  # 4/5 * 3/4 * 2/3 * 1/2 = 0.2


def test_bleu_empty_inputs_return_zero_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for smoothing in (False, True):
            assert bleu([], ["a"], smoothing=smoothing) == 0.0
            assert bleu(["a"], [], smoothing=smoothing) == 0.0
            assert bleu([], [], smoothing=smoothing) == 0.0


_tokens = st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=10)


def _token_pairs(size):
    # One- and two-word alphabets with longer texts make candidate n-gram
    # counts exceed the reference's, so clipping decides the score.
    words = st.lists(st.sampled_from([f"w{i}" for i in range(size)]),
                     max_size=60 if size <= 2 else 40)
    return st.tuples(words, words)


@settings(max_examples=300)
@given(st.sampled_from([1, 2, 4, 30]).flatmap(_token_pairs), st.booleans())
def test_bleu_matches_oracle(pair, smoothing):
    candidate, reference = pair
    got = bleu(candidate, reference, smoothing=smoothing)
    assert got == oracle_bleu_counted(candidate, reference, 4, smoothing)
    want = oracle_bleu(candidate, reference, 4, smoothing)
    assert abs(got - want) <= 1e-9
    assert 0.0 <= got <= 1.0


# ---------------------------------------------------------------------------
# ROUGE-L


def test_rouge_identity():
    triple = rouge_l(["x", "y", "z"], ["x", "y", "z"])
    assert (triple.precision, triple.recall, triple.f1) == (1.0, 1.0, 1.0)


def test_rouge_hand_lcs_case():
    triple = rouge_l(["a", "b", "c", "d"], ["a", "c", "d"])
    assert triple.precision == 0.75
    assert triple.recall == 1.0
    assert abs(triple.f1 - 6 / 7) < 1e-12


def test_rouge_disjoint_vocabulary_zero():
    assert rouge_l(["a", "b"], ["c", "d"]) == ScoreTriple(0.0, 0.0, 0.0)


def test_rouge_empty_sides_zero():
    assert rouge_l([], ["a"]) == ScoreTriple(0.0, 0.0, 0.0)
    assert rouge_l(["a"], []) == ScoreTriple(0.0, 0.0, 0.0)


def test_rouge_stemming_changes_matching():
    candidate = ["the", "cats", "were", "running"]
    reference = ["the", "cat", "was", "running"]
    plain = rouge_l(candidate, reference, use_stemming=False)
    stemmed = rouge_l(candidate, reference, use_stemming=True)
    assert plain.precision == 0.5  # LCS: the, running
    assert stemmed.precision == 0.75  # stems: the, cat, run align; was->wa stays apart
    assert stemmed.f1 > plain.f1


@given(_tokens, _tokens)
def test_rouge_matches_oracle(candidate, reference):
    got = rouge_l(candidate, reference)
    p, r, f1 = oracle_rouge_l(candidate, reference)
    assert abs(got.precision - p) <= 1e-9
    assert abs(got.recall - r) <= 1e-9
    assert abs(got.f1 - f1) <= 1e-9


def _word_lists(alphabet):
    length = st.integers(min_value=0, max_value=150)
    return length.flatmap(lambda n: st.lists(st.sampled_from(alphabet), min_size=n, max_size=n))


_small_alphabet = st.integers(min_value=3, max_value=5).map(
    lambda k: ["alpha", "beta", "gamma", "delta", "omega"][:k]
)


@settings(deadline=None, max_examples=150)
@given(_small_alphabet.flatmap(lambda a: st.tuples(_word_lists(a), _word_lists(a))))
def test_bit_parallel_lcs_matches_oracle_on_long_repetitive_inputs(pair):
    # Lengths up to 150 give match masks wider than one 64-bit word.
    candidate, reference = pair
    got = rouge_l(candidate, reference, use_stemming=False)
    assert (got.precision, got.recall, got.f1) == oracle_rouge_l(candidate, reference)


# ---------------------------------------------------------------------------
# ScoreTriple


def test_score_triple_validates_range_and_f1():
    with pytest.raises(DataError, match=r"^precision 1.2 outside \[0, 1\]$"):
        ScoreTriple(1.2, 0.5, 0.7)
    with pytest.raises(DataError,
                       match=r"^f1 0.9 inconsistent with precision/recall \(expected 0.5\)$"):
        ScoreTriple(0.5, 0.5, 0.9)
    triple = ScoreTriple.from_pr(0.5, 1.0)
    assert abs(triple.f1 - 2 / 3) < 1e-12


@given(st.floats(0, 1), st.floats(0, 1))
def test_f1_between_min_and_max(p, r):
    triple = ScoreTriple.from_pr(p, r)
    if p + r > 0:
        assert min(p, r) - 1e-12 <= triple.f1 <= max(p, r) + 1e-12
    else:
        assert triple.f1 == 0.0


# ---------------------------------------------------------------------------
# greedy embedding score


def _embedded(vectors: list[list[float]]) -> EmbeddedText:
    arr = np.array(vectors, dtype=float)
    return EmbeddedText(tokens=tuple(f"t{i}" for i in range(len(vectors))), vectors=arr)


def test_greedy_identity():
    e = _embedded([[1.0, 0.0], [0.0, 1.0]])
    triple = greedy_embedding_score(e, e)
    assert (triple.precision, triple.recall, triple.f1) == (1.0, 1.0, 1.0)


def test_greedy_orthogonal_zero():
    a = _embedded([[1.0, 0.0, 0.0]])
    b = _embedded([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    triple = greedy_embedding_score(a, b)
    assert (triple.precision, triple.recall, triple.f1) == (0.0, 0.0, 0.0)


def test_greedy_hand_case():
    candidate = _embedded([[1.0, 0.0], [0.0, 1.0]])
    reference = _embedded([[1.0, 0.0]])
    triple = greedy_embedding_score(candidate, reference)
    assert triple.precision == 0.5
    assert triple.recall == 1.0
    assert abs(triple.f1 - 2 / 3) < 1e-12


def test_greedy_errors():
    empty = EmbeddedText(tokens=(), vectors=np.zeros((0, 2)))
    ok = _embedded([[1.0, 0.0]])
    with pytest.raises(DataError, match="^greedy embedding score needs non-empty inputs$"):
        greedy_embedding_score(empty, ok)
    with pytest.raises(DataError, match="^embedding dimension mismatch: 2 vs 3$"):
        greedy_embedding_score(ok, _embedded([[1.0, 0.0, 0.0]]))


def test_embedded_text_requires_unit_norm():
    with pytest.raises(DataError, match="^vectors must be unit Euclidean norm$"):
        EmbeddedText(tokens=("a",), vectors=np.array([[2.0, 0.0]]))
    with pytest.raises(DataError, match="^2 tokens but 1 vectors$"):
        EmbeddedText(tokens=("a", "b"), vectors=np.array([[1.0, 0.0]]))


@settings(max_examples=200)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_greedy_swap_symmetry(n_cand, n_ref, seed):
    rng = np.random.default_rng(seed)

    def random_embedded(n):
        vecs = rng.standard_normal((n, 8))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        return EmbeddedText(tokens=tuple(f"t{i}" for i in range(n)), vectors=vecs)

    a, b = random_embedded(n_cand), random_embedded(n_ref)
    ab = greedy_embedding_score(a, b)
    ba = greedy_embedding_score(b, a)
    assert abs(ab.precision - ba.recall) < 1e-12
    assert abs(ab.recall - ba.precision) < 1e-12
    assert abs(ab.f1 - ba.f1) < 1e-12


@given(st.lists(st.sampled_from("abcd"), min_size=1, max_size=8),
       st.lists(st.sampled_from("abcd"), min_size=1, max_size=8))
def test_greedy_one_hot_equals_bag_max_match(cand, ref):
    embedder = OneHotEmbedder(vocabulary=list("abcd"))
    got = greedy_embedding_score(embedder.embed(" ".join(cand)), embedder.embed(" ".join(ref)))
    p, r, f1 = oracle_bag_max_match(cand, ref)
    assert abs(got.precision - p) < 1e-12
    assert abs(got.recall - r) < 1e-12
    assert abs(got.f1 - f1) < 1e-12


_GREEDY_WORDS = [f"w{i}" for i in range(12)]


@settings(max_examples=200)
@given(st.sampled_from(["hash", "one-hot"]),
       st.lists(st.sampled_from(_GREEDY_WORDS), min_size=1, max_size=30),
       st.lists(st.sampled_from(_GREEDY_WORDS), min_size=1, max_size=30))
def test_greedy_matches_the_np_mean_oracle_to_the_bit(kind, cand, ref):
    embedder = HashEmbedder(dim=16) if kind == "hash" else OneHotEmbedder(_GREEDY_WORDS)
    a, b = embedder.embed_tokens(cand), embedder.embed_tokens(ref)
    got = greedy_embedding_score(a, b)
    want = oracle_greedy_embedding_score(a, b)
    assert list(map(repr, (got.precision, got.recall, got.f1))) == \
        list(map(repr, (want.precision, want.recall, want.f1)))


# ---------------------------------------------------------------------------
# embedding providers


def test_hash_embedder_deterministic_and_unit_norm():
    a = HashEmbedder(dim=32)
    b = HashEmbedder(dim=32)
    e1 = a.embed("count the words")
    e2 = b.embed("count the words")
    assert e1.tokens == e2.tokens
    assert np.allclose(e1.vectors, e2.vectors)
    assert np.allclose(np.linalg.norm(e1.vectors, axis=1), 1.0)


def test_hash_embedder_salt_changes_vectors():
    plain = HashEmbedder(dim=32).embed("word")
    salted = HashEmbedder(dim=32, salt=7).embed("word")
    assert not np.allclose(plain.vectors, salted.vectors)


_EMBED_TEXTS = ["", "count the words", "As a user, I want (nested) output!", "a  b\tc\n..."]


@pytest.mark.parametrize("text", _EMBED_TEXTS)
@pytest.mark.parametrize("make", [
    lambda: HashEmbedder(dim=16, salt=3),
    lambda: OneHotEmbedder(sorted({t for text in _EMBED_TEXTS for t in tokenize(text)})),
], ids=["hash", "one-hot"])
def test_embed_tokens_equals_embed(make, text):
    embedder = make()
    from_tokens = embedder.embed_tokens(tokenize(text))
    from_text = embedder.embed(text)
    assert from_tokens.tokens == from_text.tokens == tuple(tokenize(text))
    assert np.array_equal(from_tokens.vectors, from_text.vectors)


@pytest.mark.parametrize("text", _EMBED_TEXTS)
def test_hash_embed_tokens_equals_the_checked_constructor(text):
    embedded = HashEmbedder(dim=16, salt=3).embed_tokens(tokenize(text))
    checked = EmbeddedText(tokens=tuple(tokenize(text)), vectors=embedded.vectors.copy())
    assert embedded.tokens == checked.tokens
    assert embedded.vectors.dtype == checked.vectors.dtype == np.float64
    assert embedded.vectors.shape == checked.vectors.shape == (len(checked), 16)
    assert np.array_equal(embedded.vectors, checked.vectors)


_GROWTH_WORDS = [f"t{i}" for i in range(300)]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 200),
       st.lists(st.lists(st.sampled_from(_GROWTH_WORDS), max_size=30), max_size=6))
def test_hash_embed_tokens_rows_are_each_tokens_vector_across_matrix_growth(first, batches):
    """A first batch of `first` new token types takes the matrix across
    its 64- and 128-row growth points; texts embedded earlier keep their
    vectors."""
    embedder = HashEmbedder(dim=8, salt=5)
    seen = []
    for tokens in [_GROWTH_WORDS[:first], *batches]:
        embedded = embedder.embed_tokens(tokens)
        checked = EmbeddedText(tokens=tuple(tokens), vectors=embedded.vectors.copy())
        assert embedded.tokens == checked.tokens
        assert embedded.vectors.dtype == checked.vectors.dtype == np.float64
        assert embedded.vectors.shape == checked.vectors.shape == (len(tokens), 8)
        assert np.array_equal(embedded.vectors, checked.vectors)
        for row, token in zip(embedded.vectors, tokens):
            assert np.array_equal(row, embedder._vector(token))
        seen.append((embedded, embedded.vectors.copy()))
    for embedded, vectors in seen:
        assert np.array_equal(embedded.vectors, vectors)


def test_one_hot_embedder_rejects_unknown_token():
    embedder = OneHotEmbedder(vocabulary=["a", "b"])
    with pytest.raises(DataError, match="^token 'z' not in embedder vocabulary$"):
        embedder.embed("a z")


# ---------------------------------------------------------------------------
# fidelity classification


@pytest.mark.parametrize(
    "f1,band",
    [
        (0.95, FidelityBand.FAITHFUL),
        (0.9, FidelityBand.FAITHFUL),
        (0.8999, FidelityBand.ADEQUATE),
        (0.70, FidelityBand.ADEQUATE),
        (0.66, FidelityBand.ADEQUATE),
        (0.655, FidelityBand.ADEQUATE),
        (0.65, FidelityBand.DIVERGENT),
        (0.50, FidelityBand.DIVERGENT),
        (0.0, FidelityBand.DIVERGENT),
        (1.0, FidelityBand.FAITHFUL),
    ],
)
def test_classify_fidelity_boundaries(f1, band):
    assert classify_fidelity(f1) is band


def test_classify_fidelity_total_and_monotone():
    order = {FidelityBand.DIVERGENT: 0, FidelityBand.ADEQUATE: 1, FidelityBand.FAITHFUL: 2}
    previous = -1
    for i in range(101):
        rank = order[classify_fidelity(i / 100)]
        assert rank >= previous
        previous = rank


def test_classify_fidelity_rejects_out_of_range():
    for bad in (-0.1, 1.1, float("nan")):
        with pytest.raises(DataError, match=rf"^f1 {bad} outside \[0, 1\]$"):
            classify_fidelity(bad)
