"""Similarity metrics for comparing candidate stories against references.

Implements n-gram BLEU (optionally add-one smoothed for n >= 2), ROUGE-L
(optionally Porter-stemmed), and greedy token-matching precision/recall/F1
over per-token embeddings, plus the three-way fidelity classification of
F1 scores. All scores live in [0, 1]; reporting multiplies by 100 at
emission time.
"""

from __future__ import annotations

import math
import string
import threading
import warnings as _warnings
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import islice
from typing import Sequence

from .errors import DataError


class MetricInputError(DataError):
    pass


_PUNCT = frozenset(string.punctuation)


def tokenize(text: str) -> list[str]:
    """Lowercase, split on whitespace, peel leading/trailing punctuation
    into separate tokens. Empty text gives an empty list."""
    out: list[str] = []
    for raw in text.lower().split():
        if raw[0] not in _PUNCT and raw[-1] not in _PUNCT:  # most words
            out.append(raw)
            continue
        i, j = 0, len(raw)
        lead: list[str] = []
        while i < j and raw[i] in _PUNCT:
            lead.append(raw[i])
            i += 1
        trail: list[str] = []
        while j > i and raw[j - 1] in _PUNCT:
            trail.append(raw[j - 1])
            j -= 1
        out.extend(lead)
        if i < j:
            out.append(raw[i:j])
        out.extend(reversed(trail))
    return out


# ---------------------------------------------------------------------------
# Porter stemmer (classic suffix-stripping algorithm)

_VOWELS = "aeiou"


def _is_cons(word: str, i: int) -> bool:
    ch = word[i]
    if ch in _VOWELS:
        return False
    if ch == "y":
        return i == 0 or not _is_cons(word, i - 1)
    return True


def _measure(stem: str) -> int:
    m = 0
    prev_vowel = False
    for i in range(len(stem)):
        vowel = not _is_cons(stem, i)
        if prev_vowel and not vowel:
            m += 1
        prev_vowel = vowel
    return m


def _has_vowel(stem: str) -> bool:
    return any(not _is_cons(stem, i) for i in range(len(stem)))


def _ends_double_cons(word: str) -> bool:
    return len(word) >= 2 and word[-1] == word[-2] and _is_cons(word, len(word) - 1)


def _ends_cvc(word: str) -> bool:
    if len(word) < 3:
        return False
    n = len(word)
    return (
        _is_cons(word, n - 3)
        and not _is_cons(word, n - 2)
        and _is_cons(word, n - 1)
        and word[-1] not in "wxy"
    )


_STEP2 = [
    ("ization", "ize"), ("iveness", "ive"), ("fulness", "ful"), ("ousness", "ous"),
    ("ational", "ate"), ("tional", "tion"), ("biliti", "ble"), ("entli", "ent"),
    ("ousli", "ous"), ("ation", "ate"), ("alism", "al"), ("aliti", "al"),
    ("iviti", "ive"), ("enci", "ence"), ("anci", "ance"), ("izer", "ize"),
    ("abli", "able"), ("alli", "al"), ("ator", "ate"), ("eli", "e"),
]

_STEP3 = [
    ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
    ("ical", "ic"), ("ful", ""), ("ness", ""),
]

_STEP4 = [
    "ement", "ance", "ence", "able", "ible", "ment", "ant", "ent", "ism",
    "ate", "iti", "ous", "ive", "ize", "ion", "al", "er", "ic", "ou",
]


# Story vocabularies are small, so most calls repeat a word already stemmed.
_STEM_MEMO_SIZE = 1 << 16


@lru_cache(maxsize=_STEM_MEMO_SIZE)
def porter_stem(word: str) -> str:
    w = word.lower()
    if len(w) <= 2:
        return w

    # step 1a
    if w.endswith("sses"):
        w = w[:-2]
    elif w.endswith("ies"):
        w = w[:-2]
    elif w.endswith("ss"):
        pass
    elif w.endswith("s"):
        w = w[:-1]

    # step 1b
    if w.endswith("eed"):
        if _measure(w[:-3]) > 0:
            w = w[:-1]
    else:
        stripped = False
        if w.endswith("ed") and _has_vowel(w[:-2]):
            w = w[:-2]
            stripped = True
        elif w.endswith("ing") and _has_vowel(w[:-3]):
            w = w[:-3]
            stripped = True
        if stripped:
            if w.endswith(("at", "bl", "iz")):
                w += "e"
            elif _ends_double_cons(w) and not w.endswith(("l", "s", "z")):
                w = w[:-1]
            elif _measure(w) == 1 and _ends_cvc(w):
                w += "e"

    # step 1c
    if w.endswith("y") and _has_vowel(w[:-1]):
        w = w[:-1] + "i"

    # step 2
    for suffix, repl in _STEP2:
        if w.endswith(suffix):
            stem = w[: -len(suffix)]
            if _measure(stem) > 0:
                w = stem + repl
            break

    # step 3
    for suffix, repl in _STEP3:
        if w.endswith(suffix):
            stem = w[: -len(suffix)]
            if _measure(stem) > 0:
                w = stem + repl
            break

    # step 4
    for suffix in _STEP4:
        if w.endswith(suffix):
            stem = w[: -len(suffix)]
            if _measure(stem) > 1:
                if suffix == "ion" and not stem.endswith(("s", "t")):
                    break
                w = stem
            break

    # step 5a
    if w.endswith("e"):
        stem = w[:-1]
        m = _measure(stem)
        if m > 1 or (m == 1 and not _ends_cvc(stem)):
            w = stem

    # step 5b
    if _measure(w) > 1 and _ends_double_cons(w) and w.endswith("l"):
        w = w[:-1]

    return w


# ---------------------------------------------------------------------------
# Score containers


@dataclass(frozen=True)
class ScoreTriple:
    precision: float
    recall: float
    f1: float

    def __post_init__(self):
        p, r, f1 = self.precision, self.recall, self.f1
        for name, v in (("precision", p), ("recall", r), ("f1", f1)):
            if not 0.0 <= v <= 1.0:
                raise MetricInputError(f"{name} {v} outside [0, 1]")
        expected = _f1(p, r)
        if abs(f1 - expected) > 1e-9:
            raise MetricInputError(
                f"f1 {f1} inconsistent with precision/recall (expected {expected})"
            )

    @classmethod
    def from_pr(cls, precision: float, recall: float) -> "ScoreTriple":
        return cls(precision, recall, _f1(precision, recall))


def _f1(p: float, r: float) -> float:
    return 2 * p * r / (p + r) if p + r > 0 else 0.0


class FidelityBand(Enum):
    FAITHFUL = "faithful"
    ADEQUATE = "adequate"
    DIVERGENT = "divergent"


def classify_fidelity(f1: float) -> FidelityBand:
    """Three-way quality banding of an F1 score.

    Faithful at or above 0.9, Divergent at or below 0.65, Adequate in
    between (the (0.65, 0.66) sliver closes the gap on the Adequate side).
    """
    if not 0.0 <= f1 <= 1.0:
        raise MetricInputError(f"f1 {f1} outside [0, 1]")
    if f1 >= 0.9:
        return FidelityBand.FAITHFUL
    if f1 > 0.65:
        return FidelityBand.ADEQUATE
    return FidelityBand.DIVERGENT


# ---------------------------------------------------------------------------
# BLEU


def _ngrams(tokens: Sequence[str], n: int):
    if n == 1:
        return tokens  # a token stands for its 1-gram; no 1-tuples are built
    # n offset views of the tokens, zipped in step. They are passed as a
    # list: passed as a generator, the n-gram tuples of a warm grid stayed
    # allocated until the next full collection (~0.5 MB more resident).
    return zip(*[islice(tokens, i, None) for i in range(n)])


def bleu(
    candidate: Sequence[str],
    reference: Sequence[str],
    smoothing: bool = False,
) -> float:
    """BLEU-4: the geometric mean of the clipped 1- to 4-gram precisions,
    times the brevity penalty.

    With smoothing, numerators and denominators for n >= 2 get add-one;
    without it, any zero precision collapses the score to 0.
    """
    if not candidate or not reference:
        _warnings.warn("bleu over an empty sequence is defined as 0", RuntimeWarning)
        return 0.0

    # One table of the reference's n-grams of every order (a token, or a
    # tuple of n >= 2 tokens). Each candidate n-gram takes one remaining
    # reference copy, so an order's matches sum to min(candidate count,
    # reference count) over its n-grams: the clipped count.
    ref_left = Counter()
    for n in range(1, 5):
        ref_left.update(_ngrams(reference, n))
    left_of = ref_left.get
    log_sum = 0.0
    for n in range(1, 5):
        clipped = 0
        for gram in _ngrams(candidate, n):
            left = left_of(gram)
            if left:
                ref_left[gram] = left - 1
                clipped += 1
        total = max(len(candidate) - n + 1, 0)
        if smoothing and n >= 2:
            clipped += 1
            total += 1
        if clipped == 0 or total == 0:
            return 0.0
        log_sum += math.log(clipped / total) / 4

    if len(candidate) < len(reference):
        bp = math.exp(1 - len(reference) / len(candidate))
    else:
        bp = 1.0
    return bp * math.exp(log_sum)


# ---------------------------------------------------------------------------
# ROUGE-L


def _lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    """Bit-parallel LCS length (Allison & Dix 1986; Hyyrö 2004).

    Bit j of a token's match mask is set where b[j] is that token. After
    each token of `a`, the zero bits of `v` (one bit per position of `b`)
    count the LCS of the prefix of `a` read so far against `b`; one integer
    addition updates every position at once.
    """
    if not a or not b:
        return 0
    masks: dict[str, int] = {}
    for j, tok in enumerate(b):
        masks[tok] = masks.get(tok, 0) | (1 << j)
    full = (1 << len(b)) - 1
    v = full
    for tok in a:
        u = v & masks.get(tok, 0)
        if u:
            v = ((v + u) | (v - u)) & full
    return len(b) - v.bit_count()


def rouge_l(
    candidate: Sequence[str],
    reference: Sequence[str],
    use_stemming: bool = False,
) -> ScoreTriple:
    """Longest-common-subsequence precision/recall/F1, optionally after
    Porter-stemming both sides. Either side empty gives all zeros."""
    if not candidate or not reference:
        return ScoreTriple(0.0, 0.0, 0.0)
    if use_stemming:
        candidate = [porter_stem(t) for t in candidate]
        reference = [porter_stem(t) for t in reference]
    lcs = _lcs_length(candidate, reference)
    return ScoreTriple.from_pr(lcs / len(candidate), lcs / len(reference))


# ---------------------------------------------------------------------------
# Greedy embedding matching


@dataclass(frozen=True, eq=False)
class EmbeddedText:
    """Tokens with one unit-norm vector each (rows of `vectors`)."""

    tokens: tuple[str, ...]
    vectors: np.ndarray

    def __post_init__(self):
        import numpy as np

        vecs = np.asarray(self.vectors, dtype=np.float64)
        object.__setattr__(self, "vectors", vecs)
        if vecs.ndim != 2:
            raise MetricInputError(f"vectors must be 2-D, got shape {vecs.shape}")
        if len(self.tokens) != vecs.shape[0]:
            raise MetricInputError(
                f"{len(self.tokens)} tokens but {vecs.shape[0]} vectors"
            )
        if vecs.shape[0]:
            norms = np.linalg.norm(vecs, axis=1)
            if np.any(np.abs(norms - 1.0) > 1e-6):
                raise MetricInputError("vectors must be unit Euclidean norm")

    @classmethod
    def _trusted(cls, tokens: tuple[str, ...], vectors: np.ndarray) -> "EmbeddedText":
        """An instance built without the checks, for an embedder whose
        `vectors` is already a float64 array of one unit-norm row per token."""
        self = object.__new__(cls)
        object.__setattr__(self, "tokens", tokens)
        object.__setattr__(self, "vectors", vectors)
        return self

    def __len__(self) -> int:
        return len(self.tokens)

    @property
    def dim(self) -> int:
        return int(self.vectors.shape[1])


@lru_cache(maxsize=None)
def _numpy_kernels():
    """numpy's pairwise-summing reduction and its clip ufunc, which
    `np.mean` and `np.clip` call under their Python wrappers."""
    import numpy as np

    try:
        from numpy._core.umath import clip
    except ImportError:  # numpy < 2
        from numpy.core.umath import clip
    return np.add.reduce, clip


def greedy_embedding_score(candidate: EmbeddedText, reference: EmbeddedText) -> ScoreTriple:
    """Greedy max-cosine token matching: precision averages each candidate
    token's best match against the reference, recall the reverse. Negative
    cosines floor at zero so scores stay in [0, 1]."""
    if len(candidate) == 0 or len(reference) == 0:
        raise MetricInputError("greedy embedding score needs non-empty inputs")
    if candidate.dim != reference.dim:
        raise MetricInputError(
            f"embedding dimension mismatch: {candidate.dim} vs {reference.dim}"
        )
    add_reduce, clip = _numpy_kernels()
    sim = candidate.vectors @ reference.vectors.T
    # The steps of np.mean(np.clip(best, 0.0, 1.0)), so the same floats: the
    # clip ufunc (np.maximum would turn a -0.0 that clip keeps into 0.0), the
    # pairwise sum and one division by the count.
    precision = float(add_reduce(clip(sim.max(axis=1), 0.0, 1.0)) / len(candidate))
    recall = float(add_reduce(clip(sim.max(axis=0), 0.0, 1.0)) / len(reference))
    return ScoreTriple.from_pr(precision, recall)


# ---------------------------------------------------------------------------
# Embedding providers
#
# Contract: `provider_id` string, `embed_tokens(tokens) -> EmbeddedText` and
# `embed(text) -> EmbeddedText`, equal to `embed_tokens(tokenize(text))`,
# both deterministic in their input. The hash-seeded provider gives hermetic,
# repeatable vectors.


class HashEmbedder:
    """Deterministic synthetic embeddings: each distinct token type gets a
    unit vector seeded from its SHA-256 digest (optionally salted). The
    unit-norm check runs once per token type, when its vector is made.
    Vectors are kept as the rows of one matrix, so a text's vectors are
    gathered with one `take`."""

    _FIRST_ROWS = 64  # rows of the first matrix; each growth doubles them

    def __init__(self, dim: int = 64, salt: int = 0):
        if dim < 1:
            raise MetricInputError(f"dim must be >= 1, got {dim}")
        self.dim = dim
        self.salt = salt
        self.provider_id = f"synthetic-hash-{dim}" + (f"-s{salt}" if salt else "")
        self._rows: dict[str, int] = {}  # token -> its row of `_matrix`
        self._matrix: np.ndarray | None = None
        self._lock = threading.Lock()

    def _vector(self, token: str) -> np.ndarray:
        """The unit vector of `token`, made from its digest."""
        import hashlib

        import numpy as np

        digest = hashlib.sha256(f"{self.salt}:{token}".encode("utf-8")).digest()
        rng = np.random.default_rng(int.from_bytes(digest[:8], "big"))
        vec = rng.standard_normal(self.dim)
        vec /= np.linalg.norm(vec)
        if not abs(np.linalg.norm(vec) - 1.0) <= 1e-6:
            raise MetricInputError(f"vector of token {token!r} is not unit norm")
        return vec

    def _add(self, token: str) -> int:
        """The row of `token`, filled with its vector if it has none yet.
        Under a lock, so that threads sharing the embedder never give two
        token types one row; the matrix only grows, so rows read without
        the lock stay valid."""
        import numpy as np

        with self._lock:
            row = self._rows.get(token)
            if row is None:
                vec = self._vector(token)
                row = len(self._rows)
                if self._matrix is None or row == len(self._matrix):
                    grown = np.empty((max(2 * row, self._FIRST_ROWS), self.dim))
                    if row:
                        grown[:row] = self._matrix
                    self._matrix = grown
                self._matrix[row] = vec
                self._rows[token] = row
        return row

    def embed(self, text: str) -> EmbeddedText:
        return self.embed_tokens(tokenize(text))

    def embed_tokens(self, tokens: Sequence[str]) -> EmbeddedText:
        tokens = tuple(tokens)
        if not tokens:
            import numpy as np

            return EmbeddedText._trusted(tokens, np.zeros((0, self.dim)))
        rows = self._rows
        index = [rows[t] if t in rows else self._add(t) for t in tokens]
        return EmbeddedText._trusted(tokens, self._matrix.take(index, axis=0))

