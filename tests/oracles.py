"""Independent brute-force reference implementations for metric and lexer tests.

Deliberately naive and structurally different from the library code:
n-grams are counted with list.count over tuple slices, the geometric mean
uses per-factor roots instead of log sums, the LCS is a memoized
recursion instead of a DP table, and NLOC is counted by a per-character
state machine instead of one regular expression.

The rest are earlier versions of rewritten hot functions, kept unchanged
so that properties can pin the rewrites to their exact outputs: the
per-character tokenize loop, the BLEU that clipped over every candidate
n-gram, the greedy matching that went through `np.clip` and `np.mean`, the
cache key that serialised its whole payload per call, the prompt render
that filled and normalised the whole layout per snippet, the snippet check
that built every line list to count physical lines, and the generic JSON
record decoder that walked a field table and called the constructor per
record, with the results-line builders that used it.

`OneHotEmbedder` is an embedding provider whose distinct tokens are exactly
orthogonal, so greedy matching under it is the bag-of-words max match.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import string
from collections import Counter
from dataclasses import MISSING, fields
from functools import cache, lru_cache
from importlib import resources
from typing import Sequence

from restory import prompts
from restory.errors import DataError
from restory.metrics import EmbeddedText, FidelityBand, ScoreTriple, tokenize
from restory.runner import FailureRecord, GenerationRecord


def oracle_bleu(
    candidate: Sequence[str],
    reference: Sequence[str],
    max_n: int = 4,
    smoothing: bool = False,
) -> float:
    if not candidate or not reference:
        return 0.0
    product = 1.0
    for n in range(1, max_n + 1):
        cand_grams = [tuple(candidate[i : i + n]) for i in range(len(candidate) - n + 1)]
        ref_grams = [tuple(reference[i : i + n]) for i in range(len(reference) - n + 1)]
        matched = sum(
            min(cand_grams.count(g), ref_grams.count(g)) for g in set(cand_grams)
        )
        total = len(cand_grams)
        if smoothing and n >= 2:
            matched += 1
            total += 1
        if matched == 0 or total == 0:
            return 0.0
        product *= (matched / total) ** (1.0 / max_n)
    if len(candidate) < len(reference):
        product *= math.exp(1.0 - len(reference) / len(candidate))
    return product


_PUNCT = frozenset(string.punctuation)


def oracle_tokenize(text: str) -> list[str]:
    """The loop `tokenize` ran before its plain-word fast path, unchanged."""
    out: list[str] = []
    for raw in text.lower().split():
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


def oracle_bleu_counted(
    candidate: Sequence[str],
    reference: Sequence[str],
    max_n: int = 4,
    smoothing: bool = False,
) -> float:
    """The `bleu` that counted tuple slices and clipped over every candidate
    n-gram, with an explicit 0 for an empty side where `bleu` reaches 0
    through its general path: the reference for its exact floats."""
    if not candidate or not reference:
        return 0.0

    def counts(tokens, n):
        return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))

    log_sum = 0.0
    for n in range(1, max_n + 1):
        cand_counts = counts(candidate, n)
        ref_counts = counts(reference, n)
        clipped = sum(min(c, ref_counts[g]) for g, c in cand_counts.items())
        total = sum(cand_counts.values())
        if smoothing and n >= 2:
            clipped += 1
            total += 1
        if clipped == 0 or total == 0:
            return 0.0
        log_sum += math.log(clipped / total) / max_n

    if len(candidate) < len(reference):
        bp = math.exp(1 - len(reference) / len(candidate))
    else:
        bp = 1.0
    return bp * math.exp(log_sum)


def oracle_greedy_embedding_score(candidate, reference):
    """`greedy_embedding_score` through `np.mean` and `np.clip`, whose steps
    `ndarray.clip` and `ndarray.sum` repeat: the reference for its exact
    floats, signed zeros included."""
    if len(candidate) == 0 or len(reference) == 0:
        raise DataError("greedy embedding score needs non-empty inputs")
    if candidate.dim != reference.dim:
        raise DataError(f"embedding dimension mismatch: {candidate.dim} vs {reference.dim}")
    import numpy as np

    sim = candidate.vectors @ reference.vectors.T
    precision = float(np.mean(np.clip(sim.max(axis=1), 0.0, 1.0)))
    recall = float(np.mean(np.clip(sim.max(axis=0), 0.0, 1.0)))
    return ScoreTriple.from_pr(precision, recall)


def oracle_cache_key(model_id: str, config, prompt_text: str) -> str:
    """The gateway cache key as derived from one sorted-keys JSON payload
    per call, before the fixed prefix and suffix were precomputed."""
    payload = json.dumps({
        "model": model_id,
        "temperature": config.temperature,
        "min_output_tokens": config.min_output_tokens,
        "repetition_penalty": config.repetition_penalty,
        "max_output_tokens": config.max_output_tokens,
        "prompt": prompt_text,
    }, sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# The layout every prompt had while it was a bundled template file.
_ORACLE_LAYOUT = ("{{directive}}\n{{story_format_hint}}\n\n{{scot_block}}\n\n{{exemplars}}\n\n"
                  "Code to analyze:\n{{code}}\n")


@cache
def _bundled_wording(name: str) -> str:
    return (resources.files("restory") / "data" / "templates" / name).read_text(encoding="utf-8")


def oracle_render_prompt(config, snippet):
    """A prompt rendered by filling every placeholder of the whole layout,
    then cutting blank-line runs and stripping the text, once per snippet."""
    if not snippet.source_text.strip():
        raise DataError(f"snippet {snippet.id} has empty source")
    substitutions = {
        "directive": _bundled_wording("directive.txt").strip(),
        "story_format_hint": _bundled_wording("story_hint.txt").strip(),
        "scot_block": _bundled_wording("scot_block.txt").strip() if config.scot else "",
        "exemplars": prompts._exemplar_block(config.exemplars, snippet.language_tag),
        "code": prompts._fenced(prompts.shown_code(snippet.source_text), snippet.language_tag),
    }
    text = re.sub(r"\{\{(\w+)\}\}", lambda m: substitutions[m.group(1)], _ORACLE_LAYOUT)
    text = prompts._BLANK_RUN_RE.sub("\n\n", text).strip() + "\n"
    return prompts.RenderedPrompt(text=text)


def oracle_exceeds_physical_lines(source_text: str, nloc: int) -> bool:
    """Whether `CodeSnippet` rejects `nloc` for `source_text`, as decided
    from the full `splitlines()` list on every record."""
    return nloc > len(source_text.splitlines())


def oracle_rouge_l(
    candidate: Sequence[str], reference: Sequence[str]
) -> tuple[float, float, float]:
    if not candidate or not reference:
        return (0.0, 0.0, 0.0)
    a = tuple(candidate)
    b = tuple(reference)

    @lru_cache(maxsize=None)
    def lcs(i: int, j: int) -> int:
        if i == 0 or j == 0:
            return 0
        if a[i - 1] == b[j - 1]:
            return lcs(i - 1, j - 1) + 1
        return max(lcs(i - 1, j), lcs(i, j - 1))

    length = lcs(len(a), len(b))
    lcs.cache_clear()
    p = length / len(a)
    r = length / len(b)
    f1 = 2 * p * r / (p + r) if p + r > 0 else 0.0
    return (p, r, f1)


def oracle_bag_max_match(candidate_tokens, reference_tokens) -> tuple[float, float, float]:
    """Bag-of-words max matching: a token scores 1 when the other side
    contains it anywhere, else 0. Equals greedy embedding matching under
    one-hot vectors."""
    if not candidate_tokens or not reference_tokens:
        return (0.0, 0.0, 0.0)
    ref_set = set(reference_tokens)
    cand_set = set(candidate_tokens)
    p = sum(1.0 for t in candidate_tokens if t in ref_set) / len(candidate_tokens)
    r = sum(1.0 for t in reference_tokens if t in cand_set) / len(reference_tokens)
    f1 = 2 * p * r / (p + r) if p + r > 0 else 0.0
    return (p, r, f1)


class OneHotEmbedder:
    """Basis-vector embeddings over a fixed vocabulary; distinct tokens are
    exactly orthogonal. Tokens outside the vocabulary are an error."""

    def __init__(self, vocabulary: Sequence[str]):
        vocab = sorted(set(vocabulary))
        if not vocab:
            raise DataError("vocabulary must be non-empty")
        self._index = {tok: i for i, tok in enumerate(vocab)}
        self.dim = len(vocab)
        self.provider_id = f"one-hot-{self.dim}"

    def embed(self, text: str) -> EmbeddedText:
        return self.embed_tokens(tokenize(text))

    def embed_tokens(self, tokens: Sequence[str]) -> EmbeddedText:
        import numpy as np

        tokens = tuple(tokens)
        vectors = np.zeros((len(tokens), self.dim))
        for row, tok in enumerate(tokens):
            try:
                vectors[row, self._index[tok]] = 1.0
            except KeyError:
                raise DataError(f"token {tok!r} not in embedder vocabulary") from None
        return EmbeddedText(tokens=tokens, vectors=vectors)


def oracle_count_nloc(source: str) -> int:
    """The per-character state machine that `count_nloc` ran before its
    regular-expression scanner: the reference for its counts and errors."""
    count = 0
    line = 1
    i = 0
    n = len(source)
    in_block = False
    block_start = 0
    in_string = False
    in_char = False
    line_has_code = False

    while i < n:
        c = source[i]
        nxt = source[i + 1] if i + 1 < n else ""

        if c == "\n":
            if line_has_code:
                count += 1
            line_has_code = False
            in_string = False  # plain literals cannot span lines
            in_char = False
            line += 1
            i += 1
            continue

        if in_block:
            if c == "*" and nxt == "/":
                in_block = False
                i += 2
            else:
                i += 1
            continue

        if in_string or in_char:
            line_has_code = True
            if c == "\\":
                if nxt == "\n":  # line continuation inside a literal
                    count += 1
                    line_has_code = False
                    line += 1
                i += 2
                continue
            if in_string and c == '"':
                in_string = False
            elif in_char and c == "'":
                in_char = False
            i += 1
            continue

        if c == "/" and nxt == "/":
            while i < n and source[i] != "\n":
                i += 1
            continue
        if c == "/" and nxt == "*":
            in_block = True
            block_start = line
            i += 2
            continue
        if c == '"':
            in_string = True
            line_has_code = True
            i += 1
            continue
        if c == "'":
            in_char = True
            line_has_code = True
            i += 1
            continue
        if not c.isspace():
            line_has_code = True
        i += 1

    if in_block:
        raise DataError(f"unterminated block comment starting at line {block_start}")
    if line_has_code:
        count += 1
    if count == 0:
        raise DataError("no code lines")
    return count


# Annotation name -> (accepted types, how an error names it). An int passes
# for a float; a bool never passes for a number, and null never passes.
_KINDS = {
    "str": ((str,), "a string"),
    "int": ((int,), "an int"),
    "float": ((int, float), "a number"),
    "bool": ((bool,), "a bool"),
}


@cache
def _schema(cls: type) -> tuple[tuple[str, tuple | None, str, bool], ...]:
    table = []
    for f in fields(cls):
        kinds, names = _KINDS.get(f.type, (None, ""))
        required = f.default is MISSING and f.default_factory is MISSING
        table.append((f.name, kinds, names, required))
    return tuple(table)


def oracle_decode(cls, obj: dict, keys=None, **build):
    kwargs = {}
    for name, kinds, names, required in _schema(cls):
        if name in build:
            kwargs[name] = build[name](obj)
        elif (key := keys.get(name, name) if keys else name) in obj:
            value = kwargs[name] = obj[key]
            if kinds is not None and value.__class__ not in kinds:
                raise TypeError(f"{key} {value!r} is not {names}")
            if value.__class__ is str and not value.isascii():
                try:
                    value.encode("utf-8")
                except UnicodeEncodeError as exc:
                    raise ValueError(f"{key} has no UTF-8 form: a lone surrogate "
                                     f"at index {exc.start}") from None
        elif required:
            raise KeyError(key)
    return cls(**kwargs)


def oracle_score_triple(obj: dict) -> ScoreTriple:
    values = obj["precision"], obj["recall"], obj["f1"]
    for value in values:
        if value.__class__ is not float and value.__class__ is not int:
            raise TypeError(f"score {value!r} is not a number")
    return ScoreTriple(*values)


def oracle_result_from_dict(obj: dict):
    """A results line's record, as `runner.load_results` built it with
    `oracle_decode`."""
    if "failure" in obj:
        return oracle_decode(FailureRecord, obj)
    return oracle_decode(
        GenerationRecord, {"prompt_label": "", "scot": False, **obj},
        scores=lambda line: {name: oracle_score_triple(t) for name, t in line["scores"].items()},
        band=lambda line: FidelityBand(line["band"]),
    )
