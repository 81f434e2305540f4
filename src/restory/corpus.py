"""Code corpus handling: NLOC measurement, strata, sampling, dataset files.

NLOC here means non-blank physical lines that contain at least one token
outside comments. The lexer recognizes `//` line comments, `/* */` block
comments, and `"`/`'`-delimited literals (so comment markers inside string
or character literals are not treated as comments). Exotic literal forms
(raw strings, digit separators) are not specially handled; preprocessor
lines count as code. `count_nloc` states the exact rules.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .errors import DataError
from .jsonl import decoder, dumps, read_unique_jsonl

SUPPORTED_LANGUAGES = ("cpp",)

STRATUM_WIDTH = 10
STRATUM_COUNT = 35
MAX_NLOC = STRATUM_WIDTH * STRATUM_COUNT  # 350


# The lexemes that hide code, matched leftmost first as the text is scanned:
# `//` comments, `/* */` comments (group 1 is set only when the comment is
# closed) and `"`/`'` literals. In a literal a backslash escapes any
# character, a newline included; an unescaped newline or the end of the text
# ends an unclosed literal.
_LEXEME = re.compile(
    r"//[^\n]*"
    r"|/\*(?:[\s\S]*?(\*/)|[\s\S]*)"
    r'|"[^"\\\n]*(?:\\[\s\S]?[^"\\\n]*)*"?'
    r"|'[^'\\\n]*(?:\\[\s\S]?[^'\\\n]*)*'?"
)


def _blank_lexeme(match: re.Match) -> str:
    """Replace a comment or literal by what it leaves on each of its lines.

    A comment leaves only its newlines. A literal leaves a code mark on
    every line it touches: one mark and newline per backslash-newline, and
    a last mark unless the literal ends right after such a newline.
    """
    text = match.group()
    if text[0] != "/":
        return "x\n" * text.count("\n") + ("" if text[-1] == "\n" else "x")
    if text[1] == "/":
        return ""
    if match.group(1) is None:
        line = match.string.count("\n", 0, match.start()) + 1
        raise DataError(f"unterminated block comment starting at line {line}")
    return "\n" * text.count("\n")


def count_nloc(source: str) -> int:
    """Count non-blank, non-comment lines in `source`.

    Lines are split on `\\n` only. A line counts when it holds a character
    that is not whitespace (`str.isspace`, so `\\r` and Unicode spaces are
    blank) outside comments, or any part of a literal. The lexing rules:

    - `//` hides the rest of its line; `/*` hides everything up to the
      first `*/` after it, so `/*/` does not close.
    - `"` and `'` open a literal that ends at the matching quote, at an
      unescaped newline, or at the end of the text. A backslash escapes
      the next character, and a backslash-newline continues the literal
      onto the next line. Every line that holds part of a literal counts,
      the backslash of a continuation included. Comment markers and the
      other quote are inert inside a literal; a digit separator such as
      `1'000` opens a literal.

    Raises DataError when no line holds code, and for an unclosed block
    comment, naming the line it starts on.
    """
    blanked = _LEXEME.sub(_blank_lexeme, source)
    count = sum(1 for line in blanked.split("\n") if line and not line.isspace())
    if count == 0:
        raise DataError("no code lines")
    return count


@dataclass(frozen=True)
class Stratum:
    """One NLOC band of width 10; the 35 bands partition [1, 350]."""

    index: int

    @property
    def lower(self) -> int:
        return STRATUM_WIDTH * self.index + 1

    @property
    def upper(self) -> int:
        return STRATUM_WIDTH * (self.index + 1)

    @property
    def label(self) -> str:
        return f"{self.lower}-{self.upper}"


STRATA = tuple(Stratum(i) for i in range(STRATUM_COUNT))

# The runner's report band schemes, each a partition of [1, 350] into
# (label, lower, upper) bands, and its default metric; here for the parser.
BANDS = {
    "coarse3": (("1-100", 1, 100), ("101-200", 101, 200), ("201-350", 201, 350)),
    "per-stratum": tuple((s.label, s.lower, s.upper) for s in STRATA),
}
SCHEMES = tuple(BANDS)
GREEDY_METRIC = "greedy-embedding"


def stratum_for_nloc(nloc: int) -> int:
    """Map an NLOC value to its stratum index, rejecting values outside [1, 350]."""
    if not 1 <= nloc <= MAX_NLOC:
        raise DataError(f"nloc {nloc} outside [1, {MAX_NLOC}]")
    return (nloc - 1) // STRATUM_WIDTH


@dataclass(frozen=True)
class CodeSnippet:
    id: str
    source_text: str
    language_tag: str
    nloc: int
    stratum_index: int

    def __post_init__(self):
        if not self.id:
            raise DataError("snippet id must be non-empty")
        if self.language_tag not in SUPPORTED_LANGUAGES:
            raise DataError(f"unsupported language tag: {self.language_tag!r}")
        # Each "\n" ends a splitlines() line, so only a count past them needs the list.
        if self.nloc > self.source_text.count("\n"):
            physical = len(self.source_text.splitlines())
            if self.nloc > physical:
                raise DataError(
                    f"snippet {self.id}: nloc {self.nloc} exceeds {physical} physical lines"
                )
        expected = stratum_for_nloc(self.nloc)
        if self.stratum_index != expected:
            raise DataError(
                f"snippet {self.id}: stratum_index {self.stratum_index} "
                f"inconsistent with nloc {self.nloc} (expected {expected})"
            )


@dataclass(frozen=True)
class DatasetRecord:
    snippet: CodeSnippet
    reference_story: str

    def __post_init__(self):
        if not self.reference_story:
            raise DataError(f"record {self.snippet.id}: reference_story must be non-empty")


def sample_stratified(
    corpus: Sequence[CodeSnippet], per_stratum: int, seed: int
) -> list[CodeSnippet]:
    """Draw exactly `per_stratum` snippets from every populated stratum.

    Selection is a seeded shuffle within each stratum (members ordered by id
    first, so the draw is independent of input order) followed by a prefix.
    Populated strata with fewer than `per_stratum` members raise a DataError
    naming their labels; strata with no members at all are skipped.
    """
    if per_stratum < 1:
        raise DataError("per_stratum must be >= 1")
    groups: dict[int, list[CodeSnippet]] = {}
    for snip in corpus:
        groups.setdefault(snip.stratum_index, []).append(snip)

    deficient = [
        STRATA[idx].label for idx in sorted(groups) if len(groups[idx]) < per_stratum
    ]
    if deficient:
        raise DataError("deficient strata: " + ", ".join(deficient))

    rng = random.Random(seed)
    out: list[CodeSnippet] = []
    for idx in sorted(groups):
        members = sorted(groups[idx], key=lambda s: s.id)
        rng.shuffle(members)
        out.extend(members[:per_stratum])
    return out


# CodeSnippet field -> its key on a dataset line; `reference_story` is the
# line's other key.
_SNIPPET_KEYS = {
    "id": "id",
    "language_tag": "language",
    "source_text": "code",
    "nloc": "nloc",
    "stratum_index": "stratum",
}
_decode_record = decoder(DatasetRecord, snippet=decoder(CodeSnippet, _SNIPPET_KEYS))


def record_to_json(record: DatasetRecord) -> str:
    obj = {key: getattr(record.snippet, field) for field, key in _SNIPPET_KEYS.items()}
    return dumps({**obj, "reference_story": record.reference_story})


def save_dataset(records: Iterable[DatasetRecord], path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(record_to_json(record) + "\n")


def _record_from_json(obj: dict) -> DatasetRecord:
    try:
        return _decode_record(obj)
    except (TypeError, ValueError, DataError) as exc:
        raise DataError(f"record {obj.get('id')!r}: {exc}") from exc


def load_dataset(path: str | Path) -> list[DatasetRecord]:
    """Load a JSON Lines dataset, validating every record's types and
    invariants. Each error names the file and line, and the record id
    once the line is an object."""
    return read_unique_jsonl(path, _record_from_json, lambda r: r.snippet.id, "record")


def profile_files(paths: Iterable[Path]) -> tuple[list[tuple[str, int, int | None]], list[str]]:
    """Measure NLOC for each file; returns (rows, warnings).

    Each row is (path, nloc, stratum_index) with stratum None outside the
    [1, 350] design range. Files that fail to lex, and files whose name is
    not UTF-8 (so that no CSV row can hold it), are skipped with a warning.
    """
    rows: list[tuple[str, int, int | None]] = []
    warnings: list[str] = []
    for p in paths:
        try:
            str(p).encode("utf-8")
            text = Path(p).read_text(encoding="utf-8")
            nloc = count_nloc(text)
        except UnicodeEncodeError:
            warnings.append(f"{str(p)!r}: file name is not UTF-8")
            continue
        except (DataError, UnicodeDecodeError, OSError) as exc:
            warnings.append(f"{p}: {exc}")
            continue
        stratum = stratum_for_nloc(nloc) if nloc <= MAX_NLOC else None
        rows.append((str(p), nloc, stratum))
    return rows, warnings
