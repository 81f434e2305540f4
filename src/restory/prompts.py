"""Prompt assembly for the six template variants.

Variants combine a shot mode (zero, one, few) with structured reasoning
on or off. Every prompt has one fixed layout, written in `_frame`: the
behavioral directive leads, so the model sees the output contract before
anything else, then the story format hint, the reasoning block (SCoT
variants only), the exemplars and the target snippet, each exemplar and
the snippet inside a code fence longer than any backtick run in it. A
`PromptConfig` carries its exemplars, and `prompted_code` reads the target
snippet's code back from a rendered prompt.

Wording lives in three bundled files, not in code: `directive.txt`, which
must be non-empty, `story_hint.txt`, and `scot_block.txt`, which must
mention all three control-flow primitives (sequence, branch, loop).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from functools import cache, cached_property
from importlib import resources
from typing import Sequence

from .corpus import CodeSnippet
from .errors import DataError
from .jsonl import decoder, dumps, read_jsonl

# Each shot mode and the fewest and most exemplars it shows.
SHOT_MODES = {"zero": (0, 0), "one": (1, 1), "few": (1, math.inf)}


def _variant(shots: str, scot: bool) -> str:
    """A variant's name: its shot mode, with "-scot" when it shows the reasoning block."""
    return f"{shots}-scot" if scot else shots


PROMPT_VARIANTS = {_variant(shots, scot): (shots, scot)
                   for shots in SHOT_MODES for scot in (False, True)}

SCOT_PRIMITIVES = ("sequence", "branch", "loop")


@cache  # bundled templates are immutable; read and strip each file once per process
def _data_text(name: str) -> str:
    path = resources.files("restory") / "data" / "templates" / name
    return path.read_text(encoding="utf-8").strip()


def estimate_tokens(text: str) -> int:
    """Rough token count: ceil(characters / 4), so 0 for empty text.
    Monotone in length; not a provider-exact tokenizer."""
    return math.ceil(len(text) / 4)


@dataclass(frozen=True)
class Exemplar:
    code: str
    story: str

    def __post_init__(self):
        if not self.code or not self.story:
            raise DataError("exemplar code and story must be non-empty")


_decode_exemplar = decoder(Exemplar)


def load_exemplars() -> list[Exemplar]:
    """The bundled exemplars, a JSON Lines file with `code` and `story` keys."""
    path = resources.files("restory") / "data" / "exemplars.jsonl"
    return [ex for _, ex in read_jsonl(path, _decode_exemplar)]


@dataclass(frozen=True)
class PromptConfig:
    shots: str  # "zero" | "one" | "few"
    scot: bool
    exemplars: tuple[Exemplar, ...] = ()  # shown in order; SHOT_MODES bounds the count

    def __post_init__(self):
        if self.shots not in SHOT_MODES:
            raise DataError(f"unknown shot mode {self.shots!r}")
        fewest, most = SHOT_MODES[self.shots]
        if not fewest <= len(self.exemplars) <= most:
            raise DataError(
                f"exemplar count mismatch: a {self.shots!r} prompt takes "
                f"{fewest if fewest == most else f'at least {fewest}'}, got {len(self.exemplars)}"
            )

    @property
    def label(self) -> str:
        """The name of this config's variant in PROMPT_VARIANTS."""
        return _variant(self.shots, self.scot)

    @cached_property  # the config is frozen: each language's frame is built once
    def _frames(self) -> dict[str, str]:
        return {}

    @cached_property  # the config is frozen, so its digest is computed once
    def fingerprint(self) -> str:
        import hashlib
        payload = dumps({
            "shots": self.shots,
            "k": len(self.exemplars),
            "scot": self.scot,
            "directive": load_directive(),
            "hint": _data_text("story_hint.txt"),
        })
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def default_prompt_config(variant: str, few_k: int = 3) -> PromptConfig:
    """One of the six named variants; a few-shot one shows the first `few_k` bundled exemplars."""
    if variant not in PROMPT_VARIANTS:
        raise DataError(
            f"undefined prompt variant {variant!r}; choose one of: "
            + ", ".join(sorted(PROMPT_VARIANTS))
        )
    if few_k < 1:
        raise DataError(f"few_k must be >= 1, got {few_k}")
    shots, scot = PROMPT_VARIANTS[variant]
    exemplars = tuple(load_exemplars())[: few_k if shots == "few" else SHOT_MODES[shots][0]]
    if shots == "few" and len(exemplars) < few_k:
        raise DataError(f"need {few_k} exemplars but only {len(exemplars)} bundled")
    return PromptConfig(shots, scot, exemplars)


@dataclass(frozen=True)
class RenderedPrompt:
    text: str


# Runs of three or more newlines. Spelled with a literal prefix rather than
# `\n{3,}` so that `re` can skip ahead to candidate matches quickly.
_BLANK_RUN_RE = re.compile(r"\n\n\n+")


def shown_code(source_text: str) -> str:
    """A snippet's code as a prompt shows it inside its fence: trailing whitespace
    dropped and blank-line runs cut to one, the opening fence's line end counted."""
    return _BLANK_RUN_RE.sub("\n\n", "\n" + source_text.rstrip())[1:]


def load_directive() -> str:
    """The bundled directive, which leads every prompt, so must be non-empty."""
    if not (text := _data_text("directive.txt")):
        raise DataError("directive must be non-empty")
    return text


def load_scot_block() -> str:
    """The bundled reasoning block, which must name every SCOT primitive."""
    text = _data_text("scot_block.txt")
    lowered = text.lower()
    missing = [p for p in SCOT_PRIMITIVES if p not in lowered]
    if missing:
        raise DataError("reasoning block missing primitives: " + ", ".join(missing))
    return text


def _fenced(code: str, language_tag: str) -> str:
    """`code` in a fenced block. The fence is longer than any backtick run in
    the code, and at least three backticks, so no line of the code closes it."""
    fence = "```"
    if "`" in code:  # a quick scan; most code holds no backtick
        fence = "`" * max(3, 1 + max(map(len, re.findall("`+", code))))
    return f"{fence}{language_tag}\n{code}\n{fence}"


def prompted_code(text: str) -> str | None:
    """The code of the fenced block that ends a prompt, as `shown_code` gives
    it; None when the text does not end in a fenced block."""
    body, _, fence = text.rstrip().rpartition("\n")
    opening = body.rfind(fence) if len(fence) >= 3 and not fence.strip("`") else -1
    _, newline, code = body[opening:].partition("\n")
    return code if opening >= 0 and newline else None


def _exemplar_block(exemplars: Sequence[Exemplar], language_tag: str) -> str:
    return "\n\n".join(
        f"Example {i}:\n{_fenced(ex.code.rstrip(), language_tag)}\nUser story: {ex.story}"
        for i, ex in enumerate(exemplars, start=1)
    )


def _frame(config: PromptConfig, language_tag: str) -> str:
    """A prompt up to its snippet's fence, blank-line runs cut: a fence opens and
    closes on a backtick, so no blank run crosses it, and only a newline follows it."""
    directive, hint = load_directive(), _data_text("story_hint.txt")
    scot = load_scot_block() if config.scot else ""
    exemplars = _exemplar_block(config.exemplars, language_tag)
    frame = f"{directive}\n{hint}\n\n{scot}\n\n{exemplars}\n\nCode to analyze:\n"
    return _BLANK_RUN_RE.sub("\n\n", frame)


def render_prompt(config: PromptConfig, snippet: CodeSnippet,
                  exemplars: Sequence[Exemplar] | None = None) -> RenderedPrompt:
    """Assemble the prompt text for one snippet: the frame, then the fenced code.
    Pure: identical inputs give byte-identical text. `exemplars`, when given,
    are shown in place of the config's."""
    if exemplars is not None:
        config = replace(config, exemplars=tuple(exemplars))
    if not snippet.source_text.strip():
        raise DataError(f"snippet {snippet.id} has empty source")
    frame = config._frames.get(snippet.language_tag)
    if frame is None:
        frame = config._frames[snippet.language_tag] = _frame(config, snippet.language_tag)
    code = _fenced(shown_code(snippet.source_text), snippet.language_tag)
    return RenderedPrompt(text=frame + code + "\n")
