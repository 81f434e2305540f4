"""Parsing and canonicalization of "As a ..., I want ... so that ..." stories."""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import DataError


# Role runs to the comma directly before "I want"; goal and benefit are
# lazy and stop at a sentence-ending period, a newline, or end of text. Role
# and goal start with a non-space, so that text with a blank one is no story.
_STORY_RE = re.compile(
    r"\bas\s+an?\s+(?P<role>\S.*?),\s*i\s+want\s+(?P<goal>\S.*?)"
    r"(?:\s+so\s+that\s+(?P<benefit>.+?))?"
    r"(?=\.(?:\s|$)|\n|$)",
    re.IGNORECASE,
)


@dataclass(frozen=True)
class UserStory:
    role: str
    goal: str
    benefit: str | None
    raw_text: str
    warnings: tuple[str, ...] = field(default=(), compare=False)

    def __post_init__(self):
        if not self.role:
            raise DataError("story role must be non-empty")
        if not self.goal:
            raise DataError("story goal must be non-empty")


def _story_from_match(m: re.Match, raw_text: str) -> UserStory:
    benefit = m.group("benefit")
    warnings = () if benefit is not None else ("benefit clause missing",)
    return UserStory(
        role=m.group("role").strip(),
        goal=m.group("goal").strip(),
        benefit=benefit.strip() if benefit is not None else None,
        raw_text=raw_text,
        warnings=warnings,
    )


def parse_story(text: str) -> UserStory:
    """Parse the first complete story in `text`; the input is kept verbatim
    in raw_text. A missing benefit clause is flagged as a warning; text
    without any "As a ... I want" clause raises DataError."""
    m = _STORY_RE.search(text)
    if m is None:
        raise DataError("no user story clause found")
    return _story_from_match(m, text)


def parse_stories(text: str) -> list[UserStory]:
    """All stories found in `text`, in order; empty when none parse."""
    return [_story_from_match(m, text) for m in _STORY_RE.finditer(text)]


def canonical_text(story: UserStory) -> str:
    """Single-line normalized rendering; parse_story inverts it field-wise."""
    if story.benefit:
        return f"As a {story.role}, I want {story.goal} so that {story.benefit}."
    return f"As a {story.role}, I want {story.goal}."
