from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from restory.errors import DataError
from restory.story import UserStory, canonical_text, parse_stories, parse_story


def test_parse_full_story():
    story = parse_story("As a teacher, I want to grade quizzes so that I save time")
    assert story.role == "teacher"
    assert story.goal == "to grade quizzes"
    assert story.benefit == "I save time"


def test_parse_missing_benefit_flags_warning():
    story = parse_story("As an admin, I want to reset passwords")
    assert story.role == "admin"
    assert story.goal == "to reset passwords"
    assert story.benefit is None


def test_parse_finds_a_story_between_other_lines():
    text = "  noise before\nAs a clerk, I want receipts filed so that audits pass.\nnoise after"
    story = parse_story(text)
    assert story.role == "clerk"
    assert story.benefit == "audits pass"


def test_parse_no_match_is_error():
    with pytest.raises(DataError, match="^no user story clause found$"):
        parse_story("This function sorts integers.")


def test_parse_first_of_multiple_stories():
    text = (
        "As a cook, I want recipes listed so that prep is faster. "
        "As a waiter, I want orders queued so that tables move."
    )
    story = parse_story(text)
    assert story.role == "cook"
    assert story.benefit == "prep is faster"
    both = parse_stories(text)
    assert [s.role for s in both] == ["cook", "waiter"]
    assert both[1].goal == "orders queued"


def test_parse_stories_empty_when_no_match():
    assert parse_stories("just a sentence") == []


def test_canonical_text_with_and_without_benefit():
    full = UserStory(role="teacher", goal="to grade quizzes", benefit="I save time")
    assert canonical_text(full) == "As a teacher, I want to grade quizzes so that I save time."
    short = UserStory(role="admin", goal="to reset passwords", benefit=None)
    assert canonical_text(short) == "As a admin, I want to reset passwords."
    assert "so that" not in canonical_text(short)


def test_round_trip_teacher_story():
    original = parse_story("As a teacher, I want to grade quizzes so that I save time")
    reparsed = parse_story(canonical_text(original))
    assert (reparsed.role, reparsed.goal, reparsed.benefit) == (
        original.role,
        original.goal,
        original.benefit,
    )


def test_round_trip_comma_inside_role():
    story = UserStory(role="teacher, newly hired", goal="to grade quizzes", benefit="I settle in")
    reparsed = parse_story(canonical_text(story))
    assert reparsed.role == "teacher, newly hired"
    assert reparsed.goal == "to grade quizzes"
    assert reparsed.benefit == "I settle in"


def test_story_requires_role_and_goal():
    with pytest.raises(Exception):
        UserStory(role="", goal="g", benefit=None)
    with pytest.raises(Exception):
        UserStory(role="r", goal="", benefit=None)


_field_text = st.text(
    alphabet=st.characters(
        whitelist_categories=("Lu", "Ll", "Nd"), whitelist_characters=" -'"
    ),
    min_size=1,
    max_size=24,
).map(lambda s: " ".join(s.split())).filter(
    lambda s: s
    and not any(k in f" {s.lower()} " for k in (" i want ", " so that ", " as a ", " as an "))
)


@given(role=_field_text, goal=_field_text, benefit=st.one_of(st.none(), _field_text))
def test_parse_inverts_canonical(role, goal, benefit):
    story = UserStory(role=role, goal=goal, benefit=benefit)
    reparsed = parse_story(canonical_text(story))
    assert reparsed.role == role
    assert reparsed.goal == goal
    assert reparsed.benefit == benefit
