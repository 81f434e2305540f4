from __future__ import annotations

import types

import pytest
from hypothesis import given, settings, strategies as st

from restory import prompts
from restory.corpus import CodeSnippet
from restory.errors import DataError
from restory.jsonl import read_jsonl
from restory.prompts import (
    PROMPT_VARIANTS,
    SCOT_PRIMITIVES,
    Exemplar,
    PromptConfig,
    default_prompt_config,
    estimate_tokens,
    load_directive,
    load_exemplars,
    load_scot_block,
    prompted_code,
    render_prompt,
    shown_code,
)

from conftest import make_snippet, snippet_from_source
from oracles import oracle_render_prompt


def _config(variant: str, few_k: int = 3) -> PromptConfig:
    return default_prompt_config(variant, few_k=few_k)


def test_six_variants_have_distinct_fingerprints():
    prints = {name: _config(name).fingerprint for name in PROMPT_VARIANTS}
    assert len(set(prints.values())) == 6


def test_zero_shot_plain_has_no_exemplars_or_reasoning():
    snippet = make_snippet("s", 5)
    rendered = render_prompt(_config("zero"), snippet)
    assert rendered.text.startswith(load_directive())
    assert "Example" not in rendered.text
    assert "sequence of operations" not in rendered.text
    assert snippet.source_text.strip() in rendered.text
    assert rendered.text.count("```") == 2  # only the target snippet is fenced


def test_one_shot_scot_contains_one_exemplar_and_primitives():
    rendered = render_prompt(_config("one-scot"), make_snippet("s", 5))
    assert rendered.text.count("Example 1:") == 1
    assert "Example 2:" not in rendered.text
    for primitive in SCOT_PRIMITIVES:
        assert primitive in rendered.text.lower()


def test_directive_is_prefix_for_all_variants():
    snippet = make_snippet("s", 12)
    for name in PROMPT_VARIANTS:
        rendered = render_prompt(_config(name), snippet)
        assert rendered.text.startswith(load_directive())


def test_exemplar_count_mismatch():
    exemplars = tuple(load_exemplars())
    for shots, count, takes in [("zero", 1, "0"), ("zero", 3, "0"), ("one", 0, "1"),
                                ("one", 2, "1"), ("one", 3, "1"), ("few", 0, "at least 1")]:
        expected = f"exemplar count mismatch: a '{shots}' prompt takes {takes}, got {count}"
        with pytest.raises(DataError, match=f"^{expected}$"):
            PromptConfig(shots=shots, scot=False, exemplars=exemplars[:count])


@pytest.mark.parametrize("variant, few_k, count", [
    ("zero", 3, 0), ("one-scot", 3, 1), ("few", 1, 1), ("few-scot", 2, 2), ("few", 3, 3),
])
def test_default_config_shows_the_first_bundled_exemplars(variant, few_k, count):
    config = default_prompt_config(variant, few_k=few_k)
    assert config.exemplars == tuple(load_exemplars()[:count])
    text = render_prompt(config, make_snippet("s", 5)).text
    assert [f"Example {i}:" in text for i in range(1, 5)] == [i <= count for i in range(1, 5)]


def test_exemplars_passed_to_render_stand_in_for_the_configs():
    snippet = make_snippet("s", 5)
    bundled = load_exemplars()
    config = _config("few-scot")
    assert render_prompt(config, snippet, bundled[:3]) == render_prompt(config, snippet)
    shown = render_prompt(_config("one"), snippet, [bundled[2]]).text
    assert bundled[2].story in shown and bundled[0].story not in shown
    with pytest.raises(DataError,
                       match="^exemplar count mismatch: a 'zero' prompt takes 0, got 1$"):
        render_prompt(_config("zero"), snippet, bundled[:1])


def test_empty_snippet_rejected():
    snippet = make_snippet("s", 1)
    blank = type(snippet)(
        id="blank", source_text=" \n", language_tag="cpp", nloc=1, stratum_index=0
    )
    with pytest.raises(DataError, match="^snippet blank has empty source$"):
        render_prompt(_config("zero"), blank)


def test_rendering_is_deterministic():
    config = _config("few-scot")
    snippet = make_snippet("s", 40)
    a = render_prompt(config, snippet)
    b = render_prompt(config, snippet)
    assert a.text == b.text


@pytest.mark.parametrize("variant", sorted(PROMPT_VARIANTS))
def test_blank_line_runs_in_code_collapse_to_one_blank_line(variant):
    source = "int a = 1;\n\n\nint b = 2;\n\n\n\nint c = 3;\n\n\n\n\n\n\nint d = 4;\n"
    config = _config(variant)
    rendered = render_prompt(config, snippet_from_source("blank-runs", source))
    assert "int a = 1;\n\nint b = 2;\n\nint c = 3;\n\nint d = 4;\n```" in rendered.text
    assert "\n\n\n" not in rendered.text


@pytest.mark.parametrize("variant", sorted(PROMPT_VARIANTS))
@given(code=st.text(alphabet="`\n x;", min_size=1).filter(str.strip))
def test_prompted_code_reads_back_code_holding_backtick_runs(variant, code):
    rendered = render_prompt(_config(variant), CodeSnippet("s", code, "cpp", 1, 0))
    assert prompted_code(rendered.text) == shown_code(code)


def test_fence_outgrows_the_longest_backtick_run_and_code_without_one_keeps_three():
    text = render_prompt(_config("zero"), CodeSnippet("s", "a ``` b ````` c\n", "cpp", 1, 0)).text
    assert text.endswith("\n``````cpp\na ``` b ````` c\n``````\n")
    text = render_prompt(_config("zero"), CodeSnippet("s", "a ` b\n", "cpp", 1, 0)).text
    assert text.endswith("\n```cpp\na ` b\n```\n")
    config = PromptConfig(shots="one", scot=False,
                          exemplars=(Exemplar("x ```` y", "As a u, I want g."),))
    text = render_prompt(config, make_snippet("s", 5)).text
    assert "Example 1:\n`````cpp\nx ```` y\n`````\n" in text
    for not_fenced in ["int x;", "```cpp\nint x;", "``\nint x;\n``", "int x;\n```"]:
        assert prompted_code(not_fenced) is None


# Text pieces that meet the frame at its edges: blank-line runs, backtick
# runs, a literal placeholder and trailing whitespace.
_PIECES = st.lists(st.one_of(
    st.sampled_from(["\n", "\n\n\n", " \n\n", "\t", "  ", "`", "```", "````",
                     "{{code}}", "{{directive}}", "Example 1:", "x"]),
    st.text(alphabet="ab `{}\n\t", max_size=6),
), max_size=8).map("".join)
_EXEMPLARS = st.builds(Exemplar, _PIECES.filter(bool), _PIECES.filter(bool))


@st.composite
def _configs(draw) -> PromptConfig:
    shots = draw(st.sampled_from(sorted(prompts.SHOT_MODES)))
    count = draw(st.integers(1, 3)) if shots == "few" else prompts.SHOT_MODES[shots][0]
    return PromptConfig(
        shots=shots,
        scot=draw(st.booleans()),
        exemplars=tuple(draw(st.lists(_EXEMPLARS, min_size=count, max_size=count))),
    )


def _outcome(render, config, snippet):
    try:
        return render(config, snippet)
    except DataError as exc:
        return type(exc), str(exc)


@settings(max_examples=300)
@given(config=_configs(), sources=st.lists(st.tuples(
    st.sampled_from(["", "\n", "\n\n\n", " \n"]), _PIECES,
    st.sampled_from(["", "\n", "\n\n\n", " \n\t\n"]),
    st.sampled_from(["cpp", "c", ""]),
), min_size=1, max_size=4))
def test_render_from_the_frame_equals_the_whole_layout_render(config, sources):
    # One config renders every snippet, so later ones reuse its frames; a
    # snippet stands in by the three fields a render reads, with any tag.
    for lead, body, trail, tag in sources:
        snippet = types.SimpleNamespace(id="s", source_text=lead + body + trail, language_tag=tag)
        assert _outcome(render_prompt, config, snippet) == \
            _outcome(oracle_render_prompt, config, snippet)


def test_a_configs_frame_is_built_once_per_language():
    config = _config("few-scot")
    cpp = make_snippet("s", 5)
    c = types.SimpleNamespace(id="t", source_text="int x;\n", language_tag="c")
    for snippet in (cpp, c, cpp, c):
        assert render_prompt(config, snippet) == oracle_render_prompt(config, snippet)
    assert sorted(config._frames) == ["c", "cpp"]
    assert "```c\n" in config._frames["c"] and "```cpp\n" in config._frames["cpp"]


def test_token_envelope_small_zero_vs_large_few_scot():
    small = render_prompt(_config("zero"), make_snippet("small", 5))
    large = render_prompt(_config("few-scot"), make_snippet("large", 345))
    assert estimate_tokens(small.text) < estimate_tokens(large.text)


def test_estimate_tokens_formula_and_errors():
    assert estimate_tokens("x" * 400) == 100
    assert estimate_tokens("abc") == 1
    with pytest.raises(DataError):
        estimate_tokens("")


@given(st.text(min_size=1, max_size=200), st.text(max_size=100))
def test_estimate_tokens_monotone_in_prefix(prefix, suffix):
    assert estimate_tokens(prefix) <= estimate_tokens(prefix + suffix)


def test_directive_loader_requires_text(monkeypatch):
    monkeypatch.setattr(prompts, "_data_text", lambda name: "")
    with pytest.raises(DataError, match="^directive must be non-empty$"):
        load_directive()


def test_scot_block_loader_requires_primitives(monkeypatch):
    monkeypatch.setattr(prompts, "_data_text", lambda name: "Think about the sequence and each branch.\n")
    with pytest.raises(DataError, match="^reasoning block missing primitives: loop$"):
        load_scot_block()


def test_default_scot_block_names_all_primitives():
    block = load_scot_block().lower()
    for primitive in SCOT_PRIMITIVES:
        assert primitive in block


def test_bundled_exemplars_are_small_and_valid():
    exemplars = load_exemplars()
    assert len(exemplars) >= 3
    from restory.corpus import count_nloc

    assert count_nloc(exemplars[0].code) < 30  # one-shot exemplar stays short


def test_mistyped_exemplar_names_file_and_line(tmp_path):
    path = tmp_path / "exemplars.jsonl"
    path.write_text('{"code": "int x;", "story": "As a u, I want g."}\n'
                    '{"code": 5, "story": "As a u, I want g."}\n', encoding="utf-8")
    with pytest.raises(DataError) as exc_info:
        list(read_jsonl(path, prompts._decode_exemplar))
    assert str(exc_info.value) == f"{path}: bad record on line 2: code 5 is not a string"


@pytest.mark.parametrize("code, story", [("", "As a u, I want g."), ("int x;", "")],
                         ids=["empty-code", "empty-story"])
def test_exemplar_code_and_story_must_be_non_empty(code, story):
    with pytest.raises(DataError, match="exemplar code and story must be non-empty"):
        Exemplar(code, story)


def test_undefined_variant_message_names_it():
    with pytest.raises(DataError, match="no-such-variant"):
        default_prompt_config("no-such-variant")


def test_prompt_config_validation():
    with pytest.raises(DataError):
        PromptConfig(shots="many", scot=False)
    with pytest.raises(DataError,
                       match="^exemplar count mismatch: a 'few' prompt takes at least 1, got 0$"):
        PromptConfig(shots="few", scot=False)


def test_few_and_one_fingerprints_differ_even_at_k_one():
    exemplars = tuple(load_exemplars()[:1])
    one = PromptConfig(shots="one", scot=False, exemplars=exemplars)
    few1 = PromptConfig(shots="few", scot=False, exemplars=exemplars)
    assert one.fingerprint != few1.fingerprint
