from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from restory.corpus import (
    MAX_NLOC,
    STRATA,
    CodeSnippet,
    DatasetRecord,
    count_nloc,
    load_dataset,
    sample_stratified,
    save_dataset,
    stratum_for_nloc,
)
from restory.errors import DataError

from conftest import make_cpp_source, make_dataset, make_snippet, snippet_from_source
from oracles import oracle_count_nloc, oracle_exceeds_physical_lines


# ---------------------------------------------------------------------------
# count_nloc hand cases


def test_three_code_lines_one_comment_one_blank():
    source = "int add(int a, int b) {\n// sum helper\n\n  return a + b;\n}\n"
    assert count_nloc(source) == 3


def test_string_literal_hides_comment_marker():
    assert count_nloc('s = "//not a comment";\n') == 1


def test_char_literal_hides_comment_marker():
    assert count_nloc("char c = '/'; char d = '/';\n") == 1


def test_trailing_line_comment_still_counts_code():
    assert count_nloc("int x = 1; // set x\n") == 1


def test_block_comments_spanning_lines():
    source = "/* header\n   block */\nint x = 0; /* trailing */\n/* lead */ int y = 1;\n"
    assert count_nloc(source) == 2


def test_block_comment_only_line_not_counted():
    assert count_nloc("/* a */\nint x;\n") == 1


def test_preprocessor_lines_count_as_code():
    assert count_nloc("#include <iostream>\n#define N 10\nint main() {}\n") == 3


def test_no_trailing_newline_last_line_counts():
    assert count_nloc("int x = 1;") == 1


def test_empty_text_is_error():
    with pytest.raises(DataError, match="^no code lines$"):
        count_nloc("")


def test_only_comments_and_blanks_is_error():
    with pytest.raises(DataError, match="^no code lines$"):
        count_nloc("// nothing here\n\n/* and nothing\n   here either */\n")


def test_unterminated_block_comment_reports_start_line():
    with pytest.raises(DataError, match="^unterminated block comment starting at line 2$"):
        count_nloc("int x;\n/* never closed\nint y;\n")


def test_generated_source_has_requested_nloc():
    for n in (1, 7, 345):
        assert count_nloc(make_cpp_source(n)) == n


def test_backslash_newline_in_literal_counts_both_lines():
    assert count_nloc('s = "first \\\n// still the literal";\n') == 2
    assert count_nloc("c = 'a\\\n//';\n") == 2


def test_newline_cuts_off_an_unclosed_literal():
    # The literal ends at the newline, so `/*` in it never opens a comment
    # and the `//` on the next line is live again.
    assert count_nloc('s = "/* open\nint x; // "\n') == 2


def test_slash_star_slash_does_not_close():
    with pytest.raises(DataError, match="^unterminated block comment starting at line 2$"):
        count_nloc("int x;\n/*/ still open\nint y;\n")


def test_crlf_line_endings():
    assert count_nloc("int x;\r\n\r\n// note\r\nint y;\r\n") == 2


def test_digit_separator_opens_a_char_literal():
    assert count_nloc("int n = 1'000'000;\n") == 1
    # The literal runs to the end of the line and hides the `/*` after it.
    assert count_nloc("int n = 1'000; /* note\n*/\n") == 2


def test_nbsp_only_line_is_blank():
    assert count_nloc("int x;\n\xa0\nint y;\n") == 2
    with pytest.raises(DataError, match="^no code lines$"):
        count_nloc("\xa0\n")


# ---------------------------------------------------------------------------
# count_nloc properties

_code_line = st.sampled_from(
    ["int a = 1;", "return x;", "x += 2;", 'puts("s");', "for (;;) break;"]
)
_comment_line = st.sampled_from(["// note", "//", "/* one-liner */"])
_blank_line = st.just("")
_safe_lines = st.lists(
    st.one_of(_code_line, _comment_line, _blank_line), min_size=1, max_size=30
).filter(lambda ls: any(l and not l.startswith(("//", "/*")) for l in ls))


@given(_safe_lines, st.integers(min_value=0, max_value=30))
def test_inserting_full_line_comment_never_changes_count(lines, pos):
    source = "\n".join(lines) + "\n"
    augmented = lines[: min(pos, len(lines))] + ["// inserted"] + lines[min(pos, len(lines)) :]
    assert count_nloc("\n".join(augmented) + "\n") == count_nloc(source)


@given(_safe_lines)
def test_count_at_most_physical_lines_and_blank_strip_invariant(lines):
    source = "\n".join(lines) + "\n"
    n = count_nloc(source)
    assert n <= len(source.splitlines())
    stripped = "\n".join(l for l in lines if l.strip()) + "\n"
    assert count_nloc(stripped) == n


@given(_safe_lines, st.sampled_from(["//", "/*", "*/", "/*/"]))
def test_comment_markers_inside_literals_are_inert(lines, marker):
    quoted = [
        f"{l} s = \"{marker}\"; c = '{marker}';" if l and not l.startswith(("//", "/*")) else l
        for l in lines
    ]
    assert count_nloc("\n".join(quoted) + "\n") == count_nloc("\n".join(lines) + "\n")


def _outcome(count, source):
    try:
        return count(source)
    except DataError as exc:
        return type(exc), str(exc)


# Single characters, plus the pairs that matter to the lexer so that they
# turn up often.
_lexer_text = st.lists(
    st.sampled_from(
        ["/", "*", '"', "'", "\\", "\n", "\r", "\t", " ", "\xa0", "\u2028", "\x1c", "a", ";"]
        + ["//", "/*", "*/", "\\\n", "\\\\"]
    ),
    max_size=40,
).map("".join)


@settings(max_examples=1000)
@given(_lexer_text)
def test_count_nloc_matches_oracle(source):
    assert _outcome(count_nloc, source) == _outcome(oracle_count_nloc, source)


# ---------------------------------------------------------------------------
# strata


def test_strata_partition_design_range():
    for nloc in range(1, MAX_NLOC + 1):
        holders = [s for s in STRATA if s.lower <= nloc <= s.upper]
        assert len(holders) == 1
        assert holders[0].index == stratum_for_nloc(nloc)


@pytest.mark.parametrize(
    "nloc,expected", [(1, 0), (10, 0), (11, 1), (100, 9), (101, 10), (341, 34), (350, 34)]
)
def test_stratum_boundaries(nloc, expected):
    assert stratum_for_nloc(nloc) == expected


def test_stratum_rejects_out_of_range():
    for nloc in (0, -3, 351, 1000):
        with pytest.raises(DataError):
            stratum_for_nloc(nloc)


def test_snippet_invariants_enforced():
    with pytest.raises(DataError, match=r"^nloc 0 outside \[1, 350\]$"):
        CodeSnippet(id="a", source_text="int x;\n", language_tag="cpp", nloc=0, stratum_index=0)
    with pytest.raises(DataError):  # nloc exceeds physical lines
        CodeSnippet(id="a", source_text="int x;\n", language_tag="cpp", nloc=5, stratum_index=0)
    with pytest.raises(DataError):  # stratum inconsistent with nloc
        CodeSnippet(
            id="a", source_text=make_cpp_source(15), language_tag="cpp", nloc=15, stratum_index=0
        )


def test_snippet_id_must_be_non_empty():
    with pytest.raises(DataError, match="snippet id must be non-empty"):
        CodeSnippet(id="", source_text="int x;\n", language_tag="cpp", nloc=1, stratum_index=0)


# Every line boundary `str.splitlines` knows, besides plain text.
_line_text = st.lists(
    st.sampled_from(["x", "xxx", " ", "\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d",
                     "\x1e", "\x85", "\u2028", "\u2029"]),
    max_size=30,
).map("".join)


@settings(max_examples=400, deadline=None)
@given(_line_text, st.integers(min_value=-1, max_value=2))
def test_physical_line_check_equals_the_line_list_check(text, past):
    nloc = max(1, len(text.splitlines()) + past)  # at the boundary the check decides

    def build():
        return CodeSnippet(id="s", source_text=text, language_tag="cpp", nloc=nloc,
                           stratum_index=stratum_for_nloc(nloc))

    if oracle_exceeds_physical_lines(text, nloc):
        message = f"snippet s: nloc {nloc} exceeds {len(text.splitlines())} physical lines"
        with pytest.raises(DataError) as excinfo:
            build()
        assert str(excinfo.value) == message
    else:
        assert build().nloc == nloc


def test_from_source_rejects_beyond_design_range():
    with pytest.raises(DataError):
        snippet_from_source("big", make_cpp_source(351))


# ---------------------------------------------------------------------------
# stratified sampling


def _uniform_corpus(per_stratum: int, strata: int = 35) -> list:
    corpus = []
    for s in range(strata):
        for j in range(per_stratum):
            nloc = 10 * s + 1 + (j % 10)
            corpus.append(make_snippet(f"s{s:02d}-{j:02d}", nloc))
    return corpus


def test_sampling_35x60_yields_1750():
    corpus = _uniform_corpus(60)
    sampled = sample_stratified(corpus, per_stratum=50, seed=11)
    assert len(sampled) == 1750
    per = {}
    for s in sampled:
        per[s.stratum_index] = per.get(s.stratum_index, 0) + 1
    assert per == {i: 50 for i in range(35)}
    assert len({s.id for s in sampled}) == 1750


def test_sampling_deterministic_and_order_insensitive():
    corpus = _uniform_corpus(20, strata=5)
    a = sample_stratified(corpus, per_stratum=7, seed=3)
    b = sample_stratified(corpus, per_stratum=7, seed=3)
    assert [s.id for s in a] == [s.id for s in b]
    c = sample_stratified(list(reversed(corpus)), per_stratum=7, seed=3)
    assert [s.id for s in a] == [s.id for s in c]
    d = sample_stratified(corpus, per_stratum=7, seed=4)
    assert [s.id for s in a] != [s.id for s in d]


def test_sampling_one_per_stratum_returns_corpus():
    corpus = [make_snippet(f"only-{i}", 10 * i + 3) for i in range(35)]
    sampled = sample_stratified(corpus, per_stratum=1, seed=99)
    assert sorted(s.id for s in sampled) == sorted(s.id for s in corpus)


def test_sampling_reports_deficient_strata():
    corpus = [make_snippet("a", 5), make_snippet("b", 6), make_snippet("c", 15)]
    with pytest.raises(DataError, match="^deficient strata: 11-20$"):
        sample_stratified(corpus, per_stratum=2, seed=0)


def test_sampling_needs_at_least_one_per_stratum():
    with pytest.raises(DataError, match=r"^per_stratum must be >= 1$"):
        sample_stratified([make_snippet("a", 5)], 0, 1)


@given(st.integers(min_value=1, max_value=5), st.integers())
def test_sampling_sizes_property(per_stratum, seed):
    corpus = _uniform_corpus(6, strata=4)
    sampled = sample_stratified(corpus, per_stratum=per_stratum, seed=seed)
    assert len(sampled) == 4 * per_stratum
    assert len({s.id for s in sampled}) == len(sampled)


# ---------------------------------------------------------------------------
# dataset files


def test_dataset_round_trip(tmp_path):
    records = make_dataset([5, 42, 350])
    path = tmp_path / "data.jsonl"
    save_dataset(records, path)
    assert load_dataset(path) == records


def test_load_dataset_malformed_line_reports_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "a"}\nnot json\n', encoding="utf-8")
    with pytest.raises(DataError, match="line 1"):
        load_dataset(path)  # first line is valid JSON but missing keys
    good = make_dataset([5])[0]
    save_dataset([good], path)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("{broken\n")
    with pytest.raises(DataError, match="line 2"):
        load_dataset(path)


def test_load_dataset_invariant_violation_names_record(tmp_path):
    path = tmp_path / "invalid.jsonl"
    path.write_text(
        '{"id": "bad-one", "language": "cpp", "code": "int x;\\n", '
        '"nloc": 0, "stratum": 0, "reference_story": "As a u, I want g."}\n',
        encoding="utf-8",
    )
    with pytest.raises(DataError, match="bad-one"):
        load_dataset(path)


def test_reference_story_must_be_non_empty():
    with pytest.raises(DataError):
        DatasetRecord(snippet=make_snippet("s", 3), reference_story="")


def test_load_dataset_rejects_duplicate_ids(tmp_path):
    path = tmp_path / "dupes.jsonl"
    save_dataset(make_dataset([5]) + make_dataset([7]), path)  # same ids twice
    with pytest.raises(DataError, match="duplicate record id"):
        load_dataset(path)


def test_load_dataset_rejects_wrongly_typed_fields(tmp_path):
    path = tmp_path / "typed.jsonl"
    path.write_text(
        '{"id": "mistyped", "language": "cpp", "code": "int x;\\n", '
        '"nloc": "one", "stratum": 0, "reference_story": "As a u, I want g."}\n',
        encoding="utf-8",
    )
    with pytest.raises(DataError, match="mistyped"):
        load_dataset(path)
