"""The compiled record decoders against `oracles.oracle_decode`.

A valid results line, dataset line or cache entry is damaged field by field
(a key dropped, or its value retyped or pushed out of range, in the line or
inside a score triple or a dataset snippet). Each decoder must then build
the same instance as the generic decoder it replaced, or raise the same
exception class with the same message.
"""

from __future__ import annotations

import json
import math

from hypothesis import given, settings, strategies as st

from restory import corpus, gateway, runner
from restory.corpus import CodeSnippet, DatasetRecord, record_to_json
from restory.gateway import CompletionResult

from conftest import make_dataset
from oracles import oracle_decode, oracle_result_from_dict

_RESULT = {
    "snippet_id": "s-1", "nloc": 12, "model_id": "m", "prompt_fingerprint": "f",
    "prompt_label": "zero", "scot": False, "candidate_story": "As a user, I want x.",
    "scores": {
        "greedy-embedding": {"precision": 0.5, "recall": 0.25, "f1": 2 * 0.5 * 0.25 / 0.75},
        "bleu": {"precision": 1, "recall": 1, "f1": 1},
    },
    "band": "divergent", "cost_usd": 0.001, "parse_fallback": False, "multi_story": True,
}
_FAILURE = {"snippet_id": "s-2", "nloc": 7, "failure": "provider rejected request"}
_DATASET_LINE = json.loads(record_to_json(make_dataset([12])[0]))
_CACHE_ENTRY = {
    "text": "As a user, I want x.", "input_tokens": 3, "output_tokens": 4, "latency_ms": 5,
    "cost_usd": 0.25, "cached": False, "retries": 0, "tokens_estimated": False,
}

# Each decoder under test, the oracle it must agree with, and a valid input.
_CASES = {
    "result": (runner._result_from_dict, oracle_result_from_dict, _RESULT),
    "failure": (runner._result_from_dict, oracle_result_from_dict, _FAILURE),
    "dataset": (
        corpus._decode_record,
        lambda obj: oracle_decode(DatasetRecord, obj, snippet=lambda line: oracle_decode(
            CodeSnippet, line, corpus._SNIPPET_KEYS)),
        _DATASET_LINE,
    ),
    "cache": (
        gateway._decode_entry,
        lambda obj: oracle_decode(CompletionResult, obj, cached=gateway._cache_hit_flag),
        _CACHE_ENTRY,
    ),
}

_DROP = object()
# Retyped values, then values out of range for some field.
_VALUES = [True, False, None, "s", "", [1], {"a": 1}, "a\ud800", 2,
           -1, 0, 1.5, -0.5, 351, math.nan, math.inf, 10**6]


def _paths(obj: dict, prefix=()) -> list[tuple]:
    """The path of every value in `obj`, nested objects included."""
    out = []
    for key, value in obj.items():
        out.append(prefix + (key,))
        if isinstance(value, dict):
            out.extend(_paths(value, prefix + (key,)))
    return out


def _damaged(obj: dict, path: tuple, value) -> dict:
    obj = dict(obj)
    if len(path) > 1:
        obj[path[0]] = _damaged(obj[path[0]], path[1:], value)
    elif value is _DROP:
        del obj[path[0]]
    else:
        obj[path[0]] = value
    return obj


def _outcome(decode, obj):
    try:
        return "ok", decode(obj)
    except Exception as exc:  # the class and message are what is compared
        return "error", (type(exc), str(exc))


@st.composite
def _damaged_inputs(draw):
    case = draw(st.sampled_from(sorted(_CASES)))
    decode, oracle, obj = _CASES[case]
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        path = draw(st.sampled_from(_paths(obj)))
        obj = _damaged(obj, path, draw(st.sampled_from([_DROP, *_VALUES])))
    return decode, oracle, obj


@settings(max_examples=300)
@given(_damaged_inputs())
def test_decoders_agree_with_the_generic_decoder(damaged):
    decode, oracle, obj = damaged
    got, want = _outcome(decode, obj), _outcome(oracle, obj)
    assert got[0] == want[0], (obj, got, want)
    if got[0] == "ok":
        assert type(got[1]) is type(want[1]) and vars(got[1]) == vars(want[1])
    else:
        assert got[1] == want[1]


def test_every_valid_input_decodes():
    for decode, oracle, obj in _CASES.values():
        assert decode(obj) == oracle(obj)
