"""The JSON Lines record format shared by every restory data file.

Datasets, results, exemplars, calibration pairs and labels are all read by
`read_jsonl`, so each of their errors names the file and the line in one
format. `decoder(cls)` builds a dataclass from one JSON object and checks
each field against its annotation (the annotations must be strings, as
under `from __future__ import annotations`). `dumps` writes a record back,
and `csv_text` writes a table (`csv_line` one row of it).
"""

from __future__ import annotations

import json
from dataclasses import MISSING, fields
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Sequence, TypeVar

from .errors import DataError

T = TypeVar("T")

# Annotation name -> (accepted types, how an error names it). An int passes
# for a float; a bool never passes for a number, and null never passes.
_KINDS = {
    "str": ((str,), "a string"),
    "int": ((int,), "an int"),
    "float": ((int, float), "a number"),
    "bool": ((bool,), "a bool"),
}


def decoder(cls: type[T], keys: Mapping[str, str] | None = None,
            **build: Callable[[dict], object]) -> Callable[[dict], T]:
    """The function that builds a `cls` instance from one JSON object.

    Each field is read from the key of its name (or `keys[name]`) and must
    have its annotated type; a missing key raises KeyError unless the field
    has a `default`, a wrong type raises TypeError, and a string with no
    UTF-8 form (a lone surrogate, as a `\\ud800` escape gives) raises
    ValueError. A field named in `build` is instead `build[name](obj)`.
    Fields are taken in declaration order, so the first bad one is
    reported. `cls.__post_init__` runs, but not the frozen `__init__`.
    """
    keys = keys or {}
    # (name, key, accepted types, description, default, builder) per field;
    # accepted types are None for an annotation that is not a `_KINDS` name.
    table = tuple((f.name, keys.get(f.name, f.name), *_KINDS.get(f.type, (None, "")),
                   f.default, build.get(f.name)) for f in fields(cls))
    post_init = getattr(cls, "__post_init__", None)

    def decode(obj: dict) -> T:
        record = object.__new__(cls)
        values = record.__dict__
        for name, key, kinds, names, default, make in table:
            if make is not None:
                values[name] = make(obj)
            elif key not in obj:
                if default is MISSING:
                    raise KeyError(key)
                values[name] = default
            else:
                value = values[name] = obj[key]
                # Parsed JSON holds exact classes: a bool is never an int here.
                if kinds is not None and value.__class__ not in kinds:
                    raise TypeError(f"{key} {value!r} is not {names}")
                if value.__class__ is str and not value.isascii():
                    try:
                        value.encode("utf-8")
                    except UnicodeEncodeError as exc:
                        raise ValueError(f"{key} has no UTF-8 form: a lone surrogate "
                                         f"at index {exc.start}") from None
        if post_init is not None:
            post_init(record)
        return record

    return decode


def read_jsonl(path, build: Callable[[dict], T]) -> Iterator[tuple[int, T]]:
    """`(lineno, build(obj))` for each non-blank line of the file at `path`.

    A line that is not UTF-8 or not a JSON object raises DataError, and so
    does a KeyError, TypeError, ValueError, AttributeError or DataError
    from `build`; each message names the file and the line.
    """
    with open(path, "rb") as fh:
        # Split as the text reader splits ("\n", "\r\n" or "\r"; a chunk with no
        # "\r" is one line), decoding each line when reached: faults in file order.
        lines = (raw for chunk in fh
                 for raw in (chunk.splitlines() if b"\r" in chunk else (chunk.rstrip(b"\n"),)))
        for lineno, raw in enumerate(lines, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise DataError(f"{path}: line {lineno} is not UTF-8: {exc}") from exc
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"{path}: malformed JSON on line {lineno}: {exc}") from exc
            if not isinstance(obj, dict):
                raise DataError(f"{path}: line {lineno} is not an object")
            try:
                record = build(obj)
            except KeyError as exc:
                raise DataError(f"{path}: line {lineno} missing key {exc}") from exc
            except (TypeError, ValueError, AttributeError, DataError) as exc:
                raise DataError(f"{path}: bad record on line {lineno}: {exc}") from exc
            yield lineno, record


def read_unique_jsonl(path, build: Callable[[dict], T], key: Callable[[T], Hashable],
                      what: str) -> list[T]:
    """`build(obj)` for each line, as `read_jsonl` reads them; a row whose
    `key` an earlier row has raises DataError naming the file, id and line."""
    rows: list[T] = []
    seen: set = set()
    for lineno, row in read_jsonl(path, build):
        if (k := key(row)) in seen:
            raise DataError(f"{path}: duplicate {what} id {k!r} on line {lineno}")
        seen.add(k)
        rows.append(row)
    return rows


# What `json.dumps(obj, sort_keys=True, ensure_ascii=False)` builds per call.
_ENCODER = json.JSONEncoder(sort_keys=True, ensure_ascii=False)


def dumps(obj: dict) -> str:
    """One JSON line: keys sorted, non-ASCII text kept as is."""
    return _ENCODER.encode(obj)


def csv_text(header: Sequence, rows: Iterable[Sequence]) -> str:
    """The CSV lines of `header` and each row: a bool cell reads `true` or
    `false`, a float has two decimals, None is empty and anything else is its
    `str`, quoted as RFC 4180 does when it holds a comma, a quote, CR or LF.
    It does not use the `csv` module, which no command loads."""
    return "".join(map(csv_line, (header, *rows)))


def csv_line(row: Sequence) -> str:
    """One CSV line of `row`, its cells written as `csv_text` writes them."""
    return ",".join(map(_csv_cell, row)) + "\n"


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.2f}"
    text = str(value)
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text
