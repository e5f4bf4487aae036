"""Exception types shared across the package, one per way a caller handles
it: bad input (ValidationError, exit 1), a working set over the hard memory
cap (MemoryBudgetExceeded, one failed query) and results that diverge across
modes (ResultMismatchError, exit 2).  Also the one JSON form of its
documents: each is a dataclass, written as json_text.  A thresholds file is
the one document read back, by load_json, which parses it with parse_json
and checks it against the dataclass's fields with json_fields; a
config.json is a record of its run and is not read back.
Every file the package writes goes through write_file, and every CSV
through csv_text."""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
import typing
from pathlib import Path

T = typing.TypeVar("T")
_type_hints = functools.cache(typing.get_type_hints)  # a dataclass's, resolved once


class ValidationError(ValueError):
    """Invalid input: a spec, argument, file or mode."""


class MemoryBudgetExceeded(RuntimeError):
    """Working set outgrew the memory budget with no spill path."""


class ResultMismatchError(RuntimeError):
    """The same query produced different results under different modes or
    variants; late binding soundness is broken."""


def json_fields(cls: type, doc: object, what: str) -> dict[str, object]:
    """The fields of dataclass `cls` (Thresholds, the one document read
    back, every field of which has a default) that the JSON object `doc`
    sets, each held as its type hint holds it: an object becomes a dict,
    and an integer that a float reaches passes for a float.  A document
    that is no object, unknown keys and a value of another type are
    rejected; `what` names the document in the message."""
    if not isinstance(doc, dict):
        raise ValidationError(f"a {what} document must be a JSON object, not {doc!r}")
    hints = _type_hints(cls)
    unknown = set(doc) - set(hints)
    if unknown:
        raise ValidationError(f"unknown {what} keys: {sorted(unknown)}")

    def held(name: str, value: object, hint: object) -> object:
        if typing.get_origin(hint) is dict and isinstance(value, dict):  # dict[str, T]
            return {key: held(name, item, typing.get_args(hint)[1])
                    for key, item in value.items()}
        if type(value) is hint or (hint is float and type(value) is int
                                   and abs(value) <= sys.float_info.max):
            return value
        raise ValidationError(f"{what} key {name!r} takes "
                              f"{cls.__dataclass_fields__[name].type}, not {value!r}")

    return {name: held(name, value, hints[name]) for name, value in doc.items()}


def json_text(obj: object, **extra: object) -> str:
    """Dataclass `obj`, and the `extra` keys beside its fields, as a JSON
    object: indented by 2, keys sorted, a newline at the end."""
    return json.dumps({**dataclasses.asdict(obj), **extra}, indent=2, sort_keys=True) + "\n"


def _cell(value: object) -> str:
    return repr(value) if isinstance(value, float) else "" if value is None else str(value)


def csv_text(header: str, rows: typing.Iterable[typing.Iterable[object]]) -> str:
    """The CSV of `header` (its comma-joined names) and `rows`, one line
    each: a float cell as its repr, None as empty, any other cell by str."""
    return "".join([header, "\n", *(",".join(map(_cell, row)) + "\n" for row in rows)])


def write_file(path: Path, text: str) -> None:
    """Write `text` to `path` as UTF-8 with \\n line ends, making its parent
    directories first."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8", newline="\n")


def parse_json(fh: typing.IO[str]) -> object:
    """The JSON document in `fh`.  Text that is no JSON, bytes that are no
    UTF-8 and an integer of more digits than int() takes
    (sys.get_int_max_str_digits()) are each a ValidationError, whose message
    starts with the path `fh` was opened from, if it was opened from one."""
    try:
        return json.load(fh)
    except ValueError as exc:
        path = getattr(fh, "name", None)
        raise ValidationError(f"{path}: {exc}" if isinstance(path, str) else str(exc)) from None


def load_json(cls: type[T], fh: typing.IO[str], what: str) -> T:
    """The `cls` that the JSON document in `fh` sets, checked by json_fields."""
    return cls(**json_fields(cls, parse_json(fh), what))
