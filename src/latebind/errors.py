"""Exception types shared across the package, and the one JSON form of its
documents: each is a dataclass, written by dump_json and read back by
load_json, whose json_fields checks it against the dataclass's fields."""

from __future__ import annotations

import dataclasses
import functools
import json
import re
import sys
import typing

T = typing.TypeVar("T")
_type_hints = functools.cache(typing.get_type_hints)  # a dataclass's, resolved once


class ValidationError(ValueError):
    """Invalid spec, config, or argument values."""


class ConfigurationError(ValueError):
    """Runtime configuration unusable (e.g. uncalibrated thresholds)."""


class NoBreakEvenError(RuntimeError):
    """Device cost lines never cross: offloading can never amortize."""


class MemoryBudgetExceeded(RuntimeError):
    """Working set outgrew the memory budget with no spill path."""


class ResultMismatchError(RuntimeError):
    """The same query produced different results under different modes or
    variants; late binding soundness is broken."""


def json_fields(cls: type, doc: object, what: str) -> dict[str, object]:
    """The fields of dataclass `cls` that the JSON object `doc` sets, each
    held as its type hint holds it: a JSON list becomes a tuple, an object
    a dict or a nested dataclass, and an integer that a float reaches passes
    for a float.  A document that is no object, unknown or missing keys, and
    a value of another type are rejected; `what` names the document in the
    message."""
    if not isinstance(doc, dict):
        raise ValidationError(f"a {what} document must be a JSON object, not {doc!r}")
    hints = _type_hints(cls)
    unknown = set(doc) - set(hints)
    if unknown:
        raise ValidationError(f"unknown {what} keys: {sorted(unknown)}")
    missing = [f.name for f in dataclasses.fields(cls) if f.name not in doc
               and f.default is dataclasses.MISSING
               and f.default_factory is dataclasses.MISSING]
    if missing:
        raise ValidationError(f"{what} lacks keys {missing}")

    def held(name: str, value: object, hint: object) -> object:
        args = typing.get_args(hint)
        if type(None) in args:  # Optional[T]
            return None if value is None else held(name, value, args[0])
        origin = typing.get_origin(hint)
        if origin is tuple and isinstance(value, list):  # tuple[T, ...]
            return tuple(held(name, item, args[0]) for item in value)
        if origin is dict and isinstance(value, dict):  # dict[str, T]
            return {key: held(name, item, args[1]) for key, item in value.items()}
        if dataclasses.is_dataclass(hint):
            # ColumnSpec -> "column spec"
            return hint(**json_fields(hint, value, re.sub(
                r"(?<!^)(?=[A-Z])", " ", hint.__name__).lower()))
        if type(value) is hint or (hint is float and type(value) is int
                                   and abs(value) <= sys.float_info.max):
            return value
        raise ValidationError(f"{what} key {name!r} takes "
                              f"{cls.__dataclass_fields__[name].type}, not {value!r}")

    return {name: held(name, value, hints[name]) for name, value in doc.items()}


def dump_json(obj: object, out: typing.IO[str], **extra: object) -> None:
    """Write dataclass `obj`, and the `extra` keys beside its fields, as a
    JSON object: indented by 2, keys sorted, a newline at the end."""
    json.dump({**dataclasses.asdict(obj), **extra}, out, indent=2, sort_keys=True)
    out.write("\n")


def load_json(cls: type[T], fh: typing.IO[str], what: str) -> T:
    """The `cls` that the JSON document in `fh` sets, checked by json_fields."""
    return cls(**json_fields(cls, json.load(fh), what))
