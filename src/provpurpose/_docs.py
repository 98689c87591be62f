"""Readers for input documents and the field shapes they share.

Every loader reads its file with :func:`load`, which parses the JSON with
:func:`load_json` and decodes it, and its fields with the readers below, so
each rule lives in one place. A reader raises :class:`InputFormatError` naming
the field, and :func:`load` puts the file's path in front; none coerces a
value of the wrong shape.
"""

from __future__ import annotations

import json
from enum import Enum
from functools import cache
from typing import Any, Callable, Mapping, Sequence, TypeVar

from .errors import InputFormatError

E = TypeVar("E", bound=Enum)
T = TypeVar("T")


def load_json(path: str) -> Any:
    """Parse a JSON file; any file that is not readable JSON is an input error."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputFormatError(
                f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from exc
        except RecursionError:
            raise InputFormatError(f"{path}: JSON nests too deeply") from None
        except ValueError as exc:  # not UTF-8, or an integer too long to read
            raise InputFormatError(f"{path}: {exc}") from exc


def load(path: str, decode: Callable[[Any], T]) -> T:
    """Decode the JSON file at `path`; every input error names the file once."""
    doc = load_json(path)
    try:
        return decode(doc)
    except InputFormatError as exc:
        raise InputFormatError(f"{path}: {exc}") from exc


def obj(value: Any, what: str) -> Mapping[str, Any]:
    if not isinstance(value, (dict, Mapping)):  # dict first: the ABC check is slower
        raise InputFormatError(f"{what} must be an object")
    return value


def array(value: Any, what: str) -> Sequence[Any]:
    if not isinstance(value, (list, tuple)):
        raise InputFormatError(f"{what} must be an array")
    return value


def entry(value: Any, size: int, what: str) -> Sequence[Any]:
    """An array of exactly `size` items, such as an edge [parent, child]."""
    if len(array(value, what)) != size:
        raise InputFormatError(f"{what} must be an array of {size} items, got {value!r}")
    return value


def names(value: Any, what: str) -> frozenset[str]:
    """An array of strings, as a set; a string is not read as its characters."""
    if not all(isinstance(n, str) for n in array(value, what)):
        raise InputFormatError(f"{what} must be an array of strings")
    return frozenset(value)


def integer(value: Any, what: str) -> int:
    """An integer; JSON's true and false are not 1 and 0."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputFormatError(f"{what} must be an integer")
    return value


def member(enum: type[E], value: Any, what: str) -> E:
    """The member of `enum` whose value is the text of `value`."""
    found = _by_value(enum).get(str(value))
    if found is None:
        raise InputFormatError(f"unknown {what} {value!r}")
    return found


@cache
def _by_value(enum: type[E]) -> dict[str, E]:
    return {m.value: m for m in enum}


def party(doc: Mapping[str, Any], default: str) -> str:
    """The "party" field: a non-empty string, `default` when absent."""
    name = doc.get("party", default)
    if not isinstance(name, str) or not name:
        raise InputFormatError("party name must be a non-empty string")
    return name
