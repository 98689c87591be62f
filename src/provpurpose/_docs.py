"""Readers for input documents and the field shapes they share.

Every loader reads its file with :func:`load`, which parses the JSON with
:func:`load_json` and decodes it. A loader reads only the document's shape:
its objects, arrays, keys, defaults and JSON attribute values. It hands each
field as it is to the constructor of the object it builds, and the
constructor reads the field with the readers below. So each rule lives in one
place, and an object built in Python is read as its document would be. A
reader raises :class:`InputFormatError` naming the field, and :func:`load`
puts the file's path in front of that and of any other error decoding raises.
No reader coerces a value of the wrong shape, not even a scalar: :func:`text`
refuses null, true/false, arrays and objects.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterator
from enum import Enum
from functools import cache, partial
from typing import Any, Callable, Mapping, NoReturn, Sequence, TypeVar

from .errors import InputFormatError, ProvPurposeError

E = TypeVar("E", bound=Enum)
T = TypeVar("T")


def load_json(path: str) -> Any:
    """Parse a JSON file; any file that is not readable standard JSON is an input error.

    Python's reader also takes ``NaN``, ``Infinity`` and ``-Infinity``, which
    no JSON standard allows, and reads a number too large for a float, such
    as ``1e400``, as infinity; all of these are refused, not read as numbers.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh, parse_constant=partial(_refuse_constant, path), parse_float=partial(_finite, path))
        except json.JSONDecodeError as exc:
            raise InputFormatError(
                f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from exc
        except RecursionError:
            raise InputFormatError(f"{path}: JSON nests too deeply") from None
        except ValueError as exc:  # not UTF-8, or an integer too long to read
            raise InputFormatError(f"{path}: {exc}") from exc


def _refuse_constant(path: str, name: str) -> NoReturn:
    raise InputFormatError(f"{path}: {name} is not a JSON number")


def _finite(path: str, literal: str) -> float:
    if math.isfinite(value := float(literal)):
        return value
    raise InputFormatError(f"{path}: {literal} is too large to read as a number")


def load(path: str, decode: Callable[[Any], T]) -> T:
    """Decode the JSON file at `path`; every error decoding raises names the file once.

    The error keeps its class and fields; only its message gains the path.
    """
    doc = load_json(path)
    try:
        return decode(doc)
    except ProvPurposeError as exc:
        exc.args = (f"{path}: {exc.args[0]}", *exc.args[1:])
        raise


def obj(value: Any, what: str) -> Mapping[str, Any]:
    if not isinstance(value, (dict, Mapping)):  # dict first: the ABC check is slower
        raise InputFormatError(f"{what} must be an object")
    return value


def array(value: Any, what: str) -> Sequence[Any]:
    if not isinstance(value, (list, tuple)):
        raise InputFormatError(f"{what} must be an array")
    return value


def items(value: Any, kind: type | tuple[type, ...], what: str, noun: str) -> tuple[Any, ...]:
    """An array of `kind` objects, as a tuple; a tuple is kept as it is, not copied."""
    found = value if type(value) is tuple else tuple(array(value, what))
    for item in found:  # a loop: most arrays are short, and all() costs a generator per call
        if not isinstance(item, kind):
            raise InputFormatError(f"{what} {found!r} are not all {noun}")
    return found


def entry(value: Any, size: int, what: str) -> Sequence[Any]:
    """An array of exactly `size` items, such as an edge [parent, child]."""
    if len(array(value, what)) != size:
        raise InputFormatError(f"{what} must be an array of {size} items, got {value!r}")
    return value


def text(value: Any, what: str) -> str:
    """A scalar field: a string as it is, a number as its text ("id": 7 reads as "7")."""
    if type(value) is str:
        return value
    if isinstance(value, (str, int, float)) and not isinstance(value, bool):
        return str(value)
    raise InputFormatError(f"{what} must be a string or a number, got {value!r}")


def names(value: Any, what: str) -> frozenset[str]:
    """An array of strings, or a list, tuple, set, frozenset or one-shot iterator of them, as a set.

    A string is not read as its characters, nor a mapping as its keys.
    """
    value = tuple(value) if isinstance(value, Iterator) else value  # one-shot: read once
    if not isinstance(value, (list, tuple, set, frozenset)):
        raise InputFormatError(f"{what} must be an array")
    try:
        "".join(value)  # refuses any member that is not a string, at C speed: a decoded set may hold thousands
    except TypeError:
        raise InputFormatError(f"{what} must be an array of strings") from None
    return frozenset(value)  # a frozenset is returned as it is


def integer(value: Any, what: str) -> int:
    """An integer; JSON's true and false are not 1 and 0."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputFormatError(f"{what} must be an integer")
    return value


def member(enum: type[E], value: Any, what: str) -> E:
    """The member of `enum` whose value is the text of `value`, or `value` if it is that member."""
    found = _by_value(enum).get(value) if isinstance(value, str) else None
    if found is None:
        raise InputFormatError(f"unknown {what} {value!r}")
    return found


@cache
def _by_value(enum: type[E]) -> dict[str, E]:
    return {m.value: m for m in enum}


def party(name: Any) -> str:
    """A party name: a non-empty string."""
    if not isinstance(name, str) or not name:
        raise InputFormatError("party name must be a non-empty string")
    return name
