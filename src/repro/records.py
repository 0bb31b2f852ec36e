"""A dataclass's field declarations are its wire format.

Every JSON surface of :mod:`repro` — fault and chaos scenarios, sweep
specs and jobs, telemetry knobs, the option records — is a dataclass,
and a dataclass already states each field's name, type and default.
This module reads those declarations instead of having every surface
re-type them:

* :func:`load` builds a record from plain JSON data,
* :func:`dump` is its inverse,
* :func:`conform` holds a *directly constructed* record to the same
  declarations (call it first thing in ``__post_init__``),
* :func:`checker` is the check behind one annotation, for a value that
  configures a field without being stored in it (a sweep axis value),
* :func:`defaults` reads the declared defaults, for a surface that
  offers them under other names (a CLI flag, a NoC knob),
* :func:`parse_json` and :func:`load_file` are the one JSON-text and
  the one JSON-file reader.

A refusal raises the caller's error class with the field path in the
message — ``pe_failures[0].processor must be an integer, got 'a'`` —
which is why this module imports nothing from :mod:`repro`.

The checks are strict about JSON types: ``true`` is not a number, a
string is neither a number nor a list, ``2.7`` is not an integer and
``NaN``/``Infinity`` are not numbers.  Otherwise they coerce exactly as
``int()``/``float()``/``tuple()`` would — ``8`` loads as ``8.0`` into a
``float`` field, ``2.0`` as ``2`` into an ``int`` field, a list as a
tuple — so a valid input keeps its canonical JSON.

A single-field bound is declared with the type it bounds —
``Annotated[float, PROBABILITY]`` — and checked after it, on every path
that checks the type: ``transient.probability must be in [0, 1], got
2.0``.  Only rules that relate fields (a processor listed twice) stay in
``__post_init__``.

Understood annotations: ``int``, ``float``, ``bool``, ``str``, ``Any``,
``Literal[...]``, ``X | None``, ``tuple[X, ...]``, ``tuple[X, Y]``,
``Mapping[K, V]``, ``Annotated[X, domain]`` and dataclasses.  Anything
else is a ``TypeError`` the first time the class is checked, never a
field that silently goes unchecked.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
import types
import typing
from collections.abc import Mapping
from typing import Any, Callable, NamedTuple

__all__ = ["checker", "load", "dump", "conform", "defaults", "parse_json",
           "load_file", "Domain", "NON_NEGATIVE", "POSITIVE", "PROBABILITY"]

#: ``check(value, path, error)``: the conforming value, or ``error``
#: raised with ``path`` in its message.
Check = Callable[[Any, str, type], Any]


class Domain(NamedTuple):
    """The values a field may hold beyond its type: ``holds(value)`` on
    the already-typed value, and the ``phrase`` a refusal quotes."""

    phrase: str
    holds: Callable[[Any], bool]


NON_NEGATIVE = Domain("non-negative", lambda v: v >= 0)
POSITIVE = Domain("positive", lambda v: v > 0)
PROBABILITY = Domain("in [0, 1]", lambda v: 0 <= v <= 1)


def _scalar(expects: str, accepts: Callable[[Any], bool],
            convert: Callable[[Any], Any] | None = None) -> Check:
    def check(value: Any, path: str, error: type) -> Any:
        if not accepts(value):
            raise error(f"{path} must be {expects}, got {value!r}")
        return convert(value) if convert else value

    return check


def _is_number(value: Any) -> bool:
    # Not bool (an int subclass), and finite: NaN fails the comparison,
    # an integer literal past the float range would overflow float().
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


_SCALARS: dict[Any, Check] = {
    int: _scalar("an integer", lambda v: type(v) is int or (
        _is_number(v) and float(v).is_integer()), int),
    float: _scalar("a number", _is_number, float),
    bool: _scalar("true or false", lambda v: isinstance(v, bool)),
    str: _scalar("a string", lambda v: isinstance(v, str)),
    Any: _scalar("any value", lambda v: True),
}


@functools.cache
def checker(annotation: Any) -> Check:
    """The check one annotation stands for, built once."""
    if annotation in _SCALARS:
        return _SCALARS[annotation]
    if dataclasses.is_dataclass(annotation):
        return _record(annotation)
    origin, args = typing.get_origin(annotation), typing.get_args(annotation)
    if origin is typing.Annotated:
        return _bounded(checker(args[0]), args[1])
    if origin is typing.Literal:
        kinds = {type(a) for a in args}  # True is not the literal 1
        return _scalar(f"one of {list(args)}",
                       lambda v: type(v) in kinds and v in args)
    if origin in (typing.Union, types.UnionType):  # X | None, nothing wider
        inner = checker(*(a for a in args if a is not type(None)))
        return lambda value, path, error: (
            None if value is None else inner(value, path, error))
    if origin is tuple:
        return _sequence(args[-1] is not Ellipsis,
                         [checker(a) for a in args if a is not Ellipsis])
    if origin is Mapping:
        return _mapping(*map(checker, args))
    raise TypeError(f"no record check for annotation {annotation!r}")


def _bounded(inner: Check, domain: Domain) -> Check:
    def check(value: Any, path: str, error: type) -> Any:
        value = inner(value, path, error)
        if not domain.holds(value):
            raise error(f"{path} must be {domain.phrase}, got {value!r}")
        return value

    return check


def _sequence(fixed: bool, items: list[Check]) -> Check:
    """``tuple[X, Y]`` (``fixed``) or ``tuple[X, ...]``, from a list."""
    expects = f"a list of {len(items)} items" if fixed else "a list"

    def check(value: Any, path: str, error: type) -> tuple:
        if (not isinstance(value, (list, tuple))
                or fixed and len(value) != len(items)):
            raise error(f"{path} must be {expects}, got {value!r}")
        return tuple(items[i % len(items)](item, f"{path}[{i}]", error)
                     for i, item in enumerate(value))

    return check


def _mapping(key: Check, item: Check) -> Check:
    def check(value: Any, path: str, error: type) -> dict:
        if not isinstance(value, Mapping):
            raise error(f"{path} must be a JSON object, got {value!r}")
        return {key(k, f"{path} key", error): item(v, f"{path}.{k}", error)
                for k, v in value.items()}

    return check


@functools.cache
def _plan(cls: type) -> dict[str, tuple[Check, bool]]:
    """``name → (check, required)`` per field, read off ``cls`` once."""
    hints = typing.get_type_hints(cls, include_extras=True)
    return {
        f.name: (checker(hints[f.name]),
                 f.default is f.default_factory is dataclasses.MISSING)
        for f in dataclasses.fields(cls)
    }


def _record(cls: type) -> Check:
    def check(value: Any, where: str, error: type,
              prefix: str | None = None) -> Any:
        if isinstance(value, cls):
            return value
        if not isinstance(value, Mapping):
            raise error(f"{where} must be a JSON object, got {value!r}")
        plan = _plan(cls)
        unknown = value.keys() - plan.keys()
        if unknown:
            raise error(f"unknown {where} keys: {sorted(unknown, key=str)} "
                        f"(known: {sorted(plan)})")
        prefix = f"{where}." if prefix is None else prefix
        missing = [prefix + name for name, (_, required) in plan.items()
                   if required and name not in value]
        if missing:
            raise error(f"{where} needs {missing}")
        return cls(**{name: plan[name][0](item, prefix + name, error)
                      for name, item in value.items()})

    return check


def load(cls: type, data: Any, *, error: type, where: str) -> Any:
    """``cls`` built from plain JSON ``data``.

    ``where`` names the object in refusals about it as a whole
    (``unknown fault spec keys: [...]``); field paths are relative to it
    (``transient.probability``, ``pe_failures[0].time_s``).
    """
    return checker(cls)(data, where, error, "")


def dump(record: Any) -> Any:
    """Plain JSON data :func:`load` rebuilds ``record`` from: fields in
    declared order, nested records as objects, tuples as lists."""
    if isinstance(record, tuple):
        return [dump(item) for item in record]
    # Most values are scalars, and that is the cheaper test.
    if type(record) in _SCALARS or not dataclasses.is_dataclass(record):
        return record
    return {name: dump(getattr(record, name)) for name in _plan(type(record))}


def defaults(cls: type) -> dict[str, Any]:
    """``name → default`` for every field of ``cls`` declared with one."""
    return {f.name: f.default for f in dataclasses.fields(cls)
            if f.default is not dataclasses.MISSING}


def conform(record: Any, *, error: type, where: str) -> None:
    """Check (and coerce in place) every field of a constructed record;
    ``where`` prefixes the field paths (``worker`` →
    ``worker.crash_probability``) and may be empty."""
    prefix = f"{where}." if where else ""
    for name, (check, _) in _plan(type(record)).items():
        held = getattr(record, name)
        value = check(held, prefix + name, error)
        if value is not held:
            object.__setattr__(record, name, value)


def parse_json(text: str | bytes, *, error: type, what: str) -> Any:
    """The JSON document ``text`` spells."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise error(f"{what} is not JSON: {exc}") from None


def load_file(path: str, build: Callable[[Any], Any], *, error: type,
              what: str) -> Any:
    """``build(document)`` for the JSON file at ``path``, every refusal
    prefixed with the file it is about."""
    try:
        with open(path, "rb") as fh:
            return build(parse_json(fh.read(), error=error, what=what))
    except error as exc:
        raise error(f"{path}: {exc}") from None
