"""One check of parsed JSON values against declared kinds.

Every reader of a JSON input passes the parsed value through ``check``,
the only place that decides what a JSON integer, number or boolean is.
A kind is ``int`` (a JSON integer, not a boolean, within the float
range), ``float`` (a finite JSON number, not a boolean), ``bool``,
``str``, a tuple of allowed strings, ``X | None``, ``tuple[T, ...]``,
``tuple[T1, T2]``, ``dict[str, T]``, an ``Object``, a dataclass (see
``build``), an ``Array`` or a ``Stack``.
"""

from __future__ import annotations

import dataclasses
import math
import sys
import types
import typing
from functools import cached_property
from itertools import chain

import numpy as np

from .errors import ConfigError

_MAX = sys.float_info.max
_NUMBER = frozenset({int, float})
_NAMES = {int: "an integer within the float range", float: "a finite number", bool: "true or false",
          str: "a string"}


@dataclasses.dataclass(frozen=True)
class Object:
    """A JSON object with every key of ``required``, any of ``optional``
    and no other; each maps to its value's kind."""

    required: dict
    optional: dict = dataclasses.field(default_factory=dict)

    @cached_property
    def kinds(self) -> dict:
        return self.required | self.optional


@dataclasses.dataclass(frozen=True)
class Array:
    """Nested lists of finite numbers of ``shape`` (``None``: any
    length), returned as one float64 array."""

    shape: tuple


@dataclasses.dataclass(frozen=True)
class Stack:
    """A list of ``row`` objects, returned as one column per key: the
    values of a required ``Array`` key (of a fixed shape) as one float64
    array, any other key's as a list, None where an optional key is
    missing."""

    row: Object


def _path(where) -> str:
    """Key paths pass down as (parent, key) pairs, formatted only when a
    fault names one."""
    if type(where) is str:
        return where
    parent, key = _path(where[0]), where[1]
    return f"{parent}[{key}]" if type(key) is int else f"{parent}.{key}" if parent else key


def _fault(where, kind) -> ConfigError:
    if isinstance(kind, Array):
        dims = " × ".join("n" if n is None else str(n) for n in kind.shape)
        what = f"{dims} finite numbers" if dims else "a finite number"
    elif isinstance(kind, tuple):
        what = "one of " + ", ".join(map(repr, kind))
    elif isinstance(kind, Stack) or typing.get_origin(kind) is tuple:
        args = typing.get_args(kind)
        what = f"a list of {len(args)} items" if args and args[-1] is not Ellipsis else "a list"
    else:
        what = _NAMES.get(kind, "a JSON object") if isinstance(kind, type) else "a JSON object"
    return ConfigError(f"{_path(where) or 'the root'} must be {what}")


def check(value, kind, where=""):
    """``value`` if it is a JSON value of ``kind``, with lists as tuples,
    arrays and stacks as float64 arrays, objects as dicts and
    dataclasses built; anything else raises a fault naming ``where``,
    the value's key path."""
    if kind is int or kind is float:
        ok = (type(value) is int or type(value) is kind) and -_MAX <= value <= _MAX
    elif kind is bool or kind is str:
        ok = type(value) is kind
    elif isinstance(kind, tuple):
        ok = type(value) is str and value in kind
    elif type(kind) in _CHECKS:
        return _CHECKS[type(kind)](value, kind, where)
    elif dataclasses.is_dataclass(kind):
        return build(kind, value, where)
    else:
        origin, args = typing.get_origin(kind), typing.get_args(kind)
        if origin is dict and type(value) is dict:
            return {k: check(v, args[1], (where, k)) for k, v in value.items()}
        if origin is tuple and type(value) is list and (args[-1] is Ellipsis or len(value) == len(args)):
            kinds = args[:1] * len(value) if args[-1] is Ellipsis else args
            return tuple(check(v, k, (where, i)) for i, (v, k) in enumerate(zip(value, kinds)))
        ok = False
    if not ok:
        raise _fault(where, kind)
    return value


def _object(value, kind: Object, where) -> dict:
    if type(value) is not dict:
        raise _fault(where, kind)
    kinds = kind.kinds
    if not kind.required.keys() <= value.keys() <= kinds.keys():
        # An unknown key first: it may be a misspelt required one.
        unknown = [key for key in value if key not in kinds]
        if unknown:
            raise ConfigError(f"unknown key {_path((where, unknown[0]))}")
        missing = next(key for key in kind.required if key not in value)
        raise ConfigError(f"missing key '{_path((where, missing))}'")
    return {key: check(v, kinds[key], (where, key)) for key, v in value.items()}


def _numbers(value, kind: Array, where) -> np.ndarray:
    # Each level's items must share one length, that of the shape, and
    # the last level must hold finite numbers.  A string or object where
    # a list is due flattens to strings, which fail the last test.
    level, dims = [value], []
    try:
        for n in kind.shape:
            (size,) = set(map(len, level)) or {n or 0}  # ValueError: ragged
            if n not in (None, size):
                raise ValueError
            dims.append(size)
            level = [*chain.from_iterable(level)]
        if not (_NUMBER.issuperset(map(type, level)) and all(map(math.isfinite, level))):
            raise ValueError
    except (TypeError, ValueError, OverflowError):  # no length, ragged, past the float range
        raise _fault(where, kind) from None
    return np.array(level, dtype=float).reshape(dims)


def _stack(value, kind: Stack, where) -> dict:
    # The whole stack at once; if that fails, row by row, so that the
    # first faulty row raises.
    required, kinds = kind.row.required.keys(), kind.row.kinds
    if type(value) is list and all(type(r) is dict and required <= r.keys() <= kinds.keys() for r in value):
        try:
            return {
                k: _numbers([r[k] for r in value], Array((len(value), *kd.shape)), where)
                if type(kd) is Array
                else [check(r[k], kd, where) if k in r else None for r in value]
                for k, kd in kinds.items()
            }
        except ConfigError:
            pass
    check(value, tuple[kind.row, ...], where)
    raise _fault(where, kind)  # not reached: a list of good rows stacks


def _optional(value, kind: types.UnionType, where):  # X | None
    return None if value is None else check(value, kind.__args__[0], where)


_CHECKS = {Object: _object, Array: _numbers, Stack: _stack, types.UnionType: _optional}


def build(cls, data, where=""):
    """``cls`` built from the JSON object ``data`` at key path ``where``
    ("" for the root of a config): each field without a default is
    required, each value checked against the field's type hint.  A value
    that ``cls`` rejects raises ConfigError "bad value under <where>"."""
    hints, fields = typing.get_type_hints(cls), dataclasses.fields(cls)
    missing = dataclasses.MISSING
    required = {f.name for f in fields if f.default is missing and f.default_factory is missing}
    optional = {f.name: hints[f.name] for f in fields if f.name not in required}
    values = _object(data, Object({k: hints[k] for k in required}, optional), where)
    try:
        return cls(**values)
    except ConfigError as exc:
        bad = f"bad value under {_path(where)}" if where else "bad value at the config root"
        raise ConfigError(f"{bad}: {exc}") from exc
