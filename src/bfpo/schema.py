"""One schema for the documents read back: each field's type and rule.

Every config block (population, dataset, train, estimator) and every
checkpoint is read through :func:`from_doc`, which takes each field's type
from the dataclass itself, so no module keeps its own list of fields or casts;
top-level config values go through :func:`cast`, the same rules for one value,
and :func:`check_keys` is the one missing- and unknown-key check.  A field's
range or choice set is declared once, with the field (:func:`declared`): an
:class:`Interval`, a :class:`OneOf` or :data:`NON_EMPTY`, whose ``str`` states
it as the error messages and the README do.  Each config's ``__post_init__``
calls :func:`check`, and a library function holds its arguments to the same
rules with :func:`check_args`.
"""

from __future__ import annotations

import math
import numbers
import types
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from enum import Enum
from functools import cache
from itertools import chain
from typing import Any, Collection, Mapping, Union, get_args, get_origin, get_type_hints

import numpy as np

__all__ = ["Interval", "NON_EMPTY", "OneOf", "cast", "check", "check_args", "check_keys",
           "declared", "from_doc", "require", "rules"]

_RULE = "rule"  # the field metadata key of a declared rule


@dataclass(frozen=True)
class Interval:
    """Numbers from ``lo`` to ``hi`` (None: no upper end), each end closed or
    open as ``ends`` says (``"(]"``: lo < v <= hi); a float must be finite,
    and an ``integer`` interval takes only integers, not a bool."""

    lo: float
    hi: float | None = None
    ends: str = "[]"
    integer: bool = False

    def admits(self, value: Any) -> bool:
        if self.integer and (isinstance(value, bool) or not isinstance(value, numbers.Integral)):
            return False
        if isinstance(value, float) and not math.isfinite(value):
            return False
        if not (value >= self.lo if self.ends[0] == "[" else value > self.lo):
            return False
        return self.hi is None or (value <= self.hi if self.ends[1] == "]" else value < self.hi)

    def __str__(self) -> str:
        if self.hi is None:
            op = ">=" if self.ends[0] == "[" else ">"
            return f"must be {'an integer ' * self.integer}{op} {self.lo}"
        return f"must lie in {self.ends[0]}{self.lo}, {self.hi}{self.ends[1]}"


class OneOf(tuple):
    """One of the choices this tuple holds."""

    def admits(self, value: Any) -> bool:
        return value in self

    def __str__(self) -> str:
        return f"must be one of {tuple(self)}"


class _NonEmpty:
    def admits(self, value: Any) -> bool:
        return isinstance(value, (list, tuple)) and len(value) > 0

    def __str__(self) -> str:
        return "must be non-empty"


NON_EMPTY = _NonEmpty()  # a list or tuple of at least one item
Rule = Union[Interval, OneOf, _NonEmpty]


def declared(rule: Rule, default: Any = MISSING) -> Any:
    """A dataclass field that :func:`check` holds to ``rule``."""
    return field(default=default, metadata={_RULE: rule})


@cache
def rules(cls: type) -> Mapping[str, tuple[Rule, tuple[type, ...]]]:
    """Each declared field of the dataclass ``cls``, in field order, resolved
    once per class (read-only, as every caller shares it): its rule, and the
    types whose values skip it, None and str where the field's union type
    admits them (an unset ``batch_size_aux``, alpha's ``"estimate"``)."""
    table = {}
    for f, (_, tp) in zip(fields(cls), _field_types(cls)):
        if _RULE in f.metadata:
            union = get_origin(tp) in (Union, types.UnionType)
            passes = tuple(a for a in get_args(tp) if union and a in (type(None), str))
            table[f.name] = (f.metadata[_RULE], passes)
    return types.MappingProxyType(table)


def require(rule: Rule, name: str, value: Any, error: type[Exception]) -> None:
    """Raise ``error`` naming ``name``, ``value`` and ``rule`` unless ``rule``
    admits ``value``."""
    if not rule.admits(value):
        raise error(f"{name} {rule}, got {repr(value) if isinstance(value, str) else value}")


def check_args(cls: type, error: type[Exception], **values: Any) -> None:
    """Hold each of ``values`` to the rule of the ``cls`` field of its name."""
    for name, value in values.items():
        require(rules(cls)[name][0], name, value, error)


def check(instance: Any, error: type[Exception]) -> None:
    """Hold each declared field of the dataclass ``instance`` to its rule, in
    field order."""
    for name, (rule, passes) in rules(type(instance)).items():
        value = getattr(instance, name)
        if not isinstance(value, passes):
            require(rule, name, value, error)


def check_keys(doc: Mapping, required: Collection[str],
               allowed: Collection[str] | None = None) -> None:
    """Raise ``ValueError`` if ``doc`` has a key outside ``allowed`` (None:
    any other key is ignored) or lacks one of ``required``."""
    unknown = set() if allowed is None else set(doc) - set(allowed)
    for fault, keys in (("unknown", unknown), ("missing", set(required) - set(doc))):
        if keys:
            raise ValueError(f"{fault} keys {sorted(keys)}")


def from_doc(cls: type, doc: dict) -> Any:
    """``cls(**kwargs)`` from the fields of ``cls`` present in ``doc``, each cast
    to its declared type; keys that are not fields are the caller's to check.

    An int field takes an integer, an integral float or an integer string; a
    float field a finite number or a numeric string; neither takes a bool, and
    a bool field takes only a bool.
    ``X | None`` passes None through, ``float | str`` passes a string through,
    a fixed-length tuple takes a list of exactly that length, and ``list[X]`` a
    list of any length (``list`` leaves the items as they are).  A ``dict`` takes
    an object; an ``np.ndarray`` a list of equal-length rows of JSON numbers, as
    float64; a dataclass an object with all its fields (other keys ignored).
    A value that does not cast raises ``ValueError`` naming the field; a value
    that casts but breaks its field's declared rule raises the error type of
    ``cls``'s :func:`check`.
    """
    kwargs = {}
    for name, tp in _field_types(cls):
        if name in doc:
            try:
                kwargs[name] = cast(tp, doc[name])
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{name}: {exc}") from exc
    return cls(**kwargs)


@cache
def _field_types(cls: type) -> tuple[tuple[str, Any], ...]:
    """Each field of the dataclass ``cls`` and its declared type, resolved once
    per class: ``get_type_hints`` evaluates every annotation string each call."""
    hints = get_type_hints(cls)
    return tuple((f.name, hints[f.name]) for f in fields(cls))


def cast(tp: Any, value: Any) -> Any:
    """``value`` as type ``tp`` by the rules of :func:`from_doc`; raises
    ``TypeError`` or ``ValueError``."""
    if type(value) is tp and tp in (int, str, bool):
        return value  # already of the type, so nothing to cast or check
    origin = get_origin(tp)
    if origin in (Union, types.UnionType):
        args = get_args(tp)
        if value is None and type(None) in args:
            return None
        if isinstance(value, str) and str in args:
            return value
        rest = [a for a in args if a not in (type(None), str)]
        if len(rest) != 1:
            raise TypeError(f"unsupported field type {tp}")
        return cast(rest[0], value)
    if origin is tuple:
        args = get_args(tp)
        if not isinstance(value, (list, tuple)) or len(value) != len(args):
            raise ValueError(f"expected a list of {len(args)} values, got {value!r}")
        return tuple(cast(a, v) for a, v in zip(args, value))
    if list in (tp, origin):
        if not isinstance(value, list):
            raise ValueError(f"expected a list, got {value!r}")
        if origin is None:
            return list(value)
        (item,) = get_args(tp)
        return [cast(item, v) for v in value]
    if tp is bool:  # a bool returned above
        raise TypeError(f"expected true or false, got {value!r}")
    if tp in (int, float) and isinstance(value, bool):
        raise TypeError(f"expected a number, got {value!r}")
    if tp is int and isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    if tp is str and not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    if tp is float and not math.isfinite(float(value)):
        raise ValueError(f"expected a finite number, got {value!r}")
    if tp in (int, float, str) or issubclass(tp, Enum):
        return tp(value)
    if tp is dict or is_dataclass(tp):
        if not isinstance(value, dict):
            raise ValueError(f"expected an object, got {type(value).__name__}")
        if tp is dict:
            return dict(value)
        check_keys(value, [name for name, _ in _field_types(tp)])
        return from_doc(tp, value)
    if tp is np.ndarray:
        if type(value) is not list or not all(type(row) is list for row in value):
            raise ValueError("expected a list of rows")
        if not {*map(type, chain.from_iterable(value))} <= {int, float}:
            raise ValueError("expected rows of numbers only")
        try:
            return np.array(value, dtype=np.float64)  # rows of unequal length raise ValueError
        except OverflowError as exc:
            raise ValueError(f"a number is out of range ({exc})") from exc
    raise TypeError(f"unsupported field type {tp}")
