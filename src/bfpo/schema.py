"""One caster from JSON documents to config dataclasses.

Every config block (population, dataset, train, estimator) is read through
:func:`from_doc`, which takes each field's type from the dataclass itself, so
no module keeps its own list of fields or casts; top-level config values go
through :func:`cast`, the same rules for one value.
"""

from __future__ import annotations

import math
import types
from dataclasses import fields
from enum import Enum
from functools import cache
from typing import Any, Union, get_args, get_origin, get_type_hints

__all__ = ["cast", "from_doc"]


def from_doc(cls: type, doc: dict) -> Any:
    """``cls(**kwargs)`` from the fields of ``cls`` present in ``doc``, each cast
    to its declared type; keys that are not fields are the caller's to check.

    An int field takes an integer, an integral float or an integer string; a
    float field a finite number or a numeric string; neither takes a bool, and
    a bool field takes only a bool.
    ``X | None`` passes None through, ``float | str`` passes a string through,
    a fixed-length tuple takes a list of exactly that length, and ``list[X]`` a
    list of any length (``list`` leaves the items as they are).  A value that
    does not cast raises ``ValueError`` naming the field; the dataclass's own
    ``__post_init__`` checks ranges.
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
    raise TypeError(f"unsupported field type {tp}")
