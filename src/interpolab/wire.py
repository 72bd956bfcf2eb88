"""The JSON wire format of weights, descriptors and concrete spaces.

A class joins the format by deriving from ``Wire`` and naming its tag,

    @dataclass(frozen=True)
    class EllPow(SvExpr, kind="ell"):
        alpha: float

and is then written as ``{"kind": "ell", "alpha": ...}``: the tag plus
one entry per dataclass field.  A class that names no tag is either a
family base (``SvExpr``, ``SpaceDescriptor``, ``AppSpace``), read by
dispatching on the tag among its subclasses, or, if it is a dataclass,
a value written without a tag (``RiSpace`` as ``{"q": ...}``).

Reading follows each field's annotation: ``float``, ``int`` and ``str``
values are coerced (``2.0`` reads as the ``int`` 2; a NaN ``float`` or a
non-integral ``int`` is a ``ValueError``), a str enum by its value, nested
objects against their annotated class (a tag from another family is a
``ValueError``), tuples element by element; a missing field takes its
dataclass default, and a missing required one fails in the constructor.
``+inf`` is written as the string ``"inf"``, which ``float`` reads back.
"""

from __future__ import annotations

import dataclasses
import json
import math
import typing

# tag -> class, over all families (tags are unique across them)
_TAGS: dict[str, type] = {}
# class name -> class, to resolve annotations across modules
_NAMES: dict[str, type] = {}
# class -> ((field name, reader), ...), built on its first read
_SPECS: dict[type, tuple] = {}


class Wire:
    """Base of every class with a JSON form."""

    _kind: str | None = None

    def __init_subclass__(cls, kind: str | None = None, **kw):
        super().__init_subclass__(**kw)
        cls._kind = kind
        _NAMES[cls.__name__] = cls
        if kind is not None:
            assert kind not in _TAGS, f"wire tag {kind!r} is taken"
            _TAGS[kind] = cls

    def to_obj(self) -> dict:
        out = {} if self._kind is None else {"kind": self._kind}
        for f in dataclasses.fields(self):
            out[f.name] = _encode(getattr(self, f.name))
        return out

    @classmethod
    def from_obj(cls, o) -> Wire:
        """Read o as an instance of cls or of one of its tagged subclasses."""
        if cls._kind is None and dataclasses.is_dataclass(cls):
            return cls._decode(o)
        kind = o["kind"]
        sub = _TAGS.get(kind)
        if sub is None or not issubclass(sub, cls):
            raise ValueError(f"unknown {cls.__name__} kind {kind!r}")
        return sub._decode(o)

    @classmethod
    def _decode(cls, o) -> Wire:
        spec = _SPECS.get(cls)
        if spec is None:
            hints = typing.get_type_hints(cls, localns=_NAMES)
            spec = _SPECS[cls] = tuple((f.name, _reader(hints[f.name]))
                                       for f in dataclasses.fields(cls))
        return cls(**{name: read(o[name]) for name, read in spec
                      if name in o})


def _encode(v):
    if isinstance(v, Wire):
        return v.to_obj()
    if isinstance(v, tuple):
        return [_encode(m) for m in v]
    if isinstance(v, float) and v == math.inf:
        return "inf"
    return v


def _float(v) -> float:
    if math.isnan(x := float(v)):
        raise ValueError(f"{v!r} is not a number")
    return x


def _int(v) -> int:
    if not (x := float(v)).is_integer():
        raise ValueError(f"{v!r} is not an integer")
    return int(x)


def _reader(tp):
    if tp in (float, int):
        return {float: _float, int: _int}[tp]
    if isinstance(tp, type) and issubclass(tp, str):
        return tp       # str, or an enum of strings such as Setting
    if isinstance(tp, type) and issubclass(tp, Wire):
        return tp.from_obj
    if typing.get_origin(tp) is tuple:
        read = _reader(typing.get_args(tp)[0])
        return lambda v: tuple(read(m) for m in v)
    raise TypeError(f"no wire reader for {tp!r}")


def to_json(w: Wire) -> str:
    return json.dumps(w.to_obj(), sort_keys=True)
