"""One JSON codec for the library's payload dataclasses.

Reports, requests, specs, fuzz cases and trace events reach users, the
sqlite store and the cluster wire as JSON whose payload is their field
list, derived here from :func:`dataclasses.fields` and the type hints.
Primitives pass through unchanged (a float field given an int keeps the
int, so a hand-written spec fingerprints as written; floats keep their
exact repr); ``X | None``, ``tuple[X, ...]``, fixed-length tuples,
``dict[str, X]``, enums (by value) and nested dataclasses recurse; a
bare ``dict`` is a free-form JSON object; a nested class with
hand-written ``to_dict``/``from_dict`` goes through those. Decoding
checks required keys and JSON types, ignores unknown keys, and is the
one place where malformed input becomes a
:class:`~repro.errors.ConfigError`. A class's plan is built on its first
use, so importing a module costs nothing.
"""

from __future__ import annotations

import copy
import dataclasses
import enum
import functools
import json
import re
import types
import typing

from repro.errors import ConfigError, ReproError

#: Field metadata: write the field only when it differs from its default.
WHEN_SET = {"codec": "when_set"}

#: Field metadata: never write or read the field; its class derives it
#: from another key.
UNWRITTEN = {"codec": "unwritten"}

_NONE = type(None)
_ALWAYS = object()  # a field written whatever its value
_ABSENT = object()  # a key the payload does not carry

#: The Python types a JSON value of each primitive hint may decode to.
_PRIMITIVES = {
    str: frozenset({str}),
    int: frozenset({int}),
    float: frozenset({int, float}),
    bool: frozenset({bool}),
    _NONE: frozenset({_NONE}),
}

#: What a constructor or hand-written decoder raises on malformed input.
_MALFORMED = (TypeError, ValueError, KeyError, AttributeError, IndexError)


def _mismatch(expected, value) -> ConfigError:
    if not isinstance(expected, str):  # a set of accepted primitive types
        kinds = expected - {int} if float in expected else expected
        expected = " or ".join(sorted(kind.__name__ for kind in kinds))
    return ConfigError(
        f"expected {expected}, got {type(value).__name__} {value!r:.60}"
    )


def _check_items(accepted: frozenset, values) -> None:
    if not accepted.issuperset(map(type, values)):
        bad = next(value for value in values if type(value) not in accepted)
        raise _mismatch(accepted, bad)


def _union_member(hint):
    """``X`` of ``X | None`` (``None`` when the hint is no such union)."""
    if typing.get_origin(hint) not in (typing.Union, types.UnionType):
        return None
    members = [arg for arg in typing.get_args(hint) if arg is not _NONE]
    if len(members) != 1 or len(typing.get_args(hint)) != 2:
        raise TypeError(f"the codec handles only X | None unions, not {hint!r}")
    return members[0]


def _accepts(hint) -> frozenset | None:
    """The types a primitive (or optional primitive) hint accepts as is."""
    if hint in _PRIMITIVES:
        return _PRIMITIVES[hint]
    member = _union_member(hint)
    if member in _PRIMITIVES:
        return _PRIMITIVES[member] | {_NONE}
    return None


def _encoder(hint):
    """value -> fresh JSON value for ``hint`` (``None``: passes through)."""
    if _accepts(hint) is not None:
        return None
    if hint is dict:  # a free-form object, copied: callers may mutate it
        return copy.deepcopy
    member = _union_member(hint)
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if member is not None:
        inner = _encoder(member)
        return inner and (lambda value: None if value is None else inner(value))
    if origin is tuple and args[1:] == (Ellipsis,):
        inner = _encoder(args[0])
        return (lambda value: [inner(item) for item in value]) if inner else list
    if origin is tuple:
        inners = [_encoder(arg) or (lambda item: item) for arg in args]
        return lambda value: [inner(item) for inner, item in zip(inners, value)]
    if origin is dict:
        inner = _encoder(args[1])
        if inner is None:
            return dict
        return lambda value: {key: inner(item) for key, item in value.items()}
    if isinstance(hint, type) and issubclass(hint, enum.Enum):
        return lambda value: value.value
    if hasattr(hint, "to_dict"):
        return hint.to_dict
    if dataclasses.is_dataclass(hint):
        return encode
    raise TypeError(f"the codec cannot encode {hint!r}")


def _decoder(hint):
    """JSON value -> field value for ``hint``, raising ConfigError."""
    accepted = _accepts(hint)
    member = _union_member(hint)
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if accepted is not None:

        def check(value):
            if type(value) not in accepted:
                raise _mismatch(accepted, value)
            return value

        return check
    if member is not None:
        inner = _decoder(member)
        return lambda value: None if value is None else inner(value)
    if hint is dict:

        def decode_object(value):
            if not isinstance(value, dict):
                raise _mismatch("object", value)
            return value

        return decode_object
    if origin is dict:
        accepted, inner = _accepts(args[1]), _decoder(args[1])

        def decode_mapping(value):
            if not isinstance(value, dict):
                raise _mismatch("object", value)
            if accepted is None:
                return {key: inner(item) for key, item in value.items()}
            _check_items(accepted, value.values())  # JSON keys are strings
            return value

        return decode_mapping
    if origin is tuple and args[1:] == (Ellipsis,):
        accepted, inner = _accepts(args[0]), _decoder(args[0])

        def decode_items(value):
            if not isinstance(value, (list, tuple)):
                raise _mismatch("array", value)
            if accepted is None:
                return tuple([inner(item) for item in value])
            _check_items(accepted, value)
            return tuple(value)

        return decode_items
    if origin is tuple:
        inners = [_decoder(arg) for arg in args]

        def decode_fixed(value):
            if not isinstance(value, (list, tuple)) or len(value) != len(inners):
                raise _mismatch(f"array of {len(inners)}", value)
            return tuple([inner(item) for inner, item in zip(inners, value)])

        return decode_fixed
    if isinstance(hint, type) and issubclass(hint, enum.Enum):

        def decode_enum(value):
            try:
                return hint(value)
            except (ValueError, TypeError):
                names = [item.value for item in hint]
                raise ConfigError(
                    f"unknown {hint.__name__} {value!r}; one of {names}"
                ) from None

        return decode_enum
    if hasattr(hint, "from_dict"):
        return hint.from_dict
    if dataclasses.is_dataclass(hint):
        return lambda value: _plan(hint).decode(value)
    raise TypeError(f"the codec cannot decode {hint!r}")


class _Plan:
    """How one dataclass encodes and decodes, built on its first use.

    ``decode(data)`` is generated per class with exec, as :mod:`dataclasses`
    generates ``__init__``, because decoding is the result store's read
    path (a resumed sweep decodes every stored report, thousands of op
    records): one straight-line function reads every field, checks a
    primitive's JSON type in place, decodes any other value through
    :func:`_decoder`, and builds the instance. A class without
    ``__post_init__`` has nothing for ``__init__`` to check, so its fields,
    unwritten ones at their defaults, are set without that call.
    """

    def __init__(self, cls: type) -> None:
        hints = typing.get_type_hints(cls)
        self.name, self.kind = cls.__name__, getattr(cls, "_codec_kind", None)
        self.derived = getattr(cls, "_codec_derived", ())
        self.derived_when_set = getattr(cls, "_codec_derived_when_set", ())
        self.writes = []
        bypass = not hasattr(cls, "__post_init__")
        env = {"cls": cls, "plan": self, "ABSENT": _ABSENT, "new": object.__new__}
        env["ConfigError"] = ConfigError
        lines = [
            "def decode(data):",
            "    if not isinstance(data, dict): plan.bad(None, data, 'object')",
        ]
        if self.kind is not None:
            lines.append(
                f"    if data.get('kind', {self.kind!r}) != {self.kind!r}:"
                " plan.bad('kind', data['kind'], repr(plan.kind))"
            )
        fields = []
        for index, item in enumerate(dataclasses.fields(cls)):
            role, name, value = item.metadata.get("codec"), item.name, f"v{index}"
            default = item.default
            fallback = f"D{index}"
            if item.default_factory is not dataclasses.MISSING:
                default, fallback = item.default_factory(), f"F{index}()"
            elif default is dataclasses.MISSING:
                fallback = f"plan.missing({name!r})"
            env.update({f"D{index}": default, f"F{index}": item.default_factory})
            if role == "unwritten":
                if bypass:
                    fields.append((name, value))
                    lines.append(f"    {value} = {fallback}")
                continue
            hint = hints[name]
            self.writes.append(
                (name, _encoder(hint), default if role == "when_set" else _ALWAYS)
            )
            fields.append((name, value))
            lines.append(f"    {value} = data.get({name!r}, ABSENT)")
            accepted = _accepts(hint)
            if accepted is None:
                env[f"N{index}"] = _decoder(hint)
                lines += [
                    f"    if {value} is ABSENT: {value} = {fallback}",
                    "    else:",
                    f"        try: {value} = N{index}({value})",
                    "        except ConfigError as error:",
                    f"            plan.nested({name!r}, error)",
                ]
            else:
                env[f"A{index}"] = accepted
                lines += [
                    f"    if type({value}) not in A{index}:",
                    f"        {value} = {fallback} if {value} is ABSENT"
                    f" else plan.bad({name!r}, {value}, A{index})",
                ]
        if bypass:
            env["set_field"] = object.__setattr__
            lines.append("    obj = new(cls)")
            lines += [f"    set_field(obj, {k!r}, {v})" for k, v in fields]
            lines.append("    return obj")
        else:
            lines.append(
                "    return plan.construct(cls, {%s})"
                % ", ".join(f"{k!r}: {v}" for k, v in fields)
            )
        exec("\n".join(lines), env)
        self.decode = env["decode"]

    # -- what the generated decoder calls ---------------------------------------------
    def bad(self, name, value, expected):
        where = self.name if name is None else f"{self.name}.{name}"
        raise ConfigError(f"{where}: {_mismatch(expected, value)}")

    def missing(self, name):
        raise ConfigError(f"{self.name} is missing {name!r}")

    def nested(self, name, error):
        raise ConfigError(f"{self.name}.{name}: {error}") from None

    def construct(self, cls, fields):
        try:
            return cls(**fields)
        except ReproError:
            raise
        except _MALFORMED as error:
            raise ConfigError(f"malformed {self.name}: {error}") from None


@functools.cache
def _plan(cls: type) -> _Plan:
    return _Plan(cls)


def encode(obj) -> dict:
    """``obj`` (a dataclass instance) as a fresh JSON-ready dict."""
    plan = _plan(type(obj))
    payload = {} if plan.kind is None else {"kind": plan.kind}
    for name, encoder, default in plan.writes:
        value = getattr(obj, name)
        if default is not _ALWAYS and value == default:
            continue
        payload[name] = value if encoder is None else encoder(value)
    for name in plan.derived:
        value = getattr(obj, name)
        payload[name] = value() if callable(value) else value
    for name in plan.derived_when_set:
        value = getattr(obj, name)
        if value:
            payload[name] = value
    return payload


def decode(cls: type, data):
    """An instance of ``cls`` from its :func:`encode` form.

    Raises :class:`ConfigError` on a missing required key, a value of the
    wrong JSON type, a wrong ``kind`` tag, or a value the class itself
    rejects. Containers of primitives are not copied.
    """
    return _plan(cls).decode(data)


def checked(from_dict):
    """Decorate a hand-written ``from_dict`` (under ``@classmethod``) so
    that malformed input raises :class:`ConfigError`, as :func:`decode`
    does."""

    @functools.wraps(from_dict)
    def decode_checked(cls, data):
        try:
            return from_dict(cls, data)
        except ReproError:
            raise
        except _MALFORMED as error:
            raise ConfigError(f"malformed {cls.__name__}: {error}") from None

    return decode_checked


class Codec:
    """Mixin: ``to_dict``/``from_dict``/``to_json``/``from_json`` from the
    field list. Class keywords declare where the payload differs::

        @dataclass(frozen=True)
        class ServingReport(Codec, kind="serving", derived=("offered",)):

    ``kind`` tags the payload (and is checked on decode when present);
    ``derived`` names properties or zero-argument methods written on
    encode and ignored on decode; ``derived_when_set`` ones are written
    only when truthy.
    """

    def __init_subclass__(
        cls, kind: str | None = None, derived=(), derived_when_set=(), **kwargs
    ) -> None:
        super().__init_subclass__(**kwargs)
        cls._codec_kind = kind
        cls._codec_derived = tuple(derived)
        cls._codec_derived_when_set = tuple(derived_when_set)

    def to_dict(self) -> dict:
        return encode(self)

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict):
        return decode(cls, data)

    @classmethod
    def from_json(cls, text: str):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            # "ScenarioSpec" -> "invalid scenario JSON", "FuzzCase" -> "fuzz case".
            words = re.sub(r"(?<!^)(?=[A-Z])", " ", cls.__name__).lower()
            raise ConfigError(
                f"invalid {words.removesuffix(' spec')} JSON: {error}"
            ) from None
        return cls.from_dict(data)


__all__ = ["UNWRITTEN", "WHEN_SET", "Codec", "checked", "decode", "encode"]
