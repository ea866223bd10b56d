"""JSON codec for the config and checkpoint dataclasses.

The dataclasses are the schema: field names, types and defaults are read
from them. A field typed as a tagged union is a JSON object whose tag key
selects the class; a field typed `dict` is an object passed through as it
is. Decoding refuses a mistyped, missing or unknown field with a
ConfigError naming its dotted path. A dataclass checks its values in
__post_init__ and raises ValueError("<field>: <reason>"), the field named
relative to itself; decoding prefixes the path of the section.
"""

from __future__ import annotations

import functools
import typing
from dataclasses import MISSING, fields, is_dataclass

from .kernels import KERNEL_FORMS, Kernel
from .streams import Dominant, Imbalance, LongTail

__all__ = ["ConfigError", "decode", "decode_versioned", "encode"]


class ConfigError(ValueError):
    """Invalid config or checkpoint metadata; message names the offending field."""


_UNIONS = {
    Imbalance: ("kind", {"dominant": Dominant, "longtail": LongTail}),
    Kernel: ("form", KERNEL_FORMS),
}
_TAGS = {
    cls: {key: tag} for key, table in _UNIONS.values() for tag, cls in table.items()
}
_EXPECTED = {
    bool: "a boolean", int: "an integer", float: "a number", str: "a string", dict: "an object"
}


@functools.cache
def _json_fields(cls) -> tuple:
    """(field, resolved type) for each JSON field of a dataclass."""
    hints = typing.get_type_hints(cls)
    return tuple((f, hints[f.name]) for f in fields(cls))


def encode(value):
    """The JSON form of a dataclass value; decode reads it back."""
    if is_dataclass(value):
        return {
            **_TAGS.get(type(value), {}),
            **{
                f.name: encode(getattr(value, f.name))
                for f, _ in _json_fields(type(value))
            },
        }
    return list(value) if isinstance(value, tuple) else value


def _is(value, kind) -> bool:
    """JSON type test: a boolean is not a number; an integer is a float."""
    if isinstance(value, bool):
        return kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


def decode(hint, value, path: str):
    """value, a parsed JSON value, as the type hint; path names it in errors."""
    if hint in _UNIONS:
        key, table = _UNIONS[hint]
        if not isinstance(value, dict):
            raise ConfigError(f"{path}: expected an object")
        tag = value.get(key)
        if not isinstance(tag, str) or tag not in table:
            raise ConfigError(
                f"{path}.{key}: expected one of {list(table)}, got {tag!r}"
            )
        return decode(table[tag], {k: v for k, v in value.items() if k != key}, path)
    if is_dataclass(hint):
        return _decode_section(hint, value, path)
    args = typing.get_args(hint)
    if type(None) in args:
        (inner,) = (a for a in args if a is not type(None))
        if value is not None and not _is(value, inner):
            raise ConfigError(f"{path}: expected {_EXPECTED[inner]} or null")
        return None if value is None else decode(inner, value, path)
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, list) or not all(_is(v, args[0]) for v in value):
            raise ConfigError(f"{path}: expected a list of {args[0].__name__}")
        return tuple(value)
    if not _is(value, hint):
        raise ConfigError(f"{path}: expected {_EXPECTED[hint]}")
    return float(value) if hint is float else value


def decode_versioned(cls, raw, version: int, path: str):
    """decode(cls, ...) of a JSON object whose "version" field must equal version."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{path or 'config'}: expected an object")
    got = raw.get("version")
    if not _is(got, int) or got != version:
        where = f"{path}.version" if path else "version"
        raise ConfigError(f"{where}: expected {version}, got {got!r}")
    return decode(cls, {k: v for k, v in raw.items() if k != "version"}, path)


def _decode_section(cls, raw, path: str):
    where = path or "config"
    if not isinstance(raw, dict):
        raise ConfigError(f"{where}: expected an object")
    schema = _json_fields(cls)
    unknown = set(raw) - {f.name for f, _ in schema}
    if unknown:
        raise ConfigError(f"{where}: unknown fields {sorted(unknown)}")
    kwargs = {}
    for f, hint in schema:
        sub = f"{path}.{f.name}" if path else f.name
        if f.name in raw:
            kwargs[f.name] = decode(hint, raw[f.name], sub)
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{sub}: missing")
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}.{exc}" if path else str(exc)) from exc
