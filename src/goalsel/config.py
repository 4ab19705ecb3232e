"""Flat key-value config files (JSON), CLI overrides, and config digests."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import typing
from pathlib import Path


class ConfigError(ValueError):
    """Bad config file, unknown key, or uncoercible value."""


def load_flat(path) -> dict:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path} must be a flat JSON object")
    return doc


def parse_overrides(pairs: list[str]) -> dict[str, str]:
    out: dict[str, str] = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise ConfigError(f"override must look like KEY=VALUE, got {pair!r}")
        out[key] = value
    return out


def _coerce(value, typ, key: str):
    origin = typing.get_origin(typ)
    if origin in (tuple, list):
        item_type = typing.get_args(typ)[0]
        if isinstance(value, str):
            items = [v for v in value.split(",") if v != ""]
        elif isinstance(value, (tuple, list)):
            items = list(value)
        else:
            items = [value]
        seq = tuple(_coerce(v, item_type, key) for v in items)
        return seq if origin is tuple else list(seq)
    if typ is bool:
        if isinstance(value, bool):
            return value
        text = str(value).strip().lower()
        if text in ("true", "1", "yes"):
            return True
        if text in ("false", "0", "no"):
            return False
        raise ConfigError(f"cannot read {value!r} as a boolean for {key!r}")
    if typ in (int, float) and isinstance(value, bool):
        raise ConfigError(f"cannot read {value!r} as a number for {key!r}")
    if typ is int:
        # a float must be whole: is_integer() is also false for inf and nan
        if isinstance(value, float) and not value.is_integer():
            raise ConfigError(f"cannot read {value!r} as an integer for {key!r}")
        return int(value)
    if typ is float:
        return float(value)
    if typ is str:
        return str(value)
    raise ConfigError(f"unsupported config field type {typ!r} for {key!r}")


def from_flat(cls, mapping: dict, overrides: dict[str, str] | None = None):
    """Build a dataclass from a flat mapping, rejecting unknown keys."""
    hints = typing.get_type_hints(cls)
    known = {f.name for f in dataclasses.fields(cls)}
    merged = dict(mapping)
    if overrides:
        merged.update(overrides)
    unknown = set(merged) - known
    if unknown:
        raise ConfigError(f"unknown config keys for {cls.__name__}: {sorted(unknown)}")
    kwargs = {}
    for key, value in merged.items():
        try:
            kwargs[key] = _coerce(value, hints[key], key)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for {key!r}: {exc}") from exc
    return cls(**kwargs)


def to_flat(obj) -> dict:
    out = {}
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        out[f.name] = list(value) if isinstance(value, tuple) else value
    return out


def canonical_json(obj) -> str:
    doc = to_flat(obj) if dataclasses.is_dataclass(obj) else obj
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def config_digest(obj) -> str:
    """Stable sha256 of the canonical JSON form of a config."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()
