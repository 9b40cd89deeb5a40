"""Line-oriented ``key = value`` text, used for configs and checkpoint headers.

One codec serves both: ``format_fields`` writes a dataclass's fields in
declaration order and ``parse_fields`` reads them back. A field's type is its
default's: a tuple default means a comma-separated tuple of ints, any other
default is an int, a float or a str. Every fault raises ``ConfigError``.
"""

from __future__ import annotations

from dataclasses import fields


class ConfigError(ValueError):
    """``key = value`` text is malformed or holds a bad key or value."""


def parse_kv(text: str) -> dict[str, str]:
    """Parse ``key = value`` lines; '#' starts a comment, blanks are skipped."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def format_fields(obj, **head) -> str:
    """The ``head`` pairs, then every field of the dataclass ``obj``."""
    pairs = {**head, **{f.name: getattr(obj, f.name) for f in fields(obj)}}
    return "".join(f"{k} = {','.join(map(str, v)) if isinstance(v, tuple) else v}\n"
                   for k, v in pairs.items())


def parse_fields(cls, kv: dict[str, str]):
    """Build the dataclass ``cls`` from parsed pairs; an absent key keeps
    its default."""
    defaults = {f.name: f.default for f in fields(cls)}
    kwargs = {}
    for key, raw in kv.items():
        if key not in defaults:
            raise ConfigError(f"unknown config key {key!r} in '{key} = {raw}'")
        default = defaults[key]
        is_tuple = isinstance(default, tuple)
        try:
            kwargs[key] = tuple(int(part) for part in raw.split(",") if part.strip()) \
                if is_tuple else type(default)(raw)
        except ValueError:
            kind = "comma-separated ints" if is_tuple else type(default).__name__
            raise ConfigError(f"bad value for {key!r} in '{key} = {raw}': "
                              f"expected {kind}") from None
    return cls(**kwargs)
