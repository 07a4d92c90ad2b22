"""Deterministic report serialization.

Floats are rendered with 17 significant digits, which round-trips every
64-bit value exactly, and dictionaries keep their insertion order, so a
report document serializes to identical bytes on every run with the same
content.
"""

from __future__ import annotations

import json
import math


def fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"reports must contain finite numbers, got {x!r}")
    return "%.17g" % x


def _write(value, out: list, indent: int) -> None:
    pad = "  " * indent
    if isinstance(value, (dict, list, tuple)):
        keyed = isinstance(value, dict)
        opening, closing = "{}" if keyed else "[]"
        if not value:
            out.append(opening + closing)
            return
        out.append(opening + "\n")
        for i, (key, item) in enumerate(value.items() if keyed else enumerate(value)):
            out.append(f"{pad}  {json.dumps(str(key))}: " if keyed else pad + "  ")
            _write(item, out, indent + 1)
            out.append(",\n" if i < len(value) - 1 else "\n")
        out.append(pad + closing)
    elif isinstance(value, bool):
        out.append("true" if value else "false")
    elif value is None:
        out.append("null")
    elif isinstance(value, int):
        out.append(str(value))
    elif isinstance(value, float):
        out.append(fmt_float(value))
    elif isinstance(value, str):
        out.append(json.dumps(value))
    else:
        raise TypeError(f"cannot serialize {type(value).__name__} into a report")


def dumps(doc) -> str:
    """Serialize a report document to deterministic, indented JSON."""
    out: list = []
    _write(doc, out, 0)
    out.append("\n")
    return "".join(out)


def _flat(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    if isinstance(value, float):
        return fmt_float(value)
    return str(value)


def to_csv(rows: list) -> str:
    """Flat CSV projection of a list of dictionaries (union of keys, in order)."""
    fields: list = []
    for row in rows:
        for key in row:
            if key not in fields:
                fields.append(key)
    lines = [",".join(fields)]
    for row in rows:
        lines.append(",".join(_flat(row.get(key)) for key in fields))
    return "\n".join(lines) + "\n"
