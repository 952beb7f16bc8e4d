"""Canonical serialization: byte-stable JSON plus a plain-text rendering.

Certificates are evidence, so two runs over the same input must produce
byte-identical output: keys are sorted, rationals are already "p/q" strings
by the time objects reach this module, and floats use the shortest repr.
"""
from __future__ import annotations

import json

__all__ = ["canonical_json", "render_text", "write_report"]


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False, allow_nan=False) + "\n"


def render_text(obj) -> str:
    """Flat "path = value" table for human consumption; same key order as the
    canonical JSON."""
    lines: list[str] = []

    def walk(prefix: str, value) -> None:
        if isinstance(value, dict):
            for key in sorted(value):
                walk(f"{prefix}.{key}" if prefix else str(key), value[key])
        elif isinstance(value, list):
            if not value:
                lines.append(f"{prefix} = []")
            elif all(not isinstance(v, (dict, list)) for v in value):
                lines.append(f"{prefix} = " + " ".join(str(v) for v in value))
            else:
                for i, v in enumerate(value):
                    walk(f"{prefix}[{i}]", v)
        else:
            lines.append(f"{prefix} = {value}")

    walk("", obj)
    return "\n".join(lines) + "\n"


def write_report(artifact, fmt: str = "json") -> str:
    """Render a certificate, report, or plain mapping as canonical JSON or
    text; callers print, write or diff the returned text."""
    obj = artifact.to_obj() if hasattr(artifact, "to_obj") else artifact
    if fmt == "json":
        text = canonical_json(obj)
    elif fmt == "text":
        text = render_text(obj)
    else:
        raise ValueError(f"unknown format {fmt!r} (expected 'json' or 'text')")
    return text
