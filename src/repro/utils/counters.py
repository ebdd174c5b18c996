"""Counter dataclasses as plain data, for stats endpoints and reports."""

from __future__ import annotations

from dataclasses import fields, is_dataclass


def snapshot(counters) -> dict:
    """A counter dataclass's public fields as JSON-ready data.

    Fields named with a leading ``_`` (locks) are left out; a nested
    dataclass appears as its own ``snapshot()`` and a dict as a copy.
    """
    out = {}
    for f in fields(counters):
        if f.name.startswith("_"):
            continue
        value = getattr(counters, f.name)
        if is_dataclass(value):
            value = value.snapshot()
        elif isinstance(value, dict):
            value = dict(value)
        out[f.name] = value
    return out
