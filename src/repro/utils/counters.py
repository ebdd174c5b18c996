"""Counter dataclasses: one way to bump, merge, read and decode them.

Owner-held counters lock themselves: the stats a session, the query
service, a shard backend, a worker or a store keeps derive from
:class:`Counters`, bumped by :meth:`Counters.add` from any thread under no
lock of the owner's and read by :meth:`Counters.snapshot`.  Counters that
travel (:class:`~repro.core.kernels.KernelStats`,
:class:`~repro.parallel.scheduler.ScheduleReport`) are plain, as the
``multiprocess`` pool pickles them: they merge by :func:`accumulate`, leave
as :func:`snapshot` and come off the wire only by :func:`from_snapshot`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, fields, is_dataclass


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


def accumulate(counters, deltas: dict) -> None:
    """Add each delta to the field of ``counters`` it names: to an int, to
    a dict key by key, and to a field whose ``metadata`` names a ``"merge"``
    function (``max``, say) as ``merge(old, delta)``."""
    for name, delta in deltas.items():
        value = getattr(counters, name)
        merge = counters.__dataclass_fields__[name].metadata.get("merge")
        if merge is not None:
            value = merge(value, delta)
        elif isinstance(value, dict):
            for key, count in delta.items():
                value[key] = value.get(key, 0) + count
        else:
            value += delta
        setattr(counters, name, value)


@dataclass
class Counters:
    """Base of the owner-held stats (see the module docstring)."""

    _lock: threading.Lock = field(default_factory=threading.Lock, init=False,
                                  repr=False, compare=False)

    def add(self, **deltas) -> None:
        """:func:`accumulate` the deltas, atomically."""
        with self._lock:
            accumulate(self, deltas)

    def snapshot(self) -> dict:
        """:func:`snapshot`, read under the lock."""
        with self._lock:
            return snapshot(self)


def from_snapshot(cls, data):
    """Rebuild the plain counter dataclass ``cls`` from untrusted JSON.

    Each key must name a public field, and its value have exactly the type
    of the field's default (an int field takes no bool), a dict only int
    values; missing fields keep their defaults.  Anything else raises
    :class:`~repro.service.protocol.ProtocolError`.
    """
    from repro.service.protocol import ProtocolError  # the layer above

    if not isinstance(data, dict):
        raise ProtocolError(f"{cls.__name__} must arrive as an object")
    defaults = snapshot(cls())
    for name, value in data.items():
        if name not in defaults or type(value) is not type(defaults[name]) \
                or isinstance(value, dict) and any(
                    type(count) is not int for count in value.values()):
            raise ProtocolError(f"bad {cls.__name__} counter {name}: "
                                f"{value!r}")
    return cls(**data)
