"""Build a value once per key, without one lock over every key.

:class:`KeyedBuilds` lets the callers of one key that miss together share
one build, while builds of other keys run at the same time and hits never
wait for a build.  A grid index's derived data
(:meth:`repro.core.gridindex.GridIndex.cached`) and a worker's per-ε index
cache (:class:`repro.parallel.compute.ShardDataset`) use it.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Hashable, MutableMapping, TypeVar

T = TypeVar("T")


class KeyedBuilds:
    """Build-once per key over a mapping the caller owns.

    ``lock`` guards the caller's mapping and the builds in flight; it is
    held only to read or store, never while a value is built.
    """

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self._building: Dict[Hashable, threading.Event] = {}

    def get(self, values: MutableMapping, key: Hashable,
            build: Callable[[], T]) -> T:
        """``values[key]``, stored from ``build()`` on a miss.

        A caller that misses while another builds ``key`` waits for that
        build.  A build that raises stores nothing, and a waiter then
        builds in its place.
        """
        while True:
            with self.lock:
                if key in values:
                    return values[key]
                done = self._building.get(key)
                if done is None:
                    done = self._building[key] = threading.Event()
                    break
            done.wait()
        try:
            value = build()
            with self.lock:
                values[key] = value
            return value
        finally:
            with self.lock:
                del self._building[key]
            done.set()
