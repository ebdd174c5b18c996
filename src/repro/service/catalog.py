"""The service's catalog of named, resident :class:`EngineSession`s.

The engine can hold one dataset resident (cached per-ε indexes, attached
backend state, memmapped stores); the catalog is the service-side directory
of such residencies.  ``register`` opens a session — from an in-memory array
shipped over the wire, or from a :class:`~repro.data.store.SpatialStore`
path so the dataset never crosses the socket at all — and ``evict`` closes
it (detaching the backend, which shuts down a multiprocess pool or detaches
the distributed workers once no other session holds the dataset).

All methods are thread-safe: registrations arrive on the asyncio loop
thread while query execution resolves sessions from worker threads.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Union

import numpy as np

from repro.data.store import SpatialStore
from repro.engine.session import EngineSession


class DatasetNotRegistered(KeyError):
    """Lookup of a dataset name the catalog does not hold."""

    def __init__(self, name: str, known: List[str]) -> None:
        message = (f"no dataset {name!r} registered; known: {sorted(known)}")
        super().__init__(message)
        self.message = message

    def __str__(self) -> str:
        return self.message


class SessionCatalog:
    """Named sessions with register/evict lifecycle (see module docstring)."""

    def __init__(self, default_backend: str = "vectorized") -> None:
        self.default_backend = default_backend
        self._sessions: Dict[str, EngineSession] = {}
        self._lock = threading.RLock()

    # ------------------------------------------------------------- lifecycle
    def register(self, name: str,
                 data: Optional[Union[np.ndarray, SpatialStore]] = None,
                 store_path: Optional[str] = None,
                 backend: Optional[str] = None) -> dict:
        """Open a session for ``name`` and attach its backend.

        Exactly one of ``data`` (an array shipped by the client, or an
        already-opened store) and ``store_path`` (an on-disk
        :class:`~repro.data.store.SpatialStore` the server opens locally —
        the dataset never crosses the wire) must be given.  Duplicate names
        are rejected; evict first to replace a dataset.
        """
        if (data is None) == (store_path is None):
            raise ValueError("register needs exactly one of data / store_path")
        if store_path is not None:
            data = SpatialStore.open(store_path)
        session = EngineSession(data, backend=backend or self.default_backend)
        with self._lock:
            if name in self._sessions:
                session.close()
                raise ValueError(f"dataset {name!r} is already registered; "
                                 "evict it first to replace it")
            self._sessions[name] = session
        try:
            session.open()
        except Exception:
            with self._lock:
                self._sessions.pop(name, None)
            session.close()
            raise
        return self.describe_one(name)

    def evict(self, name: str) -> None:
        """Close and drop the named session (detaches its backend)."""
        with self._lock:
            try:
                session = self._sessions.pop(name)
            except KeyError:
                raise DatasetNotRegistered(name, list(self._sessions)) from None
        session.close()

    def close_all(self) -> None:
        """Evict every session (server shutdown)."""
        with self._lock:
            sessions = list(self._sessions.values())
            self._sessions.clear()
        for session in sessions:
            session.close()

    # --------------------------------------------------------------- lookup
    def get(self, name: str) -> EngineSession:
        """The open session registered under ``name``."""
        with self._lock:
            try:
                return self._sessions[name]
            except KeyError:
                raise DatasetNotRegistered(name, list(self._sessions)) from None

    def names(self) -> List[str]:
        """Registered dataset names (sorted)."""
        with self._lock:
            return sorted(self._sessions)

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    # ---------------------------------------------------------------- stats
    def describe_one(self, name: str) -> dict:
        """JSON-safe description of one registered dataset."""
        session = self.get(name)
        n, d = session.source.shape
        return {
            "name": name,
            "n_points": int(n),
            "n_dims": int(d),
            "backend": session.backend.name,
            "streams_self_joins": bool(session.streams_self_joins),
            "storage": session.source.storage_descriptor(),
            "cached_eps": [float(e) for e in session.cached_eps],
            **session.stats.snapshot(),
        }

    def describe(self) -> List[dict]:
        """Descriptions of every registered dataset."""
        return [self.describe_one(name) for name in self.names()]
