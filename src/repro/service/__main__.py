"""Standalone query-service server: ``python -m repro.service`` / ``repro-serve``.

Binds the asyncio service, optionally pre-registers on-disk
:class:`~repro.data.store.SpatialStore` datasets, prints the bound address
and serves until interrupted (or a client sends ``shutdown``).
"""

from __future__ import annotations

import argparse
from typing import Optional, Sequence

from repro.service.server import (
    DEFAULT_MAX_PENDING,
    DEFAULT_TICK_SECONDS,
    DEFAULT_WORKERS,
    QueryService,
)
from repro.service.framing import serve_main


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve the spatial query engine over TCP.")
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default: %(default)s)")
    parser.add_argument("--port", type=int, default=9471,
                        help="bind port; 0 picks a free one (default: %(default)s)")
    parser.add_argument("--backend", default="vectorized",
                        help="default backend for registered datasets "
                             "(default: %(default)s)")
    parser.add_argument("--max-pending", type=int, default=DEFAULT_MAX_PENDING,
                        help="admission-queue bound; overload is rejected "
                             "(default: %(default)s)")
    parser.add_argument("--tick", type=float, default=DEFAULT_TICK_SECONDS,
                        metavar="SECONDS",
                        help="scheduler tick / fusion window "
                             "(default: %(default)s)")
    parser.add_argument("--workers", type=int, default=DEFAULT_WORKERS,
                        help="execution threads (default: %(default)s)")
    parser.add_argument("--register", action="append", default=[],
                        metavar="NAME=STORE_PATH",
                        help="pre-register an on-disk SpatialStore under "
                             "NAME (repeatable)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    service = QueryService(args.host, args.port,
                           default_backend=args.backend,
                           max_pending=args.max_pending,
                           tick_seconds=args.tick,
                           workers=args.workers)
    for spec in args.register:
        name, _, path = spec.partition("=")
        if not name or not path:
            raise SystemExit(f"--register expects NAME=STORE_PATH, got {spec!r}")
        service.catalog.register(name, store_path=path)
        print(f"registered {name!r} from {path}")
    return serve_main(service, parser.prog)


if __name__ == "__main__":
    raise SystemExit(main())
