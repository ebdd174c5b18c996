"""``repro-worker`` — run one distributed shard worker.

Starts a :class:`~repro.distributed.worker.WorkerServer` on the given
address and serves until a ``shutdown`` request (or SIGINT).  Prints a
one-line banner with the bound address once listening, so harnesses
spawning workers on ephemeral ports (``--port 0``) can parse where the
worker actually landed::

    repro-worker listening on 127.0.0.1:49152

``--store-root`` restricts which :class:`~repro.data.store.SpatialStore`
paths the worker will memory-map: attach-by-path requests resolving
outside that directory are rejected before the file is touched.  Without
it the worker maps any path it can read — fine on localhost, not for a
worker exposed beyond it.
"""

from __future__ import annotations

import argparse
from typing import Optional, Sequence

from repro.distributed.worker import WorkerServer
from repro.service.framing import serve_main


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-worker",
        description="Distributed shard worker for the repro join engine.")
    parser.add_argument("--host", default="127.0.0.1",
                        help="interface to bind (default: 127.0.0.1)")
    parser.add_argument("--port", type=int, default=0,
                        help="port to bind; 0 picks an ephemeral port "
                             "(default: 0)")
    parser.add_argument("--store-root", default=None,
                        help="only memmap SpatialStore paths under this "
                             "directory (default: no restriction)")
    parser.add_argument("--compute-threads", type=int, default=2,
                        help="shard compute threads (default: 2; one keeps "
                             "serving pings while another computes)")
    parser.add_argument("--debug-sleep-ms", type=float, default=None,
                        help="straggler injection: sleep this many ms before "
                             "every shard op (default: the "
                             "REPRO_WORKER_DEBUG_SLEEP_MS environment "
                             "variable, else 0)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return serve_main(WorkerServer(host=args.host, port=args.port,
                                   store_root=args.store_root,
                                   compute_threads=args.compute_threads,
                                   debug_shard_sleep_ms=args.debug_sleep_ms),
                      parser.prog)


if __name__ == "__main__":
    raise SystemExit(main())
