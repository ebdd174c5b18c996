"""Lifecycle of the one frame server under the query service and the worker.

:mod:`repro.service.framing` owns the listener, the connection loop, the
shutdown order, the thread harness and the CLI body of both
:class:`~repro.service.server.QueryService` and
:class:`~repro.distributed.worker.WorkerServer`; each test here runs on
both.  (``tests/test_service_server.py::TestConnectionShutdown`` covers the
cancel-safe close.)
"""

from __future__ import annotations

import asyncio
import os
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.distributed import WorkerServer, WorkerThread
from repro.service import (
    QueryService,
    ServerThread,
    ServiceClient,
    ServiceError,
    protocol,
)

#: Generous bound on waits that only a hang would reach.
HANG_S = 60.0

CLIS = [("repro.service", "repro-serve"),
        ("repro.distributed", "repro-worker")]


def _read_line(stream, timeout: float) -> str:
    """``stream.readline()`` bounded by ``timeout`` ("" when it expires)."""
    lines = []
    reader = threading.Thread(target=lambda: lines.append(stream.readline()),
                              daemon=True)
    reader.start()
    reader.join(timeout)
    return lines[0] if lines else ""


@pytest.mark.parametrize("module, prog", CLIS, ids=["service", "worker"])
def test_cli_banner_reaches_a_pipe_unbuffered_or_not(module, prog):
    """The banner is flushed: a harness reading it through a pipe must not
    depend on ``PYTHONUNBUFFERED``."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(repro.__file__).parent.parent)]
        + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    proc = subprocess.Popen([sys.executable, "-m", module, "--port", "0"],
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                            text=True, env=env)
    try:
        banner = _read_line(proc.stdout, HANG_S)
        assert banner.startswith(f"{prog} listening on "), banner
        host, _, port = banner.split()[-1].rpartition(":")
        with ServiceClient(host, int(port), timeout=HANG_S) as client:
            client.shutdown_server()
        assert proc.wait(timeout=HANG_S) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()


@pytest.mark.parametrize("harness", [ServerThread, WorkerThread],
                         ids=["service", "worker"])
def test_harness_start_fails_fast_on_a_bound_port(harness):
    with socket.socket() as taken:
        taken.bind(("127.0.0.1", 0))
        taken.listen()
        began = time.monotonic()
        with pytest.raises(RuntimeError) as info:
            harness(port=taken.getsockname()[1]).start()
        assert time.monotonic() - began < 5.0
    assert isinstance(info.value.__cause__, OSError)


@pytest.mark.parametrize("make_server", [QueryService, WorkerServer],
                         ids=["service", "worker"])
def test_shutdown_does_not_wait_for_an_idle_client(make_server):
    """An open idle connection must not hold ``serve_until_stopped``:
    ``asyncio.Server.wait_closed`` waits for open connections from
    Python 3.12 on, so the server ends its connections first."""
    server = make_server()

    async def request(reader, writer, header):
        writer.write(protocol.encode_frame(header))
        reply, _ = await protocol.read_frame_async(reader)
        return reply

    async def scenario():
        await server.start()
        serving = asyncio.ensure_future(server.serve_until_stopped())
        idle = await asyncio.open_connection(server.host, server.port)
        assert (await request(*idle, {"op": "ping"}))["pong"]
        stopper = await asyncio.open_connection(server.host, server.port)
        reply = await request(*stopper, {"op": "shutdown"})
        assert reply["status"] == "ok"
        await asyncio.wait_for(serving, timeout=HANG_S)
        # The server ended the idle connection.
        assert await asyncio.wait_for(idle[0].read(), timeout=HANG_S) == b""
        for _, writer in (idle, stopper):
            writer.close()

    asyncio.run(scenario())


def test_shutdown_fails_queued_requests():
    """A request still in the admission queue, and the one the scheduler
    holds, are answered ``server stopped`` before their connections end."""
    # A long tick keeps the scheduler collecting its first request's burst,
    # so the second one waits in the queue.
    with ServerThread(tick_seconds=HANG_S, workers=1) as server:
        replies = {}

        def sleeper(name):
            with ServiceClient(server.host, server.port,
                               timeout=HANG_S) as client:
                try:
                    replies[name] = client.sleep(0.0)
                except (ServiceError, OSError) as exc:
                    replies[name] = str(exc)

        def admitted(n):
            deadline = time.monotonic() + HANG_S
            while server.service.stats.snapshot()["requests_total"] < n:
                assert time.monotonic() < deadline
                time.sleep(0.01)

        held = threading.Thread(target=sleeper, args=("held",))
        held.start()
        admitted(1)
        queued = threading.Thread(target=sleeper, args=("queued",))
        queued.start()
        admitted(2)
        with ServiceClient(server.host, server.port, timeout=HANG_S) as admin:
            admin.shutdown_server()
        for thread in (held, queued):
            thread.join(HANG_S)
            assert not thread.is_alive()
    assert replies["queued"] == "server stopped"
    # The request the scheduler held through its tick window, too.
    assert replies["held"] == "server stopped"
