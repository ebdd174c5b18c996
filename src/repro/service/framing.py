"""One frame server under the query service and the shard worker.

:class:`FrameServer` owns what both servers do with
:mod:`repro.service.protocol` frames: the listener (``port=0`` resolves to
an ephemeral port), the one connection loop (a malformed frame gets a
best-effort ``error`` frame and then the connection drops, since the
stream offset is unknown; a request that raises gets an ``error`` reply
and the connection keeps serving), the writer, the cancel-safe close, the
``ping`` and ``shutdown`` ops, and the shutdown order.  A subclass answers
its other ops in :meth:`FrameServer._dispatch` and adds its teardown in
:meth:`~FrameServer._on_stop` (connections still open) and
:meth:`~FrameServer._on_closed` (every connection ended):
:class:`repro.service.server.QueryService` and
:class:`repro.distributed.worker.WorkerServer`.  :class:`FrameServerThread`
runs either on a thread of its own, and :func:`serve_main` is the body of
both CLIs.  A worker process imports this module, so it imports nothing
beyond the frame protocol.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Optional, Set, Tuple

from repro.service import protocol


class FrameServer:
    """The asyncio frame server skeleton (see module docstring)."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 max_payload: int = protocol.DEFAULT_MAX_PAYLOAD_BYTES) -> None:
        self.host = host
        self.port = int(port)
        self.max_payload = int(max_payload)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._stopping: Optional[asyncio.Event] = None
        self._conn_tasks: Set[asyncio.Task] = set()

    # -------------------------------------------------------------- lifecycle
    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (valid after :meth:`start`)."""
        return (self.host, self.port)

    async def start(self) -> None:
        """Bind the listener; resolves ``self.port``."""
        self._loop = asyncio.get_running_loop()
        self._stopping = asyncio.Event()
        self._server = await asyncio.start_server(self._handle_connection,
                                                  self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    def request_stop(self) -> None:
        """Ask the server to shut down (call from the loop thread)."""
        if self._stopping is not None:
            self._stopping.set()

    async def serve_until_stopped(self) -> None:
        """Serve until :meth:`request_stop`, then tear everything down.

        The connection tasks end before ``wait_closed``: from Python 3.12
        on it waits for open connections, so an idle client would hold the
        shutdown.
        """
        await self._stopping.wait()
        self._server.close()
        await self._on_stop()
        # One loop pass: a just-accepted connection registers its task, and
        # a request that _on_stop answered writes its reply.
        await asyncio.sleep(0)
        tasks = list(self._conn_tasks)
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        await self._server.wait_closed()
        self._on_closed()

    async def _on_stop(self) -> None:
        """Stop the subclass's work while its connections are still open."""

    def _on_closed(self) -> None:
        """Release the subclass's resources once every connection ended."""

    # ------------------------------------------------------------ connections
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        try:
            while True:
                try:
                    frame = await protocol.read_frame_async(
                        reader, max_payload=self.max_payload)
                except protocol.ProtocolError as exc:
                    # Best-effort structured error, then drop the connection:
                    # after a framing error the stream offset is unknown.
                    await self._write(writer, {"status": protocol.STATUS_ERROR,
                                               "message": str(exc)})
                    break
                if frame is None:
                    break
                header, payload = frame
                try:
                    await self._dispatch(writer, header, payload)
                except ConnectionError:
                    raise
                except Exception as exc:  # noqa: BLE001 - per-request wall
                    await self._write(writer, {"status": protocol.STATUS_ERROR,
                                               "message": f"{type(exc).__name__}: {exc}"})
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self._conn_tasks.discard(task)
            writer.close()
            # Shutdown may cancel this task again while it waits here; an
            # escaping CancelledError would be logged by the stream
            # protocol's done callback.
            try:
                await writer.wait_closed()
            except (OSError, asyncio.CancelledError):
                pass

    async def _write(self, writer: asyncio.StreamWriter, header: dict,
                     payload: bytes = b"") -> None:
        writer.write(protocol.encode_frame(header, payload))
        await writer.drain()

    async def _dispatch(self, writer: asyncio.StreamWriter, header: dict,
                        payload: bytes) -> None:
        """Answer one request: subclasses answer their own ops and pass
        the rest here (``ping``, ``shutdown``, else an unknown-op error)."""
        op = header.get("op")
        if op == "ping":
            await self._write(writer, {"status": protocol.STATUS_OK,
                                       "pong": True})
        elif op == "shutdown":
            await self._write(writer, {"status": protocol.STATUS_OK,
                                       "stopping": True})
            self.request_stop()
        else:
            await self._write(writer, {"status": protocol.STATUS_ERROR,
                                       "message": f"unknown op {op!r}"})


class FrameServerThread:
    """Run a :class:`FrameServer` on its own thread and event loop.

    ``start()`` returns once the server listens, or raises at once with
    the bind error as its cause; ``stop()`` (or the context exit) shuts
    the server down and joins the thread.
    """

    def __init__(self, server: FrameServer) -> None:
        self.server = server
        self._thread: Optional[threading.Thread] = None

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def address(self) -> Tuple[str, int]:
        return self.server.address

    def start(self) -> "FrameServerThread":
        ready = threading.Event()
        failed = []

        async def main() -> None:
            try:
                await self.server.start()
            except BaseException as exc:  # noqa: BLE001 - reported to starter
                failed.append(exc)
                return
            finally:
                ready.set()
            await self.server.serve_until_stopped()

        self._thread = threading.Thread(target=asyncio.run, args=(main(),),
                                        name="repro-frame-server", daemon=True)
        self._thread.start()
        if not ready.wait(timeout=30.0):
            raise RuntimeError(f"{type(self.server).__name__} thread failed "
                               "to start in time")
        if failed:
            raise RuntimeError(f"{type(self.server).__name__} failed to "
                               "start") from failed[0]
        return self

    def stop(self) -> None:
        loop = self.server._loop
        if loop is not None and self._thread is not None \
                and self._thread.is_alive():
            try:
                loop.call_soon_threadsafe(self.server.request_stop)
            except RuntimeError:
                pass  # loop already closed
            self._thread.join(timeout=30.0)

    def __enter__(self) -> "FrameServerThread":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()


def serve_main(server: FrameServer, prog: str) -> int:
    """A CLI's body: start ``server``, print ``"<prog> listening on
    host:port"`` (flushed: harnesses read it through a pipe) and serve
    until a ``shutdown`` op or an interrupt."""
    async def serve() -> None:
        await server.start()
        print(f"{prog} listening on {server.host}:{server.port}", flush=True)
        await server.serve_until_stopped()

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:
        pass
    return 0
