"""The asyncio TCP server: admission control and graceful shutdown.

One :class:`ReproServer` owns one shared
:class:`~repro.sql.session.Database` and serves it to many concurrent
connections.  The shape is run to completion:

* each connection is **one** task.  It reads whatever bytes have
  arrived, decodes them into request frames (JSON only — a binary frame
  from a client is refused undecoded), answers that run in order —
  consecutive plain statements folded into one engine trip — drains
  the socket, and only then reads again.  While it works it does not
  read: the stream buffer fills, the transport pauses, kernel buffers
  fill and the client blocks — backpressure without a queue, and
  without a dropped or reordered request;
* engine calls go through the
  :class:`~repro.server.gateway.ExecutionGateway`.  Without a statement
  timeout — the default — it runs them right on the event-loop thread:
  a converged query costs less than the thread hop it would otherwise
  pay.  The price is that a long statement (a cold crack of a big
  column, a checkpoint) delays every other connection, accept, HELLO
  and ``timeseries`` for its duration.  A ``statement_timeout`` moves
  engine calls onto one worker thread, so the loop stays responsive
  and can give up on a statement that runs too long;
* admission control refuses connections past ``max_connections`` with
  a typed ``overloaded`` error frame before closing.

Graceful shutdown (:meth:`ReproServer.stop`, wired to SIGTERM by the
``repro serve`` CLI) stops accepting, lets every connection answer the
requests it has already received, sends ``goodbye``, waits for
in-flight engine calls, then flushes the WAL and checkpoints the
persistent store — so a restart recovers the full served state with an
empty log tail.

Chunk size (:data:`~repro.server.protocol.CHUNK_BYTES`), pipelined
fold (:data:`PIPELINE_BATCH`), sampling period and drain wait are module
constants, not settings, and a client's zlib offer is always honoured.
"""

from __future__ import annotations

import asyncio
import threading
from collections import deque

from repro.errors import ProtocolError, SettingError
from repro.obs import timeseries
from repro.server.gateway import ExecutionGateway
from repro.server.protocol import (
    FrameDecoder,
    encode_frame,
    encode_result_frames,
    error_for_exception,
    error_reply,
    write_frame,
)
from repro.server.session import ClientSession

_READ_BYTES = 1 << 16  # one socket read; bounds a decoded run

#: Most pipelined statements folded into one engine trip per connection.
PIPELINE_BATCH = 128

#: Seconds :meth:`ReproServer.stop` lets connections finish their runs.
DRAIN_TIMEOUT_S = 10.0


class _Connection:
    """Book-keeping for one live connection."""

    def __init__(self, session, reader, writer) -> None:
        self.session = session
        self.reader = reader
        self.writer = writer
        self.task = asyncio.current_task()
        self.backlog: deque = deque()  # decoded requests, not yet taken up
        self.reading = False  # parked in read(): safe to cancel out of


class ReproServer:
    """Serve one database over the wire protocol.

    Args:
        database: the shared engine.
        host/port: bind address; port 0 picks a free port (see
            :attr:`address` after :meth:`start`).
        max_connections: admission bound on simultaneous connections.
        max_pending: gateway admission bound across all connections
            (only calls on the worker can pile up against it).
        statement_timeout: seconds per statement (None = unbounded, and
            engine calls run inline on the event-loop thread).

    A value that would make the server refuse all work raises
    :class:`~repro.errors.SettingError`.
    """

    def __init__(
        self,
        database,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_connections: int = 64,
        max_pending: int = 64,
        statement_timeout: float | None = None,
    ) -> None:
        if not 0 <= port <= 65535:
            raise SettingError("port", "in 0..65535", port)
        if max_connections < 1:
            raise SettingError("max_connections", ">= 1", max_connections)
        self.database = database
        self.host = host
        self.port = port
        self.max_connections = max_connections
        self.gateway = ExecutionGateway(
            max_pending=max_pending, statement_timeout=statement_timeout
        )
        self.timeseries = timeseries.TimeSeries()
        self._sampler_task: asyncio.Task | None = None
        self._server: asyncio.AbstractServer | None = None
        self._connections: dict[int, _Connection] = {}
        self._next_session = 1
        self._draining = False
        self.accepted = 0
        self.refused = 0

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    async def start(self) -> None:
        """Bind and start accepting connections."""
        self._server = await asyncio.start_server(
            self._accept, self.host, self.port
        )
        self._sampler_task = asyncio.ensure_future(self._sample_loop())

    async def _sample_loop(self) -> None:
        """Feed the metrics ring once per interval until shutdown.

        Sampling only reads engine state, under the engine's own metric
        and cracker read locks, so it runs on an executor thread where
        waiting on a lock blocks no connection; a failed sample is
        skipped rather than killing the monitor.
        """
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(timeseries.INTERVAL_S)
            try:
                sample = await loop.run_in_executor(None, self._build_sample)
            except Exception:
                continue
            self.timeseries.record(sample)

    def _build_sample(self) -> dict:
        """One flat numeric sample of engine + server state, built from
        one :meth:`Database.stats` call."""
        engine = self.database.stats()
        sample: dict = {}
        statements = 0
        for key, hist in (
            engine["metrics"]["histograms"].get("repro_statement_seconds", {}).items()
        ):
            statements += hist["count"]
            if key == "kind=select":
                sample["select_p50_ms"] = hist["p50"] * 1000.0
                sample["select_p95_ms"] = hist["p95"] * 1000.0
                sample["select_p99_ms"] = hist["p99"] * 1000.0
        sample["statements"] = statements
        columns = engine["cracker_detail"].values()
        if columns:
            for key in ("cracks", "tuples_moved", "pieces"):
                sample[key] = sum(column[key] for column in columns)
        persistence = engine["persistence"]
        if persistence["persistent"]:
            for key in ("generation", "durable_generation",
                        "checkpoint_in_flight", "checkpoint_failures"):
                sample[key] = int(persistence[key])
        server = self.stats()
        sample["connections"] = server["connections"]
        sample["queue_depth"] = server["queue_depth"]
        for name, curve in engine["convergence"].items():
            if curve["last"] is not None:
                sample[f"convergence:{name}"] = curve["last"]
        return sample

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port) — useful after binding port 0."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("server is not started")
        name = self._server.sockets[0].getsockname()
        return name[0], name[1]

    async def serve_until(self, stop: asyncio.Event) -> dict:
        """Run until ``stop`` is set, then shut down gracefully."""
        if self._server is None:
            await self.start()
        await stop.wait()
        return await self.stop()

    async def stop(self) -> dict:
        """Graceful shutdown; returns a report of what was drained.

        Order: stop accepting → let every connection answer what it
        has already received and say goodbye (bounded by
        :data:`DRAIN_TIMEOUT_S`) → wait out in-flight engine calls →
        checkpoint + close the persistent store.
        """
        self._draining = True
        drained = len(self._connections)
        if self._sampler_task is not None:
            self._sampler_task.cancel()
            self._sampler_task = None
        if self._server is not None:
            self._server.close()
        tasks = []
        for conn in self._connections.values():
            tasks.append(conn.task)
            if conn.reading:
                conn.task.cancel()  # idle: wake it up to say goodbye
        if tasks:
            _, pending = await asyncio.wait(tasks, timeout=DRAIN_TIMEOUT_S)
            for task in pending:
                task.cancel()
        if self._server is not None:
            await self._server.wait_closed()
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self.gateway.shutdown)
        checkpoint = None
        if self.database.persistent:
            checkpoint = await loop.run_in_executor(
                None, self.database.checkpoint
            )
        await loop.run_in_executor(None, self.database.close)
        return {
            "connections_drained": drained,
            "accepted": self.accepted,
            "refused": self.refused,
            "checkpoint": checkpoint,
        }

    def stats(self) -> dict:
        """Server-level counters (merged into STATS replies).

        ``queue_depth`` is the instantaneous count, over all
        connections, of requests received and decoded but not yet taken
        up (they wait behind the one being answered) — the live
        backpressure signal the METRICS exposition surfaces as a gauge.
        It is bounded per connection by what one socket read can hold.
        """
        return {
            "connections": len(self._connections),
            "max_connections": self.max_connections,
            "accepted": self.accepted,
            "refused": self.refused,
            "draining": self._draining,
            "queue_depth": sum(
                len(conn.backlog) for conn in list(self._connections.values())
            ),
        }

    # ------------------------------------------------------------------ #
    # Connection handling
    # ------------------------------------------------------------------ #

    async def _accept(self, reader, writer) -> None:
        if self._draining:
            await self._refuse(writer, "shutting_down", "server is draining")
            return
        if len(self._connections) >= self.max_connections:
            self.refused += 1
            await self._refuse(
                writer,
                "overloaded",
                f"connection limit of {self.max_connections} reached",
            )
            return
        self.accepted += 1
        session_id = self._next_session
        self._next_session += 1
        session = ClientSession(
            self.database,
            self.gateway,
            session_id,
            server_stats=self.stats,
            timeseries=self.timeseries.snapshot,
        )
        conn = self._connections[session_id] = _Connection(session, reader, writer)
        try:
            await self._serve(conn)
        finally:
            del self._connections[session_id]

    async def _refuse(self, writer, code: str, message: str) -> None:
        try:
            await write_frame(writer, error_reply(code, message))
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    async def _write_reply(self, conn: _Connection, reply: dict) -> None:
        """Write one reply without draining (the caller batches drains).

        A bulk result reply carries the raw :class:`QueryResult` under
        ``"_result"``: it is encoded here into binary columnar frames —
        chunked past :data:`~repro.server.protocol.CHUNK_BYTES`, with a
        drain after every chunk so a huge SELECT streams under TCP
        backpressure instead of ballooning in the writer's buffer.
        """
        result = reply.pop("_result", None) if isinstance(reply, dict) else None
        if result is None:
            conn.writer.write(encode_frame(reply))
            return
        for frame in encode_result_frames(
            result, compression=conn.session.compression
        ):
            conn.writer.write(frame)
            await conn.writer.drain()

    async def _serve(self, conn: _Connection) -> None:
        """One connection, start to finish: read, answer the run, repeat."""
        writer = conn.writer
        decoder = FrameDecoder(requests=True)
        try:
            while not conn.session.closing:
                data = b""
                if not self._draining:
                    conn.reading = True
                    try:
                        data = await conn.reader.read(_READ_BYTES)
                    except asyncio.CancelledError:
                        if not self._draining:  # else: stop() woke us up
                            raise
                    finally:
                        conn.reading = False
                if not data:  # the client went away, or the server drains
                    if self._draining:
                        await write_frame(
                            writer, {"type": "goodbye", "reason": "server shutdown"}
                        )
                    break
                fatal = None
                try:
                    conn.backlog.extend(decoder.messages(data))
                except ProtocolError as exc:
                    # Framing is unrecoverable mid-stream: answer what
                    # decoded before it, report, hang up.
                    fatal = exc
                await self._answer(conn)
                if fatal is not None:
                    await write_frame(writer, error_for_exception(fatal))
                    break
        except (ConnectionError, OSError):
            pass  # client vanished mid-reply
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _answer(self, conn: _Connection) -> None:
        """Reply, in order, to every request in the connection's backlog.

        Pipelining: the run of plain statements at the head of the
        backlog is folded into one engine trip.  Anything non-batchable
        (txn control, stats, hello) ends the run and is handled by
        itself, so reply order always matches request order.
        """
        backlog, session, writer = conn.backlog, conn.session, conn.writer
        while backlog and not session.closing:
            message = backlog.popleft()
            batch = [message]
            if session.batchable(message):
                while (
                    backlog
                    and len(batch) < PIPELINE_BATCH
                    and session.batchable(backlog[0])
                ):
                    batch.append(backlog.popleft())
            if len(batch) > 1:
                replies = await session.handle_many(batch)
            else:
                replies = [await session.handle(message)]
            for reply in replies:
                try:
                    await self._write_reply(conn, reply)
                except ProtocolError as exc:
                    # The reply overflowed the frame cap (a few rows of
                    # huge varchars in a JSON reply): the error frame
                    # is small, so the client gets a typed reply per
                    # statement and the connection lives.
                    writer.write(encode_frame(error_for_exception(exc)))
            await writer.drain()


class ServerThread:
    """A server on a background thread — for tests, benches, examples.

    Runs its own event loop; :meth:`start` blocks until the port is
    bound and returns ``(host, port)``, :meth:`stop` triggers the same
    graceful shutdown as SIGTERM and returns its report::

        with Database(cracking=True) as db:
            thread = ServerThread(db)
            host, port = thread.start()
            ... connect Clients ...
            report = thread.stop()
    """

    def __init__(self, database, **server_kwargs) -> None:
        self.database = database
        self.server_kwargs = server_kwargs
        self.server: ReproServer | None = None
        self.report: dict | None = None
        self._ready = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._thread: threading.Thread | None = None
        self._startup_error: BaseException | None = None

    def start(self, timeout: float = 10.0) -> tuple[str, int]:
        self._thread = threading.Thread(
            target=self._run, name="repro-server", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("server thread failed to start in time")
        if self._startup_error is not None:
            raise self._startup_error
        assert self.server is not None
        return self.server.address

    def stop(self, timeout: float = 30.0) -> dict:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        if self._thread is not None:
            self._thread.join(timeout)
        if self.report is None:
            raise RuntimeError("server thread did not shut down cleanly")
        return self.report

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self.server = ReproServer(self.database, **self.server_kwargs)
        try:
            await self.server.start()
        except BaseException as exc:
            self._startup_error = exc
            self._ready.set()
            return
        self._ready.set()
        self.report = await self.server.serve_until(self._stop)
