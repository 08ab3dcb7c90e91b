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
  :class:`~repro.server.gateway.ExecutionGateway`.  With one worker and
  no statement timeout — the default — it runs them right on the
  event-loop thread: a converged query costs less than the thread hop
  it would otherwise pay.  The price is that a long statement (a cold
  crack of a big column, a checkpoint) delays every other connection,
  accept, HELLO and ``timeseries`` for its duration.  ``pool_size`` > 1
  or a ``statement_timeout`` moves engine calls onto the gateway's
  thread pool, where the engine's own RW locks interleave cracking
  writes and snapshot reads and the loop stays responsive;
* admission control refuses connections past ``max_connections`` with
  a typed ``overloaded`` error frame before closing.

Graceful shutdown (:meth:`ReproServer.stop`, wired to SIGTERM by the
``repro serve`` CLI) stops accepting, lets every connection answer the
requests it has already received, sends ``goodbye``, waits for
in-flight engine calls, then flushes the WAL and checkpoints the
persistent store — so a restart recovers the full served state with an
empty log tail.
"""

from __future__ import annotations

import asyncio
import threading
from collections import deque

from repro.errors import ProtocolError
from repro.obs.timeseries import TimeSeries
from repro.server.gateway import ExecutionGateway
from repro.server.protocol import (
    DEFAULT_CHUNK_BYTES,
    FrameDecoder,
    encode_frame,
    encode_result_frames,
    error_for_exception,
    error_reply,
    write_frame,
)
from repro.server.session import ClientSession

_READ_BYTES = 1 << 16  # one socket read; bounds a decoded run


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
        database: the shared engine.  Build it with ``concurrent=True``
            whenever ``pool_size`` > 1 (the CLI does).
        host/port: bind address; port 0 picks a free port (see
            :attr:`address` after :meth:`start`).
        max_connections: admission bound on simultaneous connections.
        pool_size: gateway worker threads.  1 without a
            ``statement_timeout`` runs engine calls inline on the
            event-loop thread; anything else uses the thread pool.
        max_pending: gateway admission bound across all connections
            (only threaded calls can pile up against it).
        statement_timeout: seconds per statement (None = unbounded).
        checkpoint_on_shutdown: checkpoint + close a persistent
            database during :meth:`stop` (reopen restarts warm with an
            empty WAL tail).
        drain_timeout: seconds to wait for workers to drain on stop.
        chunk_bytes: target payload size per binary result-chunk frame;
            results past it stream as bounded chunks instead of one
            giant frame.
        compression: honour a client's offer to zlib-compress large
            binary result-frame bodies (clients offer only when asked
            to: ``Client(compression=True)``).
        pipeline_batch: maximum pipelined statements folded into one
            engine trip per connection (1 disables batching).
        timeseries_interval: seconds between metrics ring samples (the
            ``timeseries`` wire message / ``repro top`` feed).
    """

    def __init__(
        self,
        database,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_connections: int = 64,
        pool_size: int = 1,
        max_pending: int = 64,
        statement_timeout: float | None = None,
        checkpoint_on_shutdown: bool = True,
        drain_timeout: float = 10.0,
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
        compression: bool = True,
        pipeline_batch: int = 128,
        timeseries_interval: float = 1.0,
    ) -> None:
        self.database = database
        self.host = host
        self.port = port
        self.max_connections = max_connections
        self.checkpoint_on_shutdown = checkpoint_on_shutdown
        self.drain_timeout = drain_timeout
        self.chunk_bytes = chunk_bytes
        self.compression = compression
        self.pipeline_batch = max(1, pipeline_batch)
        self.gateway = ExecutionGateway(
            pool_size=pool_size,
            max_pending=max_pending,
            statement_timeout=statement_timeout,
            inline=pool_size == 1 and statement_timeout is None,
        )
        self.timeseries = TimeSeries(interval=timeseries_interval)
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

        Sampling reads engine state (metric locks, cracker read locks),
        so it runs on an executor thread like any other engine work;
        a failed sample is skipped rather than killing the monitor.
        """
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(self.timeseries.interval)
            try:
                sample = await loop.run_in_executor(None, self._build_sample)
            except Exception:
                continue
            self.timeseries.record(sample)

    def _build_sample(self) -> dict:
        """One flat numeric sample of engine + server state."""
        sample: dict = {}
        snap = self.database.metrics.snapshot()
        statements = 0
        for key, hist in (
            snap["histograms"].get("repro_statement_seconds", {}).items()
        ):
            statements += hist["count"]
            if key == "kind=select":
                sample["select_p50_ms"] = hist["p50"] * 1000.0
                sample["select_p95_ms"] = hist["p95"] * 1000.0
                sample["select_p99_ms"] = hist["p99"] * 1000.0
        sample["statements"] = statements
        for name, source in (
            ("cracks", "repro_cracker_cracks"),
            ("tuples_moved", "repro_cracker_tuples_moved"),
            ("pieces", "repro_cracker_pieces"),
            ("generation", "repro_generation"),
            ("durable_generation", "repro_durable_generation"),
            ("checkpoint_in_flight", "repro_checkpoint_in_flight"),
            ("checkpoint_failures", "repro_checkpoint_failures"),
        ):
            gauges = snap["gauges"].get(source)
            if gauges:
                sample[name] = sum(gauges.values())
        server = self.stats()
        sample["connections"] = server["connections"]
        sample["queue_depth"] = server["queue_depth"]
        cracker = getattr(self.database, "_cracker", None)
        if cracker is not None and getattr(cracker, "profile", False):
            for introspection in cracker.introspections().values():
                last = introspection.convergence()["last"]
                if last is not None:
                    sample[f"convergence:{introspection.name}"] = last
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
        ``drain_timeout``) → wait out in-flight engine calls →
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
            _, pending = await asyncio.wait(tasks, timeout=self.drain_timeout)
            for task in pending:
                task.cancel()
        if self._server is not None:
            await self._server.wait_closed()
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self.gateway.shutdown)
        checkpoint = None
        if self.database.persistent and self.checkpoint_on_shutdown:
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
            compression=self.compression,
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
        chunked past ``chunk_bytes``, with a drain after every chunk so
        a huge SELECT streams under TCP backpressure instead of
        ballooning in the writer's buffer.
        """
        result = reply.pop("_result", None) if isinstance(reply, dict) else None
        if result is None:
            conn.writer.write(encode_frame(reply))
            return
        for frame in encode_result_frames(
            result,
            chunk_bytes=self.chunk_bytes,
            compression=conn.session.compression,
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
                    and len(batch) < self.pipeline_batch
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

        with Database(cracking=True, concurrent=True) as db:
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
