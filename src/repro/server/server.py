"""The TCP server: one ``selectors`` loop, admission control, graceful shutdown.

One :class:`ReproServer` serves one shared
:class:`~repro.sql.session.Database` from one thread, which runs a
``selectors`` loop over the listening socket, the connections and a
wake-up socketpair.  A readable connection is read **once** (at most
64 KiB); its requests (JSON only — a binary frame is refused undecoded)
are answered in order, up to :data:`PIPELINE_BATCH` of them per run,
each session calling the engine itself, inline on the loop thread.  A
run's small replies are encoded straight into the connection's outgoing
bytes; a bulk result streams, its next chunk encoded only once the
previous one has left.  Replies leave by non-blocking ``send``, and a
connection with bytes or chunks still owed is not read again until they
drain — TCP backpressure without a queue, nothing dropped or reordered.
Under a ``statement_timeout`` each statement runs to a deadline the
engine checks at its own boundaries (:mod:`repro.governor`): past it,
the statement stops with no effect and gets a typed ``timeout`` reply.
While one statement runs, every other connection waits;
``loop_stall_max_ms`` in :meth:`ReproServer.stats` reports the longest
such wait.  Connections past ``max_connections`` get a typed
``overloaded`` error frame.

Graceful shutdown (:meth:`ReproServer.stop`, which SIGTERM calls in
``repro serve``) stops accepting, lets every connection answer what it
has already received, sends ``goodbye``, then checkpoints the
persistent store, so a restart recovers the served state with an empty
WAL tail.  Chunk size, pipelined run length
(:data:`PIPELINE_BATCH`), sampling period and drain wait are module
constants, not settings.
"""

from __future__ import annotations

import contextlib
import functools
import selectors
import socket
import threading
import time
import traceback
from collections import deque

from repro.errors import ProtocolError, SettingError
from repro.obs import timeseries
from repro.server.protocol import (
    FrameDecoder,
    encode_frame,
    encode_result_frames,
    error_for_exception,
    error_reply,
)
from repro.server.session import ClientSession

_READ_BYTES = 1 << 16  # one socket read; bounds a decoded run

#: Most pipelined requests answered in one run per connection.
PIPELINE_BATCH = 128

#: Seconds a graceful shutdown lets connections finish their runs.
DRAIN_TIMEOUT_S = 10.0

_READ, _WRITE = selectors.EVENT_READ, selectors.EVENT_WRITE


def _encoded(reply: dict) -> bytes:
    """A small reply's frame; past the frame cap, a (small) typed error's."""
    try:
        return encode_frame(reply)
    except ProtocolError as exc:
        return encode_frame(error_for_exception(exc))


class _Connection:
    """Book-keeping for one live connection."""

    def __init__(self, sock, session) -> None:
        self.sock = sock
        self.session = session
        self.ready = None  # the selector callback: ready(mask)
        self.decoder = FrameDecoder(requests=True)
        self.backlog: deque = deque()  # decoded requests, not yet taken up
        self.frames = None  # the rest of the current run's reply frames
        self.out = b""  # encoded, not yet sent
        self.fatal: ProtocolError | None = None  # report, then hang up
        self.hangup = False  # close once everything owed is sent
        self.events = 0  # what the selector watches for


class ReproServer:
    """Serve one database over the wire protocol.

    Args:
        database: the shared engine.
        host/port: bind address; port 0 picks a free port (see
            :attr:`address` after :meth:`start`).
        max_connections: admission bound on simultaneous connections.
        statement_timeout: seconds a statement may run before the engine
            stops it, with no effect (None = unbounded).

    A value that would make the server refuse all work raises
    :class:`~repro.errors.SettingError`.  :meth:`start` binds, then
    :meth:`serve_forever` runs the loop on the calling thread until
    :meth:`stop`.
    """

    def __init__(
        self,
        database,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_connections: int = 64,
        statement_timeout: float | None = None,
    ) -> None:
        if not 0 <= port <= 65535:
            raise SettingError("port", "in 0..65535", port)
        if max_connections < 1:
            raise SettingError("max_connections", ">= 1", max_connections)
        if statement_timeout is not None and not statement_timeout > 0:
            raise SettingError(
                "statement_timeout", "> 0 seconds or None", statement_timeout
            )
        self.database = database
        self.host = host
        self.port = port
        self.max_connections = max_connections
        self.statement_timeout = statement_timeout
        self.executed = 0  # statements run, counted by the sessions
        self.timeouts = 0  # of them, stopped at their deadline
        self.timeseries = timeseries.TimeSeries()
        self._selector = self._listener = self._wake_r = self._wake_w = None
        self._sampler = threading.Thread(
            target=self._sample_loop, name="repro-sampler", daemon=True
        )
        self._sampler_stop = threading.Event()
        self._connections: dict[int, _Connection] = {}
        self._next_session = 1
        self._stop_requested = False  # set by stop(), from any thread
        self._draining = False  # the loop's own view of it
        self._drain_deadline = 0.0
        self._drained = 0
        self.accepted = 0
        self.refused = 0
        self.loop_stall_max = 0.0  # seconds, the longest pass between selects

    def start(self) -> None:
        """Bind, and start the once-a-second sampler."""
        family = socket.getaddrinfo(self.host, self.port, type=socket.SOCK_STREAM)[0][0]
        self._listener = socket.create_server((self.host, self.port), family=family)
        self._selector = selectors.DefaultSelector()
        self._wake_r, self._wake_w = socket.socketpair()
        for sock, callback in (
            (self._listener, lambda mask: self._accept()),
            (self._wake_r, lambda mask: self._wake_r.recv(4096)),
        ):
            sock.setblocking(False)
            self._selector.register(sock, _READ, callback)
        self._wake_w.setblocking(False)
        self._sampler.start()

    def _sample_loop(self) -> None:
        """Feed the metrics ring once per interval until shutdown, on
        its own thread, where waiting on an engine lock blocks no
        connection; a failed sample is skipped."""
        while not self._sampler_stop.wait(timeseries.INTERVAL_S):
            try:
                sample = self._build_sample()
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
        if self._listener is None:
            raise RuntimeError("server is not started")
        return self._listener.getsockname()[:2]

    def stop(self) -> None:
        """Ask the loop for a graceful shutdown; returns at once.  Safe
        from any thread and from a signal handler: it only sets a flag
        and writes to the wake-up socket."""
        self._stop_requested = True
        try:
            self._wake_w.send(b"\0")
        except OSError:
            pass  # full: the loop is awake already (or closed: it is gone)

    def serve_forever(self) -> dict:
        """Run the loop until :meth:`stop`, then shut down (see the
        module docstring; connections get :data:`DRAIN_TIMEOUT_S`) and
        return a report of what was drained."""
        while not self._draining or (
            self._connections and time.monotonic() < self._drain_deadline
        ):
            events = self._selector.select(self._select_timeout())
            began = time.perf_counter()
            for key, mask in events:
                key.data(mask)
            if self._stop_requested and not self._draining:
                self._begin_drain()
            self.loop_stall_max = max(self.loop_stall_max, time.perf_counter() - began)
        for conn in list(self._connections.values()):
            self._close(conn)
        self._sampler_stop.set()
        self._sampler.join()
        self._selector.close()
        self._wake_r.close()
        self._wake_w.close()
        checkpoint = None
        if self.database.persistent:
            checkpoint = self.database.checkpoint()
        self.database.close()
        return {
            "connections_drained": self._drained,
            "accepted": self.accepted,
            "refused": self.refused,
            "checkpoint": checkpoint,
        }

    def _select_timeout(self) -> float | None:
        """Until the drain deadline while draining; None = none."""
        if not self._draining:
            return None
        return max(0.0, self._drain_deadline - time.monotonic())

    def _begin_drain(self) -> None:
        self._draining = True
        self._drain_deadline = time.monotonic() + DRAIN_TIMEOUT_S
        self._drained = len(self._connections)
        self._selector.unregister(self._listener)
        self._listener.close()
        for conn in list(self._connections.values()):
            self._step(conn, 0)  # an idle connection says goodbye now

    def stats(self) -> dict:
        """Server-level counters (merged into STATS replies).

        ``queue_depth`` counts requests decoded but not yet taken up, over
        all connections: the live backpressure gauge, bounded per
        connection by what one socket read can hold.  ``loop_stall_max_ms``
        is the longest the loop spent away from ``select()``: how long one
        statement (or one read's run) kept every other connection waiting.
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
            "loop_stall_max_ms": self.loop_stall_max * 1000.0,
        }

    def gateway_stats(self) -> dict:
        """STATS' ``gateway`` section: the statement timeout and the
        statement counters.  ``peak_pending`` and ``rejected`` keep the
        keys monitors read: with every statement inline, nothing waits
        behind another and nothing is refused, so they read 1 (once a
        statement ran) and 0."""
        return {
            "statement_timeout": self.statement_timeout,
            "peak_pending": min(self.executed, 1),
            "executed": self.executed,
            "timeouts": self.timeouts,
            "rejected": 0,
        }

    def _accept(self) -> None:
        while True:
            try:
                sock, _ = self._listener.accept()
            except OSError:  # nothing left to accept (or out of fds)
                return
            sock.setblocking(False)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if len(self._connections) >= self.max_connections:
                self.refused += 1
                limit = f"connection limit of {self.max_connections} reached"
                with contextlib.suppress(OSError):
                    sock.send(encode_frame(error_reply("overloaded", limit)))
                sock.close()
                continue
            self.accepted += 1
            session_id = self._next_session
            self._next_session += 1
            conn = _Connection(sock, ClientSession(self, session_id))
            conn.ready = functools.partial(self._step, conn)
            self._connections[session_id] = conn
            self._watch(conn, _READ)

    def _step(self, conn: _Connection, mask: int) -> None:
        """Serve one connection's event: read once if it is readable (not
        a hang-up while writing), then pump.  A failure drops that
        connection and the loop goes on."""
        try:
            if mask & conn.events & _READ:
                data = conn.sock.recv(_READ_BYTES)
                if not data:  # the client went away
                    self._close(conn)
                    return
                try:
                    conn.backlog.extend(conn.decoder.messages(data))
                except ProtocolError as exc:
                    # Framing is unrecoverable mid-stream: answer what
                    # decoded before it, report, hang up.
                    conn.fatal = exc
            self._pump(conn)
        except BlockingIOError:
            pass  # a spurious wake-up
        except OSError:
            self._close(conn)  # the client vanished mid-reply
        except Exception:
            traceback.print_exc()
            self._close(conn)

    def _pump(self, conn: _Connection) -> None:
        """Move the connection on as far as it goes without blocking,
        then watch for what it waits on."""
        while True:
            if conn.out:
                try:
                    sent = conn.sock.send(conn.out)
                except BlockingIOError:
                    sent = 0
                if sent < len(conn.out):
                    conn.out = memoryview(conn.out)[sent:]
                    self._watch(conn, _WRITE)
                    return
                conn.out = b""
            if conn.frames is not None:
                conn.out = next(conn.frames, b"")
                if conn.out:
                    continue
                conn.frames = None
            if conn.backlog and not conn.session.closing:
                self._take_run(conn)
            elif conn.fatal is not None:
                conn.out = encode_frame(error_for_exception(conn.fatal))
                conn.fatal, conn.hangup = None, True
            elif conn.hangup or conn.session.closing:
                self._close(conn)
                return
            elif self._draining:
                conn.out = encode_frame({"type": "goodbye", "reason": "server shutdown"})
                conn.hangup = True
            else:
                self._watch(conn, _READ)
                return

    def _take_run(self, conn: _Connection) -> None:
        """Answer the next run of the backlog: up to :data:`PIPELINE_BATCH`
        requests in order, stopping after one that closes the session;
        their replies leave together."""
        backlog, session = conn.backlog, conn.session
        replies = []
        while backlog and len(replies) < PIPELINE_BATCH and not session.closing:
            replies.append(session.handle(backlog.popleft()))
        self._reply(conn, replies)

    def _reply(self, conn: _Connection, replies: list) -> None:
        """Queue a run's replies on an idle connection: small ones straight
        into ``conn.out``; from the first bulk one on, :meth:`_frames`."""
        out = []
        for index, reply in enumerate(replies):
            if "_result" in reply:
                conn.frames = self._frames(replies[index:])
                break
            out.append(_encoded(reply))
        conn.out = b"".join(out)

    @staticmethod
    def _frames(replies: list):
        """The frames of a run's replies from its first bulk one on: a bulk
        reply's raw :class:`QueryResult` (``"_result"``) streams as chunks
        under TCP backpressure instead of ballooning in memory; the small
        replies between them leave together."""
        small = []
        for reply in replies:
            result = reply.pop("_result", None)
            if result is None:
                small.append(_encoded(reply))
                continue
            if small:
                yield b"".join(small)
                small = []
            try:
                yield from encode_result_frames(result)
            except ProtocolError as exc:  # a chunk overflowed the frame cap
                small.append(_encoded(error_for_exception(exc)))
        if small:
            yield b"".join(small)

    def _watch(self, conn: _Connection, events: int) -> None:
        if events == conn.events:
            return
        if not conn.events:
            self._selector.register(conn.sock, events, conn.ready)
        elif not events:
            self._selector.unregister(conn.sock)
        else:
            self._selector.modify(conn.sock, events, conn.ready)
        conn.events = events

    def _close(self, conn: _Connection) -> None:
        if self._connections.pop(conn.session.session_id, None) is None:
            return
        if conn.events:
            self._selector.unregister(conn.sock)
        conn.sock.close()


class ServerThread:
    """A server on a background thread — for tests, benches, examples.

    :meth:`start` binds and returns ``(host, port)``; :meth:`stop`
    triggers the same graceful shutdown as SIGTERM and returns its
    report.
    """

    def __init__(self, database, **server_kwargs) -> None:
        self.database = database
        self.server_kwargs = server_kwargs
        self.server: ReproServer | None = None
        self.report: dict | None = None
        self._thread: threading.Thread | None = None

    def start(self) -> tuple[str, int]:
        self.server = ReproServer(self.database, **self.server_kwargs)
        self.server.start()
        self._thread = threading.Thread(
            target=self._run, name="repro-server", daemon=True
        )
        self._thread.start()
        return self.server.address

    def _run(self) -> None:
        self.report = self.server.serve_forever()

    def stop(self, timeout: float = 30.0) -> dict:
        if self.server is not None:
            self.server.stop()
        if self._thread is not None:
            self._thread.join(timeout)
        if self.report is None:
            raise RuntimeError("server thread did not shut down cleanly")
        return self.report
