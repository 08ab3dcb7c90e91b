"""Client library for the repro wire protocol (sync and asyncio).

:class:`Client` is the blocking flavour::

    from repro.client import Client

    with Client(host, port) as client:
        client.execute("CREATE TABLE r (k integer, a integer)")
        client.execute("INSERT INTO r VALUES (1, 10), (2, 20)")
        result = client.execute("SELECT * FROM r WHERE a BETWEEN 5 AND 15")
        result.rows                       # [(1, 10)]
        stmt = client.prepare("SELECT count(*) FROM r WHERE a BETWEEN 0 AND 10")
        stmt.execute((5, 25)).scalar()    # rebinds the literals

:class:`AsyncClient` speaks the same API with ``await``.

Both are thin transports over one sans-IO core (:class:`_ClientCore`),
so the two flavours cannot drift apart.

Bulk results arrive as binary columnar frames (raw numpy column
buffers, chunk-streamed when large) and stay columnar:
``result.arrays`` holds the decoded columns and ``result.rows`` builds
tuples only when first read.  Small results arrive as JSON.  Frames
cross the wire raw unless the client asks: ``compression=True`` offers
zlib in HELLO, which pays only on a link slower than ~50 MB/s (zlib-1
runs at ~105 MB/s; on loopback it doubled a bulk reply's round trip).
``execute_many`` pipelines a batch of statements: a window of requests
goes out before any reply is read, amortising network round-trips and
letting the server fold the run into one engine trip.

Both reconnect: a dropped connection is re-established (with retries
and backoff), the HELLO handshake is replayed and every live prepared
statement is transparently re-prepared before the failed request is
retried once.  Retry discipline: only *idempotent* requests (SELECT,
prepare/execute of prepared SELECTs, stats) are retried.  A mutation
(INSERT/UPDATE/DELETE/CREATE/SELECT INTO) whose connection died
mid-request raises :class:`~repro.errors.AmbiguousResultError` instead
— the server may or may not have applied it before dying, and a blind
retry would double-apply; the client reconnects first, so the caller
can inspect server state and decide.  Relatedly, a ``timeout`` error
reply means the *caller* gave up, not that the engine did — the server
cannot kill a thread mid-crack, so the timed-out mutation (or COMMIT
batch) may still complete and be WAL-logged in the background; blind
resubmission after a timeout can equally double-apply.  An open
transaction does not survive a reconnect: its server-side buffer died
with the connection, so the client raises instead of silently
committing half a transaction.

Server-side failures arrive as typed replies and raise
:class:`~repro.errors.RemoteError` with the wire ``code``
(``"syntax"``, ``"catalog"``, ``"timeout"``, ``"overloaded"``...);
transport failures raise :class:`~repro.errors.ServerUnavailableError`.
"""

from __future__ import annotations

import asyncio
import socket
import time
from collections import deque

from repro.errors import (
    AmbiguousResultError,
    ProtocolError,
    RemoteError,
    ServerUnavailableError,
    TransactionError,
)
from repro.server.protocol import (
    PROTOCOL_VERSION,
    SUPPORTED_COMPRESSIONS,
    FrameDecoder,
    ResultAssembler,
    encode_frame,
)
from repro.sql.session import QueryResult

_RECV_BYTES = 1 << 16

#: Requests written before the first reply is read in ``execute_many``
#: — big enough to amortise round-trips, small enough that a window of
#: requests can never wedge both peers' kernel buffers.
DEFAULT_PIPELINE_WINDOW = 64


def _statement_mutates(sql: str) -> bool:
    """Client-side classification: could this statement change state?

    Deliberately conservative and parser-free: the first keyword decides,
    except SELECT, which mutates only with an INTO clause (detected as a
    bare ``into`` token outside string literals).  Unknown verbs count as
    mutations — they will fail server-side anyway, and guessing
    "idempotent" on an unrecognised statement is how double-applies ship.
    """
    i, n = 0, len(sql)
    while i < n:
        if sql[i].isspace():
            i += 1
        elif sql.startswith("--", i):
            while i < n and sql[i] != "\n":
                i += 1
        else:
            break
    start = i
    while i < n and (sql[i].isalpha() or sql[i] == "_"):
        i += 1
    verb = sql[start:i].lower()
    if verb != "select":
        return True
    in_string = False
    word = []
    for ch in sql[i:]:
        if ch == "'":
            in_string = not in_string
            word = []
        elif not in_string and (ch.isalnum() or ch == "_"):
            word.append(ch)
        else:
            if not in_string and "".join(word).lower() == "into":
                return True
            word = []
    return "".join(word).lower() == "into"


def _result_from_reply(reply: dict) -> QueryResult:
    """Rehydrate a ``result`` reply into the embedded result type: a
    binary reply stays columnar (tuples are built only if ``rows`` is
    read), a small JSON reply is row-native."""
    try:
        columns = list(reply["columns"])
        affected = int(reply.get("affected", 0))
        if "cols" in reply:
            return QueryResult(
                columns, affected=affected, arrays=dict(zip(columns, reply["cols"]))
            )
        rows = [tuple(row) for row in reply["rows"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed result reply: {exc!r}") from None
    return QueryResult(columns, rows, affected=affected)


def _remote_error(reply: dict) -> RemoteError:
    return RemoteError(reply.get("code", "internal"), reply.get("message", ""))


def _check_reply(reply: dict, expected: str) -> dict:
    if reply.get("type") == "error":
        raise _remote_error(reply)
    if reply.get("type") != expected:
        raise ProtocolError(
            f"expected a {expected!r} reply, got {reply.get('type')!r}"
        )
    return reply


class Prepared:
    """A server-side prepared statement held by a client.

    Survives reconnects: the client re-prepares it on a new connection
    and swaps the handle in place.
    """

    def __init__(self, client, sql: str, handle: str, parameter_count: int):
        self._client = client
        self.sql = sql
        self.handle = handle
        self.parameter_count = parameter_count
        self.closed = False

    def execute(self, params=None, mode: str | None = None) -> QueryResult:
        return self._client._run(
            self._client._execute_prepared(self, params, mode)
        )

    def close(self) -> None:
        return self._client._run(self._client._deallocate(self))


class AsyncPrepared(Prepared):
    """Prepared-statement helper of :class:`AsyncClient` (awaitable)."""

    async def execute(self, params=None, mode: str | None = None) -> QueryResult:
        return await super().execute(params, mode)

    async def close(self) -> None:
        await super().close()


class _ClientCore:
    """Every client operation, written once, without I/O.

    Each ``_operation`` method is a generator.  It *yields* transport
    steps — ``("open", None)``, ``("send", bytes)``, ``("recv", None)``,
    ``("sleep", seconds)``, ``("close", None)`` — and whoever drives it
    (:meth:`Client._run` over a socket, :meth:`AsyncClient._run` over
    asyncio streams, a test over a script) performs the step and resumes
    the generator with the outcome (``recv`` → the bytes read, empty on
    EOF), or throws in the ``OSError`` the step hit.  The generator's
    return value is the operation's result.  Framing, reply reassembly,
    the handshake, reconnect and retry discipline all live here.
    """

    _prepared_class = Prepared

    def __init__(
        self,
        host: str,
        port: int,
        *,
        mode: str | None = None,
        client_name: str = "repro-client",
        reconnect: bool = True,
        max_retries: int = 3,
        retry_delay: float = 0.05,
        compression: bool = False,
    ) -> None:
        self.host = host
        self.port = port
        self.mode = mode
        self.client_name = client_name
        self.reconnect = reconnect
        self.max_retries = max_retries
        self.retry_delay = retry_delay
        self.offer_compression = compression
        #: Learned per connection from the HELLO reply.
        self.protocol_version = PROTOCOL_VERSION
        self.compression: str | None = None
        self.server_info: dict = {}
        self.in_transaction = False
        self._prepared: list[Prepared] = []
        self._connected = False
        self._decoder = FrameDecoder()
        self._inbox: deque = deque()  # decoded but not yet consumed

    def _connect(self):
        """(Re-)establish the connection, handshake, re-prepare."""
        yield from self._disconnect()
        last: Exception | None = None
        for attempt in range(self.max_retries + 1):
            try:
                yield ("open", None)
                break
            except OSError as exc:
                last = exc
                if attempt < self.max_retries:
                    yield ("sleep", self.retry_delay * (attempt + 1))
        else:
            raise ServerUnavailableError(
                f"cannot connect to {self.host}:{self.port}: {last}"
            )
        self._connected = True
        self._decoder = FrameDecoder()
        self._inbox.clear()  # stale frames died with the old connection
        hello = {
            "type": "hello",
            "protocol": PROTOCOL_VERSION,
            "versions": [PROTOCOL_VERSION],
            "compression": (
                list(SUPPORTED_COMPRESSIONS) if self.offer_compression else []
            ),
            "client": self.client_name,
        }
        (reply,) = yield from self._exchange([hello])
        self.server_info = _check_reply(reply, "hello")
        self.protocol_version = reply.get("protocol", PROTOCOL_VERSION)
        self.compression = reply.get("compression")
        for prepared in self._prepared:
            (fresh,) = yield from self._exchange(
                [{"type": "prepare", "sql": prepared.sql}]
            )
            prepared.handle = _check_reply(fresh, "prepared")["handle"]

    def _disconnect(self):
        if self._connected:
            self._connected = False
            yield ("close", None)

    def _close(self):
        """Polite goodbye, then drop the connection (idempotent)."""
        if self._connected:
            try:
                yield from self._exchange([{"type": "close"}])
            except (ServerUnavailableError, ProtocolError):
                pass
            yield from self._disconnect()

    # -------------------------------------------------------------- #
    # Exchange
    # -------------------------------------------------------------- #

    def _exchange(self, messages: list[dict]):
        """Send a window of requests, then read one *logical* reply for
        each (chunk streams are reassembled), in order, on the current
        connection — no retry."""
        if not self._connected:
            raise ServerUnavailableError("client is not connected")
        replies = []
        inbox, assembler = self._inbox, ResultAssembler()
        try:
            yield ("send", b"".join(map(encode_frame, messages)))
            for message in messages:
                reply = None
                while reply is None:
                    while not inbox:
                        data = yield ("recv", None)
                        if not data:
                            raise ServerUnavailableError(
                                "server closed the connection"
                            )
                        inbox.extend(self._decoder.feed(data))
                    reply = assembler.feed(inbox.popleft())
                # A goodbye we didn't ask for is the server shutting down
                # under us; surface it as unavailability so the reconnect
                # path engages.  (One coalesced into the same recv as a
                # reply waits in the inbox and surfaces here next time.)
                if reply.get("type") == "goodbye" and message.get("type") != "close":
                    raise ServerUnavailableError("server shut down (goodbye received)")
                replies.append(reply)
        except OSError as exc:
            raise ServerUnavailableError(f"connection lost: {exc}") from exc
        return replies

    def _request(self, message: dict, prepared: "Prepared | None" = None):
        """Exchange with reconnect-and-retry-once on transport failure
        (idempotent requests only: see "Retry discipline" in the module
        docstring; after an ambiguous mutation the client still
        reconnects, best effort, so the caller can verify).

        ``prepared`` names the statement a handle-bearing message refers
        to: reconnecting re-prepares it under a *new* handle, so the
        retried message must carry the refreshed one, not the original.
        """
        try:
            return (yield from self._exchange([message]))[0]
        except ServerUnavailableError:
            if not self.reconnect:
                raise
            if self.in_transaction:
                # The server-side transaction buffer died with the
                # connection; retrying would silently drop its prefix.
                self.in_transaction = False
                raise TransactionError(
                    "connection lost mid-transaction; transaction aborted"
                ) from None
            sql = message.get("sql", "")
            if message.get("type") == "query" and _statement_mutates(sql):
                try:
                    yield from self._connect()
                except ServerUnavailableError:
                    pass
                raise AmbiguousResultError(
                    f"connection lost while executing a mutation; it may or "
                    f"may not have been applied server-side, so it was NOT "
                    f"retried (statement: {sql[:80]!r})"
                ) from None
            yield from self._connect()
            if prepared is not None:
                message = {**message, "handle": prepared.handle}
            return (yield from self._exchange([message]))[0]

    def _call(self, message: dict, expected: str, prepared=None):
        """A :meth:`_request` whose reply must be of type ``expected``."""
        reply = yield from self._request(message, prepared)
        return _check_reply(reply, expected)

    # -------------------------------------------------------------- #
    # Operations (one per public method of the two drivers)
    # -------------------------------------------------------------- #

    def _query(self, sql: str, mode: str | None) -> dict:
        return {"type": "query", "sql": sql, "mode": mode or self.mode}

    def _execute(self, sql: str, mode: str | None):
        reply = yield from self._request(self._query(sql, mode))
        if reply.get("type") == "queued":
            return reply
        return _result_from_reply(_check_reply(reply, "result"))

    def _execute_many(self, statements, mode, window: int, raise_on_error: bool):
        statements = list(statements)
        window = max(1, window)
        out: list = []
        first_error: RemoteError | None = None
        for start in range(0, len(statements), window):
            replies = yield from self._exchange(
                [self._query(sql, mode) for sql in statements[start:start + window]]
            )
            for reply in replies:
                kind = reply.get("type")
                if kind == "result":
                    reply = _result_from_reply(reply)
                elif kind == "error":
                    first_error = first_error or _remote_error(reply)
                elif kind != "queued":
                    raise ProtocolError(f"unexpected pipelined reply {kind!r}")
                out.append(reply)
            if first_error is not None and raise_on_error:
                raise first_error
        return out

    def _prepare(self, sql: str):
        reply = yield from self._call({"type": "prepare", "sql": sql}, "prepared")
        prepared = self._prepared_class(
            self, sql, reply["handle"], reply["parameter_count"]
        )
        self._prepared.append(prepared)
        return prepared

    def _execute_prepared(self, prepared: Prepared, params, mode):
        reply = yield from self._call(
            {
                "type": "execute",
                "handle": prepared.handle,
                "params": None if params is None else list(params),
                "mode": mode or self.mode,
            },
            "result",
            prepared,
        )
        return _result_from_reply(reply)

    def _deallocate(self, prepared: Prepared):
        if prepared.closed:
            return
        yield from self._call(
            {"type": "deallocate", "handle": prepared.handle}, "closed", prepared
        )
        prepared.closed = True
        # Drop it so long-lived clients stay bounded.
        self._prepared.remove(prepared)

    def _begin(self):
        yield from self._call({"type": "begin"}, "begun")
        self.in_transaction = True

    def _commit(self):
        # An ``overloaded`` error keeps the transaction open on *both*
        # sides — the server preserved the buffer precisely so COMMIT
        # can be retried after backoff.  Every other failure ends it.
        try:
            reply = yield from self._call({"type": "commit"}, "committed")
        except RemoteError as exc:
            if exc.code != "overloaded":
                self.in_transaction = False
            raise
        except Exception:
            self.in_transaction = False
            raise
        self.in_transaction = False
        return reply

    def _abort(self):
        try:
            return (yield from self._call({"type": "abort"}, "aborted"))
        finally:
            self.in_transaction = False

    def _fetch(self, kind: str, field: str, **extra):
        """An introspection request: ``field`` of the ``kind`` reply."""
        reply = yield from self._call({"type": kind, **extra}, kind)
        return reply[field]


class Client(_ClientCore):
    """Blocking client over a TCP socket (see module docstring)."""

    def __init__(self, host: str = "127.0.0.1", port: int = 7744, **kwargs):
        super().__init__(host, port, **kwargs)
        self._sock: socket.socket | None = None
        self.connect()

    def _io(self, op: str, arg):
        """Perform one transport step of the core on the socket."""
        if op == "send":
            self._sock.sendall(arg)
        elif op == "recv":
            return self._sock.recv(_RECV_BYTES)
        elif op == "open":
            self._sock = socket.create_connection((self.host, self.port))
            # asyncio sets this on both of its ends; a blocking socket
            # must ask.  It matters for multi-segment execute_many
            # windows over a real link, not for loopback ping-pong.
            self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        elif op == "sleep":
            time.sleep(arg)
        else:  # "close"
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def _run(self, operation):
        """Drive a core generator to completion; returns its result."""
        try:
            step = next(operation)
            while True:
                try:
                    outcome = self._io(*step)
                except OSError as exc:
                    step = operation.throw(exc)
                else:
                    step = operation.send(outcome)
        except StopIteration as done:
            return done.value

    def connect(self) -> None:
        """(Re-)establish the connection, handshake, re-prepare."""
        self._run(self._connect())

    def execute(self, sql: str, mode: str | None = None):
        """Run one statement; a SELECT returns a QueryResult.

        Inside a transaction a mutating statement is queued server-side
        (returns the ``queued`` reply dict instead of a result).
        """
        return self._run(self._execute(sql, mode))

    def execute_many(
        self,
        statements,
        mode: str | None = None,
        window: int = DEFAULT_PIPELINE_WINDOW,
        raise_on_error: bool = True,
    ) -> list:
        """Pipelined execution: returns one result per statement, in order.

        Requests go out ``window`` at a time before any reply is read,
        so N statements cost ~N/window network round-trips instead of
        N, and the server may fold each run into a single engine trip.
        Every reply of a window is always drained (the stream stays in
        sync even when a statement fails); with ``raise_on_error`` the
        first failure then raises :class:`RemoteError`, otherwise the
        error reply dict takes that statement's slot.  Transport
        failures are NOT retried — a mid-batch reconnect could silently
        re-apply a prefix of mutations — so callers get
        :class:`ServerUnavailableError` and decide themselves.
        """
        return self._run(
            self._execute_many(statements, mode, window, raise_on_error)
        )

    def prepare(self, sql: str) -> Prepared:
        return self._run(self._prepare(sql))

    def begin(self) -> None:
        self._run(self._begin())

    def commit(self) -> dict:
        """Atomically apply the transaction; returns the committed reply."""
        return self._run(self._commit())

    def abort(self) -> dict:
        return self._run(self._abort())

    def stats(self) -> dict:
        return self._run(self._fetch("stats", "payload"))

    def metrics(self) -> str:
        """Prometheus-style text exposition of the server's metrics."""
        return self._run(self._fetch("metrics", "exposition"))

    def timeseries(self, last: int | None = None) -> dict:
        """The server's metrics-ring snapshot (``repro top``'s feed).

        ``last`` trims to the most recent that many samples.
        """
        return self._run(self._fetch("timeseries", "payload", last=last))

    def close(self) -> None:
        """Polite goodbye then socket close (idempotent)."""
        self._run(self._close())

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


class AsyncClient(_ClientCore):
    """Asyncio client: the same surface as :class:`Client`, awaited.

    Construct via :meth:`connect` (or ``async with AsyncClient(...)``,
    which connects on entry)::

        client = await AsyncClient.connect(host, port)
        result = await client.execute("SELECT ...")
        await client.close()
    """

    _prepared_class = AsyncPrepared

    def __init__(self, host: str = "127.0.0.1", port: int = 7744, **kwargs):
        super().__init__(host, port, **kwargs)
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def _io(self, op: str, arg):
        """Perform one transport step of the core on the streams."""
        if op == "send":
            self._writer.write(arg)
            await self._writer.drain()
        elif op == "recv":
            return await self._reader.read(_RECV_BYTES)
        elif op == "open":
            self._reader, self._writer = await asyncio.open_connection(
                self.host, self.port
            )
        elif op == "sleep":
            await asyncio.sleep(arg)
        else:  # "close"
            try:
                self._writer.close()
                await self._writer.wait_closed()
            except OSError:
                pass
            self._reader = self._writer = None

    async def _run(self, operation):
        """Drive a core generator to completion; returns its result."""
        try:
            step = next(operation)
            while True:
                try:
                    outcome = await self._io(*step)
                except OSError as exc:
                    step = operation.throw(exc)
                else:
                    step = operation.send(outcome)
        except StopIteration as done:
            return done.value

    @classmethod
    async def connect(
        cls, host: str = "127.0.0.1", port: int = 7744, **kwargs
    ) -> "AsyncClient":
        client = cls(host, port, **kwargs)
        await client._run(client._connect())
        return client

    async def execute(self, sql: str, mode: str | None = None):
        return await self._run(self._execute(sql, mode))

    async def execute_many(
        self,
        statements,
        mode: str | None = None,
        window: int = DEFAULT_PIPELINE_WINDOW,
        raise_on_error: bool = True,
    ) -> list:
        """Pipelined execution (see :meth:`Client.execute_many`)."""
        return await self._run(
            self._execute_many(statements, mode, window, raise_on_error)
        )

    async def prepare(self, sql: str) -> AsyncPrepared:
        return await self._run(self._prepare(sql))

    async def begin(self) -> None:
        await self._run(self._begin())

    async def commit(self) -> dict:
        """See :meth:`Client.commit`: ``overloaded`` keeps the transaction."""
        return await self._run(self._commit())

    async def abort(self) -> dict:
        return await self._run(self._abort())

    async def stats(self) -> dict:
        return await self._run(self._fetch("stats", "payload"))

    async def metrics(self) -> str:
        """Prometheus-style text exposition of the server's metrics."""
        return await self._run(self._fetch("metrics", "exposition"))

    async def timeseries(self, last: int | None = None) -> dict:
        """See :meth:`Client.timeseries`."""
        return await self._run(self._fetch("timeseries", "payload", last=last))

    async def close(self) -> None:
        await self._run(self._close())

    async def __aenter__(self) -> "AsyncClient":
        if not self._connected:
            await self._run(self._connect())
        return self

    async def __aexit__(self, exc_type, exc, tb) -> bool:
        await self.close()
        return False
