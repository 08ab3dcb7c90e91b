"""Client library for the repro wire protocol.

:class:`Client` is one blocking socket::

    from repro.client import Client

    with Client(host, port) as client:
        client.execute("CREATE TABLE r (k integer, a integer)")
        client.execute("INSERT INTO r VALUES (1, 10), (2, 20)")
        result = client.execute("SELECT * FROM r WHERE a BETWEEN 5 AND 15")
        result.rows                       # [(1, 10)]
        stmt = client.prepare("SELECT count(*) FROM r WHERE a BETWEEN 0 AND 10")
        stmt.execute((5, 25)).scalar()    # rebinds the literals

A call sends its requests with one ``sendall`` and reads each reply a
frame at a time (``recv`` into one buffer, :meth:`FrameDecoder.take`);
a ``result`` frame becomes the :class:`QueryResult` at once, small ones
from JSON, bulk ones from binary columnar frames that stay columnar
(``result.rows`` builds tuples only when first read).  A CHUNK stream
is assembled only once its first chunk arrives.  Frames cross the wire
raw unless the client asks: ``compression=True`` offers zlib in HELLO,
which pays only on a link slower than ~50 MB/s (zlib-1 runs at ~105
MB/s; on loopback it doubled a bulk reply's round trip).
``execute_many`` pipelines a batch of statements: a window of requests
goes out before any reply is read, amortising network round-trips and
letting the server fold the run into one engine trip.

It reconnects: a dropped connection is re-established (with retries
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
A reply that does not decode — a bad frame, a torn chunk stream, a
malformed result — drops the connection (the frames after it cannot be
trusted to answer the next call), so the next call reconnects.
"""

from __future__ import annotations

import contextlib
import socket
import time

from repro.errors import (
    AmbiguousResultError,
    ProtocolError,
    RemoteError,
    ReproError,
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
from repro.sql.lexer import tokenize
from repro.sql.result import QueryResult

_RECV_BYTES = 1 << 16

#: Requests written before the first reply is read in ``execute_many``
#: — big enough to amortise round-trips, small enough that a window of
#: requests can never wedge both peers' kernel buffers.
DEFAULT_PIPELINE_WINDOW = 64


def _statement_mutates(sql: str) -> bool:
    """Client-side classification: could this statement change state?

    Deliberately conservative, and decided by the engine's own lexer
    without parsing: anything but a SELECT may mutate, and so does a
    SELECT with an INTO keyword.  Text that does not lex counts as a
    mutation — it will fail server-side anyway, and guessing
    "idempotent" on an unrecognised statement is how double-applies ship.
    """
    try:
        tokens = tokenize(sql)
    except ReproError:
        return True
    keywords = [token.value for token in tokens if token.kind == "keyword"]
    return not tokens or tokens[0][:2] != ("keyword", "select") or "into" in keywords


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


def _expect(reply, *expected: str):
    """``reply`` when it is of an ``expected`` type (a :class:`QueryResult`
    is a ``"result"``); else the typed error it stands for."""
    kind = "result" if isinstance(reply, QueryResult) else reply.get("type")
    if kind in expected:
        return reply
    if kind == "error":
        raise _remote_error(reply)
    raise ProtocolError(f"expected a {' or '.join(expected)} reply, got {kind!r}")


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

    def execute(self, params=None) -> QueryResult:
        params = None if params is None else list(params)
        message = {"type": "execute", "handle": self.handle, "params": params}
        return self._client._call(message, "result", prepared=self)

    def close(self) -> None:
        """Deallocate server-side (idempotent)."""
        if self.closed:
            return
        message = {"type": "deallocate", "handle": self.handle}
        self._client._call(message, "closed", prepared=self)
        self.closed = True
        # Drop it so long-lived clients stay bounded.
        self._client._prepared.remove(self)


class Client:
    """Blocking client over one TCP socket (see module docstring)."""

    def __init__(
        self,
        host: str,
        port: int,
        *,
        reconnect: bool = True,
        max_retries: int = 3,
        retry_delay: float = 0.05,
        compression: bool = False,
    ) -> None:
        self.host = host
        self.port = port
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
        self._sock: socket.socket | None = None
        self._decoder = FrameDecoder()
        self.connect()

    def connect(self) -> None:
        """(Re-)establish the connection, handshake, re-prepare."""
        self._disconnect()
        last: Exception | None = None
        for attempt in range(self.max_retries + 1):
            try:
                sock = socket.create_connection((self.host, self.port))
                break
            except OSError as exc:
                last = exc
                if attempt < self.max_retries:
                    time.sleep(self.retry_delay * (attempt + 1))
        else:
            raise ServerUnavailableError(
                f"cannot connect to {self.host}:{self.port}: {last}"
            )
        # Both ends ask for this; it matters for multi-segment
        # execute_many windows over a real link, not for loopback
        # ping-pong.
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        self._decoder = FrameDecoder()  # stale bytes died with the old connection
        hello = {
            "type": "hello",
            "protocol": PROTOCOL_VERSION,
            "versions": [PROTOCOL_VERSION],
            "compression": (
                list(SUPPORTED_COMPRESSIONS) if self.offer_compression else []
            ),
            "client": "repro-client",
        }
        try:
            (reply,) = self._exchange([hello])
            self.server_info = _expect(reply, "hello")
        except ReproError:
            self._disconnect()  # a refused handshake keeps no socket
            raise
        self.protocol_version = reply.get("protocol", PROTOCOL_VERSION)
        self.compression = reply.get("compression")
        for prepared in self._prepared:
            (fresh,) = self._exchange([{"type": "prepare", "sql": prepared.sql}])
            prepared.handle = _expect(fresh, "prepared")["handle"]

    def _disconnect(self) -> None:
        sock, self._sock = self._sock, None
        if sock is not None:
            with contextlib.suppress(OSError):
                sock.close()

    def close(self) -> None:
        """Polite goodbye, then drop the connection (idempotent)."""
        if self._sock is not None:
            with contextlib.suppress(ServerUnavailableError, ProtocolError):
                self._exchange([{"type": "close"}])
            self._disconnect()

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # -------------------------------------------------------------- #
    # Exchange
    # -------------------------------------------------------------- #

    def _exchange(self, messages: list[dict]) -> list:
        """Send a window of requests, then read the reply to each, in
        order, on the current connection — no retry.  A failure while
        reading replies drops the connection: what is left of the stream
        answers nothing."""
        if self._sock is None:
            raise ServerUnavailableError("client is not connected")
        try:
            self._sock.sendall(b"".join(map(encode_frame, messages)))
            return list(map(self._reply, messages))
        except OSError as exc:
            self._disconnect()
            raise ServerUnavailableError(f"connection lost: {exc}") from exc
        except (ServerUnavailableError, ProtocolError):
            self._disconnect()
            raise

    def _reply(self, request: dict):
        """The reply to ``request`` — a :class:`QueryResult` for a result,
        else the message — from one frame, or from a chunk stream."""
        message = self._frame()
        if message.get("type") in ("result_chunk", "result_end"):
            assembler = ResultAssembler()
            while (whole := assembler.feed(message)) is None:
                message = self._frame()
            message = whole
        kind = message.get("type")
        if kind == "result":
            return _result_from_reply(message)
        # An unasked goodbye is the server shutting down: raised as
        # unavailability, so the reconnect path engages.
        if kind == "goodbye" and request.get("type") != "close":
            raise ServerUnavailableError("server shut down (goodbye received)")
        return message

    def _frame(self) -> dict:
        """The next frame's message, read off the socket until it is whole."""
        take = self._decoder.take
        message = take()
        while message is None:
            data = self._sock.recv(_RECV_BYTES)
            if not data:
                raise ServerUnavailableError("server closed the connection")
            message = take(data)
        return message

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
            return self._exchange([message])[0]
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
                    self.connect()
                except ServerUnavailableError:
                    pass
                raise AmbiguousResultError(
                    f"connection lost while executing a mutation; it may or "
                    f"may not have been applied server-side, so it was NOT "
                    f"retried (statement: {sql[:80]!r})"
                ) from None
            self.connect()
            if prepared is not None:
                message = {**message, "handle": prepared.handle}
            return self._exchange([message])[0]

    def _call(self, message: dict, *expected: str, prepared=None):
        """A :meth:`_request` whose reply must be of an ``expected`` type."""
        return _expect(self._request(message, prepared), *expected)

    # -------------------------------------------------------------- #
    # Operations
    # -------------------------------------------------------------- #

    def execute(self, sql: str):
        """Run one statement; a SELECT returns a QueryResult.

        Inside a transaction a mutating statement is queued server-side
        (returns the ``queued`` reply dict instead of a result).
        """
        return self._call({"type": "query", "sql": sql}, "result", "queued")

    def execute_many(
        self,
        statements,
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
        statements = list(statements)
        window = max(1, window)
        out: list = []
        first_error: RemoteError | None = None
        for start in range(0, len(statements), window):
            batch = statements[start:start + window]
            for reply in self._exchange([{"type": "query", "sql": sql} for sql in batch]):
                if isinstance(reply, dict) and reply.get("type") == "error":
                    first_error = first_error or _remote_error(reply)
                else:
                    _expect(reply, "result", "queued")
                out.append(reply)
            if first_error is not None and raise_on_error:
                raise first_error
        return out

    def prepare(self, sql: str) -> Prepared:
        reply = self._call({"type": "prepare", "sql": sql}, "prepared")
        prepared = Prepared(self, sql, reply["handle"], reply["parameter_count"])
        self._prepared.append(prepared)
        return prepared

    def begin(self) -> None:
        self._call({"type": "begin"}, "begun")
        self.in_transaction = True

    def commit(self) -> dict:
        """Atomically apply the transaction; returns the committed reply.

        An ``overloaded`` error keeps the transaction open on *both*
        sides — the server refused before running anything, so COMMIT
        can be retried after backoff.  Every other failure ends it.
        """
        try:
            reply = self._call({"type": "commit"}, "committed")
        except RemoteError as exc:
            if exc.code != "overloaded":
                self.in_transaction = False
            raise
        except Exception:
            self.in_transaction = False
            raise
        self.in_transaction = False
        return reply

    def abort(self) -> dict:
        try:
            return self._call({"type": "abort"}, "aborted")
        finally:
            self.in_transaction = False

    def stats(self) -> dict:
        return self._call({"type": "stats"}, "stats")["payload"]

    def metrics(self) -> str:
        """Prometheus-style text exposition of the server's metrics."""
        return self._call({"type": "metrics"}, "metrics")["exposition"]

    def timeseries(self, last: int | None = None) -> dict:
        """The server's metrics-ring snapshot (``repro top``'s feed).

        ``last`` trims to the most recent that many samples.
        """
        return self._call({"type": "timeseries", "last": last}, "timeseries")["payload"]
