"""Per-connection server sessions: statement handles and transactions.

One :class:`ClientSession` exists per TCP connection.  It layers two
pieces of connection-scoped state on the shared
:class:`~repro.sql.session.Database`:

* **Prepared-statement handles** — PREPARE compiles a SELECT once via
  :meth:`Database.prepare` and hands back an opaque handle naming the
  :class:`~repro.sql.session.PreparedStatement` it returned; EXECUTE
  binds positional parameters to it.  Handles die with the connection.

* **Transaction state** — BEGIN opens a *deferred* transaction: every
  mutating statement sent before COMMIT is validated, buffered and
  acknowledged with a ``queued`` reply; SELECTs keep executing
  immediately against the last committed state.  COMMIT applies the
  whole buffer atomically through
  :meth:`Database.execute_transaction` — all statements or none reach
  the store and the WAL — and ABORT simply discards it.  Reads inside
  a transaction therefore do *not* see that transaction's own writes;
  that is the documented trade for an engine without MVC
  (the paper leaves updates as future work, §7).

The session never touches sockets: the server hands it decoded request
messages and writes back whatever reply dict :meth:`handle` returns,
so the whole request vocabulary is unit-testable without I/O.
"""

from __future__ import annotations

from repro.errors import (
    OverloadedError,
    ProtocolError,
    ReproError,
    TransactionError,
)
from repro.server.protocol import (
    PROTOCOL_VERSION,
    SMALL_RESULT_ROWS,
    error_for_exception,
    error_reply,
    hello_versions,
    negotiate_compression,
    result_reply,
)


class ClientSession:
    """Protocol state machine for one connection.

    Args:
        database: the shared engine.
        gateway: the execution gateway engine calls go through.
        session_id: server-assigned id, echoed in HELLO and STATS.
        server_stats: zero-argument callable returning the server's
            counter dict, merged into STATS replies (None embeds only
            engine/gateway/session counters).
        timeseries: callable returning the server's metrics-ring
            snapshot (accepts ``last=``); None answers TIMESERIES
            requests with an empty ring (embedded/test sessions).
    """

    def __init__(
        self,
        database,
        gateway,
        session_id: int,
        server_stats=None,
        timeseries=None,
    ) -> None:
        self.database = database
        self.gateway = gateway
        self.session_id = session_id
        self.server_stats = server_stats
        self.timeseries = timeseries
        self.client_name = "?"
        self.greeted = False
        self.closing = False
        self.statements = 0
        #: Negotiated in HELLO (None until then, and when the client
        #: offers no codec).
        self.compression: str | None = None
        self._prepared: dict[str, object] = {}
        self._next_handle = 1
        self._txn: list[str] | None = None

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #

    async def handle(self, message: dict) -> dict:
        """Process one request message and return its reply message.

        Engine and protocol failures never escape: they come back as
        typed ``error`` replies, so one bad statement cannot take the
        connection down with it.
        """
        kind = message.get("type")
        if not isinstance(kind, str):
            return error_reply("protocol", "message lacks a string 'type'")
        if not self.greeted and kind != "hello":
            return error_reply(
                "protocol", f"first message must be 'hello', got {kind!r}"
            )
        handler = getattr(self, f"_on_{kind}", None)
        if handler is None:
            return error_reply("protocol", f"unknown message type {kind!r}")
        try:
            return await handler(message)
        except ReproError as exc:
            return error_for_exception(exc)
        except Exception as exc:  # bug shield: reply, don't disconnect
            return error_for_exception(exc)

    def batchable(self, message) -> bool:
        """True when a pipelined run may fold this message into one
        gateway trip: plain statements, outside any transaction (a
        transaction needs per-statement classification and buffering,
        so it falls back to the one-at-a-time path)."""
        return (
            self.greeted
            and self._txn is None
            and isinstance(message, dict)
            and message.get("type") in ("query", "execute")
        )

    async def handle_many(self, messages: list) -> list[dict]:
        """Process a run of batchable messages with ONE gateway trip.

        Pipelined clients send many small statements back to back;
        dispatching each one individually pays the per-trip cost (on
        the worker, an event-loop → worker-thread handoff) per
        statement, which dominates once the engine itself answers in
        microseconds.  This path validates every message up front,
        executes the whole run sequentially in one gateway call, and
        maps each outcome back to its own typed reply — one trip
        amortised over the run.  A lone statement takes the same two
        steps as a run of one.
        """
        thunks: list = []
        slots: list[int] = []
        replies: list = [None] * len(messages)
        for index, message in enumerate(messages):
            try:
                thunks.append(self._statement_thunk(message))
                slots.append(index)
            except Exception as exc:
                replies[index] = error_for_exception(exc)
        if thunks:
            for index, reply in zip(slots, await self._run_thunks(thunks)):
                replies[index] = reply
        return replies

    def _statement_thunk(self, message: dict) -> tuple:
        """Validate one ``query``/``execute`` message into the engine
        call ``(fn, argument)`` that answers it."""
        if message.get("type") == "query":
            fn, argument = self.database.execute, self._sql_of(message)
        else:
            _, prepared = self._prepared_of(message)
            params = message.get("params")
            if params is not None:
                if not isinstance(params, list):
                    raise ProtocolError("'params' must be an array when present")
                params = tuple(params)
            fn, argument = prepared.execute, params
        if message.get("mode") not in (None, "vector"):
            # Clients from before the tuple executor was removed send a
            # mode; only the one that still exists (or none) is served.
            raise ProtocolError("'mode' must be \"vector\" or null when present")
        self.statements += 1
        return fn, argument

    async def _run_thunks(self, thunks: list) -> list[dict]:
        """One gateway trip for a run of thunks; one reply per thunk.

        Per-statement engine failures stay per-statement; a
        gateway-level refusal (overload, timeout) is reported on every
        statement of the run, because the run is admitted and timed as
        one unit.
        """
        def run_batch():
            outcomes = []
            for fn, argument in thunks:
                try:
                    outcomes.append(fn(argument))
                except Exception as exc:
                    outcomes.append(exc)
            return outcomes

        try:
            outcomes = await self.gateway.run(run_batch)
        except ReproError as exc:
            return [error_for_exception(exc)] * len(thunks)
        return [
            error_for_exception(outcome)
            if isinstance(outcome, BaseException)
            else self._result_reply(outcome)
            for outcome in outcomes
        ]

    @staticmethod
    def _sql_of(message: dict) -> str:
        sql = message.get("sql")
        if not isinstance(sql, str) or not sql.strip():
            raise ProtocolError("message needs a non-empty 'sql' string")
        return sql

    @staticmethod
    def _result_reply(result) -> dict:
        """The reply for a completed statement.

        A bulk result carries the raw :class:`QueryResult` under the
        private ``"_result"`` key: the server's writer encodes its
        column arrays into binary frames (chunked when large), so a
        columnar answer reaches the socket without becoming tuples.  Tiny
        results (``SMALL_RESULT_ROWS`` and under — the count(*) replies
        a pipelined workload is made of) go out as JSON: the columnar
        codec only pays for itself in bulk.
        """
        if result.row_count > SMALL_RESULT_ROWS:
            return {"type": "result", "_result": result}
        return result_reply(result)

    # ------------------------------------------------------------------ #
    # Handshake / lifecycle
    # ------------------------------------------------------------------ #

    async def _on_hello(self, message: dict) -> dict:
        offered = hello_versions(message)
        if PROTOCOL_VERSION not in offered:
            return error_reply(
                "protocol",
                f"no common protocol version: server speaks "
                f"{[PROTOCOL_VERSION]}, client offered {offered}",
            )
        self.compression = negotiate_compression(message)
        self.greeted = True
        self.client_name = str(message.get("client", "?"))
        return {
            "type": "hello",
            "protocol": PROTOCOL_VERSION,
            "versions": [PROTOCOL_VERSION],
            "compression": self.compression,
            "server": "repro",
            "session": self.session_id,
            "cracking": self.database.cracking,
            "persistent": self.database.persistent,
        }

    async def _on_close(self, message: dict) -> dict:
        self.closing = True
        return {"type": "goodbye", "reason": "client close"}

    # ------------------------------------------------------------------ #
    # Statements
    # ------------------------------------------------------------------ #

    async def _on_query(self, message: dict) -> dict:
        thunk = self._statement_thunk(message)
        if self._txn is not None:
            # Classification must compile, and compiling goes through the
            # gateway like any other engine work.
            _, sql = thunk
            stmt = await self.gateway.run(self.database.compile, sql)
            if stmt.mutates:
                self._txn.append(sql)
                return {"type": "queued", "queued": len(self._txn)}
            if stmt.kind != "select":
                raise TransactionError(
                    f"statement kind {stmt.kind!r} is not allowed "
                    "inside a transaction"
                )
        return (await self._run_thunks([thunk]))[0]

    async def _on_prepare(self, message: dict) -> dict:
        sql = self._sql_of(message)
        prepared = await self.gateway.run(self.database.prepare, sql)
        handle = f"s{self._next_handle}"
        self._next_handle += 1
        self._prepared[handle] = prepared
        return {
            "type": "prepared",
            "handle": handle,
            "parameter_count": prepared.parameter_count,
        }

    def _prepared_of(self, message: dict):
        handle = message.get("handle")
        prepared = self._prepared.get(handle)
        if prepared is None:
            raise ProtocolError(f"unknown prepared-statement handle {handle!r}")
        return handle, prepared

    async def _on_execute(self, message: dict) -> dict:
        return (await self._run_thunks([self._statement_thunk(message)]))[0]

    async def _on_deallocate(self, message: dict) -> dict:
        handle, _ = self._prepared_of(message)
        del self._prepared[handle]
        return {"type": "closed", "handle": handle}

    # ------------------------------------------------------------------ #
    # Transactions
    # ------------------------------------------------------------------ #

    async def _on_begin(self, message: dict) -> dict:
        if self._txn is not None:
            raise TransactionError(
                "already in a transaction (no nesting); COMMIT or ABORT first"
            )
        self._txn = []
        return {"type": "begun"}

    async def _on_commit(self, message: dict) -> dict:
        if self._txn is None:
            raise TransactionError("COMMIT outside a transaction")
        buffered, self._txn = self._txn, None
        if not buffered:
            return {"type": "committed", "statements": 0, "affected": []}
        # A failed batch rolled back entirely (Database.execute_transaction
        # is all-or-nothing), so the transaction is over either way —
        # except admission rejection, which happens before anything ran:
        # keep the buffer so the client can retry COMMIT after backoff.
        try:
            results = await self.gateway.run(
                self.database.execute_transaction, buffered
            )
        except OverloadedError:
            self._txn = buffered
            raise
        return {
            "type": "committed",
            "statements": len(results),
            "affected": [int(result.affected) for result in results],
        }

    async def _on_abort(self, message: dict) -> dict:
        if self._txn is None:
            raise TransactionError("ABORT outside a transaction")
        discarded, self._txn = len(self._txn), None
        return {"type": "aborted", "discarded": discarded}

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    async def _on_stats(self, message: dict) -> dict:
        """The full introspection payload.

        Engine state comes from :meth:`Database.stats` (one nested dict:
        tables, crackers + per-column detail, plan cache, persistence,
        and the metrics registry snapshot with per-statement-kind
        latency histograms); the session, gateway and server layers
        each merge their own counters on top.
        """
        database = self.database
        # Engine introspection is engine work: through the gateway (the
        # catalog lock and per-column cracker locks are taken inside).
        payload = {
            "session": {
                "id": self.session_id,
                "client": self.client_name,
                "protocol": PROTOCOL_VERSION,
                "compression": self.compression,
                "statements": self.statements,
                "prepared": len(self._prepared),
                "in_transaction": self._txn is not None,
            },
            "gateway": self.gateway.stats(),
            **(await self.gateway.run(database.stats)),
        }
        if self.server_stats is not None:
            payload["server"] = self.server_stats()
        return {"type": "stats", "payload": payload}

    async def _on_timeseries(self, message: dict) -> dict:
        """The server's metrics ring (the ``repro top`` feed).

        ``last`` optionally trims the reply to the most recent that many
        samples.  Sessions without a ring (embedded/unit-test use)
        answer with an empty one rather than an error, so monitors can
        probe any endpoint.
        """
        last = message.get("last")
        if last is not None and (isinstance(last, bool) or not isinstance(last, int)):
            raise ProtocolError("'last' must be an integer when present")
        if self.timeseries is None:
            payload = {"interval": 0.0, "capacity": 0, "taken": 0, "samples": []}
        else:
            payload = self.timeseries(last=last)
        return {"type": "timeseries", "payload": payload}

    async def _on_metrics(self, message: dict) -> dict:
        """Prometheus-style text exposition of every metric layer.

        The engine registry renders itself; gateway, server and
        session-local counters join as extra gauge samples so one
        scrape shows the whole process.
        """
        database = self.database
        extra = [
            (f"repro_gateway_{key}", None, value)
            for key, value in self.gateway.stats().items()
        ]
        if self.server_stats is not None:
            extra.extend(
                (f"repro_server_{key}", None, value)
                for key, value in self.server_stats().items()
            )
        extra.append(
            ("repro_session_statements",
             {"session": str(self.session_id)}, self.statements)
        )
        text = await self.gateway.run(database.metrics.render, extra=extra)
        return {"type": "metrics", "exposition": text}
