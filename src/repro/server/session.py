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

The session never touches sockets or threads: the server hands it
decoded requests and writes back the reply dicts :meth:`handle`
returns, so the request vocabulary is unit-testable
with plain calls.  A request whose type is in :data:`ENGINE_REQUESTS`
calls the engine, so the server answers it through the
:class:`~repro.server.gateway.ExecutionGateway`.
"""

from __future__ import annotations

from repro.errors import ProtocolError, TransactionError
from repro.server.protocol import (
    PROTOCOL_VERSION,
    SMALL_RESULT_ROWS,
    error_for_exception,
    error_reply,
    hello_versions,
    negotiate_compression,
    result_reply,
)

#: Request types whose answer calls into the engine (a tuple: a hostile
#: unhashable ``"type"`` compares unequal instead of raising).
ENGINE_REQUESTS = ("query", "execute", "prepare", "commit", "stats", "metrics")


class ClientSession:
    """Protocol state machine for one connection.

    Args:
        database: the shared engine.
        gateway: the execution gateway whose counters STATS and METRICS
            report.
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

    def handle(self, message: dict) -> dict:
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
            return handler(message)
        except Exception as exc:  # typed, or a bug: reply, don't disconnect
            return error_for_exception(exc)

    def batchable(self, message) -> bool:
        """True when a pipelined run may fold this message into one engine
        trip: a plain statement outside a transaction (which classifies
        and buffers statement by statement)."""
        kind = message.get("type")
        return self.greeted and self._txn is None and kind in ("query", "execute")

    def engine_bound(self, message) -> bool:
        """True when answering ``message`` calls into the engine."""
        return message.get("type") in ENGINE_REQUESTS

    def _engine_call(self, message: dict) -> tuple:
        """Validate one ``query``/``execute`` message into the engine
        call ``(fn, argument)`` that answers it, and count it."""
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

    @staticmethod
    def _sql_of(message: dict) -> str:
        sql = message.get("sql")
        if not isinstance(sql, str) or not sql.strip():
            raise ProtocolError("message needs a non-empty 'sql' string")
        return sql

    @staticmethod
    def _result_reply(result) -> dict:
        """The reply for a completed statement: a bulk result carries the
        raw :class:`QueryResult` under the private ``"_result"`` key, for
        the server to encode as binary column frames without building
        tuples; ``SMALL_RESULT_ROWS`` and under go out as JSON, since the
        columnar codec only pays for itself in bulk."""
        if result.row_count > SMALL_RESULT_ROWS:
            return {"type": "result", "_result": result}
        return result_reply(result)

    # ------------------------------------------------------------------ #
    # Handshake / lifecycle
    # ------------------------------------------------------------------ #

    def _on_hello(self, message: dict) -> dict:
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

    def _on_close(self, message: dict) -> dict:
        self.closing = True
        return {"type": "goodbye", "reason": "client close"}

    # ------------------------------------------------------------------ #
    # Statements
    # ------------------------------------------------------------------ #

    def _on_query(self, message: dict) -> dict:
        execute, sql = self._engine_call(message)
        if self._txn is not None:
            stmt = self.database.compile(sql)
            if stmt.mutates:
                self._txn.append(sql)
                return {"type": "queued", "queued": len(self._txn)}
            if stmt.kind != "select":
                raise TransactionError(
                    f"statement kind {stmt.kind!r} is not allowed "
                    "inside a transaction"
                )
        return self._result_reply(execute(sql))

    def _on_prepare(self, message: dict) -> dict:
        sql = self._sql_of(message)
        prepared = self.database.prepare(sql)
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

    def _on_execute(self, message: dict) -> dict:
        execute, params = self._engine_call(message)
        return self._result_reply(execute(params))

    def _on_deallocate(self, message: dict) -> dict:
        handle, _ = self._prepared_of(message)
        del self._prepared[handle]
        return {"type": "closed", "handle": handle}

    # ------------------------------------------------------------------ #
    # Transactions
    # ------------------------------------------------------------------ #

    def _on_begin(self, message: dict) -> dict:
        if self._txn is not None:
            raise TransactionError(
                "already in a transaction (no nesting); COMMIT or ABORT first"
            )
        self._txn = []
        return {"type": "begun"}

    def _on_commit(self, message: dict) -> dict:
        if self._txn is None:
            raise TransactionError("COMMIT outside a transaction")
        buffered, self._txn = self._txn, None
        if not buffered:
            return {"type": "committed", "statements": 0, "affected": []}
        # A failed batch rolled back entirely (Database.execute_transaction
        # is all-or-nothing), so the transaction is over either way.  An
        # admission refusal never gets here: the gateway refuses before
        # the session runs, so the buffer survives a retried COMMIT.
        results = self.database.execute_transaction(buffered)
        return {
            "type": "committed",
            "statements": len(results),
            "affected": [int(result.affected) for result in results],
        }

    def _on_abort(self, message: dict) -> dict:
        if self._txn is None:
            raise TransactionError("ABORT outside a transaction")
        discarded, self._txn = len(self._txn), None
        return {"type": "aborted", "discarded": discarded}

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def _on_stats(self, message: dict) -> dict:
        """The full introspection payload: :meth:`Database.stats`, with
        the session, gateway and server counters merged on top."""
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
            "gateway": self._gateway_stats(),
            **self.database.stats(),
        }
        if self.server_stats is not None:
            payload["server"] = self.server_stats()
        return {"type": "stats", "payload": payload}

    def _gateway_stats(self) -> dict:
        """The gateway's counters as this request found them: the server
        admitted the request before the session saw it, so it does not
        count itself as pending."""
        stats = self.gateway.stats()
        stats["pending"] = max(0, stats["pending"] - 1)
        return stats

    def _on_timeseries(self, message: dict) -> dict:
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

    def _on_metrics(self, message: dict) -> dict:
        """Prometheus-style text exposition of every metric layer.

        The engine registry renders itself; gateway, server and
        session-local counters join as extra gauge samples so one
        scrape shows the whole process.
        """
        extra = [
            (f"repro_gateway_{key}", None, value)
            for key, value in self._gateway_stats().items()
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
        text = self.database.metrics.render(extra=extra)
        return {"type": "metrics", "exposition": text}
