"""End-to-end tests for the network service layer.

The headline is the differential acceptance test: the full cross-engine
oracle workload — including prepared statements and an aborted
transaction — executed embedded and over the wire must produce
*byte-equal* JSON result payloads.  Around it: multi-client concurrency,
admission control (connection limit, overload, statement timeout),
protocol robustness, backpressure, reconnect, and graceful
checkpointing shutdown.

The server has two execution modes (engine calls inline on the
event-loop thread — the default — or on the gateway's thread pool).
Tests run against the default; the ``...Threaded`` subclasses re-run
the differential, concurrency and transaction classes with
``pool_size=4`` through the :func:`threaded` fixture.
"""

import asyncio
import json
import socket
import threading
import time
from contextlib import contextmanager

import numpy as np
import pytest

from oracle import assert_sorted_rows_equal, load_standard, random_range_queries, standard_query_suite
from repro.client import AsyncClient, Client, _statement_mutates
from repro.errors import (
    AmbiguousResultError,
    OverloadedError,
    RemoteError,
    ServerUnavailableError,
    StatementTimeoutError,
    TransactionError,
)
from repro.server import ClientSession, FrameDecoder, ServerThread, encode_frame
from repro.server.gateway import ExecutionGateway
from repro.server.protocol import PROTOCOL_VERSION, wire_rows
from repro.server.server import _READ_BYTES
from repro.sql import Database

SEED = 20260726

#: Server arguments every :func:`served` call starts from.
SERVED_DEFAULTS: dict = {}


@pytest.fixture
def threaded(monkeypatch):
    """Every ``served()`` of the test runs the thread-pool gateway."""
    monkeypatch.setitem(SERVED_DEFAULTS, "pool_size", 4)


@contextmanager
def served(database=None, **server_kwargs):
    """A database served on a background thread, stopped afterwards."""
    if database is None:
        database = Database(cracking=True, mode="vector", concurrent=True)
    thread = ServerThread(database, **{**SERVED_DEFAULTS, **server_kwargs})
    host, port = thread.start()
    try:
        yield database, host, port, thread
    finally:
        if thread.report is None:
            thread.stop()


def read_one(sock, decoder=None) -> dict:
    """The next decoded message off a raw socket."""
    decoder = decoder or FrameDecoder()
    while True:
        data = sock.recv(65536)
        assert data, "connection closed before a reply arrived"
        messages = decoder.feed(data)
        if messages:
            return messages[0]


def wire_json(rows) -> str:
    """The canonical byte form results are compared in."""
    return json.dumps(wire_rows(rows), separators=(",", ":"))


class TestDifferentialOracle:
    """Protocol-level results byte-equal embedded execution."""

    def test_oracle_workload_prepared_and_aborted_txn(self):
        embedded = Database(cracking=True, mode="vector")
        with served() as (_, host, port, _thread):
            with Client(host, port) as client:
                rng = np.random.default_rng(SEED)
                load_standard(embedded, seed=SEED)
                load_standard(client, seed=SEED)

                workload = standard_query_suite(rng) + random_range_queries(
                    rng, 40, insert_every=7
                )
                for statement in workload:
                    expected = embedded.execute(statement)
                    actual = client.execute(statement)
                    assert actual.columns == list(expected.columns), statement
                    assert actual.affected == expected.affected, statement
                    assert wire_json(actual.rows) == wire_json(
                        expected.rows
                    ), statement

                # Prepared statements: same template, several bindings.
                template = "SELECT count(*), sum(r.a) FROM r WHERE a BETWEEN 0 AND 10"
                embedded_stmt = embedded.prepare(template)
                remote_stmt = client.prepare(template)
                assert remote_stmt.parameter_count == embedded_stmt.parameter_count
                for low, high in ((0, 10), (100, 400), (250, 900), (700, 50)):
                    expected = embedded_stmt.execute((low, high))
                    actual = remote_stmt.execute((low, high))
                    assert wire_json(actual.rows) == wire_json(expected.rows)

                # An aborted transaction leaves no trace: the embedded
                # oracle simply never runs the discarded statements.
                client.begin()
                client.execute("INSERT INTO r VALUES (5000000, 1, 0.5, 'tX')")
                client.execute("CREATE TABLE scratch (x integer)")
                reply = client.abort()
                assert reply["discarded"] == 2

                # A committed transaction matches execute_transaction.
                txn = [
                    "INSERT INTO r VALUES (6000000, 42, 1.25, 't1')",
                    "INSERT INTO s VALUES (6000000, 3)",
                ]
                client.begin()
                for statement in txn:
                    assert client.execute(statement)["type"] == "queued"
                committed = client.commit()
                assert committed["statements"] == 2
                embedded.execute_transaction(txn)

                for statement in [
                    "SELECT count(*) FROM r",
                    "SELECT count(*) FROM s",
                    "SELECT r.k, r.a FROM r WHERE a BETWEEN 0 AND 45",
                    "SELECT s.g, count(*) FROM r, s WHERE r.k = s.k GROUP BY s.g",
                ]:
                    expected = embedded.execute(statement)
                    actual = client.execute(statement)
                    assert wire_json(actual.rows) == wire_json(
                        expected.rows
                    ), statement
                assert not embedded.catalog.has_table("scratch")
                with pytest.raises(RemoteError) as info:
                    client.execute("SELECT * FROM scratch")
                assert info.value.code in ("catalog", "analysis")

    def test_modes_and_scalar_types_roundtrip(self):
        with served() as (_, host, port, _thread):
            with Client(host, port) as client:
                client.execute("CREATE TABLE m (k integer, w float, tag varchar)")
                client.execute(
                    "INSERT INTO m VALUES (1, 0.5, 'a'), (2, 1.5, 'b')"
                )
                for mode in ("tuple", "vector"):
                    result = client.execute("SELECT * FROM m", mode=mode)
                    assert sorted(result.rows) == [(1, 0.5, "a"), (2, 1.5, "b")]
                    for row in result.rows:
                        assert all(
                            not isinstance(v, np.generic) for v in row
                        )


class TestConcurrentClients:
    def test_four_clients_agree_with_embedded(self):
        embedded = Database(cracking=True, mode="vector")
        load_standard(embedded, seed=SEED)
        rng = np.random.default_rng(SEED + 1)
        queries = random_range_queries(rng, 24)  # SELECT-only workload
        expected = {q: embedded.execute(q) for q in queries}

        with served() as (database, host, port, _thread):
            load_standard(database, seed=SEED)
            failures: list = []

            def hammer(offset: int) -> None:
                try:
                    with Client(host, port) as client:
                        for i in range(len(queries)):
                            query = queries[(i + offset) % len(queries)]
                            result = client.execute(query)
                            assert_sorted_rows_equal(
                                expected[query].rows, result.rows, query
                            )
                except Exception as exc:  # pragma: no cover - failure path
                    failures.append(exc)

            threads = [
                threading.Thread(target=hammer, args=(i * 5,)) for i in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not failures, failures
            database.check_invariants()


class TestAdmissionControl:
    def test_connection_limit_refused_with_typed_error(self):
        with served(max_connections=1) as (_, host, port, _thread):
            with Client(host, port) as first:
                first.execute("CREATE TABLE r (k integer)")
                with pytest.raises(RemoteError) as info:
                    Client(host, port)
                assert info.value.code == "overloaded"
            # Slot freed after the first client leaves.
            deadline = 40
            for _ in range(deadline):
                try:
                    second = Client(host, port)
                    break
                except (RemoteError, ServerUnavailableError):
                    import time

                    time.sleep(0.05)
            else:  # pragma: no cover - failure path
                pytest.fail("connection slot never freed")
            second.close()

    def test_statement_timeout_is_typed(self):
        database = Database(cracking=True, concurrent=True)
        real_execute = database.execute

        def slow_execute(sql, mode=None):
            import time

            time.sleep(0.4)
            return real_execute(sql, mode=mode)

        database.execute = slow_execute
        with served(database, statement_timeout=0.05) as (_, host, port, _t):
            with Client(host, port) as client:
                with pytest.raises(RemoteError) as info:
                    client.execute("CREATE TABLE r (k integer)")
                assert info.value.code == "timeout"

    def test_gateway_overload_and_timeout(self):
        async def scenario():
            import time

            gateway = ExecutionGateway(
                pool_size=1, max_pending=1, statement_timeout=None
            )
            release = threading.Event()
            first = asyncio.ensure_future(gateway.run(release.wait, 5))
            await asyncio.sleep(0.05)  # let it occupy the only slot
            with pytest.raises(OverloadedError):
                await gateway.run(lambda: None)
            release.set()
            await first
            with pytest.raises(StatementTimeoutError):
                await gateway.run(time.sleep, 0.5, timeout=0.05)
            stats = gateway.stats()
            assert stats["rejected"] == 1
            assert stats["timeouts"] == 1
            assert stats["executed"] == 1
            gateway.shutdown(wait=False)

        asyncio.run(scenario())


class TestProtocolRobustness:
    def test_hello_required_first(self):
        with served() as (_, host, port, _thread):
            sock = socket.create_connection((host, port))
            try:
                decoder = FrameDecoder()
                sock.sendall(encode_frame({"type": "query", "sql": "SELECT 1"}))
                reply = read_one(sock, decoder)
                assert reply["type"] == "error"
                assert reply["code"] == "protocol"
                # The connection survives; a proper hello still works.
                sock.sendall(
                    encode_frame(
                        {"type": "hello", "protocol": PROTOCOL_VERSION}
                    )
                )
                assert read_one(sock, decoder)["type"] == "hello"
            finally:
                sock.close()

    def test_version_mismatch_rejected(self):
        with served() as (_, host, port, _thread):
            sock = socket.create_connection((host, port))
            try:
                sock.sendall(encode_frame({"type": "hello", "protocol": 99}))
                reply = read_one(sock, FrameDecoder())
                assert reply["type"] == "error"
                assert reply["code"] == "protocol"
            finally:
                sock.close()

    def test_undecodable_frame_is_fatal_but_typed(self):
        with served() as (_, host, port, _thread):
            sock = socket.create_connection((host, port))
            try:
                sock.sendall(len(b"nope").to_bytes(4, "big") + b"nope")
                reply = read_one(sock, FrameDecoder())
                assert reply["type"] == "error"
                assert reply["code"] == "protocol"
                assert sock.recv(65536) == b""  # server hung up
            finally:
                sock.close()

    def test_unknown_type_and_bad_payloads(self):
        with served() as (_, host, port, _thread):
            with Client(host, port) as client:
                for message in (
                    {"type": "warp"},
                    {"type": "query"},
                    {"type": "query", "sql": "   "},
                    {"type": "execute", "handle": "s999"},
                    {"no_type": True},
                ):
                    reply = client._run(client._request(message))
                    assert reply["type"] == "error"
                    assert reply["code"] == "protocol", message

    def test_oversized_reply_becomes_typed_error_not_disconnect(
        self, monkeypatch
    ):
        import repro.server.protocol as protocol

        with served() as (_, host, port, _thread):
            with Client(host, port) as client:
                client.execute("CREATE TABLE r (k integer)")
                for base in range(0, 60, 20):
                    values = ", ".join(f"({base + i})" for i in range(20))
                    client.execute(f"INSERT INTO r VALUES {values}")
                # Shrink the cap under the server's feet: the 60-row
                # result frame now overflows, but the error frame fits.
                monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 256)
                with pytest.raises(RemoteError) as info:
                    client.execute("SELECT r.k FROM r")
                assert info.value.code == "protocol"
                # The connection survived; small results still flow.
                assert client.execute("SELECT count(*) FROM r").scalar() == 60


class TestTransactions:
    def test_txn_protocol_violations(self):
        with served() as (_, host, port, _thread):
            with Client(host, port) as client:
                with pytest.raises(RemoteError) as info:
                    client.commit()
                assert info.value.code == "transaction"
                with pytest.raises(RemoteError):
                    client.abort()
                client.begin()
                with pytest.raises(RemoteError):
                    client.begin()
                assert client.commit()["statements"] == 0

    def test_commit_rejected_by_admission_keeps_the_buffer(self):
        # Overload happens *before* anything executed, so the typed
        # "retry later" must actually be retryable: the transaction
        # buffer survives and the next COMMIT applies it.
        async def scenario():
            from repro.errors import OverloadedError

            db = Database(cracking=True, concurrent=True)
            db.execute("CREATE TABLE r (k integer)")
            gateway = ExecutionGateway(pool_size=1)
            session = ClientSession(db, gateway, 1)
            await session.handle({"type": "hello", "protocol": PROTOCOL_VERSION})
            await session.handle({"type": "begin"})
            queued = await session.handle(
                {"type": "query", "sql": "INSERT INTO r VALUES (1)"}
            )
            assert queued["type"] == "queued"
            real_run = gateway.run
            rejected = {"n": 0}

            async def flaky(fn, *args, **kwargs):
                if fn == db.execute_transaction and not rejected["n"]:
                    rejected["n"] += 1
                    raise OverloadedError("busy")
                return await real_run(fn, *args, **kwargs)

            gateway.run = flaky
            error = await session.handle({"type": "commit"})
            assert error["type"] == "error"
            assert error["code"] == "overloaded"
            retried = await session.handle({"type": "commit"})
            assert retried["type"] == "committed"
            assert retried["statements"] == 1
            assert db.execute("SELECT count(*) FROM r").scalar() == 1
            gateway.shutdown(wait=False)

        asyncio.run(scenario())

    def test_failed_commit_rolls_back_everything(self):
        with served() as (database, host, port, _thread):
            with Client(host, port) as client:
                client.execute("CREATE TABLE r (k integer, a integer)")
                client.execute("INSERT INTO r VALUES (1, 10)")
                client.begin()
                client.execute("INSERT INTO r VALUES (2, 20)")
                client.execute("INSERT INTO missing VALUES (3)")
                with pytest.raises(RemoteError) as info:
                    client.commit()
                assert info.value.code == "catalog"
                assert client.execute("SELECT count(*) FROM r").scalar() == 1
                database.check_invariants()


class TestReconnect:
    def test_client_survives_server_restart(self):
        database = Database(cracking=True, concurrent=True)
        thread = ServerThread(database)
        host, port = thread.start()
        client = Client(host, port, retry_delay=0.1, max_retries=10)
        client.execute("CREATE TABLE r (k integer, a integer)")
        client.execute("INSERT INTO r VALUES (1, 10), (2, 20)")
        stmt = client.prepare("SELECT count(*) FROM r WHERE a BETWEEN 0 AND 15")
        assert stmt.execute().scalar() == 1
        old_handle = stmt.handle

        thread.stop()
        # Same engine, fresh server on the same port: handles are gone.
        thread2 = ServerThread(database, port=port)
        thread2.start()
        try:
            assert client.execute("SELECT count(*) FROM r").scalar() == 2
            assert stmt.execute((0, 25)).scalar() == 2  # re-prepared
            assert client.server_info["session"] is not None
            assert stmt.handle is not None and old_handle is not None
        finally:
            client.close()
            thread2.stop()

    def test_reconnect_refreshes_stale_prepared_handles(self):
        # Handles are session-scoped and shift on re-prepare: close the
        # first statement so the survivor's old handle ("s2") cannot
        # coincide with the handle the new session assigns it ("s1").
        database = Database(cracking=True, concurrent=True)
        thread = ServerThread(database)
        host, port = thread.start()
        client = Client(host, port, retry_delay=0.1, max_retries=10)
        client.execute("CREATE TABLE r (k integer, a integer)")
        client.execute("INSERT INTO r VALUES (1, 10), (2, 20)")
        first = client.prepare("SELECT count(*) FROM r WHERE a BETWEEN 0 AND 5")
        first.close()
        second = client.prepare("SELECT count(*) FROM r WHERE a BETWEEN 0 AND 25")
        assert second.handle != first.handle
        thread.stop()
        thread2 = ServerThread(database, port=port)
        thread2.start()
        try:
            # The retried execute must carry the re-prepared handle.
            assert second.execute().scalar() == 2
        finally:
            client.close()
            thread2.stop()

    def test_commit_overloaded_keeps_client_txn_state(self):
        # The server keeps the buffer on admission rejection; the client
        # must mirror that, so COMMIT is retryable and begin() still
        # refuses nesting.
        from repro.errors import OverloadedError

        database = Database(cracking=True, concurrent=True)
        real = database.execute_transaction
        state = {"rejected": False}

        def flaky(statements, mode=None):
            if not state["rejected"]:
                state["rejected"] = True
                raise OverloadedError("busy")
            return real(statements, mode=mode)

        database.execute_transaction = flaky
        with served(database) as (_, host, port, _thread):
            with Client(host, port) as client:
                client.execute("CREATE TABLE r (k integer)")
                client.begin()
                client.execute("INSERT INTO r VALUES (1)")
                with pytest.raises(RemoteError) as info:
                    client.commit()
                assert info.value.code == "overloaded"
                assert client.in_transaction
                with pytest.raises(RemoteError):  # still in the txn
                    client.begin()
                reply = client.commit()
                assert reply["statements"] == 1
                assert client.execute("SELECT count(*) FROM r").scalar() == 1
                assert not client.in_transaction

    def test_transaction_does_not_survive_reconnect(self):
        database = Database(cracking=True, concurrent=True)
        thread = ServerThread(database)
        host, port = thread.start()
        client = Client(host, port, retry_delay=0.1, max_retries=10)
        client.execute("CREATE TABLE r (k integer)")
        client.begin()
        client.execute("INSERT INTO r VALUES (1)")
        thread.stop()
        thread2 = ServerThread(database, port=port)
        thread2.start()
        try:
            with pytest.raises(TransactionError):
                client.execute("INSERT INTO r VALUES (2)")
            # After the forced abort the client is usable again.
            assert client.execute("SELECT count(*) FROM r").scalar() == 0
        finally:
            client.close()
            thread2.stop()

    def test_no_reconnect_raises_unavailable(self):
        database = Database(cracking=True, concurrent=True)
        thread = ServerThread(database)
        host, port = thread.start()
        client = Client(host, port, reconnect=False)
        thread.stop()
        with pytest.raises(ServerUnavailableError):
            client.execute("SELECT 1 FROM nosuch")


class TestRetryDiscipline:
    """Mutations are never blindly retried (the lost-reply cases, for
    both drivers, live in ``tests/test_client_drivers.py``)."""

    def test_unapplied_mutation_raises_ambiguous_after_server_bounce(self):
        # Socket-killing flavour: the server dies under the request, so
        # the mutation was never applied — the client still cannot know
        # that, so it must raise rather than guess.
        database = Database(cracking=True, concurrent=True)
        thread = ServerThread(database)
        host, port = thread.start()
        client = Client(host, port, retry_delay=0.1, max_retries=10)
        client.execute("CREATE TABLE r (k integer)")
        client.execute("INSERT INTO r VALUES (1)")
        thread.stop()
        thread2 = ServerThread(database, port=port)
        thread2.start()
        try:
            with pytest.raises(AmbiguousResultError):
                client.execute("DELETE FROM r WHERE k = 1")
            # Not applied, not retried: the row is still there, and the
            # reconnected session keeps working.
            assert client.execute("SELECT count(*) FROM r").scalar() == 1
        finally:
            client.close()
            thread2.stop()

    def test_statement_classification(self):
        mutating = [
            "INSERT INTO r VALUES (1)",
            "update r set k = 1",
            "DELETE FROM r WHERE k = 1",
            "CREATE TABLE r (k integer)",
            "DROP TABLE r",
            "  -- leading comment\n  UPDATE r SET k = 1",
            "SELECT k FROM r INTO t",
            "select k from r\ninto t",
            "FROBNICATE r",  # unknown verbs are conservatively mutations
        ]
        for sql in mutating:
            assert _statement_mutates(sql), sql
        idempotent = [
            "SELECT count(*) FROM r",
            "select k from r where tag = 'into'",  # INTO inside a string
            "  -- comment\nSELECT k FROM r LIMIT 5",
        ]
        for sql in idempotent:
            assert not _statement_mutates(sql), sql


class TestGracefulShutdown:
    def test_shutdown_checkpoints_persistent_store(self, tmp_path):
        store = tmp_path / "store"
        database = Database(
            cracking=True, concurrent=True, persist_dir=store, crack_threshold=0
        )
        thread = ServerThread(database)
        host, port = thread.start()
        with Client(host, port) as client:
            client.execute("CREATE TABLE r (k integer, a integer)")
            client.execute("INSERT INTO r VALUES (1, 10), (2, 20), (3, 30)")
            client.execute("SELECT count(*) FROM r WHERE a BETWEEN 5 AND 25")
        report = thread.stop()
        assert report["checkpoint"] is not None
        assert report["checkpoint"]["statements_compacted"] == 2

        with Database(
            cracking=True, persist_dir=store, crack_threshold=0
        ) as recovered:
            stats = recovered.persistence_stats()
            assert stats["recovery_snapshot_loaded"] is True
            assert stats["recovery_wal_statements_replayed"] == 0  # empty tail
            assert recovered.execute("SELECT count(*) FROM r").scalar() == 3
            # Warm restart: the crack earned over the wire came back.
            assert recovered.piece_count("r", "a") > 1

    def test_stats_reply_shape(self):
        with served() as (_, host, port, _thread):
            with Client(host, port) as client:
                client.execute("CREATE TABLE r (k integer, a integer)")
                client.execute("INSERT INTO r VALUES (1, 10)")
                client.execute("SELECT count(*) FROM r WHERE a BETWEEN 0 AND 99")
                stats = client.stats()
                assert stats["server"]["connections"] == 1
                assert stats["gateway"]["executed"] >= 3
                assert stats["tables"] == {"r": 1}
                assert stats["crackers"] == {"r.a": pytest.approx(2, abs=1)}
                assert stats["session"]["statements"] == 3
                assert stats["persistence"] == {"persistent": False}


class TestObservabilitySurface:
    """METRICS wire message, enriched STATS, and the `repro stats` CLI."""

    def _warm(self, client: Client) -> None:
        client.execute("CREATE TABLE r (k integer, a integer)")
        values = ", ".join(f"({i}, {(i * 7) % 100})" for i in range(60))
        client.execute(f"INSERT INTO r VALUES {values}")
        for low in (5, 20, 40, 70):
            client.execute(
                f"SELECT count(*) FROM r WHERE a BETWEEN {low} AND {low + 20}"
            )

    def test_stats_carries_histograms_and_cracker_detail(self):
        unbounded = Database(
            cracking=True, mode="vector", concurrent=True, crack_threshold=0
        )
        with served(unbounded) as (_, host, port, _thread):
            with Client(host, port) as client:
                self._warm(client)
                stats = client.stats()
                hists = stats["metrics"]["histograms"][
                    "repro_statement_seconds"
                ]
                select = hists["kind=select"]
                assert select["count"] == 4
                assert 0 < select["p50"] <= select["p95"] <= select["p99"]
                assert hists["kind=insert"]["count"] == 1
                detail = stats["cracker_detail"]["r.a"]
                assert detail["pieces"] == stats["crackers"]["r.a"] >= 2
                assert detail["tuples"] == 60
                assert "queue_depth" in stats["server"]

    def test_metrics_exposition_end_to_end(self):
        with served() as (_, host, port, _thread):
            with Client(host, port) as client:
                self._warm(client)
                text = client.metrics()
                assert "# TYPE repro_statement_seconds histogram" in text
                assert 'repro_statement_seconds_count{kind="select"} 4' in text
                assert 'repro_cracker_pieces{column="r.a"}' in text
                assert "repro_gateway_executed" in text
                assert "repro_server_connections 1" in text
                assert "repro_session_statements" in text
                # Every non-comment line is "name{labels} value".
                for line in text.strip().splitlines():
                    if line.startswith("#"):
                        continue
                    name, _, value = line.rpartition(" ")
                    assert name and value not in ("", "None"), line
            async_text = asyncio.run(self._async_metrics(host, port))
            assert "repro_gateway_executed" in async_text

    @staticmethod
    async def _async_metrics(host, port) -> str:
        # reconnect=False: entering the context must itself connect (it
        # used to rely on the reconnect path rescuing the first call).
        async with AsyncClient(host, port, reconnect=False) as client:
            return await client.metrics()

    def test_repro_stats_cli(self, capsys):
        from repro.__main__ import main as cli_main

        with served() as (_, host, port, _thread):
            with Client(host, port) as client:
                self._warm(client)
                assert cli_main(["stats", f"{host}:{port}"]) == 0
                summary = capsys.readouterr().out
                assert "statement latency (ms):" in summary
                assert "cracker r.a:" in summary
                assert "gateway:" in summary
                assert cli_main(["stats", f"{host}:{port}", "--raw"]) == 0
                raw = capsys.readouterr().out
                assert "# TYPE repro_statement_seconds histogram" in raw

    def test_repro_stats_cli_bad_address(self, capsys):
        from repro.__main__ import run_stats

        # Nothing listens here: the CLI reports and exits nonzero.
        assert run_stats(["127.0.0.1:1"]) == 1
        assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------- #
# Both execution modes
# ---------------------------------------------------------------------- #


@pytest.mark.usefixtures("threaded")
class TestDifferentialOracleThreaded(TestDifferentialOracle):
    """The same byte-equality, engine calls on the thread pool."""


@pytest.mark.usefixtures("threaded")
class TestConcurrentClientsThreaded(TestConcurrentClients):
    """Four clients, four workers: the engine's RW locks arbitrate."""


@pytest.mark.usefixtures("threaded")
class TestTransactionsThreaded(TestTransactions):
    """Deferred transactions, engine calls on the thread pool."""


def slow_database(seconds: float) -> Database:
    """A database whose every ``execute`` first sleeps ``seconds``."""
    database = Database(cracking=True, concurrent=True)
    real_execute = database.execute

    def slow_execute(sql, mode=None):
        time.sleep(seconds)
        return real_execute(sql, mode=mode)

    database.execute = slow_execute
    return database


def hello(sock, decoder) -> None:
    sock.sendall(encode_frame({"type": "hello", "protocol": PROTOCOL_VERSION}))
    assert read_one(sock, decoder)["type"] == "hello"


def read_to_eof(sock, decoder) -> list[dict]:
    """Every message the server sends until it hangs up."""
    messages: list[dict] = []
    while data := sock.recv(1 << 16):
        messages.extend(decoder.feed(data))
    return messages


class TestExecutionModes:
    def test_mode_is_derived_and_reported(self, capsys):
        from repro.__main__ import main as cli_main

        for kwargs, inline, shown in (
            ({}, True, "gateway: inline,"),
            ({"pool_size": 4}, False, "gateway: 4 worker thread(s),"),
            ({"statement_timeout": 5.0}, False, "gateway: 1 worker thread(s),"),
        ):
            with served(**kwargs) as (_, host, port, _thread):
                with Client(host, port) as client:
                    assert client.stats()["gateway"]["inline"] is inline, kwargs
                assert cli_main(["stats", f"{host}:{port}"]) == 0
                assert shown in capsys.readouterr().out

    def test_inline_keeps_the_books_and_never_rejects(self):
        # max_pending=1 would refuse a second admitted statement; inline
        # calls finish before the next is admitted, so none ever is.
        with served(max_pending=1) as (_, host, port, thread):
            with Client(host, port) as client:
                client.execute("CREATE TABLE r (k integer)")
                client.execute("INSERT INTO r VALUES (1), (2), (3)")
                counts = client.execute_many(["SELECT count(*) FROM r"] * 40)
                assert [result.scalar() for result in counts] == [3] * 40
                gateway = client.stats()["gateway"]
            assert gateway["inline"] is True
            assert gateway["executed"] >= 3  # 2 statements + >=1 folded run
            assert gateway["peak_pending"] == 1
            assert gateway["pending"] == 0
            assert gateway["rejected"] == 0
            assert thread.server.gateway._pool is None  # no thread was made

    def test_statement_timeout_with_one_worker_takes_the_thread_pool(self):
        # A timeout needs a second thread: the caller must be able to
        # give up on a call that is still running.
        database = slow_database(0.3)
        with served(database, pool_size=1, statement_timeout=0.05) as (
            _, host, port, thread,
        ):
            with Client(host, port) as client:
                with pytest.raises(RemoteError) as info:
                    client.execute("CREATE TABLE r (k integer)")
                assert info.value.code == "timeout"
            gateway = thread.server.gateway.stats()
            assert gateway["inline"] is False
            assert gateway["timeouts"] == 1

    @pytest.mark.parametrize("pool_size", [1, 4])
    def test_stop_answers_what_was_received_then_says_goodbye(self, pool_size):
        database = slow_database(0.02)
        database.execute("CREATE TABLE r (k integer)")
        database.execute("INSERT INTO r VALUES (1), (2), (3)")
        # pipeline_batch=1: five engine trips, so the stop request lands
        # while most of the run is still waiting in the backlog.
        thread = ServerThread(database, pool_size=pool_size, pipeline_batch=1)
        host, port = thread.start()
        sock = socket.create_connection((host, port))
        try:
            decoder = FrameDecoder()
            hello(sock, decoder)
            sock.sendall(b"".join(
                encode_frame({"type": "query", "sql": f"SELECT count(*) FROM r WHERE k < {i}"})
                for i in range(5)
            ))
            time.sleep(0.03)  # received; at most the first two answered
            thread.stop()
            replies = read_to_eof(sock, decoder)
        finally:
            sock.close()
        assert [reply["type"] for reply in replies] == ["result"] * 5 + ["goodbye"]
        assert [reply["rows"] for reply in replies[:5]] == [[[0]], [[0]], [[1]], [[2]], [[3]]]


class TestBackpressure:
    """A client that writes without reading stalls the server instead of
    growing it; nothing is dropped or reordered."""

    ROWS = 1000
    REQUESTS = 3000

    @staticmethod
    def _rss_mb() -> float:
        with open("/proc/self/statm") as handle:
            return int(handle.read().split()[1]) * 4096 / 2**20

    def test_stalled_reader_bounds_queue_and_memory(self):
        database = Database(cracking=True, mode="vector", concurrent=True)
        database.execute("CREATE TABLE r (k integer, a integer)")
        values = ", ".join(f"({i}, {i})" for i in range(self.ROWS + 8))
        database.execute(f"INSERT INTO r VALUES {values}")
        # Reply i carries ROWS + i % 7 rows: ~16 KiB each, ~48 MiB in
        # all, and its length says which request it answers.
        expected = [self.ROWS + i % 7 for i in range(self.REQUESTS)]
        frames = [
            encode_frame({"type": "query", "sql": f"SELECT r.k, r.a FROM r WHERE a < {n}"})
            for n in expected
        ]
        with served(database) as (_, host, port, thread):
            sock = socket.socket()
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 16)
            sock.connect((host, port))
            try:
                decoder = FrameDecoder()
                hello(sock, decoder)
                writer = threading.Thread(
                    target=sock.sendall, args=(b"".join(frames),), daemon=True
                )
                (conn,) = thread.server._connections.values()
                before = self._rss_mb()
                writer.start()
                # Stalled = the count of statements taken up stops moving.
                taken, still = -1, 0
                deadline = time.monotonic() + 30
                while still < 5 and time.monotonic() < deadline:
                    time.sleep(0.05)
                    still = still + 1 if conn.session.statements == taken else 0
                    taken = conn.session.statements
                assert 0 < taken < self.REQUESTS // 2, "server never stalled"
                # One socket read's worth of decoded requests, at most.
                bound = _READ_BYTES // len(frames[0]) + 1
                assert thread.server.stats()["queue_depth"] <= bound
                assert conn.writer.transport.get_write_buffer_size() < 1 << 20
                assert self._rss_mb() - before < 16  # not the 48 MiB of replies
                # Now read: every reply arrives, in request order.
                received: list[int] = []
                while len(received) < self.REQUESTS:
                    data = sock.recv(1 << 20)
                    assert data, "server hung up mid-stream"
                    received.extend(
                        len(message["cols"][0]) for message in decoder.feed(data)
                    )
                writer.join(timeout=10)
                assert received == expected
            finally:
                sock.close()

    def test_good_frames_before_a_malformed_one_are_answered_first(self):
        with served() as (database, host, port, _thread):
            database.execute("CREATE TABLE r (k integer)")
            database.execute("INSERT INTO r VALUES (1), (2), (3)")
            sock = socket.create_connection((host, port))
            try:
                # One segment: hello, three good requests, one bad frame.
                segment = b"".join(
                    [encode_frame({"type": "hello", "protocol": PROTOCOL_VERSION})]
                    + [
                        encode_frame({"type": "query", "sql": f"SELECT count(*) FROM r WHERE k < {i}"})
                        for i in (2, 3, 4)
                    ]
                    + [len(b"nope").to_bytes(4, "big") + b"nope"]
                )
                sock.sendall(segment)
                replies = read_to_eof(sock, FrameDecoder())  # ... then hang-up
            finally:
                sock.close()
        assert [reply["type"] for reply in replies] == [
            "hello", "result", "result", "result", "error",
        ]
        assert [reply["rows"] for reply in replies[1:4]] == [[[1]], [[2]], [[3]]]
        assert replies[4]["code"] == "protocol"
