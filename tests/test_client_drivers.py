"""One scenario table, the client against a server with and without a
statement timeout.

Every scenario runs :class:`Client` against two shared
:class:`ServerThread` s (no statement timeout, and a 60 s one no
statement reaches) and is checked against embedded execution of the
same statements: a deadline that does not pass changes no answer.
"""

import itertools

import pytest

from repro.client import Client
from repro.errors import AmbiguousResultError, RemoteError
from repro.server.protocol import SMALL_RESULT_ROWS
from repro.sql import Database

from test_server import served, wire_json

_table_ids = itertools.count()


@pytest.fixture(scope="module")
def server():
    with served() as (_, host, port, _thread):
        yield host, port


@pytest.fixture(scope="module")
def deadline_server():
    """The same server with each statement under a 60 s deadline."""
    with served(statement_timeout=60) as (_, host, port, _thread):
        yield host, port


class _LosesNextReply:
    """A client socket whose next ``recv`` reads the reply, then dies."""

    def __init__(self, sock) -> None:
        self._sock = sock

    def __getattr__(self, name):
        return getattr(self._sock, name)

    def recv(self, size: int) -> bytes:
        self._sock.recv(size)  # the reply: applied server-side, never seen
        raise ConnectionResetError("simulated: connection died mid-reply")


def lose_next_reply(client) -> None:
    """The server processes the next request, but its reply is 'lost in
    flight' — read off the wire, then discarded while the connection
    dies.  This is exactly the ambiguous window: the server HAS applied
    the statement, the client cannot know.  One-shot: the reconnect
    opens a fresh socket."""
    client._sock = _LosesNextReply(client._sock)


def assert_same(client, embedded, statement: str) -> None:
    expected = embedded.execute(statement)
    actual = client.execute(statement)
    assert actual.columns == list(expected.columns), statement
    assert actual.affected == expected.affected, statement
    assert wire_json(actual.rows) == wire_json(expected.rows), statement


def load(client, embedded, t: str, rows: int = 40) -> None:
    values = ", ".join(f"({i}, {(i * 7) % 100}, 't{i % 3}')" for i in range(rows))
    for statement in (
        f"CREATE TABLE {t} (k integer, a integer, tag varchar)",
        f"INSERT INTO {t} VALUES {values}",
    ):
        assert_same(client, embedded, statement)


# ---------------------------------------------------------------------- #
# Scenarios: def scenario(client, embedded, t)
# ---------------------------------------------------------------------- #


def execute(client, embedded, t):
    load(client, embedded, t)
    small = f"SELECT count(*), sum({t}.a) FROM {t} WHERE a BETWEEN 10 AND 60"
    bulk = f"SELECT {t}.k, {t}.a, {t}.tag FROM {t} WHERE a >= 0 ORDER BY a, k"
    assert_same(client, embedded, small)
    assert_same(client, embedded, bulk)
    # The bulk answer crossed the wire columnar; the count(*) as JSON.
    assert len(embedded.execute(bulk).rows) > SMALL_RESULT_ROWS
    assert client.execute(bulk).arrays[f"{t}.k"].dtype.kind == "i"
    with pytest.raises(RemoteError) as info:
        client.execute(f"SELECT * FROM {t}_missing")
    assert info.value.code in ("catalog", "analysis")


def execute_many_failing_mid_window(client, embedded, t):
    load(client, embedded, t)
    good = [f"SELECT count(*) FROM {t} WHERE a < {v}" for v in (10, 50, 90)]
    batch = [good[0], f"SELECT * FROM {t}_missing", good[1], good[2]]
    out = client.execute_many(batch, window=4, raise_on_error=False)
    assert out[1]["type"] == "error"
    for result, statement in zip([out[0], out[2], out[3]], good):
        assert wire_json(result.rows) == wire_json(embedded.execute(statement).rows)
    with pytest.raises(RemoteError):
        client.execute_many(batch, window=4)
    # Every reply of the failing window was drained: still in sync.
    assert_same(client, embedded, good[2])


def prepare_execute_close(client, embedded, t):
    load(client, embedded, t)
    template = f"SELECT count(*), sum({t}.a) FROM {t} WHERE a BETWEEN 0 AND 10"
    local = embedded.prepare(template)
    remote = client.prepare(template)
    assert remote.parameter_count == local.parameter_count
    for params in (None, (0, 10), (20, 80), (90, 5)):
        expected = local.execute(params)
        actual = remote.execute(params)
        assert wire_json(actual.rows) == wire_json(expected.rows), params
    remote.close()
    remote.close()  # idempotent
    assert remote.closed and remote not in client._prepared
    with pytest.raises(RemoteError) as info:
        remote.execute()
    assert info.value.code == "protocol"  # the handle died with close()


def begin_queue_commit_abort(client, embedded, t):
    load(client, embedded, t)
    count = f"SELECT count(*) FROM {t}"
    client.begin()
    assert client.in_transaction
    queued = client.execute(f"INSERT INTO {t} VALUES (900, 1, 'x')")
    assert queued == {"type": "queued", "queued": 1}
    assert_same(client, embedded, count)  # reads see committed state
    assert client.abort()["discarded"] == 1
    assert not client.in_transaction
    txn = [
        f"INSERT INTO {t} VALUES (901, 2, 'y')",
        f"UPDATE {t} SET a = 3 WHERE k = 901",
    ]
    client.begin()
    for statement in txn:
        assert client.execute(statement)["type"] == "queued"
    assert client.commit()["statements"] == 2
    assert not client.in_transaction
    embedded.execute_transaction(txn)
    assert_same(client, embedded, count)
    assert_same(client, embedded, f"SELECT {t}.a FROM {t} WHERE k = 901")


def lost_reply_on_select_is_retried(client, embedded, t):
    load(client, embedded, t)
    session = client.server_info["session"]
    lose_next_reply(client)
    assert_same(client, embedded, f"SELECT count(*) FROM {t} WHERE a < 50")
    assert client.server_info["session"] != session  # it did reconnect


def lost_reply_on_update_is_ambiguous(client, embedded, t):
    load(client, embedded, t)
    # The server applies each mutation exactly once; a blind retry would
    # have applied the INSERT twice.  The client reconnected (best
    # effort), so the caller can check for itself.
    for mutation in (
        f"UPDATE {t} SET a = 1000 WHERE k < 5",
        f"INSERT INTO {t} VALUES (900, 1, 'x')",
    ):
        lose_next_reply(client)
        with pytest.raises(AmbiguousResultError):
            client.execute(mutation)
        embedded.execute(mutation)
        assert_same(client, embedded, f"SELECT count(*), sum({t}.a) FROM {t}")


def reconnect_reprepares_live_handle(client, embedded, t):
    load(client, embedded, t)
    # Handles are session-scoped: close the first statement so the
    # survivor's old handle cannot coincide with its re-prepared one.
    first = client.prepare(f"SELECT count(*) FROM {t} WHERE a < 5")
    first.close()
    template = f"SELECT count(*) FROM {t} WHERE a BETWEEN 0 AND 25"
    second = client.prepare(template)
    old_handle = second.handle
    lose_next_reply(client)
    actual = second.execute((10, 70))
    assert second.handle != old_handle
    expected = embedded.prepare(template).execute((10, 70))
    assert wire_json(actual.rows) == wire_json(expected.rows)


SCENARIOS = [
    execute,
    execute_many_failing_mid_window,
    prepare_execute_close,
    begin_queue_commit_abort,
    lost_reply_on_select_is_retried,
    lost_reply_on_update_is_ambiguous,
    reconnect_reprepares_live_handle,
]


every_scenario = pytest.mark.parametrize(
    "scenario", SCENARIOS, ids=lambda fn: fn.__name__
)
#: The blocking client is the one driver; the id keeps each test's name.
sync_driver = pytest.mark.parametrize("driver", ["sync"])


@sync_driver
@every_scenario
def test_scenario_threaded(deadline_server, scenario, driver):
    test_scenario(deadline_server, scenario, driver)


@sync_driver
@every_scenario
def test_scenario(server, scenario, driver):
    embedded = Database(cracking=True)
    with Client(*server) as client:
        scenario(client, embedded, f"t{next(_table_ids)}")
