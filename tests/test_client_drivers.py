"""One scenario table, both drivers.

:class:`Client` and :class:`AsyncClient` are two transports over one
sans-IO core, so every scenario here runs unchanged through both —
against one shared :class:`ServerThread` per execution mode (engine
calls inline on the loop thread, and on the gateway's worker) — and is
checked against embedded execution of the same statements.  A scenario is an ``async``
function; :func:`do` awaits what the asyncio driver returns and passes
through what the blocking one does.
"""

import asyncio
import inspect
import itertools

import pytest

from repro.client import AsyncClient, Client
from repro.errors import AmbiguousResultError, RemoteError
from repro.server import protocol
from repro.server.protocol import COMPRESS_MIN_BYTES, SMALL_RESULT_ROWS
from repro.sql import Database

from test_server import served, wire_json

_table_ids = itertools.count()


@pytest.fixture(scope="module")
def server():
    with served() as (_, host, port, _thread):
        yield host, port


@pytest.fixture(scope="module")
def threaded_server():
    """The same server with engine calls on the gateway's one worker
    thread (a statement timeout puts them there)."""
    with served(statement_timeout=60) as (_, host, port, _thread):
        yield host, port


async def do(value):
    return await value if inspect.isawaitable(value) else value


async def open_client(driver: str, host: str, port: int, **kwargs):
    if driver == "sync":
        return Client(host, port, **kwargs)
    return await AsyncClient.connect(host, port, **kwargs)


def lose_next_reply(client) -> None:
    """The server processes the next request, but its reply is 'lost in
    flight' — read off the wire, then discarded while the connection
    dies.  This is exactly the ambiguous window: the server HAS applied
    the statement, the client cannot know.  One-shot; works on either
    driver because both perform the core's steps through ``_io``."""
    real = client._io

    def lossy(op, arg):
        if op != "recv":
            return real(op, arg)
        client._io = real
        outcome = real(op, arg)  # the reply: applied server-side, never seen
        if not inspect.isawaitable(outcome):
            raise ConnectionResetError("simulated: connection died mid-reply")

        async def drop():
            await outcome
            raise ConnectionResetError("simulated: connection died mid-reply")

        return drop()

    client._io = lossy


async def assert_same(client, embedded, statement: str) -> None:
    expected = embedded.execute(statement)
    actual = await do(client.execute(statement))
    assert actual.columns == list(expected.columns), statement
    assert actual.affected == expected.affected, statement
    assert wire_json(actual.rows) == wire_json(expected.rows), statement


async def load(client, embedded, t: str, rows: int = 40) -> None:
    values = ", ".join(f"({i}, {(i * 7) % 100}, 't{i % 3}')" for i in range(rows))
    for statement in (
        f"CREATE TABLE {t} (k integer, a integer, tag varchar)",
        f"INSERT INTO {t} VALUES {values}",
    ):
        await assert_same(client, embedded, statement)


# ---------------------------------------------------------------------- #
# Scenarios: async def scenario(client, embedded, t)
# ---------------------------------------------------------------------- #


async def execute(client, embedded, t):
    await load(client, embedded, t)
    small = f"SELECT count(*), sum({t}.a) FROM {t} WHERE a BETWEEN 10 AND 60"
    bulk = f"SELECT {t}.k, {t}.a, {t}.tag FROM {t} WHERE a >= 0 ORDER BY a, k"
    await assert_same(client, embedded, small)
    await assert_same(client, embedded, bulk)
    # The bulk answer crossed the wire columnar; the count(*) as JSON.
    assert len(embedded.execute(bulk).rows) > SMALL_RESULT_ROWS
    assert (await do(client.execute(bulk))).arrays[f"{t}.k"].dtype.kind == "i"
    with pytest.raises(RemoteError) as info:
        await do(client.execute(f"SELECT * FROM {t}_missing"))
    assert info.value.code in ("catalog", "analysis")


async def execute_many_failing_mid_window(client, embedded, t):
    await load(client, embedded, t)
    good = [f"SELECT count(*) FROM {t} WHERE a < {v}" for v in (10, 50, 90)]
    batch = [good[0], f"SELECT * FROM {t}_missing", good[1], good[2]]
    out = await do(client.execute_many(batch, window=4, raise_on_error=False))
    assert out[1]["type"] == "error"
    for result, statement in zip([out[0], out[2], out[3]], good):
        assert wire_json(result.rows) == wire_json(embedded.execute(statement).rows)
    with pytest.raises(RemoteError):
        await do(client.execute_many(batch, window=4))
    # Every reply of the failing window was drained: still in sync.
    await assert_same(client, embedded, good[2])


async def prepare_execute_close(client, embedded, t):
    await load(client, embedded, t)
    template = f"SELECT count(*), sum({t}.a) FROM {t} WHERE a BETWEEN 0 AND 10"
    local = embedded.prepare(template)
    remote = await do(client.prepare(template))
    assert remote.parameter_count == local.parameter_count
    for params in (None, (0, 10), (20, 80), (90, 5)):
        expected = local.execute(params)
        actual = await do(remote.execute(params))
        assert wire_json(actual.rows) == wire_json(expected.rows), params
    await do(remote.close())
    await do(remote.close())  # idempotent
    assert remote.closed and remote not in client._prepared
    with pytest.raises(RemoteError) as info:
        await do(remote.execute())
    assert info.value.code == "protocol"  # the handle died with close()


async def begin_queue_commit_abort(client, embedded, t):
    await load(client, embedded, t)
    count = f"SELECT count(*) FROM {t}"
    await do(client.begin())
    assert client.in_transaction
    queued = await do(client.execute(f"INSERT INTO {t} VALUES (900, 1, 'x')"))
    assert queued == {"type": "queued", "queued": 1}
    await assert_same(client, embedded, count)  # reads see committed state
    assert (await do(client.abort()))["discarded"] == 1
    assert not client.in_transaction
    txn = [
        f"INSERT INTO {t} VALUES (901, 2, 'y')",
        f"UPDATE {t} SET a = 3 WHERE k = 901",
    ]
    await do(client.begin())
    for statement in txn:
        assert (await do(client.execute(statement)))["type"] == "queued"
    assert (await do(client.commit()))["statements"] == 2
    assert not client.in_transaction
    embedded.execute_transaction(txn)
    await assert_same(client, embedded, count)
    await assert_same(client, embedded, f"SELECT {t}.a FROM {t} WHERE k = 901")


async def lost_reply_on_select_is_retried(client, embedded, t):
    await load(client, embedded, t)
    session = client.server_info["session"]
    lose_next_reply(client)
    await assert_same(client, embedded, f"SELECT count(*) FROM {t} WHERE a < 50")
    assert client.server_info["session"] != session  # it did reconnect


async def lost_reply_on_update_is_ambiguous(client, embedded, t):
    await load(client, embedded, t)
    # The server applies each mutation exactly once; a blind retry would
    # have applied the INSERT twice.  The client reconnected (best
    # effort), so the caller can check for itself.
    for mutation in (
        f"UPDATE {t} SET a = 1000 WHERE k < 5",
        f"INSERT INTO {t} VALUES (900, 1, 'x')",
    ):
        lose_next_reply(client)
        with pytest.raises(AmbiguousResultError):
            await do(client.execute(mutation))
        embedded.execute(mutation)
        await assert_same(client, embedded, f"SELECT count(*), sum({t}.a) FROM {t}")


async def reconnect_reprepares_live_handle(client, embedded, t):
    await load(client, embedded, t)
    # Handles are session-scoped: close the first statement so the
    # survivor's old handle cannot coincide with its re-prepared one.
    first = await do(client.prepare(f"SELECT count(*) FROM {t} WHERE a < 5"))
    await do(first.close())
    template = f"SELECT count(*) FROM {t} WHERE a BETWEEN 0 AND 25"
    second = await do(client.prepare(template))
    old_handle = second.handle
    lose_next_reply(client)
    actual = await do(second.execute((10, 70)))
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


both_drivers = pytest.mark.parametrize("driver", ["sync", "async"])
every_scenario = pytest.mark.parametrize(
    "scenario", SCENARIOS, ids=lambda fn: fn.__name__
)


@both_drivers
@every_scenario
def test_scenario_threaded(threaded_server, scenario, driver):
    test_scenario(threaded_server, scenario, driver)


@both_drivers
def test_opted_in_compression(server, driver, monkeypatch):
    """Neither driver offers zlib by default any more, so the inflate
    path gets one opted-in run each over a real socket: a body past
    ``COMPRESS_MIN_BYTES`` arrives deflated and equals embedded."""
    inflated = []
    real = protocol._inflate

    def recording(body):
        inflated.append(real(body))
        return inflated[-1]

    monkeypatch.setattr(protocol, "_inflate", recording)

    async def compressed_bulk(client, embedded, t):
        assert client.compression == "zlib"
        await load(client, embedded, t, rows=600)
        await assert_same(client, embedded, f"SELECT {t}.k, {t}.a, {t}.tag FROM {t}")
        assert [len(body) > COMPRESS_MIN_BYTES for body in inflated] == [True]

    test_scenario(server, compressed_bulk, driver, compression=True)


@both_drivers
@every_scenario
def test_scenario(server, scenario, driver, **client_kwargs):
    embedded = Database(cracking=True)

    async def main():
        client = await open_client(driver, *server, **client_kwargs)
        try:
            await scenario(client, embedded, f"t{next(_table_ids)}")
        finally:
            await do(client.close())

    asyncio.run(main())
