"""The client's reply reader: one frame at a time from one buffer.

Every valid reply stream must give the same answers however the
transport cuts it: each ``recv`` of a scripted socket hands over the
next piece, at every piece size from one byte to the whole stream, and
once with the HELLO reply and the whole stream coalesced into a single
read (the buffered rest then answers without another ``recv``).  A
JSON payload is its value from the first byte to the end or to trailing
whitespace.
"""

from unittest import mock

import numpy as np
import pytest

from repro.client import Client
from repro.errors import ProtocolError, ServerUnavailableError
from repro.server import protocol
from repro.server.protocol import (
    encode_frame,
    encode_result_frames,
    error_reply,
    result_reply,
)
from repro.sql import QueryResult

from test_wire_fuzz import ScriptedSocket

HELLO = encode_frame({"type": "hello", "protocol": 2, "session": 1})
GOODBYE = encode_frame({"type": "goodbye", "reason": "server shutdown"})


def small_result() -> QueryResult:
    return QueryResult(["n"], [(7,)], affected=0)


def full_result() -> QueryResult:
    rows = [(i, i * 0.25, f"t{i % 3}" if i % 4 else None) for i in range(40)]
    return QueryResult(["k", "w", "tag"], rows)


def chunk_result() -> QueryResult:
    k = np.arange(30, dtype=np.int64)
    return QueryResult(["k", "w"], arrays={"k": k, "w": k / 8})


def chunk_frames(monkeypatch) -> list[bytes]:
    """Three CHUNK frames and their END trailer (16 bytes a row, 10 rows
    a chunk)."""
    monkeypatch.setattr(protocol, "CHUNK_BYTES", 160)
    frames = list(encode_result_frames(chunk_result()))
    monkeypatch.undo()
    assert len(frames) == 4
    return frames


def same(got, want) -> bool:
    if isinstance(want, QueryResult):
        return (
            isinstance(got, QueryResult)
            and got.columns == want.columns
            and got.rows == want.rows
            and got.affected == want.affected
        )
    return got == want


def scripts(stream: bytes):
    """Every way the reads may cut ``stream`` after the HELLO reply: as
    ``(pieces read at connect, pieces read after)``."""
    for size in range(1, len(stream) + 1):
        yield [HELLO], [stream[i:i + size] for i in range(0, len(stream), size)]
    yield [HELLO + stream], []


def replay(stream: bytes, call):
    """``call(client)`` on every cut of ``stream``; the answers it gave."""
    answers = []
    script = ScriptedSocket()
    with mock.patch("socket.create_connection", return_value=script):
        for at_connect, after in scripts(stream):
            script.received = list(at_connect)
            client = Client("scripted", 0, reconnect=False)
            script.received = after
            answers.append(call(client))
            assert not script.received  # every byte was read, none twice
    return answers


@pytest.mark.parametrize("shape", ["json", "full", "chunks"])
def test_a_result_reads_the_same_at_every_cut(shape, monkeypatch):
    if shape == "json":
        want, stream = small_result(), encode_frame(result_reply(small_result()))
    elif shape == "full":
        (stream,) = encode_result_frames(full_result())  # one binary FULL frame
        want = full_result()
    else:
        want, stream = chunk_result(), b"".join(chunk_frames(monkeypatch))
    for got in replay(stream, lambda client: client.execute("SELECT ...")):
        assert same(got, want)


def test_a_pipelined_window_reads_the_same_at_every_cut(monkeypatch):
    queued = {"type": "queued", "queued": 1}
    error = error_reply("syntax", "near 'SELEKT'")
    want = [small_result(), queued, error, chunk_result(), full_result()]
    stream = b"".join([
        encode_frame(result_reply(small_result())),
        encode_frame(queued),
        encode_frame(error),
        *chunk_frames(monkeypatch),
        *encode_result_frames(full_result()),
    ])
    statements = [f"SELECT {i}" for i in range(len(want))]

    def window(client):
        return client.execute_many(statements, len(statements), raise_on_error=False)

    for got in replay(stream, window):
        assert len(got) == len(want)
        assert all(same(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("chunks_before", [0, 2])
def test_an_unasked_goodbye_is_unavailability(chunks_before, monkeypatch):
    """A goodbye alone, or one that cuts a chunk stream short, is the
    server going away: the call raises and the connection is dropped."""
    stream = b"".join(chunk_frames(monkeypatch)[:chunks_before]) + GOODBYE
    script = ScriptedSocket()
    with mock.patch("socket.create_connection", return_value=script):
        script.received = [HELLO]
        client = Client("scripted", 0, reconnect=False)
        script.received = [stream]
        with pytest.raises(ServerUnavailableError, match="goodbye"):
            client.execute("SELECT 1")
        assert client._sock is None
        with pytest.raises(ServerUnavailableError):
            client.execute("SELECT 1")


def test_a_goodbye_answers_close():
    script = ScriptedSocket()
    with mock.patch("socket.create_connection", return_value=script):
        script.received = [HELLO]
        client = Client("scripted", 0, reconnect=False)
        script.received = [GOODBYE]
        client.close()
    assert client._sock is None


@pytest.mark.parametrize(
    "payload, ok",
    [
        (b'{"type":"queued","queued":1}', True),
        (b'{"type":"queued","queued":1} \r\n', True),  # padding, as headers carry
        (b' {"type":"queued","queued":1}', False),  # no encoder writes this
        (b'{"type":"queued"} {}', False),
        (b"", False),
        (b"{", False),
        (b"[" * 100_000, False),
    ],
)
def test_a_json_payload_is_its_value_from_the_first_byte(payload, ok):
    if ok:
        assert protocol.decode_payload(payload) == {"type": "queued", "queued": 1}
    else:
        with pytest.raises(ProtocolError, match="undecodable"):
            protocol.decode_payload(payload)
