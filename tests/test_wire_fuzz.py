"""Hostile input on the wire: typed errors, bounded memory, nothing else.

Three surfaces see bytes from outside the process and must answer any
of them with :class:`ProtocolError` (or a decoded message) — never a
``KeyError``/``TypeError``/``IndexError`` and never an allocation past
the frame cap:

* ``FrameDecoder.feed`` → ``ResultAssembler.feed`` (the client's
  decode path), fuzzed with random bytes, truncations and single-field
  mutations of valid ``encode_result_frames`` output;
* the client, on a *scripted* socket whose ``recv`` calls return the
  same bytes;
* a live server, which reads JSON requests only and refuses a binary
  frame without decoding it.
"""

import json
import socket
import struct
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.client import Client
from repro.errors import ProtocolError, RemoteError, ServerUnavailableError
from repro.server.protocol import (
    _BIN_HEAD as _HEAD,
    FrameDecoder,
    ResultAssembler,
    decode_payload,
    encode_frame,
    encode_result_frames,
    result_reply,
)
from repro.sql import QueryResult

from test_protocol_v2 import chunked
from test_server import read_one as _read_one, served

def _unpack(frame: bytes):
    """``(kind, flags, header dict, body bytes)`` of one binary frame."""
    _, kind, flags, header_len = _HEAD.unpack_from(frame, 4)
    start = 4 + _HEAD.size
    header = json.loads(frame[start:start + header_len])
    return kind, flags, header, frame[start + header_len:]


def _pack(kind: int, flags: int, header, body: bytes) -> bytes:
    header_bytes = json.dumps(header).encode()
    payload = _HEAD.pack(0, kind, flags, len(header_bytes)) + header_bytes + body
    return len(payload).to_bytes(4, "big") + payload


def _corpus() -> list[bytes]:
    """Valid frames of every shape the encoder produces."""
    mixed = QueryResult(
        columns=["k", "w", "tag", "n"],
        rows=[(i, i * 0.5, None if i % 5 == 0 else f"t{i % 3}", None if i % 2 else i)
              for i in range(40)],
    )
    wide = QueryResult(columns=["x"], rows=[(7,)] * 2000)
    frames = list(encode_result_frames(mixed))
    frames += chunked(mixed, 400)  # three chunks of 13-15 rows
    frames += encode_result_frames(wide)
    frames.append(encode_frame(result_reply(QueryResult(columns=["c"], rows=[(3,)]))))
    return frames


CORPUS = _corpus()
BINARY = [frame for frame in CORPUS if frame[4] == 0]

#: Replacement values for a mutated header/descriptor field.
JUNK = st.sampled_from(
    [None, True, "x", "O", "<i8", -5, 3, 1.5, 2**40, [], [1], {}, {"size": 1}]
)


@st.composite
def mutated_frames(draw) -> bytes:
    """A valid binary frame with exactly one thing wrong with it."""
    kind, flags, header, body = _unpack(draw(st.sampled_from(BINARY)))
    where = draw(st.sampled_from(["header", "descriptor", "kind", "flags", "body"]))
    if where == "descriptor" and header.get("cols"):
        target = draw(st.sampled_from(header["cols"]))
    else:
        target = header
    if where in ("header", "descriptor"):
        key = draw(st.sampled_from(sorted(target)))
        if draw(st.booleans()):
            del target[key]
        else:
            target[key] = draw(JUNK)
    elif where == "kind":
        kind = draw(st.integers(0, 255))
    elif where == "flags":
        flags ^= 0x01
    else:
        body = body[: draw(st.integers(0, len(body)))] + draw(st.binary(max_size=8))
    return _pack(kind, flags, header, body)


def _reframed(payload: bytes) -> bytes:
    return len(payload).to_bytes(4, "big") + payload


hostile_bytes = st.one_of(
    st.binary(max_size=256),
    st.binary(max_size=256).map(lambda tail: _reframed(b"\x00" + tail)),
    st.builds(  # truncation, raw and re-framed so the decoder sees the stump
        lambda frame, cut, reframe: (
            _reframed(frame[4:4 + cut]) if reframe else frame[:cut]
        ),
        st.sampled_from(CORPUS), st.integers(0, 300), st.booleans(),
    ),
    mutated_frames(),
)


def _decode_all(data: bytes) -> list[dict]:
    assembler = ResultAssembler()
    out = []
    for message in FrameDecoder().feed(data):
        logical = assembler.feed(message)
        if logical is not None:
            out.append(logical)
    return out


class TestDecoderFuzz:
    def test_corpus_decodes(self):
        messages = _decode_all(b"".join(CORPUS))
        assert [m["type"] for m in messages] == ["result"] * 4
        assert len(messages[1]["rows"]) == 40  # the chunk stream, reassembled

    @settings(max_examples=400, deadline=None)
    @given(hostile_bytes)
    def test_only_messages_or_protocol_errors(self, data):
        try:
            messages = _decode_all(data)
        except ProtocolError:
            return
        assert all(isinstance(message, dict) for message in messages)


def _hostile(body: bytes = struct.pack("<qq", 1, 2), **changes) -> bytes:
    """The one-column, two-row FULL frame with header/descriptor fields
    replaced (``None`` deletes; ``col_*`` addresses the descriptor)."""
    header = {
        "columns": ["x"],
        "cols": [{"enc": "ndarray", "dtype": "<i8", "size": 16}],
        "rows": 2,
        "affected": 0,
    }
    for key, value in changes.items():
        target = header
        if key.startswith("col_"):
            target, key = header["cols"][0], key[4:]
        if value is None:
            del target[key]
        else:
            target[key] = value
    return _pack(1, 0, header, body)


def _flagged(frame: bytes, flags: int) -> bytes:
    """``frame`` with its flags byte set to ``flags``."""
    return frame[:6] + bytes([flags]) + frame[7:]


def _dict_codes(*codes: int) -> bytes:
    return _hostile(
        struct.pack("<ii", *codes), col_enc="dict", col_values=["a"], col_size=8
    )


#: Every malformed frame some earlier build answered with an untyped
#: exception, a silent wrong value or a 256 MiB allocation.
HOSTILE_FRAMES = {
    "missing-columns": lambda: _hostile(columns=None),
    "missing-affected": lambda: _hostile(affected=None),
    "bad-dtype": lambda: _hostile(col_dtype="no-such-dtype"),
    "object-dtype": lambda: _hostile(col_dtype="O"),
    "ragged-size": lambda: _hostile(col_size=15),
    "string-size": lambda: _hostile(col_size="16"),
    "dict-code-past-values": lambda: _dict_codes(0, 7),
    "dict-code-below-null": lambda: _dict_codes(0, -2),
    # A zlib bomb as builds with a frame codec read it: flag bit 0
    # ("deflated") set over a small body whose header claims 256 MiB.
    # Flags are reserved-zero, so it is refused before its body is read.
    "zlib-bomb": lambda: _flagged(
        _hostile(bytes(1024), col_size=256 << 20, rows=32 << 20), 0x01
    ),
    # Column arrays are exposed without building tuples, so their shape
    # checks may not be skipped: lengths must agree before any is handed
    # out, and a JSON frame may not smuggle in unvalidated "cols".
    "column-shorter-than-rows": lambda: _hostile(rows=3),
    "json-claims-cols": lambda: encode_frame(
        {"type": "result", "columns": ["x"], "cols": [[1, 2]], "rows": []}
    ),
}


class TestHostileFrames:
    def test_the_templates_themselves_are_valid(self):
        assert decode_payload(_hostile()[4:])["rows"] == [(1,), (2,)]
        assert decode_payload(_dict_codes(0, -1)[4:])["rows"] == [("a",), (None,)]

    @pytest.mark.parametrize("name", sorted(HOSTILE_FRAMES))
    def test_decode_payload_raises_protocol_error(self, name):
        with pytest.raises(ProtocolError):
            decode_payload(HOSTILE_FRAMES[name]()[4:])

    def test_chunks_must_agree_with_the_trailer_on_columns(self):
        # Chunk columns are joined by position: a chunk naming other
        # columns than the trailer is a torn stream, not a wider result.
        frames = chunked(
            QueryResult(columns=["x"], rows=[(i,) for i in range(40)]), 15 * 8
        )
        kind, flags, header, body = _unpack(frames[-1])
        frames[-1] = _pack(kind, flags, {**header, "columns": ["y"]}, body)
        with pytest.raises(ProtocolError, match="torn result stream"):
            _decode_all(b"".join(frames))

    def test_encoder_enforces_the_bound_the_decoder_assumes(self, monkeypatch):
        import repro.server.protocol as protocol

        # An 80 kB frame past a 4 kB cap is refused when it is encoded,
        # so no peer is sent a frame its decoder must refuse.
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 4096)
        result = QueryResult(columns=["x"], rows=[(0,)] * 10_000)
        with pytest.raises(ProtocolError):
            list(encode_result_frames(result))

    @pytest.mark.parametrize("name", sorted(HOSTILE_FRAMES))
    def test_live_server_refuses_binary_requests_typed(self, name):
        with served() as (_, host, port, _thread):
            with socket.create_connection((host, port)) as sock:
                sock.sendall(encode_frame({"type": "hello", "protocol": 2}))
                assert _read_one(sock)["type"] == "hello"
                sock.sendall(HOSTILE_FRAMES[name]())
                reply = _read_one(sock)
                assert (reply["type"], reply["code"]) == ("error", "protocol")


# ---------------------------------------------------------------------- #
# The client, scripted
# ---------------------------------------------------------------------- #

HELLO_REPLY = encode_frame({"type": "hello", "protocol": 2, "session": 1})
UNDECODABLE = len(b"nope").to_bytes(4, "big") + b"nope"


def count_reply(n: int) -> bytes:
    return encode_frame({"type": "result", "columns": ["n"], "rows": [[n]]})


class ScriptedSocket:
    """Stands in for every socket the client opens: each ``recv``
    returns the next scripted chunk, then EOF; every send succeeds.
    ``fail`` makes the next ``sendall`` raise instead."""

    def __init__(self, received=()) -> None:
        self.received = list(received)
        self.fail: OSError | None = None

    def recv(self, size: int) -> bytes:
        return self.received.pop(0) if self.received else b""

    def sendall(self, data: bytes) -> None:
        if self.fail is not None:
            raise self.fail

    def setsockopt(self, *args) -> None:
        pass

    def close(self) -> None:
        pass


@pytest.fixture
def scripted():
    """``connect(reconnect)``: a client on a scripted socket (HELLO
    answered), and the script; every reconnect gets the same script."""
    script = ScriptedSocket()
    with mock.patch("socket.create_connection", return_value=script):

        def connect(reconnect: bool):
            script.received = [HELLO_REPLY]
            return Client("scripted", 0, reconnect=reconnect, retry_delay=0), script

        yield connect


class TestClientCoreScripted:
    def test_valid_frames_become_results_without_a_socket(self, scripted):
        client, script = scripted(reconnect=False)
        assert client.server_info["session"] == 1
        script.received = [f for f in CORPUS[1:] if f[4] == 0][:4]  # 3 CHUNKs + END
        result = client.execute("SELECT ...")
        assert len(result.rows) == 40 and result.columns == ["k", "w", "tag", "n"]
        script.received = [CORPUS[-1]]
        assert client.execute("SELECT 1").scalar() == 3

    def test_transport_error_is_thrown_in_and_typed(self, scripted):
        client, script = scripted(reconnect=False)
        script.fail = ConnectionResetError("scripted")
        with pytest.raises(ServerUnavailableError, match="connection lost"):
            client.execute("SELECT 1")

    @settings(max_examples=300, deadline=None)
    @given(hostile_bytes, st.integers(1, 64), st.booleans(), st.booleans())
    def test_hostile_replies_raise_only_typed_errors(
        self, data, piece, reconnect, pipelined
    ):
        script = ScriptedSocket()
        with mock.patch("socket.create_connection", return_value=script):
            script.received = [HELLO_REPLY]
            client = Client("scripted", 0, reconnect=reconnect, retry_delay=0)
            script.received = [data[i:i + piece] for i in range(0, len(data), piece)]
            try:
                if pipelined:
                    client.execute_many(["SELECT 1", "SELECT 2"], 2, False)
                else:
                    client.execute("SELECT 1")
            except (ProtocolError, RemoteError, ServerUnavailableError):
                pass

    @pytest.mark.parametrize("flag", [1 << bit for bit in range(8)])
    def test_flag_bits_are_reserved_zero(self, scripted, flag):
        """A binary frame with any flag bit set is refused on its flags
        byte alone — by the payload decoder, the frame decoder and the
        client — though the rest of the frame is a valid result."""
        frame = _flagged(_hostile(), flag)
        with pytest.raises(ProtocolError, match="reserved"):
            decode_payload(frame[4:])
        with pytest.raises(ProtocolError, match="reserved"):
            FrameDecoder().feed(frame)
        client, script = scripted(reconnect=False)
        script.received = [frame]
        with pytest.raises(ProtocolError, match="reserved"):
            client.execute("SELECT 1")

    @pytest.mark.parametrize("reconnect", [True, False])
    def test_a_bad_frame_drops_the_stream_behind_it(self, scripted, reconnect):
        """The frames after an undecodable one answer nothing: the next
        call must not be handed the reply that followed it."""
        client, script = scripted(reconnect)
        script.received = [UNDECODABLE + count_reply(111)]
        with pytest.raises(ProtocolError):
            client.execute("SELECT count(*) FROM r")
        script.received = [HELLO_REPLY, count_reply(222)]
        if reconnect:
            assert client.execute("SELECT count(*) FROM r").rows == [(222,)]
        else:
            with pytest.raises(ServerUnavailableError):
                client.execute("SELECT count(*) FROM r")
