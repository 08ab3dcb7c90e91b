"""Hostile input on the wire: typed errors, bounded memory, nothing else.

Three surfaces see bytes from outside the process and must answer any
of them with :class:`ProtocolError` (or a decoded message) — never a
``KeyError``/``TypeError``/``IndexError`` and never an allocation past
the frame cap:

* ``FrameDecoder.feed`` → ``ResultAssembler.feed`` (the client's
  decode path), fuzzed with random bytes, truncations and single-field
  mutations of valid ``encode_result_frames`` output;
* the sans-IO client core, driven here by a *script* instead of a
  socket, where the same bytes are the outcomes of its ``recv`` steps;
* a live server, which reads JSON requests only and refuses a binary
  frame without decoding it.
"""

import functools
import json
import os
import signal
import socket
import struct
import subprocess
import sys
import tracemalloc
import zlib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.client import _ClientCore
from repro.errors import ProtocolError, RemoteError, ServerUnavailableError
from repro.server.protocol import (
    _BIN_HEAD as _HEAD,
    MAX_FRAME_BYTES,
    FrameDecoder,
    ResultAssembler,
    decode_payload,
    encode_frame,
    encode_result_frames,
    result_reply,
)
from repro.sql import QueryResult

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
    frames += encode_result_frames(mixed, chunk_rows=15)
    frames += encode_result_frames(wide, compression="zlib")
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


@functools.cache
def _bomb_frame(inflated_mib: int) -> bytes:
    """A small zlib-flagged FULL frame whose body inflates to
    ``inflated_mib`` MiB of zeros (built without holding them)."""
    squeezer = zlib.compressobj(9)
    body = b"".join(
        squeezer.compress(bytes(1 << 20)) for _ in range(inflated_mib)
    ) + squeezer.flush()
    size = inflated_mib << 20
    header = {
        "columns": ["x"],
        "cols": [{"enc": "ndarray", "dtype": "<i8", "size": size}],
        "rows": size // 8,
        "affected": 0,
    }
    return _pack(1, 0x01, header, body)


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


def _dict_codes(*codes: int) -> bytes:
    return _hostile(
        struct.pack("<ii", *codes), col_enc="dict", col_values=["a"], col_size=8
    )


#: Every malformed frame the parent commit answered with an untyped
#: exception, a silent wrong value or a 256 MiB allocation (built on
#: demand: the bomb takes a second to squeeze).
HOSTILE_FRAMES = {
    "missing-columns": lambda: _hostile(columns=None),
    "missing-affected": lambda: _hostile(affected=None),
    "bad-dtype": lambda: _hostile(col_dtype="no-such-dtype"),
    "object-dtype": lambda: _hostile(col_dtype="O"),
    "ragged-size": lambda: _hostile(col_size=15),
    "string-size": lambda: _hostile(col_size="16"),
    "dict-code-past-values": lambda: _dict_codes(0, 7),
    "dict-code-below-null": lambda: _dict_codes(0, -2),
    "zlib-bomb": lambda: _bomb_frame(256),
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
        frames = list(encode_result_frames(
            QueryResult(columns=["x"], rows=[(i,) for i in range(40)]), chunk_rows=15
        ))
        kind, flags, header, body = _unpack(frames[-1])
        frames[-1] = _pack(kind, flags, {**header, "columns": ["y"]}, body)
        with pytest.raises(ProtocolError, match="torn result stream"):
            _decode_all(b"".join(frames))

    def test_inflate_is_bounded_by_the_frame_cap(self):
        payload = HOSTILE_FRAMES["zlib-bomb"]()[4:]
        assert len(payload) < 512 * 1024
        tracemalloc.start()
        try:
            with pytest.raises(ProtocolError):
                decode_payload(payload)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # zlib grows its output buffer by doubling, so the transient peak
        # is ~2x the cap — against 256 MiB for the unbounded inflate.
        assert peak < 3 * MAX_FRAME_BYTES

    def test_encoder_enforces_the_bound_the_decoder_assumes(self, monkeypatch):
        import repro.server.protocol as protocol

        # 80 kB of zeros would compress under a 4 kB cap; it must be
        # refused *before* compressing, or the peer could not inflate it.
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 4096)
        result = QueryResult(columns=["x"], rows=[(0,)] * 10_000)
        with pytest.raises(ProtocolError):
            list(encode_result_frames(result, chunk_rows=10_000, compression="zlib"))

    @pytest.mark.parametrize("name", sorted(HOSTILE_FRAMES))
    def test_live_server_refuses_binary_requests_typed(self, name):
        with served() as (_, host, port, _thread):
            with socket.create_connection((host, port)) as sock:
                sock.sendall(encode_frame({"type": "hello", "protocol": 2}))
                assert _read_one(sock)["type"] == "hello"
                sock.sendall(HOSTILE_FRAMES[name]())
                reply = _read_one(sock)
                assert (reply["type"], reply["code"]) == ("error", "protocol")

    @pytest.mark.skipif(
        not Path("/proc/self/status").exists(), reason="needs /proc for RSS"
    )
    def test_zlib_bomb_does_not_grow_server_rss(self):
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
        server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            stdout=subprocess.PIPE, env=env,
        )
        try:
            line = server.stdout.readline().decode()
            host, _, port = line.split("listening on ")[1].split()[0].rpartition(":")
            with socket.create_connection((host, int(port))) as sock:
                sock.sendall(encode_frame({"type": "hello", "protocol": 2}))
                assert _read_one(sock)["type"] == "hello"
                before = _peak_rss_mib(server.pid)
                sock.sendall(HOSTILE_FRAMES["zlib-bomb"]())
                assert _read_one(sock)["code"] == "protocol"
                assert _peak_rss_mib(server.pid) - before < 64
        finally:
            server.send_signal(signal.SIGTERM)
            server.wait(timeout=30)
            server.stdout.close()


def _peak_rss_mib(pid: int) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise AssertionError("no VmHWM in /proc status")


# ---------------------------------------------------------------------- #
# The client core, scripted
# ---------------------------------------------------------------------- #

HELLO_REPLY = encode_frame({"type": "hello", "protocol": 2, "session": 1})


def drive(operation, received: list[bytes]):
    """Run one core generator with ``received`` as the outcomes of its
    ``recv`` steps (then EOF); every other step succeeds silently."""
    chunks = iter(received)
    try:
        step = next(operation)
        while True:
            outcome = next(chunks, b"") if step[0] == "recv" else None
            step = operation.send(outcome)
    except StopIteration as done:
        return done.value


def connected_core(reconnect: bool) -> _ClientCore:
    core = _ClientCore("scripted", 0, reconnect=reconnect, retry_delay=0)
    drive(core._connect(), [HELLO_REPLY])
    return core


class TestClientCoreScripted:
    def test_valid_frames_become_results_without_a_socket(self):
        core = connected_core(reconnect=False)
        assert core.server_info["session"] == 1
        chunked = [f for f in CORPUS[1:] if f[4] == 0][:4]  # 3 CHUNKs + END
        result = drive(core._execute("SELECT ...", None), chunked)
        assert len(result.rows) == 40 and result.columns == ["k", "w", "tag", "n"]
        assert drive(core._execute("SELECT 1", None), [CORPUS[-1]]).scalar() == 3

    def test_transport_error_is_thrown_in_and_typed(self):
        core = connected_core(reconnect=False)
        operation = core._execute("SELECT 1", None)
        assert next(operation)[0] == "send"
        with pytest.raises(ServerUnavailableError, match="connection lost"):
            operation.throw(ConnectionResetError("scripted"))

    @settings(max_examples=300, deadline=None)
    @given(hostile_bytes, st.integers(1, 64), st.booleans(), st.booleans())
    def test_hostile_replies_raise_only_typed_errors(
        self, data, piece, reconnect, pipelined
    ):
        core = connected_core(reconnect)
        received = [data[i:i + piece] for i in range(0, len(data), piece)]
        operation = (
            core._execute_many(["SELECT 1", "SELECT 2"], None, 2, False)
            if pipelined
            else core._execute("SELECT 1", None)
        )
        try:
            drive(operation, received)
        except (ProtocolError, RemoteError, ServerUnavailableError):
            pass
