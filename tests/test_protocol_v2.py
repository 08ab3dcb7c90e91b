"""The wire protocol: binary columnar codec, HELLO, streaming, pipelining.

Four layers of proof that the binary codec is a pure transport
optimisation:

* codec unit tests — every column encoding (ndarray / dict / json)
  roundtrips value-exactly, compressed or not, chunked or whole;
* negotiation — a HELLO offering this build's version (as a list or
  the legacy scalar) is accepted, and an offer without it is a typed
  error, not a hang;
* differential — the same oracle workload over the wire and embedded
  produces identical results (the wire format must not change the
  answers);
* streaming — a result past the single-frame cap crosses the wire in
  chunks, and a stream torn mid-chunk surfaces as a client-side error,
  never as silent truncation.
"""

import functools
import json
import socket
import struct
import threading
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest

from repro.client import Client
from repro.errors import ProtocolError, RemoteError, ServerUnavailableError
from repro.server import ServerThread, protocol
from repro.server.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    SMALL_RESULT_ROWS,
    FrameDecoder,
    ResultAssembler,
    encode_frame,
    encode_result_frames,
    hello_versions,
    negotiate_compression,
)
from repro.sql import Database, QueryResult
from repro.storage.table import Column, Relation, Schema

from oracle import load_standard, random_range_queries, standard_query_suite
from test_server import read_one as _read_one, served, generous_deadline, wire_json  # noqa: F401

SEED = 20260808


def decode_frames(frames) -> list[dict]:
    """All logical messages carried by an iterable of raw frames."""
    decoder = FrameDecoder()
    messages = []
    for frame in frames:
        messages.extend(decoder.feed(frame))
    return messages


def chunked(result, chunk_bytes: int) -> list[bytes]:
    """``result``'s frames with :data:`CHUNK_BYTES` set to ``chunk_bytes``."""
    with mock.patch.object(protocol, "CHUNK_BYTES", chunk_bytes):
        return list(encode_result_frames(result))


def assemble(frames) -> dict:
    """One logical result out of a FULL frame or a chunk stream."""
    assembler = ResultAssembler()
    for message in decode_frames(frames):
        final = assembler.feed(message)
        if final is not None:
            return final
    raise AssertionError("frame stream ended without a complete result")


class TappedClient(Client):
    """A client that keeps the bytes it receives, so a test can read
    frame flags off the real socket stream."""

    received = b""

    def connect(self):
        super().connect()
        self._sock = _Tap(self._sock, self)


class _Tap:
    """A socket that appends what ``recv`` returns to its client's
    ``received``."""

    def __init__(self, sock, client) -> None:
        self._sock, self._client = sock, client

    def __getattr__(self, name):
        return getattr(self._sock, name)

    def recv(self, size: int) -> bytes:
        data = self._sock.recv(size)
        self._client.received += data
        return data


@pytest.fixture
def opted_in(monkeypatch):
    """Every ``Client(...)`` of the test offers zlib: the default client
    no longer does, and inflate must still cross a real socket."""
    monkeypatch.setattr(
        f"{__name__}.Client", functools.partial(Client, compression=True)
    )


class TestVersionNegotiation:
    def test_hello_versions_list_and_legacy_scalar(self):
        assert hello_versions({"versions": [1, 2], "protocol": 1}) == [1, 2]
        # A legacy client sends only the scalar field: that IS its list.
        assert hello_versions({"protocol": 1}) == [1]

    def test_negotiate_compression(self):
        assert negotiate_compression({"compression": ["zlib"]}, ("zlib",)) == "zlib"
        assert negotiate_compression({"compression": []}, ("zlib",)) is None
        assert negotiate_compression({}, ("zlib",)) is None
        assert negotiate_compression({"compression": ["lz9"]}, ("zlib",)) is None


class TestBinaryCodec:
    def _roundtrip(self, result: QueryResult, **kwargs) -> dict:
        return assemble(encode_result_frames(result, **kwargs))

    def test_numeric_and_varchar_roundtrip(self):
        rows = [(i, i * 0.5, f"t{i % 3}") for i in range(50)]
        message = self._roundtrip(
            QueryResult(columns=["k", "w", "tag"], rows=rows)
        )
        assert message["type"] == "result"
        assert message["columns"] == ["k", "w", "tag"]
        assert message["rows"] == rows
        assert message["affected"] == 0
        # Numeric columns arrive as zero-copy numpy views, varchar does
        # not (it is dictionary-coded, not a raw buffer).
        assert message["arrays"]["k"].dtype.kind == "i"
        assert message["arrays"]["w"].dtype.kind == "f"
        assert "tag" not in message["arrays"]
        assert np.array_equal(message["arrays"]["k"], np.arange(50))

    def test_varchar_nulls_dictionary_coded(self):
        rows = [("a",), (None,), ("b",), ("a",), (None,)]
        message = self._roundtrip(QueryResult(columns=["tag"], rows=rows))
        assert message["rows"] == rows

    def test_mixed_type_column_falls_back_to_json(self):
        # Ints with NULLs are not a numpy dtype: the json encoding
        # carries them without inventing NaNs.
        rows = [(1,), (None,), (3,)]
        message = self._roundtrip(QueryResult(columns=["x"], rows=rows))
        assert message["rows"] == rows
        assert "x" not in message["arrays"]

    def test_empty_result_roundtrip(self):
        message = self._roundtrip(QueryResult(columns=["k", "a"], rows=[]))
        assert message["rows"] == []
        assert message["columns"] == ["k", "a"]

    def test_affected_carried(self):
        message = self._roundtrip(
            QueryResult(columns=[], rows=[], affected=17)
        )
        assert message["affected"] == 17

    def test_chunked_stream_reassembles(self):
        rows = [(i, float(i)) for i in range(1000)]
        result = QueryResult(columns=["k", "w"], rows=rows)
        frames = chunked(result, 64 * 16)
        # 1000 rows at 64/chunk: 16 CHUNK frames plus the END trailer.
        assert len(frames) == 17
        message = assemble(frames)
        assert message["rows"] == rows
        assert np.array_equal(message["arrays"]["k"], np.arange(1000))

    def test_compression_shrinks_repetitive_bodies(self):
        rows = [(7,) for _ in range(10_000)]
        result = QueryResult(columns=["x"], rows=rows)
        raw = b"".join(encode_result_frames(result, compression=None))
        squeezed = b"".join(encode_result_frames(result, compression="zlib"))
        assert len(squeezed) < len(raw) / 10
        assert assemble([squeezed])["rows"] == rows

    def test_incompressible_bodies_stay_raw(self):
        rng = np.random.default_rng(SEED)
        bound = np.iinfo(np.int64)
        rows = [
            (int(v),)
            for v in rng.integers(bound.min, bound.max, 10_000, dtype=np.int64)
        ]
        result = QueryResult(columns=["x"], rows=rows)
        frames = list(encode_result_frames(result, compression="zlib"))
        # Frame layout: length(4) marker(1) kind(1) flags(1) — all eight
        # bytes of a full-range int64 are random, zlib cannot shrink
        # them, so the compressed flag stays clear and the body ships raw.
        assert all(frame[6] == 0 for frame in frames)
        assert assemble(frames)["rows"] == rows

    @pytest.mark.parametrize("chunk_rows", [None, 16], ids=["full", "chunk"])
    def test_numeric_columns_decode_aligned(self, chunk_rows):
        """Regression: a raw body began ``8 + len(header)`` bytes into
        the payload, so ``np.frombuffer`` handed out unaligned arrays
        for seven header lengths in eight (zlib hid it: an inflated
        body is a fresh buffer).  The header is now space-padded."""
        k = np.arange(100, dtype=np.int64)
        residues = set()
        for width in range(1, 9):
            arrays = {"k" * width: k, "w": k * 0.5}
            result = QueryResult(list(arrays), arrays=arrays)
            if chunk_rows is None:
                frames = list(encode_result_frames(result))
            else:  # two 8-byte columns: 16 bytes a row
                frames = chunked(result, chunk_rows * 16)
            assert len(frames) == (1 if chunk_rows is None else 8)
            for frame in frames:
                (header_len,) = struct.unpack_from("!I", frame, 8)
                assert header_len % 8 == 0
                header = frame[12:12 + header_len]
                residues.add(len(header.rstrip(b" ")) % 8)
                for col in decode_frames([frame])[0].get("cols", ()):
                    assert col.flags.aligned
            message = assemble(frames)
            for name, array in arrays.items():
                assert message["arrays"][name].dtype == array.dtype
                assert np.array_equal(message["arrays"][name], array)
        assert residues == set(range(8))  # every unpadded length mod 8

    def test_dict_atoms_are_priced_as_their_json_text(self, monkeypatch):
        """Atoms that JSON escapes are charged their escaped length, so a
        small chunk budget cuts where json.dumps pricing cut, byte for byte."""
        atoms = ['say "hi"', "back\\slash", "bell\x07tab\t", "naïve ☃ 🙂", "", "plain"]
        tags = [atoms[i % len(atoms)] + ("" if i % 7 else str(i)) for i in range(600)]
        result = QueryResult(columns=["k", "tag"], rows=list(enumerate(tags)))
        monkeypatch.setattr(protocol, "CHUNK_BYTES", 512)
        plan = protocol._plan_column(result.arrays["tag"])
        assert plan[0] == "dict"
        assert plan[4].tolist() == [len(json.dumps(atom)) + 1 for atom in plan[2]] + [0]
        frames = list(encode_result_frames(result))
        plans = [protocol._plan_column(result.arrays[name]) for name in result.columns]
        stops = protocol._chunk_stops(plans, len(tags))
        assert len(stops) > 10
        # The same stops and bytes when each atom is priced by json.dumps.
        monkeypatch.setattr(protocol, "encode_basestring_ascii", json.dumps)
        plans = [protocol._plan_column(result.arrays[name]) for name in result.columns]
        assert protocol._chunk_stops(plans, len(tags)) == stops
        assert list(encode_result_frames(result)) == frames
        assert assemble(frames)["rows"] == result.rows

    def test_oversized_single_frame_rejected(self, monkeypatch):
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 1024)
        rows = [(i,) for i in range(1000)]
        with pytest.raises(ProtocolError):
            list(encode_result_frames(QueryResult(columns=["x"], rows=rows)))
        # Chunked, the same result fits fine under the shrunken cap.
        frames = chunked(QueryResult(columns=["x"], rows=rows), 50 * 8)
        assert assemble(frames)["rows"] == rows


class TestResultAssembler:
    def _frames(self):
        rows = [(i,) for i in range(100)]
        return decode_frames(chunked(QueryResult(columns=["x"], rows=rows), 10 * 8))

    def test_non_result_messages_pass_through(self):
        assembler = ResultAssembler()
        message = {"type": "stats", "server": {}}
        assert assembler.feed(message) is message

    def test_sequence_gap_is_torn(self):
        messages = self._frames()
        assembler = ResultAssembler()
        assembler.feed(messages[0])
        with pytest.raises(ProtocolError, match="torn result stream"):
            assembler.feed(messages[2])  # seq 3 after seq 1

    def test_missing_chunks_at_trailer_is_torn(self):
        messages = self._frames()
        assembler = ResultAssembler()
        assembler.feed(messages[0])
        with pytest.raises(ProtocolError, match="torn result stream"):
            assembler.feed(messages[-1])  # trailer announces 10 chunks

    def test_error_mid_stream_discards_partial(self):
        messages = self._frames()
        assembler = ResultAssembler()
        assembler.feed(messages[0])
        error = {"type": "error", "code": "internal", "message": "boom"}
        assert assembler.feed(error) is error
        assert assembler.feed(messages[0]) is None  # a fresh stream starts


class TestServedNegotiation:
    """HELLO across real sockets: lists, legacy scalars, mismatches."""

    def _bulk_reply_flags(self, client) -> int:
        """The flags byte of the frame answering a 600-row ``k, a``
        SELECT — 9 600 body bytes, past ``COMPRESS_MIN_BYTES``."""
        load_standard(client, seed=SEED)
        client.received = b""
        assert client.execute("SELECT r.k, r.a FROM r").row_count == 600
        # length(4) marker(1) kind(1) flags(1): one binary FULL frame.
        assert client.received[4:6] == bytes([0, 1])
        return client.received[6]

    def test_default_client_gets_raw_frames(self):
        with served() as (_, host, port, _thread):
            with TappedClient(host, port) as client:
                assert client.protocol_version == PROTOCOL_VERSION
                assert client.compression is None
                session = client.stats()["session"]
                assert session["protocol"] == PROTOCOL_VERSION
                assert session["compression"] is None
                assert self._bulk_reply_flags(client) == 0

    def test_opted_in_client_negotiates_zlib(self):
        with served() as (_, host, port, _thread):
            with TappedClient(host, port, compression=True) as client:
                assert client.compression == "zlib"
                assert client.stats()["session"]["compression"] == "zlib"
                assert self._bulk_reply_flags(client) == 1

    @pytest.mark.parametrize(
        "hello",
        [
            {"type": "hello", "protocol": 1, "client": "legacy"},
            {"type": "hello", "protocol": 1, "versions": [1]},
        ],
    )
    def test_v1_only_hello_gets_the_typed_no_common_version_error(self, hello):
        """v1 is gone: a peer whose offer lacks this build's version —
        legacy scalar or list — is told so, with both offers named."""
        with served() as (_, host, port, _thread):
            sock = socket.create_connection((host, port))
            try:
                decoder = FrameDecoder()
                sock.sendall(encode_frame(hello))
                reply = _read_one(sock, decoder)
                assert (reply["type"], reply["code"]) == ("error", "protocol")
                assert "[2]" in reply["message"] and "[1]" in reply["message"]
                # The connection survives; offering the version works,
                # as a list or as the legacy scalar.
                sock.sendall(encode_frame({"type": "hello", "protocol": 2}))
                reply = _read_one(sock, decoder)
                assert reply["type"] == "hello"
                assert reply["protocol"] == PROTOCOL_VERSION
                assert reply["versions"] == [PROTOCOL_VERSION]
            finally:
                sock.close()

    def test_no_common_version_is_a_typed_error(self):
        with served() as (_, host, port, _thread):
            sock = socket.create_connection((host, port))
            try:
                sock.sendall(
                    encode_frame(
                        {"type": "hello", "protocol": 99, "versions": [99]}
                    )
                )
                reply = _read_one(sock, FrameDecoder())
                assert reply["type"] == "error"
                assert reply["code"] == "protocol"
                # The error names both sides' offers, so the operator
                # can see the skew without packet captures.
                assert "99" in reply["message"]
            finally:
                sock.close()


class TestDifferentialEmbedded:
    """Served and embedded execution must be value-identical."""

    def test_oracle_workload_served_vs_embedded(self):
        embedded = Database(cracking=True)
        with served() as (_, host, port, _thread):
            with Client(host, port) as client:
                rng = np.random.default_rng(SEED)
                load_standard(embedded, seed=SEED)
                load_standard(client, seed=SEED)
                workload = standard_query_suite(rng) + random_range_queries(
                    rng, 30
                )
                for statement in workload:
                    expected = embedded.execute(statement)
                    actual = client.execute(statement)
                    assert actual.columns == list(expected.columns), statement
                    assert wire_json(actual.rows) == wire_json(
                        expected.rows
                    ), statement

    def test_bulk_results_cross_the_small_result_floor(self):
        """Results straddling SMALL_RESULT_ROWS switch codecs; both
        sides of the boundary must agree with embedded execution."""
        embedded = Database(cracking=True)
        with served() as (_, host, port, _thread):
            with Client(host, port) as client:
                load_standard(embedded, seed=SEED)
                load_standard(client, seed=SEED)
                for limit in (1, SMALL_RESULT_ROWS, SMALL_RESULT_ROWS + 1, 200):
                    statement = (
                        f"SELECT r.k, r.a, r.w, r.tag FROM r "
                        f"WHERE a >= 0 ORDER BY a, k LIMIT {limit}"
                    )
                    expected = embedded.execute(statement)
                    actual = client.execute(statement)
                    assert wire_json(actual.rows) == wire_json(expected.rows)
                    if limit > SMALL_RESULT_ROWS:
                        # Bulk results come back columnar: numeric
                        # columns arrive as numpy arrays for free.
                        assert actual.arrays["r.k"].dtype.kind == "i"

    def test_served_result_is_columnar_and_equals_embedded_arrays(self):
        """Served ≡ embedded on the arrays face too: a bulk reply is
        never turned into tuples unless ``rows`` is read, every column
        (varchar included) is in ``arrays``, and both faces match the
        embedded result's."""
        embedded = Database(cracking=True)
        with served() as (_, host, port, _thread):
            with Client(host, port) as client:
                load_standard(embedded, seed=SEED)
                load_standard(client, seed=SEED)
                statement = "SELECT r.k, r.w, r.tag FROM r WHERE a BETWEEN 100 AND 800"
                expected = embedded.execute(statement)
                actual = client.execute(statement)
                assert actual._rows is None and actual.row_count == expected.row_count
                assert list(actual.arrays) == list(expected.arrays) == actual.columns
                for name, array in expected.arrays.items():
                    assert actual.arrays[name].dtype == array.dtype, name
                    assert actual.arrays[name].tolist() == array.tolist(), name
                assert actual.rows == expected.rows
                # A small reply is row-native, and still has arrays.
                small = client.execute("SELECT count(*) FROM r WHERE a < 500")
                assert small.arrays["count(*)"].tolist() == [small.scalar()]

    def test_pipelined_matches_sequential(self):
        with served() as (_, host, port, _thread):
            with Client(host, port) as pipelined, Client(
                host, port
            ) as sequential:
                load_standard(pipelined, seed=SEED)
                rng = np.random.default_rng(SEED + 1)
                statements = [
                    f"SELECT count(*), sum(r.a) FROM r WHERE a < {int(v)}"
                    for v in rng.integers(0, 1000, 150)
                ]
                batched = pipelined.execute_many(statements, window=32)
                for statement, result in zip(statements, batched):
                    assert wire_json(result.rows) == wire_json(
                        sequential.execute(statement).rows
                    ), statement

    def test_pipelined_error_keeps_stream_in_sync(self):
        with served() as (_, host, port, _thread):
            with Client(host, port) as client:
                client.execute("CREATE TABLE p (x integer)")
                client.execute("INSERT INTO p VALUES (1), (2), (3)")
                good = "SELECT count(*) FROM p"
                out = client.execute_many(
                    [good, "SELECT * FROM missing", good],
                    raise_on_error=False,
                )
                assert out[0].scalar() == 3
                assert out[1]["type"] == "error"
                assert out[2].scalar() == 3
                with pytest.raises(RemoteError):
                    client.execute_many([good, "SELECT * FROM missing"])
                # The connection survived both failures.
                assert client.execute(good).scalar() == 3


@pytest.mark.usefixtures("generous_deadline")
class TestDifferentialEmbeddedThreaded(TestDifferentialEmbedded):
    """The same differential and pipelining checks with each statement
    under a 60 s deadline, which none reaches: it changes no answer."""


@pytest.mark.usefixtures("opted_in")
class TestDifferentialEmbeddedCompressed(TestDifferentialEmbedded):
    """The same differential and pipelining checks through zlib."""


@pytest.fixture(scope="module")
def big_database():
    """2.2M rows of int64: a full scan is ~35 MiB of column payload,
    past the 32 MiB single-frame cap."""
    n = 2_200_000
    assert n * 16 > MAX_FRAME_BYTES
    database = Database(cracking=True)
    rng = np.random.default_rng(SEED)
    relation = Relation.from_columns(
        "big",
        Schema([Column("k", "int"), Column("a", "int")]),
        {"k": np.arange(n, dtype=np.int64), "a": rng.permutation(n)},
    )
    database.catalog.create_table(relation)
    return database


class TestStreamingPastFrameCap:
    def test_streams_result_past_32mib(self, big_database):
        n = 2_200_000
        with served(big_database) as (_, host, port, _thread):
            with Client(host, port) as client:
                result = client.execute("SELECT big.k, big.a FROM big")
                assert result.row_count == n
                k = result.arrays["big.k"]
                assert k.nbytes * 2 > MAX_FRAME_BYTES
                assert int(k[0]) == 0 and int(k[-1]) == n - 1
                assert int(result.arrays["big.a"].sum()) == n * (n - 1) // 2
                # The stream left the connection healthy.
                assert client.execute(
                    "SELECT count(*) FROM big"
                ).scalar() == n


    def test_chunks_are_sized_from_real_bytes_not_from_row_zero(self, monkeypatch):
        """Regression: rows per chunk were guessed from the first row
        alone, so a varchar column starting with ``''`` put hundreds of
        long strings in one CHUNK, past the frame cap, and a valid
        SELECT died with "lower the chunk size"."""
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 16 * 1024)
        chunk_bytes = 4096
        monkeypatch.setattr(protocol, "CHUNK_BYTES", chunk_bytes)
        rows = [(0, "")] + [(i, f"{i:06d}" + "x" * 120) for i in range(1, 2000)]
        result = QueryResult(columns=["k", "tag"], rows=rows)
        frames = list(encode_result_frames(result))
        assert len(frames) > 20
        # A chunk overshoots its target by at most one row plus the header.
        assert max(map(len, frames)) < chunk_bytes + 512
        assert assemble(frames)["rows"] == rows
        # The same shape end to end: '' first, served in small chunks.
        database = Database(cracking=True)
        database.execute("CREATE TABLE v (k integer, tag varchar)")
        values = ", ".join(f"({k}, '{tag}')" for k, tag in rows)
        database.execute(f"INSERT INTO v VALUES {values}")
        with served(database) as (_, host, port, _thread):
            with Client(host, port) as client:
                assert client.execute("SELECT v.k, v.tag FROM v").rows == rows


@pytest.mark.usefixtures("opted_in")
class TestStreamingPastFrameCapCompressed(TestStreamingPastFrameCap):
    """The same streams with their bodies deflated and inflated."""


class TestTornStreamDisconnect:
    """A server dying mid-chunk must surface as an error, never as a
    silently truncated result."""

    @contextmanager
    def _scripted_server(self, frames_after_query: list[bytes]):
        """A one-connection fake server: HELLO, then the scripted
        frames in reply to the first query, then a hard close."""
        listener = socket.create_server(("127.0.0.1", 0))
        port = listener.getsockname()[1]

        def serve() -> None:
            conn, _ = listener.accept()
            decoder = FrameDecoder()
            _read_one(conn, decoder)  # hello
            conn.sendall(
                encode_frame(
                    {"type": "hello", "protocol": 2, "session": 1}
                )
            )
            _read_one(conn, decoder)  # the query
            for frame in frames_after_query:
                conn.sendall(frame)
            conn.close()

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        try:
            yield "127.0.0.1", port
        finally:
            listener.close()
            thread.join(timeout=5)

    def _chunk_frames(self) -> list[bytes]:
        rows = [(i,) for i in range(100)]
        return chunked(QueryResult(columns=["x"], rows=rows), 10 * 8)

    def test_disconnect_mid_chunk_raises_unavailable(self):
        frames = self._chunk_frames()
        with self._scripted_server(frames[:3]) as (host, port):
            with pytest.raises(ServerUnavailableError):
                Client(host, port, reconnect=False).execute(
                    "SELECT big.x FROM big"
                )

    def test_out_of_sequence_chunk_raises_protocol_error(self):
        frames = self._chunk_frames()
        with self._scripted_server([frames[1]]) as (host, port):
            with pytest.raises(ProtocolError, match="torn result stream"):
                Client(host, port, reconnect=False).execute(
                    "SELECT big.x FROM big"
                )
