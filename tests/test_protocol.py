"""Unit tests for the wire protocol: framing, wire safety, error typing."""

import json

import numpy as np
import pytest

from repro.errors import (
    CatalogError,
    OverloadedError,
    ProtocolError,
    SQLAnalysisError,
    SQLSyntaxError,
    StatementTimeoutError,
    TransactionError,
)
from repro.server.protocol import (
    ERROR_CODES,
    MAX_FRAME_BYTES,
    FrameDecoder,
    encode_frame,
    error_for_exception,
    error_reply,
    result_reply,
)
from repro.sql import Database, QueryResult

from oracle import (
    ENGINE_CONFIGS,
    held_result_stream,
    load_standard,
    random_mixed_dml,
    standard_query_suite,
)


class TestWireValues:
    """Result cells are plain Python values, so replies and the ``repro
    sql`` printer use them as they are."""

    @pytest.mark.parametrize("name", sorted(ENGINE_CONFIGS))
    def test_engine_cells_are_never_numpy_scalars(self, name):
        """Over the oracle suites, no cell of ``rows`` or of an object
        ``arrays`` column is a numpy scalar (``json.dumps`` rejects
        ``np.int64``): any producer that yields one fails here."""
        db = Database(**ENGINE_CONFIGS[name])
        load_standard(db, seed=8)
        rng = np.random.default_rng(80)
        statements = (
            standard_query_suite(rng)
            + random_mixed_dml(rng, 40)
            + held_result_stream()
            + [
                "SELECT sum(r.a), min(r.tag), avg(r.w) FROM r WHERE a < 0",
                "SELECT count(*) FROM r WHERE a BETWEEN 100 AND 600",
                "SELECT * INTO piece FROM r WHERE a < 0",
                "EXPLAIN INDEX r(a)",
                "EXPLAIN ANALYZE SELECT r.k FROM r WHERE a > 500",
            ]
        )
        for sql in statements:
            result = db.execute(sql)
            cells = [value for row in result.rows for value in row]
            for array in result.arrays.values():
                if array.dtype == object:
                    cells += array.tolist()
            numpy_cells = [v for v in cells if isinstance(v, np.generic)]
            assert not numpy_cells, (sql, numpy_cells[:3])
            json.dumps(result_reply(result))

    def test_aggregate_rows_roundtrip(self):
        db = Database()
        db.execute("CREATE TABLE r (k integer, a integer)")
        db.execute("INSERT INTO r VALUES (1, 10), (2, 20), (3, 30)")
        result = db.execute("SELECT count(*), sum(r.a), avg(r.a) FROM r")
        reply = json.loads(json.dumps(result_reply(result)))
        assert reply["rows"] == [[3, 60, 20.0]]


class TestFraming:
    def test_roundtrip(self):
        message = {"type": "query", "sql": "SELECT 1", "mode": None}
        decoder = FrameDecoder()
        assert decoder.feed(encode_frame(message)) == [message]

    def test_incremental_and_coalesced_feeds(self):
        first = {"type": "begin"}
        second = {"type": "commit"}
        payload = encode_frame(first) + encode_frame(second)
        decoder = FrameDecoder()
        messages = []
        for i in range(len(payload)):  # byte-at-a-time: worst-case TCP
            messages.extend(decoder.feed(payload[i:i + 1]))
        assert messages == [first, second]
        decoder = FrameDecoder()
        assert decoder.feed(payload) == [first, second]

    def test_messages_before_a_malformed_frame_are_handed_over_first(self):
        good = [{"type": "begin"}, {"type": "commit"}]
        payload = b"".join(map(encode_frame, good)) + b"\x00\x00\x00\x04nope"
        decoder = FrameDecoder()
        seen = []
        with pytest.raises(ProtocolError):
            for message in decoder.messages(payload):
                seen.append(message)
        assert seen == good
        assert decoder.feed(encode_frame(good[0])) == [good[0]]  # frame consumed

    def test_requests_mode_refuses_binary_frames_undecoded(self):
        binary = b"\x00" + b"\xff" * 11  # marker + garbage: never parsed
        frame = len(binary).to_bytes(4, "big") + binary
        with pytest.raises(ProtocolError, match="must be JSON"):
            FrameDecoder(requests=True).feed(frame)
        with pytest.raises(ProtocolError) as info:
            FrameDecoder().feed(frame)
        assert "must be JSON" not in str(info.value)

    def test_oversized_frame_rejected_on_decode(self):
        decoder = FrameDecoder()
        header = (MAX_FRAME_BYTES + 1).to_bytes(4, "big")
        with pytest.raises(ProtocolError):
            decoder.feed(header)

    def test_non_object_payload_rejected(self):
        decoder = FrameDecoder()
        payload = json.dumps([1, 2]).encode()
        with pytest.raises(ProtocolError):
            decoder.feed(len(payload).to_bytes(4, "big") + payload)

    def test_undecodable_payload_rejected(self):
        decoder = FrameDecoder()
        payload = b"\xff\xfe not json"
        with pytest.raises(ProtocolError):
            decoder.feed(len(payload).to_bytes(4, "big") + payload)


class TestReplies:
    def test_result_reply_is_wire_safe(self):
        db = Database()
        db.execute("CREATE TABLE r (k integer, a float, t varchar)")
        db.execute("INSERT INTO r VALUES (1, 2.5, 'x'), (2, 9.0, 'y')")
        result = db.execute("SELECT * FROM r WHERE k BETWEEN 0 AND 1")
        reply = result_reply(result)
        assert json.loads(json.dumps(reply)) == {
            "type": "result",
            "columns": ["r.k", "r.a", "r.t"],
            "rows": [[1, 2.5, "x"]],
            "affected": 0,
        }

    def test_error_reply_requires_known_code(self):
        assert error_reply("syntax", "boom")["code"] == "syntax"
        with pytest.raises(ProtocolError):
            error_reply("nonsense", "boom")

    @pytest.mark.parametrize(
        "exc, code",
        [
            (SQLSyntaxError("x"), "syntax"),
            (SQLAnalysisError("x"), "analysis"),
            (CatalogError("x"), "catalog"),
            (TransactionError("x"), "transaction"),
            (StatementTimeoutError("x"), "timeout"),
            (OverloadedError("x"), "overloaded"),
            (ProtocolError("x"), "protocol"),
            (ValueError("x"), "internal"),
        ],
    )
    def test_exception_mapping(self, exc, code):
        reply = error_for_exception(exc)
        assert reply["type"] == "error"
        assert reply["code"] == code
        assert reply["code"] in ERROR_CODES
