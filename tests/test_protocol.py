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
    wire_row,
    wire_rows,
    wire_value,
)
from repro.sql import Database, QueryResult


class TestWireValues:
    """The wire-safe conversion satellite: numpy scalars never reach json."""

    def test_numpy_scalars_convert(self):
        assert wire_value(np.int64(7)) == 7
        assert type(wire_value(np.int64(7))) is int
        assert wire_value(np.float64(2.5)) == 2.5
        assert type(wire_value(np.float64(2.5))) is float
        assert wire_value(np.str_("x")) == "x"
        assert type(wire_value(np.str_("x"))) is str
        assert wire_value(np.bool_(True)) is True

    def test_python_values_pass_through(self):
        for value in (3, 2.5, "s", None, True):
            assert wire_value(value) is value or wire_value(value) == value

    def test_regression_engine_rows_are_json_rejectable_raw(self):
        """Which engine rows ``json.dumps`` rejects raw, pinned per mode.

        Vector-mode results are columnar and build ``rows`` with
        ``tolist()``: plain ``int``/``float``/``str``, serialisable as
        they are.  Tuple-mode rows are whatever the operators yield —
        numpy scalars straight out of BAT storage — which is the bug the
        wire conversion exists for, and why ``wire_value`` stays.
        """
        rows = {}
        for mode in ("vector", "tuple"):
            db = Database(cracking=True, mode=mode)
            db.execute("CREATE TABLE r (k integer, a integer, w float, t varchar)")
            db.execute("INSERT INTO r VALUES (1, 10, 0.5, 'x'), (2, 20, 1.5, 'y')")
            rows[mode] = db.execute("SELECT * FROM r WHERE a BETWEEN 5 AND 25").rows
        assert {type(value) for row in rows["vector"] for value in row} == {
            int, float, str,
        }
        assert sorted(json.loads(json.dumps(rows["vector"]))) == [
            [1, 10, 0.5, "x"], [2, 20, 1.5, "y"],
        ]
        assert any(
            isinstance(value, np.generic) for row in rows["tuple"] for value in row
        ), "tuple-mode rows no longer carry numpy scalars; wire_value can go"
        with pytest.raises(TypeError):
            json.dumps(rows["tuple"])
        encoded = json.dumps(wire_rows(rows["tuple"]))
        assert sorted(json.loads(encoded)) == sorted(json.loads(json.dumps(rows["vector"])))

    def test_aggregate_rows_roundtrip(self):
        db = Database(cracking=True, mode="tuple")
        db.execute("CREATE TABLE r (k integer, a integer)")
        db.execute("INSERT INTO r VALUES (1, 10), (2, 20), (3, 30)")
        result = db.execute("SELECT count(*), sum(r.a), avg(r.a) FROM r")
        assert json.loads(json.dumps(wire_rows(result.rows))) == [[3, 60, 20.0]]


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
        result = QueryResult(
            columns=["k", "a"],
            rows=[(np.int64(1), np.float64(2.5))],
            affected=0,
        )
        reply = result_reply(result)
        assert json.loads(json.dumps(reply)) == {
            "type": "result",
            "columns": ["k", "a"],
            "rows": [[1, 2.5]],
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
