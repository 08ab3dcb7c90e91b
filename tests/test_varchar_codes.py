"""A varchar answer's heap codes travel with its values, and stay equal.

A scan decodes a varchar column as ``atoms[codes]`` and keeps the codes
beside the values; operators that only move rows carry them, and the
wire encoder ships them as the column's dictionary without a loop over
rows.  Whatever a plan does to the rows, a result that still carries
codes must decode to exactly its values — embedded, over the wire and
against sqlite — before and after new atoms arrive, and after a reopen.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

from oracle import ENGINE_CONFIGS, SqliteReference, load_standard
from repro.client import Client
from repro.server import ServerThread
from repro.server import protocol
from repro.server.protocol import FrameDecoder, ResultAssembler, encode_result_frames
from repro.sql import Database

QUERIES = [
    # a plain range, and one with a residual: the codes survive both
    "SELECT r.k, r.tag FROM r WHERE a BETWEEN 100 AND 600",
    "SELECT r.k, r.tag FROM r WHERE a BETWEEN 100 AND 600 AND tag <> 't2'",
    # a full scan (tombstones included, once the DELETE has run)
    "SELECT r.tag, r.k FROM r",
    # sort, limit, join and group: codes are carried or dropped
    "SELECT r.k, r.tag FROM r WHERE a < 500 ORDER BY tag",
    "SELECT r.k, r.tag FROM r WHERE a >= 200 LIMIT 25",
    "SELECT r.k, r.tag, t.label FROM r, s, t WHERE r.k = s.k AND s.g = t.g "
    "AND r.a < 700",
    "SELECT r.tag, count(*) FROM r WHERE a < 800 GROUP BY r.tag",
]

#: New atoms (and one old), then a DELETE so scans gather live rows.
WRITES = [
    "INSERT INTO r VALUES (5000, 150, 1.5, 'brand new'), "
    "(5001, 450, 2.5, 't1'), (5002, 550, 3.5, 'ünïcode ☃')",
    "UPDATE r SET tag = 'rewritten' WHERE a BETWEEN 300 AND 320",
    "DELETE FROM r WHERE a BETWEEN 900 AND 950",
]


def _codec_roundtrip(result) -> list[tuple]:
    """``result`` through the binary encoder and the client's decoder,
    once as one frame and once as a stream of small chunks."""
    decoded = []
    for chunk_bytes in (protocol.CHUNK_BYTES, 256):
        saved, protocol.CHUNK_BYTES = protocol.CHUNK_BYTES, chunk_bytes
        try:
            frames = b"".join(encode_result_frames(result))
        finally:
            protocol.CHUNK_BYTES = saved
        assembler = ResultAssembler()
        messages = [assembler.feed(m) for m in FrameDecoder().feed(frames)]
        decoded.append([m for m in messages if m is not None][-1]["rows"])
    return decoded


def _check(db, client, reference, sql, carried: set) -> None:
    answer = reference.answer(sql)
    result = db.execute(sql)
    answer.check(result, ("embedded",))
    for name, (codes, atoms) in result.codes.items():
        assert atoms[codes].tolist() == result.arrays[name].tolist(), (sql, name)
        carried.add(sql)
    for rows in _codec_roundtrip(result):
        assert rows == result.rows, sql
    served = client.execute(sql)
    answer.check(served, ("served",))
    # A cracked column may answer in a new order on the next statement.
    assert sorted(served.rows) == sorted(result.rows), sql


@pytest.mark.parametrize("name", list(ENGINE_CONFIGS))
def test_codes_equal_values_everywhere(name, tmp_path):
    config = ENGINE_CONFIGS[name]
    reference = SqliteReference()
    load_standard(reference, seed=3)
    carried: set = set()
    for phase in ("loaded", "written", "reopened"):
        # Each phase reopens the store the last one's server closed.
        db = Database(persist_dir=tmp_path / "store", **config)
        if phase == "loaded":
            load_standard(db, seed=3)
        if phase == "written":
            for sql in WRITES:
                db.execute(sql)
                reference.answer(sql)
        thread = ServerThread(db)
        host, port = thread.start()
        try:
            with Client(host, port) as client:
                for sql in QUERIES:
                    _check(db, client, reference, sql, carried)
        finally:
            thread.stop()
    # The mechanism is exercised: ranges, residuals and scans carry codes.
    assert set(QUERIES[:3]) <= carried


def test_encoding_a_coded_reply_makes_no_call_per_row():
    """Encoding a reply whose varchar column carries codes costs the same
    number of Python-level calls at 1 000 and at 4 000 rows."""
    db = Database()
    db.execute("CREATE TABLE r (k integer, a integer, tag varchar)")
    rows = ", ".join(f"({i}, {i}, 'tag{i % 16:02d}')" for i in range(5000))
    db.execute(f"INSERT INTO r VALUES {rows}")

    def calls(n_rows: int) -> int:
        result = db.execute(f"SELECT r.k, r.tag FROM r WHERE a < {n_rows}")
        assert result.row_count == n_rows and "r.tag" in result.codes
        events = []

        def profile(frame, event, arg):
            if event in ("call", "c_call"):
                events.append(event)

        sys.setprofile(profile)
        try:
            frames = list(encode_result_frames(result))
        finally:
            sys.setprofile(None)
        assert len(frames) == 1
        return len(events)

    calls(1000)  # warm: first-use imports and caches
    assert calls(1000) == calls(4000)


def test_codes_are_owned_and_survive_new_atoms():
    db = Database()
    db.execute("CREATE TABLE r (k integer, a integer, tag varchar)")
    rows = ", ".join(f"({i}, {i}, 't{i % 3}')" for i in range(100))
    db.execute(f"INSERT INTO r VALUES {rows}")
    held = db.execute("SELECT r.k, r.tag FROM r WHERE a < 50")
    codes, atoms = held.codes["r.tag"]
    before = atoms.tolist(), codes.copy()
    db.execute("INSERT INTO r VALUES (100, 1, 'new'), (101, 2, 'newer')")
    db.execute("UPDATE r SET tag = 'other' WHERE a < 10")
    assert (atoms.tolist(), codes.tolist()) == (before[0], before[1].tolist())
    assert atoms[codes].tolist() == held.arrays["r.tag"].tolist()
    fresh = db.execute("SELECT r.k, r.tag FROM r WHERE a < 50")
    new_codes, new_atoms = fresh.codes["r.tag"]
    assert np.array_equal(new_atoms[: len(atoms)], atoms)
    assert new_atoms[new_codes].tolist() == fresh.arrays["r.tag"].tolist()
