"""The write path's common cases take a straight path; nothing else does.

An INSERT's text with string literals is keyed a row at a time
(``plan_cache._rows_key``); a cracker admits oids that start at its next
fresh oid and strictly ascend with one check, and UPDATE/DELETE oids
that ascend and name stored rows with nothing pending queue whole.  Each shortcut must answer exactly as the
general path: the key's literals are the tokenizer's, and every oid the
general path refuses is still refused.  ``SELECT … INTO`` names its
columns as sqlite's ``CREATE TABLE … AS SELECT`` does.
"""

from __future__ import annotations

import sqlite3

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import ENGINE_CONFIGS
from repro.core.cracked_column import CrackedColumn
from repro.errors import CrackError
from repro.sql import Database
from repro.sql.lexer import number, tokenize
from repro.sql.plan_cache import template_key

# ---------------------------------------------------------------------- #
# template_key on INSERT … VALUES texts
# ---------------------------------------------------------------------- #

_NUMBERS = st.one_of(
    st.integers(-10**20, 10**20).map(str),
    st.from_regex(r"-?[0-9]{1,3}(\.[0-9]{0,2})?([eE][-+]?[0-9]{1,2})?", fullmatch=True),
    st.sampled_from(["007", "-0", "0"]),
)
_STRINGS = st.one_of(
    st.sampled_from(["''", "'tag04'", "'--'", "'a--b'", "'12'", "'-3'", "'a, b'", "'\"'", "'\\\\'"]),
    st.from_regex(r"'[a-z0-9 ,\-]{0,6}'", fullmatch=True),
)
_SEPARATORS = st.sampled_from([", ", ", ", ", ", ",", " ,", ",  "])


@st.composite
def _insert_text(draw) -> str:
    """A multi-row INSERT … VALUES text: mostly the canonical rendering
    (``(1, 'a'), (2, 'b')``), now and then a separator, a space inside a
    row or a trailing comment the row reader must not take."""
    width = draw(st.integers(1, 4))
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        values = [draw(st.one_of(_NUMBERS, _STRINGS)) for _ in range(width)]
        inner = draw(_SEPARATORS).join(values) if draw(st.integers(0, 3)) == 0 else ", ".join(values)
        rows.append(draw(st.sampled_from(["({})", "({})", "({})", "( {})"])).format(inner))
    text = "INSERT INTO t2 VALUES " + ", ".join(rows)
    return text + draw(st.sampled_from(["", "", "", " -- 5 'x'", ";"]))


def _expected(text: str) -> tuple[str, tuple]:
    """The key and literals the tokenizer reads: each literal token's span
    replaced by ``?``, its value by :func:`lexer.number` or unquoted."""
    pieces, literals, at = [], [], 0
    for token in tokenize(text):
        if token.kind not in ("number", "string"):
            continue
        width = len(token.value) + (2 if token.kind == "string" else 0)
        pieces.append(text[at:token.position])
        at = token.position + width
        literals.append(token.value if token.kind == "string" else number(token.value))
    pieces.append(text[at:])
    return "?".join(pieces), tuple(literals)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_insert_text())
def test_an_insert_key_is_the_tokenizers(text):
    key, literals = template_key(text)
    expected_key, expected = _expected(text)
    assert key == expected_key
    assert literals == expected
    assert [type(value) for value in literals] == [type(value) for value in expected]


def test_the_row_reader_keeps_types_and_text():
    key, literals = template_key("INSERT INTO t VALUES (5, 'x'), (-7, ''), (5.0, '1e3')")
    assert key == "INSERT INTO t VALUES (?, ?), (?, ?), (?, ?)"
    assert literals == (5, "x", -7, "", 5.0, "1e3")
    assert [type(value) for value in literals] == [int, str, int, str, float, str]
    # A literal outside the rows is the general path's to read, and so is
    # a quote there: it opens a string that swallows a row.
    assert template_key("INSERT INTO t VALUES (1, 'a') -- 2")[1] == (1, "a")
    assert template_key("SELECT * FROM t WHERE tag = 'x' AND a > 3")[1] == ("x", 3)
    assert template_key("INSERT INTO t VALUES 'a(1, 'b')") == (
        "INSERT INTO t VALUES ?b')", ("a(1, ",)
    )


# ---------------------------------------------------------------------- #
# Cracker shortcuts keep every rejection
# ---------------------------------------------------------------------- #


def _column() -> CrackedColumn:
    column = CrackedColumn.from_arrays(np.arange(100, 0, -1), crack_threshold=16)
    column.range_select(20, 60)
    column.append([7, 8, 9])  # oids 100, 101, 102 queued
    return column


@pytest.mark.parametrize("oids", [
    [-1, 0],
    [-2, -1],
    [103, 103],
    [104, 103, 103],
    [50],              # stored
    [101],             # queued
    [99, 100, 101],    # a dense ascending run that starts below the next oid
    [102, 103],
])
def test_append_refuses_what_the_column_holds(oids):
    column = _column()
    before = column.export_state()
    with pytest.raises(CrackError):
        column.append(np.full(len(oids), 5), oids)
    after = column.export_state()
    assert all(np.array_equal(before[key], after[key]) for key in ("pending_values", "pending_oids"))
    column.check_invariants()


def test_append_takes_a_fresh_run_and_checks_any_other():
    column = _column()
    assert column.append([4, 5], np.arange(103, 105)).tolist() == [103, 104]
    assert column.append([6], [200]).tolist() == [200]  # past the next oid
    assert column.append([3, 3], [160, 150]).tolist() == [160, 150]  # fresh, not ascending
    assert column.append([2]).tolist() == [201]
    with pytest.raises(CrackError):
        column.append([1, 2], [300])
    column.check_invariants()
    assert column.count_range(0, 10) == 9 + 9  # 1..9 stored, nine queued


@pytest.mark.parametrize("oids", [
    [30, 10, 20],       # unsorted
    [10, 10, 20],       # repeated
    [10, 20, 20, 30],
    [100, 5, 6],        # queued
    [5, 6, 999],        # never seen
    [-3, 5, 6],         # negative
])
def test_update_and_delete_answer_as_the_general_path(oids):
    """The same change, once as given and once row by row in order (which
    takes no shortcut for a queued, dead or unknown row), leaves the two
    columns alike."""
    oids = np.array(oids)
    for verb in ("update", "delete", "update_dead", "delete_dead"):
        fast, slow = _column(), _column()
        for column in (fast, slow):
            column.delete([7], [93])  # oid 7 (value 93) is dead from here on
            column.count_range(0, 101)
        if verb.endswith("dead"):
            oids = np.append(oids, 7)
        old = np.where((oids >= 0) & (oids < 100), 100 - oids, 0)
        if verb.startswith("update"):
            live = fast.update(oids, np.arange(len(oids)) + 500, old)
            last = {int(oid): i for i, oid in enumerate(oids)}
            expected = sum(
                slow.update([oid], [500 + i], [100 - oid if 0 <= oid < 100 else 0])
                for oid, i in sorted(last.items())
            )
        else:
            live = fast.delete(oids, old)
            expected = sum(
                slow.delete([oid], [100 - oid if 0 <= oid < 100 else 0])
                for oid in sorted(set(oids.tolist()))
            )
        assert live == expected
        fast.check_invariants()
        for low, high in ((0, 50), (40, 120), (400, 600), (0, 1000)):
            assert fast.count_range(low, high) == slow.count_range(low, high)
        assert sorted(fast.range_select(0, 1000).oids.tolist()) == sorted(
            slow.range_select(0, 1000).oids.tolist()
        )


def test_a_key_range_update_queues_whole():
    column = _column()
    oids = np.arange(40, 50)
    assert column.update(oids, np.full(10, -3), 100 - oids) == 10
    assert column.delete(np.arange(50, 55), 100 - np.arange(50, 55)) == 5
    column.check_invariants()
    assert column.count_range(-3, -3, True, True) == 10
    assert column.count_range(0, 1000) == 100 + 3 - 10 - 5


# ---------------------------------------------------------------------- #
# SELECT … INTO names its columns as sqlite does
# ---------------------------------------------------------------------- #

INTO = [
    "SELECT avg(a), count(*) INTO t2 FROM e WHERE a > 1",
    "SELECT avg(e.a), min(w), count(*) INTO t2 FROM e",
    "SELECT e.a, w INTO t2 FROM e WHERE a >= 3",
    "SELECT x.a, max(x.w) INTO t2 FROM e x WHERE a BETWEEN 1 AND 5 GROUP BY x.a",
    "SELECT sum(a), max(e.w) INTO t2 FROM e WHERE a <= 5",
]
ROWS = [(1, 2.0), (3, 4.5), (12, 7.25), (3, 1.5)]


@pytest.mark.parametrize("name", list(ENGINE_CONFIGS))
def test_into_names_its_columns_as_sqlite_does(name):
    reference = sqlite3.connect(":memory:")
    reference.execute("CREATE TABLE e (a integer, w real)")
    reference.executemany("INSERT INTO e VALUES (?, ?)", ROWS)
    for sql in INTO:
        db = Database(**ENGINE_CONFIGS[name])
        db.execute("CREATE TABLE e (a integer, w float)")
        db.execute("INSERT INTO e VALUES " + ", ".join(map(str, ROWS)))
        db.execute(sql)
        reference.execute("DROP TABLE IF EXISTS t2")
        reference.execute("CREATE TABLE t2 AS " + sql.replace(" INTO t2", ""))
        names = [row[1] for row in reference.execute("PRAGMA table_info(t2)")]
        assert sorted(db.catalog.table("t2").schema.names()) == sorted(names), sql
        ours = db.execute("SELECT * FROM t2")
        order = [ours.columns.index(f"t2.{column}") for column in names]
        rows = sorted(tuple(row[i] for i in order) for row in ours.rows)
        assert rows == pytest.approx(sorted(reference.execute("SELECT * FROM t2"))), sql
        db.check_invariants()
