"""The compile path: template keys from the text, one-pass tokens, lazy advice.

A SELECT, INSERT … VALUES, UPDATE or DELETE that differs from a cached
one only in its constants is found by :func:`template_key` (one regex
split of the text) and never reaches the lexer or the parser.  The
character-loop tokenizer the compiled alternation replaced stays here as
the reference, and generated statement pairs check that a key hit
rebinds to exactly what parsing would give.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import TableModel, mixed_dml_stream
from repro.errors import SQLAnalysisError, SQLSyntaxError
from repro.server.protocol import error_for_exception
from repro.sql import analyzer, lexer, parser, session
from repro.sql.lexer import KEYWORDS, tokenize
from repro.sql.parser import parse
from repro.sql.plan_cache import make_template, template_key
from repro.sql.session import Database

# ---------------------------------------------------------------------- #
# The reference tokenizer
# ---------------------------------------------------------------------- #

_REFERENCE_SYMBOLS = (
    "<=", ">=", "<>", "!=", "=", "<", ">", "(", ")", ",", "*", ".", ";",
)


def _reference_prefix_negative(tokens: list) -> bool:
    if not tokens:
        return True
    kind, value, _ = tokens[-1]
    if kind in ("number", "string", "ident"):
        return False
    return value not in (")", "*")


def reference_tokenize(text: str) -> list[tuple]:
    """The character loop the compiled alternation replaced.

    One deliberate change: a number takes at most one '.', so ``1.2.3``
    is ``1.2`` ``.`` ``3`` (the parser rejects it) instead of one token
    that ``float()`` could not read.
    """
    tokens: list[tuple] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "-" and i + 1 < n and text[i + 1] == "-":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            word = text[start:i]
            if word.lower() in KEYWORDS:
                tokens.append(("keyword", word.lower(), start))
            else:
                tokens.append(("ident", word, start))
            continue
        if ch.isdigit() or (
            ch == "-"
            and i + 1 < n
            and text[i + 1].isdigit()
            and _reference_prefix_negative(tokens)
        ):
            start = i
            i += 1 if ch == "-" else 0
            while i < n and text[i].isdigit():
                i += 1
            if i < n and text[i] == ".":
                i += 1
                while i < n and text[i].isdigit():
                    i += 1
            tokens.append(("number", text[start:i], start))
            continue
        if ch == "'":
            start = i
            i += 1
            while i < n and text[i] != "'":
                i += 1
            if i >= n:
                raise SQLSyntaxError(f"unterminated string literal at {start}")
            tokens.append(("string", text[start + 1 : i], start))
            i += 1
            continue
        for symbol in _REFERENCE_SYMBOLS:
            if text.startswith(symbol, i):
                tokens.append(("symbol", symbol, i))
                i += len(symbol)
                break
        else:
            raise SQLSyntaxError(f"unexpected character {ch!r} at position {i}")
    return tokens


def _outcome(tokenizer, text: str):
    try:
        return [tuple(token) for token in tokenizer(text)]
    except SQLSyntaxError as exc:
        return (type(exc), str(exc))


@st.composite
def _mixed_case(draw, words):
    word = draw(st.sampled_from(words))
    flips = draw(st.lists(st.booleans(), min_size=len(word), max_size=len(word)))
    return "".join(c.upper() if flip else c for c, flip in zip(word, flips))


# Stray characters leave out the numeric categories the two scanners
# classify differently ('²', '½', 'Ⅻ'): neither is a decimal digit, and
# the alternation lets them continue or start a word.
_FRAGMENT = st.one_of(
    _mixed_case(sorted(KEYWORDS)),
    st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,4}", fullmatch=True),
    st.from_regex(r"-?[0-9]{1,3}(\.[0-9]{0,2}){0,2}", fullmatch=True),
    st.from_regex(r"'[a-z0-9 .\-]{0,5}'?", fullmatch=True),
    st.from_regex(r"--[a-z0-9 '\-]{0,6}\n?", fullmatch=True),
    st.sampled_from(_REFERENCE_SYMBOLS + ("-", "!", "'", "@", "?")),
    st.characters(blacklist_categories=("Cs", "No", "Nl")),
)
_SQLISH = st.lists(
    st.tuples(_FRAGMENT, st.sampled_from(["", "", " ", "\n", "\t"])), max_size=14
).map(lambda parts: "".join(text + gap for text, gap in parts))


class TestTokenizer:
    @settings(max_examples=200, deadline=None)
    @given(_SQLISH)
    def test_alternation_equals_the_character_loop(self, text):
        assert _outcome(tokenize, text) == _outcome(reference_tokenize, text)

    @settings(max_examples=200, deadline=None)
    @given(_SQLISH)
    def test_key_literals_are_the_token_literals(self, text):
        try:
            tokens = tokenize(text)
        except SQLSyntaxError:
            return
        expected = tuple(
            token.value
            if token.kind == "string"
            else float(token.value) if "." in token.value else int(token.value)
            for token in tokens
            if token.kind in ("number", "string")
        )
        assert template_key(text)[1] == expected

    def test_token_is_a_named_tuple(self):
        token = tokenize("SELECT")[0]
        assert token == ("keyword", "select", 0)
        assert (token.kind, token.value, token.position) == ("keyword", "select", 0)


# ---------------------------------------------------------------------- #
# Template keys: a hit rebinds to what parsing gives
# ---------------------------------------------------------------------- #

# Gaps between tokens; comments carry quotes, digits and minus signs.
_GAPS = [" ", "  ", "\n", "\t", " -- it's 42\n", " --'3 -4.5\n", "\n-- 'x' 7\n "]
_LITERALS = st.one_of(
    st.integers(-999, 999).map(str),
    st.from_regex(r"-?[0-9]{1,3}\.[0-9]{0,2}", fullmatch=True),
    st.from_regex(r"'[a-z0-9 \-']{0,4}'", fullmatch=True),
)
_OPS = ["=", "<", "<=", ">", ">=", "<>", "!="]


def _conditions(draw, pieces: list) -> None:
    """Append one to three WHERE conditions to ``pieces``."""
    for index in range(draw(st.integers(1, 3))):
        if index:
            pieces.append("AND")
        shape = draw(st.sampled_from(["between", "compare", "tight", "tag"]))
        if shape == "between":
            pieces += ["a", "BETWEEN", None, "AND", None]
        elif shape == "compare":
            pieces += ["a", draw(st.sampled_from(_OPS)), None]
        elif shape == "tight":
            pieces += [("a" + draw(st.sampled_from(_OPS)),)]
        else:
            pieces += ["tag", "<>", None]


@st.composite
def _skeleton(draw):
    """A SELECT, INSERT, UPDATE or DELETE as a list of text pieces,
    ``None`` marking a literal slot.

    A one-tuple piece is glued to its literal with no gap (``a>-5``).
    """
    kind = draw(st.sampled_from(["select", "insert", "update", "delete"]))
    if kind == "insert":
        pieces: list = ["INSERT", "INTO", "r", "VALUES"]
        for row in range(draw(st.integers(1, 3))):
            if row:
                pieces.append(",")
            pieces += ["("] + [None, ","] * draw(st.integers(0, 2)) + [None, ")"]
        return pieces
    if kind == "update":
        pieces = ["UPDATE", "r", "SET", "a", "=", None]
        if draw(st.booleans()):
            pieces += [",", ("tag=",)]
    elif kind == "delete":
        pieces = ["DELETE", "FROM", "r"]
    if kind != "select":
        if draw(st.booleans()):
            pieces.append("WHERE")
            _conditions(draw, pieces)
        return pieces
    items = draw(st.sampled_from(["count(*)", "*", "r.k, a", "k"]))
    pieces = ["SELECT", items, "FROM", "r", "WHERE"]
    _conditions(draw, pieces)
    if draw(st.booleans()):
        pieces += ["LIMIT", None]
    return pieces


def _render(draw, pieces: list) -> str:
    out: list[str] = []
    for piece in pieces:
        if isinstance(piece, tuple):
            out.append(piece[0] + draw(_LITERALS))
        elif piece is None:
            out.append(draw(_LITERALS))
        else:
            out.append(piece)
        out.append(draw(st.sampled_from(_GAPS)))
    return "".join(out)


@st.composite
def _statement_pair(draw):
    pieces = draw(_skeleton())
    first = _render(draw, pieces)
    if draw(st.integers(0, 4)):
        # Most pairs differ only in literals: redraw every placeholder.
        head, *rest = template_key(first)[0].split("?")
        second = head + "".join(draw(_LITERALS) + piece for piece in rest)
    else:
        second = _render(draw, pieces)
    return first, second


class TestTemplateKey:
    def test_comments_and_strings_keep_their_digits(self):
        key, literals = template_key(
            "SELECT * FROM r -- it's 4 o'clock\nWHERE tag <> '-- 7' AND a > -3"
        )
        assert literals == ("-- 7", -3)
        assert key == "SELECT * FROM r -- it's 4 o'clock\nWHERE tag <> ? AND a > ?"

    def test_digits_inside_identifiers_stay_text(self):
        key, literals = template_key("SELECT t2.c9 FROM t2 WHERE c9 >= 10")
        assert (key, literals) == ("SELECT t2.c9 FROM t2 WHERE c9 >= ?", (10,))

    def test_case_and_whitespace_variants_are_separate_keys(self):
        keys = {
            template_key(sql)[0]
            for sql in (
                "SELECT * FROM r WHERE a > 5",
                "select * from r where a > 5",
                "SELECT *  FROM r WHERE a > 5",
            )
        }
        assert len(keys) == 3

    @settings(max_examples=400, deadline=None)
    @given(_statement_pair())
    def test_a_key_hit_rebinds_to_the_parsed_statement(self, pair):
        first, second = pair
        key, literals = template_key(first)
        try:
            stmt = parse(first)
        except SQLSyntaxError:
            return  # a statement that does not parse stores no template
        template = make_template(stmt, literals)
        if template is None:
            return
        second_key, second_literals = template_key(second)
        if second_key != key or not template.fits(second_literals):
            return
        assert template.bind(second_literals) == parse(second)

    def test_only_an_integer_limit_rebinds(self):
        sql = "SELECT * FROM r WHERE a > 1 LIMIT 5"
        key, literals = template_key(sql)
        template = make_template(parse(sql), literals)
        assert template.fits((7, -2))
        for bad in ("1.5", "'x'"):
            bad_key, bad_literals = template_key(sql.replace("5", bad))
            assert bad_key == key and not template.fits(bad_literals)
        prepared = small_db().prepare(sql)
        with pytest.raises(SQLAnalysisError, match="LIMIT"):
            prepared.execute((7, 1.5))


# ---------------------------------------------------------------------- #
# The session: hits skip the front end, advice is built when read
# ---------------------------------------------------------------------- #

ROWS = [(i, (i * 37) % 100, f"t{i % 3}") for i in range(200)]


def small_db(**kwargs) -> Database:
    db = Database(cracking=True, **kwargs)
    db.execute("CREATE TABLE r (k integer, a integer, tag varchar)")
    values = ", ".join(f"({k}, {a}, '{tag}')" for k, a, tag in ROWS)
    db.execute(f"INSERT INTO r VALUES {values}")
    return db


def count_between(low: int, high: int) -> int:
    return sum(low <= a <= high for _, a, _ in ROWS)


def _refuse(name):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{name} ran on a cached statement")

    return refuse


def _forbid_front_end(monkeypatch) -> None:
    for module, name in (
        (session, "tokenize"),
        (session, "parse"),
        (parser, "tokenize"),
        (parser, "parse"),
        (lexer, "tokenize"),
    ):
        monkeypatch.setattr(module, name, _refuse(name))


def test_cache_hits_run_no_lexer_parser_or_advice(monkeypatch):
    db = small_db()
    db.execute("SELECT count(*) FROM r WHERE a BETWEEN 10 AND 40")
    db.execute("SELECT r.k FROM r WHERE a < 7 AND tag <> 't1' LIMIT 3")
    _forbid_front_end(monkeypatch)
    monkeypatch.setattr(analyzer, "extract_crackers", _refuse("extract_crackers"))
    # Exact hit.
    assert db.execute(
        "SELECT count(*) FROM r WHERE a BETWEEN 10 AND 40"
    ).scalar() == count_between(10, 40)
    # Template hits: new constants, including a negative one.
    assert db.execute(
        "SELECT count(*) FROM r WHERE a BETWEEN -20 AND 70"
    ).scalar() == count_between(-20, 70)
    rows = db.execute("SELECT r.k FROM r WHERE a < 60 AND tag <> 't2' LIMIT 1000").rows
    assert sorted(rows) == [(k,) for k, a, tag in ROWS if a < 60 and tag != "t2"]
    stats = db.stats()["plan_cache"]
    assert (stats["hits"], stats["template_hits"]) == (1, 2)


def test_advice_is_built_only_when_read(monkeypatch):
    db = small_db()
    monkeypatch.setattr(analyzer, "extract_crackers", _refuse("extract_crackers"))
    result = db.execute("SELECT r.k FROM r WHERE a BETWEEN 5 AND 9")  # a miss
    assert sorted(result.rows) == [(k,) for k, a, _ in ROWS if 5 <= a <= 9]
    with pytest.raises(AssertionError, match="extract_crackers"):
        result.advice
    monkeypatch.undo()
    assert [(a.op, a.params) for a in result.advice] == [
        ("Ξ", "5 <= r.a <= 9"),
        ("Ψ", "π[k](r)"),
    ]


def test_advice_describes_the_schema_the_query_ran_against():
    db = small_db()
    result = db.execute("SELECT r.k FROM r WHERE a < 50")
    # Replace r by a one-column table before the advice is read: the Ψ
    # entry still says the query projected one of three columns.
    db.execute("SELECT k INTO r FROM r WHERE a < 50")
    assert [a.op for a in result.advice] == ["Ξ", "Ψ"]
    assert db.execute("SELECT r.k FROM r WHERE k < 50").advice[-1].op == "Ξ"


def test_explain_output_is_unchanged():
    db = Database(cracking=True)
    db.execute("CREATE TABLE r (k integer, a integer, tag varchar)")
    db.execute("CREATE TABLE s (k integer, b integer)")
    db.execute("INSERT INTO r VALUES (1, 10, 'x'), (2, 20, 'y')")
    db.execute("INSERT INTO s VALUES (1, 5), (2, 6)")
    assert db.explain(
        "SELECT r.k, r.tag FROM r, s WHERE r.k = s.k AND a BETWEEN 5 AND 15 "
        "AND b > 2.5 GROUP BY r.k, r.tag"
    ) == (
        "tables: r, s\nselections: 5 <= r.a <= 15; 2.5 < s.b\njoins: r.k = s.k\n"
        "group by: r.k, r.tag\ncracker advice:\n  Ξ  5 <= r.a <= 15\n"
        "  Ξ  2.5 < s.b\n  ^  r.k = s.k\n  Ω  group by r.k, r.tag\n  Ψ  π[k, tag](r)"
    )
    assert db.explain("SELECT count(*) FROM r") == (
        "tables: r\nselections: (none)\njoins: (none)\ngroup by: (none)\n"
        "cracker advice:\n  (none)"
    )


def test_dml_template_hits_run_no_lexer_or_parser(monkeypatch):
    db = small_db()
    db.execute("INSERT INTO r VALUES (500, 5, 'x'), (501, 6, 'y')")
    db.execute("UPDATE r SET a = 1 WHERE k BETWEEN 0 AND 3")
    db.execute("DELETE FROM r WHERE k = 7")
    _forbid_front_end(monkeypatch)
    db.execute("INSERT INTO r VALUES (502, 7, 'z'), (503, -8, '')")
    db.execute("UPDATE r SET a = -1 WHERE k BETWEEN 10 AND 13")
    db.execute("DELETE FROM r WHERE k = 9")
    stats = db.stats()["plan_cache"]
    assert (stats["dml_template_hits"], stats["template_hits"], stats["misses"]) == (
        3, 0, 0,
    )
    assert (stats["dml_template_entries"], stats["template_entries"]) == (4, 0)
    monkeypatch.undo()
    assert db.execute("SELECT r.k, r.a, r.tag FROM r WHERE k >= 500").rows == [
        (500, 5, "x"), (501, 6, "y"), (502, 7, "z"), (503, -8, ""),
    ]
    assert db.execute("SELECT count(*) FROM r WHERE a = -1").scalar() == 4
    assert db.execute("SELECT count(*) FROM r WHERE k = 9").scalar() == 0


def test_insert_select_and_rejected_literals_stay_uncached(monkeypatch):
    db = small_db()  # its 200-row load stored one DML template
    db.execute("CREATE TABLE s (k integer, a integer, tag varchar)")
    for low in (5, 50):
        db.execute(f"INSERT INTO s SELECT * FROM r WHERE a > {low}")
    assert db.execute("SELECT count(*) FROM s").scalar() == sum(
        a > 5 for _, a, _ in ROWS
    ) + sum(a > 50 for _, a, _ in ROWS)

    # The positional contract: SET values come before WHERE literals.
    sql = "UPDATE r SET a = 5 WHERE k BETWEEN 1 AND 3"
    key, literals = template_key(sql)
    assert literals == (5, 1, 3)
    assert make_template(parse(sql), (1, 3, 5)) is None
    assert make_template(parse(sql), literals).bind((6, 2, 4)) == parse(
        "UPDATE r SET a = 6 WHERE k BETWEEN 2 AND 4"
    )
    # Through the session: a key whose literals the parse disagrees with
    # stores nothing, and the statement still runs as parsed.
    def reversed_key(text):
        key, literals = template_key(text)
        return key, literals[::-1]

    monkeypatch.setattr(session, "template_key", reversed_key)
    for low in (1, 11):
        db.execute(f"UPDATE r SET a = 5 WHERE k BETWEEN {low} AND {low + 2}")
    monkeypatch.undo()
    stats = db.stats()["plan_cache"]
    assert (stats["dml_template_hits"], stats["dml_template_entries"]) == (0, 1)
    assert sorted(db.execute("SELECT r.k FROM r WHERE a = 5").rows) == [
        (k,) for k, a, _ in ROWS if a == 5 or k in (1, 2, 3, 11, 12, 13)
    ]


@pytest.mark.parametrize("plan_cache", [True, False], ids=["cached", "uncached"])
def test_a_mixed_dml_stream_equals_the_model(plan_cache):
    db = Database(cracking=True, plan_cache=plan_cache)
    model = TableModel()
    for sql, op in mixed_dml_stream(np.random.default_rng(23), 400):
        result = db.execute(sql)
        if op[0] == "count":
            assert result.scalar() == model.apply(op), sql
        else:
            model.apply(op)
    assert sorted(db.execute("SELECT r.k, r.a, r.tag FROM r").rows) == model.rows()
    stats = db.stats()["plan_cache"]
    hits = (stats["template_hits"], stats["dml_template_hits"])
    assert min(hits) > 0 if plan_cache else hits == (0, 0)


# ---------------------------------------------------------------------- #
# Malformed numbers and leading comments
# ---------------------------------------------------------------------- #

MALFORMED = [
    "SELECT count(*) FROM r WHERE a BETWEEN 1.2.3 AND 5",
    "SELECT r.k FROM r WHERE a < 50 LIMIT 1.5",
    "SELECT r.k FROM r WHERE a < 50 LIMIT 'x'",
]


@pytest.mark.parametrize("sql", MALFORMED)
@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_a_malformed_number_is_a_syntax_error(sql, warm):
    db = small_db()
    if warm:
        # A well-formed sibling stores the template the bad text keys to.
        db.execute(sql.replace("1.2.3", "1").replace("1.5", "5").replace("'x'", "5"))
    with pytest.raises(SQLSyntaxError) as info:
        db.execute(sql)
    assert error_for_exception(info.value)["code"] == "syntax"


def test_a_leading_comment_does_not_hide_the_statement_kind():
    db = small_db()
    sql = "-- note\nSELECT count(*) FROM r WHERE a BETWEEN 0 AND 9"
    assert db.execute(sql).scalar() == count_between(0, 9)
    db.execute(sql.replace("0", "3"))
    assert db.stats()["plan_cache"]["template_hits"] == 1
    db.execute("  -- one\n\t-- two\n  insert into r values (900, 1, 'x')")
    with pytest.raises(SQLSyntaxError):
        db.execute("-- only a comment")
    hists = db.stats()["metrics"]["histograms"]["repro_statement_seconds"]
    assert hists["kind=select"]["count"] == 2
    assert hists["kind=insert"]["count"] == 2  # small_db's load, then ours
    assert "kind=other" not in hists


# ---------------------------------------------------------------------- #
# The hot path's Python call budget
# ---------------------------------------------------------------------- #

SRC = str(Path(session.__file__).resolve().parents[1])


def _repro_calls(fn) -> int:
    """Python ``call`` events under ``src/repro`` while ``fn`` runs: a count
    that numpy and stdlib versions cannot move."""
    calls = 0

    def hook(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(SRC):
            calls += 1

    sys.setprofile(hook)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


def test_a_cached_count_stays_within_its_call_budget():
    # Measured on this converged column: 44 calls for an exact hit and 40
    # for a prepared execution.  The budget is that + 10%.
    db = Database(cracking=True)
    db.execute("CREATE TABLE r (k integer, a integer)")
    values = np.random.default_rng(5).permutation(20_000)
    db.execute(
        "INSERT INTO r VALUES " + ", ".join(f"({k}, {a})" for k, a in enumerate(values))
    )
    rng = np.random.default_rng(6)
    for low in rng.integers(0, 20_000, 300).tolist():
        db.execute(f"select count(*) from r where a between {low} and {low + 50}")
    sql = "SELECT count(*) FROM r WHERE a BETWEEN 100 AND 200"
    prepared = db.prepare(sql)
    for _ in range(3):
        assert db.execute(sql).scalar() == prepared.execute().scalar() == 101
    assert _repro_calls(lambda: db.execute(sql)) <= 48
    assert _repro_calls(prepared.execute) <= 44
