"""Statement/plan cache: parse and analyze once, rebind constants on hit.

§3.2 of the paper motivates the cracker catalog with exactly this: the
self-organising store must avoid "recompilation of cached queries".  In
this reproduction the per-statement compilation pipeline is
lex → parse → analyze → plan, and on a converged (sustained-phase)
workload it dominates the query lifecycle — the cracked answer itself is
an index lookup plus a zero-copy span.  This module caches the two
expensive, reusable stages:

* **exact level** — the raw SQL text maps straight to its
  :class:`~repro.sql.analyzer.AnalyzedQuery`.  A repeated statement skips
  the lexer, the parser *and* the analyzer; only the physical plan (which
  embeds the per-execution cracked answer) is rebuilt.
* **template level** — one regex split of the SQL text
  (:func:`template_key`) replaces its literals by placeholders, and that
  key maps to the parsed AST *template*.  A statement that differs only
  in constants skips the lexer and the parser: it rebinds its constants
  into a fresh AST (:func:`bind_statement`) and re-runs the (cheap,
  value-dependent) analyzer — folding range conjunctions can depend on
  the literal values, so analysis is never reused across different
  constants.  SELECT, INSERT … VALUES, UPDATE and DELETE all have
  templates; a DML hit runs its rebound AST through the durable
  dispatch, which logs the SQL text as before.  Keys are textual: a
  variant in keyword case or whitespace is a template of its own.  A
  template is stored only when the parser's literals equal the key's,
  in source order (:func:`statement_literals`, checked by
  :func:`make_template`), so a key never stands for a statement it
  would rebind wrongly.  ``template_hits`` counts SELECT hits only, so
  hit shares divide by SELECTs; ``dml_template_hits`` counts the rest.

Invalidation is per table: every entry records an epoch per referenced
table, and the :class:`Database` bumps a table's epoch on *every*
mutating statement — DDL (CREATE, DROP, materialise-replace via SELECT
INTO) and all DML (INSERT, UPDATE, DELETE).  Schema changes make cached
name resolution stale; DML changes cardinalities and visible rows that
the (re-run) join planner and executors read from the live catalog, so
DML invalidation is conservative — correctness never depends on it, but
it keeps every cached artifact observably in sync with the data.
Templates are pure syntax and never go stale.

The template level is a bounded LRU map.  The exact level is a
*segmented* LRU, so a stream of one-shot statements cannot flush the
statements that do repeat: a new entry is admitted to a probation
segment and promoted to the protected segment on its first hit.
One-shots age out of probation without ever touching protected entries;
a protected entry squeezed out by a promotion drops back to probation
(most-recent end) and gets a second chance.  Both levels are guarded by
one lock; bound templates and analyzed queries are treated as immutable
after publication, so hits are safe when one ``Database`` is shared by
many threads.
"""

from __future__ import annotations

import re
import threading
from collections import OrderedDict
from dataclasses import dataclass
from numbers import Integral

from repro.errors import SQLAnalysisError
from repro.sql.analyzer import AnalyzedQuery
from repro.sql.ast_nodes import (
    Assignment,
    Between,
    Comparison,
    Const,
    DeleteStmt,
    InsertValuesStmt,
    SelectStmt,
    UpdateStmt,
)
from repro.sql.lexer import NUMBER, STRING

#: Cache capacities (entries); oldest-used entries are evicted first.
#: The exact level holds up to this many entries in *each* segment.
EXACT_CAPACITY = 512
TEMPLATE_CAPACITY = 256


#: One group: a string, a ``--`` comment (kept as text) or a number.  A
#: digit after a word character is part of the word; ``-`` before a
#: digit is a sign (where ``_prefix_negative`` disagrees, the lexer
#: rejects the text, so it never stores a template).  The lookahead lets
#: the scan skip in C.
_LITERALS = re.compile(rf"(?=[-'\d])({STRING}|--[^\n]*|-?(?<!\w){NUMBER})")


def template_key(sql: str) -> tuple[str, tuple]:
    """``sql`` with each literal replaced by ``?``, and those literals.

    All other text, comments included, is kept verbatim, so a case or
    whitespace variant is a different key.  The split alternates text
    and matches, so without a comment the key is one join.
    """
    parts = _LITERALS.split(sql)
    if "--" in sql:
        pieces, texts = [parts[0]], []
        for index in range(1, len(parts), 2):
            text = parts[index]
            if text.startswith("--"):
                pieces[-1] += text + parts[index + 1]
            else:
                texts.append(text)
                pieces.append(parts[index + 1])
        key = "?".join(pieces)
    else:
        texts = parts[1::2]
        key = "?".join(parts[::2])
    return key, tuple([
        text[1:-1] if text[0] == "'" else float(text) if "." in text else int(text)
        for text in texts
    ])


def _where_literals(where: list, literals: list) -> None:
    """Append a WHERE conjunction's literals (BETWEEN: low then high)."""
    for condition in where:
        if isinstance(condition, Between):
            literals.extend((condition.low.value, condition.high.value))
        elif isinstance(condition, Comparison) and isinstance(condition.right, Const):
            literals.append(condition.right.value)


def _bind_where(where: list, values) -> list:
    """``where`` with its literals taken from the iterator ``values``."""
    bound: list = []
    for condition in where:
        if isinstance(condition, Between):
            bound.append(
                Between(
                    col=condition.col,
                    low=Const(next(values)),
                    high=Const(next(values)),
                )
            )
        elif isinstance(condition, Comparison) and isinstance(condition.right, Const):
            bound.append(
                Comparison(
                    left=condition.left,
                    op=condition.op,
                    right=Const(next(values)),
                )
            )
        else:
            bound.append(condition)
    return bound


def statement_literals(stmt) -> tuple:
    """The literals of a statement in source order (the binder's contract).

    A SELECT: WHERE conditions in clause order (BETWEEN yields low then
    high), then the LIMIT count.  INSERT … VALUES: every row's values,
    row by row.  UPDATE: the SET values, then its WHERE.  DELETE: its
    WHERE.  Any other statement has none.  Used to verify that
    :func:`bind_statement` would reproduce the parsed statement from
    :func:`template_key`'s literals.
    """
    literals: list = []
    if isinstance(stmt, SelectStmt):
        _where_literals(stmt.where, literals)
        if stmt.limit is not None:
            literals.append(stmt.limit)
    elif isinstance(stmt, InsertValuesStmt):
        for row in stmt.rows:
            literals.extend(row)
    elif isinstance(stmt, UpdateStmt):
        literals.extend(assignment.value.value for assignment in stmt.assignments)
        _where_literals(stmt.where, literals)
    elif isinstance(stmt, DeleteStmt):
        _where_literals(stmt.where, literals)
    return tuple(literals)


def bind_statement(template, literals: tuple):
    """A fresh AST with the template's constants replaced in order.

    Only the literal-bearing nodes are rebuilt; name-only structure
    (select items, tables, GROUP BY, ORDER BY, column names) is shared
    with the template, which is safe because AST nodes are never
    mutated after parsing.
    """
    values = iter(literals)
    if isinstance(template, InsertValuesStmt):
        return InsertValuesStmt(
            table=template.table,
            rows=[tuple(next(values) for _ in row) for row in template.rows],
        )
    if isinstance(template, UpdateStmt):
        assignments = [
            Assignment(column=assignment.column, value=Const(next(values)))
            for assignment in template.assignments
        ]
        return UpdateStmt(
            table=template.table,
            assignments=assignments,
            where=_bind_where(template.where, values),
        )
    if isinstance(template, DeleteStmt):
        return DeleteStmt(
            table=template.table, where=_bind_where(template.where, values)
        )
    where = _bind_where(template.where, values)
    limit = template.limit
    if limit is not None:
        limit = int(next(values))
    return SelectStmt(
        items=template.items,
        tables=template.tables,
        where=where,
        group_by=template.group_by,
        order_by=template.order_by,
        into=template.into,
        limit=limit,
    )


#: Statements a template can stand for.
_TEMPLATED = (SelectStmt, InsertValuesStmt, UpdateStmt, DeleteStmt)


@dataclass
class StatementTemplate:
    """A parameterised statement: parsed once, rebindable forever.

    ``stmt`` is a SELECT, INSERT … VALUES, UPDATE or DELETE; ``slots``
    is its literal count, and :meth:`bind` substitutes a new literal
    tuple.  Templates are immutable and schema-independent (name
    resolution happens when the bound statement runs), so they are
    never invalidated.
    """

    stmt: object
    slots: int

    def fits(self, literals: tuple) -> bool:
        """One literal per slot, and an integer for a LIMIT (the last)."""
        return len(literals) == self.slots and (
            getattr(self.stmt, "limit", None) is None
            or isinstance(literals[-1], Integral)
        )

    def bind(self, literals):
        literals = tuple(literals)
        if len(literals) != self.slots:
            raise SQLAnalysisError(
                f"statement takes {self.slots} parameter(s), got {len(literals)}"
            )
        if not self.fits(literals):
            raise SQLAnalysisError(f"LIMIT takes an integer, got {literals[-1]!r}")
        return bind_statement(self.stmt, literals)


def make_template(stmt, literals: tuple) -> StatementTemplate | None:
    """Build a template, or None when the statement is not parameterisable.

    A SELECT, INSERT … VALUES, UPDATE or DELETE is cacheable when
    rebinding the key's literal sequence reproduces exactly the
    constants the parser extracted (the positional contract of
    :func:`bind_statement`).  A SELECT with ``INTO`` materialises a
    table (DDL) and INSERT … SELECT nests a query, so neither is.  The
    self-check keeps the cache robust against future grammar growth: a
    construct whose literals travel elsewhere simply stays uncached.
    """
    if not isinstance(stmt, _TEMPLATED):
        return None
    if isinstance(stmt, SelectStmt) and stmt.into is not None:
        return None
    if statement_literals(stmt) != literals:
        return None
    return StatementTemplate(stmt=stmt, slots=len(literals))


@dataclass
class CachedQuery:
    """An analyzed statement plus the table epochs it was built under."""

    query: AnalyzedQuery
    table_epochs: tuple


class PlanCache:
    """Per-database statement cache with per-table epoch invalidation.

    ``enabled=False`` keeps only the epoch bookkeeping (prepared
    statements always validate against it) while ``execute`` bypasses
    the cache — the configuration the hot-path benchmark uses to emulate
    the seed per-statement compilation cost.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._epochs: dict[str, int] = {}
        # Segmented LRU of the exact level: entries enter ``_probation``
        # and move to ``_protected`` on their first hit.
        self._probation: OrderedDict[str, CachedQuery] = OrderedDict()
        self._protected: OrderedDict[str, CachedQuery] = OrderedDict()
        self._templates: OrderedDict[str, StatementTemplate] = OrderedDict()
        self.hits = 0
        #: Template hits of SELECTs; DML template hits count apart, so
        #: hit shares divide by SELECTs alone.
        self.template_hits = 0
        self.dml_template_hits = 0
        self.misses = 0
        self.invalidations = 0

    # ------------------------------------------------------------------ #
    # Epochs
    # ------------------------------------------------------------------ #

    def epochs_for(self, tables) -> tuple:
        """Current ``(name, epoch)`` pairs for the given table names."""
        with self._lock:
            return tuple(
                (name, self._epochs.get(name, 0)) for name in sorted(set(tables))
            )

    def current(self, table_epochs: tuple) -> bool:
        """True while none of the recorded tables changed."""
        with self._lock:
            return all(
                self._epochs.get(name, 0) == epoch for name, epoch in table_epochs
            )

    def invalidate_table(self, name: str) -> None:
        """Bump ``name``'s epoch: every entry referencing it goes stale.

        Called on every mutation touching the table: DDL, INSERT,
        UPDATE and DELETE.  Stale exact entries are dropped lazily on
        their next lookup; templates (pure syntax) survive.
        """
        with self._lock:
            self._epochs[name] = self._epochs.get(name, 0) + 1
            self.invalidations += 1

    def invalidate_all(self, tables) -> None:
        """Bump every given table's epoch and drop all exact entries.

        The recovery hook: after a snapshot restore or WAL replay, any
        plan compiled against the pre-restore catalog — including
        prepared-statement memos, which validate against these epochs —
        must recompile.  Templates survive (pure syntax, never stale).
        """
        with self._lock:
            for name in tables:
                self._epochs[name] = self._epochs.get(name, 0) + 1
                self.invalidations += 1
            self._probation.clear()
            self._protected.clear()

    # ------------------------------------------------------------------ #
    # Exact level
    # ------------------------------------------------------------------ #

    def lookup_exact(self, sql: str) -> AnalyzedQuery | None:
        """Exact-text hit, or None.

        Does not count misses itself: the caller probes before it knows
        the statement kind, and an INSERT/CREATE probe is not a cache
        miss.  :meth:`count_miss` records real (SELECT) misses.
        """
        if not self.enabled:
            return None
        with self._lock:
            protected = self._protected
            segment = protected
            entry = protected.get(sql)
            if entry is None:
                segment = self._probation
                entry = segment.get(sql)
                if entry is None:
                    return None
            stale = any(
                self._epochs.get(name, 0) != epoch
                for name, epoch in entry.table_epochs
            )
            if stale:
                del segment[sql]
                return None
            if segment is protected:
                protected.move_to_end(sql)
            else:
                # First hit: promote; the protected LRU entry it displaces
                # drops back to probation for a second chance.
                del segment[sql]
                protected[sql] = entry
                if len(protected) > EXACT_CAPACITY:
                    demoted, demoted_entry = protected.popitem(last=False)
                    self._admit(demoted, demoted_entry)
            self.hits += 1
            return entry.query

    def _admit(self, sql: str, entry: CachedQuery) -> None:
        """Put ``entry`` at the recent end of probation (lock held)."""
        probation = self._probation
        probation[sql] = entry
        probation.move_to_end(sql)
        while len(probation) > EXACT_CAPACITY:
            probation.popitem(last=False)

    def count_miss(self) -> None:
        """Record one compile-from-scratch (or template-only) SELECT."""
        with self._lock:
            self.misses += 1

    def store_exact(self, sql: str, query: AnalyzedQuery, table_epochs: tuple) -> None:
        """Publish an analyzed statement under pre-analysis table epochs.

        ``table_epochs`` must be captured (:meth:`epochs_for`) *before*
        the analysis ran: if DDL or DML lands while the statement
        is being compiled, the entry is then already stale on arrival and
        the next lookup recompiles — capturing after analysis would stamp
        a pre-DDL artifact as current forever.
        """
        if not self.enabled:
            return
        entry = CachedQuery(query=query, table_epochs=table_epochs)
        with self._lock:
            if sql in self._protected:
                self._protected[sql] = entry
                self._protected.move_to_end(sql)
            else:
                self._admit(sql, entry)

    # ------------------------------------------------------------------ #
    # Template level
    # ------------------------------------------------------------------ #

    def lookup_template(self, key: str) -> StatementTemplate | None:
        if not self.enabled:
            return None
        with self._lock:
            template = self._templates.get(key)
            if template is not None:
                self._templates.move_to_end(key)
                if isinstance(template.stmt, SelectStmt):
                    self.template_hits += 1
                else:
                    self.dml_template_hits += 1
            return template

    def store_template(self, key: str, template: StatementTemplate) -> None:
        if not self.enabled:
            return
        with self._lock:
            self._templates[key] = template
            self._templates.move_to_end(key)
            while len(self._templates) > TEMPLATE_CAPACITY:
                self._templates.popitem(last=False)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def stats(self) -> dict:
        """Counter snapshot (for tests, monitors and the benchmark)."""
        with self._lock:
            dml_entries = sum(
                not isinstance(t.stmt, SelectStmt) for t in self._templates.values()
            )
            return {
                "hits": self.hits,
                "template_hits": self.template_hits,
                "dml_template_hits": self.dml_template_hits,
                "misses": self.misses,
                "invalidations": self.invalidations,
                "exact_entries": len(self._probation) + len(self._protected),
                "template_entries": len(self._templates) - dml_entries,
                "dml_template_entries": dml_entries,
            }
