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
* **template level** — the statement is lexed once, its literals are
  replaced by placeholders, and the normalised token string maps to the
  parsed AST *template*.  A statement that differs only in constants
  rebinds them into a fresh AST (:func:`bind_statement`) and re-runs the
  (cheap, value-dependent) analyzer — folding range conjunctions can
  depend on the literal values, so analysis is never reused across
  different constants.

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

import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.errors import SQLAnalysisError
from repro.sql.analyzer import AnalyzedQuery
from repro.sql.ast_nodes import Between, Comparison, Const, SelectStmt
from repro.sql.lexer import Token

#: Cache capacities (entries); oldest-used entries are evicted first.
#: The exact level holds up to this many entries in *each* segment.
EXACT_CAPACITY = 512
TEMPLATE_CAPACITY = 256


def literal_value(token: Token):
    """The python value of a literal token (mirrors the parser's Const)."""
    if token.kind == "number":
        return float(token.value) if "." in token.value else int(token.value)
    return token.value


def normalize(tokens: list[Token]) -> tuple[str, tuple]:
    """Normalised statement key and the literals it abstracts over.

    Number and string tokens become ``?`` placeholders; everything else
    keeps its (case-normalised for keywords) spelling.  Two statements
    share a key exactly when they differ only in literal constants.
    """
    parts: list[str] = []
    literals: list = []
    for token in tokens:
        if token.kind in ("number", "string"):
            parts.append("?")
            literals.append(literal_value(token))
        else:
            parts.append(token.value)
    return " ".join(parts), tuple(literals)


def statement_literals(stmt: SelectStmt) -> tuple:
    """The literals of a SELECT in source order (the binder's contract).

    WHERE conditions in clause order (BETWEEN yields low then high), then
    the LIMIT count.  Used to verify that :func:`bind_statement` would
    reproduce the parsed statement from the lexer's literal sequence.
    """
    literals: list = []
    for condition in stmt.where:
        if isinstance(condition, Between):
            literals.extend((condition.low.value, condition.high.value))
        elif isinstance(condition, Comparison) and isinstance(condition.right, Const):
            literals.append(condition.right.value)
    if stmt.limit is not None:
        literals.append(stmt.limit)
    return tuple(literals)


def bind_statement(template: SelectStmt, literals: tuple) -> SelectStmt:
    """A fresh SELECT AST with the template's constants replaced in order.

    Only the literal-bearing nodes are rebuilt; name-only structure
    (select items, tables, GROUP BY, ORDER BY) is shared with the
    template, which is safe because AST nodes are never mutated after
    parsing.
    """
    values = iter(literals)
    where: list = []
    for condition in template.where:
        if isinstance(condition, Between):
            where.append(
                Between(
                    col=condition.col,
                    low=Const(next(values)),
                    high=Const(next(values)),
                )
            )
        elif isinstance(condition, Comparison) and isinstance(condition.right, Const):
            where.append(
                Comparison(
                    left=condition.left,
                    op=condition.op,
                    right=Const(next(values)),
                )
            )
        else:
            where.append(condition)
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


@dataclass
class SelectTemplate:
    """A parameterised SELECT: parsed once, rebindable forever.

    ``slots`` is the literal count; :meth:`bind` substitutes a new
    literal tuple.  Templates are immutable and schema-independent (name
    resolution happens at bind-analyze time), so they are never
    invalidated.
    """

    stmt: SelectStmt
    slots: int

    def bind(self, literals) -> SelectStmt:
        literals = tuple(literals)
        if len(literals) != self.slots:
            raise SQLAnalysisError(
                f"statement takes {self.slots} parameter(s), got {len(literals)}"
            )
        return bind_statement(self.stmt, literals)


def make_template(stmt: SelectStmt, literals: tuple) -> SelectTemplate | None:
    """Build a template, or None when the statement is not parameterisable.

    A SELECT is cacheable when rebinding the lexer's literal sequence
    reproduces exactly the constants the parser extracted (the positional
    contract of :func:`bind_statement`) and it has no side effect
    (``INTO`` materialises a table, i.e. DDL).  The self-check keeps the
    cache robust against future grammar growth: a construct whose
    literals travel elsewhere simply stays uncached.
    """
    if not isinstance(stmt, SelectStmt) or stmt.into is not None:
        return None
    if statement_literals(stmt) != literals:
        return None
    return SelectTemplate(stmt=stmt, slots=len(literals))


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
        self._templates: OrderedDict[str, SelectTemplate] = OrderedDict()
        self.hits = 0
        self.template_hits = 0
        self.misses = 0
        self.invalidations = 0

    # ------------------------------------------------------------------ #
    # Epochs
    # ------------------------------------------------------------------ #

    def table_epoch(self, name: str) -> int:
        with self._lock:
            return self._epochs.get(name, 0)

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
        the analysis ran: if DDL or an insert lands while the statement
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

    def lookup_template(self, key: str) -> SelectTemplate | None:
        if not self.enabled:
            return None
        with self._lock:
            template = self._templates.get(key)
            if template is not None:
                self._templates.move_to_end(key)
                self.template_hits += 1
            return template

    def store_template(self, key: str, template: SelectTemplate) -> None:
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
            return {
                "hits": self.hits,
                "template_hits": self.template_hits,
                "misses": self.misses,
                "invalidations": self.invalidations,
                "exact_entries": len(self._probation) + len(self._protected),
                "template_entries": len(self._templates),
            }

    def clear(self) -> None:
        with self._lock:
            self._probation.clear()
            self._protected.clear()
            self._templates.clear()
