"""Statement/plan cache: parse and resolve once, fold constants on hit.

§3.2 of the paper motivates the cracker catalog with exactly this: the
self-organising store must avoid "recompilation of cached queries".  In
this reproduction the per-statement compilation pipeline is
lex → parse → analyze → plan, and on a converged (sustained-phase)
workload it dominates the query lifecycle — the cracked answer itself is
an index lookup plus a copy of one span.  This module caches the
reusable stages:

* **exact level** — a key maps straight to a compiled SELECT
  (:mod:`repro.sql.statements`) carrying its
  :class:`~repro.sql.analyzer.AnalyzedQuery`, with the table epochs it
  was analysed under.  The key is the SQL text, or ``(template key,
  literals)`` for a prepared execution; a str never equals a tuple.  A
  hit skips the lexer, the parser *and* the analyzer; only the
  physical plan (which embeds the per-execution cracked answer) is
  rebuilt.
* **template level** — one regex split of the SQL text
  (:func:`template_key`) replaces its literals by placeholders, and that
  key maps to a parsed statement, the *template*.  A statement that
  differs only in constants skips the lexer, the parser and the
  analyzer's resolve step: the template binds its constants without
  building a WHERE clause, and they are folded (by value) into the
  resolution cached with the template (see :mod:`repro.sql.analyzer`).
  SELECT, INSERT … VALUES, UPDATE and DELETE have templates; DML never
  enters the exact level.  Keys are textual: a variant in keyword case
  or whitespace is a template of its own.  A template is stored only
  when the parser's literals equal the key's, in source order
  (:func:`make_template`), so a key never stands for a statement it
  would rebind wrongly.

``hits`` counts exact hits and ``misses`` the other SELECTs (prepared
executions included); ``template_hits`` counts SELECT template hits,
``dml_template_hits`` the rest.

Invalidation is per table and by DDL only: exact entries and cached
resolutions record an epoch per referenced table, bumped by CREATE,
SELECT … INTO's replace, INSERT … SELECT's create, a rolled-back batch
and recovery.  INSERT, UPDATE and DELETE bump nothing, as no analysed
artifact reads data: the physical plan is rebuilt from the live catalog
every execution.  Templates are pure syntax and never go stale.

The template level is a bounded LRU map.  The exact level is a
*segmented* LRU, so a stream of one-shot statements cannot flush the
statements that do repeat: a new entry is admitted to a probation
segment and promoted to the protected segment on its first hit.
One-shots age out of probation without ever touching protected entries;
a protected entry squeezed out by a promotion drops back to probation
(most-recent end) and gets a second chance.  Both levels are guarded by
one lock; statements are immutable after publication (a template's
cached resolution is replaced whole), so hits are safe when one
``Database`` is shared by many threads.
"""

from __future__ import annotations

import re
import threading
from collections import OrderedDict

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


def make_template(stmt, literals: tuple):
    """``stmt`` as the template for ``literals``' key, or None.

    A statement stands for its key when its own literals, in source
    order, are exactly the key's: rebinding the key's literals then
    reproduces it.  A statement kind no template stands for (CREATE,
    INSERT … SELECT, SELECT … INTO, EXPLAIN INDEX) is not ``templated``,
    and a construct whose literals travel elsewhere fails the
    comparison, so it simply stays uncached.
    """
    return stmt if stmt.templated and stmt.literals() == literals else None


class PlanCache:
    """Per-database statement cache with per-table epoch invalidation.

    ``enabled=False`` caches nothing: every lookup misses and every
    store is dropped.  The epoch bookkeeping runs either way.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._epochs: dict[str, int] = {}
        # Segmented LRU of the exact level: key -> (statement, epochs);
        # entries enter ``_probation`` and move to ``_protected`` on
        # their first hit.
        self._probation: OrderedDict = OrderedDict()
        self._protected: OrderedDict = OrderedDict()
        self._templates: OrderedDict = OrderedDict()
        self.hits = 0
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
        """True while no table of ``table_epochs`` (from :meth:`epochs_for`)
        has had its epoch bumped.  Reads without the lock: a dict read is
        atomic, and a bump racing it is as if it came just after."""
        epochs = self._epochs
        return all(epochs.get(name, 0) == epoch for name, epoch in table_epochs)

    def invalidate_table(self, name: str) -> None:
        """Bump ``name``'s epoch: every entry referencing it goes stale.

        Called on DDL touching the table: CREATE, SELECT … INTO's
        replace, INSERT … SELECT's create and a rollback's restore.
        Stale exact entries are dropped lazily on their next lookup, a
        stale resolution is redone on its next use; templates (pure
        syntax) survive.
        """
        with self._lock:
            self._epochs[name] = self._epochs.get(name, 0) + 1
            self.invalidations += 1

    def invalidate_all(self, tables) -> None:
        """Bump every given table's epoch and drop all exact entries.

        The recovery hook: after a snapshot restore or WAL replay, any
        statement analysed against the pre-restore catalog — a prepared
        statement's executions included — must be analysed again.
        Templates survive (pure syntax, never stale).
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

    def lookup_exact(self, key):
        """The statement stored under ``key`` while current, or None.

        A stale entry is dropped here.  Does not count misses: the caller
        probes before it knows the statement kind, and an INSERT/CREATE
        probe is not a cache miss; :meth:`count_miss` records real
        (SELECT) misses.
        """
        if not self.enabled:
            return None
        with self._lock:
            protected = self._protected
            segment = protected
            entry = protected.get(key)
            if entry is None:
                segment = self._probation
                entry = segment.get(key)
                if entry is None:
                    return None
            if not self.current(entry[1]):
                del segment[key]
                return None
            if segment is protected:
                protected.move_to_end(key)
            else:
                # First hit: promote; the protected LRU entry it displaces
                # drops back to probation for a second chance.
                del segment[key]
                protected[key] = entry
                if len(protected) > EXACT_CAPACITY:
                    self._admit(*protected.popitem(last=False))
            self.hits += 1
            return entry[0]

    def _admit(self, key, entry: tuple) -> None:
        """Put ``entry`` at the recent end of probation (lock held)."""
        probation = self._probation
        probation[key] = entry
        probation.move_to_end(key)
        while len(probation) > EXACT_CAPACITY:
            probation.popitem(last=False)

    def count_miss(self) -> None:
        """Record one SELECT analysed afresh."""
        with self._lock:
            self.misses += 1

    def store_exact(self, key, stmt, table_epochs: tuple) -> None:
        """Publish an analysed statement under pre-analysis table epochs.

        ``table_epochs`` must be captured (:meth:`epochs_for`) *before*
        the resolve step ran: if DDL lands while the statement
        is being compiled, the entry is then already stale on arrival and
        the next lookup recompiles — capturing after analysis would stamp
        a pre-DDL artifact as current forever.
        """
        if not self.enabled:
            return
        entry = (stmt, table_epochs)
        with self._lock:
            if key in self._protected:
                self._protected[key] = entry
                self._protected.move_to_end(key)
            else:
                self._admit(key, entry)

    # ------------------------------------------------------------------ #
    # Template level
    # ------------------------------------------------------------------ #

    def lookup_template(self, key: str):
        """The template stored under ``key``, or None.  A SELECT hit also
        counts as an exact-level miss: the statement's literals are
        folded afresh."""
        if not self.enabled:
            return None
        with self._lock:
            template = self._templates.get(key)
            if template is not None:
                self._templates.move_to_end(key)
                if template.kind == "select":
                    self.template_hits += 1
                    self.misses += 1
                else:
                    self.dml_template_hits += 1
            return template

    def store_template(self, key: str, template) -> None:
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
                template.kind != "select" for template in self._templates.values()
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
