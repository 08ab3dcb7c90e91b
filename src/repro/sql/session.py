"""User-facing SQL sessions: the :class:`Database` object.

Ties together lexer → parser → analyzer (with cracker extraction) →
planner → batch execution over one catalog.  With cracking on (the
default) the database self-organises: every range query cracks the
touched columns.

Example::

    db = Database()
    db.execute("CREATE TABLE r (k integer, a integer)")
    db.execute("INSERT INTO r VALUES (1, 10), (2, 20)")
    result = db.execute("SELECT * FROM r WHERE a BETWEEN 5 AND 15")
    result.rows  # [(1, 10)]
"""

from __future__ import annotations

import itertools
import re
import threading
import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro import governor
from repro.core.cracked_column import DEFAULT_CRACK_THRESHOLD
from repro.errors import BATAlignmentError, PersistError, SQLAnalysisError
from repro.obs import introspect as obs_introspect
from repro.obs import trace as obs_trace
from repro.obs.metrics import MetricsRegistry
from repro.sql.analyzer import analyze
from repro.sql.lexer import STRING, tokenize
from repro.sql.parser import parse
from repro.sql.plan_cache import PlanCache, make_template, template_key
from repro.sql.planner import CrackerProvider
from repro.sql.result import QueryResult
from repro.sql.statements import Statement
from repro.storage.catalog import Catalog
from repro.storage.pages import IOTracker
from repro.storage.table import Relation
from repro.storage.transaction import Transaction


#: One statement: string literals (an unterminated one runs to the end
#: of the script) and any other character but ``;``.
_STATEMENT = re.compile(rf"(?:{STRING}|'[^']*|[^;'])+")


def split_statements(script: str) -> list[str]:
    """Split a script on ``;`` outside string literals.

    The naive ``str.split(";")`` would cut a varchar literal like
    ``'a;b'`` in half.  Empty fragments are dropped.
    """
    return [text for text in map(str.strip, _STATEMENT.findall(script)) if text]


#: ``EXPLAIN ANALYZE <stmt>`` prefix, recognised before lexing — the
#: words are not SQL keywords, so the parser never sees them.
_EXPLAIN_ANALYZE = re.compile(r"^\s*explain\s+analyze\b\s*", re.IGNORECASE)


class Database:
    """An embedded cracking database speaking the SQL subset.

    Statements run on the batch executor, which keeps data in numpy
    arrays end to end.  ``cracking`` (default on) answers range
    selections from cracked columns; ``cracking=False`` scans.  Where
    answers may differ from SQL's (stdlib ``sqlite3``'s) is one table,
    ``DIALECT`` in the test suite's ``oracle.py``.

    ``mode`` accepts only ``"vector"`` and ``concurrent`` any value;
    neither is stored (the tuple executor went, and every database is
    now safe to share).  The perf ledger still passes both; a
    ``[benchmark]`` change to the ledger drops the keywords.

    Concurrency: any database may be shared across threads, and one
    rule holds: statements on one ``Database`` are serializable in lock
    order, and a held answer owns its data.  Every public entry point
    holds one reentrant lock for its whole call, so statements run one
    at a time (under the GIL, parallel statements would gain nothing),
    and a transaction batch is one step in that order.  A result is
    copied out of storage before its statement returns, so a later
    crack or UPDATE never reaches an answer already delivered.

    ``plan_cache`` (default on) caches compiled statements
    (:meth:`compile`): an exact repeat of a SELECT skips lexing, parsing
    and analysis; a SELECT, INSERT … VALUES, UPDATE or DELETE that
    differs only in literal constants skips lexing and parsing (one
    regex split of the text yields its template key and constants), and
    a SELECT, UPDATE or DELETE also skips the analyzer's resolve step:
    its constants are folded into the resolution cached with the
    template.  Keys are the text as written: a case or whitespace
    variant is its own entry.  Analyses go stale per table on DDL only
    (CREATE, SELECT … INTO, a rolled-back batch, recovery); INSERT,
    UPDATE and DELETE leave them current, since every execution plans
    against the live data.  :meth:`prepare` exposes the parameterised
    form directly.  ``plan_cache=False`` caches nothing: every statement
    is lexed, parsed and analysed, and a prepared statement analyses on
    every execution (it still never lexes or parses).

    ``crack_threshold`` T is the cut-off below which cracking stops
    (§3.4.2's cut-off points): a piece of at most T tuples is sorted in
    place the first time a bound lands in it and binary-searched from
    then on, so a converged column performs no cracks and its index stops
    growing.  0 cracks unconditionally (the paper's prototype).  The
    value given at open also applies to columns restored from a
    checkpoint.

    ``persist_dir`` makes the database durable and warm-restartable: a
    :class:`~repro.persist.store.PersistentStore` under that directory
    pairs snapshot generations (catalog, BAT payloads, full cracker
    state) with an append-only statement WAL.  Opening an existing
    directory recovers *snapshot + WAL tail* — including every cracked
    column's piece boundaries, so the cracking burn-in is not re-paid.
    ``wal_fsync_every`` batches WAL fsyncs (1 = every statement);
    ``checkpoint_statements`` / ``checkpoint_wal_bytes`` auto-compact
    the WAL into a fresh snapshot when either trigger fires: the
    triggering statement only captures (copies the state and switches
    to a new WAL) and a writer thread writes the snapshot.
    :meth:`checkpoint` captures and writes inline, and :meth:`close`
    joins the writer.

    Observability: :attr:`metrics` (a
    :class:`~repro.obs.metrics.MetricsRegistry`) always keeps
    per-statement-kind latency histograms and cracker/plan-cache/
    persistence gauges.  ``trace=True`` span-traces
    every statement (:meth:`last_trace` returns the most recent tree);
    ``EXPLAIN ANALYZE <stmt>`` traces one statement regardless and
    returns the tree as result rows.  ``slow_query_ms`` logs every
    statement slower than that threshold — with its span breakdown —
    to :meth:`slow_query_log`.  :meth:`stats` bundles everything into
    one nested dict (the STATS payload of the network server).

    ``profile=True`` (with cracking on) attaches a
    :class:`~repro.obs.introspect.ColumnIntrospection` to every cracked
    column: a bounded live lineage log of each crack/merge decision, a
    predicate-range workload histogram and a cost-model convergence
    curve.  Surfaced by ``EXPLAIN INDEX <table>(<col>)`` and the
    ``workload``/``lineage``/``convergence`` keys of :meth:`stats`;
    off by default (each hook site then costs one attribute check).
    """

    #: Bound on the in-memory slow-query log (oldest entries drop).
    SLOW_LOG_CAPACITY = 256

    def __init__(
        self,
        cracking: bool = True,
        mode: str = "vector",
        concurrent: bool = False,
        plan_cache: bool = True,
        crack_threshold: int = DEFAULT_CRACK_THRESHOLD,
        persist_dir=None,
        wal_fsync_every: int = 64,
        checkpoint_statements: int | None = None,
        checkpoint_wal_bytes: int | None = None,
        trace: bool = False,
        slow_query_ms: float | None = None,
        profile: bool = False,
    ) -> None:
        if mode != "vector":
            raise SQLAnalysisError(
                f"execution mode {mode!r}: the tuple executor was removed; "
                "'vector' is the only mode"
            )
        self.catalog = Catalog()
        self.tracker = IOTracker()
        self.cracking = cracking
        self._cracker = (
            CrackerProvider(
                crack_threshold=crack_threshold,
                profile=profile,
            )
            if cracking
            else None
        )
        # Index introspection: only meaningful with a cracker to profile.
        self._profile = cracking and profile
        self._statement_counter = itertools.count(1)
        # Always constructed: with caching off it still counts.
        self._plan_cache = PlanCache(enabled=plan_cache)
        # The statement lock: every public entry point holds it for the
        # whole call.  Reentrant, so recovery's replay, EXPLAIN ANALYZE
        # and a transaction batch's own statements pass through.
        self._lock = threading.RLock()
        # > 0 while execute_transaction is applying its batch: WAL
        # logging and checkpoints are deferred until the batch commits.
        self._in_transaction = 0
        self._closed = False
        # Observability: per-kind histograms are cached here so the hot
        # path never does a registry lookup.
        self.metrics = MetricsRegistry()
        self.metrics.register_collector(self._collect_engine_samples)
        # Exposition HELP text for the collector-produced gauges (they
        # never pass through counter()/histogram(), so describe() is the
        # only way to attach documentation to them).
        for metric_name, help_text in (
            ("repro_cracker_pieces", "Pieces in the column's cracker index"),
            ("repro_cracker_cracks", "Crack operations performed so far"),
            ("repro_cracker_tuples_moved", "Tuples moved by crack kernels"),
            ("repro_cracker_pending_inserts",
             "Inserted tuples awaiting merge-on-query"),
            ("repro_cracker_pending_deletes",
             "Tombstoned tuples awaiting merge-on-query"),
            ("repro_plan_cache_hits", "Exact plan-cache hits"),
            ("repro_wal_bytes", "Write-ahead log size in bytes"),
        ):
            self.metrics.describe(metric_name, help_text)
        self._traced = trace or slow_query_ms is not None  # every statement
        self._slow_query_ms = slow_query_ms
        self._stmt_hists: dict[str, object] = {}
        self._slow_log: deque = deque(maxlen=self.SLOW_LOG_CAPACITY)
        self._last_trace = None
        # Durability: set up last, so recovery replays through a fully
        # initialised session.  _replaying suppresses re-logging while
        # the WAL tail re-executes.
        self._replaying = False
        self._persist = None
        if persist_dir is not None:
            from repro.persist.store import PersistentStore

            self._persist = PersistentStore(
                persist_dir,
                fsync_every=wal_fsync_every,
                checkpoint_statements=checkpoint_statements,
                checkpoint_wal_bytes=checkpoint_wal_bytes,
            )
            with self._lock:  # taken before the store's, as everywhere
                self._persist.recover_into(self)

    # ------------------------------------------------------------------ #
    # Statement execution
    # ------------------------------------------------------------------ #

    def execute(self, sql: str) -> QueryResult:
        """Compile (or fetch from the plan cache) and run one statement.

        ``EXPLAIN ANALYZE <stmt>`` runs the inner statement for real
        under a span trace and returns the trace as the result rows —
        see :class:`ExplainAnalyze`.
        """
        with self._lock:
            started = time.perf_counter()
            # With the profiler on, tag this context so lineage events
            # can name the statement that triggered each reorganisation.
            # The tag is set-only (no reset): every profiled execute
            # overwrites it, and a stale id after an exception is
            # harmless, so the disabled path stays a single branch and
            # the enabled path skips a ContextVar reset per statement.
            if self._profile:
                obs_introspect.set_statement_id(next(self._statement_counter))
            if self._traced:
                stmt, result = self._execute_traced(sql)
            else:
                stmt = self._compile(sql)
                result = self._run(stmt, sql)
            hist = self._stmt_hists.get(stmt.kind)
            if hist is None:
                hist = self._stmt_hists[stmt.kind] = self.metrics.histogram(
                    "repro_statement_seconds", {"kind": stmt.kind},
                    description="Statement latency in seconds by statement kind",
                )
            hist.observe(time.perf_counter() - started)
            return result

    def compile(self, sql: str) -> Statement:
        """The compiled statement for ``sql``: fetched, rebound or parsed.

        The exact level answers a SELECT that has run before, with its
        analysis; the template level rebinds a statement that differs
        from one seen before only in its literals (the ``lex`` span
        times the key); anything else is lexed and parsed, and a SELECT,
        INSERT … VALUES, UPDATE or DELETE stores its template (see
        :mod:`repro.sql.plan_cache`).  ``EXPLAIN ANALYZE`` is recognised
        after both probes, so a cache hit never pays for it.  A
        SELECT is analysed, and enters the exact level, when it runs:
        resolved once per template (the ``analyze`` span), then its
        literals folded in.
        """
        with self._lock:
            return self._compile(sql)

    def _compile(self, sql: str) -> Statement:
        """:meth:`compile` with the statement lock held."""
        cache = self._plan_cache
        key = None
        if cache.enabled:
            trace = obs_trace.tracing()  # the innermost open span, or None
            stmt = cache.lookup_exact(sql)
            if stmt is not None:
                if trace:
                    trace.meta["plan_cache"] = "exact-hit"
                return stmt
            if trace:
                with obs_trace.span("lex"):
                    key, literals = template_key(sql)
            else:
                key, literals = template_key(sql)
            template = cache.lookup_template(key)
            if template is not None and template.fits(literals):
                if trace:
                    trace.meta["plan_cache"] = "template-hit"
                stmt = template.bind(literals)
                stmt.key = sql
                return stmt
        match = _EXPLAIN_ANALYZE.match(sql)
        if match is not None:
            return ExplainAnalyze(sql[match.end():])
        if key is not None:
            obs_trace.annotate(plan_cache="miss")
        with obs_trace.span("lex"):
            tokens = tokenize(sql)
        with obs_trace.span("parse"):
            stmt = parse(sql, tokens=tokens)
        if key is not None:
            if stmt.kind == "select":
                cache.count_miss()
            if make_template(stmt, literals) is not None:
                # A template is only ever bound, never run: a run stores
                # its analysis on the bound statement, and the template
                # keeps only the resolution its bound statements share.
                cache.store_template(key, stmt)
                stmt = stmt.bind(literals)
                stmt.key = sql
        return stmt

    def _run(self, stmt: Statement, sql: str) -> QueryResult:
        """Execute a compiled statement; ``sql`` is what the WAL logs.

        Runs under the statement lock, so a mutation's execute, WAL
        append and any checkpoint capture it triggers are one step: WAL
        order is execution order, and a capture never holds an
        executed-but-unlogged statement (replay would double-apply it).
        A transaction batch logs and checkpoints once, at its end.  A
        mutation past its deadline (:mod:`repro.governor`) stops here or
        at a later boundary, always before its first write; a SELECT at
        its first crack or scan.
        """
        if not stmt.mutates:
            return stmt.run(self)
        governor.check()
        persist = self._persist
        durable = persist is not None and not self._replaying
        if durable:
            persist.check_open()
        result = stmt.run(self)
        if durable and not self._in_transaction:
            persist.log_statement(sql)
            persist.maybe_checkpoint(self)
        return result

    def _execute_traced(self, sql: str) -> tuple:
        """Compile and run one statement under a span trace (trace=True /
        slow log); returns the statement and its result."""
        root = obs_trace.start_span("statement", kind=None)
        stmt = result = None
        try:
            with root:
                stmt = self._compile(sql)
                root.meta["kind"] = stmt.kind
                result = self._run(stmt, sql)
        finally:
            self._last_trace = root
        if self._slow_query_ms is not None:
            elapsed_ms = root.duration_ms
            if elapsed_ms >= self._slow_query_ms:
                self._record_slow_query(sql, stmt.kind, elapsed_ms, root, result)
        return stmt, result

    def _record_slow_query(
        self, sql: str, kind: str, elapsed_ms: float, root, result: QueryResult
    ) -> None:
        """Append one structured record to the bounded slow-query log."""
        record = {
            "sql": sql if len(sql) <= 500 else sql[:500] + "...",
            "ms": round(elapsed_ms, 3),
            "kind": kind,
            "rows": result.row_count,
            "affected": result.affected,
            "spans": [
                {"depth": depth, "name": node.name,
                 "ms": round(node.duration_ms, 3)}
                for depth, node in root.walk()
            ],
            "wall_time": time.time(),
        }
        self._slow_log.append(record)
        self.metrics.counter(
            "repro_slow_statements_total",
            description="Statements slower than the slow-query threshold",
        ).inc()

    def prepare(self, sql: str) -> "PreparedStatement":
        """Compile a SELECT once for repeated parameterised execution.

        The statement's literal constants become the positional
        parameters, in source order; its literals as written are the
        defaults.  An execution never lexes or parses; its analysis is
        cached per parameter tuple (see :class:`PreparedStatement`)::

            stmt = db.prepare("SELECT count(*) FROM r WHERE a BETWEEN 0 AND 10")
            stmt.execute()          # BETWEEN 0 AND 10
            stmt.execute((5, 25))   # BETWEEN 5 AND 25
        """
        with self._lock:
            stmt = self._compile(sql)
            if stmt.kind != "select":
                raise SQLAnalysisError("only SELECT statements can be prepared")
            key, literals = template_key(sql)
            if make_template(stmt, literals) is None:  # SELECT ... INTO, too
                raise SQLAnalysisError("statement cannot be parameterised")
            if stmt.query is None:
                stmt.analyze(self)  # validate names now, not at first execute
            return PreparedStatement(self, sql, stmt, key, literals)

    def execute_script(self, script: str) -> int:
        """Run a semicolon-separated script; returns statements executed."""
        executed = 0
        for text in split_statements(script):
            self.execute(text)
            executed += 1
        return executed

    def execute_transaction(self, statements) -> list[QueryResult]:
        """Apply a batch of statements atomically: all or nothing.

        Every statement is compiled up front (a syntax error aborts before
        any state is touched), then the batch executes under the
        statement lock, held for the whole batch, with WAL logging
        deferred.  If any statement fails, the mutated tables are
        restored to their byte-for-byte pre-image (base BATs via
        :class:`~repro.storage.transaction.Transaction`, catalog entries
        re-attached, crackers of mutated tables dropped so they rebuild
        from the restored base) and nothing reaches the WAL.  On success
        the mutating statements are logged in execution order and the
        usual checkpoint policy runs.

        This is the commit path of the network server's BEGIN/COMMIT
        protocol; it is equally usable embedded::

            db.execute_transaction([
                "CREATE TABLE audit (k integer)",
                "INSERT INTO audit VALUES (1)",
            ])

        Crackers of mutated tables lose their earned piece boundaries on
        *rollback* only (correctness over warmth: they re-crack from the
        restored base storage); a committed transaction keeps all state.

        The batch is one step in the statement order: a statement on
        another thread sees the state before the batch or after it,
        never part of a batch, and never rows a rollback took back.
        """
        with self._lock:
            batch = [(sql, self._compile(sql)) for sql in statements]
            targets = list(dict.fromkeys(stmt.target for _, stmt in batch if stmt.mutates))
            persist = self._persist
            durable = bool(targets) and persist is not None and not self._replaying
            if durable:
                persist.check_open()
            undo = Transaction(0)
            pre_relations: dict[str, Relation] = {}
            pre_deleted: dict[str, "np.ndarray"] = {}
            for name in targets:
                if self.catalog.has_table(name):
                    relation = self.catalog.table(name)
                    pre_relations[name] = relation
                    # Tombstones live beside the BATs, so the BAT
                    # pre-images alone cannot unwind a DELETE.
                    pre_deleted[name] = relation.deleted_positions()
                    for bat in relation.bats.values():
                        undo.protect(bat)
            results: list[QueryResult] = []
            self._in_transaction += 1
            try:
                for sql, stmt in batch:
                    results.append(self._run(stmt, sql))
            except BaseException:
                self._rollback_batch(undo, targets, pre_relations, pre_deleted)
                raise
            finally:
                self._in_transaction -= 1
            undo.commit()
            if durable:
                for sql, stmt in batch:
                    if stmt.mutates:
                        persist.log_statement(sql)
                persist.maybe_checkpoint(self)
            return results

    def _rollback_batch(
        self,
        undo: Transaction,
        targets: list[str],
        pre_relations: dict[str, Relation],
        pre_deleted: dict[str, "np.ndarray"],
    ) -> None:
        """Undo a failed transaction batch (memory only; nothing was logged)."""
        undo.rollback()
        for name, relation in pre_relations.items():
            # Restore the tombstone set alongside the BAT pre-images
            # (a DELETE inside the aborted batch only added entries).
            relation.set_deleted_positions(pre_deleted.get(name, ()))
        for name in targets:
            pre = pre_relations.get(name)
            current = (
                self.catalog.table(name)
                if self.catalog.has_table(name)
                else None
            )
            if pre is None:
                # Created inside the aborted transaction.
                if current is not None:
                    self.catalog.drop_table(name)
            elif current is not pre:
                # SELECT INTO replaced the relation object mid-batch;
                # re-attach the pre-image object (its BATs were just
                # restored by undo.rollback()).
                if current is not None:
                    self.catalog.drop_table(name)
                self.catalog.create_table(pre)
            if self._cracker is not None:
                # Cracker columns are private copies: restoring the
                # base BATs does not unwind their pending merges, so
                # drop them — they rebuild from the restored base.
                self._cracker.drop_table(name)
            self._plan_cache.invalidate_table(name)

    def explain(self, sql: str) -> str:
        """The analyzed normal form and cracker advice for a SELECT."""
        with self._lock:
            stmt = self._compile(sql)
            if stmt.kind != "select":
                raise SQLAnalysisError("EXPLAIN supports SELECT statements only")
            query = analyze(stmt, self.catalog)
        lines = [
            "tables: " + ", ".join(ref.binding for ref in query.tables),
            "selections: " + (
                "; ".join(p.describe() for p in query.selections) or "(none)"
            ),
            "joins: " + ("; ".join(j.describe() for j in query.joins) or "(none)"),
            "group by: " + (", ".join(query.group_by) or "(none)"),
        ]
        lines.append("cracker advice:")
        for advice in query.advice:
            lines.append(f"  {advice.op}  {advice.params}")
        if not query.advice:
            lines.append("  (none)")
        return "\n".join(lines)

    def last_trace(self):
        """The most recent statement's span tree (``Database(trace=True)``
        or any EXPLAIN ANALYZE), as a :class:`~repro.obs.trace.Span` —
        None before the first traced statement."""
        return self._last_trace

    def slow_query_log(self) -> list[dict]:
        """Structured records of statements over ``slow_query_ms``.

        Newest last, bounded at :data:`SLOW_LOG_CAPACITY` entries; each
        record carries the SQL, elapsed ms, statement kind, row counts
        and the per-span timing breakdown.
        """
        with self._lock:
            return list(self._slow_log)

    # ------------------------------------------------------------------ #
    # Cracker introspection
    # ------------------------------------------------------------------ #

    def piece_count(self, table: str, attr: str) -> int:
        """Pieces administered for ``table.attr`` (1 when uncracked)."""
        if self._cracker is None:
            return 1
        with self._lock:
            return self._cracker.piece_count(table, attr)

    def cracked_columns(self) -> dict:
        """Snapshot of all cracked columns, keyed by ``(table, attr)``."""
        if self._cracker is None:
            return {}
        with self._lock:
            return self._cracker.columns()

    def stats(self) -> dict:
        """One nested dict unifying every stats surface of the engine.

        This is the canonical introspection entry point (and the engine
        part of the server's STATS payload); the older scattered
        accessors (:meth:`persistence_stats`, :meth:`piece_count`)
        remain as thin views of the same state.

        Keys: ``tables`` (name → live rows), ``crackers`` (``table.attr``
        → piece count), ``cracker_detail`` (per-column crack/pending/
        piece-size accounting), ``plan_cache`` (``hits`` and ``misses``
        split every SELECT the cache saw, a prepared execution counting
        as one; ``template_hits``/``dml_template_hits``,
        ``invalidations`` and entry counts), ``persistence``,
        ``metrics`` (the registry snapshot with per-statement-kind
        latency histograms), and the profiler surfaces
        ``workload``/``lineage``/``convergence`` (``table.attr`` →
        introspection readout; empty dicts unless ``profile=True``).
        """
        with self._lock:
            tables = {
                name: len(self.catalog.table(name))
                for name in self.catalog.table_names()
            }
            cracker_detail = (
                self._cracker.observability() if self._cracker is not None else {}
            )
            workload: dict = {}
            lineage: dict = {}
            convergence: dict = {}
            if self._profile and self._cracker is not None:
                for introspection in self._cracker.introspections().values():
                    workload[introspection.name] = introspection.workload()
                    lineage[introspection.name] = introspection.lineage()
                    convergence[introspection.name] = introspection.convergence()
            return {
                "tables": tables,
                "crackers": {
                    name: info["pieces"] for name, info in cracker_detail.items()
                },
                "cracker_detail": cracker_detail,
                "plan_cache": self._plan_cache.stats(),
                "persistence": self.persistence_stats(),
                "metrics": self.metrics.snapshot(),
                "workload": workload,
                "lineage": lineage,
                "convergence": convergence,
            }

    def _collect_engine_samples(self) -> list[tuple]:
        """Registry collector: engine state read on demand at scrape time.

        Covers the state that is cheaper to read than to maintain as
        live metrics: plan-cache counters, WAL/durability gauges and
        per-column cracker gauges (pieces, cracks, pending buffer
        depths).
        """
        with self._lock:
            samples: list[tuple] = []
            for key, value in self._plan_cache.stats().items():
                samples.append((f"repro_plan_cache_{key}", None, value))
            if self._persist is not None:
                store = self._persist.stats()
                for key in ("generation", "durable_generation", "durable_statements",
                            "statements_since_checkpoint", "wal_bytes",
                            "checkpoint_in_flight", "checkpoint_failures"):
                    samples.append((f"repro_{key}", None, int(store[key])))
            if self._cracker is not None:
                for name, info in self._cracker.observability().items():
                    labels = {"column": name}
                    samples.extend(
                        (f"repro_cracker_{key}", labels, info[key])
                        for key in (
                            "pieces", "tuples", "cracks", "pivot_cracks",
                            "tuples_touched", "tuples_moved", "queries", "merged_updates",
                            "pending_inserts", "pending_deletes",
                            "pending_updates",
                        )
                    )
            return samples

    def check_invariants(self) -> None:
        """Validate every relation and every cracked column.

        Raises :class:`~repro.errors.BATAlignmentError` for a relation whose
        column BATs differ in length (a torn insert), :class:`StorageError`
        for a BAT flagged ascending whose tail is not or for tombstones
        that are not ascending, distinct stored positions, else
        :class:`~repro.errors.CrackError` (or a subclass) on the first
        cracker piece/coverage violation; used by the concurrency stress
        tests to prove interleaved statements left every table and index
        consistent.
        """
        with self._lock:
            for name in self.catalog.table_names():
                relation = self.catalog.table(name)
                lengths = {name: len(bat) for name, bat in relation.bats.items()}
                for bat in relation.bats.values():
                    bat.check_invariants()
                if len(set(lengths.values())) > 1:
                    raise BATAlignmentError(
                        f"table {relation.name!r} has columns of unequal length: {lengths}"
                    )
                relation.check_invariants()
            if self._cracker is not None:
                self._cracker.check_invariants()

    # ------------------------------------------------------------------ #
    # Durability
    # ------------------------------------------------------------------ #

    @property
    def persistent(self) -> bool:
        """True when this database is backed by a persist_dir store."""
        return self._persist is not None

    def checkpoint(self) -> dict:
        """Force a snapshot generation now; returns the checkpoint report.

        Compacts the WAL into a fresh snapshot covering the catalog,
        every relation's BATs and the complete cracker state (piece
        boundaries, pending updates), so the next open
        restarts warm with an empty log tail.  Waits for an
        auto-checkpoint still being written first, and raises the error
        of one that failed instead of checkpointing (once); returns when
        ``CURRENT`` names the new generation.
        """
        if self._persist is None:
            raise PersistError(
                "checkpoint() requires a persistent database "
                "(Database(persist_dir=...))"
            )
        with self._lock:
            return self._persist.checkpoint(self)

    def persistence_stats(self) -> dict:
        """Durability counters (generations, checkpoint writer, WAL size,
        recovery report)."""
        if self._persist is None:
            return {"persistent": False}
        return {"persistent": True, **self._persist.stats()}

    def close(self) -> None:
        """Release durable resources (join the checkpoint writer, flush +
        close the WAL handle).

        Idempotent: server shutdown paths and ``with`` blocks may both
        close the same database; every call after the first is a no-op.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if self._persist is not None:
                self._persist.close()

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


@dataclass
class ExplainAnalyze(Statement):
    """``EXPLAIN ANALYZE <stmt>``: run ``stmt`` for real under a span
    trace, and answer with the trace: columns ``(span, ms, detail)``,
    one row per span depth-first, names indented two spaces per level,
    ``detail`` the span's meta as ``k=v``.

    The inner statement compiles from scratch — the exact level is
    probed but not used — so the trace always shows the full lex →
    parse → plan-cache → analyze → plan(crack) → gather pipeline.  Side
    effects are the inner statement's own: a SELECT cracks, an INSERT
    inserts and reaches the WAL.  Not allowed inside a transaction
    batch, whose undo covers only the tables it can see.
    """

    sql: str

    kind = "explain"

    def run(self, db) -> QueryResult:
        sql = self.sql
        if not sql.strip():
            raise SQLAnalysisError("EXPLAIN ANALYZE needs a statement")
        if db._in_transaction:
            raise SQLAnalysisError("EXPLAIN ANALYZE cannot run in a transaction")
        root = obs_trace.start_span("statement", kind=None)
        with root:
            with obs_trace.span("lex"):
                tokens = tokenize(sql)
            with obs_trace.span("parse"):
                stmt = parse(sql, tokens=tokens)
            root.meta["kind"] = stmt.kind
            if stmt.kind == "select" and not stmt.mutates:
                with obs_trace.span("plan_cache") as probe:
                    probe.meta["exact_hit"] = (
                        db._plan_cache.lookup_exact(sql) is not None
                    )
            result = db._run(stmt, sql)
        root.meta["rows"] = result.row_count
        root.meta["affected"] = result.affected
        db._last_trace = root
        rows = [
            ("  " * depth + node.name, node.duration_ms,
             " ".join(f"{key}={value}" for key, value in node.meta.items()))
            for depth, node in root.walk()
        ]
        return QueryResult(columns=["span", "ms", "detail"], rows=rows)


@dataclass(eq=False)
class PreparedStatement:
    """A SELECT compiled once, re-executable with new literal parameters.

    Produced by :meth:`Database.prepare`: the compiled statement, which
    serves as the template its executions bind, and its literals as
    written.  An execution never lexes or parses.  It looks its analysis
    up in the plan cache's exact level under ``(template key,
    parameters)``, where DDL on a referenced table invalidates it like
    any cached SELECT, and on a miss binds the parameters and folds them
    into the template's cached resolution (storing the result).  Each
    execution counts as one SELECT in ``stats()["plan_cache"]``: a
    ``hits`` or a ``misses``.  With the plan cache off every execution
    analyses.  Safe to share across threads.
    """

    database: Database
    sql: str
    template: Statement
    key: str
    defaults: tuple

    @property
    def parameter_count(self) -> int:
        return len(self.defaults)

    def execute(self, params=None) -> QueryResult:
        """Run with ``params`` (positional literals; None = as written)."""
        literals = self.defaults if params is None else tuple(params)
        database = self.database
        cache = database._plan_cache
        with database._lock:
            stmt = cache.lookup_exact((self.key, literals))
            if stmt is None:
                if len(literals) != len(self.defaults):
                    raise SQLAnalysisError(
                        f"statement takes {len(self.defaults)} parameter(s), "
                        f"got {len(literals)}"
                    )
                if not self.template.fits(literals):
                    raise SQLAnalysisError(f"LIMIT takes an integer, got {literals[-1]!r}")
                stmt = self.template.bind(literals)
                if cache.enabled:
                    cache.count_miss()
                    stmt.key = (self.key, literals)
            return database._run(stmt, self.sql)
