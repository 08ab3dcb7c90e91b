"""User-facing SQL sessions: the :class:`Database` object.

Ties together lexer → parser → analyzer (with cracker extraction) →
planner → Volcano execution over one catalog.  With ``cracking=True`` the
database self-organises: every range query cracks the touched columns.

Example::

    db = Database(cracking=True)
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
from collections import OrderedDict, deque
from contextlib import nullcontext

import numpy as np

from repro.core.cracked_column import DEFAULT_CRACK_THRESHOLD
from repro.errors import PersistError, SQLAnalysisError
from repro.obs import introspect as obs_introspect
from repro.obs import trace as obs_trace
from repro.obs.metrics import MetricsRegistry
from repro.sql.analyzer import AnalyzedDML, AnalyzedQuery, analyze, analyze_dml
from repro.sql.ast_nodes import (
    CreateTableStmt,
    DeleteStmt,
    ExplainIndexStmt,
    InsertSelectStmt,
    InsertValuesStmt,
    SelectStmt,
    UpdateStmt,
)
from repro.sql.lexer import tokenize
from repro.sql.parser import parse
from repro.sql.plan_cache import PlanCache, SelectTemplate, make_template, normalize
from repro.sql.planner import PLAN_MODES, CrackerProvider, build_plan
from repro.storage.catalog import Catalog
from repro.storage.pages import IOTracker
from repro.storage.table import Column, Relation, Schema
from repro.storage.transaction import Transaction
from repro.volcano.operators import Materialize
from repro.volcano.vectorized import VecMaterialize, VecOperator, concat_batches


def split_statements(script: str) -> list[str]:
    """Split a script on ``;`` outside string literals.

    The naive ``str.split(";")`` would cut a varchar literal like
    ``'a;b'`` in half; this walker tracks single-quote state instead.
    Empty fragments are dropped.
    """
    statements: list[str] = []
    buffer: list[str] = []
    in_string = False
    for char in script:
        if char == "'":
            in_string = not in_string
        if char == ";" and not in_string:
            text = "".join(buffer).strip()
            if text:
                statements.append(text)
            buffer = []
        else:
            buffer.append(char)
    text = "".join(buffer).strip()
    if text:
        statements.append(text)
    return statements


#: ``EXPLAIN ANALYZE <stmt>`` prefix, intercepted before lexing — the
#: words are not SQL keywords, so the parser never sees them.
_EXPLAIN_ANALYZE = re.compile(r"^\s*explain\s+analyze\b\s*", re.IGNORECASE)

#: First-keyword-letter → statement kind, for per-kind latency metrics.
#: The grammar has exactly one statement verb per letter, so one char
#: classifies without lexing (SELECT ... INTO still counts as select).
_KIND_BY_CHAR = {
    "s": "select",
    "i": "insert",
    "u": "update",
    "d": "delete",
    "c": "create",
}


def _statement_kind(sql: str) -> str:
    """Cheap per-statement-kind classifier for the metrics hot path."""
    for char in sql:
        if not char.isspace():
            return _KIND_BY_CHAR.get(char.lower(), "other")
    return "other"


def _explain_number(value) -> str:
    """Render one EXPLAIN INDEX detail value (floats abbreviated)."""
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def _column_array(values) -> np.ndarray:
    """One column of row values as an array: a numeric dtype when every
    value has one, else object (varchar, NULLs, mixed types)."""
    try:
        array = np.asarray(values)
    except (ValueError, OverflowError):  # ragged or oversized cells
        array = None
    if array is not None and array.ndim == 1 and array.dtype.kind in "biuf":
        return array
    return np.fromiter(values, dtype=object, count=len(values))


class QueryResult:
    """Column names and data of a completed statement — one result, two faces.

    A result is built from whichever form its producer has, and derives
    the other on first access, cached:

    * ``rows`` — ``list[tuple]``.  Primary for row-native results (COUNT
      pushdown, DML, EXPLAIN, the tuple executor); for a columnar result
      it is built with ``tolist()`` per column on first read, so those
      rows hold plain ``int``/``float``/``str``/``None``, never numpy
      scalars.  (Tuple-mode rows are passed through as the operators
      yield them and may still carry numpy scalars.)
    * ``arrays`` — ``{column name: ndarray}``, object dtype for varchar,
      NULL-bearing and mixed-type columns.  Primary for the vector
      executor and for bulk replies decoded by the client, which are
      never turned into tuples unless ``rows`` is read.

    The result owns its data: no array is a view of cracker or BAT
    storage, so a held result never changes under a later crack, merge
    or update and keeps no storage generation alive.
    """

    def __init__(
        self,
        columns: list[str],
        rows: list[tuple] | None = None,
        affected: int = 0,
        advice: list | None = None,
        arrays: dict[str, np.ndarray] | None = None,
    ) -> None:
        self.columns = columns
        self.affected = affected
        self.advice = [] if advice is None else advice
        self._arrays = arrays
        self._rows = [] if rows is None and arrays is None else rows

    def __repr__(self) -> str:
        return (
            f"QueryResult(columns={self.columns!r}, rows={self.row_count}, "
            f"affected={self.affected})"
        )

    @property
    def rows(self) -> list[tuple]:
        if self._rows is None:
            self._rows = list(
                zip(*[self._arrays[name].tolist() for name in self.columns])
            )
        return self._rows

    @property
    def arrays(self) -> dict[str, np.ndarray]:
        if self._arrays is None:
            cells = list(zip(*self._rows)) or [()] * len(self.columns)
            self._arrays = {
                name: _column_array(values)
                for name, values in zip(self.columns, cells)
            }
        return self._arrays

    @property
    def row_count(self) -> int:
        if self._rows is not None:
            return len(self._rows)
        return len(self._arrays[self.columns[0]]) if self.columns else 0

    def scalar(self):
        """The single value of a 1×1 result (e.g. SELECT count(*) ...)."""
        if self.row_count != 1 or len(self.rows[0]) != 1:
            raise SQLAnalysisError(
                f"scalar() needs a 1x1 result, got {self.row_count} rows"
            )
        return self.rows[0][0]


class Database:
    """An embedded cracking database speaking the SQL subset.

    ``mode`` selects the default executor: ``"tuple"`` runs the Volcano
    iterator pipeline (the traditional-engine baseline), ``"vector"`` the
    batch pipeline that keeps data in numpy arrays end-to-end.  Both modes
    crack, and both return identical result sets; ``execute(sql, mode=...)``
    overrides the default per statement.

    Concurrency: DDL, inserts and all cracker traffic are always locked
    (catalog lock, per-relation write locks, per-column reader–writer
    locks), so concurrent statements never corrupt state.  To share one
    database across threads, additionally pass ``concurrent=True``: range
    answers are then snapshotted before the column lock is released, so a
    crack by one thread cannot shuffle storage underneath another
    thread's in-flight result.  Snapshots are copy-on-demand: the column
    pays a copy only if a crack actually lands while a snapshot is still
    referenced, so converged workloads stay zero-copy either way.

    ``plan_cache`` (default on) caches compiled statements: an exact
    repeat of a SELECT skips lexing, parsing and analysis; a SELECT that
    differs only in literal constants skips parsing (the constants are
    rebound into the cached template).  Entries invalidate per table on
    every mutation (DDL, INSERT, UPDATE, DELETE).  ``prepare`` /
    ``execute_prepared`` expose the parameterised form directly.

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
    the WAL into a fresh snapshot when either trigger fires, and
    :meth:`checkpoint` does so on demand.

    Observability: ``metrics`` (default on) keeps per-statement-kind
    latency histograms and cracker/plan-cache/persistence gauges in
    :attr:`metrics` (a :class:`~repro.obs.metrics.MetricsRegistry`);
    ``metrics=False`` turns even that off.  ``trace=True`` span-traces
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
        cracking: bool = False,
        join_budget: int = 10_000,
        mode: str = "tuple",
        concurrent: bool = False,
        plan_cache: bool = True,
        crack_threshold: int = DEFAULT_CRACK_THRESHOLD,
        persist_dir=None,
        wal_fsync_every: int = 64,
        checkpoint_statements: int | None = None,
        checkpoint_wal_bytes: int | None = None,
        metrics: bool = True,
        trace: bool = False,
        slow_query_ms: float | None = None,
        profile: bool = False,
    ) -> None:
        if mode not in PLAN_MODES:
            raise SQLAnalysisError(
                f"unknown execution mode {mode!r}; have {PLAN_MODES}"
            )
        self.catalog = Catalog()
        self.tracker = IOTracker()
        self.cracking = cracking
        self.join_budget = join_budget
        self.mode = mode
        self.concurrent = concurrent
        self._cracker = (
            CrackerProvider(
                snapshot_results=concurrent,
                crack_threshold=crack_threshold,
                profile=profile,
            )
            if cracking
            else None
        )
        # Index introspection: only meaningful with a cracker to profile.
        self._profile = cracking and profile
        self._statement_counter = itertools.count(1)
        # Always constructed: epoch bookkeeping must run even with the
        # statement cache off, so prepared statements stay validatable.
        self._plan_cache = PlanCache(enabled=plan_cache)
        # Guards catalog mutation (CREATE / DROP / materialise-replace).
        self._catalog_lock = threading.RLock()
        # Serialises mutating statements against multi-statement
        # transactions: execute_transaction holds it for its whole batch,
        # so no foreign mutation can land between a pre-image snapshot
        # and a potential rollback.  Reentrant, so the transaction's own
        # statements pass through.
        self._txn_barrier = threading.RLock()
        # > 0 while execute_transaction is applying its batch: WAL
        # logging and checkpoints are deferred until the batch commits.
        self._in_transaction = 0
        self._closed = False
        # Observability: the registry always exists (disabled registries
        # hand out no-op metrics), per-kind histograms are cached here so
        # the hot path never does a registry lookup.
        self.metrics = MetricsRegistry(enabled=metrics)
        self.metrics.register_collector(self._collect_engine_samples)
        # Exposition HELP text for the collector-produced gauges (they
        # never pass through counter()/gauge(), so describe() is the
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
        self._metrics_on = metrics
        self._trace_statements = trace
        self._slow_query_ms = slow_query_ms
        self._stmt_hists: dict[str, object] = {}
        self._slow_log: deque = deque(maxlen=self.SLOW_LOG_CAPACITY)
        self._slow_lock = threading.Lock()
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
            self._persist.recover_into(self)

    # ------------------------------------------------------------------ #
    # Statement execution
    # ------------------------------------------------------------------ #

    def execute(self, sql: str, mode: str | None = None) -> QueryResult:
        """Compile (or fetch from the plan cache) and run one statement.

        ``mode`` overrides the default executor.  Cache discipline for a
        SELECT: an exact textual repeat reuses its analyzed form outright;
        a literal-only variant rebinds constants into the cached parse
        tree and re-runs only the analyzer; everything else compiles from
        scratch and primes both levels.

        ``EXPLAIN ANALYZE <stmt>`` is intercepted here (the words are
        not SQL keywords): the inner statement runs for real under a
        span trace and the trace comes back as the result rows — see
        :meth:`explain_analyze`.
        """
        # Cheap gate for the rare prefixed form: only statements that
        # could possibly start with EXPLAIN pay the regex.
        head = sql[:1]
        if head == "e" or head == "E" or (head != "" and head.isspace()):
            match = _EXPLAIN_ANALYZE.match(sql)
            if match is not None:
                return self.explain_analyze(sql[match.end():], mode=mode)
        started = time.perf_counter() if self._metrics_on else 0.0
        # With the profiler on, tag this context so lineage events can
        # name the statement that triggered each reorganisation.  The
        # tag is set-only (no reset): every profiled execute overwrites
        # it, and a stale id after an exception is harmless, so the
        # disabled path stays a single branch and the enabled path
        # skips a ContextVar reset per statement.
        if self._profile:
            obs_introspect.set_statement_id(next(self._statement_counter))
        if self._trace_statements or self._slow_query_ms is not None:
            result = self._execute_traced(sql, mode)
        else:
            result = self._compile_and_run(sql, mode)
        if self._metrics_on:
            self._record_statement(sql, time.perf_counter() - started)
        return result

    def _compile_and_run(self, sql: str, mode: str | None) -> QueryResult:
        """The compile pipeline of :meth:`execute` (cache → lex → parse).

        Span instrumentation: each stage is wrapped when a trace is
        active and costs one ContextVar read when not.  The exact-hit
        path stays bare apart from an annotate guard — it is the
        sustained hot path.
        """
        cache = self._plan_cache
        if cache.enabled:
            query = cache.lookup_exact(sql)
            if query is not None:
                if obs_trace.tracing():
                    obs_trace.annotate(plan_cache="exact-hit")
                return self._execute_analyzed(query, mode=mode)
            with obs_trace.span("lex"):
                tokens = tokenize(sql)
            first = tokens[0] if tokens else None
            if first is not None and first.kind == "keyword" and first.value == "select":
                cache.count_miss()
                key, literals = normalize(tokens)
                template = cache.lookup_template(key)
                if template is not None and template.slots == len(literals):
                    if obs_trace.tracing():
                        obs_trace.annotate(plan_cache="template-hit")
                    stmt = template.bind(literals)
                    return self._execute_select(stmt, mode=mode, cache_as=sql)
                if obs_trace.tracing():
                    obs_trace.annotate(plan_cache="miss")
                with obs_trace.span("parse"):
                    stmt = parse(sql, tokens=tokens)
                fresh = make_template(stmt, literals)
                if fresh is not None:
                    cache.store_template(key, fresh)
                    return self._execute_select(stmt, mode=mode, cache_as=sql)
                # Non-templatable SELECTs include SELECT ... INTO, which
                # mutates the catalog and must reach the durable dispatch.
                return self._dispatch_statement(stmt, sql, mode)
            with obs_trace.span("parse"):
                stmt = parse(sql, tokens=tokens)
        else:
            with obs_trace.span("parse"):
                stmt = parse(sql)
        return self._dispatch_statement(stmt, sql, mode)

    def _execute_traced(self, sql: str, mode: str | None) -> QueryResult:
        """Run one statement under a span trace (trace=True / slow log)."""
        root = obs_trace.start_span("statement", kind=_statement_kind(sql))
        result = None
        try:
            with root:
                result = self._compile_and_run(sql, mode)
        finally:
            self._last_trace = root
        if self._slow_query_ms is not None:
            elapsed_ms = root.duration_ms
            if elapsed_ms >= self._slow_query_ms:
                self._record_slow_query(sql, elapsed_ms, root, result)
        return result

    def _record_statement(self, sql: str, elapsed: float) -> None:
        """Observe one completed statement in the per-kind histogram."""
        kind = _statement_kind(sql)
        hist = self._stmt_hists.get(kind)
        if hist is None:
            hist = self.metrics.histogram(
                "repro_statement_seconds", {"kind": kind},
                description="Statement latency in seconds by statement kind",
            )
            self._stmt_hists[kind] = hist
        hist.observe(elapsed)

    def _record_slow_query(
        self, sql: str, elapsed_ms: float, root, result: QueryResult
    ) -> None:
        """Append one structured record to the bounded slow-query log."""
        record = {
            "sql": sql if len(sql) <= 500 else sql[:500] + "...",
            "ms": round(elapsed_ms, 3),
            "kind": _statement_kind(sql),
            "rows": result.row_count,
            "affected": result.affected,
            "spans": [
                {"depth": depth, "name": node.name,
                 "ms": round(node.duration_ms, 3)}
                for depth, node in root.walk()
            ],
            "wall_time": time.time(),
        }
        with self._slow_lock:
            self._slow_log.append(record)
        self.metrics.counter(
            "repro_slow_statements_total",
            description="Statements slower than the slow-query threshold",
        ).inc()

    def _dispatch_statement(
        self, stmt, sql: str, mode: str | None
    ) -> QueryResult:
        """Run one parsed statement; mutations are logged to the WAL.

        Mutations hold the durability guard (exclusive) across execute +
        WAL append.  That serialises persistent mutations against each
        other — WAL order is execution order, so replay cannot invert a
        CREATE/INSERT race — and against checkpoints, which therefore
        never snapshot an executed-but-unlogged statement (replay would
        double-apply it).  The guard is a no-op without persistence;
        SELECTs never take it.
        """
        mutates = (
            isinstance(
                stmt,
                (
                    CreateTableStmt,
                    InsertValuesStmt,
                    InsertSelectStmt,
                    UpdateStmt,
                    DeleteStmt,
                ),
            )
            or (isinstance(stmt, SelectStmt) and stmt.into is not None)
        )
        if (
            mutates
            and self._persist is not None
            and not self._replaying
            and self._persist.closed
        ):
            # Checked before executing: applying the mutation and then
            # failing the WAL append would leave memory diverged from
            # the durable image.
            raise PersistError(
                "database is closed; reopen Database(persist_dir=...) to mutate"
            )
        with self._txn_barrier if mutates else nullcontext():
            with self._durability_guard(mutates):
                if isinstance(stmt, CreateTableStmt):
                    result = self._execute_create(stmt)
                elif isinstance(stmt, InsertValuesStmt):
                    result = self._execute_insert_values(stmt)
                elif isinstance(stmt, InsertSelectStmt):
                    result = self._execute_insert_select(stmt, mode=mode)
                elif isinstance(stmt, UpdateStmt):
                    result = self._execute_update(stmt)
                elif isinstance(stmt, DeleteStmt):
                    result = self._execute_delete(stmt)
                elif isinstance(stmt, ExplainIndexStmt):
                    result = self._explain_index(stmt)
                else:
                    result = self._execute_select(stmt, mode=mode)
                if mutates:
                    self._log_durable(sql)
        if mutates:
            self._maybe_checkpoint()
        return result

    def prepare(self, sql: str) -> "PreparedStatement":
        """Compile a SELECT once for repeated parameterised execution.

        The statement's literal constants become the positional
        parameters, in source order; its literals as written are the
        defaults.  Re-execution skips lexing and parsing entirely and
        memoises analysis per parameter tuple (invalidated by DDL or
        INSERT on any referenced table)::

            stmt = db.prepare("SELECT count(*) FROM r WHERE a BETWEEN 0 AND 10")
            stmt.execute()          # BETWEEN 0 AND 10
            stmt.execute((5, 25))   # BETWEEN 5 AND 25
        """
        tokens = tokenize(sql)
        stmt = parse(sql, tokens=tokens)
        if not isinstance(stmt, SelectStmt):
            raise SQLAnalysisError("only SELECT statements can be prepared")
        if stmt.into is not None:
            raise SQLAnalysisError("SELECT ... INTO cannot be prepared")
        _, literals = normalize(tokens)
        template = make_template(stmt, literals)
        if template is None:
            raise SQLAnalysisError("statement cannot be parameterised")
        analyze(stmt, self.catalog)  # validate names now, not at first execute
        return PreparedStatement(self, sql, template, defaults=literals)

    def execute_prepared(
        self, prepared: "PreparedStatement", params=None, mode: str | None = None
    ) -> QueryResult:
        """Run a prepared statement (``params`` override its literals)."""
        return prepared.execute(params, mode=mode)

    def execute_script(self, script: str) -> int:
        """Run a semicolon-separated script; returns statements executed."""
        executed = 0
        for text in split_statements(script):
            self.execute(text)
            executed += 1
        return executed

    @staticmethod
    def _mutation_target(stmt) -> str | None:
        """The table a statement mutates (None for a pure SELECT)."""
        if isinstance(stmt, CreateTableStmt):
            return stmt.name
        if isinstance(
            stmt, (InsertValuesStmt, InsertSelectStmt, UpdateStmt, DeleteStmt)
        ):
            return stmt.table
        if isinstance(stmt, SelectStmt) and stmt.into is not None:
            return stmt.into
        return None

    def execute_transaction(
        self, statements, mode: str | None = None
    ) -> list[QueryResult]:
        """Apply a batch of statements atomically: all or nothing.

        Every statement is parsed up front (a syntax error aborts before
        any state is touched), then the batch executes under the
        transaction barrier — no foreign mutation can interleave — with
        WAL logging deferred.  If any statement fails, the mutated
        tables are restored to their byte-for-byte pre-image (base BATs
        via :class:`~repro.storage.transaction.Transaction`, catalog
        entries re-attached, crackers of mutated tables dropped so they
        rebuild from the restored base) and nothing reaches the WAL.  On
        success the mutating statements are logged in execution order
        and the usual checkpoint policy runs.

        This is the commit path of the network server's BEGIN/COMMIT
        protocol; it is equally usable embedded::

            db.execute_transaction([
                "CREATE TABLE audit (k integer)",
                "INSERT INTO audit VALUES (1)",
            ])

        Crackers of mutated tables lose their earned piece boundaries on
        *rollback* only (correctness over warmth: they re-crack from the
        restored base storage); a committed transaction keeps all state.

        Atomicity here is about durable state, not read isolation:
        concurrent SELECTs (which never take the transaction barrier)
        can observe the batch mid-application — and, if it then fails,
        data that was rolled back.  Serialising readers against commits
        would need a global read-write lock this engine deliberately
        does not have (the paper leaves updates as future work, §7).
        """
        texts = list(statements)
        parsed = [(sql, parse(sql)) for sql in texts]
        targets: list[str] = []
        for _, stmt in parsed:
            target = self._mutation_target(stmt)
            if target is not None and target not in targets:
                targets.append(target)
        if (
            targets
            and self._persist is not None
            and not self._replaying
            and self._persist.closed
        ):
            raise PersistError(
                "database is closed; reopen Database(persist_dir=...) to mutate"
            )
        with self._txn_barrier:
            with self._durability_guard(bool(targets)):
                undo = Transaction(0)
                pre_relations: dict[str, Relation] = {}
                pre_deleted: dict[str, "np.ndarray"] = {}
                with self._catalog_lock:
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
                    for sql, stmt in parsed:
                        results.append(
                            self._dispatch_statement(stmt, sql, mode)
                        )
                except BaseException:
                    self._rollback_batch(undo, targets, pre_relations, pre_deleted)
                    raise
                finally:
                    self._in_transaction -= 1
                undo.commit()
                if self._persist is not None and not self._replaying:
                    for sql, stmt in parsed:
                        if self._mutation_target(stmt) is not None:
                            self._persist.log_statement(sql)
        if targets:
            self._maybe_checkpoint()
        return results

    def _rollback_batch(
        self,
        undo: Transaction,
        targets: list[str],
        pre_relations: dict[str, Relation],
        pre_deleted: dict[str, "np.ndarray"],
    ) -> None:
        """Undo a failed transaction batch (memory only; nothing was logged).

        The pre-image restore rewrites BAT storage in place, so it runs
        under every affected relation's write lock: a cracker being
        built from the base column (``column_for`` takes the same lock)
        can never snapshot half-restored data.  Lock-free scans racing
        the abort may transiently see aborted rows — the same window
        they already have against in-flight inserts.
        """
        held = []
        try:
            for name in sorted(pre_relations):  # stable order: no deadlocks
                lock = pre_relations[name].write_lock
                lock.acquire()
                held.append(lock)
            undo.rollback()
            for name, relation in pre_relations.items():
                # Restore the tombstone set alongside the BAT pre-images
                # (a DELETE inside the aborted batch only added entries).
                relation.set_deleted_positions(pre_deleted.get(name, ()))
        finally:
            for lock in reversed(held):
                lock.release()
        with self._catalog_lock:
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
        for name in targets:
            self._plan_cache.invalidate_table(name)

    def explain(self, sql: str) -> str:
        """The analyzed normal form and cracker advice for a SELECT."""
        stmt = parse(sql)
        if not isinstance(stmt, SelectStmt):
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

    def explain_analyze(self, sql: str, mode: str | None = None) -> QueryResult:
        """Execute ``sql`` for real under a span trace; return the trace.

        The SQL surface is ``EXPLAIN ANALYZE <stmt>`` (handled by
        :meth:`execute`); this is the programmatic form.  The statement
        is compiled from scratch — the exact plan cache is probed but
        deliberately not used, so the trace always shows the full
        lex → parse → plan-cache → analyze → plan(crack) → gather
        pipeline with real timings.  Side effects are the statement's
        own: an EXPLAIN ANALYZE'd SELECT cracks, an INSERT inserts and
        reaches the WAL.

        Result shape: columns ``(span, ms, detail)``, one row per span
        in depth-first order, names indented two spaces per tree level,
        ``detail`` a ``k=v`` rendering of the span's meta (crack
        counts, cache probes, row counts).
        """
        if not sql.strip():
            raise SQLAnalysisError("EXPLAIN ANALYZE needs a statement")
        root = obs_trace.start_span("statement", kind=_statement_kind(sql))
        with root:
            with obs_trace.span("lex"):
                tokens = tokenize(sql)
            with obs_trace.span("parse"):
                stmt = parse(sql, tokens=tokens)
            if isinstance(stmt, SelectStmt) and stmt.into is None:
                with obs_trace.span("plan_cache") as probe:
                    probe.meta["exact_hit"] = (
                        self._plan_cache.lookup_exact(sql) is not None
                    )
                with obs_trace.span("analyze"):
                    query = analyze(stmt, self.catalog)
                result = self._execute_analyzed(query, mode=mode)
            else:
                result = self._dispatch_statement(stmt, sql, mode)
        root.meta["rows"] = result.row_count
        root.meta["affected"] = result.affected
        self._last_trace = root
        return self._trace_result(root)

    @staticmethod
    def _trace_result(root) -> QueryResult:
        """Render a finished span tree as EXPLAIN ANALYZE result rows."""
        rows = []
        for depth, node in root.walk():
            detail = " ".join(
                f"{key}={value}" for key, value in node.meta.items()
            )
            rows.append(("  " * depth + node.name, node.duration_ms, detail))
        return QueryResult(columns=["span", "ms", "detail"], rows=rows)

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
        with self._slow_lock:
            return list(self._slow_log)

    # ------------------------------------------------------------------ #
    # Individual statement kinds
    # ------------------------------------------------------------------ #

    def _execute_create(self, stmt: CreateTableStmt) -> QueryResult:
        schema = Schema([Column(name, col_type) for name, col_type in stmt.columns])
        with self._catalog_lock:
            self.catalog.create_table(Relation(stmt.name, schema))
        self._plan_cache.invalidate_table(stmt.name)
        return QueryResult(columns=[], rows=[], affected=0)

    def _execute_insert_values(self, stmt: InsertValuesStmt) -> QueryResult:
        relation = self.catalog.table(stmt.table)
        # Atomic oid claim + append + cracker propagation: a cracker
        # created concurrently would otherwise snapshot the base rows
        # *and* receive them again as pending updates.
        with relation.write_lock:
            first_oid = len(relation)
            inserted = relation.insert_many(stmt.rows)
            self._propagate_inserts(stmt.table, relation, first_oid, stmt.rows)
        self._plan_cache.invalidate_table(stmt.table)
        return QueryResult(columns=[], rows=[], affected=inserted)

    def _execute_insert_select(
        self, stmt: InsertSelectStmt, mode: str | None = None
    ) -> QueryResult:
        select_result = self._execute_select(stmt.select, mode=mode)
        with self._catalog_lock:
            if not self.catalog.has_table(stmt.table):
                # Paper's benchmark form: INSERT INTO newR SELECT * FROM R
                # ... creates the target on the fly with the source schema.
                source = self.catalog.table(stmt.select.tables[0].name)
                self.catalog.create_table(Relation(stmt.table, source.schema))
            relation = self.catalog.table(stmt.table)
        with relation.write_lock:
            first_oid = len(relation)
            inserted = relation.insert_many(select_result.rows)
            self._propagate_inserts(
                stmt.table, relation, first_oid, select_result.rows
            )
        self._plan_cache.invalidate_table(stmt.table)
        return QueryResult(columns=[], rows=[], affected=inserted)

    def _dml_match_positions(
        self, relation: Relation, plan: AnalyzedDML
    ) -> np.ndarray:
        """Storage positions of live rows satisfying a DML WHERE clause.

        Evaluated vectorised over the base column arrays — never through
        the cracker (the matcher must see updated values immediately,
        and a DML statement should not crack as a side effect).
        """
        total = len(relation)
        keep = relation.live_mask(total)
        for predicate in plan.selections:
            values = self._dml_column_values(relation, predicate.attr, total)
            if predicate.low is not None:
                keep &= (
                    values >= predicate.low
                    if predicate.low_inclusive
                    else values > predicate.low
                )
            if predicate.high is not None:
                keep &= (
                    values <= predicate.high
                    if predicate.high_inclusive
                    else values < predicate.high
                )
        for residual in plan.residuals:
            values = self._dml_column_values(relation, residual.attr, total)
            keep &= values != residual.value
        return np.flatnonzero(keep)

    @staticmethod
    def _dml_column_values(relation: Relation, attr: str, total: int):
        bat = relation.column(attr)
        if bat.tail_type == "str":
            return np.asarray(bat.tail_values()[:total], dtype=object)
        return bat.tail_array()[:total]

    def _execute_update(self, stmt: UpdateStmt) -> QueryResult:
        plan = analyze_dml(stmt, self.catalog)
        relation = self.catalog.table(plan.table)
        # Atomic match + in-place rewrite + cracker propagation, mirroring
        # the insert path: a cracker created concurrently snapshots either
        # the old or the new values, never a half-applied mix.
        with relation.write_lock:
            positions = self._dml_match_positions(relation, plan)
            if positions.size:
                relation.update_positions(
                    positions,
                    {
                        column: [value] * len(positions)
                        for column, value in plan.assignments
                    },
                )
                if self._cracker is not None:
                    self._cracker.propagate_update(
                        plan.table, positions, dict(plan.assignments)
                    )
        self._plan_cache.invalidate_table(plan.table)
        return QueryResult(columns=[], rows=[], affected=int(positions.size))

    def _execute_delete(self, stmt: DeleteStmt) -> QueryResult:
        plan = analyze_dml(stmt, self.catalog)
        relation = self.catalog.table(plan.table)
        with relation.write_lock:
            positions = self._dml_match_positions(relation, plan)
            affected = relation.delete_positions(positions)
            if affected and self._cracker is not None:
                self._cracker.propagate_delete(plan.table, positions)
        self._plan_cache.invalidate_table(plan.table)
        return QueryResult(columns=[], rows=[], affected=affected)

    def _execute_select(
        self,
        stmt: SelectStmt,
        mode: str | None = None,
        cache_as: str | None = None,
    ) -> QueryResult:
        # Epochs are captured before analysis: a DDL/INSERT racing the
        # compile then leaves the entry already-stale instead of stamping
        # a pre-DDL analysis as current.
        epochs = (
            self._plan_cache.epochs_for(ref.name for ref in stmt.tables)
            if cache_as is not None
            else None
        )
        with obs_trace.span("analyze"):
            query = analyze(stmt, self.catalog)
        if cache_as is not None:
            self._plan_cache.store_exact(cache_as, query, epochs)
        return self._execute_analyzed(query, mode=mode)

    def _execute_analyzed(
        self, query: AnalyzedQuery, mode: str | None = None
    ) -> QueryResult:
        """Plan and run an analyzed SELECT (the per-execution stages).

        The physical plan is rebuilt every time even on cache hits: the
        cracked range answer it embeds is per-execution state, and the
        join planner reads live cardinalities from the catalog.
        """
        with obs_trace.span("plan"):
            plan = build_plan(
                query,
                self.catalog,
                cracker=self._cracker,
                join_budget=self.join_budget,
                tracker=self.tracker,
                mode=mode if mode is not None else self.mode,
            )
        if isinstance(plan, (Materialize, VecMaterialize)):
            relation = plan.run()
            with self._catalog_lock:
                if self.catalog.has_table(relation.name):
                    self.catalog.drop_table(relation.name)
                    if self._cracker is not None:
                        # Crackers of the replaced table index dead storage.
                        self._cracker.drop_table(relation.name)
                self.catalog.create_table(relation)
            self._plan_cache.invalidate_table(relation.name)
            return QueryResult(
                columns=plan.columns, rows=[], affected=len(relation),
                advice=query.advice,
            )
        columns = list(plan.columns)
        with obs_trace.span("gather"):
            if not isinstance(plan, VecOperator):
                return QueryResult(columns, list(plan), advice=query.advice)
            batch = concat_batches(plan)
            # The result owns its data: a column still viewing cracker or
            # BAT storage (the cracked span, a full-scan slice) is copied
            # once here, so a held result cannot be shuffled by the next
            # in-place crack and pins no storage generation.
            arrays = None if batch is None else {
                name: array if array.flags.owndata else array.copy()
                for name, array in zip(columns, batch.arrays)
            }
        # No batch at all is the empty result, which is row-native.
        return QueryResult(columns, arrays=arrays, advice=query.advice)

    # ------------------------------------------------------------------ #
    # Cracker introspection
    # ------------------------------------------------------------------ #

    def piece_count(self, table: str, attr: str) -> int:
        """Pieces administered for ``table.attr`` (1 when uncracked)."""
        if self._cracker is None:
            return 1
        return self._cracker.piece_count(table, attr)

    def cracked_columns(self) -> dict:
        """Snapshot of all cracked columns, keyed by ``(table, attr)``."""
        if self._cracker is None:
            return {}
        return self._cracker.columns()

    def plan_cache_stats(self) -> dict:
        """Hit/miss/invalidation counters of the statement cache."""
        return self._plan_cache.stats()

    _EXPLAIN_INDEX_COLUMNS = ["section", "entry", "detail"]

    def _explain_index(self, stmt: ExplainIndexStmt) -> QueryResult:
        """EXPLAIN INDEX table(col): the cracker index narrated as rows.

        Always returns rows — engines without cracking, columns no query
        has touched and databases without the profiler each get a status
        row saying so instead of an error, so monitoring scripts can
        probe any configuration with the same statement.  Unknown tables
        and columns still raise, like any other statement.
        """
        with self._catalog_lock:
            relation = self.catalog.table(stmt.table)
            if stmt.column not in relation.schema.names():
                raise SQLAnalysisError(
                    f"table {stmt.table!r} has no column {stmt.column!r}"
                )
        rows: list[tuple] = []
        if self._cracker is None:
            rows.append(("index", "status", "cracking off: no cracker index"))
            return QueryResult(columns=list(self._EXPLAIN_INDEX_COLUMNS), rows=rows)
        column = self._cracker.columns().get((stmt.table, stmt.column))
        if column is None:
            rows.append((
                "index", "status",
                "not cracked yet: no range predicate has touched this column",
            ))
            return QueryResult(columns=list(self._EXPLAIN_INDEX_COLUMNS), rows=rows)
        with self._cracker.lock_for(stmt.table, stmt.column).read_locked():
            info = column.observability()
        rows.append(("index", "status", "cracked"))
        for key in sorted(info):
            value = info[key]
            if isinstance(value, dict):
                detail = " ".join(
                    f"{k}={_explain_number(v)}" for k, v in sorted(value.items())
                )
            elif isinstance(value, (list, tuple)):
                detail = " ".join(_explain_number(v) for v in value)
            else:
                detail = _explain_number(value)
            rows.append(("index", key, detail))
        introspection = self._cracker.introspection_for(stmt.table, stmt.column)
        if introspection is None:
            rows.append((
                "profiler", "status",
                "off: enable with Database(profile=True)",
            ))
            return QueryResult(columns=list(self._EXPLAIN_INDEX_COLUMNS), rows=rows)
        snap = introspection.snapshot()
        lineage = snap["lineage"]
        rows.append((
            "lineage", "events",
            f"{lineage['total_events']} total, "
            f"last {len(lineage['events'])} retained "
            f"(capacity {lineage['capacity']})",
        ))
        rows.append((
            "lineage", "op_counts",
            " ".join(
                f"{op}={count}" for op, count in sorted(lineage["op_counts"].items())
            ) or "none",
        ))
        for event in lineage["events"][-16:]:
            if "bounds" in event:
                detail = (
                    f"bounds={event['bounds']} pieces={event['pieces']} "
                    f"moved={event['moved']} stmt={event['statement']}"
                )
            else:
                detail = f"tuples={event['tuples']} stmt={event['statement']}"
            rows.append(("lineage", f"#{event['seq']} {event['op']}", detail))
        workload = snap["workload"]
        rows.append(("workload", "queries", str(workload["queries"])))
        rows.append((
            "workload", "domain",
            f"[{_explain_number(workload['domain'][0])}, "
            f"{_explain_number(workload['domain'][1])}] "
            f"bucket_width={_explain_number(workload['bucket_width'])}",
        ))
        rows.append((
            "workload", "histogram",
            " ".join(str(count) for count in workload["histogram"]),
        ))
        rows.append((
            "workload", "selectivity",
            f"mean={_explain_number(workload['selectivity']['mean'])} "
            f"last={_explain_number(workload['selectivity']['last'])}",
        ))
        hot = workload["hot_range"]
        if hot is not None:
            rows.append((
                "workload", "hot_range",
                f"[{_explain_number(hot['low'])}, "
                f"{_explain_number(hot['high'])}) x{hot['count']}",
            ))
        convergence = snap["convergence"]
        rows.append(("convergence", "queries", str(convergence["queries"])))
        for key in ("last", "recent_mean", "savings"):
            rows.append((
                "convergence", key,
                "n/a" if convergence[key] is None
                else _explain_number(convergence[key]),
            ))
        rows.append((
            "convergence", "cost_totals",
            f"crack={_explain_number(convergence['crack_cost_total'])} "
            f"scan={_explain_number(convergence['scan_cost_total'])}",
        ))
        return QueryResult(columns=list(self._EXPLAIN_INDEX_COLUMNS), rows=rows)

    def stats(self) -> dict:
        """One nested dict unifying every stats surface of the engine.

        This is the canonical introspection entry point (and the engine
        part of the server's STATS payload); the older scattered
        accessors (:meth:`plan_cache_stats`, :meth:`persistence_stats`,
        :meth:`piece_count`) remain as thin views of the same state.

        Keys: ``tables`` (name → live rows), ``crackers`` (``table.attr``
        → piece count), ``cracker_detail`` (per-column crack/pending/
        piece-size accounting),
        ``plan_cache``, ``persistence``, ``metrics`` (the registry
        snapshot with per-statement-kind latency histograms), and the
        profiler surfaces ``workload``/``lineage``/``convergence``
        (``table.attr`` → introspection readout; empty dicts unless
        ``profile=True``).
        """
        with self._catalog_lock:
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
        samples: list[tuple] = []
        for key, value in self._plan_cache.stats().items():
            samples.append((f"repro_plan_cache_{key}", None, value))
        if self._persist is not None:
            store = self._persist.stats()
            for key in ("generation", "durable_statements",
                        "statements_since_checkpoint", "wal_bytes"):
                samples.append((f"repro_{key}", None, store[key]))
        if self._cracker is not None:
            for name, info in self._cracker.observability().items():
                labels = {"column": name}
                samples.extend(
                    (f"repro_cracker_{key}", labels, info[key])
                    for key in (
                        "pieces", "tuples", "cracks", "tuples_touched",
                        "tuples_moved", "queries", "merged_updates",
                        "pending_inserts", "pending_deletes",
                        "pending_updates",
                    )
                )
        return samples

    def check_invariants(self) -> None:
        """Validate every cracked column's piece/coverage invariants.

        Raises :class:`~repro.errors.CrackError` (or a subclass) on the
        first violation; used by the concurrency stress tests to prove
        interleaved cracking left every index consistent.
        """
        if self._cracker is not None:
            self._cracker.check_invariants()

    # ------------------------------------------------------------------ #
    # Durability
    # ------------------------------------------------------------------ #

    @property
    def persistent(self) -> bool:
        """True when this database is backed by a persist_dir store."""
        return self._persist is not None

    def _durability_guard(self, mutates: bool):
        """The store barrier for a mutating statement (no-op otherwise)."""
        if mutates and self._persist is not None and not self._replaying:
            return self._persist.mutation_guard()
        return nullcontext()

    def _log_durable(self, sql: str) -> None:
        """Append one successfully executed mutation to the WAL.

        Deferred while a transaction batch is applying: the batch logs
        its statements itself, only after every one of them succeeded.
        """
        if (
            self._persist is not None
            and not self._replaying
            and not self._in_transaction
        ):
            self._persist.log_statement(sql)

    def _maybe_checkpoint(self) -> None:
        """Run a policy-triggered checkpoint (outside the barrier)."""
        if (
            self._persist is not None
            and not self._replaying
            and not self._in_transaction
        ):
            self._persist.maybe_checkpoint(self)

    def checkpoint(self) -> dict:
        """Force a snapshot generation now; returns the checkpoint report.

        Compacts the WAL into a fresh snapshot covering the catalog,
        every relation's BATs and the complete cracker state (piece
        boundaries, pending updates), so the next open
        restarts warm with an empty log tail.
        """
        if self._persist is None:
            raise PersistError(
                "checkpoint() requires a persistent database "
                "(Database(persist_dir=...))"
            )
        return self._persist.checkpoint(self)

    def persistence_stats(self) -> dict:
        """Durability counters (generation, WAL size, recovery report)."""
        if self._persist is None:
            return {"persistent": False}
        return {"persistent": True, **self._persist.stats()}

    def close(self) -> None:
        """Release durable resources (flush + close the WAL handle).

        Idempotent: server shutdown paths and ``with`` blocks may both
        close the same database; every call after the first is a no-op.
        """
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

    def _propagate_inserts(
        self, table: str, relation, first_oid: int, rows
    ) -> None:
        """Feed inserts to the table's crackers (merge-on-query updates).

        The paper leaves updates as future work (§7); the cracked columns
        implement them as pending areas merged on the next query, so the
        SQL layer never has to drop a cracker index on INSERT.
        """
        if self._cracker is None:
            return
        self._cracker.propagate_insert(table, relation, first_oid, list(rows))


class PreparedStatement:
    """A SELECT compiled once, re-executable with new literal parameters.

    Produced by :meth:`Database.prepare`.  Execution skips the lexer and
    parser always, and skips the analyzer when this exact parameter tuple
    ran before and no referenced table changed since (DDL or INSERT bump
    the table epochs the memo is validated against).  Safe to share
    across threads: the memo is lock-guarded and analyzed queries are
    immutable after publication.
    """

    #: Per-statement analysis memo bound (distinct parameter tuples).
    MEMO_CAPACITY = 128

    def __init__(
        self,
        database: Database,
        sql: str,
        template: "SelectTemplate",
        defaults: tuple,
    ) -> None:
        self.database = database
        self.sql = sql
        self.template = template
        self.defaults = defaults
        self._memo: "OrderedDict[tuple, tuple]" = OrderedDict()
        self._memo_lock = threading.Lock()

    @property
    def parameter_count(self) -> int:
        return self.template.slots

    def execute(self, params=None, mode: str | None = None) -> QueryResult:
        """Run with ``params`` (positional literals; None = as written)."""
        literals = self.defaults if params is None else tuple(params)
        cache = self.database._plan_cache
        memoised = None
        with self._memo_lock:
            entry = self._memo.get(literals)
            if entry is not None:
                query, epochs = entry
                if cache.current(epochs):
                    self._memo.move_to_end(literals)
                    memoised = query
                else:
                    del self._memo[literals]
        if memoised is not None:
            # Execute outside the memo lock: holding it through planning
            # and cracking would serialise every thread sharing this
            # prepared statement.
            return self.database._execute_analyzed(memoised, mode=mode)
        stmt = self.template.bind(literals)
        # Capture before analyzing: a racing DDL/INSERT must leave this
        # memo entry stale, not stamp a pre-DDL analysis as current.
        epochs = cache.epochs_for(ref.name for ref in stmt.tables)
        query = analyze(stmt, self.database.catalog)
        with self._memo_lock:
            self._memo[literals] = (query, epochs)
            self._memo.move_to_end(literals)
            while len(self._memo) > self.MEMO_CAPACITY:
                self._memo.popitem(last=False)
        return self.database._execute_analyzed(query, mode=mode)
