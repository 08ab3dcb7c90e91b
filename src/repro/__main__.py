"""Command-line entry point: run the paper's experiments, SQL, or the server.

Usage::

    python -m repro list                 # show available experiments
    python -m repro fig2                 # run one experiment (full size)
    python -m repro all --quick          # all experiments, reduced sizes
    python -m repro sql --mode vector -e "SELECT ..."   # embedded SQL
    python -m repro snapshot ./state     # checkpoint a durable store
    python -m repro restore ./state      # recover + verify a durable store
    python -m repro serve --port 7744 --persist-dir ./state   # SQL server
    python -m repro stats 127.0.0.1:7744   # live server metrics (--raw for
                                           # the Prometheus exposition,
                                           # --watch N to refresh in place)
    python -m repro top 127.0.0.1:7744     # live qps/latency/crack monitor
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments import (
    fig1,
    fig2,
    fig3,
    fig8,
    fig9,
    fig10,
    fig11,
    hiking,
    report,
    sec51,
)

EXPERIMENTS = {
    "fig1": fig1,
    "fig2": fig2,
    "fig3": fig3,
    "fig8": fig8,
    "fig9": fig9,
    "fig10": fig10,
    "fig11": fig11,
    "sec51": sec51,
    "hiking": hiking,
    "report": report,
}


def _print_result(result) -> None:
    """Print one statement result in the shell's pipe-separated form.

    Values go through the wire-safe converter, so the shell renders
    exactly what the network protocol would serialise — numpy scalars
    never leak into either surface.
    """
    from repro.server.protocol import wire_row

    if result.columns:
        print("|".join(result.columns))
        for row in result.rows:
            print("|".join(str(value) for value in wire_row(row)))
    else:
        print(f"ok ({result.affected} rows affected)")


def run_sql(argv: list[str]) -> int:
    """The ``sql`` subcommand: execute statements on an embedded Database.

    Statements come from ``-e`` flags and/or a script file; the execution
    mode (tuple-at-a-time Volcano vs vectorized batches) and cracking are
    selectable so the two pipelines can be compared from the shell.
    """
    from repro.errors import ReproError
    from repro.sql import Database, split_statements

    parser = argparse.ArgumentParser(
        prog="repro sql", description="Run SQL on an embedded cracking database."
    )
    parser.add_argument(
        "--mode", choices=("tuple", "vector"), default="tuple",
        help="executor: Volcano iterators (tuple) or batch pipeline (vector)",
    )
    parser.add_argument(
        "--no-cracking", action="store_true",
        help="disable adaptive cracking (plain scans)",
    )
    parser.add_argument(
        "-e", "--execute", action="append", default=[], metavar="SQL",
        help="statement(s) to run, ';'-separated (repeatable)",
    )
    parser.add_argument(
        "script", nargs="?", help="path to a ';'-separated SQL script file"
    )
    args = parser.parse_args(argv)
    statements: list[str] = []
    for chunk in args.execute:
        statements.extend(split_statements(chunk))
    if args.script:
        try:
            with open(args.script, "r", encoding="utf-8") as handle:
                statements.extend(split_statements(handle.read()))
        except OSError as exc:
            print(f"error: cannot read script {args.script!r}: {exc}", file=sys.stderr)
            return 2
    if not statements:
        parser.error("no SQL given; use -e and/or a script file")
    db = Database(cracking=not args.no_cracking, mode=args.mode)
    for text in statements:
        try:
            result = db.execute(text)
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        _print_result(result)
    return 0


def _open_persistent(args) -> "object":
    """A Database recovered from ``args.persist_dir`` (shared by snapshot/restore)."""
    from repro.sql import Database

    return Database(
        cracking=not getattr(args, "no_cracking", False),
        mode=args.mode,
        persist_dir=args.persist_dir,
    )


def _persistence_parser(
    prog: str, description: str, allow_no_cracking: bool = True
) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog=prog, description=description)
    parser.add_argument("persist_dir", help="durable store directory")
    parser.add_argument(
        "--mode", choices=("tuple", "vector"), default="tuple",
        help="executor mode for the recovered database",
    )
    if allow_no_cracking:
        # Read-only convenience for `restore`; deliberately absent from
        # `snapshot`, whose checkpoint would otherwise compact the store
        # *without* the warm cracker state and sweep the only copy.
        parser.add_argument(
            "--no-cracking", action="store_true",
            help="recover data only; skips warm cracker-index restore",
        )
    return parser


def _print_store_summary(db) -> None:
    stats = db.persistence_stats()
    print(
        f"generation {stats['generation']}  "
        f"durable statements {stats['durable_statements']}  "
        f"wal bytes {stats['wal_bytes']}"
    )
    if stats.get("recovery_torn_tail_discarded"):
        print("note: a torn WAL tail was discarded during recovery")
    for name in db.catalog.table_names():
        relation = db.catalog.table(name)
        deleted = relation.deleted_count
        note = f" (+{deleted} tombstoned)" if deleted else ""
        print(f"  table {name}: {relation.live_count} rows{note}")
    for (table, attr), column in sorted(db.cracked_columns().items()):
        print(f"  cracker {table}.{attr}: {column.piece_count} pieces")


def run_snapshot(argv: list[str]) -> int:
    """The ``snapshot`` subcommand: recover a store and checkpoint it.

    Compacts the WAL tail into a fresh snapshot generation — the
    maintenance operation a deployment runs before shipping a data
    directory or after a burst of writes.
    """
    from repro.errors import ReproError

    parser = _persistence_parser(
        "repro snapshot",
        "Recover a durable store and compact it into a fresh snapshot "
        "generation (catalog + BAT payloads + warm cracker indexes).",
        allow_no_cracking=False,
    )
    args = parser.parse_args(argv)
    try:
        db = _open_persistent(args)
        report = db.checkpoint()
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(
        f"checkpointed generation {report['generation']}: "
        f"{report['tables']} table(s), {report['cracked_columns']} warm "
        f"cracker(s), {report['snapshot_bytes']} bytes "
        f"({report['statements_compacted']} statements compacted)"
    )
    _print_store_summary(db)
    db.close()
    return 0


def run_restore(argv: list[str]) -> int:
    """The ``restore`` subcommand: recover, verify, optionally query.

    Loads the latest snapshot, replays the WAL tail, validates every
    cracker invariant, and prints what came back; ``-e`` runs statements
    against the recovered database (mutations are logged durably again).
    """
    from repro.errors import ReproError
    from repro.sql import split_statements

    parser = _persistence_parser(
        "repro restore",
        "Recover a durable store (snapshot + WAL replay), verify its "
        "invariants and summarise the warm-restarted state.",
    )
    parser.add_argument(
        "-e", "--execute", action="append", default=[], metavar="SQL",
        help="statement(s) to run after recovery, ';'-separated (repeatable)",
    )
    args = parser.parse_args(argv)
    try:
        db = _open_persistent(args)
        db.check_invariants()
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    stats = db.persistence_stats()
    print(
        f"recovered generation {stats['recovery_generation']} "
        f"(snapshot {'loaded' if stats['recovery_snapshot_loaded'] else 'absent'}, "
        f"{stats['recovery_wal_statements_replayed']} WAL statement(s) replayed); "
        "invariants ok"
    )
    _print_store_summary(db)
    for chunk in args.execute:
        for text in split_statements(chunk):
            try:
                result = db.execute(text)
            except ReproError as exc:
                print(f"error: {exc}", file=sys.stderr)
                db.close()
                return 1
            _print_result(result)
    db.close()
    return 0


def _render_stats(stats: dict) -> list[str]:
    """The one-shot STATS summary as lines (shared by stats/--watch)."""
    lines: list[str] = []
    server = stats.get("server", {})
    gateway = stats.get("gateway", {})
    lines.append(
        f"server: {server.get('connections', '?')} connection(s) "
        f"(accepted {server.get('accepted', '?')}, "
        f"refused {server.get('refused', '?')}, "
        f"queue depth {server.get('queue_depth', '?')})"
    )
    threads = f"{gateway.get('pool_size', '?')} worker thread(s)"
    lines.append(
        f"gateway: {'inline' if gateway.get('inline') else threads}, "
        f"{gateway.get('executed', '?')} executed, "
        f"{gateway.get('pending', '?')} pending "
        f"(peak {gateway.get('peak_pending', '?')}), "
        f"{gateway.get('rejected', '?')} rejected, "
        f"{gateway.get('timeouts', '?')} timed out"
    )
    for name, rows in sorted(stats.get("tables", {}).items()):
        lines.append(f"  table {name}: {rows} rows")
    detail = stats.get("cracker_detail", {})
    for name, pieces in sorted(stats.get("crackers", {}).items()):
        info = detail.get(name, {})
        extras = ""
        if info:
            extras = (
                f" ({info.get('cracks', 0)} cracks, "
                f"{info.get('pending_inserts', 0)}+"
                f"{info.get('pending_deletes', 0)}+"
                f"{info.get('pending_updates', 0)} pending i/d/u)"
            )
        lines.append(f"  cracker {name}: {pieces} pieces{extras}")
    convergence = stats.get("convergence", {})
    for name, curve in sorted(convergence.items()):
        if curve.get("last") is None:
            continue
        lines.append(
            f"  profile {name}: cost ratio last {curve['last']:.4f} "
            f"(recent mean {curve['recent_mean']:.4f}, "
            f"{curve['queries']} profiled queries)"
        )
    histograms = stats.get("metrics", {}).get("histograms", {})
    latencies = histograms.get("repro_statement_seconds", {})
    if latencies:
        lines.append("statement latency (ms):")
        for label, snap in sorted(latencies.items()):
            kind = label.partition("=")[2] or label or "all"
            lines.append(
                f"  {kind:<8} n={snap['count']:<6} "
                f"p50={snap['p50'] * 1e3:.3f} "
                f"p95={snap['p95'] * 1e3:.3f} "
                f"p99={snap['p99'] * 1e3:.3f} "
                f"max={snap['max'] * 1e3:.3f}"
            )
    cache = stats.get("plan_cache", {})
    if cache:
        lines.append(
            f"plan cache: {cache.get('hits', 0)} exact hits, "
            f"{cache.get('template_hits', 0)} template hits, "
            f"{cache.get('misses', 0)} misses"
        )
    persistence = stats.get("persistence", {})
    if persistence.get("persistent"):
        lines.append(
            f"persistence: generation {persistence.get('generation')}, "
            f"{persistence.get('durable_statements')} durable statements, "
            f"WAL {persistence.get('wal_bytes')} bytes"
        )
    return lines


def _parse_address(parser: argparse.ArgumentParser, address: str) -> tuple[str, int]:
    host, _, port_text = address.rpartition(":")
    if not host or not port_text.isdigit():
        parser.error(f"address must be host:port, got {address!r}")
    return host, int(port_text)


def run_stats(argv: list[str]) -> int:
    """The ``stats`` subcommand: render a live server's observability surface.

    Fetches the STATS payload (the engine's unified :meth:`Database.stats`
    dict plus gateway/server/session counters) and renders the pieces an
    operator reaches for first: per-statement-kind latency quantiles,
    cracker piece counts, and the admission/backpressure gauges.
    ``--raw`` dumps the Prometheus-style METRICS exposition instead —
    the machine-readable form a scraper would ingest.  ``--watch N``
    refreshes the summary in place every N seconds until Ctrl-C.
    """
    import time

    from repro.client import Client
    from repro.errors import ReproError

    parser = argparse.ArgumentParser(
        prog="repro stats",
        description="Show a running repro server's metrics and latency "
        "histograms (or the raw Prometheus exposition with --raw).",
    )
    parser.add_argument(
        "address", help="server address as host:port (e.g. 127.0.0.1:7744)"
    )
    parser.add_argument(
        "--raw", action="store_true",
        help="print the Prometheus text exposition instead of the summary",
    )
    parser.add_argument(
        "--watch", type=float, default=None, metavar="SECONDS",
        help="refresh the summary in place every this many seconds "
        "(Ctrl-C exits)",
    )
    args = parser.parse_args(argv)
    if args.watch is not None and args.watch <= 0:
        parser.error("--watch needs a positive refresh period")
    if args.watch is not None and args.raw:
        parser.error("--watch renders the summary; it cannot combine with --raw")
    host, port = _parse_address(parser, args.address)
    try:
        with Client(host, port) as client:
            if args.raw:
                print(client.metrics(), end="")
                return 0
            if args.watch is None:
                print("\n".join(_render_stats(client.stats())))
                return 0
            while True:
                body = "\n".join(_render_stats(client.stats()))
                # Clear screen + home, like watch(1): refresh in place.
                sys.stdout.write("\x1b[2J\x1b[H" + body + "\n")
                sys.stdout.flush()
                time.sleep(args.watch)
    except KeyboardInterrupt:
        print()
        return 0
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _render_top(address: str, snapshot: dict) -> str:
    """One ``repro top`` frame from a timeseries snapshot."""
    from repro.obs.timeseries import rates

    samples = snapshot.get("samples", [])
    per_second = rates(samples)
    latest = samples[-1] if samples else {}
    lines = [
        f"repro top — {address}  "
        f"({len(samples)} sample(s), interval {snapshot.get('interval', '?')}s)"
    ]
    lines.append(
        f"qps {per_second.get('statements', 0.0):10.1f}   "
        f"cracks/s {per_second.get('cracks', 0.0):8.1f}   "
        f"tuples moved/s {per_second.get('tuples_moved', 0.0):12.0f}"
    )
    lines.append(
        f"select latency ms  "
        f"p50 {latest.get('select_p50_ms', 0.0):9.3f}  "
        f"p95 {latest.get('select_p95_ms', 0.0):9.3f}  "
        f"p99 {latest.get('select_p99_ms', 0.0):9.3f}"
    )
    lines.append(
        f"connections {latest.get('connections', 0):4.0f}   "
        f"queue depth {latest.get('queue_depth', 0):4.0f}   "
        f"pieces {latest.get('pieces', 0):6.0f}"
    )
    converging = {
        key.partition(":")[2]: value
        for key, value in latest.items()
        if key.startswith("convergence:")
    }
    if converging:
        lines.append("convergence (crack/scan cost ratio, last profiled query):")
        for name, value in sorted(converging.items()):
            lines.append(f"  {name:<24} {value:8.4f}")
    if not samples:
        lines.append("(no samples yet: the server records one per interval)")
    return "\n".join(lines)


def run_top(argv: list[str]) -> int:
    """The ``top`` subcommand: live activity monitor of a serving database.

    Pulls the server's metrics time-series ring (the ``timeseries`` wire
    message) and renders qps, crack activity, latency quantiles, queue
    depth and — when the server runs with ``--profile`` — per-column
    convergence, refreshing in place until Ctrl-C.  ``--once`` prints a
    single frame and exits, for scripts and smoke tests.
    """
    import time

    from repro.client import Client
    from repro.errors import ReproError

    parser = argparse.ArgumentParser(
        prog="repro top",
        description="Live qps/latency/crack-activity monitor of a running "
        "repro server (from its metrics time-series ring).",
    )
    parser.add_argument(
        "address", help="server address as host:port (e.g. 127.0.0.1:7744)"
    )
    parser.add_argument(
        "--interval", type=float, default=2.0, metavar="SECONDS",
        help="refresh period (default 2s; the sampling cadence is the "
        "server's, this only re-fetches)",
    )
    parser.add_argument(
        "--once", action="store_true",
        help="render one frame to stdout and exit (for scripting)",
    )
    args = parser.parse_args(argv)
    if args.interval <= 0:
        parser.error("--interval needs a positive refresh period")
    host, port = _parse_address(parser, args.address)
    try:
        with Client(host, port) as client:
            while True:
                frame = _render_top(args.address, client.timeseries(last=64))
                if args.once:
                    print(frame)
                    return 0
                sys.stdout.write("\x1b[2J\x1b[H" + frame + "\n")
                sys.stdout.flush()
                time.sleep(args.interval)
    except KeyboardInterrupt:
        print()
        return 0
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run_serve(argv: list[str]) -> int:
    """The ``serve`` subcommand: expose a database over TCP.

    Builds the engine (optionally durable via ``--persist-dir``, warm
    restart included), binds the asyncio server and runs until SIGTERM
    or SIGINT, then shuts down gracefully: in-flight statements drain,
    the WAL is flushed and — for persistent stores — a checkpoint is
    written, so the next ``repro serve`` on the same directory restarts
    warm with an empty log tail.
    """
    import asyncio
    import signal

    from repro.core import DEFAULT_CRACK_THRESHOLD
    from repro.errors import ReproError
    from repro.server import ReproServer
    from repro.sql import Database

    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Serve a cracking database to networked clients.",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=7744, help="bind port (0 = pick a free one)"
    )
    parser.add_argument(
        "--mode", choices=("tuple", "vector"), default="vector",
        help="default executor for served statements",
    )
    parser.add_argument(
        "--no-cracking", action="store_true",
        help="disable adaptive cracking (plain scans)",
    )
    parser.add_argument(
        "--no-plan-cache", action="store_true",
        help="disable the two-level statement cache",
    )
    parser.add_argument(
        "--crack-threshold", type=int, default=DEFAULT_CRACK_THRESHOLD,
        help="sort-below-T cut-off: a piece of at most this many tuples is "
        "sorted once and binary-searched instead of cracked "
        "(default %(default)s; 0 = crack unconditionally, the paper's "
        "prototype)",
    )
    parser.add_argument(
        "--persist-dir", default=None,
        help="durable store directory (recovered on start, checkpointed "
        "on shutdown)",
    )
    parser.add_argument(
        "--wal-fsync-every", type=int, default=64,
        help="WAL fsync batching (1 = every statement)",
    )
    parser.add_argument(
        "--checkpoint-statements", type=int, default=None,
        help="auto-checkpoint after this many logged statements",
    )
    parser.add_argument(
        "--checkpoint-wal-bytes", type=int, default=None,
        help="auto-checkpoint once the WAL passes this size",
    )
    parser.add_argument(
        "--max-connections", type=int, default=64,
        help="admission bound on simultaneous connections",
    )
    parser.add_argument(
        "--pool-size", type=int, default=1,
        help="engine worker threads.  1 (the default) runs statements "
        "inline on the event-loop thread: lowest latency, but a long "
        "statement delays every other connection; N>1 runs up to N "
        "statements at once on a thread pool",
    )
    parser.add_argument(
        "--max-pending", type=int, default=64,
        help="global bound on admitted-but-unfinished statements (only "
        "bites on the thread pool; inline statements never queue)",
    )
    parser.add_argument(
        "--statement-timeout", type=float, default=None,
        help="seconds before a statement gets a typed timeout reply "
        "(implies the thread pool, also at --pool-size 1)",
    )
    parser.add_argument(
        "--chunk-bytes", type=int, default=None, metavar="BYTES",
        help="target size of streamed binary result chunks (default 1 MiB)",
    )
    parser.add_argument(
        "--no-compression", action="store_true",
        help="never accept a client's offer of zlib frame compression "
        "(clients offer it only when built with compression=True)",
    )
    parser.add_argument(
        "--pipeline-batch", type=int, default=None, metavar="N",
        help="max pipelined statements folded into one engine trip "
        "(default 128; 1 disables server-side batching)",
    )
    parser.add_argument(
        "--init", default=None, metavar="SCRIPT",
        help="';'-separated SQL script to run before accepting clients",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="enable the per-column workload profiler (crack lineage, "
        "predicate histograms, convergence — see EXPLAIN INDEX, repro top)",
    )
    args = parser.parse_args(argv)
    try:
        database = Database(
            cracking=not args.no_cracking,
            mode=args.mode,
            concurrent=True,
            plan_cache=not args.no_plan_cache,
            crack_threshold=args.crack_threshold,
            profile=args.profile,
            persist_dir=args.persist_dir,
            wal_fsync_every=args.wal_fsync_every,
            checkpoint_statements=args.checkpoint_statements,
            checkpoint_wal_bytes=args.checkpoint_wal_bytes,
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.persist_dir is not None:
        stats = database.persistence_stats()
        print(
            f"recovered generation {stats['recovery_generation']} "
            f"({stats['recovery_wal_statements_replayed']} WAL statement(s) "
            "replayed)"
        )
    if args.init:
        try:
            with open(args.init, "r", encoding="utf-8") as handle:
                executed = database.execute_script(handle.read())
        except (OSError, ReproError) as exc:
            print(f"error: init script failed: {exc}", file=sys.stderr)
            database.close()
            return 1
        print(f"init script ran {executed} statement(s)")

    async def _serve() -> dict:
        extras: dict = {}
        if args.chunk_bytes is not None:
            extras["chunk_bytes"] = args.chunk_bytes
        if args.pipeline_batch is not None:
            extras["pipeline_batch"] = args.pipeline_batch
        server = ReproServer(
            database,
            args.host,
            args.port,
            max_connections=args.max_connections,
            pool_size=args.pool_size,
            max_pending=args.max_pending,
            statement_timeout=args.statement_timeout,
            compression=not args.no_compression,
            **extras,
        )
        await server.start()
        host, port = server.address
        print(f"repro server listening on {host}:{port}", flush=True)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()

        def request_stop() -> None:
            print("shutting down: draining connections...", flush=True)
            stop.set()

        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, request_stop)
        return await server.serve_until(stop)

    report = asyncio.run(_serve())
    line = (
        f"drained {report['connections_drained']} connection(s), "
        f"served {report['accepted']}, refused {report['refused']}"
    )
    if report["checkpoint"] is not None:
        line += (
            f"; checkpointed generation {report['checkpoint']['generation']} "
            f"({report['checkpoint']['statements_compacted']} statements "
            "compacted)"
        )
    print(line)
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help", "list"):
        print("Reproduction of 'Cracking the Database Store' (CIDR 2005).")
        print("Experiments:")
        for name, module in EXPERIMENTS.items():
            first_line = (module.__doc__ or "").strip().splitlines()[0]
            print(f"  {name:<8} {first_line}")
        print("\nRun: python -m repro <experiment> [--quick] [--rows N]")
        print("     python -m repro all [--quick]")
        print("     python -m repro sql [--mode tuple|vector] -e 'SQL...'")
        print("     python -m repro snapshot <persist_dir>")
        print("     python -m repro restore <persist_dir> [-e 'SQL...']")
        print("     python -m repro serve [--port N] [--persist-dir DIR]")
        print("     python -m repro stats <host:port> [--raw] [--watch N]")
        print("     python -m repro top <host:port> [--once] [--interval N]")
        return 0
    target, *rest = argv
    if target == "sql":
        return run_sql(rest)
    if target == "serve":
        return run_serve(rest)
    if target == "top":
        return run_top(rest)
    if target == "stats":
        return run_stats(rest)
    if target == "snapshot":
        return run_snapshot(rest)
    if target == "restore":
        return run_restore(rest)
    if target == "all":
        for name, module in EXPERIMENTS.items():
            print(f"===== {name} =====")
            module.main(rest)
            print()
        return 0
    module = EXPERIMENTS.get(target)
    if module is None:
        print(f"unknown experiment {target!r}; try: python -m repro list")
        return 2
    module.main(rest)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
