#!/usr/bin/env python3
"""Which functions under ``src/repro`` does no shipped path ever enter?

``python tools/reachability.py [--root CHECKOUT]`` runs the shipped surfaces
(:func:`_drive`) with a global trace function in every Python process,
compares the code objects entered with an AST enumeration of every ``def``
under ``src/repro`` and prints each unreached function ``ALLOWLIST`` does
not name; exits 1 if there is one.  ~90 s on 2 vCPUs.
"""

from __future__ import annotations

import argparse
import ast
import os
import signal
import subprocess
import sys
import tempfile
from contextlib import contextmanager, suppress
from pathlib import Path

HERE = Path(__file__).resolve()

#: Kept although the drive never enters them: qualname -> what needs it.
ALLOWLIST: dict[str, str] = {
    "repro.client._statement_mutates": "retry after a lost reply (test_server.py)",
    "repro.core.crack.crack_in_two_swaps": "reference kernel (test_crack_kernels.py)",
    "repro.core.crack.crack_in_two_swaps.<locals>.goes_left": "inside crack_in_two_swaps",
    "repro.core.crack.crack_in_three_via_two": "reference kernel (test_crack_kernels.py)",
    "repro.core.cracker_index.CrackerIndex.boundary_at": "invariant error text, index inspection (test_cracker_index.py)",
    "repro.core.cracker_index.Piece.describes": "invariant error text (test_cracker_index.py)",
    "repro.storage.catalog.Catalog.unregister_fragment": "re-crack a fragment (test_engines.py)",
}

# Put first on PYTHONPATH, so every process of the drive imports it: it
# records (file, first line) of each code object under src/repro entered
# (no line tracing: the trace function returns None), dumping every 0.5 s
# and at exit, as the ledger SIGKILLs its server.  A child started with
# its own env (the ledger sets PYTHONPATH) gets the tracer put back.
SITECUSTOMIZE = r"""
import atexit, os, subprocess, sys, threading, time
_SRC, _HERE = os.environ["REACH_SRC"], os.path.dirname(os.path.abspath(__file__))
_OUT = os.path.join(os.environ["REACH_OUT"], "%d.txt" % os.getpid())
_seen = set()
def _trace(frame, event, arg):
    code = frame.f_code
    if code.co_filename.startswith(_SRC):
        _seen.add((code.co_filename, code.co_firstlineno))
def _dump():
    lines = ["%s:%d" % key for key in list(_seen)]
    with open(_OUT + ".tmp", "w") as handle:
        handle.write("\n".join(lines))
    os.replace(_OUT + ".tmp", _OUT)
def _dump_forever():
    while True:
        time.sleep(0.5)
        _dump()
_popen_init = subprocess.Popen.__init__
def _popen(self, *args, env=None, **kwargs):
    if env is not None:
        path = env.get("PYTHONPATH", "")
        env = {**os.environ, **env, "PYTHONPATH": _HERE + os.pathsep + path}
    _popen_init(self, *args, env=env, **kwargs)
subprocess.Popen.__init__ = _popen
atexit.register(_dump)
threading.Thread(target=_dump_forever, daemon=True).start()
threading.settrace(_trace)
sys.settrace(_trace)
"""


def enumerate_functions(src: Path) -> dict[tuple[str, int], tuple[str, int]]:
    """``{(path, first line): (qualname, lines)}`` for every ``def``; the first
    line is the first decorator's, as ``co_firstlineno`` reports it."""
    found = {}
    for path in sorted((src / "repro").rglob("*.py")):
        parts = path.relative_to(src).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = prefix + child.name
                    first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                    lines = child.end_lineno - first + 1
                    found[(str(path), first)] = (f"{module}.{name}", lines)
                    visit(child, name + ".<locals>.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)
        visit(ast.parse(path.read_text(), str(path)), "")
    return found


# Drive parts that run inside a traced child: ``--part NAME WORK_DIR``.
TABLES = [
    "CREATE TABLE r (k integer, a integer, x float, tag varchar)",
    "CREATE TABLE s (k integer, b integer)",
    "INSERT INTO r VALUES "
    + ", ".join(f"({k}, {(k * 37) % 1009 - 9}, {k / 8 - 3}, 'tag{k % 5}')" for k in range(3000)),
    "INSERT INTO s VALUES " + ", ".join(f"({k}, {k % 97})" for k in range(0, 3000, 2)),
]
STATEMENTS = [
    "DELETE FROM r WHERE k = 7",  # a tombstone before a's first range predicate
    "SELECT count(*) FROM r WHERE a BETWEEN 10 AND 500",
    "SELECT count(*) FROM r WHERE a BETWEEN -5 AND 400",
    "SELECT k, a, tag FROM r WHERE a >= 100 AND a < 140 ORDER BY a DESC, k LIMIT 10",
    "SELECT * FROM r WHERE x > 2.5 AND x <= 40 AND tag = 'tag3' ORDER BY k",
    "SELECT tag, count(*), sum(a), min(x), max(k), avg(a) FROM r WHERE a > 0 GROUP BY tag",
    "SELECT r.k, s.b FROM r, s WHERE r.k = s.k AND s.b < 5 AND r.a > 100 ORDER BY r.k",
    "SELECT count(*) FROM r, s WHERE r.k = s.k AND r.a BETWEEN 0 AND 300",
    "SELECT count(*) FROM r WHERE a > 99.5 AND a <= 400.0",  # float bounds, int column
    "SELECT k, x FROM r WHERE x < 1.5e1 AND k < 1e300",  # exponent literals
    "CREATE TABLE t (k integer, a integer)",
    "INSERT INTO t SELECT k, a FROM r WHERE a < 50",
    "SELECT k, b INTO u FROM s WHERE b BETWEEN 3 AND 9",
    "SELECT count(*) FROM r, s, t WHERE r.k = s.k AND s.k = t.k",
    "SELECT count(*) FROM r x, r y WHERE x.k = y.k AND x.a = y.a AND x.tag <> 'tag1'",
    "UPDATE r SET a = 5, tag = 'new' WHERE k < 20",
    "DELETE FROM r WHERE a > 900",
    "INSERT INTO r VALUES (-1, -2, -0.5, 'neg')",
    "UPDATE r SET x = 1.5 WHERE tag = 'tag2' AND k < 60",
    "SELECT k, b INTO u FROM s WHERE b > 90",  # replaces u
    "SELECT count(*) FROM r WHERE a BETWEEN 10 AND 500",
    "EXPLAIN ANALYZE SELECT count(*) FROM r WHERE a < 100",
    "EXPLAIN INDEX r(a)",
]
PREPARED = "SELECT count(*) FROM r WHERE a BETWEEN 0 AND 10"


def _drive_engine(work: Path) -> None:
    from repro.errors import ReproError
    from repro.sql import Database

    for config in [
        {}, {"cracking": False}, {"plan_cache": False},
        {"crack_threshold": 0, "profile": True, "trace": True, "slow_query_ms": 0.0},
        {"persist_dir": work / "db", "wal_fsync_every": 1, "checkpoint_statements": 25},
    ]:
        db = Database(**config)
        db.execute_script(";".join(TABLES))
        for sql in STATEMENTS:
            db.execute(sql).rows
        prepared = db.prepare(PREPARED)
        for params in [None, (1, 90), (1, 90), (-3, 700)]:
            db.execute_prepared(prepared, params).scalar()
        db.execute_transaction(["INSERT INTO s VALUES (1, 1)", "UPDATE s SET b = 2 WHERE k = 1",
                                "SELECT k, b INTO u FROM s WHERE b > 90"])
        with suppress(ReproError):  # fails on its last statement: rolled back
            db.execute_transaction(["CREATE TABLE w (k int)", "INSERT INTO s VALUES (5, 5)",
                                    "INSERT INTO x VALUES (1)"])
        for bad in ["SELEC 1", "SELECT y FROM r", "SELECT - 1 FROM r", "SELECT k FROM r WHERE a 5"]:
            with suppress(ReproError):
                db.execute(bad)
        db.explain(PREPARED), repr(db.execute("EXPLAIN ANALYZE " + PREPARED)), db.last_trace()
        db.slow_query_log(), db.cracked_columns(), db.stats(), db.check_invariants()
        if db.persistent:
            db.checkpoint(), db.persistence_stats()
        db.close()
    with Database(persist_dir=work / "db") as db:
        db.execute("SELECT count(*) FROM r").scalar()


@contextmanager
def _serving(*flags):
    """Run ``repro serve`` on a free port for the block, yielding (host,
    port); then SIGTERM it, which checkpoints a persistent store."""
    command = [sys.executable, "-m", "repro", "serve", "--port", "0", *flags]
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as process:
        try:
            line = next(line for line in process.stdout if "listening on" in line)
            host, port = line.split()[-1].rsplit(":", 1)
            yield host, int(port)
            process.send_signal(signal.SIGTERM)
            process.communicate(timeout=30)
        finally:
            process.kill()


def _repro(*args) -> None:
    subprocess.run([sys.executable, "-m", "repro", *args], check=True)


def _drive_served(work: Path) -> None:
    from repro.client import Client
    from repro.errors import ReproError

    store = work / "served"
    with _serving("--profile", "--persist-dir", str(store)) as (host, port):
        with Client(host, port) as client:
            for sql in TABLES + STATEMENTS:
                client.execute(sql)
            client.execute_many(STATEMENTS[1:8], window=4)
            prepared = client.prepare(PREPARED)
            prepared.execute((1, 90)), prepared.execute((1, 90)), prepared.close()
            client.begin(), client.execute("INSERT INTO s VALUES (1, 1)"), client.commit()
            client.begin(), client.execute("INSERT INTO s VALUES (2, 2)"), client.abort()
            client.stats(), client.metrics(), client.timeseries(last=5)
            with suppress(ReproError):
                client.execute("SELECT y FROM r")
        with Client(host, port, compression=True) as client:
            client.execute("SELECT k, a, x, tag FROM r").rows
            # 96 000 rows of two integers, past CHUNK_BYTES: a chunked stream.
            client.execute("CREATE TABLE big (k integer, a integer)")
            client.execute("INSERT INTO big SELECT k, a FROM r")
            for _ in range(5):
                client.execute("INSERT INTO big SELECT k, a FROM big")
            client.execute("SELECT k, a FROM big").row_count
        _repro("stats", f"{host}:{port}")
        _repro("stats", f"{host}:{port}", "--raw")
        _repro("top", f"{host}:{port}", "--once")
    _repro("snapshot", str(store))
    _repro("restore", str(store), "-e", "SELECT count(*) FROM r")
    with suppress(subprocess.CalledProcessError):  # refused before it listens
        _repro("serve", "--max-connections", "0")
    # A statement timeout, an --init script, and a refused connection.
    init = work / "init.sql"
    init.write_text(";\n".join(TABLES))
    # --pool-size 1 as the ledger's served child passes it; that child is
    # killed before the tracer's first dump.
    with _serving("--max-connections", "1", "--statement-timeout", "5", "--pool-size", "1",
                  "--no-cracking", "--init", str(init)) as (host, port):
        with Client(host, port) as client:
            client.execute("SELECT count(*) FROM r")
            with suppress(ReproError):  # refused: one connection at most
                Client(host, port, reconnect=False).execute("SELECT count(*) FROM s")


def _drive(root: Path, work: Path) -> list[list[str]]:
    python, tool = sys.executable, str(HERE)
    script = work / "script.sql"
    script.write_text(";\n".join(TABLES + STATEMENTS))
    return [
        [python, "-m", "repro.experiments.report", "--quick", "--out", str(work / "report")],
        [python, "-m", "repro", "all", "--quick"],
        *[[python, str(path)] for path in sorted((root / "examples").glob("*.py"))],
        [python, "-m", "repro", "sql", "-e", ";".join(TABLES + STATEMENTS)],
        [python, "-m", "repro", "sql", "--no-cracking", str(script)],
        [python, tool, "--part", "engine", str(work)],
        [python, tool, "--part", "served", str(work)],
        [python, str(root / "benchmarks" / "ledger" / "run.py"), "--quick"],
    ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--root", type=Path, default=HERE.parent.parent,
                        help="checkout to probe (default: this one)")
    parser.add_argument("--part", nargs=2, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.part:
        {"engine": _drive_engine, "served": _drive_served}[args.part[0]](Path(args.part[1]))
        return 0
    src = (args.root / "src").resolve()
    with tempfile.TemporaryDirectory() as tmp:
        tracer, out, work = (Path(tmp) / name for name in ("tracer", "out", "work"))
        out.mkdir(), work.mkdir(), tracer.mkdir()
        (tracer / "sitecustomize.py").write_text(SITECUSTOMIZE)
        env = {**os.environ, "PYTHONPATH": f"{tracer}{os.pathsep}{src}",
               "REACH_SRC": str(src / "repro"), "REACH_OUT": str(out)}
        failed = []
        for command in _drive(args.root.resolve(), work):
            done = subprocess.run(command, cwd=work, env=env, capture_output=True, text=True)
            if done.returncode != 0:
                failed.append(" ".join(command[1:]))
                print(done.stdout[-2000:], done.stderr[-2000:], file=sys.stderr)
        dumps = [line for dump in out.glob("*.txt") for line in dump.read_text().split()]
        entered = {(path, int(first)) for path, _, first in (s.rpartition(":") for s in dumps)}
    functions = enumerate_functions(src)
    unreached = [functions[key] for key in functions.keys() - entered]
    names = sorted(name for name, _ in unreached)
    missing = [name for name in names if name not in ALLOWLIST]
    print(f"## Reachability: {len(unreached)} of {len(functions)} functions never entered "
          f"({sum(lines for _, lines in unreached)} lines), {len(missing)} not allowlisted")
    stale = sorted(ALLOWLIST.keys() - set(names))
    for title, listed in [("not allowlisted", missing), ("allowlisted but entered", stale),
                          ("drive commands that failed", failed)]:
        if listed:
            print(f"\n{title} ({len(listed)}):", *(f"- {name}" for name in listed), sep="\n")
    return 1 if missing or failed else 0


if __name__ == "__main__":
    sys.exit(main())
