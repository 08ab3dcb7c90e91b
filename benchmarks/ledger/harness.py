"""Measurement harness of the perf ledger: store, phases, guard.

One *repetition* copies the workload's pristine store twice and drives
(a) the embedded phase — ``Database.execute`` in this process — and
(b) the served phase — a ``python -m repro serve`` child driven by one
sync :class:`repro.client.Client`.  Both are closed loops with one
caller and zero think time, which is how this system is used: a thread
calling ``execute`` and a client waiting for its reply.  Answers are
checked between statements, outside the timed calls, so throughput is
statements over the time the caller spent waiting.
"""

from __future__ import annotations

import gc
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.client import Client
from repro.sql import Database
from repro.storage.table import Column, Relation, Schema

import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"

REPETITIONS = 5
#: Pristine builds per run; ``setup_s`` takes their median.
BUILDS = 3
PIPELINE_WINDOW = 64
STEAL_LIMIT = 0.10
MAX_RETRIES = 2
SERVER_START_TIMEOUT_S = 60.0

SCHEMA = (("k", "int"), ("a", "int"), ("b", "int"), ("tag", "str"))

#: The speed reference.  On this sandbox the CPU runs a fixed kernel
#: 1.0-1.8x slower from one second to the next (neighbours; the steal
#: clock shows a fraction of it), which put a 10-25 % spread on every
#: raw timing.  So a fixed kernel with the program's instruction mix
#: (tuple building, a bytecode loop, a small numpy sort) runs between
#: statements about every ``REFERENCE_EVERY_NS``, and a phase's timings
#: are scaled by ``REFERENCE_NS`` over the kernel's median time in that
#: phase: latencies read "microseconds at reference speed".
REFERENCE_NS = 100_000
REFERENCE_EVERY_NS = 2_000_000
#: Reference samples taken before and after a stretch of set-up work.
SETUP_PROBES = 5
_REFERENCE_VALUES = list(range(1000))
_REFERENCE_ARRAY = np.random.default_rng(0).permutation(4096)


def reference_kernel() -> int:
    """Run the speed reference once; returns the nanoseconds it took."""
    started = time.perf_counter_ns()
    rows = list(zip(_REFERENCE_VALUES, _REFERENCE_VALUES))
    total = 0
    for low, _ in rows:
        total += low
    np.sort(_REFERENCE_ARRAY)
    return time.perf_counter_ns() - started


#: name -> (unit, better).  ``BENCHMARK.json`` carries the same list
#: with the bounds; ``fail_share`` travels as ``failed``/``attempted``.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "emb_p50_us": ("us", "lower"),
    "emb_ops_per_s": ("stmt/s", "higher"),
    "srv_p50_us": ("us", "lower"),
    "srv_ops_per_s": ("stmt/s", "higher"),
    "srv_peak_rss_mb": ("MiB", "lower"),
}


class Guard:
    """Disturbance guard: one-CPU affinity and the steal clock.

    Pins this process (children inherit the mask, threads included) to
    the highest CPU it may use, and reads that CPU's steal column from
    ``/proc/stat``.  Where either is unavailable it degrades to a
    warning and phases are never retried.
    """

    def __init__(self) -> None:
        self.cpu: int | None = None
        self.warnings: list[str] = []
        self.retries = 0
        self._retry_cap = MAX_RETRIES
        try:
            self.cpu = max(os.sched_getaffinity(0))
            os.sched_setaffinity(0, {self.cpu})
        except (AttributeError, OSError) as exc:
            self.cpu = None
            self.warnings.append(f"cpu affinity unavailable: {exc}")
        self._tick = 1.0 / os.sysconf("SC_CLK_TCK")
        if self.steal_seconds() is None:
            self.warnings.append("/proc/stat steal unavailable: no re-runs")

    def steal_seconds(self) -> float | None:
        """Cumulative steal time of the pinned CPU (all CPUs if unpinned)."""
        label = "cpu" if self.cpu is None else f"cpu{self.cpu}"
        try:
            with open("/proc/stat", encoding="ascii") as handle:
                for line in handle:
                    fields = line.split()
                    if fields and fields[0] == label and len(fields) > 8:
                        return int(fields[8]) * self._tick
        except (OSError, ValueError):
            pass
        return None

    def run(self, phase, *args, recorder=None, **kwargs) -> "Phase":
        """Run ``phase``; re-run it while steal exceeds the limit.

        At most ``MAX_RETRIES`` re-runs per pass (see :meth:`begin_pass`),
        so a noisy hour cannot multiply a run's length.  A discarded
        attempt's spans are dropped from ``recorder``.
        """
        if recorder is not None:
            kwargs["recorder"] = recorder
            mark = recorder.mark()
        while True:
            gc.collect()
            result = phase(self, *args, **kwargs)
            if result.steal_share <= STEAL_LIMIT or self.retries >= self._retry_cap:
                return result
            self.retries += 1
            if recorder is not None:
                recorder.rewind(mark)

    def begin_pass(self) -> None:
        """Start a pass (one workload, traced or not) with a fresh retry budget."""
        self._retry_cap = self.retries + MAX_RETRIES


@dataclass
class Phase:
    """What one phase measured."""

    latency_ns: np.ndarray
    #: copy + open (embedded: recover; served: spawn to first hello),
    #: at reference speed and as measured
    setup_s: float
    setup_s_as_measured: float
    open_ns: tuple              # the open alone, as clock readings
    failed: int = 0
    extra_attempted: int = 0    # pipelined statements, recovery checks
    rows_out: int = 0
    steal_share: float = 0.0
    wall_s: float = 0.0
    #: ``REFERENCE_NS`` over the median reference-kernel time in this
    #: phase: above 1 the machine ran faster than nominal.
    speed: float = 1.0
    stats_before: dict = field(default_factory=dict)
    stats_after: dict = field(default_factory=dict)
    peak_rss_mb: float = 0.0
    rss_delta_mb: float = 0.0
    pipelined_us: float = 0.0
    recovery: dict = field(default_factory=dict)
    compression: str | None = None

    @property
    def attempted(self) -> int:
        return len(self.latency_ns) + self.extra_attempted

    @property
    def open_s(self) -> float:
        return (self.open_ns[1] - self.open_ns[0]) / 1e9

    @property
    def scaled_ns(self) -> np.ndarray:
        """Latencies at reference speed (see :func:`reference_kernel`)."""
        return self.latency_ns * self.speed

    @property
    def busy_s(self) -> float:
        """Time the caller spent waiting, at reference speed."""
        return float(self.latency_ns.sum()) * self.speed / 1e9

    def p(self, q: float) -> float:
        """The ``q``-th latency percentile in microseconds, at reference speed."""
        return float(np.percentile(self.latency_ns, q)) * self.speed / 1e3


def at_reference_speed(work) -> tuple:
    """Run ``work()`` between two bursts of the reference kernel.

    Returns ``(result, seconds at reference speed, seconds as measured)``
    — the scaling of a statement loop, for set-up work that has none.
    """
    reference = [reference_kernel() for _ in range(SETUP_PROBES)]
    started = time.perf_counter()
    result = work()
    elapsed = time.perf_counter() - started
    reference += [reference_kernel() for _ in range(SETUP_PROBES)]
    return result, elapsed * REFERENCE_NS / float(np.median(reference)), elapsed


def status_mb(pid, key: str) -> float:
    """``VmRSS``/``VmHWM`` of a process in MiB (0.0 where unreadable)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith(key + ":"):
                    return int(line.split()[1]) / 1024.0
    except (OSError, ValueError):
        pass
    return 0.0


def make_relation(workload) -> Relation:
    """The workload's table ``r``, bulk-loaded from its numpy columns."""
    return Relation.from_columns(
        "r",
        Schema([Column(name, col_type) for name, col_type in SCHEMA]),
        workload.columns,
    )


def build_pristine(workload, directory: Path) -> dict:
    """Load, warm up, checkpoint and close the workload's store."""
    shutil.rmtree(directory, ignore_errors=True)

    def build() -> dict:
        relation = make_relation(workload)
        database = Database(
            cracking=True, mode="vector", concurrent=True, persist_dir=directory
        )
        try:
            database.catalog.create_table(relation)
            for sql in workload.warmup:
                database.execute(sql)
            checkpoint_started = time.perf_counter_ns()
            report = database.checkpoint()
            checkpoint_ended = time.perf_counter_ns()
        finally:
            database.close()
        return {
            "checkpoint_ns": (checkpoint_started, checkpoint_ended),
            "snapshot_bytes": report["snapshot_bytes"],
        }

    report, scaled_s, measured_s = at_reference_speed(build)
    return {**report, "build_s": scaled_s, "build_s_as_measured": measured_s}


def _copy(pristine: Path, target: Path) -> Path:
    shutil.rmtree(target, ignore_errors=True)
    shutil.copytree(pristine, target)
    return target


def _drive(guard: Guard, phase: Phase, workload, count: int, execute, observe=None):
    """The closed loop: time each call, check each answer in between.

    ``observe(index, start_ns, end_ns, result)`` runs untimed after each
    successful statement (the traced pass records its spans there).
    """
    latency = phase.latency_ns
    sql = workload.sql
    clock = time.perf_counter_ns
    steal_before = guard.steal_seconds()
    wall_started = time.perf_counter()
    reference = [reference_kernel()]
    reference_due = clock() + REFERENCE_EVERY_NS
    for index in range(count):
        started = clock()
        try:
            result = execute(sql[index])
        except Exception:   # an error reply or exception is a failed operation
            latency[index] = clock() - started
            phase.failed += 1
            continue
        ended = clock()
        latency[index] = ended - started
        if not workload.check(index, result):
            phase.failed += 1
        phase.rows_out += len(result.rows)
        if observe is not None:
            observe(index, started, ended, result)
        if ended >= reference_due:
            reference.append(reference_kernel())
            reference_due = clock() + REFERENCE_EVERY_NS
    phase.speed = REFERENCE_NS / float(np.median(reference))
    phase.wall_s = time.perf_counter() - wall_started
    if steal_before is not None and phase.wall_s > 0:
        phase.steal_share = (guard.steal_seconds() - steal_before) / phase.wall_s


def embedded_phase(
    guard: Guard, workload, pristine: Path, work: Path,
    trace: bool = False, recorder=None,
) -> Phase:
    """Drive ``Database.execute`` in-process over a copy of the store."""
    rss_before = status_mb("self", "VmRSS")

    def open_copy():
        directory = _copy(pristine, work / "emb")
        started = time.perf_counter_ns()
        database = Database(
            cracking=True, mode="vector", concurrent=True,
            persist_dir=directory,
            checkpoint_statements=workload.checkpoint_statements,
            trace=trace,
        )
        return database, (started, time.perf_counter_ns())

    (database, open_ns), setup_s, setup_raw = at_reference_speed(open_copy)
    count = workload.n_embedded
    phase = Phase(
        latency_ns=np.zeros(count, dtype=np.int64),
        setup_s=setup_s, setup_s_as_measured=setup_raw, open_ns=open_ns,
    )
    try:
        phase.stats_before = database.stats()
        observe = None
        if recorder is not None:
            def observe(index, started, ended, result):
                recorder.statement(
                    index, started, ended, database.last_trace(), result
                )
        _drive(guard, phase, workload, count, database.execute, observe)
        phase.stats_after = database.stats()
        phase.rss_delta_mb = status_mb("self", "VmRSS") - rss_before
    finally:
        database.close()
    return phase


def _wait_listening(process: subprocess.Popen) -> tuple[str, int]:
    """Parse ``host:port`` from the server's announcement line."""
    deadline = time.monotonic() + SERVER_START_TIMEOUT_S
    descriptor = process.stdout.fileno()
    seen = b""
    while time.monotonic() < deadline:
        # Unbuffered reads: a buffered readline could swallow the
        # announcement into Python's buffer and leave select() waiting.
        ready, _, _ = select.select([descriptor], [], [], 0.5)
        if not ready:
            if process.poll() is not None:
                break
            continue
        chunk = os.read(descriptor, 4096)
        if not chunk:
            break
        seen += chunk
        _, marker, tail = seen.partition(b"listening on ")
        if marker and b"\n" in tail:
            host, _, port = tail.split()[0].decode("ascii").rpartition(":")
            return host, int(port)
    raise RuntimeError(f"repro serve did not announce its address: {seen!r}")


def _kill(process: subprocess.Popen) -> None:
    process.send_signal(signal.SIGKILL)
    process.wait()
    process.stdout.close()


def _spawn_server(workload, pristine: Path, directory: Path) -> tuple:
    """Copy the store, start ``repro serve`` on it, connect one client."""
    _copy(pristine, directory)
    command = [
        sys.executable, "-m", "repro", "serve", "--port", "0",
        "--persist-dir", str(directory), "--pool-size", "1",
    ]
    if workload.checkpoint_statements is not None:
        command += ["--checkpoint-statements", str(workload.checkpoint_statements)]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    started = time.perf_counter_ns()
    process = subprocess.Popen(
        command, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
    )
    try:
        host, port = _wait_listening(process)
        client = Client(host, port, reconnect=False)
    except BaseException:
        _kill(process)
        raise
    return process, client, (started, time.perf_counter_ns())


def served_phase(
    guard: Guard, workload, pristine: Path, work: Path,
    pipelined: bool = False, recorder=None,
) -> Phase:
    """Drive one sync Client against a ``repro serve`` child process.

    The child is always ended with SIGKILL (a graceful stop would pay
    for a checkpoint nobody measures); for a workload that mutates, the
    killed store is then reopened and compared with the model at the
    durable statement prefix.
    """
    directory = work / "srv"
    (process, client, open_ns), setup_s, setup_raw = at_reference_speed(
        lambda: _spawn_server(workload, pristine, directory)
    )
    count = workload.n_served
    try:
        phase = Phase(
            latency_ns=np.zeros(count, dtype=np.int64),
            setup_s=setup_s, setup_s_as_measured=setup_raw, open_ns=open_ns,
            compression=client.compression,
        )
        phase.stats_before = client.stats()
        observe = None
        if recorder is not None:
            def observe(index, started, ended, result):
                recorder.add("srv.execute", started, ended, stmt=index)
        _drive(guard, phase, workload, count, client.execute, observe)
        if pipelined and workload.n_pipelined:
            _drive_pipelined(phase, workload, client, recorder)
        phase.stats_after = client.stats()
        phase.peak_rss_mb = status_mb(process.pid, "VmHWM")
    finally:
        client.close()
        _kill(process)
    mutations = sum(kind != "select" for kind in workload.kind[:count])
    if mutations:
        phase.recovery = _verify_recovery(workload, directory, mutations)
        phase.extra_attempted += phase.recovery["attempted"]
        phase.failed += phase.recovery["failed"]
    return phase


def _drive_pipelined(phase: Phase, workload, client, recorder) -> None:
    """The statements after the sequential ones, in ``execute_many`` windows."""
    first = workload.n_served
    last = first + workload.n_pipelined
    busy_ns = 0
    for start in range(first, last, PIPELINE_WINDOW):
        batch = workload.sql[start:min(start + PIPELINE_WINDOW, last)]
        started = time.perf_counter_ns()
        try:
            results = client.execute_many(batch, window=PIPELINE_WINDOW)
        except Exception:
            results = []
        ended = time.perf_counter_ns()
        busy_ns += ended - started
        if recorder is not None:
            recorder.add("srv.execute_many", started, ended, stmt=start)
        for offset in range(len(batch)):
            ok = offset < len(results) and workload.check(
                start + offset, results[offset]
            )
            phase.failed += not ok
    phase.extra_attempted += workload.n_pipelined
    phase.pipelined_us = busy_ns / 1e3 / workload.n_pipelined


def _verify_recovery(workload, directory: Path, acked: int) -> dict:
    """Reopen a SIGKILLed store; it must equal the model at its prefix."""
    database = Database(
        cracking=True, mode="vector", concurrent=True, persist_dir=directory
    )
    try:
        stats = database.persistence_stats()
        durable = int(stats["durable_statements"])
        checks = workloads.replay_model(workload, durable).verification()
        failed = 0
        for sql, expected in checks:
            try:
                rows = [tuple(int(v) for v in row) for row in database.execute(sql).rows]
            except Exception:
                rows = None
            failed += rows != expected
    finally:
        database.close()
    return {
        "attempted": len(checks),
        "failed": failed + (durable > acked),
        "wal_replayed": int(stats["recovery_wal_statements_replayed"]),
        "lost_acked": max(0, acked - durable),
    }


def quartiles(values: list) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def measure_end_to_end(guard: Guard, workload, work: Path, quick: bool) -> dict:
    """Untraced pass: pristine builds, then emb/srv/emb/srv... repetitions.

    Every metric is a median over the repetitions.  For latency and
    throughput the median is taken statement by statement — statement
    ``i`` costs the median of its five timings (each at reference
    speed), and p50 and statements-per-second are read off that one
    vector — so a stall that hits one repetition moves neither.
    Set-up time is scaled the same way from reference bursts around
    each build and open.  ``q1``/``q3`` are the quartiles of the five
    whole-phase values and ``as_measured`` is the same statistic
    without the speed scaling.
    """
    guard.begin_pass()
    pristine = work / "pristine"
    builds = [
        build_pristine(workload, pristine)
        for _ in range(1 if quick else BUILDS)
    ]
    build_s, build_raw = (
        statistics.median(build[key] for build in builds)
        for key in ("build_s", "build_s_as_measured")
    )
    samples: dict[str, list] = {name: [] for name in END_TO_END}
    setup_raw = []
    phases: dict[str, list] = {"emb": [], "srv": []}
    for _ in range(1 if quick else REPETITIONS):
        emb = guard.run(embedded_phase, workload, pristine, work)
        srv = guard.run(served_phase, workload, pristine, work)
        phases["emb"].append(emb)
        phases["srv"].append(srv)
        samples["setup_s"].append(build_s + emb.setup_s + srv.setup_s)
        setup_raw.append(
            build_raw + emb.setup_s_as_measured + srv.setup_s_as_measured
        )
        samples["srv_peak_rss_mb"].append(srv.peak_rss_mb)
        for side, phase in (("emb", emb), ("srv", srv)):
            samples[f"{side}_p50_us"].append(phase.p(50))
            samples[f"{side}_ops_per_s"].append(len(phase.latency_ns) / phase.busy_s)
    metrics = {}
    for name, values in samples.items():
        q1, median, q3 = quartiles(values)
        metrics[name] = {
            "value": median, "unit": END_TO_END[name][0],
            "q1": q1, "q3": q3, "samples": values,
        }
    metrics["setup_s"]["as_measured"] = statistics.median(setup_raw)
    for side, repetitions in phases.items():
        for key, vectors in (
            ("value", [phase.scaled_ns for phase in repetitions]),
            ("as_measured", [phase.latency_ns for phase in repetitions]),
        ):
            per_statement = np.median(np.array(vectors), axis=0)
            metrics[f"{side}_p50_us"][key] = float(np.median(per_statement)) / 1e3
            metrics[f"{side}_ops_per_s"][key] = (
                len(per_statement) / (float(per_statement.sum()) / 1e9)
            )
    everything = phases["emb"] + phases["srv"]
    return {
        "attempted": sum(phase.attempted for phase in everything),
        "failed": sum(phase.failed for phase in everything),
        "metrics": metrics,
        "builds_s": [build["build_s"] for build in builds],
        "speed": [phase.speed for phase in everything],
    }
