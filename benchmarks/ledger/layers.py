"""The traced pass of the perf ledger: spans, self times, layer metrics.

The end-to-end numbers are measured with tracing off.  This pass runs
one extra repetition per workload with the harness's own in-memory
:class:`SpanRecorder` around every call it makes into a layer's public
functions — ``Database.execute`` (whose inner layers come from the span
tree ``Database(trace=True).last_trace()`` already returns),
``Client.execute`` / ``execute_many``, ``Database.checkpoint``, the
``Database(persist_dir=...)`` open, and a *codec replay* that pushes
results through ``encode_frame`` / ``encode_result_frames`` →
``FrameDecoder.feed`` → ``ResultAssembler.feed`` in process.  A layer's
self time is its span minus the part its child spans cover; counts are
``Database.stats()`` / ``Client.stats()`` deltas.  No span is added
inside ``src/``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.server.protocol import (
    SMALL_RESULT_ROWS,
    FrameDecoder,
    ResultAssembler,
    decode_payload,
    encode_frame,
    encode_result_frames,
    result_reply,
)
from repro.sql import Database

import harness

#: Results of the first statements kept for the codec replay.
CODEC_SAMPLE = 64
#: Scan statements timed for ``crack.breakeven_stmt`` before the mean
#: scan cost stands in for the rest (a scan costs the same every time).
SCAN_SAMPLE = 8

#: name -> (unit, better, layer).  Every workload reports every metric;
#: one whose layer the workload never enters reads 0.
PER_LAYER = {
    "lex.self_us": ("us", "lower", "sql.lexer"),
    "parse.self_us": ("us", "lower", "sql.parser"),
    "analyze.self_us": ("us", "lower", "sql.analyzer"),
    "plan_cache.exact_hit_share": ("ratio", "higher", "sql.plan_cache"),
    "plan_cache.template_hit_share": ("ratio", "higher", "sql.plan_cache"),
    "plan_cache.exact_p50_us": ("us", "lower", "sql.plan_cache"),
    "plan_cache.fresh_p50_us": ("us", "lower", "sql.plan_cache"),
    "plan_cache.invalidations": ("count", "lower", "sql.plan_cache"),
    "plan.self_us": ("us", "lower", "sql.planner"),
    "crack.self_us": ("us", "lower", "core.cracked_column"),
    "crack.cracks": ("count", "lower", "core.crack"),
    "crack.tuples_moved": ("count", "lower", "core.crack"),
    "crack.pieces_final": ("count", "lower", "core.cracker_index"),
    "crack.first_stmt_ms": ("ms", "lower", "core.cracked_column"),
    "crack.uniform_burst_s": ("s", "lower", "core.crack"),
    "crack.sequential_burst_s": ("s", "lower", "core.crack"),
    "crack.mean_us_at_16": ("us", "lower", "core.crack"),
    "crack.mean_us_at_256": ("us", "lower", "core.crack"),
    "crack.mean_us_at_1024": ("us", "lower", "core.crack"),
    "crack.breakeven_stmt": ("count", "lower", "core.crack"),
    "merge.self_us": ("us", "lower", "core.cracked_column"),
    "merge.pending_inserts_merged": ("count", "lower", "core.cracked_column"),
    "merge.tombstones_merged": ("count", "lower", "core.cracked_column"),
    "dml.select_p50_us": ("us", "lower", "sql.session"),
    "dml.insert_p50_us": ("us", "lower", "sql.session"),
    "dml.update_p50_us": ("us", "lower", "sql.session"),
    "dml.delete_p50_us": ("us", "lower", "sql.session"),
    "gather.self_us": ("us", "lower", "volcano.vectorized"),
    "gather.share": ("ratio", "lower", "volcano.vectorized"),
    "gather.rows_per_s": ("1/s", "higher", "volcano.vectorized"),
    "session.residual_us": ("us", "lower", "sql.session"),
    "wal.append_us": ("us", "lower", "persist.wal"),
    "wal.fsyncs": ("count", "lower", "persist.wal"),
    "wal.fsync_ms_total": ("ms", "lower", "persist.wal"),
    "wal.bytes_per_user_byte": ("ratio", "lower", "persist.wal"),
    "checkpoint.count": ("count", "lower", "persist.store"),
    "checkpoint.ms_p50": ("ms", "lower", "persist.store"),
    "checkpoint.stall_ms_max": ("ms", "lower", "persist.store"),
    "snapshot.bytes_per_user_byte": ("ratio", "lower", "persist.snapshot"),
    "recover.warm_s": ("s", "lower", "persist.store"),
    "recover.wal_replayed": ("count", "lower", "persist.store"),
    "durability.lost_acked": ("count", "lower", "persist.wal"),
    "proto.request_us": ("us", "lower", "server.protocol"),
    "proto.encode_us": ("us", "lower", "server.protocol"),
    "proto.encode_ns_per_row": ("ns", "lower", "server.protocol"),
    "proto.decode_us": ("us", "lower", "client"),
    "proto.decode_ns_per_row": ("ns", "lower", "client"),
    "proto.bytes_per_row": ("bytes", "lower", "server.protocol"),
    "server.residual_us": ("us", "lower", "server.server"),
    "wire.tax": ("ratio", "lower", "server.server"),
    "server.pipelined_us": ("us", "lower", "server.session"),
    "server.queue_depth_max": ("count", "lower", "server.gateway"),
    "gateway.rejected": ("count", "lower", "server.gateway"),
    "obs.trace_overhead_ratio": ("ratio", "lower", "obs.trace"),
    "trace.self_sum_share": ("ratio", "higher", "obs.trace"),
    "tail.emb_p99_us": ("us", "lower", "process"),
    "tail.srv_p99_us": ("us", "lower", "process"),
    "tail.speed": ("ratio", "higher", "sandbox"),
    "tail.steal_share": ("ratio", "lower", "sandbox"),
    "tail.retries": ("count", "lower", "sandbox"),
    "mem.emb_rss_delta_mb": ("MiB", "lower", "process"),
}

#: Engine span name -> the per-statement self-time metric it feeds.
_SELF_TIME = {
    "lex": "lex.self_us",
    "parse": "parse.self_us",
    "analyze": "analyze.self_us",
    "plan": "plan.self_us",
    "crack": "crack.self_us",
    "pending_merge": "merge.self_us",
    "tombstone_merge": "merge.self_us",
    "gather": "gather.self_us",
    "statement": "session.residual_us",
    "emb.execute": "session.residual_us",
}


class SpanRecorder:
    """In-memory spans: name, start, end, parent, statement id, meta.

    Kept as parallel lists so recording a span is a few appends; written
    out once, as ``trace.json``, when the pass ends.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.stmt: list[int] = []
        self.meta: list[dict | None] = []
        #: statement index -> result, for the codec replay
        self.kept: dict[int, object] = {}

    def add(self, name: str, start: int, end: int, parent: int = -1,
            stmt: int = -1, meta: dict | None = None) -> int:
        name_id = self._name_id.get(name)
        if name_id is None:
            name_id = self._name_id[name] = len(self.names)
            self.names.append(name)
        self.name.append(name_id)
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.stmt.append(stmt)
        self.meta.append(meta)
        return len(self.name) - 1

    def mark(self) -> int:
        return len(self.name)

    def rewind(self, mark: int) -> None:
        """Forget every span added since ``mark`` (a discarded attempt)."""
        for column in (self.name, self.start, self.end, self.parent,
                       self.stmt, self.meta):
            del column[mark:]

    def statement(self, index: int, start: int, end: int, root, result) -> None:
        """One traced ``Database.execute``: our span plus the engine's tree."""
        outer = self.add("emb.execute", start, end, stmt=index)
        if root is not None:
            self._add_tree(root, outer, index)
        if index < CODEC_SAMPLE:
            self.kept[index] = result

    def _add_tree(self, span, parent: int, index: int) -> None:
        own = self.add(
            span.name, span.start_ns, span.start_ns + span.duration_ns,
            parent, index, span.meta or None,
        )
        for child in span.children:
            self._add_tree(child, own, index)

    def spans(self, name: str):
        """``(statement id, duration ns, meta)`` of every span called ``name``."""
        wanted = self._name_id.get(name)
        for i, name_id in enumerate(self.name):
            if name_id == wanted:
                yield self.stmt[i], self.end[i] - self.start[i], self.meta[i] or {}

    def self_ns(self) -> tuple[dict, dict]:
        """(total self time, span count) per span name."""
        duration = np.array(self.end, dtype=np.int64) - np.array(self.start, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        covered = np.zeros(len(duration), dtype=np.int64)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], duration[has_parent])
        self_time = duration - covered
        name = np.array(self.name, dtype=np.int64)
        totals = np.bincount(name, weights=self_time, minlength=len(self.names))
        counts = np.bincount(name, minlength=len(self.names))
        return (
            dict(zip(self.names, totals.tolist())),
            dict(zip(self.names, counts.tolist())),
        )

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({
                "names": self.names, "name": self.name, "start_ns": self.start,
                "end_ns": self.end, "parent": self.parent, "stmt": self.stmt,
            }, handle, separators=(",", ":"))


def codec_replay(recorder: SpanRecorder, workload, compression) -> dict:
    """Push the kept results through the wire codec, in process."""
    clock = time.perf_counter_ns
    request_ns = encode_ns = decode_ns = wire_bytes = rows = 0
    reference = [harness.reference_kernel()]
    for index, result in recorder.kept.items():
        started = clock()
        frame = encode_frame({"type": "query", "sql": workload.sql[index], "mode": None})
        decode_payload(frame[4:])
        encoded = clock()
        if len(result.rows) > SMALL_RESULT_ROWS:
            payload = b"".join(encode_result_frames(result, compression=compression))
        else:
            payload = encode_frame(result_reply(result))
        sent = clock()
        assembler = ResultAssembler()
        reply = None
        for message in FrameDecoder().feed(payload):
            reply = assembler.feed(message)
        decoded = clock()
        if reply is None or len(reply["rows"]) != len(result.rows):
            raise RuntimeError(f"codec replay lost statement {index}'s result")
        recorder.add("codec.request", started, encoded, stmt=index)
        recorder.add("codec.encode", encoded, sent, stmt=index)
        recorder.add("codec.decode", sent, decoded, stmt=index)
        request_ns += encoded - started
        encode_ns += sent - encoded
        decode_ns += decoded - sent
        wire_bytes += len(payload)
        rows += len(result.rows)
        reference.append(harness.reference_kernel())
    speed = harness.REFERENCE_NS / float(np.median(reference))
    sampled = max(1, len(recorder.kept))
    per_row = max(1, rows)
    return {
        "proto.request_us": request_ns * speed / 1e3 / sampled,
        "proto.encode_us": encode_ns * speed / 1e3 / sampled,
        "proto.encode_ns_per_row": encode_ns * speed / per_row,
        "proto.decode_us": decode_ns * speed / 1e3 / sampled,
        "proto.decode_ns_per_row": decode_ns * speed / per_row,
        "proto.bytes_per_row": wire_bytes / per_row,
    }


def breakeven_statement(workload, cracked_ns: np.ndarray) -> int:
    """First uniform-burst query at which cracking has paid for itself.

    1-based index of the first statement where the cumulative cracked
    time drops below the cumulative time of answering the same
    statements with ``Database(cracking=False)`` scans; one past the
    burst when that never happens.
    """
    first, last = workload.marks["uniform"]
    database = Database(cracking=False, mode="vector")
    database.catalog.create_table(harness.make_relation(workload))
    scan_ns = []
    reference = []
    for sql in workload.sql[first:min(last, first + SCAN_SAMPLE)]:
        started = time.perf_counter_ns()
        database.execute(sql)
        scan_ns.append(time.perf_counter_ns() - started)
        reference.append(harness.reference_kernel())
    scan_ns = np.array(scan_ns) * (harness.REFERENCE_NS / float(np.median(reference)))
    scans = np.full(last - first, float(scan_ns.mean()))
    scans[: len(scan_ns)] = scan_ns
    ahead = np.flatnonzero(np.cumsum(cracked_ns[first:last]) < np.cumsum(scans))
    return int(ahead[0]) + 1 if ahead.size else last - first + 1


def _p50_us(latency_ns: np.ndarray, mask) -> float:
    picked = latency_ns[mask]
    return float(np.percentile(picked, 50)) / 1e3 if picked.size else 0.0


def _cracker_totals(stats: dict) -> dict:
    totals = {"cracks": 0, "tuples_moved": 0, "pieces": 0}
    for info in stats.get("cracker_detail", {}).values():
        for key in totals:
            totals[key] += info[key]
    return totals


def measure_layers(guard, workload, work: Path, trace_path: Path | None) -> dict:
    """Traced pass: one plain, one traced and one served repetition.

    Times taken inside a phase's statement loop are at reference speed
    (scaled by that phase's ``speed``, like the end-to-end metrics);
    times outside one — build, open, checkpoint — are as measured.
    """
    recorder = SpanRecorder()
    guard.begin_pass()
    retries_before = guard.retries
    pristine = work / "pristine"
    build = harness.build_pristine(workload, pristine)
    recorder.add("Database.checkpoint", *build["checkpoint_ns"])

    plain = guard.run(harness.embedded_phase, workload, pristine, work)
    traced = guard.run(
        harness.embedded_phase, workload, pristine, work,
        trace=True, recorder=recorder,
    )
    served = guard.run(
        harness.served_phase, workload, pristine, work,
        pipelined=True, recorder=recorder,
    )
    phases = (plain, traced, served)
    recorder.add("Database.open", *traced.open_ns)
    recorder.add("serve.spawn_to_hello", *served.open_ns)

    n = workload.n_embedded
    latency = plain.scaled_ns
    kinds = np.array(workload.kind[:n])
    totals, counts = recorder.self_ns()
    totals = {name: ns * traced.speed for name, ns in totals.items()}
    metrics = dict.fromkeys(PER_LAYER, 0.0)

    # Self time per statement, by layer; together they must account for
    # the traced statement time.
    for span_name, metric in _SELF_TIME.items():
        metrics[metric] += totals.get(span_name, 0.0) / 1e3 / n
    wal_ns = totals.get("wal_append", 0.0) + totals.get("wal_fsync", 0.0)
    named_ns = sum(totals.get(name, 0.0) for name in _SELF_TIME)
    named_ns += wal_ns + totals.get("checkpoint", 0.0)
    traced_ns = float(traced.scaled_ns.sum())
    metrics["trace.self_sum_share"] = named_ns / traced_ns
    metrics["obs.trace_overhead_ratio"] = traced_ns / float(latency.sum())

    cache_before, cache_after = (
        phase["plan_cache"] for phase in (plain.stats_before, plain.stats_after)
    )
    hits = cache_after["hits"] - cache_before["hits"]
    selects = hits + cache_after["misses"] - cache_before["misses"]
    if selects:
        metrics["plan_cache.exact_hit_share"] = hits / selects
        metrics["plan_cache.template_hit_share"] = (
            cache_after["template_hits"] - cache_before["template_hits"]
        ) / selects
    metrics["plan_cache.invalidations"] = (
        cache_after["invalidations"] - cache_before["invalidations"]
    )
    exact = np.zeros(n, dtype=bool)
    for index, _, meta in recorder.spans("statement"):
        exact[index] = meta.get("plan_cache") == "exact-hit"
    metrics["plan_cache.exact_p50_us"] = _p50_us(latency, exact)
    metrics["plan_cache.fresh_p50_us"] = _p50_us(
        latency, ~exact & (kinds == "select")
    )

    before, after = (
        _cracker_totals(stats) for stats in (plain.stats_before, plain.stats_after)
    )
    metrics["crack.cracks"] = after["cracks"] - before["cracks"]
    metrics["crack.tuples_moved"] = after["tuples_moved"] - before["tuples_moved"]
    metrics["crack.pieces_final"] = after["pieces"]
    metrics["crack.first_stmt_ms"] = float(latency[0]) / 1e6
    for size in (16, 256, 1024):
        if n >= size:
            metrics[f"crack.mean_us_at_{size}"] = (
                float(latency[size // 2:size].mean()) / 1e3
            )
    for mark in ("uniform", "sequential"):
        if mark in workload.marks:
            first, last = workload.marks[mark]
            metrics[f"crack.{mark}_burst_s"] = float(latency[first:last].sum()) / 1e9
    if "uniform" in workload.marks:
        metrics["crack.breakeven_stmt"] = breakeven_statement(workload, latency)

    for _, _, meta in recorder.spans("pending_merge"):
        metrics["merge.pending_inserts_merged"] += meta.get("inserts", 0)
        metrics["merge.tombstones_merged"] += (
            meta.get("deletes", 0) + meta.get("updates", 0)
        )
    for kind in ("select", "insert", "update", "delete"):
        metrics[f"dml.{kind}_p50_us"] = _p50_us(latency, kinds == kind)

    gather_ns = totals.get("gather", 0.0)
    metrics["gather.share"] = gather_ns / traced_ns
    if gather_ns:
        metrics["gather.rows_per_s"] = traced.rows_out / (gather_ns / 1e9)

    appends = counts.get("wal_append", 0)
    if appends:
        metrics["wal.append_us"] = totals["wal_append"] / 1e3 / appends
        metrics["wal.bytes_per_user_byte"] = sum(
            meta.get("bytes", 0) for _, _, meta in recorder.spans("wal_append")
        ) / sum(workload.user_bytes[:n])
    metrics["wal.fsyncs"] = counts.get("wal_fsync", 0)
    metrics["wal.fsync_ms_total"] = totals.get("wal_fsync", 0.0) / 1e6

    checkpoints = list(recorder.spans("checkpoint"))
    checkpoint_ms = [
        (build["checkpoint_ns"][1] - build["checkpoint_ns"][0]) / 1e6
    ] + [ns / 1e6 for _, ns, _ in checkpoints]
    metrics["checkpoint.count"] = len(checkpoints)
    metrics["checkpoint.ms_p50"] = float(np.percentile(checkpoint_ms, 50))
    if checkpoints:
        metrics["checkpoint.stall_ms_max"] = (
            float(latency[[index for index, _, _ in checkpoints]].max()) / 1e6
        )
    metrics["snapshot.bytes_per_user_byte"] = (
        build["snapshot_bytes"] / workload.raw_bytes
    )
    metrics["recover.warm_s"] = plain.open_s
    metrics["recover.wal_replayed"] = served.recovery.get("wal_replayed", 0)
    metrics["durability.lost_acked"] = served.recovery.get("lost_acked", 0)

    metrics.update(codec_replay(recorder, workload, served.compression))
    served_mean_us = float(served.scaled_ns.mean()) / 1e3
    embedded_mean_us = float(latency[: workload.n_served].mean()) / 1e3
    metrics["server.residual_us"] = (
        served_mean_us - embedded_mean_us
        - metrics["proto.encode_us"] - metrics["proto.decode_us"]
    )
    metrics["wire.tax"] = served.p(50) / plain.p(50)
    metrics["server.pipelined_us"] = served.pipelined_us * served.speed
    metrics["server.queue_depth_max"] = served.stats_after["gateway"]["peak_pending"]
    metrics["gateway.rejected"] = served.stats_after["gateway"]["rejected"]

    metrics["tail.emb_p99_us"] = plain.p(99)
    metrics["tail.srv_p99_us"] = served.p(99)
    metrics["tail.speed"] = plain.speed
    measured_s = sum(phase.wall_s for phase in phases)
    metrics["tail.steal_share"] = (
        sum(phase.steal_share * phase.wall_s for phase in phases) / measured_s
    )
    metrics["tail.retries"] = guard.retries - retries_before
    metrics["mem.emb_rss_delta_mb"] = plain.rss_delta_mb

    if trace_path is not None:
        recorder.dump(trace_path)
    return {
        "attempted": sum(phase.attempted for phase in phases),
        "failed": sum(phase.failed for phase in phases),
        "metrics": {
            name: {
                "value": float(value), "unit": PER_LAYER[name][0],
                "layer": PER_LAYER[name][2],
            }
            for name, value in metrics.items()
        },
    }
