"""Workload generator of the perf ledger.

:func:`generate` is a pure function of ``(name, seed, seconds, quick)``:
it returns the table columns as numpy arrays, the warm-up and measured
statements as SQL text, and the answer every measured statement must
give.  The answers come from numpy over the generated arrays (and, for
``mixed_dml``, from :class:`TableModel`, a few-line numpy model of the
table under INSERT / UPDATE / DELETE) — never from the engine under
test.  The program sees only the SQL text.

Every stream is a *fixed statement count* scaled linearly from
``seconds`` (the counts in :data:`SPECS` are sized for a 10-second
measurement on the 2-vCPU sandbox), so engine state and every counter
repeat exactly from run to run.  Randomness decides literals and order
only: the composition of a stream (hot/fresh share, result-size
spread, DML mix) is fixed by construction, which keeps the medians
comparable across seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

TAGS = [f"tag{i:02d}" for i in range(16)]
TAG_CODE = {tag: code for code, tag in enumerate(TAGS)}

#: Seconds of measurement the base counts below are sized for.
BASE_SECONDS = 10.0

HOT_POOL = 256        # point_count: fits the 512-entry exact plan cache
BULK_POOL = 256       # bulk_select: every statement repeats
INSERT_ROWS = 10
UPDATE_ROWS = 50
DELETE_ROWS = 10
#: Auto-checkpoints the mixed_dml stream must trigger per phase.
MIXED_CHECKPOINTS = 3


@dataclass(frozen=True)
class Spec:
    """Size of one workload at ``BASE_SECONDS`` (and in ``--quick``).

    Why each workload exists is recorded once, in ``BENCHMARK.json``.
    """

    rows: int
    warmup: int
    embedded: int
    served: int
    pipelined: int = 0
    quick_rows: int = 20_000
    quick_warmup: int = 200
    quick_counts: tuple = (0, 0, 0)


SPECS = {
    # Tiny answers on a converged index: compile path and wire overhead.
    "point_count": Spec(
        rows=200_000, warmup=2000,
        embedded=12_000, served=2_000, pipelined=2_000,
        quick_counts=(600, 200, 128),
    ),
    # Large answers from a repeating pool: gather, encode, decode.
    "bulk_select": Spec(
        rows=200_000, warmup=2000,
        embedded=640, served=192,
        quick_counts=(48, 24, 0),
    ),
    # The paper's burn-in on an uncracked store: crack kernels.
    "cold_burst": Spec(
        rows=200_000, warmup=0,
        embedded=2048, served=2048,
        quick_counts=(256, 256, 0),
    ),
    # Writes beside reads on a cracked column: merges, WAL, checkpoints.
    "mixed_dml": Spec(
        rows=50_000, warmup=500,
        embedded=1500, served=1500,
        quick_rows=5_000, quick_warmup=100,
        quick_counts=(1000, 400, 0),    # enough mutations for WAL fsyncs
    ),
}


@dataclass
class Workload:
    """Inputs and expected outputs of one workload for one seed."""

    name: str
    seed: int
    rows: int
    columns: dict
    warmup: list
    sql: list
    kind: list              # 'select' | 'insert' | 'update' | 'delete'
    expect: list            # digest each statement's result must equal
    n_embedded: int
    n_served: int
    n_pipelined: int = 0
    checkpoint_statements: int | None = None
    #: (start, end) statement ranges named by the workload (cold_burst).
    marks: dict = field(default_factory=dict)
    #: mixed_dml only: the table operations behind ``sql`` (for replay).
    ops: list = field(default_factory=list)
    #: bytes of user data each statement writes (0 for reads).
    user_bytes: list = field(default_factory=list)

    @property
    def raw_bytes(self) -> int:
        """Bytes of user data in the loaded table."""
        return self.rows * 24 + int(sum(len(t) for t in self.columns["tag"]))

    def check(self, index: int, result) -> bool:
        """True when ``result`` is the right answer to statement ``index``."""
        try:
            return digest(result, self.expect[index]) == self.expect[index]
        except (IndexError, KeyError, TypeError, ValueError):
            return False


def digest(result, like) -> tuple:
    """Reduce a result to the form its expected answer ``like`` has.

    ``("count", n)`` for a 1x1 count, ``("affected", n)`` for DML and
    ``("rows", n, sum_k, sum_a[, sum_tag_code])`` for a bulk select: row
    count plus one checksum per projected column.
    """
    shape = like[0]
    if shape == "count":
        if len(result.rows) != 1 or len(result.rows[0]) != 1:
            return ("count", None)
        return ("count", int(result.rows[0][0]))
    if shape == "affected":
        return ("affected", int(result.affected))
    columns = list(zip(*result.rows)) if result.rows else [()] * (len(like) - 2)
    sums = [int(sum(columns[0])), int(sum(columns[1]))]
    if len(like) == 5:
        sums.append(sum(TAG_CODE[tag] for tag in columns[2]))
    return ("rows", len(result.rows), *sums)


class TableModel:
    """numpy model of ``r(k, a, b, tag)`` under the mixed_dml statements.

    ``k`` is dense and inserts append the next keys, so a key *is* its
    position: ``k BETWEEN x AND y`` is the slice ``[x, y]``.
    """

    def __init__(self, a: np.ndarray, capacity: int) -> None:
        self.a = np.zeros(capacity, dtype=np.int64)
        self.a[: len(a)] = a
        self.live = np.zeros(capacity, dtype=bool)
        self.live[: len(a)] = True
        self.size = len(a)

    def apply(self, op: tuple) -> int:
        """Run one operation; returns the count or the affected rows."""
        verb = op[0]
        if verb == "select":
            _, low, high = op
            a = self.a[: self.size]
            return int(((a >= low) & (a <= high) & self.live[: self.size]).sum())
        if verb == "insert":
            values = op[2]
            end = self.size + len(values)
            self.a[self.size:end] = values
            self.live[self.size:end] = True
            self.size = end
            return len(values)
        _, low, high = op[:3]
        hit = self.live[low:high + 1]
        affected = int(hit.sum())
        if verb == "update":
            self.a[low:high + 1][hit] = op[3]
        else:
            self.live[low:high + 1] = False
        return affected

    def verification(self) -> list:
        """``(sql, expected rows)`` pairs describing the current state."""
        a = self.a[: self.size]
        live = self.live[: self.size]
        k = np.arange(self.size)
        checks = [("SELECT count(*) FROM r", [(int(live.sum()),)])]
        top = int(a.max()) + 1
        for low, high in ((0, top // 3), (top // 3, 2 * top // 3), (0, top)):
            hit = live & (a >= low) & (a <= high)
            checks.append((
                f"SELECT count(*), sum(r.a), sum(r.k) FROM r "
                f"WHERE a BETWEEN {low} AND {high}",
                [(int(hit.sum()), int(a[hit].sum()), int(k[hit].sum()))],
            ))
        return checks


def replay_model(workload: Workload, mutations: int) -> TableModel:
    """The model after the first ``mutations`` mutating statements."""
    total = workload.rows + INSERT_ROWS * len(workload.ops)
    model = TableModel(workload.columns["a"], total)
    for op in workload.ops:
        if op[0] == "select":
            continue
        if mutations == 0:
            break
        model.apply(op)
        mutations -= 1
    return model


def _count_sql(column: str, low: int, high: int) -> str:
    return f"SELECT count(*) FROM r WHERE {column} BETWEEN {low} AND {high}"


def _range_counts(values: np.ndarray, lows, highs) -> np.ndarray:
    """How many of ``values`` fall in each closed range (numpy oracle)."""
    ordered = np.sort(values)
    return (
        np.searchsorted(ordered, highs, side="right")
        - np.searchsorted(ordered, lows, side="left")
    )


def _random_ranges(rng, rows: int, count: int):
    lows = rng.integers(0, rows, count)
    return lows, lows + rng.integers(1, max(2, rows // 4), count)


def _distinct_ranges(rng, rows: int, count: int, taken: set):
    """``count`` random ranges none of which repeats (or is in ``taken``)."""
    lows, highs = [], []
    while len(lows) < count:
        for low, high in zip(*_random_ranges(rng, rows, count - len(lows))):
            pair = (int(low), int(high))
            if pair not in taken:
                taken.add(pair)
                lows.append(pair[0])
                highs.append(pair[1])
    return np.array(lows), np.array(highs)


def _scaled(spec: Spec, seconds: float, quick: bool) -> tuple:
    if quick:
        return spec.quick_counts
    scale = seconds / BASE_SECONDS
    return tuple(
        max(16, int(round(base * scale))) if base else 0
        for base in (spec.embedded, spec.served, spec.pipelined)
    )


def generate(
    name: str, seed: int, seconds: float = BASE_SECONDS, quick: bool = False
) -> Workload:
    """The workload ``name`` for ``seed``, sized for ``seconds``."""
    spec = SPECS[name]
    rows = spec.quick_rows if quick else spec.rows
    rng = np.random.default_rng([seed, list(SPECS).index(name)])
    columns = {
        "k": np.arange(rows, dtype=np.int64),
        "a": rng.permutation(rows).astype(np.int64),
        "b": rng.permutation(rows).astype(np.int64),
        "tag": np.array(TAGS, dtype=object)[rng.integers(0, len(TAGS), rows)],
    }
    n_warm = spec.quick_warmup if quick else spec.warmup
    warmup = [
        _count_sql("a", low, high)
        for low, high in zip(*_random_ranges(rng, rows, n_warm))
    ]
    n_emb, n_srv, n_pipe = _scaled(spec, seconds, quick)
    workload = Workload(
        name=name, seed=seed, rows=rows, columns=columns, warmup=warmup,
        sql=[], kind=[], expect=[],
        n_embedded=n_emb, n_served=n_srv, n_pipelined=n_pipe,
    )
    total = max(n_emb, n_srv + n_pipe)
    _BUILDERS[name](workload, rng, total)
    if not workload.user_bytes:
        workload.user_bytes = [0] * len(workload.sql)
    return workload


def _point_count(workload: Workload, rng, total: int) -> None:
    rows = workload.rows
    taken: set = set()
    hot_low, hot_high = _distinct_ranges(rng, rows, HOT_POOL, taken)
    # Exactly half the stream is hot; order and pool picks are random.
    is_hot = rng.permutation(total) % 2 == 0
    fresh_low, fresh_high = _distinct_ranges(
        rng, rows, int((~is_hot).sum()), taken
    )
    picks = rng.integers(0, HOT_POOL, total)
    lows = np.empty(total, dtype=np.int64)
    highs = np.empty(total, dtype=np.int64)
    lows[is_hot] = hot_low[picks[is_hot]]
    highs[is_hot] = hot_high[picks[is_hot]]
    lows[~is_hot] = fresh_low
    highs[~is_hot] = fresh_high
    counts = _range_counts(workload.columns["a"], lows, highs)
    for low, high, count in zip(lows, highs, counts):
        workload.sql.append(_count_sql("a", int(low), int(high)))
        workload.kind.append("select")
        workload.expect.append(("count", int(count)))


def _bulk_select(workload: Workload, rng, total: int) -> None:
    rows = workload.rows
    k, a = workload.columns["k"], workload.columns["a"]
    codes = np.array([TAG_CODE[tag] for tag in workload.columns["tag"]])
    # Result sizes are an even spread over 0.5%..2% of the table, so the
    # median result size does not depend on the seed.
    widths = rng.permutation(
        np.linspace(rows * 0.005, rows * 0.02, BULK_POOL).astype(np.int64)
    )
    lows = rng.integers(0, rows - widths.max(), BULK_POOL)
    pool_sql, pool_expect = [], []
    for index, (low, width) in enumerate(zip(lows, widths)):
        low, high = int(low), int(low + width - 1)
        hit = (a >= low) & (a <= high)
        sums = [int(k[hit].sum()), int(a[hit].sum())]
        projection = "k, a"
        if index % 4 == 3:
            projection = "k, a, tag"
            sums.append(int(codes[hit].sum()))
        pool_sql.append(
            f"SELECT {projection} FROM r WHERE a BETWEEN {low} AND {high}"
        )
        pool_expect.append(("rows", int(hit.sum()), *sums))
        # Pre-converge on the pool's own bounds: the measured stream
        # must not crack.
        workload.warmup.append(_count_sql("a", low, high))
    # Whole shuffled passes over the pool: every statement is drawn
    # equally often, and from the second pass on is an exact cache hit.
    order = np.concatenate([
        rng.permutation(BULK_POOL) for _ in range(-(-total // BULK_POOL))
    ])[:total]
    for pick in order:
        workload.sql.append(pool_sql[pick])
        workload.kind.append("select")
        workload.expect.append(pool_expect[pick])


def _cold_burst(workload: Workload, rng, total: int) -> None:
    rows = workload.rows
    n_uniform = total // 2
    n_sequential = total - n_uniform
    lows, highs = _distinct_ranges(rng, rows, n_uniform, set())
    counts = _range_counts(workload.columns["a"], lows, highs)
    for low, high, count in zip(lows, highs, counts):
        workload.sql.append(_count_sql("a", int(low), int(high)))
        workload.expect.append(("count", int(count)))
    # The sequential pattern stochastic cracking targets: the window
    # slides one step per query and is five steps wide.
    step = max(1, rows // n_sequential)
    seq_lows = np.arange(n_sequential) * step
    seq_highs = seq_lows + 5 * step
    counts = _range_counts(workload.columns["b"], seq_lows, seq_highs)
    for low, high, count in zip(seq_lows, seq_highs, counts):
        workload.sql.append(_count_sql("b", int(low), int(high)))
        workload.expect.append(("count", int(count)))
    workload.kind.extend(["select"] * total)
    workload.marks = {
        "uniform": (0, n_uniform),
        "sequential": (n_uniform, total),
    }


def _mixed_dml(workload: Workload, rng, total: int) -> None:
    rows = workload.rows
    # Exact 70/10/10/10 composition in random order.
    pattern = ["select"] * 7 + ["insert", "update", "delete"]
    verbs = [pattern[i % 10] for i in rng.permutation(total)]
    mutations = sum(verb != "select" for verb in verbs)
    workload.checkpoint_statements = max(1, mutations // (MIXED_CHECKPOINTS + 1))
    model = TableModel(workload.columns["a"], rows + INSERT_ROWS * total)
    for verb in verbs:
        written = 0
        if verb == "select":
            low, high = (int(v[0]) for v in _random_ranges(rng, rows, 1))
            op = ("select", low, high)
            sql = _count_sql("a", low, high)
        elif verb == "insert":
            first = model.size
            a_values = rng.integers(0, rows, INSERT_ROWS)
            b_values = rng.integers(0, rows, INSERT_ROWS)
            tags = [TAGS[i] for i in rng.integers(0, len(TAGS), INSERT_ROWS)]
            op = ("insert", first, a_values)
            sql = "INSERT INTO r VALUES " + ", ".join(
                f"({first + i}, {int(a_values[i])}, {int(b_values[i])}, '{tags[i]}')"
                for i in range(INSERT_ROWS)
            )
            written = INSERT_ROWS * 24 + sum(len(tag) for tag in tags)
        elif verb == "update":
            low = int(rng.integers(0, rows - UPDATE_ROWS))
            value = int(rng.integers(0, rows))
            op = ("update", low, low + UPDATE_ROWS - 1, value)
            sql = (
                f"UPDATE r SET a = {value} "
                f"WHERE k BETWEEN {low} AND {low + UPDATE_ROWS - 1}"
            )
        else:
            low = int(rng.integers(0, rows - DELETE_ROWS))
            op = ("delete", low, low + DELETE_ROWS - 1)
            sql = f"DELETE FROM r WHERE k BETWEEN {low} AND {low + DELETE_ROWS - 1}"
        answer = model.apply(op)
        if verb in ("update", "delete"):
            written = 8 * answer    # one value / one tombstone per row
        workload.sql.append(sql)
        workload.kind.append(verb)
        workload.ops.append(op)
        workload.user_bytes.append(written)
        workload.expect.append(
            ("count" if verb == "select" else "affected", answer)
        )


_BUILDERS = {
    "point_count": _point_count,
    "bulk_select": _bulk_select,
    "cold_burst": _cold_burst,
    "mixed_dml": _mixed_dml,
}
