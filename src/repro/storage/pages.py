"""Page-granular I/O accounting: buffer pool, WAL stream and counters.

The paper's cost arguments (Section 2) are phrased in reads and writes of
*granules* — tuples or disk pages.  We have no real disk, so this module
provides the deterministic cost model substrate: a buffer pool that tracks
logical page reads/writes with an LRU eviction policy, and a write-ahead-log
stream whose append volume models the transactional overhead that makes
``SELECT INTO`` materialisation expensive on traditional engines (Figure 1a).

Engines account their work through an :class:`IOTracker`; the simulation in
:mod:`repro.simulation` uses the same counters so wall-clock experiments and
cost-model experiments speak the same unit.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

from repro.errors import PageError

#: Default page size in bytes; 8 KiB matches PostgreSQL's default.
DEFAULT_PAGE_SIZE = 8192


@dataclass
class IOCounters:
    """Mutable bag of logical I/O counters.

    Attributes:
        page_reads: pages fetched that missed the buffer pool.
        page_hits: pages fetched that hit the buffer pool.
        page_writes: pages written back (materialisation, cracking shuffle).
        wal_bytes: bytes appended to the write-ahead log.
        tuples_read: tuples touched by predicate evaluation.
        tuples_written: tuples copied to a result or new fragment.
    """

    page_reads: int = 0
    page_hits: int = 0
    page_writes: int = 0
    wal_bytes: int = 0
    tuples_read: int = 0
    tuples_written: int = 0

    def snapshot(self) -> "IOCounters":
        """Return an independent copy of the current counter values."""
        return IOCounters(
            page_reads=self.page_reads,
            page_hits=self.page_hits,
            page_writes=self.page_writes,
            wal_bytes=self.wal_bytes,
            tuples_read=self.tuples_read,
            tuples_written=self.tuples_written,
        )

    def diff(self, earlier: "IOCounters") -> "IOCounters":
        """Return counters accumulated since ``earlier`` was snapshotted."""
        return IOCounters(
            page_reads=self.page_reads - earlier.page_reads,
            page_hits=self.page_hits - earlier.page_hits,
            page_writes=self.page_writes - earlier.page_writes,
            wal_bytes=self.wal_bytes - earlier.wal_bytes,
            tuples_read=self.tuples_read - earlier.tuples_read,
            tuples_written=self.tuples_written - earlier.tuples_written,
        )


class BufferPool:
    """An LRU buffer pool over abstract page identifiers.

    Pages are identified by ``(segment, page_no)`` pairs.  The pool holds no
    data — only residency — because the actual bytes live in numpy arrays.
    What matters for the reproduction is *which accesses would have caused
    disk traffic*.

    Args:
        capacity_pages: number of pages the pool can hold; 0 disables
            caching entirely (every access is a miss).
    """

    def __init__(self, capacity_pages: int = 4096) -> None:
        if capacity_pages < 0:
            raise PageError(f"capacity_pages must be >= 0, got {capacity_pages}")
        self.capacity_pages = capacity_pages
        self._resident: OrderedDict[tuple, None] = OrderedDict()
        self.counters = IOCounters()

    def fetch(self, segment: str, page_no: int) -> bool:
        """Fetch one page; returns True on a pool hit, False on a miss."""
        key = (segment, page_no)
        if key in self._resident:
            self._resident.move_to_end(key)
            self.counters.page_hits += 1
            return True
        self.counters.page_reads += 1
        self._admit(key)
        return False

    def fetch_range(self, segment: str, first_page: int, n_pages: int) -> int:
        """Fetch ``n_pages`` consecutive pages; returns the number of misses."""
        misses = 0
        for page_no in range(first_page, first_page + n_pages):
            if not self.fetch(segment, page_no):
                misses += 1
        return misses

    def write(self, segment: str, page_no: int) -> None:
        """Mark one page as written back to the store."""
        self.counters.page_writes += 1
        self._admit((segment, page_no))

    def write_range(self, segment: str, first_page: int, n_pages: int) -> None:
        """Write ``n_pages`` consecutive pages."""
        for page_no in range(first_page, first_page + n_pages):
            self.write(segment, page_no)

    def _admit(self, key: tuple) -> None:
        if self.capacity_pages == 0:
            return
        if key in self._resident:
            self._resident.move_to_end(key)
            return
        while len(self._resident) >= self.capacity_pages:
            self._resident.popitem(last=False)
        self._resident[key] = None


class WriteAheadLog:
    """An in-memory WAL modelling transactional materialisation overhead.

    Traditional engines pay a WAL append for every tuple moved into a new
    table, which is why ``SELECT INTO`` is the most expensive delivery mode
    in Figure 1.  We model the log as an append-only byte counter with
    per-record fixed overhead.
    """

    #: Fixed per-record framing overhead in bytes (LSN, CRC, lengths).
    RECORD_OVERHEAD = 24

    def __init__(self) -> None:
        self.records = 0
        self.bytes_appended = 0

    def append(self, payload_bytes: int) -> None:
        """Append one record with ``payload_bytes`` of payload."""
        if payload_bytes < 0:
            raise PageError(f"payload_bytes must be >= 0, got {payload_bytes}")
        self.records += 1
        self.bytes_appended += payload_bytes + self.RECORD_OVERHEAD


@dataclass
class IOTracker:
    """Facade wiring a buffer pool and WAL behind one accounting interface.

    Every engine owns one tracker; the experiments read the counters after
    each query to report cost-model units next to wall-clock times.

    Ranges larger than ``bulk_threshold_pages`` bypass the pool: they are
    charged in full and leave residency untouched, mirroring the
    sequential-scan bypass real engines use to avoid flushing the pool
    (and keeping the accounting itself O(1) for large scans).
    """

    page_size: int = DEFAULT_PAGE_SIZE
    pool: BufferPool = field(default_factory=BufferPool)
    wal: WriteAheadLog = field(default_factory=WriteAheadLog)
    bulk_threshold_pages: int = 128

    def read_bytes(self, segment: str, n_bytes: int, offset_bytes: int = 0) -> None:
        """Account a sequential read of ``n_bytes`` starting at an offset."""
        if n_bytes <= 0:
            return
        first = offset_bytes // self.page_size
        last = (offset_bytes + n_bytes - 1) // self.page_size
        n_pages = last - first + 1
        if n_pages > self.bulk_threshold_pages:
            self.pool.counters.page_reads += n_pages
            return
        self.pool.fetch_range(segment, first, n_pages)

    def write_bytes(self, segment: str, n_bytes: int, offset_bytes: int = 0) -> None:
        """Account a sequential write of ``n_bytes`` starting at an offset."""
        if n_bytes <= 0:
            return
        first = offset_bytes // self.page_size
        last = (offset_bytes + n_bytes - 1) // self.page_size
        n_pages = last - first + 1
        if n_pages > self.bulk_threshold_pages:
            self.pool.counters.page_writes += n_pages
            return
        self.pool.write_range(segment, first, n_pages)

    def log_bulk(self, n_tuples: int, tuple_bytes: int) -> None:
        """Append a single WAL record covering ``n_tuples`` (bulk load)."""
        if n_tuples > 0:
            self.wal.append(n_tuples * tuple_bytes)

    @property
    def counters(self) -> IOCounters:
        """The pool's counter bag, with WAL bytes folded in."""
        counters = self.pool.counters
        counters.wal_bytes = self.wal.bytes_appended
        return counters
