"""Unit tests for the buffer pool, WAL and I/O tracker."""

import pytest

from repro.errors import PageError
from repro.storage.pages import (
    DEFAULT_PAGE_SIZE,
    BufferPool,
    IOCounters,
    IOTracker,
    WriteAheadLog,
)


class TestIOCounters:
    def test_snapshot_is_independent(self):
        counters = IOCounters(page_reads=5)
        snap = counters.snapshot()
        counters.page_reads = 10
        assert snap.page_reads == 5

    def test_diff_computes_delta(self):
        counters = IOCounters(page_reads=10, page_writes=4)
        earlier = IOCounters(page_reads=3, page_writes=1)
        delta = counters.diff(earlier)
        assert delta.page_reads == 7
        assert delta.page_writes == 3

class TestBufferPool:
    def test_first_fetch_is_miss(self):
        pool = BufferPool()
        assert pool.fetch("seg", 0) is False
        assert pool.counters.page_reads == 1

    def test_second_fetch_is_hit(self):
        pool = BufferPool()
        pool.fetch("seg", 0)
        assert pool.fetch("seg", 0) is True
        assert pool.counters.page_hits == 1

    def test_lru_eviction(self):
        pool = BufferPool(capacity_pages=2)
        pool.fetch("seg", 0)
        pool.fetch("seg", 1)
        pool.fetch("seg", 2)  # evicts page 0
        assert pool.fetch("seg", 0) is False

    def test_lru_touch_refreshes_recency(self):
        pool = BufferPool(capacity_pages=2)
        pool.fetch("seg", 0)
        pool.fetch("seg", 1)
        pool.fetch("seg", 0)  # page 0 is now most recent
        pool.fetch("seg", 2)  # should evict page 1
        assert pool.fetch("seg", 0) is True
        assert pool.fetch("seg", 1) is False

    def test_fetch_range_counts_misses(self):
        pool = BufferPool()
        assert pool.fetch_range("seg", 0, 5) == 5
        assert pool.fetch_range("seg", 0, 5) == 0

    def test_zero_capacity_never_caches(self):
        pool = BufferPool(capacity_pages=0)
        pool.fetch("seg", 0)
        assert pool.fetch("seg", 0) is False

    def test_negative_capacity_raises(self):
        with pytest.raises(PageError):
            BufferPool(capacity_pages=-1)

    def test_write_admits_page(self):
        pool = BufferPool()
        pool.write("seg", 7)
        assert pool.counters.page_writes == 1
        assert pool.fetch("seg", 7) is True

    def test_segments_are_isolated(self):
        pool = BufferPool()
        pool.fetch("a", 0)
        assert pool.fetch("b", 0) is False


class TestWAL:
    def test_append_counts_overhead(self):
        wal = WriteAheadLog()
        wal.append(100)
        assert wal.bytes_appended == 100 + WriteAheadLog.RECORD_OVERHEAD
        assert wal.records == 1

    def test_negative_payload_raises(self):
        wal = WriteAheadLog()
        with pytest.raises(PageError):
            wal.append(-1)

class TestIOTracker:
    def test_read_bytes_accounts_pages(self):
        tracker = IOTracker()
        tracker.read_bytes("seg", DEFAULT_PAGE_SIZE * 3)
        assert tracker.counters.page_reads == 3

    def test_read_bytes_with_offset_spans_extra_page(self):
        tracker = IOTracker()
        tracker.read_bytes("seg", DEFAULT_PAGE_SIZE, offset_bytes=1)
        assert tracker.counters.page_reads == 2

    def test_bulk_reads_bypass_pool(self):
        tracker = IOTracker(bulk_threshold_pages=4)
        tracker.read_bytes("seg", DEFAULT_PAGE_SIZE * 100)
        assert tracker.counters.page_reads == 100
        # Pool untouched: a small re-read of page 0 is still a miss.
        tracker.read_bytes("seg", 10)
        assert tracker.counters.page_reads == 101

    def test_small_reads_hit_pool_on_repeat(self):
        tracker = IOTracker()
        tracker.read_bytes("seg", 10)
        tracker.read_bytes("seg", 10)
        assert tracker.counters.page_reads == 1
        assert tracker.counters.page_hits == 1

    def test_log_bulk_single_record(self):
        tracker = IOTracker()
        tracker.log_bulk(5, 16)
        assert tracker.wal.records == 1
        assert tracker.counters.wal_bytes == 80 + WriteAheadLog.RECORD_OVERHEAD
