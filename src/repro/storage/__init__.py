"""Storage substrate: BATs, heaps, pages, tables, catalog, transactions.

This package reproduces the MonetDB storage model the paper's cracker
module is built on (§3.4.2, Figure 7), plus the page/WAL cost accounting
used to model traditional-engine overheads (Figure 1, §5.1).
"""

from repro.storage.accelerators import SortedAccelerator
from repro.storage.bat import BAT
from repro.storage.catalog import Catalog, CatalogStats, FragmentEntry
from repro.storage.heap import AtomHeap
from repro.storage.pages import (
    DEFAULT_PAGE_SIZE,
    BufferPool,
    IOCounters,
    IOTracker,
    WriteAheadLog,
)
from repro.storage.table import Column, Relation, Schema
from repro.storage.transaction import Transaction

__all__ = [
    "AtomHeap",
    "BAT",
    "BufferPool",
    "Catalog",
    "CatalogStats",
    "Column",
    "DEFAULT_PAGE_SIZE",
    "FragmentEntry",
    "IOCounters",
    "IOTracker",
    "Relation",
    "Schema",
    "SortedAccelerator",
    "Transaction",
    "WriteAheadLog",
]
