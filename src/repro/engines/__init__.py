"""Query engines under test: the systems compared in the paper's figures.

* :class:`RowStoreEngine` — traditional n-ary engine (MySQL/PostgreSQL class);
* :class:`DatabaseEngine` — MonetDB, the shipped ``Database``, with the
  cracker module off ("nocrack") or on ("crack");
* :class:`SortedEngine` — sort-upfront baseline ("sort");
* :class:`SQLCrackingEngine` — §5.1's SQL-level cracking on a row store.
"""

from repro.engines.base import (
    DELIVERIES,
    DELIVERY_COUNT,
    DELIVERY_MATERIALISE,
    DELIVERY_PRINT,
    ChainTimeout,
    Engine,
    QueryOutcome,
)
from repro.engines.database import DatabaseEngine
from repro.engines.rowstore import RowStoreEngine
from repro.engines.sorted_engine import SortedEngine
from repro.engines.sql_cracking import Fragment, SQLCrackingEngine

__all__ = [
    "ChainTimeout",
    "DELIVERIES",
    "DELIVERY_COUNT",
    "DELIVERY_MATERIALISE",
    "DELIVERY_PRINT",
    "DatabaseEngine",
    "Engine",
    "Fragment",
    "QueryOutcome",
    "RowStoreEngine",
    "SQLCrackingEngine",
    "SortedEngine",
]
