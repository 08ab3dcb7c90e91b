"""Query engines under test: the systems compared in the paper's figures.

* :class:`RowStoreEngine` — traditional n-ary engine (MySQL/PostgreSQL class);
* :class:`ColumnStoreEngine` — MonetDB without cracking ("nocrack");
* :class:`CrackingEngine` — MonetDB plus the cracker module ("crack");
* :class:`SortedEngine` — sort-upfront baseline ("sort");
* :class:`SQLCrackingEngine` — §5.1's SQL-level cracking on a row store;
* :class:`VectorizedCrackedEngine` — cracking plus the batch executor.
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
from repro.engines.columnstore import ColumnStoreEngine, vector_equi_join
from repro.engines.cracked import CrackingEngine, WedgeState
from repro.engines.rowstore import RowStoreEngine
from repro.engines.sorted_engine import SortedEngine
from repro.engines.sql_cracking import Fragment, SQLCrackingEngine
from repro.engines.vectorized import VectorizedCrackedEngine

__all__ = [
    "ChainTimeout",
    "ColumnStoreEngine",
    "CrackingEngine",
    "DELIVERIES",
    "DELIVERY_COUNT",
    "DELIVERY_MATERIALISE",
    "DELIVERY_PRINT",
    "Engine",
    "Fragment",
    "QueryOutcome",
    "RowStoreEngine",
    "SQLCrackingEngine",
    "SortedEngine",
    "VectorizedCrackedEngine",
    "WedgeState",
    "vector_equi_join",
]
