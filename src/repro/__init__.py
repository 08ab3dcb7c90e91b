"""repro — a reproduction of "Cracking the Database Store" (CIDR 2005).

Database *cracking* makes physical reorganisation a by-product of query
processing: every range query partitions the touched column pieces around
its predicate bounds, incrementally building a query-driven index.

Public API highlights:

* :class:`repro.core.CrackedColumn` — the adaptive cracked column;
* :mod:`repro.core` — crack kernels, index, Ξ/Ψ/^/Ω operators, lineage;
* :mod:`repro.storage` — MonetDB-style BAT storage substrate;
* :mod:`repro.engines` — comparable query engines (row store, column
  store, cracking, sorted, SQL-level cracking);
* :mod:`repro.benchmark` — the multi-query benchmark kit (DBtapestry,
  homerun/hiking/strolling profiles, MQS);
* :mod:`repro.simulation` — the §2.2 read/write cost simulation;
* :mod:`repro.sql` — a small SQL front-end with a cracker extraction
  stage between analyzer and optimizer;
* :mod:`repro.server` / :mod:`repro.client` — the network service
  layer: asyncio TCP server, JSON wire protocol, sync + async clients;
* :mod:`repro.obs` — observability: metrics registry, span tracing,
  EXPLAIN ANALYZE plumbing, Prometheus text exposition;
* :mod:`repro.experiments` — one module per paper figure.
"""

__version__ = "1.0.0"

from repro.core import CrackedColumn, CrackerIndex
from repro.storage import BAT, BATView, Catalog, Column, Relation, Schema

__all__ = [
    "BAT",
    "BATView",
    "Catalog",
    "Column",
    "CrackedColumn",
    "CrackerIndex",
    "Relation",
    "Schema",
    "__version__",
]
