"""System catalog: tables, fragments and their maintenance cost.

The paper stresses that registering cracked pieces in a *system catalog*
(as partitions of a partitioned table) is expensive: "Each creation or
removal of a partition is a change to the table's schema and catalog
entries.  It requires locking a critical resource and may force
recompilation of cached queries" (§3.2).  This catalog charges an explicit
cost per DDL mutation so the SQL-level cracking experiment (§5.1) can show
exactly that overhead; the in-memory cracker index avoids it by design.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import CatalogError
from repro.storage.table import Relation


@dataclass
class FragmentEntry:
    """Catalog record for one registered fragment of a partitioned table.

    Attributes:
        name: fragment (partition) name.
        parent: name of the logical table this fragment belongs to.
        predicate: human-readable description of the fragment's contents.
        rows: tuple count at registration time.
    """

    name: str
    parent: str
    predicate: str
    rows: int


@dataclass
class CatalogStats:
    """Counters for catalog maintenance work.

    ``ddl_mutations`` counts schema/partition changes — the lock-and-
    recompile events the paper warns about.
    """

    ddl_mutations: int = 0


class Catalog:
    """Names tables, tracks fragments, and accounts DDL cost.

    A minimal but honest model of a traditional system catalog: every
    table creation, drop or partition registration is a DDL mutation.
    (The SQL layer's plan cache drops a table's plans through its own
    per-table epochs.)
    """

    def __init__(self) -> None:
        self._tables: dict[str, Relation] = {}
        self._fragments: dict[str, list[FragmentEntry]] = {}
        self.stats = CatalogStats()

    # ------------------------------------------------------------------ #
    # Tables
    # ------------------------------------------------------------------ #

    def create_table(self, relation: Relation) -> None:
        """Register ``relation`` under its own name."""
        if relation.name in self._tables:
            raise CatalogError(f"table {relation.name!r} already exists")
        self._tables[relation.name] = relation
        self._fragments[relation.name] = []
        self.stats.ddl_mutations += 1

    def drop_table(self, name: str) -> None:
        """Remove a table and its fragment entries."""
        if name not in self._tables:
            raise CatalogError(f"cannot drop unknown table {name!r}")
        del self._tables[name]
        self._fragments.pop(name, None)
        self.stats.ddl_mutations += 1

    def table(self, name: str) -> Relation:
        """Look up a table by name."""
        try:
            return self._tables[name]
        except KeyError:
            raise CatalogError(f"unknown table {name!r}") from None

    def has_table(self, name: str) -> bool:
        """True if ``name`` is registered."""
        return name in self._tables

    def table_names(self) -> list[str]:
        """All registered table names, sorted."""
        return sorted(self._tables)

    # ------------------------------------------------------------------ #
    # Fragments (partitioned-table administration)
    # ------------------------------------------------------------------ #

    def register_fragment(
        self, parent: str, fragment: Relation, predicate: str
    ) -> FragmentEntry:
        """Register ``fragment`` as a partition of logical table ``parent``.

        This is the expensive path of SQL-level cracking: a DDL mutation
        on every piece created.
        """
        if parent not in self._fragments:
            raise CatalogError(f"unknown parent table {parent!r}")
        if fragment.name in self._tables:
            raise CatalogError(f"fragment name {fragment.name!r} collides with a table")
        entry = FragmentEntry(
            name=fragment.name,
            parent=parent,
            predicate=predicate,
            rows=len(fragment),
        )
        self._tables[fragment.name] = fragment
        self._fragments[fragment.name] = []
        self._fragments[parent].append(entry)
        self.stats.ddl_mutations += 1
        return entry

    def unregister_fragment(self, parent: str, fragment_name: str) -> None:
        """Remove a fragment registration (e.g. after fusing pieces)."""
        entries = self._fragments.get(parent)
        if entries is None:
            raise CatalogError(f"unknown parent table {parent!r}")
        remaining = [entry for entry in entries if entry.name != fragment_name]
        if len(remaining) == len(entries):
            raise CatalogError(f"{fragment_name!r} is not a fragment of {parent!r}")
        self._fragments[parent] = remaining
        self._tables.pop(fragment_name, None)
        self.stats.ddl_mutations += 1
