"""Unit tests for the system catalog and its cost accounting."""

import pytest

from repro.errors import CatalogError
from repro.storage.catalog import Catalog
from repro.storage.table import Column, Relation, Schema


def make_relation(name: str, rows: int = 3) -> Relation:
    schema = Schema([Column("a", "int")])
    return Relation.from_columns(name, schema, {"a": list(range(rows))})


class TestTables:
    def test_create_and_lookup(self):
        catalog = Catalog()
        relation = make_relation("t")
        catalog.create_table(relation)
        assert catalog.table("t") is relation

    def test_duplicate_create_raises(self):
        catalog = Catalog()
        catalog.create_table(make_relation("t"))
        with pytest.raises(CatalogError):
            catalog.create_table(make_relation("t"))

    def test_unknown_lookup_raises(self):
        with pytest.raises(CatalogError):
            Catalog().table("ghost")

    def test_drop(self):
        catalog = Catalog()
        catalog.create_table(make_relation("t"))
        catalog.drop_table("t")
        assert not catalog.has_table("t")

    def test_drop_unknown_raises(self):
        with pytest.raises(CatalogError):
            Catalog().drop_table("ghost")

    def test_table_names_sorted(self):
        catalog = Catalog()
        catalog.create_table(make_relation("zeta"))
        catalog.create_table(make_relation("alpha"))
        assert catalog.table_names() == ["alpha", "zeta"]

    def test_ddl_mutations_counted(self):
        catalog = Catalog()
        catalog.create_table(make_relation("t"))
        catalog.drop_table("t")
        assert catalog.stats.ddl_mutations == 2


class TestFragments:
    def test_register_fragment(self):
        catalog = Catalog()
        catalog.create_table(make_relation("parent"))
        entry = catalog.register_fragment("parent", make_relation("frag1"), "a < 5")
        assert entry.parent == "parent"
        assert catalog.has_table("frag1")

    def test_register_under_unknown_parent_raises(self):
        with pytest.raises(CatalogError):
            Catalog().register_fragment("ghost", make_relation("f"), "p")

    def test_fragment_name_collision_raises(self):
        catalog = Catalog()
        catalog.create_table(make_relation("parent"))
        catalog.create_table(make_relation("other"))
        with pytest.raises(CatalogError):
            catalog.register_fragment("parent", make_relation("other"), "p")

    def test_unregister_fragment(self):
        catalog = Catalog()
        catalog.create_table(make_relation("parent"))
        catalog.register_fragment("parent", make_relation("frag1"), "p")
        catalog.unregister_fragment("parent", "frag1")
        assert not catalog.has_table("frag1")

    def test_unregister_unknown_fragment_raises(self):
        catalog = Catalog()
        catalog.create_table(make_relation("parent"))
        with pytest.raises(CatalogError):
            catalog.unregister_fragment("parent", "ghost")

    def test_fragment_registration_is_ddl(self):
        catalog = Catalog()
        catalog.create_table(make_relation("parent"))
        before = catalog.stats.ddl_mutations
        catalog.register_fragment("parent", make_relation("f1"), "p")
        assert catalog.stats.ddl_mutations == before + 1
