"""Unit tests for attributes and schemas."""

import pickle

import pytest

from repro.core import Attribute, Schema
from repro.exceptions import SchemaError


class TestAttribute:
    def test_basic_construction(self):
        attribute = Attribute("light", 16, 100.0)
        assert attribute.name == "light"
        assert attribute.domain_size == 16
        assert attribute.cost == 100.0

    def test_default_cost_is_one(self):
        assert Attribute("hour", 24).cost == 1.0

    def test_values_span_domain(self):
        attribute = Attribute("x", 4)
        assert list(attribute.values) == [1, 2, 3, 4]

    def test_zero_cost_allowed(self):
        assert Attribute("free", 2, 0.0).cost == 0.0

    def test_empty_name_rejected(self):
        with pytest.raises(SchemaError):
            Attribute("", 4)

    def test_nonpositive_domain_rejected(self):
        with pytest.raises(SchemaError):
            Attribute("x", 0)

    def test_negative_cost_rejected(self):
        with pytest.raises(SchemaError):
            Attribute("x", 4, -1.0)

    def test_frozen(self):
        attribute = Attribute("x", 4)
        with pytest.raises(AttributeError):
            attribute.cost = 5.0


class TestSchema:
    def make(self) -> Schema:
        return Schema(
            [Attribute("a", 2, 1.0), Attribute("b", 3, 10.0), Attribute("c", 4, 100.0)]
        )

    def test_length_and_iteration(self):
        schema = self.make()
        assert len(schema) == 3
        assert [attribute.name for attribute in schema] == ["a", "b", "c"]

    def test_lookup_by_index_and_name(self):
        schema = self.make()
        assert schema[1].name == "b"
        assert schema["c"].domain_size == 4

    def test_index_of(self):
        assert self.make().index_of("b") == 1

    def test_index_of_unknown_raises(self):
        with pytest.raises(SchemaError, match="unknown attribute"):
            self.make().index_of("nope")

    def test_contains(self):
        schema = self.make()
        assert "a" in schema
        assert "z" not in schema
        assert 0 not in schema  # only names are members

    def test_names_domains_costs(self):
        schema = self.make()
        assert schema.names == ("a", "b", "c")
        assert schema.domain_sizes == (2, 3, 4)
        assert schema.costs == (1.0, 10.0, 100.0)

    def test_cached_tuples_leave_identity_alone(self):
        """The per-attribute tuples are built once and take no part in
        equality, hashing, repr or pickling."""
        schema = self.make()
        assert schema.costs is schema.costs
        assert schema.names is schema.names
        assert schema == self.make() and hash(schema) == hash(self.make())
        assert repr(schema).count("Attribute(") == 3
        assert "costs" not in repr(schema)
        restored = pickle.loads(pickle.dumps(schema))
        assert restored == schema
        assert restored.domain_sizes == schema.domain_sizes

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError, match="duplicate"):
            Schema([Attribute("a", 2), Attribute("a", 3)])

    def test_empty_schema_rejected(self):
        with pytest.raises(SchemaError):
            Schema([])

    def test_validate_tuple_ok(self):
        assert self.make().validate_tuple([1, 3, 4]) == (1, 3, 4)

    def test_validate_tuple_wrong_arity(self):
        with pytest.raises(SchemaError, match="values"):
            self.make().validate_tuple([1, 2])

    def test_validate_tuple_out_of_domain(self):
        with pytest.raises(SchemaError, match="out of domain"):
            self.make().validate_tuple([1, 4, 4])

    def test_validate_tuple_below_domain(self):
        with pytest.raises(SchemaError, match="out of domain"):
            self.make().validate_tuple([0, 1, 1])
