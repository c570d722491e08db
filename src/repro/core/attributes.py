"""Attributes and schemas.

The paper models a query table of ``n`` attributes ``X_1 .. X_n`` where each
attribute takes values in a small discrete domain ``{1 .. K_i}`` and carries
an *acquisition cost* ``C_i`` — the energy/latency price of reading its value
for one tuple (Section 2.1).  :class:`Attribute` captures one such column and
:class:`Schema` an ordered collection of them.

Domains are 1-based to match the paper's notation; datasets handled by
:mod:`repro.probability.empirical` store values in ``1 .. K_i``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

from repro.exceptions import SchemaError

__all__ = ["Attribute", "Schema"]


@dataclass(frozen=True)
class Attribute:
    """A single named column with a discrete domain and an acquisition cost.

    Parameters
    ----------
    name:
        Unique attribute name within a schema (e.g. ``"light"``).
    domain_size:
        Number of discrete values the attribute can take; values range over
        ``1 .. domain_size`` inclusive.  Real-valued sensors are discretized
        onto this domain by :mod:`repro.data.discretize`.
    cost:
        Acquisition cost :math:`C_i` of reading one value.  The paper uses
        100 units for expensive sensors (light, temperature, humidity) and
        1 unit for cheap metadata (node id, hour, voltage).
    """

    name: str
    domain_size: int
    cost: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("attribute name must be non-empty")
        if self.domain_size < 1:
            raise SchemaError(
                f"attribute {self.name!r}: domain_size must be >= 1, "
                f"got {self.domain_size}"
            )
        if self.cost < 0:
            raise SchemaError(
                f"attribute {self.name!r}: cost must be >= 0, got {self.cost}"
            )

    @property
    def values(self) -> range:
        """Iterable over the attribute's domain ``1 .. K_i``."""
        return range(1, self.domain_size + 1)


@dataclass(frozen=True)
class Schema:
    """An ordered, immutable collection of :class:`Attribute` objects.

    The schema fixes the attribute indexing used throughout the library:
    planners, distributions, and datasets all refer to attributes by their
    position in the schema.
    """

    attributes: tuple[Attribute, ...]
    _index: Mapping[str, int] = field(init=False, repr=False, compare=False)
    names: tuple[str, ...] = field(init=False, repr=False, compare=False)
    domain_sizes: tuple[int, ...] = field(init=False, repr=False, compare=False)
    costs: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __init__(self, attributes: Iterable[Attribute]) -> None:
        attrs = tuple(attributes)
        if not attrs:
            raise SchemaError("schema must contain at least one attribute")
        index: dict[str, int] = {}
        for position, attribute in enumerate(attrs):
            if attribute.name in index:
                raise SchemaError(f"duplicate attribute name {attribute.name!r}")
            index[attribute.name] = position
        object.__setattr__(self, "attributes", attrs)
        object.__setattr__(self, "_index", index)
        # Attribute names in schema order, their domain sizes ``K_i`` and
        # acquisition costs ``C_i``: built once, read on every request.
        object.__setattr__(self, "names", tuple(a.name for a in attrs))
        object.__setattr__(
            self, "domain_sizes", tuple(a.domain_size for a in attrs)
        )
        object.__setattr__(self, "costs", tuple(a.cost for a in attrs))

    def __len__(self) -> int:
        return len(self.attributes)

    def __iter__(self) -> Iterator[Attribute]:
        return iter(self.attributes)

    def __getitem__(self, key: int | str) -> Attribute:
        if isinstance(key, str):
            return self.attributes[self.index_of(key)]
        return self.attributes[key]

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and name in self._index

    def index_of(self, name: str) -> int:
        """Return the position of the attribute called ``name``.

        Raises :class:`~repro.exceptions.SchemaError` for unknown names so
        that typos surface immediately rather than as index errors later.
        """
        try:
            return self._index[name]
        except KeyError:
            raise SchemaError(f"unknown attribute {name!r}") from None

    def validate_tuple(self, values: Iterable[int]) -> tuple[int, ...]:
        """Check a tuple of attribute values against the schema.

        Returns the values as a tuple; raises
        :class:`~repro.exceptions.SchemaError` when the arity is wrong or a
        value falls outside its attribute's domain.
        """
        row = tuple(int(value) for value in values)
        if len(row) != len(self.attributes):
            raise SchemaError(
                f"tuple has {len(row)} values but schema has "
                f"{len(self.attributes)} attributes"
            )
        for attribute, value in zip(self.attributes, row):
            if not 1 <= value <= attribute.domain_size:
                raise SchemaError(
                    f"value {value} out of domain [1, {attribute.domain_size}] "
                    f"for attribute {attribute.name!r}"
                )
        return row
