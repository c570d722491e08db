"""Query canonicalization and fingerprinting for the serving layer.

A production workload is heavily skewed: the same handful of query
*shapes* arrives over and over, spelled slightly differently each time
(predicate order shuffled by client-side query builders, ``SELECT *``
vs. an explicit column list, redundant same-attribute comparisons).  To
share one plan-cache slot across every spelling, statements are lowered
to a canonical form before hashing:

- the WHERE clause is normalized — conjunct order is sorted by schema
  index (predicate order never changes conjunctive semantics), nested
  AND/OR nests are flattened, and OR branches are sorted by a canonical
  key;
- literals are bucketed onto the discretization grid: every bound is
  clamped into the attribute's domain ``1 .. K_i``, so ``temp <= 12``
  and ``temp <= 9`` on an 8-bucket domain collapse to the same range
  (the parser applies the same clamping, making the two statements
  genuinely equivalent);
- the projection list is resolved — ``SELECT *`` becomes the explicit
  schema-ordered column list it returns.

The resulting :class:`QueryFingerprint` is frozen and hashable; two
statements share a fingerprint iff they return the same columns and
accept the same tuples.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Generic, TypeVar

from repro.core.attributes import Schema
from repro.core.boolean import And, BooleanQuery, Formula, Leaf, Or
from repro.core.predicates import NotRangePredicate, Predicate
from repro.core.query import ConjunctiveQuery
from repro.engine.language import ParsedQuery, parse_query

__all__ = [
    "QueryFingerprint",
    "STATEMENT_MEMO_CAPACITY",
    "StatementMemo",
    "fingerprint_parsed",
    "fingerprint_statement",
]

# Texts a StatementMemo holds before it clears and starts over.
STATEMENT_MEMO_CAPACITY = 4096

V = TypeVar("V")


@dataclass(frozen=True)
class QueryFingerprint:
    """Canonical identity of a statement: projection + normalized WHERE.

    ``digest`` is a short stable hash of the canonical form, convenient
    as a log/metrics label; equality and hashing use the full canonical
    fields, so distinct queries never collide in a cache keyed by the
    fingerprint itself.
    """

    select: tuple[str, ...]
    where: str

    @property
    def digest(self) -> str:
        return _digest(self.select, self.where)

    def __str__(self) -> str:
        return self.digest


@lru_cache(maxsize=4096)
def _digest(select: tuple[str, ...], where: str) -> str:
    """The short hash behind :attr:`QueryFingerprint.digest`.

    Memoized on the canonical fields: a skewed workload stamps the same
    handful of digests onto metrics labels and trace events over and
    over, and the sha256 would otherwise be recomputed per event.
    """
    payload = f"SELECT {','.join(select)} WHERE {where}"
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _predicate_key(
    predicate: Predicate, schema: Schema
) -> tuple[int, int, int, int]:
    """Sort/identity key: (schema index, negated?, clamped bounds)."""
    index = schema.index_of(predicate.attribute)
    domain = schema[index].domain_size
    low = max(1, int(predicate.low))  # type: ignore[attr-defined]
    high = min(domain, int(predicate.high))  # type: ignore[attr-defined]
    negated = int(isinstance(predicate, NotRangePredicate))
    return (index, negated, low, high)


def _render_key(key: tuple[int, int, int, int], schema: Schema) -> str:
    index, negated, low, high = key
    name = schema[index].name
    body = f"{low}<={name}<={high}"
    return f"not({body})" if negated else body


def _canonical_formula(formula: Formula, schema: Schema) -> str:
    if isinstance(formula, Leaf):
        return _render_key(_predicate_key(formula.predicate, schema), schema)
    if isinstance(formula, (And, Or)):
        connective = " AND " if isinstance(formula, And) else " OR "
        parts = sorted(
            _flatten(formula, type(formula), schema)
        )
        return "(" + connective.join(parts) + ")"
    raise TypeError(f"unknown formula node {type(formula).__name__}")


def _flatten(formula: Formula, node_type: type, schema: Schema) -> list[str]:
    """Canonical child renderings, with same-type nests flattened."""
    parts: list[str] = []
    for child in formula.children:  # type: ignore[attr-defined]
        if isinstance(child, node_type):
            parts.extend(_flatten(child, node_type, schema))
        else:
            parts.append(_canonical_formula(child, schema))
    return parts


def _canonical_where(
    query: ConjunctiveQuery | BooleanQuery, schema: Schema
) -> str:
    if isinstance(query, ConjunctiveQuery):
        keys = sorted(
            _predicate_key(predicate, schema)
            for predicate in query.predicates
        )
        return " AND ".join(_render_key(key, schema) for key in keys)
    return _canonical_formula(query.formula, schema)


def fingerprint_parsed(
    parsed: ParsedQuery, schema: Schema
) -> QueryFingerprint:
    """Fingerprint of an already-parsed statement."""
    if parsed.select_all:
        select = schema.names
    else:
        select = tuple(parsed.select)
    return QueryFingerprint(
        select=select, where=_canonical_where(parsed.query, schema)
    )


def fingerprint_statement(text: str, schema: Schema) -> QueryFingerprint:
    """Parse ``text`` against ``schema`` and fingerprint it."""
    return fingerprint_parsed(parse_query(text, schema), schema)


class StatementMemo(Generic[V]):
    """Bounded exact-text memo: each statement text is loaded once.

    ``load`` maps text to the service's ``(ParsedQuery, QueryFingerprint)``
    or the front door's digest; both depend only on the schema, so entries
    survive statistics bumps.  A failing load raises on every call and is
    never memoised; a full memo clears and starts over.  Lookups share one
    value, so values must be immutable (all of the above are frozen).
    """

    __slots__ = ("_load", "_entries")

    def __init__(self, load: Callable[[str], V]) -> None:
        self._load = load
        self._entries: dict[str, V] = {}

    def lookup(self, text: str) -> V:
        value = self._entries.get(text)
        if value is None:
            value = self._load(text)
            if len(self._entries) >= STATEMENT_MEMO_CAPACITY:
                self._entries.clear()
            self._entries[text] = value
        return value
