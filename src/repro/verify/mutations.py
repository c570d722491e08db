"""Known-bad plan mutations: the verifier's self-test corpus.

A verifier that silently passes broken plans is worse than none, so the
verifier ships with its own negative controls: each
:class:`MutationCase` seeds one specific defect class into an otherwise
correct plan — dropped conjunct, flipped verdict, overlapping split
ranges, out-of-bounds bytecode offset, wrong ``size_bytes`` — and names
the documented error code the verifier must report for it.  The one
corpus runner (:func:`repro.corpus.run_corpus`, family ``plan``) and
``tests/test_verifier_mutations.py`` assert every case is caught with
that code.  The canonical plans and :func:`leaf_for` are shared with
the dataflow corpus (:mod:`repro.analysis.mutations`) and reused by the
property tests as known-clean baselines.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.core.plan import (
    ConditionNode,
    PlanNode,
    SequentialNode,
    SequentialStep,
    VerdictLeaf,
)
from repro.core.predicates import RangePredicate, Truth
from repro.core.query import ConjunctiveQuery
from repro.core.ranges import RangeVector
from repro.exceptions import QueryError
from repro.execution.bytecode import compile_plan

__all__ = [
    "MutationCase",
    "plan_mutations",
    "bytecode_mutations",
    "canonical_sequential_plan",
    "canonical_conditional_plan",
    "leaf_for",
    "require_mutable_query",
]


@dataclass(frozen=True)
class MutationCase:
    """One seeded defect and the error code that must catch it."""

    name: str
    description: str
    expected_code: str
    plan: PlanNode | None = None
    code: bytes | None = None


def require_mutable_query(query: ConjunctiveQuery) -> None:
    """The corpus needs room to mutate; reject degenerate queries early."""
    if len(query.predicates) < 2:
        raise QueryError("mutation corpus needs a query with >= 2 predicates")
    first = query.predicates[0]
    index = query.attribute_indices[0]
    domain = query.schema[index].domain_size
    if not isinstance(first, RangePredicate) or not 2 <= first.low <= first.high < domain:
        raise QueryError(
            "mutation corpus needs a first predicate low >= 2 and "
            "high < domain so both split branches are meaningful"
        )


def leaf_for(query: ConjunctiveQuery, ranges: RangeVector) -> PlanNode:
    """The correct leaf for a context: verdict if decided, else the
    remaining conjuncts in predicate order."""
    truth = query.truth_under(ranges)
    if truth is not Truth.UNDETERMINED:
        return VerdictLeaf(verdict=truth is Truth.TRUE)
    return SequentialNode(
        steps=tuple(
            SequentialStep(predicate=predicate, attribute_index=index)
            for predicate, index in query.undetermined_predicates(ranges)
        )
    )


def canonical_sequential_plan(query: ConjunctiveQuery) -> SequentialNode:
    """The Naive plan: every conjunct in predicate order — verifier-clean."""
    steps = tuple(
        SequentialStep(predicate=predicate, attribute_index=index)
        for predicate, index in zip(query.predicates, query.attribute_indices)
    )
    return SequentialNode(steps=steps)


def canonical_conditional_plan(query: ConjunctiveQuery) -> ConditionNode:
    """A correct one-split plan: condition the first predicate's attribute
    at its lower bound, so the below branch proves the query FALSE."""
    require_mutable_query(query)
    predicate = query.predicates[0]
    assert isinstance(predicate, RangePredicate)
    index = query.attribute_indices[0]
    full = RangeVector.full(query.schema)
    below_ranges, above_ranges = full.split(index, predicate.low)
    return ConditionNode(
        attribute=predicate.attribute,
        attribute_index=index,
        split_value=predicate.low,
        below=leaf_for(query, below_ranges),
        above=leaf_for(query, above_ranges),
    )


def plan_mutations(query: ConjunctiveQuery) -> list[MutationCase]:
    """Seeded plan-tree defects, one per semantic/range rule."""
    require_mutable_query(query)
    schema = query.schema
    sequential = canonical_sequential_plan(query)
    steps = sequential.steps
    first_predicate = query.predicates[0]
    assert isinstance(first_predicate, RangePredicate)
    first_index = query.attribute_indices[0]
    full = RangeVector.full(schema)
    below_ranges, _above_ranges = full.split(first_index, first_predicate.low)

    last = steps[-1]
    foreign_bound = 1 if getattr(last.predicate, "low", 1) != 1 else 2
    foreign = SequentialStep(
        predicate=RangePredicate(
            attribute=last.predicate.attribute,
            low=1,
            high=foreign_bound,
        ),
        attribute_index=last.attribute_index,
    )

    conditional = canonical_conditional_plan(query)
    overlapping_inner = ConditionNode(
        attribute=conditional.attribute,
        attribute_index=conditional.attribute_index,
        split_value=conditional.split_value,
        below=leaf_for(query, below_ranges),
        above=leaf_for(query, below_ranges),
    )

    return [
        MutationCase(
            name="dropped-conjunct",
            description="leaf omits the query's last predicate",
            expected_code="SEM001",
            plan=SequentialNode(steps=steps[:-1]),
        ),
        MutationCase(
            name="duplicate-step",
            description="leaf tests the first predicate twice",
            expected_code="SEM002",
            plan=SequentialNode(steps=steps + (steps[0],)),
        ),
        MutationCase(
            name="foreign-predicate",
            description="leaf swaps the last conjunct for a different range",
            expected_code="SEM003",
            plan=SequentialNode(steps=steps[:-1] + (foreign,)),
        ),
        MutationCase(
            name="flipped-verdict",
            description="TRUE verdict on a branch that proves the query FALSE",
            expected_code="SEM006",
            plan=ConditionNode(
                attribute=conditional.attribute,
                attribute_index=conditional.attribute_index,
                split_value=conditional.split_value,
                below=VerdictLeaf(verdict=True),
                above=conditional.above,
            ),
        ),
        MutationCase(
            name="unjustified-verdict",
            description="verdict leaf while every conjunct is still open",
            expected_code="SEM005",
            plan=VerdictLeaf(verdict=True),
        ),
        MutationCase(
            name="overlapping-split",
            description="below branch re-splits the same attribute at the "
            "same value, outside its own range context",
            expected_code="DF004",
            plan=ConditionNode(
                attribute=conditional.attribute,
                attribute_index=conditional.attribute_index,
                split_value=conditional.split_value,
                below=overlapping_inner,
                above=conditional.above,
            ),
        ),
    ]


def bytecode_mutations(query: ConjunctiveQuery) -> list[MutationCase]:
    """Seeded wire-format defects, patched into a compiled correct plan.

    The canonical conditional plan compiles to a condition node at offset
    0 (head byte, split ``u16`` at 1, below offset ``u16`` at 3, above
    offset ``u16`` at 5) — the patches below poke those fields directly.
    """
    baseline = compile_plan(canonical_conditional_plan(query))

    def patched(offset: int, fmt: str, *values: int) -> bytes:
        code = bytearray(baseline)
        struct.pack_into(fmt, code, offset, *values)
        return bytes(code)

    below_offset = struct.unpack_from(">H", baseline, 3)[0]

    return [
        MutationCase(
            name="oob-offset",
            description="above-child offset points past the end of the plan",
            expected_code="BC001",
            code=patched(5, ">H", len(baseline) + 16),
        ),
        MutationCase(
            name="cycle",
            description="below-child offset points back at the root",
            expected_code="BC002",
            code=patched(3, ">H", 0),
        ),
        MutationCase(
            name="shared-node",
            description="both children resolve to the same node",
            expected_code="BC004",
            code=patched(5, ">H", below_offset),
        ),
        MutationCase(
            name="wrong-size",
            description="trailing padding breaks len(code) == size_bytes()",
            expected_code="BC005",
            code=baseline + b"\x00\x00\x00",
        ),
        MutationCase(
            name="truncated",
            description="final byte lost in transit",
            expected_code="BC001",
            code=baseline[:-1],
        ),
        MutationCase(
            name="unknown-kind",
            description="root head byte mangled to the reserved kind 3",
            expected_code="BC006",
            code=patched(0, ">B", 0xC0),
        ),
        MutationCase(
            name="bad-split",
            description="split value zeroed below the domain minimum",
            expected_code="RNG003",
            code=patched(1, ">H", 0),
        ),
    ]
