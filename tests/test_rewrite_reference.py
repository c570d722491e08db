"""``optimize_plan`` against its reference arm on random small plans.

The rewriter reads its facts from one ``analyze_plan`` pass;
:mod:`tests.rewrite_reference` keeps the walk that threaded its own
abstract state.  On every plan, schema-free or not, with or without a
narrowed root context and under no query, a conjunctive query or a
boolean one, both must return the same plan.
"""

from __future__ import annotations

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.analysis import optimize_plan
from repro.core import (
    Attribute,
    ConditionNode,
    ConjunctiveQuery,
    RangePredicate,
    RangeVector,
    Schema,
    SequentialNode,
    SequentialStep,
    VerdictLeaf,
)
from repro.core.boolean import And, BooleanQuery, Leaf, Or
from repro.core.predicates import NotRangePredicate
from repro.core.ranges import Range

from tests.rewrite_reference import reference_optimize_plan

DOMAIN = 6
SCHEMA = Schema([Attribute(name, DOMAIN, 1.0 + i) for i, name in enumerate("abc")])
# One index past each end of the schema: out-of-schema splits and steps.
INDICES = st.integers(min_value=-1, max_value=len(SCHEMA))


def _name(index: int) -> str:
    return SCHEMA[index].name if 0 <= index < len(SCHEMA) else "ghost"


@st.composite
def windows(draw) -> tuple[int, int]:
    low = draw(st.integers(min_value=1, max_value=DOMAIN))
    return low, draw(st.integers(min_value=low, max_value=DOMAIN))


@st.composite
def predicates(draw, index: int):
    # Not-range windows land inside an interval, clip one end or cover it.
    kind = draw(st.sampled_from([RangePredicate, NotRangePredicate]))
    low, high = draw(windows())
    return kind(attribute=_name(index), low=low, high=high)


@st.composite
def steps(draw) -> SequentialStep:
    index = draw(INDICES)
    return SequentialStep(predicate=draw(predicates(index)), attribute_index=index)


leaves = st.one_of(
    st.builds(VerdictLeaf, verdict=st.booleans()),
    st.builds(SequentialNode, steps=st.lists(steps(), max_size=3).map(tuple)),
)


@st.composite
def conditions(draw, children) -> ConditionNode:
    index = draw(INDICES)
    return ConditionNode(
        attribute=_name(index),
        attribute_index=index,
        # Splits past the domain maximum route every tuple below.
        split_value=draw(st.integers(min_value=2, max_value=DOMAIN + 1)),
        below=draw(children),
        above=draw(children),
    )


plans = st.recursive(leaves, conditions, max_leaves=8)


@st.composite
def queries(draw):
    kind = draw(st.sampled_from(["none", "conjunctive", "boolean"]))
    if kind == "none":
        return None
    # A boolean formula may test one attribute twice: its truth over a
    # split's two sides then need not hold over their union, and the
    # rewriter's gate and its retry without query subsumption run.
    indices = draw(
        st.lists(
            st.integers(min_value=0, max_value=len(SCHEMA) - 1),
            min_size=1,
            max_size=len(SCHEMA),
            unique=kind == "conjunctive",
        )
    )
    chosen = [draw(predicates(index)) for index in indices]
    if kind == "conjunctive":
        return ConjunctiveQuery(SCHEMA, chosen)
    formula = Leaf(chosen[0])
    for predicate in chosen[1:]:
        combine = draw(st.sampled_from([And, Or]))
        formula = combine(formula, Leaf(predicate))
    return BooleanQuery(SCHEMA, formula)


@st.composite
def root_ranges(draw) -> RangeVector | None:
    if draw(st.booleans()):
        return None
    index = draw(st.integers(min_value=0, max_value=len(SCHEMA) - 1))
    low, high = draw(windows())
    return RangeVector.full(SCHEMA).with_range(index, Range(low, high))


def _split(index: int, value: int, below, above) -> ConditionNode:
    return ConditionNode(
        attribute=_name(index),
        attribute_index=index,
        split_value=value,
        below=below,
        above=above,
    )


# Query subsumption turns both sides of the split on ``a`` into TRUE
# verdicts, which collapse into one TRUE verdict where the interval facts
# leave the query open (SEM005): the gate rejects that, and the retry
# without subsumption keeps only the dropped always-true step.
_SUBSUMPTION_REJECTED = (
    _split(
        0,
        4,
        VerdictLeaf(True),
        SequentialNode(
            steps=(
                SequentialStep(RangePredicate("a", 4, 6), attribute_index=0),
                SequentialStep(RangePredicate("b", 1, 2), attribute_index=1),
            )
        ),
    ),
    BooleanQuery(
        SCHEMA, Or(Leaf(RangePredicate("a", 1, 3)), Leaf(RangePredicate("a", 4, 6)))
    ),
    None,
)


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(plan=plans, query=queries(), ranges=root_ranges())
@example(*_SUBSUMPTION_REJECTED)
def test_optimize_plan_matches_the_reference_walk(plan, query, ranges):
    assert optimize_plan(plan, SCHEMA, query=query, ranges=ranges) == (
        reference_optimize_plan(plan, SCHEMA, query=query, ranges=ranges)
    )
    assert optimize_plan(plan) == reference_optimize_plan(plan)
