"""The per-plan leaf-charge table against the walker's per-leaf derivation.

A prepared statement builds its :func:`~repro.core.cost.projection_charges`
table once, and :func:`~repro.core.cost.dataset_execution` charges every
row reaching a leaf from it.  :mod:`tests.projection_reference` keeps the
walker that derived each reached leaf's unread-SELECT charge per call.
On random conditional and sequential plans (repeated attributes, negated
ranges, empty step lists), SELECT lists (``*``, duplicates, columns a
path read and did not read) and reading dtypes, both walkers must agree
on every row's cost, verdict and projection charge, float for float.
A warm statement builds its table and its SELECT indices once.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Attribute,
    ConditionNode,
    RangePredicate,
    Schema,
    SequentialNode,
    SequentialStep,
    VerdictLeaf,
    dataset_execution,
)
from repro.core.cost import projection_charges
from repro.core.cost_models import BoardAwareCostModel
from repro.core.predicates import NotRangePredicate
from repro.engine import AcquisitionalEngine
from repro.engine import engine as engine_module
from repro.planning.corrseq import CorrSeqPlanner
from repro.service import AcquisitionalService

from tests.conftest import correlated_dataset
from tests.projection_reference import reference_dataset_execution

DOMAIN = 6
# Costs whose sums round in binary, so summation order shows; one is free.
SCHEMA = Schema(
    Attribute(name, DOMAIN, cost)
    for name, cost in zip("abcde", (0.1, 100.3, 0.0, 33.3, 0.7))
)
INDICES = st.integers(min_value=0, max_value=len(SCHEMA) - 1)
DTYPES = (np.int64, np.int32, np.uint8, np.float64)


@st.composite
def steps(draw) -> SequentialStep:
    index = draw(INDICES)
    kind = draw(st.sampled_from([RangePredicate, NotRangePredicate]))
    low = draw(st.integers(min_value=1, max_value=DOMAIN))
    high = draw(st.integers(min_value=low, max_value=DOMAIN))
    predicate = kind(attribute=SCHEMA[index].name, low=low, high=high)
    return SequentialStep(predicate=predicate, attribute_index=index)


leaves = st.one_of(
    st.builds(VerdictLeaf, verdict=st.booleans()),
    # Steps may repeat an attribute, or one the path already read.
    st.builds(SequentialNode, steps=st.lists(steps(), max_size=4).map(tuple)),
)


@st.composite
def conditions(draw, children) -> ConditionNode:
    index = draw(INDICES)
    return ConditionNode(
        attribute=SCHEMA[index].name,
        attribute_index=index,
        split_value=draw(st.integers(min_value=2, max_value=DOMAIN)),
        below=draw(children),
        above=draw(children),
    )


plans = st.recursive(leaves, conditions, max_leaves=10)
selects = st.one_of(
    st.just(tuple(range(len(SCHEMA)))),  # SELECT *
    st.lists(INDICES, min_size=1, max_size=7).map(tuple),  # duplicates too
)


@st.composite
def readings(draw) -> np.ndarray:
    rows = draw(st.integers(min_value=0, max_value=48))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    dtype = draw(st.sampled_from(DTYPES))
    values = np.random.default_rng(seed).integers(1, DOMAIN + 1, (rows, len(SCHEMA)))
    return values.astype(dtype)


def hexes(values: np.ndarray) -> list[str]:
    return [float(value).hex() for value in values.tolist()]


@settings(max_examples=300, deadline=None)
@given(plan=plans, select=selects, matrix=readings(), board=st.booleans())
def test_walker_charges_leaves_as_the_reference(plan, select, matrix, board):
    model = None
    if board:
        model = BoardAwareCostModel(
            SCHEMA, {1: "weather", 3: "weather"}, power_up_cost=80.3, per_read_cost=0.7
        )
    charges = projection_charges(plan, SCHEMA, select)
    new = dataset_execution(plan, matrix, SCHEMA, model, leaf_charges=charges)
    old = reference_dataset_execution(plan, matrix, SCHEMA, select, model)
    assert hexes(new.projection) == hexes(old.projection)
    assert hexes(new.costs) == hexes(old.costs)
    assert np.array_equal(new.verdicts, old.verdicts)


def test_table_has_one_entry_per_leaf_path():
    step = SequentialStep(RangePredicate("b", 2, 4), 1)
    plan = ConditionNode(
        "a", 0, 3,
        below=SequentialNode((step, step)),
        above=ConditionNode(
            "b", 1, 4, below=VerdictLeaf(False), above=SequentialNode(())
        ),
    )
    charges = projection_charges(plan, SCHEMA, (1, 3, 1, 2))
    assert charges == {
        "root/below": 0 + 33.3 + 0.0,
        "root/above/below": 0 + 33.3 + 0.0,
        "root/above/above": 0 + 33.3 + 0.0,
    }
    assert projection_charges(plan, SCHEMA, (0,)) == dict.fromkeys(charges, 0)


@pytest.fixture
def counted(monkeypatch):
    """Counts of leaf-table builds and of schema name lookups."""
    counts = {"tables": 0, "lookups": 0}
    build, index_of = engine_module.projection_charges, Schema.index_of

    def counting_build(*args):
        counts["tables"] += 1
        return build(*args)

    def counting_index_of(self, name):
        counts["lookups"] += 1
        return index_of(self, name)

    monkeypatch.setattr(engine_module, "projection_charges", counting_build)
    monkeypatch.setattr(Schema, "index_of", counting_index_of)
    return counts


@pytest.mark.parametrize("front", ["engine", "service"])
@pytest.mark.parametrize("select", ["SELECT *", "SELECT c, a, c"])
def test_warm_executes_build_the_table_and_indices_once(counted, front, select):
    schema, rows = correlated_dataset(n_rows=900, seed=13)
    engine = AcquisitionalEngine(
        schema, rows[:600], planner_factory=lambda d: CorrSeqPlanner(d)
    )
    runner = engine if front == "engine" else AcquisitionalService(engine)
    text = f"{select} WHERE mode <= 2 AND a <= 2"
    first = runner.execute(text, rows[600:700])
    assert counted["tables"] == 1
    counted["lookups"] = 0
    for offset in range(700, 900, 20):
        result = runner.execute(text, rows[offset : offset + 20])
        assert result.columns == first.columns
    assert counted == {"tables": 1, "lookups": 0}
