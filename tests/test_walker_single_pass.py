"""Single-pass walker: one plan walk per request, identical to two.

The engine used to walk a plan twice per request: the walker
(:func:`~repro.core.cost.dataset_execution`) added each node's charge
to every routed row, and ``Engine._projection_extra`` walked the
matching rows again to price the SELECT attributes their paths left
unread.  The walker now carries a path's charge down as one float,
writes it where a row stops, and prices the SELECT list at the leaves
in the same walk.  Both old walks are kept here verbatim as the oracles
(the projection walk takes the engine as ``self``).  Over every planner,
reading dtype, SELECT shape, cost model and window shape, row costs,
verdicts, observer events, the ``reads`` matrix and ``projection_cost``
must come out bit-identical, the last also under fault degradation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    Attribute,
    RangePredicate,
    Schema,
    VerdictLeaf,
    dataset_execution,
)
from repro.core.cost import (
    DatasetExecution,
    ExecutionObserver,
    predicate_mask,
)
from repro.core.cost_models import AcquisitionCostModel, BoardAwareCostModel
from repro.core.plan import (
    ConditionNode,
    PlanNode,
    SequentialNode,
    SequentialStep,
)
from repro.engine import AcquisitionalEngine
from repro.engine.engine import PreparedQuery
from repro.exceptions import PlanError
from repro.faults import DegradationMode, FaultPolicy, FaultSchedule
from repro.faults.executor import FaultTolerantExecutor

from tests.conftest import correlated_dataset
from tests.test_differential_exec import PLANNERS

WHERE = "WHERE mode <= 2 AND a <= 2 AND b >= 3"
DISJUNCTIVE = "WHERE mode <= 1 OR a >= 5"
SELECTS = {
    "star": "SELECT *",
    "narrow": "SELECT c",
    "duplicate": "SELECT a, c, a, mode",
}
DTYPES = (np.int64, np.int32, np.uint8, np.float64)
WINDOWS = ("full", "empty", "zero-match")
# Flat schema costs, or board-shared power-up under BoardAwareCostModel.
COSTS = ("flat", "board")


# The walker as it was: each node adds its charge to every routed row.
def old_dataset_execution(
    plan: PlanNode,
    data: np.ndarray,
    schema: Schema,
    cost_model: AcquisitionCostModel | None = None,
    observer: ExecutionObserver | None = None,
    reads: np.ndarray | None = None,
) -> DatasetExecution:
    """Run a plan over every row of ``data`` with vectorized tree routing.

    Rows are pushed down the plan tree in batches: a condition node charges
    its attribute cost to every routed row that has not acquired the
    attribute on its path, then partitions the batch by the split test; a
    sequential node walks its predicate order with a shrinking "alive" set.
    The result carries per-row costs (Equation 1 applied to every tuple) and
    per-row verdicts.

    ``observer`` (when given) receives one event per visited node batch —
    see :class:`ExecutionObserver`; node batches with zero routed rows are
    skipped entirely and produce no events.

    ``reads`` (when given) is a rows-by-attributes boolean matrix that
    receives ``True`` wherever a row's walk acquired an attribute.
    """
    matrix = np.asarray(data)
    if matrix.ndim != 2 or matrix.shape[1] != len(schema):
        raise PlanError(
            f"data shape {matrix.shape} incompatible with schema of "
            f"{len(schema)} attributes"
        )
    attribute_costs = schema.costs
    row_costs = np.zeros(matrix.shape[0], dtype=np.float64)
    verdicts = np.zeros(matrix.shape[0], dtype=bool)

    def charge(index: int, acquired: frozenset[int] | set[int]) -> float:
        if cost_model is None:
            return attribute_costs[index]
        return cost_model.cost(index, acquired)

    def walk(
        node: PlanNode, rows: np.ndarray, acquired: frozenset[int], path: str
    ) -> None:
        if rows.size == 0:
            return
        if isinstance(node, VerdictLeaf):
            verdicts[rows] = node.verdict
            if observer is not None:
                observer.on_verdict(path, node, int(rows.size))
            return
        if isinstance(node, ConditionNode):
            index = node.attribute_index
            charged = index not in acquired
            if charged:
                row_costs[rows] += charge(index, acquired)
                acquired = acquired | {index}
                if reads is not None:
                    reads[rows, index] = True
            column = matrix[rows, index]
            below = column < node.split_value
            below_rows = rows[below]
            if observer is not None:
                observer.on_condition(
                    path, node, int(rows.size), int(below_rows.size), charged
                )
            walk(node.below, below_rows, acquired, path + "/below")
            walk(node.above, rows[~below], acquired, path + "/above")
            return
        if isinstance(node, SequentialNode):
            if observer is not None:
                observer.on_sequential(path, node, int(rows.size))
            alive = rows
            mutable_acquired = set(acquired)
            for position, step in enumerate(node.steps):
                if alive.size == 0:
                    break
                index = step.attribute_index
                charged = index not in mutable_acquired
                if charged:
                    row_costs[alive] += charge(index, mutable_acquired)
                    mutable_acquired.add(index)
                    if reads is not None:
                        reads[alive, index] = True
                satisfied = predicate_mask(step.predicate, matrix[alive, index])
                surviving = alive[satisfied]
                if observer is not None:
                    observer.on_step(
                        path,
                        node,
                        position,
                        int(alive.size),
                        int(surviving.size),
                        charged,
                    )
                verdicts[alive[~satisfied]] = False
                alive = surviving
            verdicts[alive] = True
            return
        raise PlanError(f"unknown plan node type {type(node).__name__}")

    walk(plan, np.arange(matrix.shape[0]), frozenset(), "root")
    return DatasetExecution(costs=row_costs, verdicts=verdicts)


# ``Engine._projection_extra`` as it was: a second walk over the matching rows.
def old_projection_extra(
    self: AcquisitionalEngine,
    prepared: PreparedQuery,
    matrix: np.ndarray,
    verdicts: np.ndarray,
) -> np.ndarray:
    """Per-row cost of acquiring selected attributes post-WHERE.

    Attributes the WHERE plan read on a tuple's path are free; only
    unread ones cost extra.  Only matching rows reach projection, and
    a matching row passed every step of its sequential leaf, so only
    condition nodes route and a leaf has read all its step attributes.
    """
    select_indices = prepared.select
    extra = np.zeros(matrix.shape[0], dtype=np.float64)
    costs = self._schema.costs

    def walk(
        node: PlanNode, rows: np.ndarray, acquired: frozenset[int]
    ) -> None:
        if rows.size == 0:
            return
        if isinstance(node, ConditionNode):
            branch_acquired = acquired | {node.attribute_index}
            below = matrix[rows, node.attribute_index] < node.split_value
            walk(node.below, rows[below], branch_acquired)
            walk(node.above, rows[~below], branch_acquired)
            return
        if isinstance(node, SequentialNode):
            acquired = acquired.union(
                step.attribute_index for step in node.steps
            )
        unread = [
            index for index in select_indices if index not in acquired
        ]
        if unread:
            extra[rows] = sum(costs[index] for index in unread)

    walk(prepared.plan, np.flatnonzero(verdicts), frozenset())
    return extra


class Recorder:
    """An observer that keeps every event in arrival order."""

    def __init__(self) -> None:
        self.events: list[tuple] = []

    def on_condition(self, path, node, visits, below, acquired):
        self.events.append(("condition", path, node, visits, below, acquired))

    def on_sequential(self, path, node, visits):
        self.events.append(("sequential", path, node, visits))

    def on_step(self, path, node, step_index, evaluated, passed, acquired):
        self.events.append(
            ("step", path, node, step_index, evaluated, passed, acquired)
        )

    def on_verdict(self, path, node, visits):
        self.events.append(("verdict", path, node, visits))


def fractional_schema(schema: Schema, costs=(0.1, 100.3, 33.3, 0.7)) -> Schema:
    """The same attributes at costs whose sums round in binary."""
    return Schema(
        Attribute(attribute.name, attribute.domain_size, cost)
        for attribute, cost in zip(schema, costs)
    )


@pytest.fixture(scope="module")
def data():
    schema, rows = correlated_dataset(n_rows=900, seed=29)
    return schema, rows[:600], rows[600:]


@pytest.fixture(
    scope="module",
    params=[
        (planner, costs)
        for planner in sorted(PLANNERS)
        for costs in ("integral", "fractional")
    ],
    ids=lambda param: "-".join(param),
)
def engine(request, data):
    schema, train, _live = data
    planner, costs = request.param
    if costs == "fractional":
        schema = fractional_schema(schema)
    return AcquisitionalEngine(schema, train, planner_factory=PLANNERS[planner])


def window_of(live: np.ndarray, window: str, dtype) -> np.ndarray:
    if window == "empty":
        live = live[:0]
    elif window == "zero-match":
        live = live[live[:, 0] > 2]  # mode > 2 fails both statements
    return live.astype(dtype)


def cost_model(schema: Schema, name: str) -> AcquisitionCostModel | None:
    if name == "board":
        return BoardAwareCostModel(
            schema, {1: "weather", 2: "weather"}, power_up_cost=80.3,
            per_read_cost=0.7,
        )
    return None


def assert_walks_match(engine, prepared, matrix, model=None):
    """Both walks over ``matrix``: every per-row output and event agrees."""
    schema = engine.schema
    old_events, new_events = Recorder(), Recorder()
    old_reads = np.zeros(matrix.shape, dtype=bool)
    new_reads = np.zeros(matrix.shape, dtype=bool)
    old = old_dataset_execution(
        prepared.plan, matrix, schema, model, old_events, old_reads
    )
    new = dataset_execution(
        prepared.plan, matrix, schema, model, new_events, new_reads,
        leaf_charges=prepared.leaf_charges,
    )
    assert new.costs.tobytes() == old.costs.tobytes()
    assert np.array_equal(new.verdicts, old.verdicts)
    assert new_events.events == old_events.events
    assert np.array_equal(new_reads, old_reads)
    bare = dataset_execution(prepared.plan, matrix, schema, model)
    assert bare.projection is None
    assert bare.costs.tobytes() == old.costs.tobytes()
    extra = old_projection_extra(engine, prepared, matrix, old.verdicts)
    matching = np.flatnonzero(old.verdicts)
    assert new.projection[matching].tobytes() == extra[matching].tobytes()


@pytest.mark.parametrize("window", WINDOWS)
@pytest.mark.parametrize("dtype", DTYPES, ids=lambda t: np.dtype(t).name)
@pytest.mark.parametrize("costs", COSTS)
def test_walker_matches_two_walks(engine, data, costs, dtype, window):
    matrix = window_of(data[2], window, dtype)
    model = cost_model(engine.schema, costs)
    for select in SELECTS.values():
        prepared = engine.prepare(f"{select} {WHERE}")
        assert_walks_match(engine, prepared, matrix, model)


def step(name: str, index: int, low: int, high: int) -> SequentialStep:
    return SequentialStep(RangePredicate(name, low, high), index)


# Leaves the planners do not build: a verdict at the root, an empty
# sequential leaf, a first step on an attribute the path already read.
HAND_PLANS = {
    "true": VerdictLeaf(True),
    "false": VerdictLeaf(False),
    "mixed": ConditionNode(
        "mode", 0, 3,
        below=ConditionNode(
            "c", 3, 3,
            below=SequentialNode(()),
            above=SequentialNode((step("c", 3, 4, 5), step("a", 1, 1, 2))),
        ),
        above=SequentialNode((step("b", 2, 3, 5), step("mode", 0, 4, 4))),
    ),
}


@pytest.mark.parametrize("mode_cost", [0.1, 0.0])
def test_disjunctive_and_hand_plans_match_two_walks(data, mode_cost):
    schema, train, live = data
    schema = fractional_schema(schema, (mode_cost, 100.3, 33.3, 0.7))
    engine = AcquisitionalEngine(schema, train)
    prepared = engine.prepare(f"SELECT b, c, b {DISJUNCTIVE}")
    assert isinstance(prepared.plan, ConditionNode)
    plans = [prepared] + [
        PreparedQuery(
            text="", parsed=prepared.parsed, plan=plan,
            expected_where_cost=0.0, planner="hand",
        )
        for plan in HAND_PLANS.values()
    ]
    for costs in COSTS:
        for window in WINDOWS:
            matrix = window_of(live, window, np.int64)
            model = cost_model(engine.schema, costs)
            for query in plans:
                assert_walks_match(engine, query, matrix, model)


def old_assembly(engine, prepared, matrix, costs, verdicts):
    """``rows``, ``where_cost`` and ``projection_cost`` the two-walk way."""
    select = list(prepared.select)
    matching = np.flatnonzero(verdicts)
    extra = old_projection_extra(engine, prepared, matrix, verdicts)
    rows = tuple(
        tuple(int(value) for value in matrix[row, select]) for row in matching
    )
    return rows, float(costs.sum()), float(extra[matching].sum())


def assert_result(result, expected):
    rows, where_cost, projection_cost = expected
    assert result.rows == rows
    assert result.where_cost == where_cost
    assert result.projection_cost == projection_cost
    assert all(type(value) is int for row in result.rows for value in row)


@pytest.mark.parametrize("window", WINDOWS)
@pytest.mark.parametrize("dtype", DTYPES, ids=lambda t: np.dtype(t).name)
@pytest.mark.parametrize("select", sorted(SELECTS))
def test_projection_cost_matches_two_walks(engine, data, select, dtype, window):
    matrix = window_of(data[2], window, dtype)
    prepared = engine.prepare(f"{SELECTS[select]} {WHERE}")
    old = old_dataset_execution(prepared.plan, matrix, engine.schema)
    expected = old_assembly(engine, prepared, matrix, old.costs, old.verdicts)
    assert_result(engine.execute_prepared(prepared, matrix), expected)
    if window == "full":
        assert expected[0], "the window should select some rows"


FAULTS = {
    "detectable": dict(drop_rate=0.2, timeout_rate=0.05),
    "silent": dict(drop_rate=0.1, stuck_rate=0.1, noise_rate=0.1),
}


@pytest.mark.parametrize("faults", sorted(FAULTS))
@pytest.mark.parametrize(
    "mode", [DegradationMode.ABSTAIN, DegradationMode.SKIP, DegradationMode.IMPUTE]
)
def test_resilient_projection_cost_matches_two_walks(engine, data, mode, faults):
    schema = engine.schema
    live = data[2]
    schedule = FaultSchedule.uniform(schema, **FAULTS[faults])
    policy = FaultPolicy(degradation=mode)
    for select in ("narrow", "duplicate"):
        prepared = engine.prepare(f"{SELECTS[select]} {WHERE}")
        outcome = engine.execute_prepared_resilient(
            prepared, live, schedule, np.random.default_rng(5), policy=policy
        )
        executor = FaultTolerantExecutor(
            schema, policy, query=prepared.query, distribution=engine.distribution
        )
        old = executor.run(prepared.plan, live, schedule, np.random.default_rng(5))
        assert outcome.abstained_rows == old.abstained
        assert_result(
            outcome.result,
            old_assembly(engine, prepared, live, old.costs, old.verdicts),
        )


@pytest.mark.parametrize("window", WINDOWS)
def test_resilient_disjunctive_projection_matches_two_walks(data, window):
    schema, train, live = data
    engine = AcquisitionalEngine(fractional_schema(schema), train)
    prepared = engine.prepare(f"SELECT b, c, b {DISJUNCTIVE}")
    matrix = window_of(live, window, np.int64)
    schedule = FaultSchedule.uniform(engine.schema, drop_rate=0.2, stuck_rate=0.1)
    policy = FaultPolicy(degradation=DegradationMode.ABSTAIN)
    outcome = engine.execute_prepared_resilient(
        prepared, matrix, schedule, np.random.default_rng(9), policy=policy
    )
    executor = FaultTolerantExecutor(
        engine.schema, policy, query=None, distribution=engine.distribution
    )
    old = executor.run(prepared.plan, matrix, schedule, np.random.default_rng(9))
    assert outcome.abstained_rows == old.abstained
    assert_result(
        outcome.result,
        old_assembly(engine, prepared, matrix, old.costs, old.verdicts),
    )
