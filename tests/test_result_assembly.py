"""Result assembly: bulk rows and matching-rows-only projection.

The engine materialises result rows in one numpy selection and costs
projection by routing only the matching rows through the plan.  The
per-row generator and the full-tree projection walk it replaced are kept
here, verbatim in behaviour, as the oracle: for every planner, reading
dtype, SELECT-list shape and execution path, ``rows``, ``columns``,
``where_cost`` and ``projection_cost`` must come out identical, and every
row value must be a Python ``int``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import dataset_execution
from repro.core.cost import predicate_mask
from repro.core.plan import ConditionNode, SequentialNode, VerdictLeaf
from repro.engine import AcquisitionalEngine
from repro.faults import DegradationMode, FaultPolicy, FaultSchedule
from repro.faults.executor import FaultTolerantExecutor
from repro.service import AcquisitionalService

from tests.conftest import correlated_dataset
from tests.test_differential_exec import PLANNERS

WHERE = "WHERE mode <= 2 AND a <= 2 AND b >= 3"
SELECTS = {
    "star": "SELECT *",
    "narrow": "SELECT c",
    "duplicate": "SELECT a, c, a, mode",
}
# Real-valued readings must hold integral values; the walker compares
# them against integer bounds either way.
DTYPES = (np.int64, np.int32, np.uint8, np.float64)


@pytest.fixture(scope="module")
def data():
    schema, rows = correlated_dataset(n_rows=900, seed=13)
    return schema, rows[:600], rows[600:]


@pytest.fixture(scope="module", params=sorted(PLANNERS))
def engine(request, data):
    schema, train, _live = data
    return AcquisitionalEngine(
        schema, train, planner_factory=PLANNERS[request.param]
    )


def old_rows(matrix, select_indices, verdicts):
    return tuple(
        tuple(int(value) for value in matrix[row, select_indices])
        for row in np.flatnonzero(verdicts)
    )


def old_projection_extra(plan, schema, matrix, select_indices):
    """The full-tree walk: every row routed, sequential steps re-evaluated."""
    extra = np.zeros(matrix.shape[0], dtype=np.float64)
    costs = schema.costs

    def charge(rows, acquired):
        unread = [index for index in select_indices if index not in acquired]
        if unread:
            extra[rows] += sum(costs[index] for index in unread)

    def walk(node, rows, acquired):
        if rows.size == 0:
            return
        if isinstance(node, VerdictLeaf):
            charge(rows, acquired)
        elif isinstance(node, ConditionNode):
            branch = acquired | {node.attribute_index}
            below = matrix[rows, node.attribute_index] < node.split_value
            walk(node.below, rows[below], branch)
            walk(node.above, rows[~below], branch)
        elif isinstance(node, SequentialNode):
            alive = rows
            local = set(acquired)
            for step in node.steps:
                if alive.size == 0:
                    break
                local.add(step.attribute_index)
                satisfied = predicate_mask(
                    step.predicate, matrix[alive, step.attribute_index]
                )
                alive = alive[satisfied]
            charge(alive, frozenset(local))

    walk(plan, np.arange(matrix.shape[0]), frozenset())
    return extra


def select_of(engine, prepared):
    if prepared.parsed.select_all:
        return engine.schema.names, list(range(len(engine.schema)))
    names = prepared.parsed.select
    return tuple(names), [engine.schema.index_of(name) for name in names]


def old_result(engine, prepared, matrix, costs, verdicts, extra):
    columns, select_indices = select_of(engine, prepared)
    matching = np.flatnonzero(verdicts)
    return (
        tuple(columns),
        old_rows(matrix, select_indices, verdicts),
        float(costs.sum()),
        float(extra[matching].sum()),
    )


def old_execute(engine, prepared, matrix):
    outcome = dataset_execution(prepared.plan, matrix, engine.schema)
    _columns, select_indices = select_of(engine, prepared)
    extra = old_projection_extra(
        prepared.plan, engine.schema, matrix, select_indices
    )
    return old_result(
        engine, prepared, matrix, outcome.costs, outcome.verdicts, extra
    )


def assert_same(result, expected):
    columns, rows, where_cost, projection_cost = expected
    assert result.columns == columns
    assert result.rows == rows
    assert result.where_cost == where_cost
    assert result.projection_cost == projection_cost
    assert all(type(value) is int for row in result.rows for value in row)


@pytest.mark.parametrize("select", sorted(SELECTS))
@pytest.mark.parametrize("dtype", DTYPES, ids=lambda t: np.dtype(t).name)
def test_execute_prepared_matches_old_assembly(engine, data, select, dtype):
    _schema, _train, live = data
    matrix = live.astype(dtype)
    prepared = engine.prepare(f"{SELECTS[select]} {WHERE}")
    expected = old_execute(engine, prepared, matrix)
    assert expected[1], "the window should select some rows"
    assert_same(engine.execute_prepared(prepared, matrix), expected)


def test_disjunctive_statement_matches_old_assembly(data):
    schema, train, live = data
    engine = AcquisitionalEngine(schema, train)
    prepared = engine.prepare("SELECT b, c WHERE mode <= 1 OR a >= 5")
    assert_same(
        engine.execute_prepared(prepared, live),
        old_execute(engine, prepared, live),
    )


def test_zero_match_window(engine, data):
    _schema, _train, live = data
    prepared = engine.prepare(f"{SELECTS['duplicate']} {WHERE}")
    window = live[live[:, 0] > 2]  # mode > 2 never matches
    result = engine.execute_prepared(prepared, window)
    assert result.rows == ()
    assert result.projection_cost == 0.0
    assert_same(result, old_execute(engine, prepared, window))


def test_execute_prepared_many_slices_the_stacked_pass(engine, data):
    _schema, _train, live = data
    prepared = engine.prepare(f"{SELECTS['duplicate']} {WHERE}")
    batches = [
        live[:70],
        live[live[:, 0] > 2][:40],  # zero matches
        live[70:71],
        live[:0],  # empty window
        live[71:300].astype(np.float64),
    ]
    results = engine.execute_prepared_many(prepared, batches)
    # The old path: one stacked walk, stacked projection, sliced per batch.
    stacked = np.vstack(batches)
    outcome = dataset_execution(prepared.plan, stacked, engine.schema)
    _columns, select_indices = select_of(engine, prepared)
    extra = old_projection_extra(
        prepared.plan, engine.schema, stacked, select_indices
    )
    start = 0
    for batch, result in zip(batches, results):
        end = start + batch.shape[0]
        assert_same(
            result,
            old_result(
                engine,
                prepared,
                batch,
                outcome.costs[start:end],
                outcome.verdicts[start:end],
                extra[start:end],
            ),
        )
        start = end


@pytest.mark.parametrize(
    "mode", [DegradationMode.ABSTAIN, DegradationMode.SKIP, DegradationMode.IMPUTE]
)
def test_execute_prepared_resilient_matches_old_assembly(engine, data, mode):
    schema, _train, live = data
    prepared = engine.prepare(f"{SELECTS['narrow']} {WHERE}")
    # Detectable faults only: under stuck or noisy reads a row can match
    # on delivered values yet fail a step on the true readings, where the
    # full-tree walk charged it no projection at all.
    schedule = FaultSchedule.uniform(schema, drop_rate=0.2, timeout_rate=0.05)
    policy = FaultPolicy(degradation=mode)
    outcome = engine.execute_prepared_resilient(
        prepared, live, schedule, np.random.default_rng(5), policy=policy
    )
    executor = FaultTolerantExecutor(
        schema,
        policy,
        query=prepared.parsed.query,
        distribution=engine.distribution,
    )
    old = executor.run(prepared.plan, live, schedule, np.random.default_rng(5))
    verdicts = np.array([r.verdict is True for r in old.results], dtype=bool)
    _columns, select_indices = select_of(engine, prepared)
    extra = old_projection_extra(
        prepared.plan, schema, live, select_indices
    )
    assert outcome.abstained_rows == old.abstained
    assert_same(
        outcome.result,
        old_result(engine, prepared, live, old.costs, verdicts, extra),
    )


def test_service_matches_old_assembly(data):
    schema, train, live = data
    engine = AcquisitionalEngine(schema, train)
    service = AcquisitionalService(engine)
    for select in SELECTS.values():
        text = f"{select} {WHERE}"
        expected = old_execute(engine, service.plan_for(text), live)
        assert_same(service.execute(text, live), expected)
        batch = service.execute_batch([(text, live[:50]), (text, live[50:])])
        prepared = service.plan_for(text)
        assert_same(batch[0], old_execute(engine, prepared, live[:50]))
        assert_same(batch[1], old_execute(engine, prepared, live[50:]))
