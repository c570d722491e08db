"""Differential execution: every runtime agrees on verdicts and Eq. 3 costs.

The repo has four ways to run a plan — the scalar per-tuple executor,
the vectorized dataset walker, the bytecode interpreter, and the
sensor-network simulator — and until now nothing cross-checked them.
For every planner's plan over the same data, all four must produce the
identical selected-tuple set, and the cost paths must reconcile
exactly: per-row scalar costs equal the vectorized cost vector, the
simulator's per-mote acquisition energy equals the vectorized total
over that mote's window, and the unsmoothed Eq. 3 expectation equals
the measured mean.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    ConjunctiveQuery,
    RangePredicate,
    dataset_execution,
    expected_cost,
)
from repro.execution import (
    ByteCodeInterpreter,
    Mote,
    PlanExecutor,
    SensorNetworkSimulator,
    compile_plan,
)
from repro.planning import (
    CorrSeqPlanner,
    ExhaustivePlanner,
    GreedyConditionalPlanner,
    GreedySequentialPlanner,
    NaivePlanner,
    OptimalSequentialPlanner,
    SizeAwareConditionalPlanner,
)
from repro.probability import EmpiricalDistribution

from tests.conftest import correlated_dataset

PLANNERS = {
    "naive": lambda d: NaivePlanner(d),
    "optseq": lambda d: OptimalSequentialPlanner(d),
    "greedy-seq": lambda d: GreedySequentialPlanner(d),
    "greedy-split": lambda d: GreedyConditionalPlanner(
        d, CorrSeqPlanner(d), max_splits=3
    ),
    "exhaustive": lambda d: ExhaustivePlanner(d),
    "bounded": lambda d: SizeAwareConditionalPlanner(
        d, CorrSeqPlanner(d), alpha=0.05
    ),
}


@pytest.fixture(scope="module")
def instance():
    schema, data = correlated_dataset(n_rows=1000, seed=21)
    train, test = data[:700], data[700:]
    distribution = EmpiricalDistribution(schema, train, smoothing=0.5)
    query = ConjunctiveQuery(
        schema, [RangePredicate("a", 1, 2), RangePredicate("b", 3, 5)]
    )
    return schema, distribution, query, train, test


@pytest.fixture(scope="module", params=sorted(PLANNERS))
def planned(request, instance):
    schema, distribution, query, train, test = instance
    plan = PLANNERS[request.param](distribution).plan(query).plan
    return schema, query, train, test, plan


def selected_set(verdicts) -> set[int]:
    return {i for i, verdict in enumerate(verdicts) if verdict}


class TestExecutorAgreement:
    def test_scalar_executor_matches_vectorized_walker(self, planned):
        schema, _query, _train, test, plan = planned
        vectorized = dataset_execution(plan, test, schema)
        executor = PlanExecutor(schema)
        scalar = [executor.execute(plan, row) for row in test]
        assert selected_set(r.verdict for r in scalar) == selected_set(
            vectorized.verdicts
        )
        scalar_costs = np.array([r.cost for r in scalar])
        assert np.array_equal(scalar_costs, vectorized.costs)
        assert float(scalar_costs.sum()) == vectorized.total_cost

    def test_bytecode_interpreter_matches_vectorized_walker(self, planned):
        schema, _query, _train, test, plan = planned
        vectorized = dataset_execution(plan, test, schema)
        interpreter = ByteCodeInterpreter(compile_plan(plan))
        verdicts = [interpreter.execute(row) for row in test]
        assert selected_set(verdicts) == selected_set(vectorized.verdicts)

    def test_simulator_matches_vectorized_walker(self, planned):
        schema, _query, _train, test, plan = planned
        third = len(test) // 3
        windows = [test[:third], test[third : 2 * third], test[2 * third :]]
        motes = [Mote(i, window) for i, window in enumerate(windows)]
        simulator = SensorNetworkSimulator(schema, motes)
        report = simulator.run(plan)
        per_mote = [dataset_execution(plan, w, schema) for w in windows]
        assert report.matches == sum(
            int(outcome.verdicts.sum()) for outcome in per_mote
        )
        for mote_id, outcome in enumerate(per_mote):
            assert report.acquisition_energy[mote_id] == outcome.total_cost

    def test_verdicts_equal_ground_truth(self, planned):
        schema, query, _train, test, plan = planned
        vectorized = dataset_execution(plan, test, schema)
        truth = [query.evaluate(row) for row in test]
        assert list(vectorized.verdicts) == truth


class TestCostModelAgreement:
    def test_eq3_expectation_matches_measured_mean_on_training_data(
        self, planned
    ):
        # Equation 3 under the *unsmoothed* empirical distribution of a
        # dataset is exactly the mean measured cost over that dataset.
        schema, _query, train, _test, plan = planned
        exact = EmpiricalDistribution(schema, train, smoothing=0.0)
        predicted = expected_cost(plan, exact)
        measured = dataset_execution(plan, train, schema).mean_cost
        assert predicted == pytest.approx(measured, rel=1e-9)
