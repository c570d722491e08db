"""Tests for per-node plan profiles (repro.obs.profile)."""

import numpy as np
import pytest

from repro.core import (
    Attribute,
    ConjunctiveQuery,
    RangePredicate,
    Schema,
    dataset_execution,
)
from repro.execution import PlanExecutor
from repro.obs import PlanProfile
from repro.planning import CorrSeqPlanner, GreedyConditionalPlanner
from repro.probability import EmpiricalDistribution
from repro.verify import ROOT_PATH


@pytest.fixture
def schema() -> Schema:
    return Schema(
        [
            Attribute("mode", 2, 1.0),
            Attribute("p", 2, 100.0),
            Attribute("q", 2, 100.0),
        ]
    )


@pytest.fixture
def query(schema) -> ConjunctiveQuery:
    return ConjunctiveQuery(
        schema, [RangePredicate("p", 2, 2), RangePredicate("q", 2, 2)]
    )


def regime_data(n: int, flipped: bool, seed: int) -> np.ndarray:
    """mode predicts which predicate fails; `flipped` swaps the mapping."""
    rng = np.random.default_rng(seed)
    mode = rng.integers(1, 3, n)
    fail_p = (mode == 1) != flipped
    p = np.where(fail_p, 1, rng.integers(1, 3, n))
    q = np.where(~fail_p, 1, rng.integers(1, 3, n))
    return np.stack([mode, p, q], axis=1).astype(np.int64)


@pytest.fixture
def train(schema) -> np.ndarray:
    return regime_data(2000, flipped=False, seed=1)


@pytest.fixture
def plan(schema, query, train):
    distribution = EmpiricalDistribution(schema, train, smoothing=0.5)
    planner = GreedyConditionalPlanner(
        distribution, CorrSeqPlanner(distribution), max_splits=3
    )
    return planner.plan(query).plan


class TestPlanProfile:
    def test_counts_cover_every_tuple(self, schema, plan, train):
        profile = PlanProfile(schema)
        dataset_execution(plan, train, schema, observer=profile)
        assert profile.tuples == len(train)
        root = profile.counters(ROOT_PATH)
        assert root is not None
        assert root.visits == len(train)

    def test_condition_branches_partition_visits(self, schema, plan, train):
        profile = PlanProfile(schema)
        dataset_execution(plan, train, schema, observer=profile)
        for counters in profile.nodes.values():
            if counters.kind == "condition":
                assert counters.below + counters.above == counters.visits
                assert 0.0 <= counters.below_fraction <= 1.0

    def test_observed_cost_matches_execution_outcome(self, schema, plan, train):
        profile = PlanProfile(schema)
        outcome = dataset_execution(plan, train, schema, observer=profile)
        assert profile.observed_cost() == pytest.approx(outcome.total_cost)
        assert profile.observed_mean_cost() == pytest.approx(outcome.mean_cost)

    def test_accumulates_across_calls(self, schema, plan, train):
        profile = PlanProfile(schema)
        dataset_execution(plan, train[:500], schema, observer=profile)
        dataset_execution(plan, train[500:], schema, observer=profile)
        assert profile.tuples == len(train)

    def test_merge_equals_single_pass(self, schema, plan, train):
        whole = PlanProfile(schema)
        dataset_execution(plan, train, schema, observer=whole)
        left, right = PlanProfile(schema), PlanProfile(schema)
        dataset_execution(plan, train[:700], schema, observer=left)
        dataset_execution(plan, train[700:], schema, observer=right)
        left.merge(right)
        assert left.as_dict() == whole.as_dict()

    def test_reset_clears_everything(self, schema, plan, train):
        profile = PlanProfile(schema)
        dataset_execution(plan, train, schema, observer=profile)
        profile.reset()
        assert profile.tuples == 0
        assert profile.nodes == {}
        assert profile.observed_cost() == 0.0

    def test_attribute_acquisition_counts(self, schema, plan, train):
        profile = PlanProfile(schema)
        dataset_execution(plan, train, schema, observer=profile)
        totals = profile.attribute_acquisition_counts()
        assert set(totals) == set(schema.names)
        # Every acquisition is charged at most once per tuple.
        assert all(0 <= count <= len(train) for count in totals.values())
        billed = sum(
            count * schema[name].cost for name, count in totals.items()
        )
        assert billed == pytest.approx(profile.observed_cost())

    def test_as_dict_is_json_ready(self, schema, plan, train):
        import json

        profile = PlanProfile(schema)
        dataset_execution(plan, train, schema, observer=profile)
        payload = profile.as_dict()
        json.dumps(payload)  # must not raise
        assert payload["tuples"] == len(train)
        assert ROOT_PATH in payload["nodes"]


class TestProfiledEvaluate:
    """Per-tuple profiling: a PlanExecutor with a profile sink."""

    def test_matches_vectorized_event_stream(self, schema, plan, train):
        rows = train[:400]
        vectorized = PlanProfile(schema)
        dataset_execution(plan, rows, schema, observer=vectorized)
        per_tuple = PlanProfile(schema)
        executor = PlanExecutor(schema, profile_sink=per_tuple)
        for row in rows:
            executor.execute(plan, row)
        assert per_tuple.as_dict() == vectorized.as_dict()

    def test_verdicts_match_plan_evaluate(self, schema, plan, train):
        executor = PlanExecutor(schema, profile_sink=PlanProfile(schema))
        for row in train[:200]:
            assert executor.execute(plan, row).verdict == plan.evaluate(row)
