"""Convergence harness: stationary streams must land near the oracle.

On a stream with *no* drift, the learned executor has every advantage it
will ever get — the validation burst plus (at most) detector-triggered
re-bursts must steer the served composite plan to within ``EPSILON`` of
the :class:`~repro.planning.ExhaustivePlanner` Eq. 3 optimum computed on
the full dataset's statistics.  Three datasets, two distributions each:

- ``adversarial``  — the benchmark's workload frozen in one regime
  (killer ``p`` / killer ``q``): order choice is worth ~25% of cost;
- ``day-night``    — the paper's Figure 2 correlation, normal and
  flipped: the win lives in the conditioning skeleton, so these run
  with a skeleton planner;
- ``correlated``   — the 4-attribute regime dataset under two different
  predicate pairs (strongly mode-correlated vs noise-bound).

The oracle is clairvoyant (whole dataset, no smoothing); the learner
sees a sliding window with Laplace smoothing — ``EPSILON`` absorbs that
statistics gap, not planning mistakes.
"""

import numpy as np
import pytest

from repro.core import (
    Attribute,
    ConjunctiveQuery,
    RangePredicate,
    Schema,
)
from repro.core.cost import expected_cost
from repro.learn import LearnedStreamExecutor, adversarial_stream
from repro.planning import (
    CorrSeqPlanner,
    ExhaustivePlanner,
    GreedyConditionalPlanner,
)
from repro.probability import EmpiricalDistribution

from tests.conftest import correlated_dataset, make_day_night_data

EPSILON = 0.10
N_TUPLES = 800


def day_night_case(flipped: bool) -> tuple[Schema, ConjunctiveQuery, np.ndarray]:
    schema = Schema(
        [
            Attribute("hour", 2, 0.0),
            Attribute("temp", 2, 1.0),
            Attribute("light", 2, 1.0),
        ]
    )
    query = ConjunctiveQuery(
        schema,
        [RangePredicate("temp", 2, 2), RangePredicate("light", 2, 2)],
    )
    base = make_day_night_data()
    if flipped:
        base = base.copy()
        base[:, 0] = 3 - base[:, 0]  # day<->night: the correlation flips
    rng = np.random.default_rng(7)
    rows = base[rng.integers(0, base.shape[0], size=N_TUPLES)]
    return schema, query, rows


def adversarial_case(regime: str) -> tuple[Schema, ConjunctiveQuery, np.ndarray]:
    workload = adversarial_stream(n_segments=2, segment_length=N_TUPLES, seed=5)
    segment = workload.segment_slices()[0 if regime == "p" else 1]
    return workload.schema, workload.query, workload.data[segment]


def correlated_case(pair: str) -> tuple[Schema, ConjunctiveQuery, np.ndarray]:
    schema, data = correlated_dataset(n_rows=N_TUPLES, seed=11)
    if pair == "strong":
        predicates = [RangePredicate("a", 1, 2), RangePredicate("b", 3, 5)]
    else:
        predicates = [RangePredicate("b", 1, 2), RangePredicate("c", 3, 5)]
    return schema, ConjunctiveQuery(schema, predicates), data


CASES = {
    "adversarial-p": (lambda: adversarial_case("p"), False),
    "adversarial-q": (lambda: adversarial_case("q"), False),
    "day-night-normal": (lambda: day_night_case(False), True),
    "day-night-flipped": (lambda: day_night_case(True), True),
    "correlated-strong": (lambda: correlated_case("strong"), True),
    "correlated-weak": (lambda: correlated_case("weak"), True),
}


def skeleton_factory(distribution):
    return GreedyConditionalPlanner(
        distribution, CorrSeqPlanner(distribution), max_splits=2
    )


@pytest.mark.parametrize("case", sorted(CASES))
def test_stationary_stream_converges_to_oracle(case):
    build, conditioned = CASES[case]
    schema, query, data = build()

    executor = LearnedStreamExecutor(
        schema,
        query,
        window=256,
        warmup=96,
        smoothing=0.5,
        delta=0.2,
        burst_pulls=8,
        skeleton_planner=skeleton_factory if conditioned else None,
    )
    report = executor.process(data)

    reference = EmpiricalDistribution(schema, data, smoothing=0.0)
    oracle = ExhaustivePlanner(reference).plan(query)
    learned_cost = expected_cost(report.plan, reference, None)

    assert learned_cost <= oracle.expected_cost * (1.0 + EPSILON), (
        f"{case}: learned plan costs {learned_cost:.4f}, oracle "
        f"{oracle.expected_cost:.4f} "
        f"(+{100 * (learned_cost / oracle.expected_cost - 1):.2f}%)"
    )
    # Convergence must be honest: books balanced, budget respected.
    assert report.ledger_conserved()
    assert report.ledger.exploration_cost <= report.ledger.budget


@pytest.mark.parametrize("case", ["adversarial-p", "day-night-normal"])
def test_stationary_stream_stops_exploring(case):
    """On stationary data the burst machinery must go quiet.

    The validation burst (and any detector false-fire bursts) are
    budget-capped, but convergence also means they *end*: the tail of a
    stationary run must be served pulls on a settled incumbent, not a
    near-budget exploration churn.
    """
    build, conditioned = CASES[case]
    schema, query, data = build()
    executor = LearnedStreamExecutor(
        schema,
        query,
        window=256,
        warmup=96,
        smoothing=0.5,
        delta=0.2,
        burst_pulls=8,
        skeleton_planner=skeleton_factory if conditioned else None,
    )
    report = executor.process(data)
    assert report.ledger.exploration_cost < report.ledger.budget * 0.5
    tail = report.replans[-1].position if report.replans else 0
    assert tail < data.shape[0] * 0.9, (
        "plan decisions kept happening into the run's tail: "
        f"{[(e.position, e.reason) for e in report.replans]}"
    )
