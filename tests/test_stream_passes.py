"""The faulted stream path does each piece of per-run work once.

On seeded streams shaped like the benchmark's ``stream_drift`` workload
(three 90-tuple adversarial segments, drops, timeouts and outage bursts
on ``p`` and ``q``), counting wrappers pin three numbers:

- a served run is booked by one ``BranchBandit.record_run`` call, so no
  faulted stream makes a per-tuple ``BranchBandit.record`` call;
- building (or warm-starting) the arm ensemble prices every arm from one
  ``OutcomeCounter`` pass, with no ``expected_cost`` or conditioner walk;
- no window is passed to ``FaultTolerantExecutor.run`` twice: a cut
  window keeps its prefix with the state at the cut instead of re-running.
"""

from __future__ import annotations

from collections import Counter
from typing import Any

import numpy as np
import pytest

import repro.learn.arms
from repro.core import ConjunctiveQuery, RangePredicate
from repro.execution import AdaptiveStreamExecutor
from repro.faults import AttributeFaults, FaultPolicy, FaultSchedule
from repro.faults.executor import FaultTolerantExecutor
from repro.learn import LearnedStreamExecutor
from repro.learn.bandit import BranchBandit, OrderBanditEnsemble
from repro.learn.workloads import adversarial_stream
from repro.planning import CorrSeqPlanner, GreedyConditionalPlanner
from repro.probability import EmpiricalDistribution
from repro.probability.empirical import OutcomeCounter
from tests.conftest import correlated_dataset

_SEEDS = (1, 7, 1009)


def _workload(seed: int):
    return adversarial_stream(3, 90, seed=seed)


def _faults(schema, seed: int) -> dict[str, Any]:
    names = list(schema.names)
    profile = AttributeFaults(
        drop_rate=0.03, timeout_rate=0.01, outage_rate=0.01, outage_length=6
    )
    return dict(
        fault_schedule=FaultSchedule(
            {names.index("p"): profile, names.index("q"): profile}
        ),
        fault_rng=np.random.default_rng([seed, 5]),
        fault_policy=FaultPolicy(outage_replan_threshold=0.5),
    )


def _learned(workload, seed: int) -> LearnedStreamExecutor:
    return LearnedStreamExecutor(
        workload.schema,
        workload.query,
        window=96,
        warmup=48,
        delta=0.2,
        burst_pulls=8,
        posterior_decay=0.95,
        **_faults(workload.schema, seed),
    )


def _adaptive(workload, seed: int) -> AdaptiveStreamExecutor:
    return AdaptiveStreamExecutor(
        workload.schema,
        workload.query,
        lambda distribution: GreedyConditionalPlanner(
            distribution, CorrSeqPlanner(distribution), max_splits=5
        ),
        window=96,
        replan_interval=128,
        drift_threshold=1.3,
        **_faults(workload.schema, seed),
    )


def _count_calls(monkeypatch, counts: Counter, owner: Any, name: str) -> None:
    function = getattr(owner, name)

    def counting(*args, **kwargs):
        counts[name] += 1
        return function(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)


@pytest.mark.parametrize("seed", _SEEDS)
def test_a_served_run_makes_no_per_tuple_record(monkeypatch, seed):
    counts: Counter = Counter()
    _count_calls(monkeypatch, counts, BranchBandit, "record")
    _count_calls(monkeypatch, counts, BranchBandit, "record_run")
    workload = _workload(seed)
    report = _learned(workload, seed).process(workload.data)
    assert counts["record"] == 0
    served = report.ledger.exploit_pulls
    assert served > 100
    # Each booking covers a run of served tuples, never fewer than one.
    assert 1 <= counts["record_run"] <= served


@pytest.mark.parametrize("seed", _SEEDS)
def test_an_ensemble_build_makes_one_counted_pass(monkeypatch, seed):
    workload = _workload(seed)
    distribution = EmpiricalDistribution(workload.schema, workload.data[:96])
    counts: Counter = Counter()
    _count_calls(monkeypatch, counts, OutcomeCounter, "__init__")
    _count_calls(monkeypatch, counts, repro.learn.arms, "expected_cost")
    _count_calls(monkeypatch, counts, EmpiricalDistribution, "sequential_conditioner")
    ensemble = OrderBanditEnsemble(
        workload.schema, workload.query, distribution, budget=1e4, decay=0.95
    )
    assert len(ensemble.branches[0].arm_space) == 6
    assert counts == Counter({"__init__": 1})
    ensemble.warm_start(
        EmpiricalDistribution(workload.schema, workload.data[96:192]), 0.25
    )
    assert counts == Counter({"__init__": 2})


def test_a_skeleton_ensemble_makes_one_counted_pass_per_branch(monkeypatch):
    schema, data = correlated_dataset(n_rows=3000, seed=5)
    query = ConjunctiveQuery(
        schema,
        [
            RangePredicate("a", 1, 2),
            RangePredicate("b", 3, 5),
            RangePredicate("c", 2, 4),
        ],
    )
    distribution = EmpiricalDistribution(schema, data)
    skeleton = GreedyConditionalPlanner(
        distribution, CorrSeqPlanner(distribution), max_splits=3
    ).plan(query).plan
    counts: Counter = Counter()
    _count_calls(monkeypatch, counts, OutcomeCounter, "__init__")
    _count_calls(monkeypatch, counts, repro.learn.arms, "expected_cost")
    ensemble = OrderBanditEnsemble(
        schema, query, distribution, budget=1e4, skeleton=skeleton
    )
    # A branch whose context decides the query has one verdict arm and
    # nothing to price.
    priced = [branch for branch in ensemble.branches if branch.arm_space[0].order]
    assert len(ensemble.branches) > 1 and priced
    assert counts == Counter({"__init__": len(priced)})


@pytest.mark.parametrize("kind", ["adaptive", "learned"])
@pytest.mark.parametrize("seed", _SEEDS)
def test_no_window_runs_twice(monkeypatch, kind, seed):
    windows: list[tuple[int, int]] = []
    run = FaultTolerantExecutor.run

    def recording(self, plan, data, *args, **kwargs):
        windows.append((kwargs.get("first_row", 0), len(data)))
        return run(self, plan, data, *args, **kwargs)

    monkeypatch.setattr(FaultTolerantExecutor, "run", recording)
    workload = _workload(seed)
    build = _adaptive if kind == "adaptive" else _learned
    report = build(workload, seed).process(workload.data)
    assert report.costs.size == workload.data.shape[0]
    starts = [start for start, _ in windows]
    # Each window starts where the kept rows of the last one end.
    assert starts == sorted(set(starts))
    assert windows[-1][0] + windows[-1][1] == workload.data.shape[0]
    if kind == "adaptive":
        # Drift and outage triggers cut windows short on these streams.
        cuts = [
            start + size > following
            for (start, size), following in zip(windows, starts[1:])
        ]
        assert any(cuts)
