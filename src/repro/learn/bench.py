"""Shared harness comparing the learned planner against its baselines.

One entry point, :func:`run_learned_bench`, runs four strategies over
the same adversarial stream (:func:`~repro.learn.workloads.
adversarial_stream` — the optimal predicate order flips every segment):

- **oracle** — a clairvoyant lower bound: each segment is planned with
  :class:`~repro.planning.OptimalSequentialPlanner` fitted on that
  segment's *own* data, with no warm-up or detection cost;
- **never-replan** — the adaptive executor with replanning disabled:
  one plan from the warm-up window, held forever;
- **chi-square-refit** — the pre-learning drift loop this package
  replaces: the adaptive executor with profile-drift replanning (fire →
  refit → replan from scratch);
- **bandit** — :class:`~repro.learn.stream.LearnedStreamExecutor` with
  a D-UCB discount, incremental order swaps, and the regret ledger.

The report carries per-strategy totals, cumulative-regret-vs-oracle
curves, and the PR's hard gates: the bandit must beat both non-oracle
baselines, its ledger must reconcile exactly, exploration must respect
the budget, and the final plan+provenance must pass the verifier's
``LRN`` rules.  ``repro learn-bench`` and
``benchmarks/bench_learned_planner.py`` are both thin wrappers over
this module, so the CLI and the CI gate measure the same thing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.cost import dataset_execution
from repro.execution.streaming import AdaptiveStreamExecutor
from repro.learn.stream import LearnedStreamExecutor
from repro.learn.workloads import DriftingWorkload, adversarial_stream
from repro.planning.optimal_sequential import OptimalSequentialPlanner
from repro.probability.empirical import EmpiricalDistribution

__all__ = ["StrategyRun", "LearnedBenchReport", "run_learned_bench"]

# Replanning is disabled in the baselines by pushing the interval far
# past any stream this harness generates.
_NEVER = 10**9

# How many positions the cumulative-regret curves are sampled at.
_CURVE_POINTS = 30


@dataclass(frozen=True)
class StrategyRun:
    """One strategy's outcome over the shared stream."""

    name: str
    costs: np.ndarray
    verdicts: np.ndarray
    replans: int

    @property
    def total_cost(self) -> float:
        return float(self.costs.sum())

    @property
    def mean_cost(self) -> float:
        return float(self.costs.mean()) if self.costs.size else 0.0

    def as_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "total_cost": round(self.total_cost, 4),
            "mean_cost": round(self.mean_cost, 4),
            "selected": int(self.verdicts.sum()),
            "replans": self.replans,
        }


@dataclass(frozen=True)
class LearnedBenchReport:
    """Everything the CLI prints and the CI gate asserts."""

    workload: str
    tuples: int
    segments: int
    seed: int
    strategies: tuple[StrategyRun, ...]
    curve_positions: tuple[int, ...]
    regret_curves: dict[str, tuple[float, ...]]
    ledger: dict[str, Any]
    verification: dict[str, Any]
    gates: dict[str, bool]

    def strategy(self, name: str) -> StrategyRun:
        for run in self.strategies:
            if run.name == name:
                return run
        raise KeyError(name)

    @property
    def all_gates_pass(self) -> bool:
        return all(self.gates.values())

    def as_dict(self) -> dict[str, Any]:
        return {
            "workload": self.workload,
            "tuples": self.tuples,
            "segments": self.segments,
            "seed": self.seed,
            "strategies": [run.as_dict() for run in self.strategies],
            "curve_positions": list(self.curve_positions),
            "regret_curves": {
                name: [round(value, 4) for value in curve]
                for name, curve in self.regret_curves.items()
            },
            "ledger": self.ledger,
            "verification": self.verification,
            "gates": self.gates,
        }


def _oracle_costs(workload: DriftingWorkload, smoothing: float) -> StrategyRun:
    """Clairvoyant per-segment optimal sequential plans."""
    pieces_cost: list[np.ndarray] = []
    pieces_verdict: list[np.ndarray] = []
    for segment in workload.segment_slices():
        data = workload.data[segment]
        distribution = EmpiricalDistribution(
            workload.schema, data, smoothing=smoothing
        )
        plan = OptimalSequentialPlanner(distribution).plan(workload.query).plan
        outcome = dataset_execution(plan, data, workload.schema)
        pieces_cost.append(outcome.costs)
        pieces_verdict.append(outcome.verdicts)
    return StrategyRun(
        name="oracle",
        costs=np.concatenate(pieces_cost),
        verdicts=np.concatenate(pieces_verdict),
        replans=len(workload.regimes) - 1,
    )


def _adaptive_run(
    name: str,
    workload: DriftingWorkload,
    *,
    window: int,
    smoothing: float,
    profile_drift_threshold: float | None,
    drift_check_every: int,
    drift_min_tuples: int,
) -> StrategyRun:
    executor = AdaptiveStreamExecutor(
        workload.schema,
        workload.query,
        lambda distribution: OptimalSequentialPlanner(distribution),
        window=window,
        replan_interval=_NEVER,
        drift_threshold=None,
        smoothing=smoothing,
        profile_drift_threshold=profile_drift_threshold,
        profile_check_every=drift_check_every,
        profile_min_tuples=drift_min_tuples,
    )
    report = executor.process(workload.data)
    return StrategyRun(
        name=name,
        costs=report.costs,
        verdicts=report.verdicts,
        replans=len(report.replans),
    )


def _regret_curve(
    costs: np.ndarray, oracle: np.ndarray, positions: tuple[int, ...]
) -> tuple[float, ...]:
    gaps = np.cumsum(costs - oracle)
    return tuple(float(gaps[position]) for position in positions)


def run_learned_bench(
    *,
    n_segments: int = 6,
    segment_length: int = 500,
    seed: int = 0,
    window: int = 96,
    smoothing: float = 0.5,
    delta: float = 0.2,
    burst_pulls: int = 8,
    posterior_decay: float = 0.95,
    drift_threshold: float = 8.0,
    drift_check_every: int = 64,
    drift_min_tuples: int = 128,
    regret_budget: float | None = None,
) -> LearnedBenchReport:
    """Run all four strategies over one adversarial stream.

    Every strategy sees the same byte-stable stream, uses the same
    warm-up length (``window``) and the same smoothing, and — where a
    drift monitor is in play — the same chi-square threshold and check
    cadence, so the differences measured are the *policies*, not their
    tuning.
    """
    workload = adversarial_stream(
        n_segments=n_segments, segment_length=segment_length, seed=seed
    )
    total = workload.data.shape[0]

    oracle = _oracle_costs(workload, smoothing)
    never = _adaptive_run(
        "never-replan",
        workload,
        window=window,
        smoothing=smoothing,
        profile_drift_threshold=None,
        drift_check_every=drift_check_every,
        drift_min_tuples=drift_min_tuples,
    )
    refit = _adaptive_run(
        "chi-square-refit",
        workload,
        window=window,
        smoothing=smoothing,
        profile_drift_threshold=drift_threshold,
        drift_check_every=drift_check_every,
        drift_min_tuples=drift_min_tuples,
    )

    learner = LearnedStreamExecutor(
        workload.schema,
        workload.query,
        regret_budget=regret_budget,
        window=window,
        warmup=window,
        smoothing=smoothing,
        delta=delta,
        burst_pulls=burst_pulls,
        posterior_decay=posterior_decay,
        drift_threshold=drift_threshold,
        drift_check_every=drift_check_every,
        drift_min_tuples=drift_min_tuples,
    )
    learned = learner.process(workload.data)
    bandit = StrategyRun(
        name="bandit",
        costs=learned.costs,
        verdicts=learned.verdicts,
        replans=len(learned.replans),
    )

    from repro.verify import verify_plan

    report = verify_plan(
        learned.plan,
        workload.schema,
        query=workload.query,
        provenance=learned.provenance,
    )

    step = max(1, total // _CURVE_POINTS)
    positions = tuple(range(step - 1, total, step))
    curves = {
        run.name: _regret_curve(run.costs, oracle.costs, positions)
        for run in (never, refit, bandit)
    }

    ledger = learned.ledger
    assert ledger is not None
    gates = {
        "bandit_beats_never_replan": bandit.total_cost < never.total_cost,
        "bandit_beats_chi_square_refit": bandit.total_cost < refit.total_cost,
        "ledger_conserved": ledger.conserved(learned.total_cost),
        "exploration_within_budget": ledger.exploration_cost <= ledger.budget,
        "provenance_verified": report.ok,
        "verdicts_agree": bool(
            np.array_equal(bandit.verdicts, never.verdicts)
            and np.array_equal(bandit.verdicts, oracle.verdicts)
        ),
    }

    return LearnedBenchReport(
        workload="adversarial",
        tuples=total,
        segments=n_segments,
        seed=seed,
        strategies=(oracle, never, refit, bandit),
        curve_positions=positions,
        regret_curves=curves,
        ledger=ledger.as_dict(),
        verification={
            "ok": report.ok,
            "errors": len(report.errors),
            "warnings": len(report.warnings),
            "codes": sorted(report.codes()),
        },
        gates=gates,
    )
