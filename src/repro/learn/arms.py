"""Arms: the branch-local predicate orders the bandit chooses among.

Within one branch of the conditioning skeleton the remaining decision is
exactly the paper's Section 4.1 problem — pick an order for the
predicates the branch context leaves undetermined.  Each permutation is
one *arm*; its plan is the :class:`~repro.core.plan.SequentialNode` for
that order, and its Eq. 3 cost under a fitted distribution (conditioned
on the branch context) is the arm's *prior* — the optimistic starting
point the posterior blends observations into.

Enumeration is deterministic (``itertools.permutations`` over predicate
positions in query order), and capped: a branch with more than
``max_predicates`` undetermined predicates would explode factorially, so
:class:`ArmSpace` refuses it rather than silently sampling.  A branch
whose context already decides the query has a single verdict-leaf arm.

On a distribution that counts rows every arm is priced from one
:class:`~repro.probability.empirical.OutcomeCounter` over the branch
context: the same left-to-right replay OptSeq's scorer runs
(:func:`~repro.planning.optimal_sequential.replay_orders`) gives each
arm's Eq. 3 cost and per-step pass rates, float for float.  Other
distributions walk each arm.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from repro.core.cost import expected_cost
from repro.core.cost_models import AcquisitionCostModel
from repro.core.plan import PlanNode, SequentialNode
from repro.core.query import ConjunctiveQuery
from repro.core.ranges import RangeVector
from repro.exceptions import LearningError
from repro.planning.base import (
    resolved_leaf,
    sequential_node_from_order,
)
from repro.planning.optimal_sequential import charge_table, replay_orders
from repro.probability.base import Distribution
from repro.probability.joint import superset_sums

__all__ = ["Arm", "ArmSpace", "DEFAULT_MAX_ARM_PREDICATES"]

DEFAULT_MAX_ARM_PREDICATES = 6


@dataclass(frozen=True)
class Arm:
    """One candidate predicate order and its plan.

    ``order`` is the tuple of schema attribute indices in evaluation
    order — the stable identity the verifier's ``LRN005`` rule matches
    against the emitted plan; ``arm_id`` is the arm's position in its
    :class:`ArmSpace` enumeration.
    """

    arm_id: int
    order: tuple[int, ...]
    plan: PlanNode


class ArmSpace:
    """Every predicate order available within one branch context."""

    def __init__(
        self,
        query: ConjunctiveQuery,
        context: RangeVector,
        max_predicates: int = DEFAULT_MAX_ARM_PREDICATES,
    ) -> None:
        self._query = query
        self._context = context
        leaf = resolved_leaf(query, context)
        bindings = [] if leaf is not None else query.undetermined_predicates(context)
        self._bindings = bindings
        self._span_indices = tuple(index for _, index in bindings)
        if len(bindings) > max_predicates:
            raise LearningError(
                f"branch has {len(bindings)} undetermined predicates; "
                f"{len(bindings)}! orders exceed the max_predicates="
                f"{max_predicates} arm cap"
            )
        # Each arm's order as positions in ``bindings``.
        self._orders = np.array(
            list(permutations(range(len(bindings)))), dtype=np.int64
        )
        if leaf is not None:
            self._arms: tuple[Arm, ...] = (Arm(arm_id=0, order=(), plan=leaf),)
            return
        arms = []
        for arm_id, ordering in enumerate(self._orders.tolist()):
            order = [bindings[position] for position in ordering]
            arms.append(
                Arm(
                    arm_id=arm_id,
                    order=tuple(index for _, index in order),
                    plan=sequential_node_from_order(order),
                )
            )
        self._arms = tuple(arms)

    @property
    def context(self) -> RangeVector:
        return self._context

    @property
    def arms(self) -> tuple[Arm, ...]:
        return self._arms

    def __len__(self) -> int:
        return len(self._arms)

    def __getitem__(self, arm_id: int) -> Arm:
        return self._arms[arm_id]

    def span(
        self,
        schema,
        cost_model: AcquisitionCostModel | None = None,
    ) -> float:
        """The largest leaf cost any arm can realize on one tuple.

        Every arm reads a subset of the branch's undetermined attributes,
        so the sum of their (context-effective) costs bounds any pull —
        the bound the ledger's :meth:`~repro.learn.ledger.RegretLedger
        .can_explore` gate and the Hoeffding radius both need.
        """
        total = 0.0
        for index in self._span_indices:
            if self._context.is_acquired(index):
                continue
            if cost_model is None:
                total += schema[index].cost
            else:
                total += cost_model.cost(index, self._context.acquired_indices())
        return total

    def priors(
        self,
        distribution: Distribution,
        cost_model: AcquisitionCostModel | None = None,
    ) -> tuple[float, ...]:
        """Eq. 3 cost of every arm under ``distribution`` in this context."""
        return self.prices(distribution, cost_model)[0]

    def step_rates(
        self, distribution: Distribution
    ) -> tuple[tuple[float, ...], ...]:
        """Model-predicted conditional pass rate of every arm's steps.

        For each arm, the probability that step ``i`` passes *given* that
        every earlier step in that order passed, under ``distribution``
        conditioned on the branch context — the per-step selectivities
        the Eq. 3 walk uses.  The bandit's change detector compares the
        served order's observed pass rates against these: selectivity is
        a Bernoulli statistic with bounded variance, so drift shows up
        orders of magnitude faster than in per-tuple cost means.
        Verdict-leaf arms have no steps and contribute an empty tuple.
        """
        return self.prices(distribution)[1]

    def prices(
        self,
        distribution: Distribution,
        cost_model: AcquisitionCostModel | None = None,
    ) -> tuple[tuple[float, ...], tuple[tuple[float, ...], ...]]:
        """:meth:`priors` and :meth:`step_rates` together, in one pass."""
        bindings = self._bindings
        if not bindings:
            return (0.0,), ((),)
        context = self._context
        counter = distribution.outcome_counter(bindings, context)
        if counter is None:
            return (
                tuple(
                    expected_cost(arm.plan, distribution, context, cost_model)
                    for arm in self._arms
                ),
                tuple(self._walked_rates(distribution, arm) for arm in self._arms),
            )
        arms = len(self._orders)
        sums = superset_sums(counter.outcome_counts())
        table = charge_table(
            distribution.schema, cost_model, bindings, context.acquired_indices()
        )
        costs, passed = replay_orders(
            counter,
            np.broadcast_to(sums, (arms, sums.size)),
            self._orders,
            np.broadcast_to(table, (arms, *table.shape)),
            np.zeros(arms, dtype=np.int64),
        )
        return tuple(costs[:, -1].tolist()), tuple(map(tuple, passed.tolist()))

    def _walked_rates(self, distribution: Distribution, arm: Arm) -> tuple[float, ...]:
        """One arm's :meth:`step_rates` by the sequential conditioner."""
        assert isinstance(arm.plan, SequentialNode)
        conditioner = distribution.sequential_conditioner(self._context)
        rates: list[float] = []
        for step in arm.plan.steps:
            binding = (step.predicate, step.attribute_index)
            rates.append(conditioner.pass_probability(binding))
            conditioner.condition_on(binding)
        return tuple(rates)
