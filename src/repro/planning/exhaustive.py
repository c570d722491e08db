"""ExhaustivePlan: the optimal conditional planner (Section 3.2, Figure 5).

A depth-first dynamic program over range subproblems.  Splitting on
``T(X_i >= x)`` divides ``Subproblem(phi, R_1..R_n)`` into two independent
subproblems whose optimal costs combine by Equation 5:

    J(R) = min over (i, x) of  C'_i + P(X_i < x | R) * J(R with [a, x-1])
                                    + P(X_i >= x | R) * J(R with [x, b])

with base case ``J = 0`` once the ranges determine the truth of ``phi``.
Subproblem results are memoized (the ranges *are* the DP key) and branches
whose partial cost already exceeds the best-known bound are pruned.

Deviation from Figure 5's pseudo-code, documented in DESIGN.md: when
recursing into a branch taken with probability ``p`` we pass the bound
``(limit - partial) / p`` rather than ``limit - partial``.  Since the branch
contributes ``p * J_child`` to the total, a child can only improve the
candidate when ``J_child < (limit - partial) / p``; the undivided bound of
the pseudo-code can prune children that are still viable (for ``p < 1`` it
is *tighter* than necessary), making the search potentially sub-optimal.
The divided bound is the sound version of the same idea.  Pruned results are
never cached, exactly as the pseudo-code prescribes.

The worst-case complexity is ``O(n*K*K**(2n))`` subproblem expansions
(Section 3.2), so this planner is only feasible for small attribute counts
and domains — the paper draws the same conclusion and uses it as the gold
standard that the greedy heuristic is measured against (Figure 8).
"""

from __future__ import annotations

import math

from repro.analysis.certificates import CostCertificate, carry_certificate
from repro.analysis.rewrite import optimize_plan
from repro.core.plan import ConditionNode, PlanNode, VerdictLeaf
from repro.core.query import ConjunctiveQuery
from repro.core.ranges import RangeVector
from repro.exceptions import PlanningError
from repro.planning.base import (
    Planner,
    PlannerStats,
    PlanningResult,
    effective_cost,
    resolved_leaf,
    sequential_node_from_order,
    split_probabilities,
)
from repro.planning.split_points import SplitPointPolicy
from repro.probability.base import Distribution

__all__ = ["ExhaustivePlanner"]


class ExhaustivePlanner(Planner):
    """Optimal conditional plans via exhaustive dynamic programming.

    Parameters
    ----------
    distribution:
        Probability model supplying Equation 5's conditionals.
    split_policy:
        Candidate split points (Section 4.3).  Defaults to every interior
        domain value; either way, query predicate boundaries are merged in
        at planning time so every predicate remains decidable.
    max_subproblems:
        Safety valve: the search aborts with
        :class:`~repro.exceptions.PlanningError` after expanding this many
        distinct subproblems, since the state space is exponential.
    """

    name = "exhaustive"

    def __init__(
        self,
        distribution: Distribution,
        split_policy: SplitPointPolicy | None = None,
        max_subproblems: int = 2_000_000,
        cost_model=None,
    ) -> None:
        super().__init__(distribution, cost_model)
        self._split_policy = split_policy
        self._max_subproblems = int(max_subproblems)

    def plan(self, query: ConjunctiveQuery) -> PlanningResult:
        schema = self.schema
        policy = self._split_policy or SplitPointPolicy.full(schema)
        policy = policy.with_query_boundaries(query)
        search = _Search(
            query=query,
            distribution=self.distribution,
            policy=policy,
            max_subproblems=self._max_subproblems,
            cost_model=self.cost_model,
        )
        full = RangeVector.full(schema)
        result = search.run(full)
        if result is None:
            raise PlanningError("exhaustive search failed to produce a plan")
        cost, plan = result
        certificate = search.certificate(plan, full)
        optimized = optimize_plan(plan, schema, query=query)
        if optimized is not plan:
            # The rewriter only ever shrinks (free-split ties, subsumed
            # fallback steps); carry the certificate over to the new shape,
            # pricing only the rewritten subtrees, so cost and claims stay
            # verifier-exact.
            certificate = carry_certificate(
                plan,
                certificate,
                optimized,
                self.distribution,
                cost_model=self.cost_model,
            )
            plan = optimized
            cost = certificate.bounds["root"]
        return PlanningResult(
            plan=plan,
            expected_cost=cost,
            planner=self.name,
            stats=search.stats,
            certificate=certificate,
        )


class _Search:
    """One exhaustive planning run: memo cache, stats, and the DFS itself."""

    def __init__(
        self,
        query: ConjunctiveQuery,
        distribution: Distribution,
        policy: SplitPointPolicy,
        max_subproblems: int,
        cost_model=None,
    ) -> None:
        self._query = query
        self._distribution = distribution
        self._policy = policy
        self._cost_model = cost_model
        self._max_subproblems = max_subproblems
        self._schema = distribution.schema
        self._cache: dict[RangeVector, tuple[float, PlanNode]] = {}
        # Figure 5 caches only optimal results; pruned searches would
        # otherwise be repeated from scratch on every revisit.  We
        # additionally remember the *certificate* a pruned search produces
        # (optimal cost >= bound), which lets later visits with an equal or
        # smaller bound prune instantly without weakening optimality.
        self._lower_bounds: dict[RangeVector, float] = {}
        self.stats = PlannerStats()

    def run(self, ranges: RangeVector) -> tuple[float, PlanNode] | None:
        return self._search(ranges, math.inf)

    def certificate(self, plan: PlanNode, ranges: RangeVector) -> CostCertificate:
        """Export Eq. 5 cost bounds for ``plan`` straight from the DP cache.

        Every live subtree the search emitted is the cached optimum for
        its subproblem, so its cached cost doubles as a *certified*
        expected-cost claim.  Verdict leaves claim zero; the
        zero-probability fallback subtrees (never searched) claim
        nothing.
        """
        bounds: dict[str, float] = {}

        def walk(node: PlanNode, node_ranges: RangeVector, path: str) -> None:
            if isinstance(node, VerdictLeaf):
                bounds[path] = 0.0
            else:
                cached = self._cache.get(node_ranges)
                if cached is not None and cached[1] == node:
                    bounds[path] = cached[0]
            if isinstance(node, ConditionNode):
                below_ranges, above_ranges = node_ranges.split(
                    node.attribute_index, node.split_value
                )
                walk(node.below, below_ranges, path + "/below")
                walk(node.above, above_ranges, path + "/above")

        walk(plan, ranges, "root")
        return CostCertificate(bounds=bounds, source="exhaustive-dp")

    def _search(
        self, ranges: RangeVector, bound: float
    ) -> tuple[float, PlanNode] | None:
        """Optimal (cost, plan) for the subproblem, or None when its optimal
        cost is provably >= ``bound``."""
        leaf = resolved_leaf(self._query, ranges)
        if leaf is not None:
            return (0.0, leaf) if bound > 0.0 else None

        cached = self._cache.get(ranges)
        if cached is not None:
            self.stats.cache_hits += 1
            return cached if cached[0] < bound else None
        lower_bound = self._lower_bounds.get(ranges)
        if lower_bound is not None and lower_bound >= bound:
            self.stats.pruned += 1
            return None

        self.stats.subproblems += 1
        if self.stats.subproblems > self._max_subproblems:
            raise PlanningError(
                f"exhaustive search exceeded {self._max_subproblems} "
                "subproblems; shrink the domains or use the greedy heuristic"
            )

        best_cost = bound
        best_plan: PlanNode | None = None
        schema = self._schema
        for index in range(len(schema)):
            acquisition = effective_cost(schema, ranges, index, self._cost_model)
            if acquisition >= best_cost:
                continue
            candidates = self._policy.candidates(index, ranges)
            probabilities = split_probabilities(
                self._distribution, index, candidates, ranges
            )
            for split_value, probability_below in zip(candidates, probabilities):
                self.stats.splits_considered += 1
                candidate = self._evaluate_split(
                    ranges, index, split_value, probability_below,
                    acquisition, best_cost,
                )
                if candidate is not None and candidate[0] < best_cost:
                    best_cost, best_plan = candidate

        if best_plan is None:
            self.stats.pruned += 1
            if bound != math.inf:
                previous = self._lower_bounds.get(ranges, 0.0)
                if bound > previous:
                    self._lower_bounds[ranges] = bound
            return None
        # best_cost < bound here, so every skipped candidate was proven to
        # cost at least best_cost: the result is the true optimum and safe
        # to cache (Figure 5 caches only optimal, never pruned, results).
        self._cache[ranges] = (best_cost, best_plan)
        return best_cost, best_plan

    def _evaluate_split(
        self,
        ranges: RangeVector,
        index: int,
        split_value: int,
        probability_below: float,
        acquisition: float,
        limit: float,
    ) -> tuple[float, PlanNode] | None:
        """Cost and plan of splitting at (index, split_value), or None when
        the split provably cannot beat ``limit``."""
        below_ranges, above_ranges = ranges.split(index, split_value)
        partial = acquisition

        below_plan = self._branch_plan(below_ranges, probability_below)
        if probability_below > 0.0:
            child_bound = (limit - partial) / probability_below
            result = self._search(below_ranges, child_bound)
            if result is None:
                return None
            partial += probability_below * result[0]
            below_plan = result[1]
            if partial >= limit:
                return None

        probability_above = 1.0 - probability_below
        above_plan = self._branch_plan(above_ranges, probability_above)
        if probability_above > 0.0:
            child_bound = (limit - partial) / probability_above
            result = self._search(above_ranges, child_bound)
            if result is None:
                return None
            partial += probability_above * result[0]
            above_plan = result[1]
            if partial >= limit:
                return None

        attribute = self._schema[index]
        plan = ConditionNode(
            attribute=attribute.name,
            attribute_index=index,
            split_value=split_value,
            below=below_plan,
            above=above_plan,
        )
        return partial, plan

    def _branch_plan(self, ranges: RangeVector, probability: float) -> PlanNode:
        """Placeholder plan for a branch the model says is unreachable.

        Zero-probability branches contribute nothing to expected cost, but a
        deployed plan may still reach them when the live distribution drifts
        from the training data; a fallback that evaluates the remaining
        predicates keeps execution *correct* in all cases (the paper's
        correctness guarantee, Section 8).  Conjunctive queries get a
        cheapest-first sequential plan; arbitrary boolean queries get a
        deterministic resolution tree, since sequential (fail-fast) leaves
        carry conjunctive semantics only.
        """
        if probability > 0.0:
            # The real subplan is computed by the caller; this value is a
            # placeholder that is always overwritten.
            return resolved_leaf(self._query, ranges) or sequential_node_from_order([])
        leaf = resolved_leaf(self._query, ranges)
        if leaf is not None:
            return leaf
        if isinstance(self._query, ConjunctiveQuery):
            remaining = query_order_by_cost(self._query, ranges, self._schema)
            return sequential_node_from_order(remaining)
        return deterministic_resolution_tree(self._query, ranges, self._schema)


def query_order_by_cost(query: ConjunctiveQuery, ranges: RangeVector, schema):
    """Undetermined predicates ordered cheapest-attribute-first."""
    remaining = query.undetermined_predicates(ranges)
    remaining.sort(key=lambda binding: effective_cost(schema, ranges, binding[1]))
    return remaining


def deterministic_resolution_tree(query, ranges: RangeVector, schema) -> PlanNode:
    """A condition-node tree that decides ``query`` with no statistics.

    Repeatedly splits the cheapest undetermined predicate's attribute at
    its decision boundary until the ranges determine the query — a
    probability-free safety net for branches the training data claims are
    unreachable.  Works for any query exposing ``truth_under`` and
    ``undetermined_predicates`` (conjunctive or boolean).
    """
    leaf = resolved_leaf(query, ranges)
    if leaf is not None:
        return leaf
    remaining = query.undetermined_predicates(ranges)
    remaining.sort(key=lambda binding: effective_cost(schema, ranges, binding[1]))
    predicate, index = remaining[0]
    interval = ranges[index]
    split_value = _resolution_split(predicate, interval)
    below_ranges, above_ranges = ranges.split(index, split_value)
    return ConditionNode(
        attribute=schema[index].name,
        attribute_index=index,
        split_value=split_value,
        below=deterministic_resolution_tree(query, below_ranges, schema),
        above=deterministic_resolution_tree(query, above_ranges, schema),
    )


def _resolution_split(predicate, interval) -> int:
    """A split value that makes progress towards deciding ``predicate``."""
    low = getattr(predicate, "low", None)
    high = getattr(predicate, "high", None)
    if low is not None and interval.low < low <= interval.high:
        return low
    if high is not None and interval.low < high + 1 <= interval.high:
        return high + 1
    # Generic predicate (or boundaries outside the range): peel one value.
    return interval.low + 1
