"""Cost-bound certificates and the ``DF101`` rule.

A :class:`CostCertificate` attaches to a plan a claimed Equation 3
expected cost for every subtree, keyed by the verifier's node paths and
conditioned on the subtree's range context (the cost is *per tuple
reaching the node*).  Each certificate has one producer:

- :class:`repro.planning.GreedyConditionalPlanner` (Heuristic-k) reads
  the bounds off its own scoring passes (``source="greedy-passes"``): a
  leaf's bound is the cost its pass priced its sequential plan at, a
  split's sums its children with the probability the pass chose it with;
- :class:`repro.planning.ExhaustivePlanner` exports them straight from
  its dynamic-programming cache (``"exhaustive-dp"``) — the claims
  really are the DP optima;
- :func:`certify_plan` reads them off the one Eq. 3 walk,
  :func:`~repro.core.cost.cost_decomposition` (``"eq3"``: the corpora,
  the CLI and tests).

Both planners sum a split with :func:`~repro.core.cost.condition_bound`,
the walk's own operation order, and carry their claims over a rewrite
with :func:`carry_certificate`, which prices only the rewritten
subtrees.  The service's refit re-costs a cached plan with its own
:func:`~repro.core.cost.cost_decomposition` walk and issues no
certificate.

:func:`check_certificate` then re-derives every claim from that walk and
emits ``DF101`` (ERROR) when a claim diverges from the Eq. 3
recomputation, anchors to a node the plan does not have, or falls below
the admissible information-theoretic floor :func:`admissible_lower_bound`
— a sound lower bound ``l(R)`` on any correct plan's cost for the
subproblem, so a smaller claim is provably a lie.  The verifier calls
:func:`certificate_findings` with the decomposition its cost rules
already hold, so admission walks Eq. 3 once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.analysis.dataflow import AnyQuery
from repro.core.attributes import Schema
from repro.core.cost import (
    NodeCostContribution,
    acquisition_charge,
    condition_bound,
    cost_decomposition,
    root_bound,
)
from repro.core.cost_models import AcquisitionCostModel
from repro.core.plan import ConditionNode, PlanNode
from repro.core.predicates import Truth
from repro.core.ranges import RangeVector
from repro.exceptions import PlanError
from repro.probability.base import Distribution
from repro.verify.diagnostics import Diagnostic, make_diagnostic
from repro.verify.rules import DEFAULT_COST_TOLERANCE

__all__ = [
    "CostCertificate",
    "certify_plan",
    "carry_certificate",
    "admissible_lower_bound",
    "check_certificate",
    "certificate_findings",
]


@dataclass(frozen=True)
class CostCertificate:
    """Per-subtree expected-cost claims for one plan.

    ``bounds[path]`` is the claimed Eq. 3 expected cost of the subtree
    rooted at ``path``, conditioned on the subtree's range context.
    ``source`` records who issued the claims (``"greedy-passes"`` for
    the Heuristic-k scoring passes, ``"exhaustive-dp"`` for the DP cache,
    ``"eq3"`` for :func:`certify_plan`).
    """

    bounds: Mapping[str, float] = field(default_factory=dict)
    source: str = "eq3"

    def __len__(self) -> int:
        return len(self.bounds)

    @property
    def root_bound(self) -> float | None:
        return self.bounds.get("root")

    def as_dict(self) -> dict[str, Any]:
        return {
            "source": self.source,
            "bounds": {path: round(bound, 9) for path, bound in self.bounds.items()},
        }


def certify_plan(
    plan: PlanNode,
    distribution: Distribution,
    ranges: RangeVector | None = None,
    cost_model: AcquisitionCostModel | None = None,
) -> CostCertificate:
    """Issue an Eq. 3 certificate for every subtree of ``plan``.

    The bounds are the ``bound`` fields of one
    :func:`~repro.core.cost.cost_decomposition` walk, zero-reach
    subtrees included; the root bound equals
    :func:`~repro.core.cost.expected_cost`.  Raises
    :class:`~repro.exceptions.PlanError` when any node is structurally
    broken, reachable or not.
    """
    records = cost_decomposition(plan, distribution, ranges, cost_model)
    root_bound(records)  # raises on a broken node
    bounds = {path: r.bound for path, r in records.items() if r.bound is not None}
    return CostCertificate(bounds=bounds, source="eq3")


def carry_certificate(
    plan: PlanNode,
    certificate: CostCertificate,
    rewritten: PlanNode,
    distribution: Distribution,
    ranges: RangeVector | None = None,
    cost_model: AcquisitionCostModel | None = None,
) -> CostCertificate:
    """Carry ``certificate``, issued for ``plan``, over to its rewrite.

    A subtree of ``rewritten`` equal to ``plan``'s subtree at the same
    path, under the same ancestor splits, has the same range context, so
    it keeps its claims.  Each rewritten subtree is priced by one
    :func:`~repro.core.cost.cost_decomposition` under its context, and
    each ancestor kept above one is re-summed with
    :func:`~repro.core.cost.condition_bound`.  The claims thus equal
    :func:`certify_plan`'s on ``rewritten`` wherever ``certificate``'s
    equal them on ``plan``.  Raises :class:`~repro.exceptions.PlanError`
    when a re-priced subtree holds a broken node.
    """
    schema = distribution.schema
    bounds: dict[str, float] = {}

    def keep(node: PlanNode, path: str) -> None:
        claim = certificate.bounds.get(path)
        if claim is not None:
            bounds[path] = claim
        if isinstance(node, ConditionNode):
            keep(node.below, path + "/below")
            keep(node.above, path + "/above")

    def price(node: PlanNode, context: RangeVector, path: str) -> float:
        records = cost_decomposition(node, distribution, context, cost_model)
        bound = root_bound(records)
        for key, record in records.items():
            assert record.bound is not None  # root_bound found no broken node
            bounds[path + key[4:]] = record.bound
        return bound

    def walk(
        old: PlanNode, new: PlanNode, context: RangeVector, path: str
    ) -> float | None:
        if new == old:
            keep(new, path)
            return bounds.get(path)
        if not (
            isinstance(old, ConditionNode)
            and isinstance(new, ConditionNode)
            and (old.attribute_index, old.split_value)
            == (new.attribute_index, new.split_value)
        ):
            return price(new, context, path)
        bounds[path] = 0.0  # holds the pre-order slot until the sum below
        index = new.attribute_index
        below_context, above_context = context.split(index, new.split_value)
        below = walk(old.below, new.below, below_context, path + "/below")
        above = walk(old.above, new.above, above_context, path + "/above")
        probability = distribution.split_probability(
            index, new.split_value, context
        )
        if (probability > 0.0 and below is None) or (
            probability < 1.0 and above is None
        ):
            # A live side the certificate made no claim for: price it all.
            return price(new, context, path)
        bound = condition_bound(
            acquisition_charge(index, context, schema, cost_model),
            probability,
            0.0 if below is None else below,
            0.0 if above is None else above,
        )
        bounds[path] = bound
        return bound

    context = ranges if ranges is not None else RangeVector.full(schema)
    walk(plan, rewritten, context, "root")
    return CostCertificate(bounds=bounds, source=certificate.source)


def admissible_lower_bound(
    query: AnyQuery | None,
    schema: Schema,
    ranges: RangeVector,
    cost_model: AcquisitionCostModel | None = None,
) -> float:
    """A sound floor ``l(R)`` on any correct plan's cost for a subproblem.

    When the query is still undetermined under ``ranges``, any correct
    plan must acquire at least one attribute backing an undetermined
    predicate before it can ever reach a verdict — predicates here are
    per-attribute, so reads of *other* attributes cannot decide them.
    The floor is therefore the cheapest such acquisition (zero if one of
    those attributes was already acquired).  Conditional cost models can
    make later acquisitions cheaper than the flat costs suggest, so the
    floor conservatively collapses to zero there; a decided (or absent)
    query needs no acquisitions at all.
    """
    if query is None or cost_model is not None:
        return 0.0
    if query.truth_under(ranges) is not Truth.UNDETERMINED:
        return 0.0
    undetermined = query.undetermined_predicates(ranges)
    if not undetermined:  # inconsistent query object; stay sound
        return 0.0
    floors = []
    for _predicate, index in undetermined:
        if ranges.is_acquired(index):
            return 0.0
        floors.append(schema[index].cost)
    return min(floors)


def check_certificate(
    plan: PlanNode,
    certificate: CostCertificate,
    distribution: Distribution,
    query: AnyQuery | None = None,
    ranges: RangeVector | None = None,
    cost_model: AcquisitionCostModel | None = None,
    tolerance: float = DEFAULT_COST_TOLERANCE,
) -> list[Diagnostic]:
    """Independently re-derive every certificate claim; emit ``DF101``."""
    records = cost_decomposition(plan, distribution, ranges, cost_model)
    return certificate_findings(
        records, certificate, distribution.schema, query, cost_model, tolerance
    )


def certificate_findings(
    records: dict[str, NodeCostContribution],
    certificate: CostCertificate,
    schema: Schema,
    query: AnyQuery | None = None,
    cost_model: AcquisitionCostModel | None = None,
    tolerance: float = DEFAULT_COST_TOLERANCE,
) -> list[Diagnostic]:
    """The ``DF101`` rule over a plan's Eq. 3 decomposition ``records``.

    Claims on structurally broken plans are not checkable — the caller's
    structural rules gate this (mirroring the verifier's cost rules), and
    an unverifiable certificate yields a single ``DF101`` saying so.
    """
    try:
        root_bound(records)
    except PlanError as error:
        return [
            make_diagnostic(
                "DF101",
                "root",
                f"certificate cannot be verified: {error}",
                hint="fix the structural errors, then re-certify",
            )
        ]
    findings: list[Diagnostic] = []
    for path, claimed in sorted(certificate.bounds.items()):
        record = records.get(path)
        if record is None:
            findings.append(
                make_diagnostic(
                    "DF101",
                    path,
                    "certificate bound anchors to a node the plan does not have",
                    hint="the certificate was issued for a different plan shape",
                )
            )
            continue
        actual, context = record.bound, record.ranges
        assert actual is not None and context is not None  # a sound plan
        if abs(claimed - actual) > tolerance * max(1.0, abs(actual)):
            findings.append(
                make_diagnostic(
                    "DF101",
                    path,
                    f"claimed expected cost {claimed:.9g} disagrees with the "
                    f"Eq. 3 recomputation {actual:.9g}",
                    hint="re-certify the plan against its own distribution",
                )
            )
            continue
        floor = admissible_lower_bound(query, schema, context, cost_model=cost_model)
        if claimed < floor - tolerance:
            findings.append(
                make_diagnostic(
                    "DF101",
                    path,
                    f"claimed expected cost {claimed:.9g} falls below the "
                    f"admissible floor {floor:.9g} for the subproblem — no "
                    "correct plan can be that cheap",
                    hint="the certificate or the plan is lying about the "
                    "query it answers",
                )
            )
    return findings
