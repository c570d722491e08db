"""Cost-bound certificates and the ``DF101`` rule.

A :class:`CostCertificate` attaches to a plan a claimed Equation 3
expected cost for every subtree, keyed by the verifier's node paths and
conditioned on the subtree's range context (the cost is *per tuple
reaching the node*).  Producers:

- :meth:`repro.planning.ExhaustivePlanner` exports the bounds straight
  from its dynamic-programming cache — the claims really are the DP
  optima;
- :func:`certify_plan` reads them off the one Eq. 3 walk,
  :func:`~repro.core.cost.cost_decomposition` (the fallback used by the
  heuristic planners, the service's re-certification and the CLI).

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
from repro.core.cost import NodeCostContribution, cost_decomposition, root_bound
from repro.core.cost_models import AcquisitionCostModel
from repro.core.plan import PlanNode
from repro.core.predicates import Truth
from repro.core.ranges import RangeVector
from repro.exceptions import PlanError
from repro.probability.base import Distribution
from repro.verify.diagnostics import Diagnostic, make_diagnostic
from repro.verify.rules import DEFAULT_COST_TOLERANCE

__all__ = [
    "CostCertificate",
    "certify_plan",
    "admissible_lower_bound",
    "check_certificate",
    "certificate_findings",
]


@dataclass(frozen=True)
class CostCertificate:
    """Per-subtree expected-cost claims for one plan.

    ``bounds[path]`` is the claimed Eq. 3 expected cost of the subtree
    rooted at ``path``, conditioned on the subtree's range context.
    ``source`` records who issued the claims (``"eq3"`` for the
    recomputation fallback, ``"exhaustive-dp"`` for the DP cache).
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
