"""Known-bad plans for the dataflow rules: the ``DF*`` negative controls.

Mirrors :mod:`repro.verify.mutations`: each case seeds one defect class
the dataflow analyzer must catch, named by its expected ``DF*`` code.
The one corpus runner (:func:`repro.corpus.run_corpus`, family
``dataflow``) asserts every case fires, and both CLI suites run it in
CI so a silently-dead rule cannot ship.  Certificate defects carry a
plan *and* a lying
:class:`~repro.analysis.certificates.CostCertificate`, so they get their
own :class:`CertificateCase` shape.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.certificates import CostCertificate, certify_plan
from repro.core.plan import ConditionNode, PlanNode, VerdictLeaf
from repro.core.query import ConjunctiveQuery
from repro.core.ranges import RangeVector
from repro.probability.base import Distribution
from repro.verify.mutations import (
    MutationCase,
    canonical_conditional_plan,
    canonical_sequential_plan,
    leaf_for,
    require_mutable_query,
)

__all__ = ["CertificateCase", "dataflow_mutations", "certificate_mutations"]


@dataclass(frozen=True)
class CertificateCase:
    """One seeded certificate defect and the code that must catch it."""

    name: str
    description: str
    expected_code: str
    plan: PlanNode
    certificate: CostCertificate


def dataflow_mutations(query: ConjunctiveQuery) -> list[MutationCase]:
    """Seeded dataflow defects, one case per defect class (a dead branch
    is reported as the ``DF004`` split above it)."""
    require_mutable_query(query)
    conditional = canonical_conditional_plan(query)
    index = conditional.attribute_index
    full = RangeVector.full(query.schema)
    below_ranges, _ = full.split(index, conditional.split_value)

    # Re-splitting the below branch at the same value: the inner split
    # falls outside its own [1, split-1] interval, so its above side is
    # unreachable (DF004), and the re-test of an observed attribute
    # decides nothing (DF003).
    resplit = ConditionNode(
        attribute=conditional.attribute,
        attribute_index=index,
        split_value=conditional.split_value,
        below=ConditionNode(
            attribute=conditional.attribute,
            attribute_index=index,
            split_value=conditional.split_value,
            below=leaf_for(query, below_ranges),
            above=leaf_for(query, below_ranges),
        ),
        above=conditional.above,
    )
    # A full naive leaf under the FALSE-proving branch: its first step is
    # always-false given the split facts (DF002) on an observed
    # attribute (DF003).
    decided_step = ConditionNode(
        attribute=conditional.attribute,
        attribute_index=index,
        split_value=conditional.split_value,
        below=canonical_sequential_plan(query),
        above=conditional.above,
    )
    return [
        MutationCase(
            name="decided-step",
            description="leaf re-tests a predicate the split already refuted",
            expected_code="DF002",
            plan=decided_step,
        ),
        MutationCase(
            name="redundant-reacquisition",
            description="leaf re-reads an attribute the split observed, "
            "learning nothing",
            expected_code="DF003",
            plan=decided_step,
        ),
        MutationCase(
            name="infeasible-split",
            description="inner re-split outside its feasible interval "
            "leaves its above side dead",
            expected_code="DF004",
            plan=resplit,
        ),
    ]


def certificate_mutations(
    query: ConjunctiveQuery, distribution: Distribution
) -> list[CertificateCase]:
    """Seeded cost-bound lies, every one a ``DF101``."""
    require_mutable_query(query)
    conditional = canonical_conditional_plan(query)
    honest = certify_plan(conditional, distribution)
    inflated = dict(honest.bounds)
    inflated["root"] = inflated["root"] * 2.0 + 5.0
    phantom = dict(honest.bounds)
    phantom["root/below/below"] = 0.0
    return [
        CertificateCase(
            name="inflated-bound",
            description="root bound disagrees with the Eq. 3 recomputation",
            expected_code="DF101",
            plan=conditional,
            certificate=CostCertificate(bounds=inflated, source="mutated"),
        ),
        CertificateCase(
            name="phantom-node",
            description="bound anchors to a node the plan does not have",
            expected_code="DF101",
            plan=conditional,
            certificate=CostCertificate(bounds=phantom, source="mutated"),
        ),
        CertificateCase(
            name="free-lunch-verdict",
            description="zero-cost TRUE verdict claimed for an undetermined "
            "query — below the admissible floor",
            expected_code="DF101",
            plan=VerdictLeaf(verdict=True),
            certificate=CostCertificate(bounds={"root": 0.0}, source="mutated"),
        ),
    ]
