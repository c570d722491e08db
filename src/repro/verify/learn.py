"""``LRN`` rules: audit a learned plan's bandit provenance.

A plan emitted by the learned planner carries a
:class:`~repro.learn.bandit.LearnedProvenance` — per-branch arm
posteriors plus the regret-ledger snapshot.  These rules re-check, from
the provenance alone, the contracts the learning loop claims to uphold:

- ``LRN001`` — the exploration side of the ledger never exceeds the
  regret budget (the bandit's hard gate actually held);
- ``LRN002`` — the ledger's sides (warmup, conditioning, base,
  exploration) reconcile with the observed total cost, and no side is
  negative: every joule the stream metered landed on exactly one side;
- ``LRN003`` — every arm posterior is well-formed: non-negative pulls
  and weights, finite non-negative means sitting inside their own
  confidence interval, ``lcb <= ucb``;
- ``LRN004`` — each branch's served arm exists, arm ids are unique and
  densely numbered, and the arm set is non-empty;
- ``LRN005`` — the emitted plan is the plan the provenance says it is:
  walking the tree, every branch path resolves to a leaf whose step
  order equals the served arm's recorded order.

Like every verifier family these are static checks over data the
subject hands us — nothing is executed and nothing is trusted twice:
the ledger's own ``total_cost`` is *not* read: the sides are added up here
and only their sum is handed to the one conservation check.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from repro.core.ledger import Ledger
from repro.core.plan import ConditionNode, PlanNode, SequentialNode, VerdictLeaf
from repro.verify.diagnostics import Diagnostic, make_diagnostic

if TYPE_CHECKING:
    from repro.learn.bandit import BranchProvenance, LearnedProvenance

__all__ = ["check_learned"]

_BOUND_SLACK = 1e-9


def check_learned(
    plan: PlanNode,
    provenance: "LearnedProvenance",
    tolerance: float = 1e-6,
) -> list[Diagnostic]:
    """Run the ``LRN`` family over ``plan`` and its provenance."""
    findings: list[Diagnostic] = []
    findings.extend(_check_ledger(provenance, tolerance))
    leaves = _collect_leaves(plan)
    for branch in provenance.branches:
        findings.extend(_check_branch(branch))
        findings.extend(_check_branch_plan(branch, leaves))
    return findings


def _check_ledger(
    provenance: "LearnedProvenance", tolerance: float
) -> list[Diagnostic]:
    findings: list[Diagnostic] = []
    ledger = provenance.ledger
    if ledger.exploration_cost > ledger.budget * (1.0 + tolerance) + _BOUND_SLACK:
        findings.append(
            make_diagnostic(
                "LRN001",
                "root",
                f"exploration spend {ledger.exploration_cost:.6f} exceeds "
                f"the regret budget {ledger.budget:.6f}",
            )
        )
    total = 0.0
    for side in ledger.SIDES:
        value = getattr(ledger, side)
        if not math.isfinite(value) or value < 0.0:
            findings.append(
                make_diagnostic(
                    "LRN002",
                    "root",
                    f"ledger side {side!r} is not a finite non-negative "
                    f"charge: {value}",
                )
            )
            return findings
        total += value
    observed = provenance.observed_total
    audit = Ledger(base_cost=total)
    if not audit.conserved(observed, tolerance):
        findings.append(
            make_diagnostic(
                "LRN002",
                "root",
                f"ledger sides sum to {total:.6f} but the stream metered "
                f"{observed:.6f} (gap {audit.gap(observed):.6f})",
            )
        )
    return findings


def _check_branch(branch: "BranchProvenance") -> list[Diagnostic]:
    findings: list[Diagnostic] = []
    arm_ids = [arm.arm_id for arm in branch.arms]
    if not branch.arms:
        findings.append(
            make_diagnostic(
                "LRN004", branch.path, "branch provenance carries no arms"
            )
        )
        return findings
    if sorted(arm_ids) != list(range(len(arm_ids))):
        findings.append(
            make_diagnostic(
                "LRN004",
                branch.path,
                f"arm ids are not densely numbered: {sorted(arm_ids)}",
            )
        )
    if branch.served_arm not in arm_ids:
        findings.append(
            make_diagnostic(
                "LRN004",
                branch.path,
                f"served arm {branch.served_arm} is not among arms "
                f"{sorted(arm_ids)}",
            )
        )
    if branch.span < 0.0 or not math.isfinite(branch.span):
        findings.append(
            make_diagnostic(
                "LRN003",
                branch.path,
                f"branch span must be finite and >= 0: {branch.span}",
            )
        )
    for arm in branch.arms:
        detail = _posterior_defect(arm)
        if detail is not None:
            findings.append(
                make_diagnostic(
                    "LRN003",
                    branch.path,
                    f"arm {arm.arm_id}: {detail}",
                )
            )
    return findings


def _posterior_defect(arm) -> str | None:
    if arm.pulls < 0:
        return f"negative pull count {arm.pulls}"
    if arm.weight < 0.0 or not math.isfinite(arm.weight):
        return f"observation weight must be finite and >= 0: {arm.weight}"
    if not math.isfinite(arm.mean) or arm.mean < 0.0:
        return f"mean cost must be finite and >= 0: {arm.mean}"
    if math.isnan(arm.lcb) or math.isnan(arm.ucb):
        return f"confidence bounds must not be NaN: [{arm.lcb}, {arm.ucb}]"
    if arm.lcb > arm.ucb + _BOUND_SLACK:
        return f"inverted confidence interval [{arm.lcb}, {arm.ucb}]"
    if arm.mean < arm.lcb - _BOUND_SLACK or arm.mean > arm.ucb + _BOUND_SLACK:
        return (
            f"mean {arm.mean} outside its own confidence interval "
            f"[{arm.lcb}, {arm.ucb}]"
        )
    if arm.prior < 0.0 or not math.isfinite(arm.prior):
        return f"prior cost must be finite and >= 0: {arm.prior}"
    return None


def _collect_leaves(plan: PlanNode) -> dict[str, PlanNode]:
    leaves: dict[str, PlanNode] = {}

    def walk(node: PlanNode, path: str) -> None:
        if isinstance(node, ConditionNode):
            walk(node.below, f"{path}/below")
            walk(node.above, f"{path}/above")
        else:
            leaves[path] = node

    walk(plan, "root")
    return leaves


def _check_branch_plan(
    branch: "BranchProvenance", leaves: dict[str, PlanNode]
) -> list[Diagnostic]:
    leaf = leaves.get(branch.path)
    if leaf is None:
        return [
            make_diagnostic(
                "LRN005",
                branch.path,
                "provenance branch path does not resolve to a leaf of the "
                "emitted plan",
            )
        ]
    served = next(
        (arm for arm in branch.arms if arm.arm_id == branch.served_arm), None
    )
    if served is None:
        return []  # already reported as LRN004
    if isinstance(leaf, SequentialNode):
        plan_order = tuple(step.attribute_index for step in leaf.steps)
    elif isinstance(leaf, VerdictLeaf):
        plan_order = ()
    else:  # pragma: no cover - defensive: unknown leaf kinds
        plan_order = None
    if plan_order != served.order:
        return [
            make_diagnostic(
                "LRN005",
                branch.path,
                f"emitted leaf order {plan_order} disagrees with the served "
                f"arm's order {served.order}",
            )
        ]
    return []
