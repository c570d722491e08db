"""Fault-tolerance rules (``FT*``): degraded paths must stay sound.

When a plan will execute under a :class:`~repro.faults.policy.FaultPolicy`,
the degraded paths the policy selects are part of the plan's semantics and
deserve the same static scrutiny as the tree itself:

- ``FT001`` — ``IMPUTE`` with ``confirm_positives`` disabled emits
  positive verdicts derived from a guessed branch, violating the
  no-false-positives guarantee (ERROR).
- ``FT002`` — ``SKIP``/``IMPUTE`` need the original query at degradation
  time (its predicates *are* the fallback path); configuring them without
  one leaves the executor nothing sound to fall back to (ERROR).
- ``FT003`` — a conditioning-only attribute (one the plan reads but the
  query never tests) is a single point of failure under ``ABSTAIN``:
  every tuple routed through it abstains when it fails, even though the
  verdict never needed the attribute (WARNING — prefer ``SKIP``).

The rules are static — nothing is executed — and compose with the rest of
:func:`repro.verify.verifier.verify_plan` via its ``fault_policy``
parameter.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.attributes import Schema
from repro.core.plan import ConditionNode, PlanNode
from repro.core.query import ConjunctiveQuery
from repro.verify.diagnostics import Diagnostic, make_diagnostic
from repro.verify.paths import iter_plan_paths

if TYPE_CHECKING:
    from repro.faults.policy import FaultPolicy

__all__ = ["check_fault_tolerance"]


def check_fault_tolerance(
    plan: PlanNode,
    schema: Schema,
    policy: "FaultPolicy",
    query: ConjunctiveQuery | None = None,
) -> list[Diagnostic]:
    """Run the ``FT*`` rules for a plan executing under ``policy``."""
    # Imported lazily: repro.faults is a higher layer than repro.verify.
    from repro.faults.policy import DegradationMode

    findings: list[Diagnostic] = []
    mode = policy.degradation
    if mode is DegradationMode.IMPUTE and not policy.confirm_positives:
        findings.append(
            make_diagnostic(
                "FT001",
                "root",
                "IMPUTE degradation with confirm_positives disabled emits "
                "unverified positive verdicts from guessed branches",
                hint="enable confirm_positives or degrade with SKIP/ABSTAIN",
            )
        )
    if mode is not DegradationMode.ABSTAIN and query is None:
        findings.append(
            make_diagnostic(
                "FT002",
                "root",
                f"degradation mode {mode.value!r} requires the original "
                "query as its fallback path, but none is bound",
                hint="verify with query= or execute with ABSTAIN degradation",
            )
        )
    if query is not None and mode is DegradationMode.ABSTAIN:
        query_indices = set(query.attribute_indices)
        flagged: set[int] = set()
        for path, node in iter_plan_paths(plan):
            if not isinstance(node, ConditionNode):
                continue
            index = node.attribute_index
            if index in query_indices or index in flagged:
                continue
            if not 0 <= index < len(schema):
                continue  # STR002's finding; nothing sound to add here
            flagged.add(index)
            findings.append(
                make_diagnostic(
                    "FT003",
                    path,
                    f"conditioning-only attribute {schema[index].name!r} is "
                    "a single point of failure under ABSTAIN: tuples abstain "
                    "on a read the verdict never needed",
                    hint="prefer SKIP degradation so the query's own "
                    "predicates decide the tuple",
                )
            )
    return findings
