"""Verifier entry points: one plan, one byte string, or many of each.

:func:`verify_plan` runs the tree rules (structure, semantics, ranges)
plus — when a distribution is supplied — cost conservation, and
optionally cross-checks the compiled form.  :func:`verify_bytecode`
starts from the wire format instead: the layout must pass the ``BC*``
safety rules before the decoded tree is put through the same tree rules.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.attributes import Schema
from repro.core.boolean import BooleanQuery
from repro.core.cost import cost_decomposition
from repro.core.cost_models import AcquisitionCostModel
from repro.core.plan import PlanNode
from repro.core.query import ConjunctiveQuery
from repro.core.ranges import RangeVector
from repro.exceptions import PlanVerificationError, ReproError
from repro.execution.bytecode import compile_plan
from repro.probability.base import Distribution
from repro.verify.bytecode_check import check_bytecode
from repro.verify.diagnostics import VerificationReport, make_diagnostic
from repro.verify.rules import DEFAULT_COST_TOLERANCE, check_cost, check_facts

if TYPE_CHECKING:
    from repro.analysis.certificates import CostCertificate
    from repro.faults.policy import FaultPolicy
    from repro.learn.bandit import LearnedProvenance

__all__ = [
    "verify_plan",
    "verify_bytecode",
    "assert_valid_plan",
    "DEFAULT_COST_TOLERANCE",
]

AnyQuery = ConjunctiveQuery | BooleanQuery


def verify_plan(
    plan: PlanNode,
    schema: Schema,
    query: AnyQuery | None = None,
    distribution: Distribution | None = None,
    claimed_cost: float | None = None,
    cost_model: AcquisitionCostModel | None = None,
    ranges: RangeVector | None = None,
    check_compiled: bool = False,
    tolerance: float = DEFAULT_COST_TOLERANCE,
    subject: str = "plan",
    certificate: "CostCertificate | None" = None,
    fault_policy: "FaultPolicy | None" = None,
    provenance: "LearnedProvenance | None" = None,
) -> VerificationReport:
    """Statically verify a plan tree; nothing is executed.

    ``query`` enables the semantic-equivalence rules, ``distribution``
    the cost-conservation rules (with ``claimed_cost`` compared when
    given, within the relative ``tolerance``), and ``check_compiled``
    additionally compiles the plan and runs the bytecode safety rules
    over the result.  The dataflow rules (``DF002``-``DF004``) always
    run; a ``certificate`` (with a distribution) additionally re-derives
    its cost-bound claims (``DF101``, within the same ``tolerance``).
    The plan is walked twice: one dataflow pass feeds the tree and
    dataflow rules, one Eq. 3 decomposition the cost and certificate
    rules.  A ``fault_policy`` enables the fault-tolerance rules
    (``FT001``-``FT003``): the degraded paths the policy selects must
    remain semantically sound.  A learned-planner ``provenance`` (from
    :class:`repro.learn.planner.BanditPlanner` or the learned stream
    executor) additionally runs the ``LRN`` rules: regret-budget
    conservation, arm-posterior well-formedness, and plan/served-arm
    agreement.
    """
    # Imported lazily: repro.analysis imports this package's submodules.
    from repro.analysis.certificates import certificate_findings
    from repro.analysis.dataflow import analyze_plan

    # One interval walk feeds the tree rules and the dataflow rules.
    findings = check_facts(analyze_plan(plan, schema, query=query, ranges=ranges))
    if fault_policy is not None:
        from repro.verify.ft import check_fault_tolerance

        ft_query = query if isinstance(query, ConjunctiveQuery) else None
        findings.extend(
            check_fault_tolerance(plan, schema, fault_policy, query=ft_query)
        )
    # A broken or decided split leaves no sound Eq. 3 walk to check.
    structurally_sound = not any(
        finding.code.startswith(("STR", "RNG")) or finding.code == "DF004"
        for finding in findings
    )
    if distribution is not None and structurally_sound:
        # One Eq. 3 walk feeds the cost rules and the certificate rule.
        decomposition = cost_decomposition(
            plan, distribution, ranges=ranges, cost_model=cost_model
        )
        findings.extend(
            check_cost(decomposition, claimed_cost=claimed_cost, tolerance=tolerance)
        )
        if certificate is not None:
            findings.extend(
                certificate_findings(
                    decomposition,
                    certificate,
                    distribution.schema,
                    query=query,
                    cost_model=cost_model,
                    tolerance=tolerance,
                )
            )
    if check_compiled and structurally_sound:
        try:
            code = compile_plan(plan)
        except ReproError as error:
            findings.append(
                make_diagnostic(
                    "BC005", "root", f"plan does not compile: {error}"
                )
            )
        else:
            byte_findings, _decoded = check_bytecode(code, schema)
            findings.extend(byte_findings)
    if provenance is not None and structurally_sound:
        from repro.verify.learn import check_learned

        findings.extend(check_learned(plan, provenance, tolerance=tolerance))
    return VerificationReport.from_findings(findings, subject=subject)


def verify_bytecode(
    code: bytes,
    schema: Schema,
    query: AnyQuery | None = None,
    distribution: Distribution | None = None,
    claimed_cost: float | None = None,
    cost_model: AcquisitionCostModel | None = None,
    tolerance: float = DEFAULT_COST_TOLERANCE,
    subject: str = "bytecode",
) -> VerificationReport:
    """Statically verify a compiled plan byte string.

    The ``BC*`` layout rules run first; only a byte string that decodes
    cleanly is put through the tree rules (semantics, ranges, cost).
    """
    findings, plan = check_bytecode(code, schema)
    if plan is not None:
        tree_report = verify_plan(
            plan,
            schema,
            query=query,
            distribution=distribution,
            claimed_cost=claimed_cost,
            cost_model=cost_model,
            tolerance=tolerance,
        )
        findings.extend(tree_report.diagnostics)
    return VerificationReport.from_findings(findings, subject=subject)


def assert_valid_plan(
    plan: PlanNode,
    schema: Schema,
    query: AnyQuery | None = None,
    distribution: Distribution | None = None,
    claimed_cost: float | None = None,
    cost_model: AcquisitionCostModel | None = None,
    check_compiled: bool = True,
    subject: str = "plan",
    certificate: "CostCertificate | None" = None,
    fault_policy: "FaultPolicy | None" = None,
    provenance: "LearnedProvenance | None" = None,
) -> VerificationReport:
    """Verify and raise :class:`PlanVerificationError` on any ERROR."""
    report = verify_plan(
        plan,
        schema,
        query=query,
        distribution=distribution,
        claimed_cost=claimed_cost,
        cost_model=cost_model,
        check_compiled=check_compiled,
        subject=subject,
        certificate=certificate,
        fault_policy=fault_policy,
        provenance=provenance,
    )
    if not report.ok:
        raise PlanVerificationError(report.format(), report=report)
    return report
