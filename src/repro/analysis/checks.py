"""Dataflow diagnostics: the ``DF00x`` rule family.

These rules consume a :class:`~repro.analysis.dataflow.PlanAnalysis`
and report facts the abstract interpretation *proves* — unlike the
model-relative ``COST004`` (a branch dead under the statistics), a
``DF004`` split leaves one branch dead for every tuple, whatever the
distribution.  :func:`repro.verify.rules.check_facts` runs them on the
verifier's own pass, so these are the only codes for these facts.

==========  ========  ====================================================
Code        Severity  Meaning
==========  ========  ====================================================
``DF002``   WARNING   a step predicate is always-true or always-false
                      under the path facts — evaluating it is wasted work
``DF003``   WARNING   a node re-acquires an attribute already observed on
                      the path *and* learns nothing new from it
``DF004``   ERROR     a condition splits outside the feasible interval at
                      the node, so the test cannot go both ways: the
                      branch it never takes is dead
==========  ========  ====================================================

``DF101`` (cost-bound certificates) lives in
:mod:`repro.analysis.certificates`.
"""

from __future__ import annotations

from repro.analysis.dataflow import AnyQuery, NodeFacts, PlanAnalysis, analyze_plan
from repro.core.attributes import Schema
from repro.core.plan import ConditionNode, PlanNode, SequentialNode
from repro.core.predicates import Truth
from repro.core.ranges import RangeVector
from repro.verify.diagnostics import Diagnostic, make_diagnostic
from repro.verify.paths import step_path

__all__ = ["check_dataflow"]


def check_dataflow(
    plan: PlanNode,
    schema: Schema,
    query: AnyQuery | None = None,
    ranges: RangeVector | None = None,
    analysis: PlanAnalysis | None = None,
) -> list[Diagnostic]:
    """Run the DF002-DF004 rules over ``plan``.

    Pass a precomputed ``analysis`` to avoid re-walking the tree (the
    verifier and the rewriter share one pass).
    """
    if analysis is None:
        analysis = analyze_plan(plan, schema, query=query, ranges=ranges)
    findings: list[Diagnostic] = []
    for facts in analysis:
        if not facts.state.feasible:
            continue  # no tuple gets here: the split above is DF004
        if isinstance(facts.node, ConditionNode):
            findings.extend(_check_condition(facts, schema))
        elif isinstance(facts.node, SequentialNode):
            findings.extend(_check_sequential(facts, schema))
    return findings


def _attribute_name(schema: Schema, index: int) -> str:
    if 0 <= index < len(schema):
        return schema[index].name
    return f"attribute[{index}]"


def _check_condition(facts: NodeFacts, schema: Schema) -> list[Diagnostic]:
    node = facts.node
    assert isinstance(node, ConditionNode)
    index = node.attribute_index
    if not 0 <= index < len(schema):
        return []  # STR002 territory: no interval to reason about
    interval = facts.state.interval(index)
    assert interval is not None
    if interval.low < node.split_value <= interval.high:
        return []
    name = _attribute_name(schema, index)
    side = "above" if node.split_value <= interval.low else "below"
    findings = [
        make_diagnostic(
            "DF004",
            facts.path,
            f"split T({name} >= {node.split_value}) lies outside the "
            f"feasible interval [{interval.low}, {interval.high}]; every "
            f"tuple routes {side}",
            hint="remove the split and keep the live side",
        )
    ]
    if index in facts.state.observed:
        findings.append(
            make_diagnostic(
                "DF003",
                facts.path,
                f"{name} was already observed on this path and the split "
                "outcome is implied by the path facts",
                hint="the re-test acquires nothing and decides nothing",
            )
        )
    return findings


def _check_sequential(facts: NodeFacts, schema: Schema) -> list[Diagnostic]:
    node = facts.node
    assert isinstance(node, SequentialNode)
    findings: list[Diagnostic] = []
    for position, step_facts in enumerate(facts.steps):
        if not step_facts.state.feasible or step_facts.truth is None:
            continue  # unreachable tail or broken index: nothing provable
        step = node.steps[position]
        index = step.attribute_index
        name = _attribute_name(schema, index)
        path = step_path(facts.path, position)
        if step_facts.truth is not Truth.UNDETERMINED:
            outcome = "true" if step_facts.truth is Truth.TRUE else "false"
            interval = step_facts.state.interval(index)
            assert interval is not None
            findings.append(
                make_diagnostic(
                    "DF002",
                    path,
                    f"step predicate on {name} is always {outcome} given the "
                    f"path facts ({name} in [{interval.low}, {interval.high}])",
                    hint=(
                        "drop the step"
                        if step_facts.truth is Truth.TRUE
                        else "replace the leaf with a FALSE verdict"
                    ),
                )
            )
            if index in step_facts.state.observed:
                findings.append(
                    make_diagnostic(
                        "DF003",
                        path,
                        f"{name} was already observed on this path and the "
                        "step outcome is implied by the path facts",
                        hint="the re-test acquires nothing and decides nothing",
                    )
                )
    return findings
