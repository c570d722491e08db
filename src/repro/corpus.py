"""One self-test runner over every seeded-defect corpus.

A checker that silently passes broken input is worse than none, so the
plan verifier, the dataflow analyzer and ``repro-lint`` each ship
negative controls: seeded defects named by the documented code that must
catch them, plus clean controls that must stay silent.  This module runs
all of them the same way, one case list per family:

- ``plan`` — ``STR``/``SEM``/``RNG``/``COST``/``BC``: the verifier's plan
  and bytecode mutations (:mod:`repro.verify.mutations`) plus one
  structural and one cost-claim defect;
- ``dataflow`` — ``DF``/``DF101``: the dataflow and certificate
  mutations (:mod:`repro.analysis.mutations`);
- ``source`` — ``DET``/``RC``/``ASY``/``LED``/``LINT``: the seeded
  modules of :mod:`repro.lint.corpus`.

:func:`run_corpus` returns human-readable failures (empty = every case
fired its code and every clean control fired nothing).  ``repro
lint-plan --suite`` and ``repro analyze --suite`` run every family;
``repro lint-code --suite`` runs ``source``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from repro.analysis.certificates import certify_plan, check_certificate
from repro.analysis.checks import check_dataflow
from repro.analysis.mutations import certificate_mutations, dataflow_mutations
from repro.core.attributes import Attribute, Schema
from repro.core.cost import expected_cost
from repro.core.plan import ConditionNode, VerdictLeaf
from repro.core.predicates import RangePredicate
from repro.core.query import ConjunctiveQuery
from repro.lint.corpus import clean_cases, violation_cases
from repro.lint.engine import lint_source
from repro.probability.empirical import EmpiricalDistribution
from repro.verify.diagnostics import Diagnostic, Severity
from repro.verify.mutations import (
    bytecode_mutations,
    canonical_conditional_plan,
    canonical_sequential_plan,
    plan_mutations,
)
from repro.verify.verifier import verify_bytecode, verify_plan

__all__ = ["FAMILIES", "CorpusCase", "run_corpus"]


@dataclass(frozen=True)
class CorpusCase:
    """One corpus entry, checked: the codes its checker fired, the code
    that must be among them (``""`` for a clean control, which must fire
    nothing) and whether the checker passed the subject (``ok``: no
    ERROR finding)."""

    name: str
    expected_code: str
    fired: frozenset[str]
    ok: bool


def _fixture() -> tuple[Schema, ConjunctiveQuery, EmpiricalDistribution]:
    """The small two-attribute query every plan-level case mutates."""
    schema = Schema(
        (
            Attribute(name="pressure", domain_size=8, cost=10.0),
            Attribute(name="flow", domain_size=8, cost=4.0),
        )
    )
    query = ConjunctiveQuery(
        schema=schema,
        predicates=(
            RangePredicate(attribute="pressure", low=3, high=6),
            RangePredicate(attribute="flow", low=2, high=7),
        ),
    )
    rng = np.random.default_rng(29)
    data = np.column_stack(
        [rng.integers(1, 9, size=300), rng.integers(1, 9, size=300)]
    )
    return schema, query, EmpiricalDistribution(schema, data, smoothing=0.5)


def _case(
    name: str, expected_code: str, diagnostics: Iterable[Diagnostic]
) -> CorpusCase:
    found = list(diagnostics)
    return CorpusCase(
        name,
        expected_code,
        frozenset(d.code for d in found),
        not any(d.severity is Severity.ERROR for d in found),
    )


def _plan_cases() -> list[CorpusCase]:
    schema, query, distribution = _fixture()
    cases: list[CorpusCase] = []
    for case in plan_mutations(query) + bytecode_mutations(query):
        if case.plan is not None:
            report = verify_plan(case.plan, schema, query=query)
        else:
            assert case.code is not None
            report = verify_bytecode(case.code, schema)
        cases.append(_case(case.name, case.expected_code, report.diagnostics))
    ghost = ConditionNode(
        attribute="ghost",
        attribute_index=len(schema) + 1,
        split_value=3,
        below=VerdictLeaf(verdict=False),
        above=VerdictLeaf(verdict=True),
    )
    cases.append(
        _case("ghost-attribute", "STR002", verify_plan(ghost, schema).diagnostics)
    )
    conditional = canonical_conditional_plan(query)
    inflated = expected_cost(conditional, distribution) * 2.0 + 1.0
    cases.append(
        _case(
            "inflated-claim",
            "COST001",
            verify_plan(
                conditional,
                schema,
                query=query,
                distribution=distribution,
                claimed_cost=inflated,
            ).diagnostics,
        )
    )
    for name, plan in (
        ("clean-sequential", canonical_sequential_plan(query)),
        ("clean-conditional", conditional),
    ):
        report = verify_plan(
            plan,
            schema,
            query=query,
            distribution=distribution,
            claimed_cost=expected_cost(plan, distribution),
            check_compiled=True,
        )
        cases.append(_case(name, "", report.diagnostics))
    return cases


def _dataflow_cases() -> list[CorpusCase]:
    schema, query, distribution = _fixture()
    cases: list[CorpusCase] = []
    for case in dataflow_mutations(query):
        assert case.plan is not None
        found = check_dataflow(case.plan, schema, query=query)
        cases.append(_case(case.name, case.expected_code, found))
    cases += [
        _case(
            case.name,
            case.expected_code,
            check_certificate(case.plan, case.certificate, distribution, query=query),
        )
        for case in certificate_mutations(query, distribution)
    ]
    conditional = canonical_conditional_plan(query)
    for name, plan in (
        ("clean-sequential", canonical_sequential_plan(query)),
        ("clean-conditional", conditional),
    ):
        cases.append(_case(name, "", check_dataflow(plan, schema, query=query)))
    honest = certify_plan(conditional, distribution)
    stray = check_certificate(conditional, honest, distribution, query=query)
    cases.append(_case("honest-certificate", "", stray))
    return cases


def _source_cases() -> list[CorpusCase]:
    return [
        _case(
            case.name,
            case.expected_code,
            lint_source(
                case.source, module=case.module, path=f"<{case.name}>"
            ).diagnostics,
        )
        for case in violation_cases() + clean_cases()
    ]


# family -> the function that checks its cases, in the order the suites
# report them.
FAMILIES: dict[str, Callable[[], list[CorpusCase]]] = {
    "plan": _plan_cases,
    "dataflow": _dataflow_cases,
    "source": _source_cases,
}


def run_corpus(family: str | None = None) -> list[str]:
    """Run one family's cases (every family by default); returns the
    failures, empty when every case fired its code and every clean
    control stayed silent.  A violation case may co-fire other codes —
    a wall-clock read can also be a ledger violation — but the named
    one must be present."""
    failures: list[str] = []
    for name in FAMILIES if family is None else (family,):
        for case in FAMILIES[name]():
            codes = sorted(case.fired)
            if case.expected_code and case.expected_code not in codes:
                failures.append(
                    f"{name} case {case.name!r} did not fire "
                    f"{case.expected_code} (got {codes})"
                )
            elif not case.expected_code and codes:
                failures.append(f"{name} clean case {case.name!r} fired {codes}")
    return failures
