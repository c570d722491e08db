"""Static dataflow analysis over the plan IR.

An abstract interpretation in the interval domain
(:mod:`~repro.analysis.domain`) propagates, down every path of a plan
tree, what the path has already proven about the tuple: per-attribute
feasible intervals from ancestor condition splits and passed sequential
steps, plus the set of attributes already observed.  On top of that one
pass sit:

- the verifier's structural, semantic and range rules
  (:func:`repro.verify.rules.check_facts`), which read each node's facts;
- the ``DF002``–``DF004`` diagnostics (:mod:`~repro.analysis.checks`),
  which ``check_facts`` runs on the same pass: decided step predicates,
  redundant re-acquisitions, and infeasible split points (each with the
  dead branch it implies) — verifier-grade findings the plan verifier,
  lint gate, and cache admission pick up automatically;
- cost-bound certificates (:mod:`~repro.analysis.certificates`): per
  subtree Eq. 3 expected-cost claims, issued by the planners' own
  searches or read off the one Eq. 3 walk
  (:func:`repro.core.cost.cost_decomposition`), which
  :func:`~repro.analysis.certificates.check_certificate` re-derives,
  emitting ``DF101`` on any lie;
- the rewriter (:mod:`~repro.analysis.rewrite`):
  :func:`~repro.analysis.rewrite.optimize_plan` eliminates dead branches
  and subsumed predicates from the same facts while provably preserving
  every tuple's verdict;
- the ``repro analyze`` CLI rendering (:mod:`~repro.analysis.render`)
  and the DF negative-control corpus (:mod:`~repro.analysis.mutations`).
"""

from repro.analysis.certificates import (
    CostCertificate,
    admissible_lower_bound,
    carry_certificate,
    certify_plan,
    check_certificate,
)
from repro.analysis.checks import check_dataflow
from repro.analysis.dataflow import (
    NodeFacts,
    PlanAnalysis,
    StepFacts,
    analyze_plan,
)
from repro.analysis.domain import AbstractState
from repro.analysis.mutations import (
    CertificateCase,
    certificate_mutations,
    dataflow_mutations,
)
from repro.analysis.render import render_analysis
from repro.analysis.rewrite import optimize_plan

__all__ = [
    "AbstractState",
    "StepFacts",
    "NodeFacts",
    "PlanAnalysis",
    "analyze_plan",
    "check_dataflow",
    "CostCertificate",
    "certify_plan",
    "carry_certificate",
    "admissible_lower_bound",
    "check_certificate",
    "optimize_plan",
    "render_analysis",
    "CertificateCase",
    "dataflow_mutations",
    "certificate_mutations",
]
