"""Static analysis over conditional-plan IR and compiled bytecode.

Plans cross two trust boundaries in the paper's architecture: the
planner hands an opaque tree to the execution layer, and Section 2.5
ships that tree into the network as a byte string.  Theorem 3.1 makes
dataset-relative plan optimization NP-complete, so planners lean on
heuristics — and a buggy heuristic, a corrupted byte, or a stale cached
plan silently returns wrong tuples or burns acquisition energy.  This
package is the correctness backstop: a rule-based verifier that walks
plans *without executing them* and emits structured diagnostics with
stable error codes (see :mod:`repro.verify.diagnostics` for the
catalog, mirrored in ``docs/VERIFIER.md``).

Six rule families:

- **semantic equivalence** — every root-to-leaf path decides exactly
  the query's conjuncts (``SEM*``);
- **range soundness** — splits under a context that already decides
  the query are flagged (``RNG*``, ``STR*``); a split that cannot
  partition its context, one below the domain minimum included, is
  ``DF004`` (a byte string's degenerate split is ``RNG003``);
- **cost conservation** — the claimed expected cost matches an
  independent Equation 3 recomputation and branch probabilities are
  sound (``COST*``);
- **dataflow analysis** — an interval-domain abstract interpretation
  (:mod:`repro.analysis`) proves dead branches, decided step
  predicates, redundant re-acquisitions, infeasible splits, and
  cost-bound certificate violations (``DF*``);
- **bytecode safety** — compiled plans have in-bounds, acyclic,
  non-overlapping node layouts and round-trip losslessly (``BC*``);
- **fault tolerance** — when a plan will run under a
  :class:`~repro.faults.FaultPolicy`, its degraded paths must remain
  semantically sound (``FT*``, :mod:`repro.verify.ft`);
- **learned provenance** — a plan emitted by the bandit planner must
  carry a regret ledger that conserves the budget and well-formed arm
  posteriors that agree with the emitted tree (``LRN*``,
  :mod:`repro.verify.learn`).

Entry points: :func:`verify_plan`, :func:`verify_bytecode` and
:func:`assert_valid_plan`.  A mutation corpus
for self-testing the verifier lives in :mod:`repro.verify.mutations`;
:mod:`repro.corpus` runs it alongside the dataflow and source corpora.
"""

from repro.verify.diagnostics import (
    CODE_CATALOG,
    Diagnostic,
    Severity,
    VerificationReport,
)
from repro.verify.ft import check_fault_tolerance
from repro.verify.learn import check_learned
from repro.verify.mutations import MutationCase, bytecode_mutations, plan_mutations
from repro.verify.paths import ROOT_PATH, iter_plan_paths, step_path
from repro.verify.verifier import assert_valid_plan, verify_bytecode, verify_plan

__all__ = [
    "Severity",
    "Diagnostic",
    "VerificationReport",
    "CODE_CATALOG",
    "verify_plan",
    "verify_bytecode",
    "assert_valid_plan",
    "check_fault_tolerance",
    "check_learned",
    "MutationCase",
    "plan_mutations",
    "bytecode_mutations",
    "ROOT_PATH",
    "iter_plan_paths",
    "step_path",
]
