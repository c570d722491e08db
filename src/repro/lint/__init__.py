"""``repro-lint``: a domain-aware static analyzer for this codebase.

The plan verifier (:mod:`repro.verify`) checks the *artifacts* the
system produces; this package checks the *source* that produces them.
Four rule families guard the invariants the serving stack's guarantees
rest on — seeded randomness and injectable clocks (``DET``), locking
discipline on shared state (``RC``), a non-blocking event loop
(``ASY``), and ledger-mediated Eq. 3 cost accounting (``LED``) — with
the verifier's diagnostics model (:mod:`repro.verify.diagnostics`: one
finding record, one report, one code catalog) and self-tested by the
one corpus runner (:mod:`repro.corpus`).  ``repro lint-code`` is the CLI
entry; ``docs/LINTING.md`` is the human-facing rule catalog.
"""

from repro.lint.base import DEFAULT_CONFIG, LintConfig, ModuleContext
from repro.lint.corpus import LintCase, clean_cases, violation_cases
from repro.lint.engine import (
    ReproLinter,
    lint_paths,
    lint_repo,
    lint_source,
)
from repro.verify.diagnostics import LINT_CATALOG

__all__ = [
    "DEFAULT_CONFIG",
    "LINT_CATALOG",
    "LintCase",
    "LintConfig",
    "ModuleContext",
    "ReproLinter",
    "clean_cases",
    "lint_paths",
    "lint_repo",
    "lint_source",
    "violation_cases",
]
