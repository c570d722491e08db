"""Diagnostic records and the stable error-code catalog.

Every finding the plan verifier, the dataflow analyzer and ``repro-lint``
emit is a :class:`Diagnostic`: a stable code (``SEM001``, ``BC004``,
``DET001``, ...), a severity, an anchor, a human-readable message, and a
fix hint.  The anchor is either a plan-node path (plan findings) or a
source ``path:line:col`` (lint findings).  Codes are API — tests, CI
gates, suppression comments and the cache-admission filter match on
them — so they are registered centrally in :data:`CATALOG` and never
reused or renumbered.  ``docs/VERIFIER.md`` and ``docs/LINTING.md``
render the same catalog for humans.

Source rule families (``repro-lint``):

- ``DET`` — determinism: unseeded RNG, wall-clock reads in
  deterministic paths, unordered-set iteration;
- ``RC``  — race conditions: unlocked writes to lock-guarded shared
  state, lock-order cycles, non-reentrant self-deadlock;
- ``ASY`` — asyncio discipline: blocking calls and sync I/O on the
  event loop, deprecated loop acquisition;
- ``LED`` — ledger discipline: raw Eq. 3 cost/energy arithmetic outside
  the approved ledger helper modules;
- ``LINT`` — meta findings about the lint run itself (bad suppressions).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

__all__ = [
    "Severity",
    "Diagnostic",
    "VerificationReport",
    "CATALOG",
    "CODE_CATALOG",
    "LINT_CATALOG",
    "make_diagnostic",
]


class Severity(enum.Enum):
    """How bad a finding is: ERROR blocks caching/shipping, WARNING is
    wasted energy or a smell, INFO is context."""

    INFO = "info"
    WARNING = "warning"
    ERROR = "error"

    @property
    def rank(self) -> int:
        return ("info", "warning", "error").index(self.value)

    def __str__(self) -> str:
        return self.value


# code -> (severity, title) for every rule the verifier, the dataflow
# analyzer and repro-lint implement.  Stable: codes are never renumbered
# or reused for a different rule.  Retired, so never reused: RNG001 (now
# DF004), SEM004 (now DF002) and DF001 (now DF004 on the dead branch's
# parent) reported the same facts twice.  RNG003 is the bytecode check's
# only: in a tree a split below the domain minimum is DF004.
CATALOG: dict[str, tuple[Severity, str]] = {
    # Structural soundness (plan tree vs schema)
    "STR001": (Severity.ERROR, "unknown plan node type"),
    "STR002": (Severity.ERROR, "attribute index out of schema range"),
    "STR003": (Severity.ERROR, "attribute name disagrees with schema index"),
    "STR004": (Severity.ERROR, "predicate bounds exceed attribute domain"),
    # Semantic equivalence (plan vs query)
    "SEM001": (Severity.ERROR, "dropped conjunct: undetermined predicate missing from leaf"),
    "SEM002": (Severity.ERROR, "duplicate predicate step on one attribute"),
    "SEM003": (Severity.ERROR, "leaf evaluates a predicate that is not the query's"),
    "SEM005": (Severity.ERROR, "verdict leaf not justified by its range context"),
    "SEM006": (Severity.ERROR, "verdict leaf contradicts its range context"),
    "SEM007": (Severity.ERROR, "sequential leaf under a non-conjunctive query"),
    # Range soundness (condition splits vs reachable context)
    "RNG002": (Severity.WARNING, "condition split below an already-decided context"),
    "RNG003": (Severity.ERROR, "degenerate split below the domain minimum (bytecode only)"),
    # Cost conservation (Equation 3, given a probability model)
    "COST001": (Severity.ERROR, "claimed expected cost disagrees with Eq. 3 recomputation"),
    "COST002": (Severity.ERROR, "branch probability outside [0, 1]"),
    "COST003": (Severity.ERROR, "leaf reach probabilities do not partition the context"),
    "COST004": (Severity.WARNING, "dead branch: reach probability is zero under the model"),
    # Dataflow analysis (interval abstract interpretation over the tree)
    "DF002": (Severity.WARNING, "step predicate already decided by the path facts"),
    "DF003": (Severity.WARNING, "redundant re-acquisition of an already-observed attribute"),
    "DF004": (Severity.ERROR, "split value outside the feasible interval at the node"),
    "DF101": (Severity.ERROR, "cost-bound certificate violation"),
    # Fault tolerance (degraded-path soundness under a FaultPolicy)
    "FT001": (Severity.ERROR, "imputed positives emitted without confirmation"),
    "FT002": (Severity.ERROR, "SKIP/IMPUTE degradation configured without the query"),
    "FT003": (Severity.WARNING, "conditioning-only attribute is a SPOF under ABSTAIN"),
    # Bytecode safety (compiled plan byte strings)
    "BC001": (Severity.ERROR, "offset out of bounds or truncated node"),
    "BC002": (Severity.ERROR, "cyclic control flow in child offsets"),
    "BC003": (Severity.WARNING, "orphan bytes unreachable from the root"),
    "BC004": (Severity.ERROR, "overlapping or shared node extents"),
    "BC005": (Severity.ERROR, "size model mismatch: bytecode does not round-trip"),
    "BC006": (Severity.ERROR, "unknown node kind"),
    "BC007": (Severity.ERROR, "malformed node encoding"),
    "BC008": (Severity.ERROR, "plan nesting exceeds the verifiable depth"),
    # Learned-planner provenance (bandit posteriors + regret ledger)
    "LRN001": (Severity.ERROR, "exploration spend exceeds the regret budget"),
    "LRN002": (Severity.ERROR, "regret-ledger sides do not reconcile with the observed total"),
    "LRN003": (Severity.ERROR, "malformed arm posterior"),
    "LRN004": (Severity.ERROR, "served arm missing from the branch's arm set"),
    "LRN005": (Severity.ERROR, "emitted plan disagrees with the served arm's order"),
    # Source determinism
    "DET001": (Severity.ERROR, "unseeded random-number generation"),
    "DET002": (Severity.ERROR, "wall-clock read in a deterministic path"),
    "DET003": (Severity.WARNING, "order-sensitive iteration over an unordered set"),
    "DET004": (Severity.ERROR, "module-level RNG state in a deterministic module"),
    # Source race conditions / locking discipline
    "RC001": (Severity.ERROR, "unlocked write to lock-guarded shared state"),
    "RC002": (Severity.ERROR, "lock-acquisition-order cycle between classes"),
    "RC003": (Severity.ERROR, "nested acquisition of a non-reentrant lock"),
    # Source asyncio discipline
    "ASY001": (Severity.ERROR, "blocking call inside an async function"),
    "ASY002": (Severity.WARNING, "synchronous file I/O inside an async function"),
    "ASY003": (Severity.ERROR, "asyncio.get_event_loop in library code"),
    # Source ledger discipline (Equation 3 auditability)
    "LED001": (Severity.ERROR, "ledger field mutated outside the approved ledger modules"),
    "LED002": (Severity.WARNING, "ad-hoc arithmetic over ledger quantities outside the approved ledger modules"),
    # Source meta
    "LINT001": (Severity.WARNING, "suppression names an unknown lint code"),
}

_SOURCE_FAMILIES = ("DET", "RC", "ASY", "LED", "LINT")

# The plan-anchored and the source-anchored codes of the one catalog.
CODE_CATALOG = {
    code: entry
    for code, entry in CATALOG.items()
    if code.rstrip("0123456789") not in _SOURCE_FAMILIES
}
LINT_CATALOG = {
    code: entry for code, entry in CATALOG.items() if code not in CODE_CATALOG
}


@dataclass(frozen=True)
class Diagnostic:
    """One finding: stable code, severity, anchor, message, fix hint.

    A plan finding has ``line=None`` and a ``path`` that locates the node
    in the tree (``root``, ``root/below/above``, ``root/steps[2]``) or,
    for bytecode rules, the byte offset (``@0x001c``).  A source finding
    anchors to file ``path``, 1-based ``line`` and 0-based ``col`` (as in
    the CPython ``ast`` module) inside the dotted ``module``.
    """

    code: str
    severity: Severity
    path: str
    message: str
    hint: str = ""
    line: int | None = None
    col: int = 0
    module: str = ""

    def format(self) -> str:
        severity = self.severity.value.upper()
        if self.line is None:
            text = f"{severity:<7} {self.code} {self.path}: {self.message}"
        else:
            text = (
                f"{self.path}:{self.line}:{self.col}: "
                f"{severity} {self.code} {self.message}"
            )
        if self.hint:
            text += f" (hint: {self.hint})"
        return text

    def as_dict(self) -> dict[str, Any]:
        if self.line is None:
            anchor: dict[str, Any] = {"path": self.path}
        else:
            anchor = {
                "module": self.module,
                "path": self.path,
                "line": self.line,
                "col": self.col,
            }
        return {
            "code": self.code,
            "severity": self.severity.value,
            **anchor,
            "message": self.message,
            "hint": self.hint,
        }


def make_diagnostic(
    code: str,
    path: str,
    message: str,
    hint: str = "",
    line: int | None = None,
    col: int = 0,
    module: str = "",
) -> Diagnostic:
    """Build a diagnostic with the catalog's severity for ``code``."""
    severity, _title = CATALOG[code]
    return Diagnostic(code, severity, path, message, hint, line, col, module)


@dataclass(frozen=True)
class VerificationReport:
    """The ordered findings of one verification or lint run.

    ``files`` is the number of source files a lint run scanned and is
    ``None`` for plan reports; it decides the report's rendering and its
    JSON shape (``findings`` + ``files`` vs ``diagnostics``).
    """

    diagnostics: tuple[Diagnostic, ...] = field(default_factory=tuple)
    subject: str = "plan"
    files: int | None = None

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    @property
    def findings(self) -> tuple[Diagnostic, ...]:
        """The source-report spelling of :attr:`diagnostics`."""
        return self.diagnostics

    @property
    def errors(self) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity is Severity.ERROR)

    @property
    def warnings(self) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity is Severity.WARNING)

    @property
    def ok(self) -> bool:
        """No ERROR-severity findings (warnings do not block)."""
        return not self.errors

    def codes(self) -> frozenset[str]:
        return frozenset(d.code for d in self.diagnostics)

    def has(self, code: str) -> bool:
        return any(d.code == code for d in self.diagnostics)

    def format(self) -> str:
        scope = "" if self.files is None else f" across {self.files} file(s)"
        if not self.diagnostics:
            if self.files is None:
                return f"{self.subject}: clean (no diagnostics)"
            return f"{self.subject}: clean ({self.files} file(s), no findings)"
        lines = [
            f"{self.subject}: {len(self.errors)} error(s), "
            f"{len(self.warnings)} warning(s){scope}"
        ]
        lines.extend(d.format() for d in self.diagnostics)
        return "\n".join(lines)

    def as_dict(self) -> dict[str, Any]:
        found = [d.as_dict() for d in self.diagnostics]
        if self.files is None:
            counts: dict[str, Any] = {}
            listing: dict[str, Any] = {"diagnostics": found}
        else:
            counts = {"files": self.files}
            listing = {"findings": found}
        return {
            "subject": self.subject,
            "ok": self.ok,
            **counts,
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            **listing,
        }

    @classmethod
    def from_findings(
        cls,
        findings: Iterable[Diagnostic],
        subject: str = "plan",
        files: int | None = None,
    ) -> "VerificationReport":
        """Order ``findings``: plan reports by severity, then code and
        node path; source reports by file position."""
        if files is None:
            ordered = sorted(
                findings, key=lambda d: (-d.severity.rank, d.code, d.path)
            )
        else:
            ordered = sorted(
                findings, key=lambda d: (d.path, d.line or 0, d.col, d.code)
            )
        return cls(diagnostics=tuple(ordered), subject=subject, files=files)
