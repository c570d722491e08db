"""Diagnostic records and the stable error-code catalog.

Every finding the verifier emits is a :class:`Diagnostic`: a stable
code (``SEM001``, ``BC004``, ...), a severity, the path of the node it
anchors to, a human-readable message, and a fix hint.  Codes are API —
tests, CI gates, and the cache-admission filter match on them — so they
are registered centrally in :data:`CODE_CATALOG` and never reused or
renumbered.  ``docs/VERIFIER.md`` renders the same catalog for humans.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

__all__ = [
    "Severity",
    "Diagnostic",
    "VerificationReport",
    "CODE_CATALOG",
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


# code -> (severity, title) for every rule the verifier implements.
# Stable: codes are never renumbered or reused for a different rule.
CODE_CATALOG: dict[str, tuple[Severity, str]] = {
    # Structural soundness (plan tree vs schema)
    "STR001": (Severity.ERROR, "unknown plan node type"),
    "STR002": (Severity.ERROR, "attribute index out of schema range"),
    "STR003": (Severity.ERROR, "attribute name disagrees with schema index"),
    "STR004": (Severity.ERROR, "predicate bounds exceed attribute domain"),
    # Semantic equivalence (plan vs query)
    "SEM001": (Severity.ERROR, "dropped conjunct: undetermined predicate missing from leaf"),
    "SEM002": (Severity.ERROR, "duplicate predicate step on one attribute"),
    "SEM003": (Severity.ERROR, "leaf evaluates a predicate that is not the query's"),
    "SEM004": (Severity.WARNING, "leaf step re-tests a predicate the range context already decides"),
    "SEM005": (Severity.ERROR, "verdict leaf not justified by its range context"),
    "SEM006": (Severity.ERROR, "verdict leaf contradicts its range context"),
    "SEM007": (Severity.ERROR, "sequential leaf under a non-conjunctive query"),
    # Range soundness (condition splits vs reachable context)
    "RNG001": (Severity.ERROR, "split unreachable: value outside the parent range context"),
    "RNG002": (Severity.WARNING, "condition split below an already-decided context"),
    "RNG003": (Severity.ERROR, "degenerate split below the domain minimum"),
    # Cost conservation (Equation 3, given a probability model)
    "COST001": (Severity.ERROR, "claimed expected cost disagrees with Eq. 3 recomputation"),
    "COST002": (Severity.ERROR, "branch probability outside [0, 1]"),
    "COST003": (Severity.ERROR, "leaf reach probabilities do not partition the context"),
    "COST004": (Severity.WARNING, "dead branch: reach probability is zero under the model"),
    # Dataflow analysis (interval abstract interpretation over the tree)
    "DF001": (Severity.WARNING, "dead branch: no tuple can reach it"),
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
}


@dataclass(frozen=True)
class Diagnostic:
    """One finding: stable code, severity, node path, message, fix hint.

    ``path`` locates the node in the tree (``root``, ``root/below/above``,
    ``root/steps[2]``) or, for bytecode rules, the byte offset
    (``@0x001c``).
    """

    code: str
    severity: Severity
    path: str
    message: str
    hint: str = ""

    def format(self) -> str:
        line = f"{self.severity.value.upper():<7} {self.code} {self.path}: {self.message}"
        if self.hint:
            line += f" (hint: {self.hint})"
        return line

    def as_dict(self) -> dict[str, Any]:
        return {
            "code": self.code,
            "severity": self.severity.value,
            "path": self.path,
            "message": self.message,
            "hint": self.hint,
        }


def make_diagnostic(code: str, path: str, message: str, hint: str = "") -> Diagnostic:
    """Build a diagnostic with the catalog's severity for ``code``."""
    severity, _title = CODE_CATALOG[code]
    return Diagnostic(code=code, severity=severity, path=path, message=message, hint=hint)


@dataclass(frozen=True)
class VerificationReport:
    """The ordered findings of one verification run."""

    diagnostics: tuple[Diagnostic, ...] = field(default_factory=tuple)
    subject: str = "plan"

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

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

    def merged(self, other: "VerificationReport") -> "VerificationReport":
        return VerificationReport(
            diagnostics=self.diagnostics + other.diagnostics, subject=self.subject
        )

    def format(self) -> str:
        if not self.diagnostics:
            return f"{self.subject}: clean (no diagnostics)"
        lines = [
            f"{self.subject}: {len(self.errors)} error(s), "
            f"{len(self.warnings)} warning(s)"
        ]
        lines.extend(d.format() for d in self.diagnostics)
        return "\n".join(lines)

    def as_dict(self) -> dict[str, Any]:
        return {
            "subject": self.subject,
            "ok": self.ok,
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "diagnostics": [d.as_dict() for d in self.diagnostics],
        }

    @classmethod
    def from_findings(
        cls, findings: Iterable[Diagnostic], subject: str = "plan"
    ) -> "VerificationReport":
        ordered = sorted(
            findings, key=lambda d: (-d.severity.rank, d.code, d.path)
        )
        return cls(diagnostics=tuple(ordered), subject=subject)
