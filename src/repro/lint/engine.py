"""The ``repro-lint`` engine: files in, one source report out.

The engine parses each module once, runs every checker family over it,
filters findings through the module's suppression comments, and — after
all modules are in — resolves the cross-module lock-acquisition graph
(``RC002`` needs to see every class before it can see a cycle).

Two entry points matter:

- :func:`lint_paths` / :meth:`ReproLinter.lint_paths` — lint concrete
  files (the CLI's file mode);
- :func:`lint_repo` — discover and lint every ``repro`` source module
  under a root (the CLI's ``--suite`` repo scan and the self-test in
  ``tests/test_lint_repo.py``).

Exit-code semantics mirror ``lint-plan``/``analyze``: a report is
``ok`` when no ERROR-severity finding survives suppression.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Sequence

from repro.exceptions import ReproError
from repro.lint.asynchrony import check_asynchrony
from repro.lint.base import DEFAULT_CONFIG, LintConfig, ModuleContext
from repro.lint.concurrency import (
    LockClassFacts,
    analyze_lock_graph,
    check_concurrency,
)
from repro.lint.determinism import check_determinism
from repro.lint.ledger import check_ledger
from repro.lint.suppressions import Suppressions, collect_suppressions
from repro.verify.diagnostics import Diagnostic, VerificationReport

__all__ = ["ReproLinter", "lint_paths", "lint_repo", "lint_source"]


def module_name_for(path: Path, root: Path | None = None) -> str:
    """Derive the dotted module name a file would import as.

    Walks up from the file looking for the innermost package boundary
    (directories with ``__init__.py``); falls back to the stem.
    """
    resolved = path.resolve()
    parts = [resolved.stem] if resolved.stem != "__init__" else []
    parent = resolved.parent
    while (parent / "__init__.py").exists():
        parts.insert(0, parent.name)
        if root is not None and parent == root.resolve():
            break
        parent = parent.parent
    return ".".join(parts) if parts else resolved.stem


class ReproLinter:
    """One configured lint run over any number of modules."""

    def __init__(self, config: LintConfig | None = None) -> None:
        self._config = config or DEFAULT_CONFIG
        self._findings: list[Diagnostic] = []
        self._lock_facts: list[LockClassFacts] = []
        self._suppressions: dict[str, Suppressions] = {}
        self._files = 0

    def add_source(
        self, source: str, module: str, path: str = "<memory>"
    ) -> None:
        """Parse and check one module; findings accumulate."""
        try:
            context = ModuleContext.from_source(
                source, module, path=path, config=self._config
            )
        except SyntaxError as error:
            raise ReproError(
                f"cannot lint {path}: {error.msg} (line {error.lineno})"
            ) from error
        suppressions = collect_suppressions(source, module, path)
        self._suppressions[path] = suppressions
        self._files += 1

        findings = list(suppressions.findings)
        findings.extend(check_determinism(context))
        concurrency_findings, facts = check_concurrency(context)
        findings.extend(concurrency_findings)
        self._lock_facts.extend(facts)
        findings.extend(check_asynchrony(context))
        findings.extend(check_ledger(context))
        self._findings.extend(
            f
            for f in findings
            if not suppressions.silences(f.code, f.line)
        )

    def add_path(self, path: Path, root: Path | None = None) -> None:
        self.add_source(
            path.read_text(encoding="utf-8"),
            module_name_for(path, root),
            path=str(path),
        )

    def report(self, subject: str = "repro-lint") -> VerificationReport:
        """Finish the run: resolve the lock graph, order the findings."""
        findings = list(self._findings)
        if self._config.wants("RC002"):
            for finding in analyze_lock_graph(self._lock_facts):
                suppressions = self._suppressions.get(finding.path)
                if suppressions is not None and suppressions.silences(
                    finding.code, finding.line
                ):
                    continue
                findings.append(finding)
        return VerificationReport.from_findings(
            findings, subject=subject, files=self._files
        )


def lint_source(
    source: str,
    module: str = "repro.example",
    path: str = "<memory>",
    config: LintConfig | None = None,
) -> VerificationReport:
    """Lint one in-memory module (the corpus self-test's entry point)."""
    linter = ReproLinter(config)
    linter.add_source(source, module, path=path)
    return linter.report(subject=module)


def lint_paths(
    paths: Sequence[Path],
    config: LintConfig | None = None,
    root: Path | None = None,
    subject: str = "repro-lint",
) -> VerificationReport:
    """Lint concrete files together (one shared lock graph)."""
    linter = ReproLinter(config)
    for path in paths:
        if not path.is_file():
            raise ReproError(f"not a file: {path}")
        linter.add_path(path, root=root)
    return linter.report(subject=subject)


def _discover(root: Path) -> Iterable[Path]:
    yield from sorted(root.rglob("*.py"))


def lint_repo(
    root: Path | None = None, config: LintConfig | None = None
) -> VerificationReport:
    """Discover and lint every module of the installed ``repro`` package.

    ``root`` defaults to the source directory this very module was
    imported from — the CLI and CI scan whatever tree they run in.
    """
    if root is None:
        root = Path(__file__).resolve().parent.parent
    if not root.exists():
        raise ReproError(f"no such directory: {root}")
    files = [
        path
        for path in _discover(root)
        if "__pycache__" not in path.parts
    ]
    return lint_paths(
        files, config=config, root=root, subject=f"repro-lint {root}"
    )
