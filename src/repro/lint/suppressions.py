"""Per-line and per-file suppression comments for ``repro-lint``.

A finding is suppressed by a trailing comment on the flagged line::

    value = ad_hoc_cost * rows  # repro-lint: disable=LED002  <reason>

or for a whole file by a comment anywhere before the first statement::

    # repro-lint: disable-file=DET003  <reason>

Suppressions name specific codes — there is deliberately no blanket
``disable=all``: the point of stable codes is that every silenced rule
is visible and greppable, exactly like the verifier's.  A suppression
naming a code the catalog does not know fires ``LINT001`` so typos
cannot silently disable nothing.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field

from repro.verify.diagnostics import LINT_CATALOG, Diagnostic, make_diagnostic

__all__ = ["Suppressions", "collect_suppressions"]

_DIRECTIVE = re.compile(
    r"#\s*repro-lint:\s*(?P<scope>disable|disable-file)\s*=\s*"
    r"(?P<codes>[A-Za-z0-9_,\s]+?)(?:\s\s|#|$)"
)


@dataclass
class Suppressions:
    """The parsed suppression directives of one file."""

    by_line: dict[int, frozenset[str]] = field(default_factory=dict)
    file_wide: frozenset[str] = frozenset()
    findings: tuple[Diagnostic, ...] = ()

    def silences(self, code: str, line: int | None) -> bool:
        if code in self.file_wide:
            return True
        return line is not None and code in self.by_line.get(line, frozenset())


def collect_suppressions(
    source: str, module: str, path: str
) -> Suppressions:
    """Parse every ``repro-lint:`` directive comment in ``source``."""
    by_line: dict[int, set[str]] = {}
    file_wide: set[str] = set()
    findings: list[Diagnostic] = []
    first_code_line = _first_statement_line(source)
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        comments = [
            token for token in tokens if token.type == tokenize.COMMENT
        ]
    except tokenize.TokenError:  # half-written file: nothing to parse
        comments = []
    for token in comments:
        match = _DIRECTIVE.search(token.string)
        if match is None:
            continue
        line = token.start[0]
        codes = {
            code.strip()
            for code in match.group("codes").split(",")
            if code.strip()
        }
        for code in sorted(codes):
            if code not in LINT_CATALOG:
                findings.append(
                    make_diagnostic(
                        "LINT001",
                        path,
                        f"suppression names unknown code {code!r}",
                        hint="see LINT_CATALOG / docs/LINTING.md for valid codes",
                        line=line,
                        col=token.start[1],
                        module=module,
                    )
                )
        known = {code for code in codes if code in LINT_CATALOG}
        if match.group("scope") == "disable-file":
            if line < first_code_line:
                file_wide.update(known)
            else:
                findings.append(
                    make_diagnostic(
                        "LINT001",
                        path,
                        "disable-file directive must appear before the "
                        "first statement",
                        hint="move it into the file header, or use a "
                        "per-line disable",
                        line=line,
                        col=token.start[1],
                        module=module,
                    )
                )
        else:
            by_line.setdefault(line, set()).update(known)
    return Suppressions(
        by_line={line: frozenset(codes) for line, codes in by_line.items()},
        file_wide=frozenset(file_wide),
        findings=tuple(findings),
    )


def _first_statement_line(source: str) -> int:
    """The line of the first real statement (docstring excluded).

    ``disable-file`` directives belong to the file header: anywhere up
    to the end of the module docstring, before code starts.
    """
    import ast

    try:
        tree = ast.parse(source)
    except SyntaxError:
        return 1
    body = tree.body
    if (
        body
        and isinstance(body[0], ast.Expr)
        and isinstance(body[0].value, ast.Constant)
        and isinstance(body[0].value.value, str)
    ):
        body = body[1:]
    if not body:
        return len(source.splitlines()) + 1
    return body[0].lineno
