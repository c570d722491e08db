"""Shared AST infrastructure for the ``repro-lint`` checkers.

A checker is a function ``(ModuleContext) -> list[Diagnostic]`` (the
concurrency checker additionally returns cross-module lock facts).  The
context carries the parsed tree plus the pieces every rule needs and no
rule should rebuild:

- an import alias map, so ``np.random.rand`` resolves to
  ``numpy.random.rand`` and ``from random import choice`` resolves
  ``choice`` to ``random.choice`` regardless of spelling;
- a qualname walker that visits every node with its enclosing
  ``Class.method`` path, which the wall-clock allowlist keys on;
- the :class:`LintConfig` policy object: which modules count as
  deterministic paths, which sites may read the wall clock, and which
  modules are the approved home of Eq. 3 ledger arithmetic.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator

from repro.verify.diagnostics import Diagnostic, make_diagnostic

__all__ = [
    "DEFAULT_CONFIG",
    "LintConfig",
    "ModuleContext",
    "dotted_name",
    "iter_with_qualname",
    "resolve_call",
]


@dataclass(frozen=True)
class LintConfig:
    """Policy knobs for one lint run.

    ``deterministic_modules`` are dotted-prefix globs (a module matches
    when it equals a prefix or starts with ``prefix + "."``) naming the
    paths whose outputs must be bit-reproducible: planners, executors,
    fingerprints, fault/chaos machinery, observability.  ``DET002``
    (wall clock) fires only inside them.

    ``wallclock_allowlist`` entries are ``"module:qualname"`` — the
    explicitly blessed injectable-clock seams (default parameters of a
    constructor that accepts a clock).  Everything else that touches the
    wall clock inside a deterministic path is a finding.

    ``ledger_modules`` are the approved homes of raw Eq. 3
    cost/energy/ledger arithmetic; outside them, charges must go through
    helper calls so every joule stays auditable (``LED001``/``LED002``).
    """

    deterministic_modules: tuple[str, ...] = (
        "repro.core",
        "repro.planning",
        "repro.execution",
        "repro.probability",
        "repro.faults",
        "repro.verify",
        "repro.analysis",
        "repro.learn",
        "repro.obs",
        "repro.service.fingerprint",
        "repro.cluster.hashring",
        "repro.cluster.shard",
        "repro.cluster.worker",
    )
    wallclock_allowlist: frozenset[str] = frozenset(
        {
            # The one blessed injectable-clock seam: Tracer's default
            # clock parameter.  Tests inject a deterministic clock.
            "repro.obs.trace:Tracer.__init__",
        }
    )
    ledger_modules: tuple[str, ...] = (
        "repro.core",
        "repro.planning",
        "repro.execution",
        "repro.faults",
        "repro.engine",
        "repro.learn",
        # The trace-vs-ledger conservation audit re-derives Eq. 3 sums
        # from span attributions on purpose — that IS its job.
        "repro.obs.waterfall",
    )
    enabled: frozenset[str] | None = None

    def is_deterministic_module(self, module: str) -> bool:
        return _matches_prefix(module, self.deterministic_modules)

    def is_ledger_module(self, module: str) -> bool:
        return _matches_prefix(module, self.ledger_modules)

    def allows_wallclock(self, module: str, qualname: str) -> bool:
        return f"{module}:{qualname}" in self.wallclock_allowlist

    def wants(self, code: str) -> bool:
        return self.enabled is None or code in self.enabled


DEFAULT_CONFIG = LintConfig()


def _matches_prefix(module: str, prefixes: tuple[str, ...]) -> bool:
    return any(
        module == prefix or module.startswith(prefix + ".")
        for prefix in prefixes
    )


def _collect_aliases(tree: ast.Module) -> dict[str, str]:
    """Name -> canonical dotted prefix for every top-level import.

    ``import numpy as np`` maps ``np`` to ``numpy``; ``from random
    import choice as pick`` maps ``pick`` to ``random.choice``.  Only
    module-level imports are tracked — the repo convention (enforced by
    ruff's isort) keeps imports at the top, and a rule that misses an
    exotic function-local import fails safe (no finding).
    """
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                aliases[name.asname or name.name.split(".")[0]] = (
                    name.name if name.asname else name.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for name in node.names:
                if name.name == "*":
                    continue
                aliases[name.asname or name.name] = (
                    f"{node.module}.{name.name}"
                )
    return aliases


def dotted_name(node: ast.AST) -> str | None:
    """The ``a.b.c`` spelling of a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


@dataclass
class ModuleContext:
    """Everything the checkers need to know about one module."""

    module: str
    path: str
    source: str
    tree: ast.Module
    config: LintConfig = field(default_factory=lambda: DEFAULT_CONFIG)
    aliases: dict[str, str] = field(default_factory=dict)

    @classmethod
    def from_source(
        cls,
        source: str,
        module: str,
        path: str = "<memory>",
        config: LintConfig | None = None,
    ) -> "ModuleContext":
        tree = ast.parse(source, filename=path)
        context = cls(
            module=module,
            path=path,
            source=source,
            tree=tree,
            config=config or DEFAULT_CONFIG,
        )
        context.aliases = _collect_aliases(tree)
        return context

    def resolve(self, node: ast.AST) -> str | None:
        """Canonicalize a Name/Attribute chain through the alias map.

        ``np.random.rand`` -> ``numpy.random.rand`` when ``np`` aliases
        ``numpy``; unknown heads pass through verbatim so rules can
        still match on literal spellings.
        """
        spelled = dotted_name(node)
        if spelled is None:
            return None
        head, _, rest = spelled.partition(".")
        target = self.aliases.get(head, head)
        return f"{target}.{rest}" if rest else target

    def finding(
        self, code: str, node: ast.AST, message: str, hint: str = ""
    ) -> Diagnostic:
        """A diagnostic for ``code`` anchored at ``node`` in this module."""
        return make_diagnostic(
            code,
            self.path,
            message,
            hint,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            module=self.module,
        )


def resolve_call(context: ModuleContext, call: ast.Call) -> str | None:
    """The canonical dotted name of a call's callee, if resolvable."""
    return context.resolve(call.func)


def iter_with_qualname(
    tree: ast.Module,
) -> Iterator[tuple[ast.AST, str, bool]]:
    """Yield ``(node, qualname, in_async)`` for every node in the tree.

    ``qualname`` is the dotted path of enclosing classes/functions
    (``""`` at module level, ``Tracer.__init__`` inside the method);
    ``in_async`` says whether the node executes in the body of an
    ``async def`` — it goes *false* again inside a nested synchronous
    ``def``, whose body only runs when that inner function is called
    (possibly off-loop).
    """

    def visit(
        node: ast.AST, qualname: str, in_async: bool
    ) -> Iterator[tuple[ast.AST, str, bool]]:
        yield node, qualname, in_async
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = f"{qualname}.{node.name}" if qualname else node.name
            inner_async = isinstance(node, ast.AsyncFunctionDef)
            for child in ast.iter_child_nodes(node):
                yield from visit(child, inner, inner_async)
        elif isinstance(node, ast.ClassDef):
            inner = f"{qualname}.{node.name}" if qualname else node.name
            for child in ast.iter_child_nodes(node):
                yield from visit(child, inner, in_async)
        else:
            for child in ast.iter_child_nodes(node):
                yield from visit(child, qualname, in_async)

    for top in ast.iter_child_nodes(tree):
        yield from visit(top, "", False)
