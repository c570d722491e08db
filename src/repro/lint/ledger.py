"""LED rules: every joule flows through the Eq. 3 ledger helpers.

The paper's cost conservation (Equation 3) is only auditable because
charges happen in a handful of places: the acquisition sources, the
fault injector's charge-before-dice accounting, and the sides of the
one :class:`~repro.core.ledger.Ledger` (retries, exploration, sheds).
The verifier re-derives Eq. 3 from those ledgers; a stray
``total += cost * rows`` in the serving layer is a number the audit can
never reconcile.

- ``LED001`` — a cost/energy/ledger-named field is *mutated with
  arithmetic* outside the approved ledger modules.  Storing a received
  value (``self._known_cost[k] = reply.cost``) is fine — it creates no
  new charge; computing one is not;
- ``LED002`` — an expression *combines two ledger quantities
  arithmetically* outside the approved modules: an ad-hoc re-derivation
  of an Eq. 3 quantity that should be a helper call (or should live in
  a ledger module) so the audit has one definition to trust.

Ledger-named means the identifier matches ``cost``/``energy``/
``ledger``/``charge``/``spent`` as a whole word between underscores.
"""

from __future__ import annotations

import ast
import re

from repro.lint.base import ModuleContext
from repro.verify.diagnostics import Diagnostic

__all__ = ["check_ledger", "is_ledger_name"]

_LEDGER_WORD = re.compile(
    r"(^|_)(cost|costs|energy|ledger|charge|charged|charges|spent)(_|$)"
)

_ARITH_OPS = (ast.Add, ast.Sub, ast.Mult, ast.Div)


def is_ledger_name(name: str) -> bool:
    return bool(_LEDGER_WORD.search(name))


def _terminal_name(node: ast.AST) -> str | None:
    """The identifier a Name/Attribute/Subscript expression ends in."""
    while isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _is_ledger_ref(node: ast.AST) -> bool:
    name = _terminal_name(node)
    return name is not None and is_ledger_name(name)


def _contains_arithmetic(node: ast.AST) -> bool:
    return any(
        isinstance(child, ast.BinOp)
        and isinstance(child.op, _ARITH_OPS)
        for child in ast.walk(node)
    )


def check_ledger(context: ModuleContext) -> list[Diagnostic]:
    config = context.config
    if config.is_ledger_module(context.module):
        return []
    findings: list[Diagnostic] = []
    flagged_mutations: set[int] = set()

    for node in ast.walk(context.tree):
        # LED001 — arithmetic mutation of a ledger-named target.
        if config.wants("LED001"):
            target: ast.AST | None = None
            computes = False
            if isinstance(node, ast.AugAssign) and isinstance(
                node.op, _ARITH_OPS
            ):
                target, computes = node.target, True
            elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                computes = _contains_arithmetic(node.value)
            if (
                target is not None
                and computes
                and _is_ledger_ref(target)
            ):
                name = _terminal_name(target)
                findings.append(
                    context.finding(
                        "LED001",
                        node,
                        f"ledger field {name!r} computed with raw "
                        f"arithmetic outside the ledger modules",
                        hint="route the charge through a ledger helper "
                        "(repro.core.ledger / repro.faults / "
                        "repro.core.cost) so Eq. 3 stays auditable",
                    )
                )
                for child in ast.walk(node):
                    flagged_mutations.add(id(child))

    # LED002 — ad-hoc arithmetic combining two ledger quantities.
    if config.wants("LED002"):
        for node in ast.walk(context.tree):
            if id(node) in flagged_mutations:
                continue
            if not (
                isinstance(node, ast.BinOp)
                and isinstance(node.op, _ARITH_OPS)
            ):
                continue
            if _is_ledger_ref(node.left) and _is_ledger_ref(node.right):
                left = _terminal_name(node.left)
                right = _terminal_name(node.right)
                findings.append(
                    context.finding(
                        "LED002",
                        node,
                        f"ad-hoc arithmetic combines ledger quantities "
                        f"{left!r} and {right!r}",
                        hint="call (or add) a helper in a ledger module "
                        "so the derivation is auditable in one place",
                    )
                )
    return findings
