"""RC rules: lock-guarded shared state stays lock-guarded.

The serving stack shares exactly two kinds of mutable objects across
threads: metrics (``MetricsRegistry`` and its children) and the plan
cache.  Both declare their discipline in code — ``self._lock =
threading.Lock()`` in ``__init__`` — and these rules hold every other
method to it:

- ``RC001`` — a method of a lock-declaring class writes ``self.*``
  state outside a ``with self._lock`` block.  Private helpers whose
  every in-class call site is inside a locked region are exempt (the
  ``PlanCache._evict`` pattern: called only with the lock held);
- ``RC002`` — class A's locked regions call into class B's lock-taking
  methods and vice versa, anywhere across the scanned modules: a
  lock-acquisition-order cycle, the classic cross-shard deadlock;
- ``RC003`` — a region holding a *non-reentrant* ``threading.Lock``
  acquires it again, lexically or by calling a sibling method that
  takes it.  With ``RLock`` this is fine; with ``Lock`` it deadlocks
  on the first execution.

The checker is deliberately scoped to classes that declare a lock: an
event-loop-confined class (the front door) or a per-process object has
no lock and is not held to locking discipline.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.lint.base import ModuleContext
from repro.verify.diagnostics import Diagnostic, make_diagnostic

__all__ = [
    "LockClassFacts",
    "LockEdge",
    "analyze_lock_graph",
    "check_concurrency",
]

_LOCK_FACTORIES = {
    "threading.Lock": False,  # reentrant?
    "threading.RLock": True,
    "multiprocessing.Lock": False,
    "multiprocessing.RLock": True,
}

# Methods that mutate their receiver in place.
_MUTATORS = frozenset(
    {
        "append",
        "appendleft",
        "extend",
        "extendleft",
        "insert",
        "add",
        "discard",
        "remove",
        "pop",
        "popleft",
        "popitem",
        "clear",
        "update",
        "setdefault",
        "sort",
        "reverse",
        "move_to_end",
        "rotate",
    }
)


@dataclass(frozen=True)
class LockEdge:
    """Class ``holder`` calls into lock-taking class ``target`` while
    holding its own lock — one directed edge of the acquisition graph."""

    holder: str  # dotted: module.Class
    target: str  # simple class name of the callee's type
    module: str
    path: str
    line: int
    col: int


@dataclass
class LockClassFacts:
    """What the checker learned about one lock-declaring class."""

    module: str
    name: str
    dotted: str
    reentrant: dict[str, bool] = field(default_factory=dict)
    edges: list[LockEdge] = field(default_factory=list)


def _self_attr(node: ast.AST) -> str | None:
    """``self.X`` -> ``X``, else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _written_self_attr(target: ast.AST) -> str | None:
    """The ``self`` attribute a store/delete target ultimately touches.

    ``self.x = v`` and ``self.x[k] = v`` both write ``x``; peeling
    subscripts keeps container mutation visible.
    """
    while isinstance(target, ast.Subscript):
        target = target.value
    return _self_attr(target)


@dataclass
class _Write:
    attr: str
    line: int
    col: int
    kind: str  # "assign" | "mutate"


@dataclass
class _MethodSummary:
    name: str
    acquires: set[str] = field(default_factory=set)
    unlocked_writes: list[_Write] = field(default_factory=list)


def check_concurrency(
    context: ModuleContext,
) -> tuple[list[Diagnostic], list[LockClassFacts]]:
    findings: list[Diagnostic] = []
    facts: list[LockClassFacts] = []
    for node in ast.walk(context.tree):
        if isinstance(node, ast.ClassDef):
            class_findings, class_facts = _check_class(context, node)
            findings.extend(class_findings)
            if class_facts is not None:
                facts.append(class_facts)
    return findings, facts


def _init_inventory(
    context: ModuleContext, cls: ast.ClassDef
) -> tuple[dict[str, bool], dict[str, str]]:
    """From ``__init__``: the lock attributes (attr -> reentrant) and
    the attr -> class-name map of owned lock-guarded collaborators."""
    locks: dict[str, bool] = {}
    owned: dict[str, str] = {}
    for method in cls.body:
        if (
            not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
            or method.name not in ("__init__", "__post_init__")
        ):
            continue
        for stmt in ast.walk(method):
            if not isinstance(stmt, ast.Assign):
                continue
            value = stmt.value
            if not isinstance(value, ast.Call):
                continue
            callee = context.resolve(value.func)
            for target in stmt.targets:
                attr = _self_attr(target)
                if attr is None:
                    continue
                if callee in _LOCK_FACTORIES:
                    locks[attr] = _LOCK_FACTORIES[callee]
                elif callee is not None:
                    owned[attr] = callee.rsplit(".", 1)[-1]
    return locks, owned


def _check_class(
    context: ModuleContext, cls: ast.ClassDef
) -> tuple[list[Diagnostic], LockClassFacts | None]:
    locks, owned = _init_inventory(context, cls)
    if not locks:
        return [], None
    config = context.config
    dotted = f"{context.module}.{cls.name}"
    class_facts = LockClassFacts(
        module=context.module,
        name=cls.name,
        dotted=dotted,
        reentrant=dict(locks),
    )
    findings: list[Diagnostic] = []
    summaries: dict[str, _MethodSummary] = {}
    # (caller-held-locks-nonempty, callee-name, site) for the exemption
    # pass and sibling-deadlock detection.
    sibling_calls: list[tuple[frozenset[str], str, ast.Call]] = []

    methods = [
        stmt
        for stmt in cls.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    for method in methods:
        if method.name in ("__init__", "__post_init__", "__del__"):
            continue
        summary = _MethodSummary(name=method.name)
        summaries[method.name] = summary
        _walk_method(
            context,
            cls,
            locks,
            owned,
            class_facts,
            summary,
            sibling_calls,
            findings,
            method.body,
            held=frozenset(),
        )

    # RC003 (call form): a locked region calls a sibling method that
    # re-acquires the same non-reentrant lock.
    if config.wants("RC003"):
        for held, callee, site in sibling_calls:
            target = summaries.get(callee)
            if target is None:
                continue
            for lock in sorted(held & target.acquires):
                if not locks[lock]:
                    findings.append(
                        context.finding(
                            "RC003",
                            site,
                            f"{cls.name}.{callee}() re-acquires "
                            f"non-reentrant self.{lock} already held by "
                            f"the caller",
                            hint="use threading.RLock, or split the "
                            "method into an unlocked _locked helper",
                        )
                    )

    # RC001 with the locked-helper exemption: a method whose every
    # in-class call site runs under the lock is a locked-context helper.
    if config.wants("RC001"):
        call_sites: dict[str, list[bool]] = {}
        for held, callee, _site in sibling_calls:
            call_sites.setdefault(callee, []).append(bool(held))
        for summary in summaries.values():
            if not summary.unlocked_writes:
                continue
            sites = call_sites.get(summary.name, [])
            if sites and all(sites):
                continue  # only ever called with the lock held
            for write in summary.unlocked_writes:
                findings.append(
                    make_diagnostic(
                        "RC001",
                        context.path,
                        f"{cls.name}.{summary.name} writes self."
                        f"{write.attr} outside `with self."
                        f"{_lock_spelling(locks)}`",
                        hint="move the write under the lock, or make "
                        "every call site hold it",
                        line=write.line,
                        col=write.col,
                        module=context.module,
                    )
                )
    return findings, class_facts


def _lock_spelling(locks: dict[str, bool]) -> str:
    return "/".join(sorted(locks)) if len(locks) > 1 else next(iter(locks))


def _walk_method(
    context: ModuleContext,
    cls: ast.ClassDef,
    locks: dict[str, bool],
    owned: dict[str, str],
    class_facts: LockClassFacts,
    summary: _MethodSummary,
    sibling_calls: list[tuple[frozenset[str], str, ast.Call]],
    findings: list[Diagnostic],
    body: list[ast.stmt],
    held: frozenset[str],
) -> None:
    for stmt in body:
        _walk_statement(
            context,
            cls,
            locks,
            owned,
            class_facts,
            summary,
            sibling_calls,
            findings,
            stmt,
            held,
        )


def _walk_statement(
    context: ModuleContext,
    cls: ast.ClassDef,
    locks: dict[str, bool],
    owned: dict[str, str],
    class_facts: LockClassFacts,
    summary: _MethodSummary,
    sibling_calls: list[tuple[frozenset[str], str, ast.Call]],
    findings: list[Diagnostic],
    stmt: ast.stmt,
    held: frozenset[str],
) -> None:
    config = context.config
    args = (
        context,
        cls,
        locks,
        owned,
        class_facts,
        summary,
        sibling_calls,
        findings,
    )

    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        acquired: list[str] = []
        for item in stmt.items:
            attr = _self_attr(item.context_expr)
            if attr is not None and attr in locks:
                summary.acquires.add(attr)
                if attr in held and not locks[attr] and config.wants("RC003"):
                    findings.append(
                        context.finding(
                            "RC003",
                            item.context_expr,
                            f"nested `with self.{attr}` on a "
                            f"non-reentrant threading.Lock deadlocks",
                            hint="use threading.RLock or restructure so "
                            "the lock is taken once",
                        )
                    )
                acquired.append(attr)
            else:
                _scan_expression(*args, item.context_expr, held)
        _walk_method(*args, stmt.body, held | frozenset(acquired))
        return

    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
        # A nested function may run long after the enclosing locked
        # region exited — its body is analyzed as unlocked.
        _walk_method(*args, stmt.body, frozenset())
        return

    # Writes.
    targets: list[ast.AST] = []
    if isinstance(stmt, ast.Assign):
        targets = list(stmt.targets)
    elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
        targets = [stmt.target]
    elif isinstance(stmt, ast.Delete):
        targets = list(stmt.targets)
    for target in targets:
        attr = _written_self_attr(target)
        if attr is not None and attr not in locks and not held:
            summary.unlocked_writes.append(
                _Write(
                    attr=attr,
                    line=target.lineno,
                    col=target.col_offset,
                    kind="assign",
                )
            )

    # Expressions inside the statement: mutating calls, sibling calls,
    # cross-class lock edges.
    for child in ast.iter_child_nodes(stmt):
        if isinstance(child, ast.stmt):
            _walk_statement(*args, child, held)
        elif isinstance(child, ast.expr):
            _scan_expression(*args, child, held)
        elif isinstance(
            child, (ast.excepthandler, ast.match_case)
        ) or hasattr(child, "body"):
            for grand in ast.iter_child_nodes(child):
                if isinstance(grand, ast.stmt):
                    _walk_statement(*args, grand, held)
                elif isinstance(grand, ast.expr):
                    _scan_expression(*args, grand, held)


def _scan_expression(
    context: ModuleContext,
    cls: ast.ClassDef,
    locks: dict[str, bool],
    owned: dict[str, str],
    class_facts: LockClassFacts,
    summary: _MethodSummary,
    sibling_calls: list[tuple[frozenset[str], str, ast.Call]],
    findings: list[Diagnostic],
    expr: ast.expr,
    held: frozenset[str],
) -> None:
    for node in ast.walk(expr):
        if isinstance(node, ast.Lambda):
            continue
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not isinstance(func, ast.Attribute):
            continue
        receiver = func.value
        receiver_attr = _self_attr(receiver)
        # self.method(...) — sibling call.
        if isinstance(receiver, ast.Name) and receiver.id == "self":
            sibling_calls.append((held, func.attr, node))
            continue
        if receiver_attr is None:
            continue
        # self.attr.mutate(...) — an in-place write to owned state.
        if func.attr in _MUTATORS and receiver_attr not in locks and not held:
            summary.unlocked_writes.append(
                _Write(
                    attr=receiver_attr,
                    line=node.lineno,
                    col=node.col_offset,
                    kind="mutate",
                )
            )
        # self.attr.anything(...) while holding our lock, where attr is
        # a collaborator object: a potential lock-order edge (resolved
        # against the global set of lock-declaring classes later).
        if held and receiver_attr in owned:
            class_facts.edges.append(
                LockEdge(
                    holder=class_facts.dotted,
                    target=owned[receiver_attr],
                    module=context.module,
                    path=context.path,
                    line=node.lineno,
                    col=node.col_offset,
                )
            )


def analyze_lock_graph(
    all_facts: list[LockClassFacts],
) -> list[Diagnostic]:
    """RC002: find acquisition-order cycles across every scanned module.

    Nodes are lock-declaring classes; an edge A -> B means some locked
    region of A calls into B (whose methods take B's lock).  Any cycle
    means two executions can acquire the same pair of locks in opposite
    orders — the textbook deadlock.  Self-loops are RC003's business
    and are skipped here.
    """
    by_simple: dict[str, list[LockClassFacts]] = {}
    for fact in all_facts:
        by_simple.setdefault(fact.name, []).append(fact)

    graph: dict[str, set[str]] = {fact.dotted: set() for fact in all_facts}
    edge_sites: dict[tuple[str, str], LockEdge] = {}
    for fact in all_facts:
        for edge in fact.edges:
            for target in by_simple.get(edge.target, []):
                if target.dotted == fact.dotted:
                    continue
                graph[fact.dotted].add(target.dotted)
                edge_sites.setdefault((fact.dotted, target.dotted), edge)

    findings: list[Diagnostic] = []
    reported: set[frozenset[str]] = set()
    for start in sorted(graph):
        cycle = _find_cycle(graph, start)
        if cycle is None:
            continue
        members = frozenset(cycle)
        if members in reported:
            continue
        reported.add(members)
        site = edge_sites[(cycle[0], cycle[1])]
        chain = " -> ".join([*cycle, cycle[0]])
        findings.append(
            make_diagnostic(
                "RC002",
                site.path,
                f"lock-acquisition-order cycle: {chain}",
                hint="impose a global lock order, or move the call "
                "outside the locked region (snapshot-then-call)",
                line=site.line,
                col=site.col,
                module=site.module,
            )
        )
    return findings


def _find_cycle(
    graph: dict[str, set[str]], start: str
) -> list[str] | None:
    """A cycle through ``start`` as an ordered node list, if any."""
    stack: list[tuple[str, list[str]]] = [(start, [start])]
    seen: set[str] = set()
    while stack:
        node, trail = stack.pop()
        for successor in sorted(graph.get(node, ())):
            if successor == start:
                return trail
            if successor in seen:
                continue
            seen.add(successor)
            stack.append((successor, trail + [successor]))
    return None
