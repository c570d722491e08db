"""Stable node-path addressing for plan trees.

Diagnostics, runtime profiles, and trace events all need to point at
*one node* of a plan tree — and agree with each other about which node
that is.  The convention, shared by the dataflow pass whose facts the
verifier's rules read (:mod:`repro.analysis.dataflow`), the Eq. 3
decomposition (:func:`repro.core.cost.cost_decomposition`) and the
runtime observability layer (:mod:`repro.obs`), is:

- the root is ``root``;
- a condition node's children are ``<path>/below`` and ``<path>/above``;
- a sequential node's steps address as ``<path>/steps[<i>]`` (steps are
  not nodes, but step-level diagnostics and profile counters anchor to
  them).

Because paths encode the route from the root, they are stable across
re-planning as long as the tree shape is unchanged, and a profile row
keyed by a path can be joined directly against verifier diagnostics for
the same plan.
"""

from __future__ import annotations

from typing import Iterator

from repro.core.plan import ConditionNode, PlanNode

__all__ = ["ROOT_PATH", "iter_plan_paths", "step_path"]

ROOT_PATH = "root"


def step_path(path: str, step_index: int) -> str:
    """The address of step ``step_index`` of the sequential node at ``path``."""
    return f"{path}/steps[{step_index}]"


def iter_plan_paths(plan: PlanNode) -> Iterator[tuple[str, PlanNode]]:
    """Pre-order traversal of ``plan`` yielding ``(path, node)`` pairs."""

    def walk(node: PlanNode, path: str) -> Iterator[tuple[str, PlanNode]]:
        yield path, node
        if isinstance(node, ConditionNode):
            yield from walk(node.below, path + "/below")
            yield from walk(node.above, path + "/above")

    yield from walk(plan, ROOT_PATH)

