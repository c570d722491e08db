"""Bytecode safety rules over compiled plans.

The Section 2.5 wire format ships plans into the network as opaque byte
strings, and the mote-side :class:`~repro.execution.bytecode.ByteCodeInterpreter`
trusts its input: a corrupted child offset sends it out of bounds, a
cycle hangs it, and a wrong length silently mis-prices dissemination.
This module is a *safe decoder*: it walks the byte layout with explicit
bounds, cycle, and overlap accounting, and converts every defect into a
diagnostic instead of an exception — random byte mutations must be
rejected, never crash the verifier (tested property).

Only after the layout walk comes back clean does it decode the plan via
:func:`~repro.execution.bytecode.decompile_plan` and demand the lossless
round-trip invariant ``compile_plan(decompile_plan(code)) == code`` with
``len(code) == plan.size_bytes()`` (BC005).
"""

from __future__ import annotations

import struct

from repro.core.attributes import Schema
from repro.core.plan import PlanNode
from repro.execution.bytecode import (
    _FLAG_NEGATED,
    _KIND_CONDITION,
    _KIND_SEQUENTIAL,
    _KIND_VERDICT,
    _PAYLOAD_MASK,
    compile_plan,
    decompile_plan,
)
from repro.exceptions import ReproError
from repro.verify.diagnostics import Diagnostic, Severity, make_diagnostic

__all__ = ["check_bytecode", "MAX_VERIFIABLE_DEPTH"]

# Guard for the checker's (and decompiler's) recursion; far above any plan a
# planner emits, far below Python's recursion limit.
MAX_VERIFIABLE_DEPTH = 128


def _at(address: int) -> str:
    return f"@0x{address:04x}"


def check_bytecode(
    code: bytes, schema: Schema
) -> tuple[list[Diagnostic], PlanNode | None]:
    """Run the ``BC*`` rules; return diagnostics and the decoded plan.

    The plan is only returned when the byte string decodes cleanly (no
    ERROR-severity layout findings), so callers can feed it to the tree
    rules for semantic/range/cost verification.
    """
    findings: list[Diagnostic] = []
    if not code:
        findings.append(
            make_diagnostic("BC001", _at(0), "empty bytecode has no root node")
        )
        return findings, None

    # extents: node start -> one-past-end, filled by the layout walk.
    extents: dict[int, int] = {}

    def walk(address: int, depth: int, ancestors: frozenset[int]) -> None:
        if depth > MAX_VERIFIABLE_DEPTH:
            findings.append(
                make_diagnostic(
                    "BC008",
                    _at(address),
                    f"plan nesting exceeds the verifiable depth "
                    f"({MAX_VERIFIABLE_DEPTH})",
                )
            )
            return
        if address in ancestors:
            findings.append(
                make_diagnostic(
                    "BC002",
                    _at(address),
                    "child offset points back to an ancestor node: "
                    "the interpreter would loop forever",
                )
            )
            return
        if address in extents:
            findings.append(
                make_diagnostic(
                    "BC004",
                    _at(address),
                    "node is shared by more than one parent: the layout "
                    "is a DAG, not the tree the size model prices",
                )
            )
            return
        if not 0 <= address < len(code):
            findings.append(
                make_diagnostic(
                    "BC001",
                    _at(address),
                    f"child offset {address} outside the "
                    f"{len(code)}-byte plan",
                )
            )
            return
        head = code[address]
        kind = head >> 6
        payload = head & _PAYLOAD_MASK
        if kind == _KIND_VERDICT:
            if payload > 1:
                findings.append(
                    make_diagnostic(
                        "BC007",
                        _at(address),
                        f"verdict payload bits 0x{payload:02x} are not a "
                        "boolean",
                    )
                )
                return
            extents[address] = address + 1
            return
        if kind == _KIND_SEQUENTIAL:
            if payload:
                findings.append(
                    make_diagnostic(
                        "BC007",
                        _at(address),
                        f"sequential head carries stray payload bits "
                        f"0x{payload:02x}",
                    )
                )
                return
            if address + 2 > len(code):
                findings.append(
                    make_diagnostic(
                        "BC001", _at(address), "sequential header truncated"
                    )
                )
                return
            count = code[address + 1]
            end = address + 2 + 6 * count
            if end > len(code):
                findings.append(
                    make_diagnostic(
                        "BC001",
                        _at(address),
                        f"sequential leaf of {count} steps runs past the "
                        f"end of the {len(code)}-byte plan",
                    )
                )
                return
            for position in range(count):
                cursor = address + 2 + 6 * position
                attribute_index, low, high, flags = struct.unpack_from(
                    ">BHHB", code, cursor
                )
                step_at = _at(cursor)
                if attribute_index >= len(schema):
                    findings.append(
                        make_diagnostic(
                            "BC007",
                            step_at,
                            f"step attribute index {attribute_index} out of "
                            f"range for a schema of {len(schema)} attributes",
                        )
                    )
                if low > high:
                    findings.append(
                        make_diagnostic(
                            "BC007",
                            step_at,
                            f"step encodes the empty range [{low}, {high}]",
                        )
                    )
                if flags & ~_FLAG_NEGATED:
                    findings.append(
                        make_diagnostic(
                            "BC007",
                            step_at,
                            f"step carries unknown flag bits 0x{flags:02x}",
                        )
                    )
            extents[address] = end
            return
        if kind == _KIND_CONDITION:
            if address + 7 > len(code):
                findings.append(
                    make_diagnostic(
                        "BC001", _at(address), "condition node truncated"
                    )
                )
                return
            split_value, below_address, above_address = struct.unpack_from(
                ">HHH", code, address + 1
            )
            if payload >= len(schema):
                findings.append(
                    make_diagnostic(
                        "BC007",
                        _at(address),
                        f"condition attribute index {payload} out of range "
                        f"for a schema of {len(schema)} attributes",
                    )
                )
                return
            if split_value < 2:
                findings.append(
                    make_diagnostic(
                        "RNG003",
                        _at(address),
                        f"split at {split_value} is below the 1-based "
                        "domain minimum; the below branch is empty",
                    )
                )
                return
            extents[address] = address + 7
            children = ancestors | {address}
            walk(below_address, depth + 1, children)
            walk(above_address, depth + 1, children)
            return
        findings.append(
            make_diagnostic(
                "BC006", _at(address), f"unknown node kind {kind}"
            )
        )

    walk(0, 0, frozenset())

    # Overlap and orphan accounting over the visited extents.
    ordered = sorted(extents.items())
    previous_end = 0
    covered = 0
    for start, end in ordered:
        if start < previous_end:
            findings.append(
                make_diagnostic(
                    "BC004",
                    _at(start),
                    f"node extent [{start}, {end}) overlaps the node "
                    f"ending at {previous_end}",
                )
            )
        covered += end - start
        previous_end = max(previous_end, end)
    if covered < len(code) and not any(
        finding.severity is Severity.ERROR for finding in findings
    ):
        findings.append(
            make_diagnostic(
                "BC003",
                _at(0),
                f"{len(code) - covered} byte(s) unreachable from the root: "
                "dead weight in the dissemination cost",
            )
        )

    if any(finding.severity is Severity.ERROR for finding in findings):
        return findings, None

    try:
        plan = decompile_plan(code, schema)
        recompiled = compile_plan(plan)
    except (ReproError, struct.error, IndexError) as error:
        findings.append(
            make_diagnostic(
                "BC005",
                _at(0),
                f"bytecode does not round-trip through the decompiler: {error}",
            )
        )
        return findings, None
    if recompiled != code or plan.size_bytes() != len(code):
        findings.append(
            make_diagnostic(
                "BC005",
                _at(0),
                f"size model mismatch: {len(code)} byte(s) on the wire, "
                f"size_bytes() = {plan.size_bytes()}, canonical recompile = "
                f"{len(recompiled)} byte(s)",
                hint="layout is non-canonical or carries padding",
            )
        )
        return findings, plan
    return findings, plan
