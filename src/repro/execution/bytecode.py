"""Compilation of plans to the compact on-mote byte format.

The architecture of Section 2.5 ships plans from the basestation into the
network, and Section 2.4's dissemination cost ``zeta(P)`` prices them by
the byte.  :meth:`~repro.core.plan.PlanNode.size_bytes` documents the
encoding this module actually implements, so

    len(compile_plan(plan)) == plan.size_bytes()

holds exactly — the cost model's unit is a real wire format, not a guess.
A matching :class:`ByteCodeInterpreter` executes compiled plans with the
same tiny state machine a mote would run (sequential reads, no recursion
beyond the tree walk), and :func:`decompile_plan` reconstructs the plan
tree, giving a lossless round-trip.

Wire format (big-endian):

- every node starts with a *kind/attr* byte: the top 2 bits select the
  node kind, the low 6 bits carry a small payload;
- ``CONDITION`` (kind 0): low bits = attribute index (< 64), then split
  value ``u16``, absolute offsets of the below and above children
  ``u16 u16`` — 7 bytes;
- ``SEQUENTIAL`` (kind 1): low bits unused, then step count ``u8`` —
  2 bytes of header — followed by 6-byte steps: attribute ``u8``, low
  ``u16``, high ``u16``, flags ``u8`` (bit 0 = negated);
- ``VERDICT`` (kind 2): low bit 0 = verdict — 1 byte.
"""

from __future__ import annotations

import struct
from typing import Callable, Sequence

from repro.core.attributes import Schema
from repro.core.plan import (
    ConditionNode,
    PlanNode,
    SequentialNode,
    SequentialStep,
    VerdictLeaf,
)
from repro.core.predicates import NotRangePredicate, RangePredicate
from repro.exceptions import PlanError

__all__ = ["compile_plan", "decompile_plan", "ByteCodeInterpreter"]

_KIND_CONDITION = 0
_KIND_SEQUENTIAL = 1
_KIND_VERDICT = 2

_PAYLOAD_MASK = 0x3F  # the 6 payload bits of a node's head byte
_MAX_OFFSET = 0xFFFF
_MAX_STEPS = 0xFF
_FLAG_NEGATED = 0x01


def compile_plan(plan: PlanNode) -> bytes:
    """Serialize a plan to the compact dissemination format.

    The output length equals ``plan.size_bytes()`` by construction; the
    compiler raises :class:`~repro.exceptions.PlanError` for plans that
    exceed the format's limits (attribute index >= 64 at condition nodes,
    offsets beyond 64 KiB, more than 255 steps in one leaf).
    """
    total = plan.size_bytes()
    if total > _MAX_OFFSET:
        raise PlanError(
            f"plan of {total} bytes exceeds the 64 KiB dissemination format"
        )
    buffer = bytearray(total)
    _emit(plan, buffer, 0)
    return bytes(buffer)


def _emit(node: PlanNode, buffer: bytearray, address: int) -> int:
    """Write ``node`` at ``address``; return the next free address."""
    if isinstance(node, VerdictLeaf):
        buffer[address] = (_KIND_VERDICT << 6) | int(node.verdict)
        return address + 1
    if isinstance(node, SequentialNode):
        steps = node.steps
        if len(steps) > _MAX_STEPS:
            raise PlanError(f"sequential leaf with {len(steps)} steps (max 255)")
        buffer[address] = _KIND_SEQUENTIAL << 6
        buffer[address + 1] = len(steps)
        cursor = address + 2
        for step in steps:
            predicate = step.predicate
            low = getattr(predicate, "low", None)
            high = getattr(predicate, "high", None)
            if low is None or high is None:
                raise PlanError(
                    f"cannot compile predicate {predicate.describe()!r}: "
                    "only (negated) range predicates have a wire encoding"
                )
            if step.attribute_index > 0xFF:
                raise PlanError("step attribute index exceeds u8")
            flags = (
                _FLAG_NEGATED
                if isinstance(predicate, NotRangePredicate)
                else 0
            )
            struct.pack_into(
                ">BHHB", buffer, cursor, step.attribute_index, low, high, flags
            )
            cursor += 6
        return cursor
    if isinstance(node, ConditionNode):
        if node.attribute_index > _PAYLOAD_MASK:
            raise PlanError(
                f"condition attribute index {node.attribute_index} exceeds "
                f"the format's 6-bit field"
            )
        below_address = address + 7
        above_address = below_address + node.below.size_bytes()
        if above_address > _MAX_OFFSET:
            raise PlanError("child offset exceeds the 64 KiB format")
        buffer[address] = (_KIND_CONDITION << 6) | node.attribute_index
        struct.pack_into(
            ">HHH",
            buffer,
            address + 1,
            node.split_value,
            below_address,
            above_address,
        )
        end = _emit(node.below, buffer, below_address)
        if end != above_address:
            raise PlanError(
                "internal compiler error: size model and emitted bytes disagree"
            )
        return _emit(node.above, buffer, above_address)
    raise PlanError(f"unknown plan node type {type(node).__name__}")


def decompile_plan(bytecode: bytes, schema: Schema) -> PlanNode:
    """Reconstruct a plan tree from :func:`compile_plan` output."""
    node, _end = _parse(bytecode, 0, schema)
    return node


def _parse(bytecode: bytes, address: int, schema: Schema) -> tuple[PlanNode, int]:
    if address >= len(bytecode):
        raise PlanError(f"bytecode truncated at offset {address}")
    head = bytecode[address]
    kind = head >> 6
    if kind == _KIND_VERDICT:
        return VerdictLeaf(verdict=bool(head & 0x01)), address + 1
    if kind == _KIND_SEQUENTIAL:
        count = bytecode[address + 1]
        cursor = address + 2
        steps = []
        for _step_number in range(count):
            attribute_index, low, high, flags = struct.unpack_from(
                ">BHHB", bytecode, cursor
            )
            predicate_cls = (
                NotRangePredicate if flags & _FLAG_NEGATED else RangePredicate
            )
            predicate = predicate_cls(
                attribute=schema[attribute_index].name, low=low, high=high
            )
            steps.append(
                SequentialStep(
                    predicate=predicate, attribute_index=attribute_index
                )
            )
            cursor += 6
        return SequentialNode(steps=tuple(steps)), cursor
    if kind == _KIND_CONDITION:
        attribute_index = head & _PAYLOAD_MASK
        split_value, below_address, above_address = struct.unpack_from(
            ">HHH", bytecode, address + 1
        )
        below, _below_end = _parse(bytecode, below_address, schema)
        above, end = _parse(bytecode, above_address, schema)
        return (
            ConditionNode(
                attribute=schema[attribute_index].name,
                attribute_index=attribute_index,
                split_value=split_value,
                below=below,
                above=above,
            ),
            end,
        )
    raise PlanError(f"unknown node kind {kind} at offset {address}")


class ByteCodeInterpreter:
    """Executes compiled plans the way a mote would.

    The interpreter walks the byte format directly — no tree objects — so
    its memory footprint is the bytecode plus a handful of registers,
    matching the constrained-device story of Section 2.5.
    """

    def __init__(self, bytecode: bytes) -> None:
        if not bytecode:
            raise PlanError("empty bytecode")
        self._code = bytes(bytecode)

    @property
    def size_bytes(self) -> int:
        return len(self._code)

    def execute(
        self,
        values: Sequence[int],
        on_acquire: Callable[[int], None] | None = None,
    ) -> bool:
        """Run the plan on one tuple; returns the query verdict.

        ``on_acquire`` fires on each *first* read of an attribute, exactly
        like :meth:`~repro.core.plan.PlanNode.evaluate` — the two must agree
        on every input (tested property).
        """
        code = self._code
        acquired: set[int] = set()

        def read(index: int) -> int:
            if index not in acquired:
                acquired.add(index)
                if on_acquire is not None:
                    on_acquire(index)
            return values[index]

        address = 0
        while True:
            head = code[address]
            kind = head >> 6
            if kind == _KIND_VERDICT:
                return bool(head & 0x01)
            if kind == _KIND_CONDITION:
                attribute_index = head & _PAYLOAD_MASK
                split_value, below_address, above_address = struct.unpack_from(
                    ">HHH", code, address + 1
                )
                if read(attribute_index) >= split_value:
                    address = above_address
                else:
                    address = below_address
                continue
            if kind == _KIND_SEQUENTIAL:
                count = code[address + 1]
                cursor = address + 2
                for _step_number in range(count):
                    attribute_index, low, high, flags = struct.unpack_from(
                        ">BHHB", code, cursor
                    )
                    inside = low <= read(attribute_index) <= high
                    satisfied = not inside if flags & _FLAG_NEGATED else inside
                    if not satisfied:
                        return False
                    cursor += 6
                return True
            raise PlanError(f"unknown node kind {kind} at offset {address}")
