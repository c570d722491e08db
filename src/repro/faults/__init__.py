"""Fault-tolerant acquisition: injection, retry/degradation, chaos replay.

The package models what the executor layer otherwise assumes away — that
``acquire()`` can fail.  :mod:`repro.faults.model` declares per-attribute
failure modes, :mod:`repro.faults.state` rolls them as row-keyed dice
and carries the state that outlives a row, :mod:`repro.faults.injector`
replays them read by read over any acquisition backend,
:mod:`repro.faults.policy` bounds retries and selects a degraded path, and
:mod:`repro.faults.executor` runs conditional plans over windows of rows
to *sound* three-valued verdicts under those policies.
"""

from repro.faults.executor import (
    FaultedDatasetExecution,
    FaultedExecutionResult,
    FaultTolerantExecutor,
)
from repro.faults.injector import FaultInjector
from repro.faults.model import FAULT_KINDS, AttributeFaults, FaultSchedule
from repro.faults.policy import NO_RETRY, DegradationMode, FaultPolicy, RetryPolicy
from repro.faults.state import FaultState, fault_dice

__all__ = [
    "FAULT_KINDS",
    "AttributeFaults",
    "FaultSchedule",
    "FaultInjector",
    "FaultState",
    "fault_dice",
    "RetryPolicy",
    "NO_RETRY",
    "DegradationMode",
    "FaultPolicy",
    "FaultTolerantExecutor",
    "FaultedExecutionResult",
    "FaultedDatasetExecution",
]
