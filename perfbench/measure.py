"""Statistics and run-record helpers shared by every workload.

Percentiles follow one rule: a percentile is reported only when at least
``MIN_TAIL`` samples lie beyond it, so ``p99`` needs 1000 samples.  The
nearest-rank definition is used throughout (no interpolation), so a
reported latency is always one that some request actually had.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import sys
import time
from pathlib import Path
from typing import Sequence

import numpy as np

#: Samples that must lie beyond a reported percentile.
MIN_TAIL = 10


def min_samples(q: float) -> int:
    """Smallest sample count whose ``q``-th percentile has MIN_TAIL beyond it."""
    return math.ceil(MIN_TAIL / (1.0 - q / 100.0) - 1e-9)


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile; raises when the tail is too thin."""
    count = len(samples)
    if count < min_samples(q):
        raise ValueError(
            f"p{q:g} needs at least {min_samples(q)} samples "
            f"({MIN_TAIL} beyond it), got {count}"
        )
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * count))
    return float(ordered[rank - 1])


#: Loop iterations of one probe.
PROBE_LOOPS = 15_000
#: The probe's time at the speed timings are normalized to.
REFERENCE_PROBE_S = 1e-3


def probe() -> float:
    """Seconds a fixed pure-Python loop takes now: the current core's speed.

    0.8 ms to 1.3 ms on the 2.1 GHz shared host the benchmark was tuned
    on, depending on co-tenant load.
    """
    start = time.perf_counter()
    total = 0
    for value in range(PROBE_LOOPS):
        total += value * value
    return time.perf_counter() - start


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    try:
        content = head.read_text().strip()
    except OSError:
        return "unknown"
    if not content.startswith("ref: "):
        return content
    ref = content[len("ref: "):]
    ref_file = root / ".git" / ref
    try:
        return ref_file.read_text().strip()
    except OSError:
        pass
    try:
        packed = (root / ".git" / "packed-refs").read_text().splitlines()
    except OSError:
        return "unknown"
    for line in packed:
        parts = line.split()
        if len(parts) == 2 and parts[1] == ref:
            return parts[0]
    return "unknown"


def run_record(
    root: Path, workload: str, seed: int, seconds: int, trace: bool
) -> dict:
    """Where and how a result was measured; written next to every result."""
    return {
        "workload": workload,
        "seed": seed,
        "run_seconds": seconds,
        "trace": trace,
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": platform.platform(),
        "git_commit": git_commit(root),
    }
