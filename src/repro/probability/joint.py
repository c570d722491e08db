"""Subset-lattice transforms over predicate-outcome joints.

OptSeq's dynamic program (Section 4.1.2) walks the lattice of
*satisfied-predicate sets*: its states are subsets ``S`` of predicates known
to hold, and its transition probabilities are
``P(pred_j holds | all of S hold)``.  Given the joint pmf over outcome
bitmasks produced by :meth:`Distribution.predicate_joint`, every such
conditional is a ratio of *superset sums*:

    P(all of S hold) = sum over outcomes t with t ⊇ S of P(t)

:func:`superset_sums` computes all ``2**m`` sums simultaneously with the
standard sum-over-subsets dynamic program in ``O(m * 2**m)`` — the same
incremental-histogram spirit as Equation 7, lifted to the predicate lattice.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import DistributionError

__all__ = ["superset_sums", "conditional_from_superset_sums"]


def superset_sums(joint: np.ndarray) -> np.ndarray:
    """For each bitmask ``S``, the total mass of outcomes ``t ⊇ S``.

    ``joint``'s last axis must have length ``2**m`` for some ``m >= 0``.
    Entry ``S`` of the result is ``sum(joint[t] for t where (t & S) == S)``;
    a 2-D ``joint`` holds one table per row, each summed exactly as it
    would be alone.  Integer counts come back as exact float64 counts.
    """
    size = joint.shape[-1]
    if size == 0 or size & (size - 1):
        raise DistributionError(
            f"joint length must be a power of two, got {size}"
        )
    sums = joint.astype(np.float64)
    tables = sums.reshape(-1, size)
    bit = 1
    while bit < size:
        # Indices with this bit clear absorb the mass of their set-bit twin:
        # after processing bit b, sums[S] aggregates outcomes matching S on
        # bits <= b and arbitrary elsewhere.  Viewed as
        # (high bits, this bit, low bits), the twins are the two middle rows.
        twins = tables.reshape(len(tables), size // (2 * bit), 2, bit)
        twins[:, :, 0, :] += twins[:, :, 1, :]
        bit <<= 1
    return sums


def conditional_from_superset_sums(
    sums: np.ndarray, satisfied: int, predicate_bit: int
) -> float:
    """``P(predicate holds | predicates in ``satisfied`` hold)``.

    ``satisfied`` is the bitmask of predicates known to hold and
    ``predicate_bit`` the single-bit mask of the predicate being tested.
    Returns 0.5 when the conditioning event has zero mass (no training row
    satisfied the whole set): an uninformative prior that keeps the DP
    well-defined in data-starved corners.
    """
    if predicate_bit & satisfied:
        return 1.0
    denominator = float(sums[satisfied])
    if denominator <= 0.0:
        return 0.5
    return float(sums[satisfied | predicate_bit]) / denominator
