"""Probably-approximately-optimal confidence machinery.

Following Trummer & Koch's PAO sampling bounds (arXiv 1511.01782), the
bandit never replans on point estimates: it acts only when Hoeffding
confidence intervals say the decision is statistically warranted.

- :func:`confidence_radius` is the anytime Hoeffding half-width with a
  union bound over arms and rounds: with probability ``1 - delta`` every
  arm's true mean cost stays inside ``mean ± radius`` simultaneously,
  for all rounds.
- :func:`recertify_radius` — how far a cached plan's Eq. 3 cost may
  move between two statistics fits before the move is more than
  sampling noise; :func:`recertify_warranted` — the serving layer keeps
  a plan across a refit when its re-costed expectation lands inside
  that radius.
- :func:`paired_radius` is the half-width for *paired* challenger-minus
  -incumbent cost differences observed on the same tuples.  Per-tuple
  costs are noisy (a tuple either short-circuits or it doesn't) but the
  noise is shared between orders evaluated on the same tuple, so the
  difference has far smaller variance than either cost alone — this
  radius scales with the *measured* difference variance instead of the
  worst-case span, which is what makes swaps provable within a regime
  segment rather than after thousands of pulls.
- :func:`swap_warranted` — an incumbent is dethroned only when some
  challenger's *upper* bound is below the incumbent's *lower* bound:
  the challenger is better at confidence ``1 - delta``, so the swap is
  PAO-safe, not noise-chasing.  For paired differences the incumbent's
  bound is the zero reference: the challenger's difference UCB must be
  provably negative.
- :func:`commit_warranted` — exploration stops when the incumbent's
  upper bound is below every challenger's lower bound: no order can
  beat it at the confidence level, so further exploration only burns
  budget.  Again, paired form: zero below every difference LCB.

Everything here is pure float arithmetic on posterior statistics — no
randomness, no clocks — so identical inputs give identical decisions,
which is what makes the replay tests byte-exact.
"""

from __future__ import annotations

import math
from typing import Sequence

__all__ = [
    "confidence_radius",
    "paired_radius",
    "detection_threshold",
    "swap_warranted",
    "commit_warranted",
    "recertify_radius",
    "recertify_warranted",
]

# A variance estimate needs at least two (effective) observations.
_MIN_PAIRED_WEIGHT = 2.0

# Failure probability of the two-sample re-certification bound.
_RECERTIFY_DELTA = 0.05


def confidence_radius(
    effective_pulls: float,
    rounds: int,
    span: float,
    delta: float,
    arm_count: int,
) -> float:
    """Anytime Hoeffding half-width for one arm's mean-cost estimate.

    ``effective_pulls`` is the (possibly decay-discounted) observation
    weight behind the mean; ``rounds`` the total pulls across all arms so
    far (the union bound over time); ``span`` the largest per-pull cost
    any arm can realize.  An unobserved arm has an infinite radius — its
    bounds are vacuous until it is pulled.
    """
    if effective_pulls <= 0.0:
        return math.inf
    if span <= 0.0:
        return 0.0
    horizon = max(rounds, 2)
    union = max(arm_count, 1) * horizon * horizon
    return span * math.sqrt(math.log(union / delta) / (2.0 * effective_pulls))


def recertify_radius(span: float, rows_before: int, rows_after: int) -> float:
    """Two-sample Hoeffding half-width for a plan's cost across a refit.

    A plan's Eq. 3 cost is the mean, over the fitting history's rows, of
    a per-tuple cost in ``[0, span]`` (``span`` is the summed cost of
    every attribute the plan can acquire).  Two fits on ``rows_before``
    and ``rows_after`` independent rows of the same distribution give
    costs that differ by more than
    ``span * sqrt(ln(2/delta) / 2 * (1/rows_before + 1/rows_after))``
    with probability at most ``delta`` (0.05).  A move inside the radius
    is sampling noise, not evidence that the plan went stale.  Both
    histories are non-empty (a fit needs at least one row); a plan that
    acquires nothing (``span <= 0``) has a zero radius.
    """
    if span <= 0.0:
        return 0.0
    return span * math.sqrt(
        math.log(2.0 / _RECERTIFY_DELTA)
        / 2.0
        * (1.0 / rows_before + 1.0 / rows_after)
    )


def recertify_warranted(
    cost_claimed: float, cost_new: float, radius: float
) -> bool:
    """May a cached plan keep serving under refitted statistics?

    True when its re-costed Eq. 3 expectation moved by no more than the
    :func:`recertify_radius` from the cost it was admitted with.
    """
    return abs(cost_new - cost_claimed) <= radius


def paired_radius(
    variance: float,
    effective_weight: float,
    delta: float,
    arm_count: int,
) -> float:
    """Half-width for a paired mean-difference estimate.

    ``variance`` is the (decay-discounted) empirical variance of the
    per-tuple cost differences and ``effective_weight`` their total
    observation weight; the log term union-bounds over the branch's
    arms.  Unlike :func:`confidence_radius` this is a Gaussian-style
    bound on measured variance, not a span-based Hoeffding bound — the
    repeated-testing correction is deliberately delegated to the burst
    structure (paired samples arrive in short, change-triggered bursts,
    not continuously) and to the regret ledger, whose hard budget caps
    the damage any statistical fluke can do.  With fewer than two
    effective observations the variance estimate is meaningless and the
    radius is infinite — paired decisions need paired data.
    """
    if effective_weight < _MIN_PAIRED_WEIGHT:
        return math.inf
    union = max(arm_count, 1)
    spread = max(variance, 0.0)
    return math.sqrt(
        2.0 * spread * math.log(union / delta) / effective_weight
    )


def detection_threshold(
    variance: float, effective_weight: float, delta: float
) -> float:
    """How far the incumbent's cost must drift before exploring again.

    The change detector compares the incumbent's decayed mean cost
    against the baseline recorded when it was last (re)validated; a
    rise beyond this threshold triggers a paired exploration burst
    (M-UCB-style change detection, per the ADOPT line of work).  A
    one-shot Gaussian bound at level ``delta`` on the measured cost
    variance: false fires are possible under repeated testing, but a
    false fire costs one budget-capped burst, while a missed change
    costs unbounded regret — the asymmetry is priced in.
    """
    if effective_weight < _MIN_PAIRED_WEIGHT:
        return math.inf
    spread = max(variance, 0.0)
    return math.sqrt(2.0 * spread * math.log(1.0 / delta) / effective_weight)


def swap_warranted(
    challenger_ucb: float, incumbent_lcb: float
) -> bool:
    """Is a challenger provably cheaper than the incumbent?"""
    return challenger_ucb < incumbent_lcb


def commit_warranted(
    incumbent_ucb: float, challenger_lcbs: Sequence[float]
) -> bool:
    """May the bandit stop exploring and freeze the incumbent?

    True when every challenger's lower bound clears the incumbent's
    upper bound — the incumbent is probably-approximately-optimal and
    further pulls cannot change the ranking at this confidence level.
    Vacuously true with no challengers (a one-arm branch).
    """
    return all(incumbent_ucb <= lcb for lcb in challenger_lcbs)

