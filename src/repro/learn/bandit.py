"""Branch-local order bandits and the ensemble that coordinates them.

The learned planner decomposes a plan into a *conditioning skeleton*
(the split structure a base planner chose) plus, per skeleton leaf, a
:class:`BranchBandit` choosing among that branch's predicate orders
(:mod:`repro.learn.arms`).  All branches share one
:class:`~repro.learn.ledger.RegretLedger`, so the exploration budget is
a plan-wide contract, not a per-branch one.

Everything is deterministic — no randomness anywhere — and the
exploration structure is change-detection-triggered bursts (the M-UCB
shape from the nonstationary-bandit literature, fused with this repo's
drift loop):

- normally every tuple runs the *incumbent* order; its realized cost
  feeds the incumbent's posterior and the observed per-step pass bits
  feed a selectivity change detector;
- the detector compares the served order's observed conditional pass
  rates against the model-predicted rates the arms were priored from
  (:meth:`~repro.learn.arms.ArmSpace.step_rates`).  Selectivities are
  Bernoulli statistics with bounded variance, so a regime flip moves
  them decisively within a handful of tuples, where per-tuple *cost*
  means — whose variance is set by the most expensive attribute — stay
  statistically ambiguous for hundreds (we measured chronic false fires
  from a cost-mean detector, plus a winner's-curse bias: the serve
  choice is an argmin over noisy means, so the incumbent's own mean
  systematically understates its true cost);
- a detection opens an *exploration burst*: the executor switches to
  value-blind full-information pulls (acquire every branch attribute,
  then replay every order on the complete row).  Because the tuple is
  chosen before any value is seen, the replayed cost vector is an
  unbiased sample for **all** arms at once — unlike replaying only
  tuples the served walk happened to read fully, which conditions the
  sample on the incumbent's own predicates passing and makes the
  incumbent look maximally expensive on its own evidence (we measured
  swap thrash from exactly this);
- a detection also marks the model rates *stale*: when the burst ends
  the detector stays disarmed until the next statistics refit
  (:meth:`BranchBandit.warm_start`) supplies fresh predictions —
  re-arming against a model the stream just drifted away from would
  refire immediately and burn the budget on a detection loop;
- every full-information pull charges its excess over the incumbent's
  counterfactual cost to the shared
  :class:`~repro.learn.ledger.RegretLedger`, and the burst is gated by
  :meth:`~repro.learn.ledger.RegretLedger.can_explore` with the
  branch's worst-case read, so the regret budget can never be
  overdrawn, even transiently.

The incumbent changes only through
:func:`~repro.learn.pao.swap_warranted`, and the branch freezes through
:func:`~repro.learn.pao.commit_warranted` — the PAO discipline that
replaces the old "chi-square fired, replan from scratch" reflex.  Both
tests run on *paired* challenger-minus-incumbent differences from the
burst sample: per-tuple costs are noisy but the noise is shared between
orders replayed on the same tuple, so the paired statistic is decisive
within a drift segment while the absolute Hoeffding bounds are still
vacuous.  A burst ends when the paired evidence settles (no challenger
looks cheaper than the incumbent), at which point the detector is
re-baselined; a commit ends it too, and a later detection re-opens even
a committed branch — commitment is a statement about the current
regime, not a vow.

``posterior_decay`` < 1 turns the posteriors into discounted means
(D-UCB): every recorded pull first decays *all* arms' observation
weight, so stale regimes fade and the bandit tracks non-stationary
streams without waiting for a refit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Union

import numpy as np

from repro.core.attributes import Schema
from repro.core.cost import expected_cost
from repro.core.cost_models import AcquisitionCostModel
from repro.core.plan import ConditionNode, PlanNode
from repro.core.query import ConjunctiveQuery
from repro.core.ranges import RangeVector
from repro.exceptions import LearningError
from repro.learn.arms import DEFAULT_MAX_ARM_PREDICATES, Arm, ArmSpace
from repro.learn.ledger import RegretLedger
from repro.learn.pao import (
    commit_warranted,
    confidence_radius,
    detection_threshold,
    paired_radius,
    swap_warranted,
)
from repro.probability.base import Distribution

__all__ = [
    "ArmRecord",
    "BranchProvenance",
    "LearnedProvenance",
    "StoredPosterior",
    "StoredBranch",
    "BanditState",
    "BranchBandit",
    "ConditionVisit",
    "OrderBanditEnsemble",
]


# ----------------------------------------------------------------------
# Provenance: what an emitted plan carries for the LRN verifier rules.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ArmRecord:
    """One arm's posterior, frozen for provenance."""

    arm_id: int
    order: tuple[int, ...]
    pulls: int
    weight: float
    mean: float
    lcb: float
    ucb: float
    prior: float

    def as_dict(self) -> dict[str, Any]:
        return {
            "arm_id": self.arm_id,
            "order": list(self.order),
            "pulls": self.pulls,
            "mean": round(self.mean, 6),
            "lcb": round(self.lcb, 6) if math.isfinite(self.lcb) else "-inf",
            "ucb": round(self.ucb, 6) if math.isfinite(self.ucb) else "inf",
            "prior": round(self.prior, 6),
        }


@dataclass(frozen=True)
class BranchProvenance:
    """One branch bandit's state, keyed by the verifier's leaf path."""

    path: str
    served_arm: int
    committed: bool
    rounds: int
    span: float
    arms: tuple[ArmRecord, ...]


@dataclass(frozen=True)
class LearnedProvenance:
    """How a learned plan came to be: arms, posteriors, and the ledger.

    Attached to :class:`~repro.planning.base.PlanningResult` and to
    learned stream reports; the verifier's ``LRN`` family audits it —
    budget conservation (``LRN001``), ledger reconciliation against
    ``observed_total`` (``LRN002``), posterior well-formedness
    (``LRN003``/``LRN004``), and plan/incumbent agreement (``LRN005``).
    """

    branches: tuple[BranchProvenance, ...]
    ledger: RegretLedger
    observed_total: float
    delta: float

    @property
    def committed(self) -> bool:
        return all(branch.committed for branch in self.branches)

    @property
    def total_pulls(self) -> int:
        return sum(branch.rounds for branch in self.branches)


# ----------------------------------------------------------------------
# Stored state: what survives statistics-version bumps in the store.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class StoredPosterior:
    pulls: int
    weight: float
    cost_sum: float
    prior: float


@dataclass(frozen=True)
class StoredBranch:
    path: str
    orders: tuple[tuple[int, ...], ...]
    served: int
    committed: bool
    rounds: int
    posteriors: tuple[StoredPosterior, ...]


@dataclass(frozen=True)
class BanditState:
    """A frozen, adoptable export of an ensemble's learned posteriors."""

    query: str
    attributes: int
    branches: tuple[StoredBranch, ...]


# ----------------------------------------------------------------------
# Posteriors and branch bandits.
# ----------------------------------------------------------------------


class _ArmPosterior:
    """Discounted running mean with a prior pseudo-observation."""

    __slots__ = ("pulls", "weight", "cost_sum", "prior", "prior_weight")

    def __init__(self, prior: float, prior_weight: float) -> None:
        self.pulls = 0
        self.weight = 0.0
        self.cost_sum = 0.0
        self.prior = prior
        self.prior_weight = prior_weight

    @property
    def mean(self) -> float:
        denominator = self.prior_weight + self.weight
        if denominator <= 0.0:
            return self.prior
        return (self.prior * self.prior_weight + self.cost_sum) / denominator

    def decay(self, factor: float) -> None:
        self.weight *= factor
        self.cost_sum *= factor

    def observe(self, cost: float) -> None:
        self.pulls += 1
        self.weight += 1.0
        self.cost_sum += cost


# A burst may not settle before every challenger's paired evidence has
# at least this much effective weight — a freshly swapped incumbent must
# survive a minimum of confirmation pulls before the burst closes.
_MIN_SETTLE_WEIGHT = 2.0

# A challenger holds a burst open only when its paired mean undercuts
# the incumbent by more than this fraction of the branch's worst-case
# read.  Without the deadband a statistical near-tie — whose mean
# difference hovers around zero — keeps the burst alive for as long as
# the noise says "maybe", which is exploration spend that can never buy
# a meaningful swap.
_SETTLE_DEADBAND = 0.02

# No burst runs past this multiple of ``burst_pulls``: if the paired
# evidence has not settled by then the arms are statistically too close
# for the swap to matter, and the budget is better saved for the next
# drift.
_MAX_BURST_FACTOR = 4

# Absolute floor on the selectivity change-detection threshold, in pass
# -rate units.  The statistical threshold shrinks like 1/sqrt(weight)
# under repeated testing, and the model rates themselves carry sampling
# error from the finite statistics window (a 96-row fit is easily off
# by 0.1) — a deviation smaller than this is indistinguishable from fit
# noise and should never buy a burst no matter how much evidence has
# accumulated.  Regime flips that matter move a selectivity by several
# tenths, so the floor costs no real detections.
_DETECTION_FLOOR = 0.25

# Confidence parameter for the change detector, separate from the
# swap/commit ``delta``: detection is re-tested on every served tuple
# (thousands of times per run) while a swap test runs once per burst, so
# the detector needs a materially smaller per-test false-positive rate.
# A false fire costs a wasted burst *and* disarms detection until the
# next refit — we measured missed regime flips from exactly that chain.
_DETECTION_DELTA = 0.05

# A step's detector may not fire before its decayed pass-rate estimate
# rests on this much effective weight: a two-observation rate is noise,
# and a variance estimated from near-identical early samples undercuts
# the statistical threshold badly enough that the floor alone cannot
# save it.
_MIN_DETECTOR_WEIGHT = 8.0


class _Moments:
    """Discounted first and second moments of an observation stream.

    Serves two roles: the paired challenger-minus-incumbent cost
    difference accumulators, and the per-step pass-rate observations
    the selectivity change detector compares against the model.
    """

    __slots__ = ("weight", "total", "squares")

    def __init__(self) -> None:
        self.weight = 0.0
        self.total = 0.0
        self.squares = 0.0

    @property
    def mean(self) -> float:
        if self.weight <= 0.0:
            return 0.0
        return self.total / self.weight

    @property
    def variance(self) -> float:
        if self.weight <= 0.0:
            return 0.0
        mean = self.mean
        return max(0.0, self.squares / self.weight - mean * mean)

    def decay(self, factor: float) -> None:
        self.weight *= factor
        self.total *= factor
        self.squares *= factor

    def observe(self, difference: float) -> None:
        self.weight += 1.0
        self.total += difference
        self.squares += difference * difference

    def reset(self) -> None:
        self.weight = 0.0
        self.total = 0.0
        self.squares = 0.0


class BranchBandit:
    """Deterministic change-detection bandit over one branch's orders."""

    def __init__(
        self,
        path: str,
        arm_space: ArmSpace,
        priors: tuple[float, ...],
        ledger: RegretLedger,
        *,
        span: float,
        delta: float,
        burst_pulls: int,
        decay: float,
        prior_weight: float = 1.0,
        step_rates: tuple[tuple[float, ...], ...] | None = None,
    ) -> None:
        if len(priors) != len(arm_space):
            raise LearningError(
                f"{len(priors)} priors for {len(arm_space)} arms"
            )
        if step_rates is not None and len(step_rates) != len(arm_space):
            raise LearningError(
                f"{len(step_rates)} step-rate vectors for "
                f"{len(arm_space)} arms"
            )
        self._path = path
        self._arm_space = arm_space
        self._ledger = ledger
        self._span = span
        self._delta = delta
        self._burst = burst_pulls
        self._decay = decay
        self._posteriors = [
            _ArmPosterior(prior, prior_weight) for prior in priors
        ]
        self._paired = [_Moments() for _ in priors]
        self._served = _argmin(priors)
        self._committed = len(arm_space) <= 1
        self._rounds = 0
        # A fresh branch opens with a validation burst: the priors chose
        # the incumbent, the burst's unbiased paired sample confirms (or
        # corrects) the choice before the branch settles into serving.
        # ``_burst_done`` counts pulls since the burst opened or the
        # incumbent last changed (a swap restarts the confirmation
        # clock); ``_burst_total`` counts pulls since the burst opened
        # (the hard cap's clock — swaps must not extend it unboundedly).
        self._bursting = len(arm_space) > 1
        self._burst_done = 0
        self._burst_total = 0
        # Selectivity change detection: model-predicted per-step pass
        # rates per arm, observed pass-rate moments for the served
        # order's steps, and an armed flag.  A detection marks the model
        # stale; the detector then stays disarmed from the end of that
        # burst until warm_start supplies fresh rates.
        self._model_rates: tuple[tuple[float, ...], ...] = (
            step_rates
            if step_rates is not None
            else tuple(() for _ in priors)
        )
        self._stale = False
        self._armed = any(len(rates) > 0 for rates in self._model_rates)
        self._step_obs: list[_Moments] = [
            _Moments() for _ in self._model_rates[self._served]
        ]

    # -- introspection -------------------------------------------------

    @property
    def path(self) -> str:
        return self._path

    @property
    def arm_space(self) -> ArmSpace:
        return self._arm_space

    @property
    def served(self) -> int:
        return self._served

    @property
    def served_arm(self) -> Arm:
        return self._arm_space[self._served]

    @property
    def committed(self) -> bool:
        return self._committed

    @property
    def rounds(self) -> int:
        return self._rounds

    @property
    def span(self) -> float:
        return self._span

    def mean(self, arm_id: int) -> float:
        return self._posteriors[arm_id].mean

    def radius(self, arm_id: int) -> float:
        return confidence_radius(
            self._posteriors[arm_id].weight,
            self._rounds,
            self._span,
            self._delta,
            len(self._arm_space),
        )

    def lcb(self, arm_id: int) -> float:
        radius = self.radius(arm_id)
        if math.isinf(radius):
            return 0.0
        return max(0.0, self.mean(arm_id) - radius)

    def ucb(self, arm_id: int) -> float:
        return self.mean(arm_id) + self.radius(arm_id)

    def paired_mean(self, arm_id: int) -> float:
        """Mean cost difference of ``arm_id`` vs the incumbent (paired)."""
        return self._paired[arm_id].mean

    def paired_bound(self, arm_id: int) -> float:
        """Half-width of the paired difference estimate for ``arm_id``."""
        paired = self._paired[arm_id]
        return paired_radius(
            paired.variance,
            paired.weight,
            self._delta,
            len(self._arm_space),
        )

    @property
    def bursting(self) -> bool:
        return self._bursting

    # -- the bandit loop ----------------------------------------------

    def select(self) -> int:
        """The arm to run on a served tuple — always the incumbent.

        Exploration is no longer a served-path decision: it happens on
        value-blind full-information pulls scheduled by the change
        detector (:meth:`wants_full_pull` / :meth:`record_full`), so a
        served tuple never pays for learning.
        """
        return self._served

    def wants_full_pull(self) -> bool:
        """Should the next tuple be a full-information exploration pull?

        True while a burst is open *and* the ledger can still afford a
        worst-case read.  When the budget gate refuses, the burst is
        abandoned and the detector re-baselined (mutating here keeps the
        decision in one place): without the re-baseline the detector
        would re-open the unaffordable burst every tuple.
        """
        if self._committed or not self._bursting:
            return False
        if not self._ledger.can_explore(self._span):
            self._end_burst()
            return False
        return True

    def record(
        self,
        arm_id: int,
        cost: float,
        passes: "tuple[bool, ...] | list[bool]" = (),
    ) -> None:
        """Feed one realized served-pull cost back; charge the ledger.

        ``passes`` carries the walk's observed per-step pass bits for
        the prefix of steps actually evaluated (a short-circuited walk
        stops at its first failure) — the selectivity evidence the
        change detector runs on.  The fault-injected executor has no
        step traces: it books whole served runs through
        :meth:`record_run` and adapts through outage-triggered refits.
        """
        reference = self.mean(self._served)
        if arm_id == self._served:
            self._ledger.charge_exploit(cost)
        else:
            self._ledger.charge_explore(cost, reference)
        if self._decay < 1.0:
            for posterior in self._posteriors:
                posterior.decay(self._decay)
            for paired in self._paired:
                paired.decay(self._decay)
            for moments in self._step_obs:
                moments.decay(self._decay)
        self._posteriors[arm_id].observe(cost)
        if arm_id == self._served:
            for index, passed in enumerate(passes):
                if index < len(self._step_obs):
                    self._step_obs[index].observe(1.0 if passed else 0.0)
            self._maybe_detect()
        self._rounds += 1

    def record_run(self, costs: list[float]) -> None:
        """Book a run of served pulls at once: ``record(served, c)`` per cost.

        For runs without step passes (the fault-injected executor's
        served windows): with no passes the change detector cannot fire,
        and outside a burst neither a swap nor a commit can, so every
        pull of the run is the incumbent's.  The floats are the per-pull
        ones: the incumbent's weight and cost sum take ``w*γ + 1`` and
        ``s*γ + c`` pull by pull, every other decayed moment is
        multiplied by γ once per pull, in sequence, and the ledger's base
        side adds the costs left to right.
        """
        self._ledger.charge_exploits(costs)
        decay = self._decay
        served = self._posteriors[self._served]
        others = [p for p in self._posteriors if p is not served]
        moments = [*self._paired, *self._step_obs]
        values = [v for p in others for v in (p.weight, p.cost_sum)]
        values += [v for m in moments for v in (m.weight, m.total, m.squares)]
        # Row 0 holds the values and every later row one pull's factor, so
        # accumulating down the rows multiplies in sequence.  A factor of
        # 1.0 (no decay) leaves every float as it is.
        factors = np.full((len(costs) + 1, len(values)), decay)
        factors[0] = values
        decayed = np.multiply.accumulate(factors, axis=0)[-1].tolist()
        for k, posterior in enumerate(others):
            posterior.weight, posterior.cost_sum = decayed[2 * k : 2 * k + 2]
        first = 2 * len(others)
        for k, moment in enumerate(moments):
            at = first + 3 * k
            moment.weight, moment.total, moment.squares = decayed[at : at + 3]
        weight, total = served.weight, served.cost_sum
        for cost in costs:
            weight = weight * decay + 1.0
            total = total * decay + cost
        served.weight, served.cost_sum = weight, total
        served.pulls += len(costs)
        self._rounds += len(costs)

    def record_full(
        self, full_cost: float, costs: "list[float] | tuple[float, ...]"
    ) -> None:
        """One value-blind full-information pull: every arm at once.

        ``full_cost`` is the realized cost of acquiring every branch
        attribute; ``costs`` the counterfactual replay cost of each arm
        on the completed row.  The incumbent's replay cost is the
        exploit reference — the ledger books it on the base side and the
        rest as exploration spend, so conservation is exact and the
        burst's price is fully audited.  Because the tuple was chosen
        before any value was seen, the replay vector is an unbiased
        sample for every arm simultaneously, which is what the paired
        swap/commit statistics require.
        """
        if len(costs) != len(self._posteriors):
            raise LearningError(
                f"{len(costs)} counterfactual costs for "
                f"{len(self._posteriors)} arms"
            )
        reference = costs[self._served]
        self._ledger.charge_explore(full_cost, reference)
        if self._decay < 1.0:
            for posterior in self._posteriors:
                posterior.decay(self._decay)
            for paired in self._paired:
                paired.decay(self._decay)
        for arm_id, cost in enumerate(costs):
            self._posteriors[arm_id].observe(cost)
            if arm_id != self._served:
                self._paired[arm_id].observe(cost - reference)
        self._rounds += 1
        if self._bursting:
            self._burst_done += 1
            self._burst_total += 1
            if self._burst_done >= self._burst and self._burst_settled():
                self._end_burst()

    def record_full_failure(self, cost: float) -> None:
        """A full-information pull that degraded mid-read (faulted runs).

        No replay is possible, so no posterior moves; the whole realized
        cost is charged with the incumbent's mean as the exploit
        reference — the excess is exploration spend that bought nothing,
        which is exactly what the regret ledger exists to meter.  The
        burst pull is still consumed so a storm cannot pin a burst open.
        """
        self._ledger.charge_explore(cost, self.mean(self._served))
        self._rounds += 1
        if self._bursting:
            self._burst_done += 1
            self._burst_total += 1
            if self._burst_done >= self._burst and self._burst_settled():
                self._end_burst()

    def maybe_swap(self) -> int | None:
        """Dethrone the incumbent if a challenger provably beats it.

        Runs only while a burst is open — the paired accumulators hold
        burst evidence, and acting on them after the burst settled would
        replay stale differences against a revalidated incumbent (the
        exact post-burst thrash we measured before gating this).  The
        test: a challenger whose difference-UCB sits below the negative
        deadband is cheaper at confidence ``1 - delta`` *and* by enough
        to matter — a provable-but-trivial improvement (a near-tie with
        a deterministic hair of difference) is not worth the swap churn
        and the confirmation pulls it triggers.  A swap resets every
        paired accumulator — the differences were relative to the
        dethroned incumbent — and the burst keeps running, so the new
        incumbent must survive its own confirmation pulls before the
        burst settles.
        """
        if self._committed or not self._bursting or len(self._posteriors) <= 1:
            return None
        deadband = _SETTLE_DEADBAND * self._span
        if self._burst_total >= _MAX_BURST_FACTOR * self._burst:
            return self._resolve_capped_burst(deadband)
        challenger: int | None = None
        challenger_ucb = math.inf
        for arm_id in range(len(self._posteriors)):
            if arm_id == self._served:
                continue
            bound = self.paired_mean(arm_id) + self.paired_bound(arm_id)
            if bound < challenger_ucb:
                challenger = arm_id
                challenger_ucb = bound
        if challenger is not None and swap_warranted(challenger_ucb, -deadband):
            self._served = challenger
            self._reset_paired()
            # The new incumbent earns a full confirmation round: a
            # handful of post-swap pulls can be degenerate (tuples the
            # shared lead attribute rejects cost the same under every
            # order) and would otherwise settle the burst on an arm the
            # very next representative tuple dethrones.
            self._burst_done = 0
            return challenger
        return None

    def _resolve_capped_burst(self, deadband: float) -> int | None:
        """Best-effort resolution when a burst exhausts its hard cap.

        The PAO bound did not prove any challenger by then — but the
        accumulated paired sample is the largest this burst will ever
        have, and serving a known-worse-looking incumbent because the
        proof fell short wastes everything the burst paid for.  At the
        cap the decision drops to preponderance of evidence: the
        lowest-mean challenger wins if its paired mean undercuts the
        deadband; either way the burst ends.
        """
        best: int | None = None
        best_mean = -deadband
        for arm_id, paired in enumerate(self._paired):
            if arm_id == self._served:
                continue
            if paired.weight < _MIN_SETTLE_WEIGHT:
                continue
            if paired.mean < best_mean:
                best = arm_id
                best_mean = paired.mean
        if best is not None:
            self._served = best
        self._end_burst()
        return best

    def check_commit(self) -> bool:
        """Latch the commit flag; True only on the transition.

        Paired form of :func:`~repro.learn.pao.commit_warranted`: the
        branch freezes when every challenger's difference-LCB clears the
        zero reference — each is provably more expensive than the
        incumbent on the shared tuple sample.  Like :meth:`maybe_swap`
        this reads burst evidence, so it only runs while a burst is
        open — and only once the burst has run its minimum length: a
        handful of degenerate early samples (e.g. tuples the cheap lead
        attribute rejects, where every order costs the same) can show
        zero variance and fake an airtight bound.
        """
        if self._committed or not self._bursting:
            return False
        if self._burst_done < self._burst:
            return False
        if commit_warranted(
            0.0,
            [
                self.paired_mean(arm_id) - self.paired_bound(arm_id)
                for arm_id in range(len(self._posteriors))
                if arm_id != self._served
            ],
        ):
            self._committed = True
            self._end_burst()
            return True
        return False

    def _burst_settled(self) -> bool:
        """May the open burst close?  Yes when no challenger looks better.

        Every challenger needs a minimum of paired weight (a swap resets
        the accumulators, so a new incumbent earns confirmation pulls),
        and none may show a strictly negative mean difference — a
        cheaper-looking challenger keeps the burst open until the bound
        either proves the swap or the estimate regresses to the
        incumbent.  A statistical tie cannot hold the burst open forever:
        ``maybe_swap`` resolves the burst by preponderance of evidence
        once the total pull count hits the ``_MAX_BURST_FACTOR`` cap.
        """
        deadband = _SETTLE_DEADBAND * self._span
        for arm_id, paired in enumerate(self._paired):
            if arm_id == self._served:
                continue
            if paired.weight < _MIN_SETTLE_WEIGHT:
                return False
            if paired.mean < -deadband:
                return False
        return True

    def _end_burst(self) -> None:
        """Close the burst; stale model rates keep the detector disarmed.

        Burst evidence is consumed here — the paired accumulators are
        reset so no post-burst decision can replay them against the
        revalidated incumbent.
        """
        self._bursting = False
        self._burst_done = 0
        self._burst_total = 0
        self._reset_paired()
        if self._stale:
            self._armed = False
        self._revalidate()

    def _revalidate(self) -> None:
        """Restart the selectivity observations for the current incumbent."""
        self._step_obs = [
            _Moments() for _ in self._model_rates[self._served]
        ]

    def _maybe_detect(self) -> None:
        """Open a burst when an observed selectivity leaves the model.

        Runs on served pulls only.  Each evaluated step's observed
        conditional pass rate is compared to the model-predicted rate
        the arms were priored from; the threshold is the statistical one
        from :func:`~repro.learn.pao.detection_threshold` (the variance
        of a Bernoulli rate is ``p(1-p)``, so the bound is tight) with
        an absolute floor of ``_DETECTION_FLOOR``, covering the model
        rates' own fit error from the finite statistics window.  A fire
        marks the model stale — the rates just stopped describing the
        stream — and re-opens even a committed branch: drift evidence
        trumps a past commit.
        """
        if not self._armed or self._bursting or len(self._posteriors) <= 1:
            return
        rates = self._model_rates[self._served]
        for moments, model in zip(self._step_obs, rates):
            if moments.weight < _MIN_DETECTOR_WEIGHT:
                continue
            # Null-hypothesis variance: under "no drift" the observed
            # bits are Bernoulli(model), so the sampling variance is
            # model * (1 - model).  Using the *observed* variance
            # instead understates the threshold exactly when a fluke
            # drags the observed rate toward 0 or 1 — the measured
            # false-fire mode of this detector.
            threshold = max(
                detection_threshold(
                    model * (1.0 - model), moments.weight, _DETECTION_DELTA
                ),
                _DETECTION_FLOOR,
            )
            if abs(moments.mean - model) > threshold:
                self._stale = True
                self._committed = False
                self._bursting = True
                self._burst_done = 0
                self._burst_total = 0
                return

    def _reset_paired(self) -> None:
        for paired in self._paired:
            paired.reset()

    # -- refits and persistence ---------------------------------------

    def warm_start(
        self,
        priors: tuple[float, ...],
        discount: float,
        step_rates: tuple[tuple[float, ...], ...] | None = None,
    ) -> None:
        """Re-prior against fresh statistics, discounting old evidence.

        ``step_rates`` are the freshly fitted model selectivities — they
        replace whatever the detector was comparing against and re-arm
        it: a refit is exactly the event that makes stale rates current
        again.
        """
        if len(priors) != len(self._posteriors):
            raise LearningError("warm start with mismatched arm count")
        if step_rates is not None:
            if len(step_rates) != len(self._posteriors):
                raise LearningError(
                    "warm start with mismatched step-rate count"
                )
            self._model_rates = step_rates
        for posterior, prior in zip(self._posteriors, priors):
            posterior.decay(discount)
            posterior.prior = prior
        self._served = _argmin(
            tuple(posterior.mean for posterior in self._posteriors)
        )
        self._committed = len(self._posteriors) <= 1
        self._reset_paired()
        # A refit re-priors from fresh window statistics, so the serve
        # choice is already informed — no validation burst; if the refit
        # chose badly the detector will notice and open one.
        self._bursting = False
        self._burst_done = 0
        self._burst_total = 0
        self._stale = False
        self._armed = any(len(rates) > 0 for rates in self._model_rates)
        self._revalidate()

    def export(self) -> StoredBranch:
        return StoredBranch(
            path=self._path,
            orders=tuple(arm.order for arm in self._arm_space.arms),
            served=self._served,
            committed=self._committed,
            rounds=self._rounds,
            posteriors=tuple(
                StoredPosterior(
                    pulls=posterior.pulls,
                    weight=posterior.weight,
                    cost_sum=posterior.cost_sum,
                    prior=posterior.prior,
                )
                for posterior in self._posteriors
            ),
        )

    def adopt(self, stored: StoredBranch, discount: float) -> None:
        """Blend stored posteriors (discounted) into fresh priors."""
        for posterior, old in zip(self._posteriors, stored.posteriors):
            posterior.pulls = old.pulls
            posterior.weight = old.weight * discount
            posterior.cost_sum = old.cost_sum * discount
        self._rounds = stored.rounds
        self._served = _argmin(
            tuple(posterior.mean for posterior in self._posteriors)
        )
        self._committed = len(self._posteriors) <= 1
        self._reset_paired()
        # Adopted evidence already validated these posteriors once; skip
        # the fresh-branch burst and let the detector arbitrate (the
        # model rates stay construction-fresh — this ensemble was just
        # built from current statistics).
        self._bursting = False
        self._burst_done = 0
        self._burst_total = 0
        self._stale = False
        self._armed = any(len(rates) > 0 for rates in self._model_rates)
        self._revalidate()

    def provenance(self) -> BranchProvenance:
        return BranchProvenance(
            path=self._path,
            served_arm=self._served,
            committed=self._committed,
            rounds=self._rounds,
            span=self._span,
            arms=tuple(
                ArmRecord(
                    arm_id=arm.arm_id,
                    order=arm.order,
                    pulls=self._posteriors[arm.arm_id].pulls,
                    weight=self._posteriors[arm.arm_id].weight,
                    mean=self.mean(arm.arm_id),
                    lcb=self.lcb(arm.arm_id),
                    ucb=self.ucb(arm.arm_id),
                    prior=self._posteriors[arm.arm_id].prior,
                )
                for arm in self._arm_space.arms
            ),
        )


def _argmin(values: tuple[float, ...]) -> int:
    """Index of the smallest value; lowest index wins ties (determinism)."""
    best = 0
    for index in range(1, len(values)):
        if values[index] < values[best]:
            best = index
    return best


# ----------------------------------------------------------------------
# The ensemble: skeleton + branch bandits + shared ledger.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ConditionVisit:
    """One skeleton condition crossed while routing a tuple."""

    path: str
    node: ConditionNode
    below: bool
    acquired: bool


@dataclass
class _SkeletonSplit:
    node: ConditionNode
    below: "_SkeletonSplit | BranchBandit"
    above: "_SkeletonSplit | BranchBandit"


_SkeletonNode = Union[_SkeletonSplit, BranchBandit]


class OrderBanditEnsemble:
    """All branch bandits of one plan, behind one ledger and skeleton.

    ``skeleton`` is a plan whose *condition structure* is kept — each
    maximal non-condition subtree becomes a branch slot with its own arm
    space.  ``None`` means a flat, split-free plan: a single branch over
    full-query orders.  ``span_inflation`` scales every branch's
    worst-case pull bound (fault-injected runs pass the retry blow-up so
    the explore gate stays sound under storms).
    """

    def __init__(
        self,
        schema: Schema,
        query: ConjunctiveQuery,
        distribution: Distribution,
        *,
        budget: float,
        skeleton: PlanNode | None = None,
        delta: float = 0.05,
        burst_pulls: int = 12,
        decay: float = 1.0,
        max_arm_predicates: int = DEFAULT_MAX_ARM_PREDICATES,
        cost_model: AcquisitionCostModel | None = None,
        span_inflation: float = 1.0,
        prior_weight: float = 1.0,
        ledger: RegretLedger | None = None,
    ) -> None:
        if not 0.0 < delta < 1.0:
            raise LearningError(f"delta must be in (0, 1): {delta}")
        if burst_pulls < 1:
            raise LearningError(f"burst_pulls must be >= 1: {burst_pulls}")
        if not 0.0 < decay <= 1.0:
            raise LearningError(f"posterior_decay must be in (0, 1]: {decay}")
        if span_inflation < 1.0:
            raise LearningError(f"span_inflation must be >= 1: {span_inflation}")
        self._schema = schema
        self._query = query
        self._cost_model = cost_model
        self._ledger = ledger if ledger is not None else RegretLedger(budget)
        self._delta = delta
        self._branches: list[BranchBandit] = []

        def build(node: PlanNode | None, path: str, context: RangeVector) -> _SkeletonNode:
            if isinstance(node, ConditionNode):
                below, above = context.split(node.attribute_index, node.split_value)
                return _SkeletonSplit(
                    node=node,
                    below=build(node.below, f"{path}/below", below),
                    above=build(node.above, f"{path}/above", above),
                )
            arm_space = ArmSpace(query, context, max_arm_predicates)
            priors, step_rates = arm_space.prices(distribution, cost_model)
            branch = BranchBandit(
                path,
                arm_space,
                priors,
                self._ledger,
                span=arm_space.span(schema, cost_model) * span_inflation,
                delta=delta,
                burst_pulls=burst_pulls,
                decay=decay,
                prior_weight=prior_weight,
                step_rates=step_rates,
            )
            self._branches.append(branch)
            return branch

        self._root = build(skeleton, "root", RangeVector.full(schema))

    # -- introspection -------------------------------------------------

    @property
    def ledger(self) -> RegretLedger:
        return self._ledger

    @property
    def branches(self) -> tuple[BranchBandit, ...]:
        return tuple(self._branches)

    @property
    def committed(self) -> bool:
        return all(branch.committed for branch in self._branches)

    @property
    def total_rounds(self) -> int:
        return sum(branch.rounds for branch in self._branches)

    @property
    def flat(self) -> bool:
        return isinstance(self._root, BranchBandit)

    # -- routing and plans --------------------------------------------

    def route(
        self, row, acquired: set[int]
    ) -> tuple[BranchBandit, list[ConditionVisit], float]:
        """Walk the skeleton to a branch, metering conditioning reads.

        ``acquired`` is the tuple's read cache (mutated in place); the
        returned cost covers only attributes newly read while routing.
        """
        cost = 0.0
        visits: list[ConditionVisit] = []
        node = self._root
        path = "root"
        while isinstance(node, _SkeletonSplit):
            index = node.node.attribute_index
            newly = index not in acquired
            if newly:
                acquired.add(index)
                cost += self.attribute_cost(index, acquired)
            below = bool(row[index] < node.node.split_value)
            visits.append(
                ConditionVisit(
                    path=path, node=node.node, below=below, acquired=newly
                )
            )
            node = node.below if below else node.above
            path = f"{path}/below" if below else f"{path}/above"
        return node, visits, cost

    def attribute_cost(self, index: int, acquired: set[int]) -> float:
        """Effective cost of reading ``index`` given the tuple's read cache."""
        if self._cost_model is None:
            return float(self._schema[index].cost)
        already = frozenset(acquired - {index})
        return float(self._cost_model.cost(index, already))

    def composite_plan(self) -> PlanNode:
        """The skeleton with every branch's served arm plugged in."""

        def rebuild(node: _SkeletonNode) -> PlanNode:
            if isinstance(node, BranchBandit):
                return node.served_arm.plan
            return ConditionNode(
                attribute=node.node.attribute,
                attribute_index=node.node.attribute_index,
                split_value=node.node.split_value,
                below=rebuild(node.below),
                above=rebuild(node.above),
            )

        return rebuild(self._root)

    def expected_cost(self, distribution: Distribution) -> float:
        """Eq. 3 cost of the current composite plan under ``distribution``."""
        return expected_cost(
            self.composite_plan(), distribution, None, self._cost_model
        )

    # -- refits and persistence ---------------------------------------

    def warm_start(self, distribution: Distribution, discount: float) -> None:
        """Re-prior every branch against freshly fitted statistics."""
        for branch in self._branches:
            priors, step_rates = branch.arm_space.prices(distribution, self._cost_model)
            branch.warm_start(priors, discount, step_rates)

    def export_state(self) -> BanditState:
        return BanditState(
            query=self._query.describe(),
            attributes=len(self._schema),
            branches=tuple(branch.export() for branch in self._branches),
        )

    def adopt(self, state: BanditState, discount: float) -> bool:
        """Blend a stored state in, if it matches this ensemble's shape.

        Matching means: same query text, same branch paths, and the same
        arm orders per branch.  Returns False (no-op) on any mismatch —
        a skeleton that changed shape makes old posteriors meaningless.
        """
        if state.query != self._query.describe():
            return False
        if state.attributes != len(self._schema):
            return False
        if len(state.branches) != len(self._branches):
            return False
        for branch, stored in zip(self._branches, state.branches):
            if branch.path != stored.path:
                return False
            if tuple(arm.order for arm in branch.arm_space.arms) != stored.orders:
                return False
        for branch, stored in zip(self._branches, state.branches):
            branch.adopt(stored, discount)
        return True

    def provenance(self, observed_total: float = 0.0) -> LearnedProvenance:
        return LearnedProvenance(
            branches=tuple(branch.provenance() for branch in self._branches),
            ledger=self._ledger.snapshot(),
            observed_total=observed_total,
            delta=self._delta,
        )
