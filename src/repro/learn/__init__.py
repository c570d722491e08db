"""Online bandit learning of branch-local attribute orders.

The adaptive streaming tier (:mod:`repro.execution.streaming`) reacts
to drift by throwing the plan away — chi-square fires, the distribution
is refit, the planner replans from scratch.  That is both slow to react
(the monitor must accumulate a full window of divergent cells) and
wasteful when only one branch's ordering went stale.  This package
replaces that loop with an *online learner* in the spirit of
plan-action-optimization (Trummer & Koch, arXiv:1511.01782) and ADOPT
(arXiv:2307.16540):

- :class:`~repro.learn.bandit.OrderBanditEnsemble` treats each
  branch-local predicate order as a bandit arm; per-tuple acquisition
  costs from the executor are the (negative) rewards;
- exploration is charged into an explicit
  :class:`~repro.learn.ledger.RegretLedger`, built on the Eq. 3
  :class:`~repro.core.ledger.Ledger` the faults tier books on too —
  every pull of a non-served arm books its cost *excess over the served
  arm's posterior mean* against a hard regret budget, and the ledger
  must reconcile exactly with the stream's metered total;
- order changes are confidence-bound-triggered incremental swaps
  (challenger's UCB below incumbent's LCB), not full replans, and a
  branch *commits* (stops exploring) once the incumbent's UCB clears
  every challenger's LCB;
- the chi-square :class:`~repro.obs.DriftMonitor` stays in the loop for
  distribution shift that reshapes the conditioning skeleton itself —
  but refits warm-start from the previous posteriors instead of
  starting cold;
- everything the learner claims is auditable: plans carry a
  :class:`~repro.learn.bandit.LearnedProvenance` the verifier's ``LRN``
  rule family re-checks, and bandit state survives statistics-version
  bumps through the :class:`~repro.learn.state.BanditStateStore`.

Entry points: :class:`~repro.learn.planner.BanditPlanner` (one-shot
planning with honest Eq. 3 costs), and
:class:`~repro.learn.stream.LearnedStreamExecutor` (the bandit ordering
policy over the one stream loop, with optional fault injection).
"""

from repro.learn.arms import DEFAULT_MAX_ARM_PREDICATES, Arm, ArmSpace
from repro.learn.bandit import (
    ArmRecord,
    BanditState,
    BranchBandit,
    BranchProvenance,
    LearnedProvenance,
    OrderBanditEnsemble,
    StoredBranch,
    StoredPosterior,
)
from repro.learn.bench import LearnedBenchReport, run_learned_bench
from repro.learn.ledger import RegretLedger
from repro.learn.pao import (
    commit_warranted,
    confidence_radius,
    detection_threshold,
    paired_radius,
    recertify_radius,
    recertify_warranted,
    swap_warranted,
)
from repro.learn.planner import (
    DEFAULT_REGRET_PULLS,
    BanditPlanner,
    default_regret_budget,
)
from repro.learn.state import BanditStateStore
from repro.learn.stream import LearnedStreamExecutor
from repro.learn.workloads import (
    DriftingWorkload,
    adversarial_stream,
    drifting_stream,
)

__all__ = [
    "Arm",
    "ArmSpace",
    "DEFAULT_MAX_ARM_PREDICATES",
    "ArmRecord",
    "BranchProvenance",
    "LearnedProvenance",
    "BranchBandit",
    "OrderBanditEnsemble",
    "BanditState",
    "StoredBranch",
    "StoredPosterior",
    "RegretLedger",
    "confidence_radius",
    "detection_threshold",
    "paired_radius",
    "recertify_radius",
    "recertify_warranted",
    "swap_warranted",
    "commit_warranted",
    "BanditPlanner",
    "DEFAULT_REGRET_PULLS",
    "default_regret_budget",
    "BanditStateStore",
    "LearnedStreamExecutor",
    "DriftingWorkload",
    "adversarial_stream",
    "drifting_stream",
    "LearnedBenchReport",
    "run_learned_bench",
]
