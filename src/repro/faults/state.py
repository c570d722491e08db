"""Row-keyed fault dice and the fault state that outlives a single row.

Every fault die is a pure function of ``(run key, row id, attribute,
attempt)``: a keyed splitmix64 hash over ``uint64`` arrays, so a whole
window's dice come from one vectorised call and a die never depends on
how the rows were split into windows or in which order they were
visited.  ``attempt`` counts the attempts on that attribute within that
row, retries and degraded-path re-reads included.

The run key is drawn from the caller's seeded generator the first time a
non-zero profile needs a die (:class:`DiceKey`); zero profiles never
touch the generator, so a zero schedule leaves it exactly as it was.

What does carry from one row (and one window) to the next lives in
:class:`FaultState`: outage bursts still owed on an attribute, run-wide
retry budgets, the stuck-at-last value of each sensor, and the run's
fault counters.  :meth:`FaultState.roll` is the one place an attempt's
outcome is decided; the scalar :class:`~repro.faults.injector.FaultInjector`
and the windowed :class:`~repro.faults.executor.FaultTolerantExecutor`
both call it.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import AcquisitionError
from repro.faults.model import AttributeFaults, FaultSchedule
from repro.faults.policy import RetryPolicy

__all__ = ["fault_dice", "noise_bits", "DiceKey", "FaultState"]

_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_S11, _S27, _S30, _S31, _S32 = (np.uint64(s) for s in (11, 27, 30, 31, 32))


def _mix(z: np.ndarray) -> np.ndarray:
    """The splitmix64 finaliser, elementwise and in place (wraps mod 2**64)."""
    z ^= z >> _S30
    z *= _MIX_1
    z ^= z >> _S27
    z *= _MIX_2
    z ^= z >> _S31
    return z


def fault_dice(
    key: int, rows: np.ndarray, attributes: np.ndarray, attempts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Uniform ``[0, 1)`` dice and their raw hashes for broadcast coordinates.

    ``rows``, ``attributes`` and ``attempts`` broadcast against each other;
    both outputs have the broadcast shape.  Each row gets the splitmix64
    output at position ``row`` of the stream seeded by ``key``; the die
    is that mixed with the ``(attribute, attempt)`` lane.  The uniform
    die is the top 53 bits of the hash; :func:`noise_bits` derives the
    noise offset's bits from the same hash.
    """
    row_keys = np.atleast_1d(np.asarray(rows, dtype=np.uint64)) * _GAMMA
    row_keys += np.uint64(key)
    lanes = (np.asarray(attributes, dtype=np.uint64) << _S32) | np.asarray(
        attempts, dtype=np.uint64
    )
    hashed = _mix(_mix(row_keys) ^ lanes)
    return (hashed >> _S11).astype(np.float64) * 2.0**-53, hashed


def noise_bits(hashed: np.ndarray) -> np.ndarray:
    """The bits a noisy read's offset is drawn from, per die hash."""
    return _mix(hashed ^ _GAMMA)


class DiceKey:
    """The run key, drawn once from the caller's generator on first use.

    Copies of a :class:`FaultState` share one key, so re-running a window
    from a saved state replays the same dice instead of drawing anew.
    """

    __slots__ = ("_rng", "_value")

    def __init__(self, rng: np.random.Generator) -> None:
        if not isinstance(rng, np.random.Generator):
            raise AcquisitionError(
                "fault injection requires a numpy Generator as its single "
                f"seed source, got {type(rng).__name__}"
            )
        self._rng = rng
        self._value: int | None = None

    @property
    def value(self) -> int:
        if self._value is None:
            self._value = int(self._rng.integers(0, 2**64, dtype=np.uint64))
        return self._value


# The per-attribute and per-kind tallies a copy must not share.
_CARRIED = (
    "outage_remaining",
    "budget_spent",
    "last_delivered",
    "failures",
    "corruptions",
)


class FaultState:
    """Fault state carried across rows and windows, plus run counters.

    Per attribute: the outage attempts still owed, the retries spent
    against the run-wide budget, and the last value delivered (what a
    stuck sensor keeps reporting).  Run-wide: attempts, retries, failures
    and corruptions by kind, and the retry surcharge paid.
    """

    def __init__(self, schedule: FaultSchedule, key: DiceKey) -> None:
        self.schedule = schedule
        self.key = key
        self.profiles: dict[int, AttributeFaults] = {
            index: profile
            for index, profile in schedule.profiles.items()
            if not profile.is_zero
        }
        self.outage_remaining: dict[int, int] = {}
        self.budget_spent: dict[int, int] = {}
        self.last_delivered: dict[int, int] = {}
        self.attempts = 0
        self.retries_total = 0
        self.failures: dict[str, int] = {}
        self.corruptions: dict[str, int] = {}
        self.retry_cost = 0.0

    @classmethod
    def fresh(
        cls, schedule: FaultSchedule, rng: np.random.Generator
    ) -> "FaultState":
        """The state at the start of a run: nothing owed, nothing spent."""
        return cls(schedule, DiceKey(rng))

    def copy(self) -> "FaultState":
        """An independent copy sharing the schedule and the run key."""
        twin = object.__new__(type(self))
        carried = vars(twin)
        carried.update(vars(self))
        for name in _CARRIED:
            carried[name] = dict(carried[name])
        return twin

    @property
    def acquisitions_failed(self) -> int:
        """Failed attempts over the run (each retry that fails counts)."""
        return sum(self.failures.values())

    @property
    def corrupted(self) -> int:
        """Silently wrong deliveries (stuck/noise that changed the value)."""
        return sum(self.corruptions.values())

    def die(self, row: int, attribute: int, attempt: int) -> tuple[float, int]:
        """One die and its noise bits, the scalar form of :func:`fault_dice`."""
        uniform, hashed = fault_dice(self.key.value, row, attribute, attempt)
        return float(uniform[0]), int(noise_bits(hashed)[0])

    def charge(
        self, cost: float, retry_number: int, policy: RetryPolicy | None
    ) -> float:
        """Count one attempt and price it: retries pay the backoff surcharge."""
        self.attempts += 1
        if retry_number == 0:
            return cost
        assert policy is not None
        surcharge = cost * policy.backoff_multiplier(retry_number)
        self.retry_cost += surcharge
        return surcharge

    def may_retry(
        self, attribute: int, retry_number: int, policy: RetryPolicy | None
    ) -> bool:
        """May a failed attempt be retried under ``policy`` and the budget?"""
        if policy is None or retry_number >= policy.max_retries:
            return False
        budget = policy.budget_for(attribute)
        if budget is None:
            return True
        return self.budget_spent.get(attribute, 0) < budget

    def spend_retry(self, attribute: int) -> None:
        self.budget_spent[attribute] = self.budget_spent.get(attribute, 0) + 1
        self.retries_total += 1

    def roll(
        self,
        attribute: int,
        row: int,
        attempt: int,
        true_value: int,
        domain: int,
        dice: tuple[float, int] | None = None,
    ) -> tuple[int | None, str]:
        """Decide one (already charged) attempt: ``(value, "")`` or ``(None, kind)``.

        ``dice`` may carry the precomputed die for ``(row, attribute,
        attempt)``; otherwise it is computed here, and only when the
        attribute's profile is non-zero and no outage is owed.
        """
        profile = self.profiles.get(attribute)
        if profile is None:
            return true_value, ""
        remaining = self.outage_remaining.get(attribute, 0)
        if remaining > 0:
            self.outage_remaining[attribute] = remaining - 1
            return self._fail("outage")
        draw, bits = dice if dice is not None else self.die(row, attribute, attempt)
        if draw < profile.drop_rate:
            return self._fail("drop")
        draw -= profile.drop_rate
        if draw < profile.timeout_rate:
            return self._fail("timeout")
        draw -= profile.timeout_rate
        if draw < profile.outage_rate:
            # This attempt fails and starts a burst covering the next
            # outage_length - 1 attempts on the attribute as well.
            self.outage_remaining[attribute] = profile.outage_length - 1
            return self._fail("outage")
        draw -= profile.outage_rate
        if draw < profile.stuck_rate:
            # A stuck sensor keeps reporting the last delivered value;
            # with no delivery yet it reports the truth.
            value = self.last_delivered.get(attribute, true_value)
            if value != true_value:
                self._corrupt("stuck")
            self.last_delivered[attribute] = value
            return value, ""
        draw -= profile.stuck_rate
        if draw < profile.noise_rate:
            scale = profile.noise_scale
            delta = bits % (2 * scale + 1) - scale
            value = min(max(true_value + delta, 1), domain)
            if value != true_value:
                self._corrupt("noise")
            self.last_delivered[attribute] = value
            return value, ""
        self.last_delivered[attribute] = true_value
        return true_value, ""

    def _fail(self, kind: str) -> tuple[None, str]:
        self.failures[kind] = self.failures.get(kind, 0) + 1
        return None, kind

    def _corrupt(self, kind: str) -> None:
        self.corruptions[kind] = self.corruptions.get(kind, 0) + 1
