"""The acquisition fault model: what can go wrong with a physical read.

The paper's premise is that attributes are *acquired* from flaky physical
sources — TinyDB motes lose readings, time out, and return stuck values.
This module describes those failure modes declaratively so they can be
injected deterministically (:mod:`repro.faults.state` rolls them as
row-keyed dice), replayed from the CLI (``repro chaos``), and reasoned about by tests.

Per attribute, five failure modes are modelled:

- **drop** — the reading is lost in transit; the attempt fails.
- **timeout** — the sensor never answers; the attempt fails.
- **outage** — a burst failure: once an outage starts, every attempt on
  the attribute fails for the next ``outage_length`` attempts (spanning
  tuples), modelling a dead sensor board or a partitioned node.
- **stuck** — the read "succeeds" but returns the last value the sensor
  ever delivered (stuck-at-last), silently corrupting the tuple.
- **noise** — the read succeeds but the value is perturbed by a bounded
  integer offset, clamped to the attribute's domain.

Rates are per-attempt probabilities and must sum to at most 1 for one
attribute.  A schedule with every rate zero is exactly the fault-free
backend — the property tests rely on that identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Iterator, Mapping

from repro.core.attributes import Schema
from repro.exceptions import FaultConfigError

__all__ = ["FAULT_KINDS", "AttributeFaults", "FaultSchedule"]

# The failure-mode vocabulary; injector counters are keyed by these names.
FAULT_KINDS = ("drop", "timeout", "outage", "stuck", "noise")

_RATE_FIELDS = ("drop_rate", "timeout_rate", "outage_rate", "stuck_rate", "noise_rate")


@dataclass(frozen=True)
class AttributeFaults:
    """Per-attribute failure-mode rates.

    ``outage_rate`` is the probability an attempt *starts* a burst outage
    of ``outage_length`` attempts; ``noise_scale`` bounds the absolute
    integer perturbation a noisy read applies.
    """

    drop_rate: float = 0.0
    timeout_rate: float = 0.0
    outage_rate: float = 0.0
    stuck_rate: float = 0.0
    noise_rate: float = 0.0
    outage_length: int = 4
    noise_scale: int = 1

    def __post_init__(self) -> None:
        total = 0.0
        for name in _RATE_FIELDS:
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise FaultConfigError(
                    f"{name} must lie in [0, 1], got {rate}"
                )
            total += rate
        if total > 1.0 + 1e-12:
            raise FaultConfigError(
                f"fault rates must sum to <= 1 per attribute, got {total}"
            )
        if self.outage_length < 1:
            raise FaultConfigError(
                f"outage_length must be >= 1, got {self.outage_length}"
            )
        if self.noise_scale < 1:
            raise FaultConfigError(
                f"noise_scale must be >= 1, got {self.noise_scale}"
            )

    @property
    def failure_rate(self) -> float:
        """Probability an attempt produces *no* value (drop/timeout/outage)."""
        return self.drop_rate + self.timeout_rate + self.outage_rate

    @property
    def is_zero(self) -> bool:
        """True when this profile injects nothing at all."""
        return all(getattr(self, name) == 0.0 for name in _RATE_FIELDS)

    def as_dict(self) -> dict[str, Any]:
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if getattr(self, f.name) != f.default
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "AttributeFaults":
        known = {f.name for f in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise FaultConfigError(
                f"unknown fault fields {sorted(unknown)}; "
                f"expected a subset of {sorted(known)}"
            )
        return cls(**dict(payload))


@dataclass(frozen=True)
class FaultSchedule:
    """A complete fault configuration: one profile per faulty attribute.

    Attributes absent from ``profiles`` are fault-free.  The schedule
    carries *no* randomness of its own — determinism flows from the single
    ``rng`` the run key is drawn from (:class:`~repro.faults.state.DiceKey`),
    so the same (schedule, seed, plan, data) quadruple replays the exact
    same fault sequence in CI and in ``repro chaos --seed``.
    """

    profiles: Mapping[int, AttributeFaults] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for index in self.profiles:
            if not isinstance(index, int) or index < 0:
                raise FaultConfigError(
                    f"fault schedule keys must be attribute indices >= 0, "
                    f"got {index!r}"
                )
        object.__setattr__(self, "profiles", dict(self.profiles))

    def __iter__(self) -> Iterator[int]:
        return iter(self.profiles)

    def for_index(self, attribute_index: int) -> AttributeFaults | None:
        """The profile injected on ``attribute_index`` (None = fault-free)."""
        return self.profiles.get(attribute_index)

    @property
    def is_zero(self) -> bool:
        """True when no attribute injects anything (the identity schedule)."""
        return all(profile.is_zero for profile in self.profiles.values())

    def validated(self, schema: Schema) -> "FaultSchedule":
        """This schedule, after checking every index fits ``schema``."""
        for index in self.profiles:
            if index >= len(schema):
                raise FaultConfigError(
                    f"fault schedule names attribute index {index}, but the "
                    f"schema has only {len(schema)} attributes"
                )
        return self

    @classmethod
    def zero(cls) -> "FaultSchedule":
        """The identity schedule: inject nothing anywhere."""
        return cls(profiles={})

    @classmethod
    def uniform(cls, schema: Schema, **rates: float | int) -> "FaultSchedule":
        """One identical profile on every attribute of ``schema``."""
        profile = AttributeFaults(**rates)  # type: ignore[arg-type]
        return cls(profiles={index: profile for index in range(len(schema))})

    def to_dict(self, schema: Schema) -> dict[str, Any]:
        """JSON-friendly form keyed by attribute *name* (the CLI format)."""
        self.validated(schema)
        return {
            "faults": {
                schema[index].name: profile.as_dict()
                for index, profile in sorted(self.profiles.items())
            }
        }

    @classmethod
    def from_dict(
        cls, payload: Mapping[str, Any], schema: Schema
    ) -> "FaultSchedule":
        """Parse the ``repro chaos --schedule`` JSON format."""
        entries = payload.get("faults")
        if not isinstance(entries, Mapping):
            raise FaultConfigError(
                'fault schedule JSON must carry a "faults" object keyed by '
                "attribute name"
            )
        profiles: dict[int, AttributeFaults] = {}
        for name, spec in entries.items():
            if name not in schema:
                raise FaultConfigError(
                    f"fault schedule names unknown attribute {name!r}"
                )
            profiles[schema.index_of(name)] = AttributeFaults.from_dict(spec)
        return cls(profiles=profiles)
