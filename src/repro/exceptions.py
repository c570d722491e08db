"""Exception hierarchy for the ``repro`` library.

Every error raised by the library derives from :class:`ReproError` so callers
can catch library failures with a single ``except`` clause while still being
able to distinguish configuration mistakes from runtime planning failures.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the library."""


class SchemaError(ReproError):
    """A schema, attribute, or domain was specified inconsistently."""


class QueryError(ReproError):
    """A query references unknown attributes or is otherwise malformed."""


class PlanError(ReproError):
    """A plan tree is structurally invalid or cannot be executed."""


class PlanVerificationError(PlanError):
    """Static verification found ERROR-severity diagnostics in a plan.

    Carries the full :class:`~repro.verify.diagnostics.VerificationReport`
    as :attr:`report` so callers can inspect codes and paths.
    """

    def __init__(self, message: str, report: object | None = None) -> None:
        super().__init__(message)
        self.report = report


class PlanningError(ReproError):
    """A planner could not produce a plan for the given inputs."""


class DistributionError(ReproError):
    """A probability model was queried outside its supported domain."""


class AcquisitionError(ReproError):
    """An acquisition source failed to produce an attribute value."""


class AcquisitionFailure(AcquisitionError):
    """A single attribute read failed at the physical layer.

    Raised by fault-injecting (and, in a real deployment, hardware-backed)
    acquisition sources when a read attempt produces no value: the reading
    was dropped, the sensor timed out, or the attribute is inside a burst
    outage.  ``kind`` is one of ``"drop"``, ``"timeout"``, ``"outage"``;
    ``attribute_index`` locates the attribute in the schema.  The energy
    for the failed attempt has already been charged when this is raised —
    failed reads are not free.
    """

    def __init__(self, kind: str, attribute_index: int) -> None:
        super().__init__(
            f"acquisition of attribute {attribute_index} failed: {kind}"
        )
        self.kind = kind
        self.attribute_index = attribute_index


class FaultConfigError(AcquisitionError):
    """A fault schedule, retry policy, or degradation policy is invalid."""


class DiscretizationError(ReproError):
    """Real-valued data could not be mapped onto a discrete domain."""


class LearningError(ReproError):
    """The online learning layer was configured or used inconsistently."""


class ServiceError(ReproError):
    """The serving layer was configured or used inconsistently."""


class ClusterError(ServiceError):
    """The sharded serving tier was configured or used inconsistently."""


class ShardUnavailableError(ClusterError):
    """A shard worker died or stopped answering within the deadline."""
