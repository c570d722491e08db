"""repro — conditional query plans for acquisitional query processing.

A from-scratch reproduction of Deshpande, Guestrin, Hong, and Madden,
*Exploiting Correlated Attributes in Acquisitional Query Processing*
(ICDE 2005).

The library's flow mirrors the paper's architecture (Section 2.5):

1. Build a :class:`~repro.core.Schema` describing attributes, their
   discretized domains, and their acquisition costs.
2. Fit a probability model on historical data —
   :class:`~repro.probability.EmpiricalDistribution` (raw counting) or
   :class:`~repro.probability.ChowLiuDistribution` (tree graphical model).
3. Plan a :class:`~repro.core.ConjunctiveQuery` with one of the planners:
   :class:`~repro.planning.NaivePlanner`,
   :class:`~repro.planning.GreedySequentialPlanner`,
   :class:`~repro.planning.OptimalSequentialPlanner`,
   :class:`~repro.planning.ExhaustivePlanner` (optimal conditional plans),
   or :class:`~repro.planning.GreedyConditionalPlanner` (the Heuristic-k
   algorithm).
4. Execute the plan — per tuple with
   :class:`~repro.execution.PlanExecutor`, over a dataset with
   :func:`~repro.core.dataset_execution`, or in the
   :class:`~repro.execution.SensorNetworkSimulator`.

See ``examples/quickstart.py`` for a complete end-to-end walk-through.
"""

from repro.core import (
    AcquisitionCostModel,
    And,
    Attribute,
    BoardAwareCostModel,
    BooleanQuery,
    ConditionNode,
    ConjunctiveQuery,
    DatasetExecution,
    Formula,
    Leaf,
    Or,
    ExistentialQuery,
    LimitQuery,
    NotRangePredicate,
    PlanNode,
    Predicate,
    Range,
    RangePredicate,
    RangeVector,
    Schema,
    SchemaCostModel,
    SequentialNode,
    SequentialStep,
    Truth,
    VerdictLeaf,
    combined_objective,
    dataset_execution,
    empirical_cost,
    expected_cost,
    validate_plan,
    plan_from_dict,
    simplify_plan,
)
from repro.exceptions import (
    AcquisitionError,
    AcquisitionFailure,
    DiscretizationError,
    DistributionError,
    FaultConfigError,
    LearningError,
    PlanError,
    PlanningError,
    PlanVerificationError,
    QueryError,
    ReproError,
    SchemaError,
    ServiceError,
)
from repro.learn import (
    BanditPlanner,
    BanditStateStore,
    LearnedStreamExecutor,
    OrderBanditEnsemble,
    RegretLedger,
)
from repro.faults import (
    AttributeFaults,
    DegradationMode,
    FaultInjector,
    FaultPolicy,
    FaultSchedule,
    FaultTolerantExecutor,
    RetryPolicy,
)
from repro.execution import (
    AdaptiveStreamExecutor,
    ReplanEvent,
    ByteCodeInterpreter,
    compile_plan,
    decompile_plan,
    Mote,
    PlanExecutor,
    SensorBoardSource,
    SensorNetworkSimulator,
    StreamReport,
    TupleSource,
)
from repro.planning import (
    CorrSeqPlanner,
    SizeAwareConditionalPlanner,
    ExhaustivePlanner,
    GreedyConditionalPlanner,
    GreedySequentialPlanner,
    NaivePlanner,
    OptimalSequentialPlanner,
    PlanningResult,
    SplitPointPolicy,
)
from repro.engine import AcquisitionalEngine, parse_query
from repro.service import (
    AcquisitionalService,
    PlanCache,
    QueryFingerprint,
    fingerprint_statement,
)
from repro.probability import (
    ChowLiuDistribution,
    EmpiricalDistribution,
    IndependenceDistribution,
)
from repro.obs import (
    DriftMonitor,
    DriftReport,
    PlanProfile,
    Tracer,
    render_prometheus,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "Attribute",
    "Schema",
    "Range",
    "RangeVector",
    "Truth",
    "Predicate",
    "RangePredicate",
    "NotRangePredicate",
    "ConjunctiveQuery",
    "BooleanQuery",
    "Formula",
    "Leaf",
    "And",
    "Or",
    "ExistentialQuery",
    "LimitQuery",
    "PlanNode",
    "VerdictLeaf",
    "SequentialNode",
    "SequentialStep",
    "ConditionNode",
    "plan_from_dict",
    "simplify_plan",
    "validate_plan",
    "dataset_execution",
    "empirical_cost",
    "expected_cost",
    "combined_objective",
    "DatasetExecution",
    "AcquisitionCostModel",
    "SchemaCostModel",
    "BoardAwareCostModel",
    # probability
    "EmpiricalDistribution",
    "ChowLiuDistribution",
    "IndependenceDistribution",
    # planning
    "NaivePlanner",
    "GreedySequentialPlanner",
    "OptimalSequentialPlanner",
    "CorrSeqPlanner",
    "ExhaustivePlanner",
    "GreedyConditionalPlanner",
    "SizeAwareConditionalPlanner",
    "SplitPointPolicy",
    "PlanningResult",
    # execution
    "PlanExecutor",
    "compile_plan",
    "decompile_plan",
    "ByteCodeInterpreter",
    "TupleSource",
    "SensorBoardSource",
    "Mote",
    "SensorNetworkSimulator",
    "AdaptiveStreamExecutor",
    "ReplanEvent",
    "StreamReport",
    # faults
    "AttributeFaults",
    "FaultSchedule",
    "FaultInjector",
    "RetryPolicy",
    "DegradationMode",
    "FaultPolicy",
    "FaultTolerantExecutor",
    # engine
    "AcquisitionalEngine",
    "parse_query",
    # service
    "AcquisitionalService",
    "PlanCache",
    "QueryFingerprint",
    "fingerprint_statement",
    # learning
    "BanditPlanner",
    "BanditStateStore",
    "LearnedStreamExecutor",
    "OrderBanditEnsemble",
    "RegretLedger",
    # observability
    "PlanProfile",
    "DriftMonitor",
    "DriftReport",
    "Tracer",
    "render_prometheus",
    # exceptions
    "ReproError",
    "SchemaError",
    "QueryError",
    "PlanError",
    "PlanningError",
    "PlanVerificationError",
    "DistributionError",
    "AcquisitionError",
    "AcquisitionFailure",
    "FaultConfigError",
    "DiscretizationError",
    "LearningError",
    "ServiceError",
]
