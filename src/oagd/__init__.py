"""Online alternating gradient descent for bilevel problems.

Library layout: `core` holds the shared domain types, `hypergrad` the
implicit-differentiation machinery and window averaging, `inner` the
follower's solver and iteration-count rules, `driver` the online loop and
its full-information benchmark, `regret` the comparator oracles and
metrics, `problems` the `Stream` protocol and the concrete round families,
and `cli` the experiment runner. `kernels` holds the numpy window reductions behind the streams'
windowed-hypergradient fast paths.
"""

__version__ = "0.1.0"

from .core import (
    DecisionPair,
    DerivedConstants,
    FeasibleSet,
    ProblemConstants,
    RoundFunctions,
    derive_constants,
    project,
)
from .driver import StepSizeSchedule, Trace, full_info_run, oagd_run
from .errors import (
    ConfigError,
    DimensionMismatch,
    EmptyDataset,
    FactorizationFailure,
    NonConvexFlag,
    NonFiniteIterate,
    OagdError,
    OracleDiverged,
    OracleUnavailable,
    ParseError,
    StreamExhausted,
)
from .hypergrad import (
    WeightWindow,
    hypergradient,
    make_weights,
    windowed_hypergradient,
)
from .inner import InnerSchedule, inner_gd, k_for_round, newton_to_tolerance
from .problems import (
    ElasticNetStream,
    HOStream,
    QuadraticStream,
    Stage,
    Stream,
    SyntheticStreamConfig,
    elastic_net_stream,
    equal_stages,
    estimate_constants,
    ho_stream,
    quadratic_round,
    quadratic_stream,
    synthesize,
)
from .regret import (
    ComparatorSeries,
    RegretReport,
    comparator_series,
    compute_report,
    h_estimate,
    inner_oracle,
    local_regret_series,
    outer_oracle,
    path_lengths,
)

__all__ = [
    "__version__",
    "ComparatorSeries",
    "ConfigError",
    "DecisionPair",
    "DerivedConstants",
    "DimensionMismatch",
    "ElasticNetStream",
    "EmptyDataset",
    "FactorizationFailure",
    "FeasibleSet",
    "HOStream",
    "InnerSchedule",
    "NonConvexFlag",
    "NonFiniteIterate",
    "OagdError",
    "OracleDiverged",
    "OracleUnavailable",
    "ParseError",
    "ProblemConstants",
    "QuadraticStream",
    "RegretReport",
    "RoundFunctions",
    "Stage",
    "StepSizeSchedule",
    "Stream",
    "StreamExhausted",
    "SyntheticStreamConfig",
    "Trace",
    "WeightWindow",
    "comparator_series",
    "compute_report",
    "derive_constants",
    "elastic_net_stream",
    "equal_stages",
    "estimate_constants",
    "full_info_run",
    "h_estimate",
    "ho_stream",
    "hypergradient",
    "inner_gd",
    "inner_oracle",
    "k_for_round",
    "local_regret_series",
    "make_weights",
    "newton_to_tolerance",
    "oagd_run",
    "outer_oracle",
    "path_lengths",
    "project",
    "quadratic_round",
    "quadratic_stream",
    "synthesize",
    "windowed_hypergradient",
]
