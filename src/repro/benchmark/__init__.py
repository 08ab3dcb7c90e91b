"""The multi-query benchmark kit of §4: DBtapestry, ρ/δ, profiles, runner."""

from repro.benchmark.distributions import (
    DISTRIBUTIONS,
    exponential,
    get_distribution,
    linear,
    logarithmic,
)
from repro.benchmark.profiles import (
    MQS,
    PROFILE_HIKING,
    PROFILE_HOMERUN,
    PROFILE_STROLLING,
    PROFILES,
    RangeQuery,
    hiking_sequence,
    homerun_sequence,
    strolling_sequence,
)
from repro.benchmark.runner import (
    SequenceResult,
    StepMetrics,
    run_sequence,
)
from repro.benchmark.tapestry import DBtapestry, column_names

__all__ = [
    "DBtapestry",
    "DISTRIBUTIONS",
    "MQS",
    "PROFILES",
    "PROFILE_HIKING",
    "PROFILE_HOMERUN",
    "PROFILE_STROLLING",
    "RangeQuery",
    "SequenceResult",
    "StepMetrics",
    "column_names",
    "exponential",
    "get_distribution",
    "hiking_sequence",
    "homerun_sequence",
    "linear",
    "logarithmic",
    "run_sequence",
    "strolling_sequence",
]
