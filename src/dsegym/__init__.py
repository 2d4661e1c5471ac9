"""Design-space-exploration gymnasium.

Environments wrap architecture cost models behind a gym-style step, and
one step evaluates one design point; agents (random walker, genetic
algorithm, ant colony, Bayesian optimization, policy gradient) search
their parameter spaces through one shared contract; every exchange is
logged to trajectory datasets that feed random-forest proxy cost models.
"""

from .core import (
    Observation,
    RewardSpec,
    StepResult,
    score,
)
from .spaces import (
    Categorical,
    DesignPoint,
    Numeric,
    ParameterSpace,
    cardinality,
    encode,
    encode_batch,
    sample_uniform,
)

__version__ = "0.1.0"

__all__ = [
    "Categorical",
    "DesignPoint",
    "Numeric",
    "Observation",
    "ParameterSpace",
    "RewardSpec",
    "StepResult",
    "cardinality",
    "encode",
    "encode_batch",
    "sample_uniform",
    "score",
]
