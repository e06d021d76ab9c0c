"""rangelab: a computational laboratory for range statistics of planar
lattice random walks.

The package computes exact return/visit tables for symmetric step laws,
counts distinct sites along sampled walks, checks the combinatorial
decompositions that drive second-moment arguments, evaluates smoothed
occupation functionals, and runs Monte Carlo probes of the upper and
lower tails of the centered range, including the variational constant
from the planar Gagliardo-Nirenberg problem.
"""

from .errors import IdentityCheckFailure, InvalidConfig, ResourceLimit
from .experiments import (
    ExperimentConfig,
    load_config,
    run_experiment,
    run_report,
)
from .exact import (
    ReturnProbTable,
    build_return_table,
    enumeration_oracle,
    expected_range_asymptotic,
    local_clt_check,
    return_prob_exact,
    return_probs_dp,
)
from .walks import (
    BUILTIN_NAMES,
    PoissonizedPath,
    StepDistribution,
    WalkPath,
    builtin_distribution,
    distribution_from_config,
    sample_path,
    sample_poissonized,
    validate_distribution,
)

__version__ = "0.1.0"

__all__ = [
    "BUILTIN_NAMES",
    "ExperimentConfig",
    "IdentityCheckFailure",
    "InvalidConfig",
    "PoissonizedPath",
    "ResourceLimit",
    "ReturnProbTable",
    "StepDistribution",
    "WalkPath",
    "build_return_table",
    "builtin_distribution",
    "distribution_from_config",
    "enumeration_oracle",
    "expected_range_asymptotic",
    "load_config",
    "local_clt_check",
    "return_prob_exact",
    "return_probs_dp",
    "run_experiment",
    "run_report",
    "sample_path",
    "sample_poissonized",
    "validate_distribution",
    "__version__",
]
