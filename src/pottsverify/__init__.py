"""Exact-enumeration verification of Griffiths-type correlation inequalities
for the generalized q-state Potts model with centered spins.

All quantities are exact rationals; there are no tolerances anywhere.
"""

from .model import (
    Configuration,
    INFINITY,
    IndexList,
    InfiniteCouplingError,
    InteractionTable,
    Model,
    ModelError,
    SpinDomain,
    build_model,
    spin_domain,
    spin_value,
)
from .enumeration import (
    EVERYWHERE,
    EventPredicate,
    NEGATIVE,
    POSITIVE,
    SumResult,
    ZERO,
    centered_power_sum,
    conjoin,
    correlation_sum,
    correlation_sums,
    delta_event,
    expectation,
    sign_event,
    uniform_correlation_sum,
)
from .gibbs import (
    all_configurations,
    config_weight,
    correlation_sum_naive,
    generalized_delta,
    gibbs_probability,
    partition_function,
    sign_class,
    spin_product,
    thermal_average,
    weighted_configurations,
)
from .symmetry import (
    SpinPermutation,
    apply_permutation,
    marginal_distribution,
)
from .contraction import (
    ContractionResult,
    IdentityCheck,
    ResolvedModel,
    check_contraction_identity,
    contract,
    resolve_infinite_couplings,
)
from .inequalities import (
    InequalityReport,
    QuadraticDecomposition,
    check_positive_covariance,
    check_positive_expectation,
    check_power_sum_gap_recursion,
    check_quadratic,
    covariance,
    power_sum_gap,
    quadratic_decomposition,
    scaled_covariance,
    uniform_scaled_covariance,
)

__version__ = "0.1.0"
