"""Numerical laboratory for commuting symmetric operators and weighted
torus actions on real projective space.

Three strands cross-check one another: operator-level kernel
perturbation thresholds, closed-form flow limits on weighted projective
models, and independent numerical integration of the same flows.
"""

from .errors import (
    BetaOutsideSubalgebra,
    CommutationViolation,
    ConvergenceFailure,
    DependentBasis,
    DimensionMismatch,
    ExhaustedRetries,
    GmlError,
    GmlInputError,
    HorizonExceeded,
    ModelParseError,
    NonPositiveEpsilon,
    NotAFixedPoint,
    ReportIoError,
    StepTooLarge,
    UnknownCampaign,
)
from .hull import Polytope
from .model import (
    FixedComponent,
    ProjPoint,
    WeightedModel,
    certified_fraction,
    composed_limit,
    deterministic_generic_direction,
    direction_certificate,
    fixed_components,
    fixed_set_subalgebra,
    flow,
    flow_limit,
    fundamental_field,
    generic_direction,
    gradient_map,
    model_chain_threshold,
    model_chain_threshold_witness,
    moment_polytope,
    moment_polytope_check,
    orbit_hull_check,
    perturbed_limit,
    random_weighted_model,
    stabilizer_algebra,
    unstable_component,
)
from .numerics import (
    Linearization,
    Trajectory,
    gradient_fd_check,
    integrate_flow,
    linearization_at,
    monotonicity_check,
    numeric_limit,
    numeric_limit_details,
)
from .spectral import (
    CommutingFamily,
    JointSpectrum,
    KernelEqualityReport,
    Subspace,
    SymMat,
    chain_threshold,
    commutator_norm,
    delta_threshold,
    delta_threshold_witness,
    joint_diagonalize,
    kernel,
    perturbed_kernel_equality,
    random_commuting_family,
    subspace_intersection,
)

__version__ = "0.1.0"
