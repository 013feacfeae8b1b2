"""Pathwise simulation of stochastic reaction-diffusion equations with random
non-autonomous generators, and estimation of their random pullback attractors.
"""

__version__ = "0.1.0"

from .errors import (
    AlignmentError,
    ConfigurationError,
    DefinitenessError,
    NumericalError,
    OrderingError,
    ShiftRangeError,
)
from .noise import (
    NoiseSpectrum,
    WienerPath,
    restrict,
    sample_two_sided_path,
    wiener_shift,
)
from .operators import (
    DiffusionField,
    FractionalNormSpec,
    assemble_operator,
    driver_values,
    fractional_apply,
    fractional_norm,
)
from .evolution import (
    DecayFit,
    PropagatorChain,
    TimeGrid,
    apply,
    build_chain,
    chain_matrix,
    cocycle_residual,
    decay_fit,
    smoothing_estimate,
    span_grid,
)
from .pathwise import (
    NonlinearityKind,
    NonlinearitySpec,
    SemilinearProblem,
    Trajectory,
    corrector_integral,
    integrate_semilinear,
    nemytskii,
    observed_order,
)
from .ou import (
    StationaryState,
    TemperednessTable,
    construct_initial,
    propagate,
    temperedness_diagnostic,
)
from .attractor import (
    AbsorbingDiagnostics,
    EnergyReport,
    PullbackEstimate,
    absorbing_diagnostics,
    calibrate_monitor,
    cloud_diameter,
    default_ensemble,
    energy_monitor,
    hausdorff_distance,
    integrate_v,
    pullback_estimate,
    transform_consistency,
)
