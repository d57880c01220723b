"""Entropic and Hilbert-Schmidt geometric quantum discord of bipartite states
under one-sided and two-sided projective measurements."""

from .errors import (
    DimensionMismatchError,
    DiscordError,
    DomainError,
    InvalidDistributionError,
    NonHermitianError,
    NonUnitTraceError,
    NotPositiveSemidefiniteError,
    NotUnitVectorError,
    NumericalResidueError,
    StateFormatError,
)
from .states import (
    BipartiteState,
    DensityMatrix,
    TwoQubitBloch,
    bell_state,
    classical_classical,
    from_bloch,
    isotropic,
    make_bipartite,
    partial_trace,
    purity,
    random_state,
    tensor,
    to_bloch,
    werner,
)
from .measurement import (
    OrthonormalBasis,
    ProductMeasurement,
    bloch_basis,
    computational_basis,
    dephase_one_sided,
    dephase_two_sided,
    diagonal_distribution,
)
from .entropic import (
    discord_one_sided,
    discord_two_sided,
    entropy,
    loss_split,
    measured_loss_two_sided,
    mutual_information,
)
from .geometric import (
    CorrelationData,
    GeoResult,
    HermitianOperatorBasis,
    correlation_matrix,
    dephased_purity,
    geo_discord_one_sided,
    geo_discord_two_sided,
    hermitian_operator_basis,
    hs_distance_sq,
    isotropic_geo_closed,
    lower_bound_one_sided,
    lower_bound_two_sided,
    measurement_matrix,
    objective27,
    two_qubit_geo,
    two_qubit_geo_objective,
    werner_geo_closed,
)
from .optimize import (
    DiscordValue,
    OptimizationResult,
    OptimizerConfig,
    alternating_sphere_max,
    sphere_grid_oracle,
)
from .serialize import load_state, save_state, state_from_dict, state_to_dict

__version__ = "0.1.0"
