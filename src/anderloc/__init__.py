"""Localization diagnostics for quasi-1D Anderson-Bernoulli operators.

The package turns the transfer-matrix machinery of matrix-valued random
Schroedinger operators on the line into executable computations: density
certificates for the group generated by the binary transfer matrices,
a genericity check of the interaction, Lyapunov spectrum estimation,
and finite-volume spectral statistics (integrated density of states,
eigenfunction decay).
"""

__version__ = "0.1.0"

from .errors import (
    AnderlocError,
    ConfigError,
    DimensionError,
    FactorizationError,
    GridError,
    InstabilityError,
    NumericError,
    OracleRangeError,
    ScanRangeError,
    SingularMatrixError,
    SizeGuardError,
)
from .linalg import (
    as_symmetric,
    bracket,
    is_hamiltonian,
    is_symplectic,
    qr_pos,
    sp_dim,
    standard_form,
    vectorize_sp,
)
from .model import (
    DEFAULT_RHO,
    DisorderSpec,
    EnergyInterval,
    ModelParams,
    SpectralBounds,
    binary_cells,
    cell_matrix,
    certified_window,
    energy_interval,
    generator,
    generator_norm,
    path_table,
    sample_cell,
    sample_path,
    spectral_bounds,
    transfer,
    transfer_table,
)
from .furstenberg import (
    ClosureReport,
    CouplingClosure,
    DensityCertificate,
    density_certificate,
    lie_closure,
    model_closure,
    tridiagonal_witness,
)
from .lyapunov import (
    EstimatorConfig,
    LyapunovSpectrum,
    SeparabilityResult,
    exterior_log_norm,
    lyapunov_spectrum,
    qr_log_diag_sums,
    separability_scan,
)
from .spectrum import (
    BandedSymmetric,
    DecayReport,
    FiniteRestriction,
    IDSCurve,
    boundary_block,
    count_below,
    discretize,
    eigen_decay,
    estimate_ids,
    sample_restriction,
)
from .config import RunConfig, load_config, parse_config
from .seeding import derive_seed, stream
