"""Thermometry with a driven Kerr-nonlinear resonator probe.

A small numpy-only toolkit that evolves the damped Kerr resonator, certifies
thermalization through Gibbs-state fidelity, and quantifies the precision of
reservoir-temperature estimation via quantum and classical Fisher information
under homodyne and heterodyne detection.
"""

from .errors import (
    BracketBoundaryWarning,
    ConfigError,
    GridInsufficientError,
    KerrThermoError,
    NumericalFailureError,
    TailMassWarning,
    TraceDriftError,
    TruncationError,
)
from .fock import (
    DensityMatrix,
    SystemParams,
    Truncation,
    annihilation,
    as_matrix,
    creation,
    gibbs_populations,
    gibbs_state,
    hamiltonian,
    mean_photon_number,
    number_operator,
    thermal_occupation,
    vacuum_state,
)
from .dynamics import (
    TimeGrid,
    Trajectory,
    default_integrator_step,
    generator_entries,
    lindblad_rhs,
    propagate,
    purity,
    steady_state,
    steady_state_tangent,
)
from .fidelity import (
    EffTempTrace,
    default_search_max,
    effective_temperature,
    thermalization_trace,
    uhlmann_fidelity,
)
from .estimation import (
    CfiResult,
    CutoffCertificate,
    FdConfig,
    FisherSeries,
    PerturbedTrajectories,
    SldResult,
    cfi,
    certify_cutoff,
    cfi_result,
    cr_bound,
    fd_derivative,
    fd_step,
    perturbed_trajectories,
    qfi,
    qfi_series,
    stencil_combine,
    steady_state_qfi,
)
from .measurement import (
    Povm,
    cfi_series,
    coherent_state,
    heterodyne_povm,
    homodyne_povm,
    outcome_distribution,
    quadrature_op,
)
from .spectral import SpectralReport, gap_variance, spectrum

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "KerrThermoError",
    "TruncationError",
    "TraceDriftError",
    "NumericalFailureError",
    "GridInsufficientError",
    "ConfigError",
    "BracketBoundaryWarning",
    "TailMassWarning",
    # fock
    "SystemParams",
    "Truncation",
    "DensityMatrix",
    "annihilation",
    "creation",
    "number_operator",
    "hamiltonian",
    "gibbs_populations",
    "gibbs_state",
    "thermal_occupation",
    "vacuum_state",
    "mean_photon_number",
    "as_matrix",
    # dynamics
    "TimeGrid",
    "Trajectory",
    "default_integrator_step",
    "generator_entries",
    "lindblad_rhs",
    "propagate",
    "steady_state",
    "steady_state_tangent",
    "purity",
    # fidelity
    "EffTempTrace",
    "uhlmann_fidelity",
    "effective_temperature",
    "default_search_max",
    "thermalization_trace",
    # estimation
    "FdConfig",
    "SldResult",
    "FisherSeries",
    "PerturbedTrajectories",
    "fd_step",
    "stencil_combine",
    "fd_derivative",
    "qfi",
    "perturbed_trajectories",
    "qfi_series",
    "CfiResult",
    "cfi_result",
    "cfi",
    "cr_bound",
    "steady_state_qfi",
    "CutoffCertificate",
    "certify_cutoff",
    # measurement
    "Povm",
    "quadrature_op",
    "homodyne_povm",
    "coherent_state",
    "heterodyne_povm",
    "outcome_distribution",
    "cfi_series",
    # spectral
    "SpectralReport",
    "spectrum",
    "gap_variance",
]
