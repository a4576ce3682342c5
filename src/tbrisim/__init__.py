"""Thermalization of interacting fermions under a random two-body interaction.

Pipeline: enumerate the Fock basis, assemble the dense random two-body
Hamiltonian, diagonalize exactly, analyze strength functions, evolve an
initially excited basis state, and compare against the analytic
interpolation between initial and equilibrium occupations.  The names
below are the stages and records of ``tbrisim.pipeline.run``; a config
document is validated by ``tbrisim.config.config_from_dict``.
"""

from .basis import Basis, ClassPartition, build_basis, classify
from .dynamics import (
    OccupationTrajectory,
    TimeGrid,
    asymptotic_occupations,
    average_survival,
    default_grid,
    evolve_amplitudes,
    simulate_trajectory,
)
from .exceptions import (
    EigensolverError,
    FitConvergenceError,
    InsufficientStatisticsError,
    ParameterError,
    PreconditionError,
    StageError,
)
from .hamiltonian import (
    HamiltonianMatrix,
    ModelParams,
    TwoBodyTensor,
    build_hamiltonian,
    sample_spectrum,
    sample_two_body,
)
from .spectral import (
    EigenDecomposition,
    diagonalize,
    spectral_stats,
)
from .strength import (
    StrengthProfile,
    energy_variance,
    fit_bw,
    fit_hybrid,
    golden_rule_gamma,
    spreading_params,
    strength_function,
)
from .theory import (
    ThermalizationPrediction,
    fit_fermi_dirac,
    n_pc_envelope,
    predict_occupations,
    prediction_error,
    survival_models,
)

__version__ = "0.1.0"
