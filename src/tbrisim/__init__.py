"""Thermalization of interacting fermions under a random two-body interaction.

Pipeline: enumerate the Fock basis, assemble the dense random two-body
Hamiltonian, diagonalize exactly, analyze strength functions, evolve an
initially excited basis state, and compare against the analytic
interpolation between initial and equilibrium occupations.  The names
below are the ones README's "Library use" runs and documents, and the
exceptions every stage raises; the records and the other stages are read
from their modules.  ``tbrisim.pipeline.run`` runs a whole config, and a
config document is validated by ``tbrisim.config.config_from_dict``.
"""

from .basis import build_basis, classify
from .dynamics import (
    TimeGrid,
    asymptotic_occupations,
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
    ModelParams,
    build_hamiltonian,
    sample_spectrum,
    sample_two_body,
)
from .spectral import diagonalize
from .strength import energy_variance, golden_rule_gamma
from .theory import predict_occupations, prediction_error, survival_models

__version__ = "0.1.0"
