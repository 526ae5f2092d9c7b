"""Spectral Galerkin simulator and diagnostics for kicked 2D Navier-Stokes.

The library is organised around a truncated Stokes eigenbasis on an
x-periodic strip: time integration of the kicked flow, an exact tangent
linearisation with its controllability Gramian, a regularised right
inverse used as a stabilising control for trajectory coupling, and
measure-level ergodicity diagnostics for particle ensembles.
"""

__version__ = "1.0.0"

from . import _blas  # noqa: F401  (puts numpy's OpenBLAS on one thread)
from .basis import (
    DomainSpec,
    ModeIndex,
    bracket,
    eigenvalues,
    load_field,
    min_grid,
    mode_table,
    norms,
    poincare_constant,
    save_field,
    stokes_eigenvalue,
)
from .config import ExperimentConfig, load_config, parse_config
from .dynamics import (
    SolverConfig,
    Trajectory,
    energy_identity_residual,
    flow,
    nonlinearity,
    time_one_map,
)
from .errors import (
    ConfigError,
    DivergedTrajectoryError,
    InsufficientDataError,
    KickflowError,
    SqueezingViolatedError,
    TuningFailedError,
)
from .ergodicity import (
    EmpiricalEnsemble,
    TestDictionary,
    absorbing_constants,
    bl_distance_1d,
    dual_lipschitz_lower,
    ensemble_step,
    k_star,
    krylov_average,
    make_compact,
    mixing_fit,
    tail_energy,
)
from .linearization import (
    TangentOperators,
    compactness_diagnostic,
    gram_limit_check,
    linearize_kick,
)
from .noise import (
    KickPath,
    NoiseSpec,
    amplitudes,
    eval_kick,
    kick_rng,
    load_kick,
    sample_kick,
    save_kick,
    support_bound,
)
from .stabilisation import (
    ControlConfig,
    CouplingReport,
    couple,
    epsilon_check,
    phi,
    right_inverse_matrix,
    tune,
)

__all__ = [
    "__version__",
    "DomainSpec",
    "ModeIndex",
    "SolverConfig",
    "Trajectory",
    "NoiseSpec",
    "KickPath",
    "TangentOperators",
    "ControlConfig",
    "CouplingReport",
    "EmpiricalEnsemble",
    "TestDictionary",
    "ExperimentConfig",
    "KickflowError",
    "ConfigError",
    "DivergedTrajectoryError",
    "TuningFailedError",
    "SqueezingViolatedError",
    "InsufficientDataError",
    "stokes_eigenvalue",
    "mode_table",
    "eigenvalues",
    "poincare_constant",
    "norms",
    "bracket",
    "min_grid",
    "save_field",
    "load_field",
    "nonlinearity",
    "flow",
    "time_one_map",
    "energy_identity_residual",
    "amplitudes",
    "sample_kick",
    "eval_kick",
    "support_bound",
    "kick_rng",
    "save_kick",
    "load_kick",
    "linearize_kick",
    "gram_limit_check",
    "compactness_diagnostic",
    "right_inverse_matrix",
    "phi",
    "epsilon_check",
    "tune",
    "couple",
    "make_compact",
    "ensemble_step",
    "krylov_average",
    "bl_distance_1d",
    "dual_lipschitz_lower",
    "mixing_fit",
    "tail_energy",
    "absorbing_constants",
    "k_star",
    "parse_config",
    "load_config",
]
