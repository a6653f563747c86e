"""Numerical laboratory for 1D boundary-jet blow-up models.

Seven comparison models (local and Hilbert-transform velocity laws) with
adaptive RK4 evolution, the weighted-functional inequality audit for the
blow-up argument, and a degenerate elliptic strip solver with boundary-jet
extraction.
"""

from .config import ConfigError, ExperimentConfig, parse_config
from .diagnostics import (
    CSV_COLUMNS,
    DiagnosticRecord,
    RiccatiSample,
    energy,
    functional_F,
    functional_G,
    resolved_until,
    riccati_audit,
    strong_term,
    symmetry_and_sign_monitor,
)
from .evolve import (
    DT_UNDERFLOW,
    REACHED_T_END,
    SUP_CAP_HIT,
    RunResult,
    StepperConfig,
    estimate_blowup_time,
    run,
    step_rk4,
)
from .grid import PeriodicField, PeriodicGrid
from .identities import identity_case_names, operator_identity_check
from .models import (
    ClosureParams,
    EvolutionState,
    ModelSpec,
    StateRate,
    biot_savart,
    closure_coefficient,
    reconstruct_rho,
    rhs,
)
from .spectral import (
    antiderivative_zero_mean,
    half_period_weighted_integral,
    hilbert_transform,
    resample,
    spectral_derivative,
    tail_energy_fraction,
)
from .strip import (
    JetRecord,
    MANUFACTURED_CASES,
    StripField,
    StripGrid,
    closure_residual,
    compute_velocities,
    elliptic_residual,
    elliptic_residuals,
    extract_jets,
    jet_relation_residual,
    load_strip_field,
    manufactured_case,
    manufactured_error,
    manufactured_omega,
    save_strip_field,
    scaled_elliptic_residual,
    solve_elliptic,
)

__version__ = "0.1.0"
