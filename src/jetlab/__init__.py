"""Numerical laboratory for 1D boundary-jet blow-up models.

Seven comparison models (local and Hilbert-transform velocity laws) with
adaptive RK4 evolution, the weighted-functional inequality audit for the
blow-up argument, and a degenerate elliptic strip solver with boundary-jet
extraction.

Each exported name loads its submodule on first access (PEP 562), so
``import jetlab`` loads no numpy: the CLI sets numpy's thread count first.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {  # submodule -> the names it exports
    "coefficients": ("closure_coefficient", "stream_coefficient"),
    "config": ("ExperimentConfig", "parse_config"),
    "diagnostics": (
        "CSV_COLUMNS", "DiagnosticRecord", "energy", "resolved_until", "riccati_audit",
        "symmetry_and_sign_monitor",
    ),
    "evolve": (
        "DT_UNDERFLOW", "REACHED_T_END", "SUP_CAP_HIT", "RunResult", "StepperConfig",
        "estimate_blowup_time", "run", "step_rk4",
    ),
    "grid": ("PeriodicField", "PeriodicGrid"),
    "identities": ("identity_case_names", "operator_identity_check"),
    "models": ("EvolutionState", "ModelSpec", "biot_savart", "rhs"),
    "preflight": ("ConfigError",),
    "spectral": (
        "antiderivative_zero_mean", "hilbert_transform", "spectral_derivative",
        "tail_energy_fraction",
    ),
    "strip": (
        "JetRecord", "MANUFACTURED_CASES", "ManufacturedChecks", "RankOneStripField",
        "StripField", "StripGrid", "closure_residual",
        "elliptic_residual", "elliptic_residuals", "extract_jets", "jet_relation_residual",
        "manufactured_case", "manufactured_pass", "solve_elliptic",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
