"""Conserved/monotone functionals and the blow-up inequality audit.

Everything here is a pure function of immutable run data; post-processing
many runs concurrently is safe.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import List, Optional, Sequence

import numpy as np

from .grid import PeriodicField, reflect_values
from .models import LOCAL, EvolutionState, ModelSpec
from .spectral import (
    half_period_integrals,
    half_period_nodes,
    is_pinned_at_zero,
    multipliers,
    spectral_derivative,
    tail_energy_fraction,
)

_EPS = 1e-300

#: Fixed CSV column order for DiagnosticRecord serialization.
CSV_COLUMNS = (
    "t",
    "E",
    "F",
    "G",
    "F_dot_measured",
    "riccati_margin",
    "strong_margin",
    "sup_omega",
    "bkm_integral",
    "odd_defect_omega",
    "even_defect_theta",
    "endpoint_omega",
    "min_omega_half",
    "min_thetax_half",
    "tail_energy_fraction",
)


@dataclass
class DiagnosticRecord:
    t: float
    E: float
    F: float
    G: float
    F_dot_measured: float
    riccati_margin: float
    strong_margin: float
    sup_omega: float
    bkm_integral: float
    odd_defect_omega: float
    even_defect_theta: float
    endpoint_omega: float
    min_omega_half: float
    min_thetax_half: float
    tail_energy_fraction: float
    # audit inputs, not CSV columns: the strong term (0 while omega(0) is
    # unpinned), sup|theta| and sup|theta_x| (0 without theta)
    strong_term: float
    sup_theta: float
    sup_theta_x: float

    def to_csv_row(self) -> str:
        return ",".join(repr(getattr(self, name)) for name in CSV_COLUMNS)


assert tuple(f.name for f in fields(DiagnosticRecord))[: len(CSV_COLUMNS)] == CSV_COLUMNS


def diagnostic_coupling(model: ModelSpec) -> float:
    """Coupling constant used in E/F/G: the model's c for Q0, 1 otherwise."""
    return model.c if model.row.law == LOCAL else 1.0


def energy(s: EvolutionState, c: float) -> float:
    """E = integral of (u^2/2 - c*theta) with u = -c*omega, by trapezoid rule.

    On a uniform periodic grid the trapezoid rule is spectrally accurate.
    """
    if s.theta is None:
        raise ValueError("model has no theta")
    u = -c * s.omega.values
    integrand = 0.5 * u * u - c * s.theta.values
    return float(np.mean(integrand) * s.grid.period_L)


def functional_F(omega: PeriodicField, c: float) -> float:
    """F = c * integral_0^{L/2} omega(x)/x dx."""
    return c * half_period_integrals(omega)[0]


def functional_G(theta: PeriodicField, c: float) -> float:
    """G = c * integral_0^{L/2} theta_x(x)/x dx with theta_x spectral."""
    return c * half_period_integrals(spectral_derivative(theta))[0]


def strong_term(omega: PeriodicField, c: float) -> float:
    """(c^2/2) * integral_0^{L/2} omega^2/x^2 dx, the lower bound on dF/dt."""
    return 0.5 * c * c * half_period_integrals(omega)[1]


def symmetry_and_sign_monitor(s: EvolutionState, theta_x: Optional[PeriodicField]) -> dict:
    """Odd/even defects, endpoint pinning, half-period minima and the theta
    scales sup|theta| and sup|theta_x| (0 without theta) for a state.

    Reflection about x = 0 and about x = L/2 coincide on the periodic grid,
    so the "combined over both symmetry points" defect is a single number.
    ``theta_x`` is the spectral derivative of ``s.theta``, None without theta.
    """
    grid = s.grid
    omega = s.omega.values
    sup_omega = max(float(np.max(np.abs(omega))), _EPS)
    odd_defect = float(np.max(np.abs(omega + reflect_values(omega)))) / sup_omega
    endpoint = max(abs(omega[grid.index_of_zero]), abs(omega[0]))

    half_idx = half_period_nodes(grid)[0]  # x in [0, L/2]
    min_omega_half = float(np.min(omega[half_idx]))

    even_defect = min_thetax_half = sup_theta = sup_theta_x = 0.0
    if s.theta is not None:
        theta = s.theta.values
        sup_theta, sup_theta_x = s.theta.sup_norm, theta_x.sup_norm
        even_defect = float(np.max(np.abs(theta - reflect_values(theta)))) / max(sup_theta, _EPS)
        min_thetax_half = float(np.min(theta_x.values[half_idx]))

    return {
        "odd_defect_omega": odd_defect,
        "even_defect_theta": even_defect,
        "endpoint_omega": float(endpoint),
        "min_omega_half": min_omega_half,
        "min_thetax_half": min_thetax_half,
        "sup_theta": sup_theta,
        "sup_theta_x": sup_theta_x,
    }


def compute_record(
    model: ModelSpec, s: EvolutionState, bkm_integral: float
) -> DiagnosticRecord:
    """Instantaneous diagnostic row with its audit inputs; the F-derivative
    margins are filled later.

    F and the strong term are computed only when omega vanishes at x = 0, G
    only when theta_x does; otherwise they carry 0 so that arbitrary
    exploratory data never aborts a run.
    """
    c = diagnostic_coupling(model)
    grid = s.grid
    fields = [s.omega] if s.theta is None else [s.omega, s.theta]
    # one transform of the stacked rows serves the tail fractions, and one
    # inverse transform gives omega'(0) for F and theta_x
    spectra = np.fft.rfft(np.array([f.values for f in fields]))
    slopes = np.fft.irfft(spectra * multipliers(grid)["derivative"], n=grid.n_points)
    theta_x = PeriodicField(grid, slopes[1]) if s.theta is not None else None
    monitor = symmetry_and_sign_monitor(s, theta_x)

    F = strong = 0.0
    if is_pinned_at_zero(s.omega):
        inv_x, inv_x_squared = half_period_integrals(s.omega, slopes[0][grid.index_of_zero])
        F = c * inv_x
        strong = 0.5 * c * c * inv_x_squared
    E = energy(s, c) if s.theta is not None else 0.0
    G = 0.0
    if theta_x is not None and is_pinned_at_zero(theta_x):
        G = c * half_period_integrals(theta_x)[0]

    tail = max(tail_energy_fraction(f, fhat) for f, fhat in zip(fields, spectra))

    return DiagnosticRecord(
        t=s.time,
        E=E,
        F=F,
        G=G,
        F_dot_measured=0.0,
        riccati_margin=0.0,
        strong_margin=0.0,
        sup_omega=s.omega.sup_norm,
        bkm_integral=bkm_integral,
        tail_energy_fraction=tail,
        strong_term=strong,
        **monitor,
    )


def _three_point_slopes(t: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Derivative estimates on a possibly nonuniform time series.

    Interior points use the 3-point formula exact for quadratics; the ends
    fall back to one-sided slopes so every sample gets a finite value.
    """
    m = t.size
    dy = np.empty(m)
    dy[0] = (y[1] - y[0]) / (t[1] - t[0])
    dy[-1] = (y[-1] - y[-2]) / (t[-1] - t[-2])
    for i in range(1, m - 1):
        hl = t[i] - t[i - 1]
        hr = t[i + 1] - t[i]
        dy[i] = (hl / hr * (y[i + 1] - y[i]) + hr / hl * (y[i] - y[i - 1])) / (hl + hr)
    return dy


@dataclass(frozen=True)
class RiccatiSample:
    """Audited inequalities at one interior diagnostic sample."""

    t: float
    F: float
    F_dot: float
    riccati_margin: float  # F_dot - F^2/L
    strong_margin: float  # F_dot - (c^2/2) int omega^2/x^2
    cauchy_lhs: float  # F^2
    cauchy_rhs: float  # c^2 (L/2) int omega^2/x^2


def riccati_audit(run) -> List[RiccatiSample]:
    """Margins of the blow-up inequality chain at the interior records of a run.

    A view over the records: dF/dt and both margins are the ones
    fill_margin_fields derived from the recorded F series, and the strong
    term was recorded with the same quadrature as F itself, which makes the
    Cauchy--Schwarz comparison an exact weighted-sum inequality.  The
    records hold the strong term at the run's own coupling c.
    """
    records = run.diagnostics
    if len(records) < 3:
        raise ValueError("riccati audit needs at least 3 diagnostic samples")
    return [
        RiccatiSample(
            t=r.t,
            F=r.F,
            F_dot=r.F_dot_measured,
            riccati_margin=r.riccati_margin,
            strong_margin=r.strong_margin,
            cauchy_lhs=r.F**2,
            cauchy_rhs=run.period_L * r.strong_term,  # c^2 (L/2) int = L * strong term
        )
        for r in records[1:-1]
    ]


def fill_margin_fields(records: Sequence[DiagnosticRecord], L: float) -> None:
    """Populate F_dot_measured and both margins in-place on the rows of a run
    of period ``L``, by centered differences of the recorded F series."""
    if len(records) < 2:
        return
    t = np.array([r.t for r in records])
    F = np.array([r.F for r in records])
    F_dot = _three_point_slopes(t, F)
    for i, r in enumerate(records):
        r.F_dot_measured = float(F_dot[i])
        r.riccati_margin = float(F_dot[i] - F[i] ** 2 / L)
        r.strong_margin = float(F_dot[i] - r.strong_term)


def resolved_until(records: Sequence[DiagnosticRecord], threshold: float = 1e-8) -> float:
    """Time of the first tail-energy violation; +inf if the run stays resolved."""
    for r in records:
        if r.tail_energy_fraction > threshold:
            return r.t
    return float("inf")
