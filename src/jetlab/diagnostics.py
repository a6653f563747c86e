"""Conserved/monotone functionals and the blow-up inequality audit.

Each record is computed from the stacked rows of one step of a run;
``fill_margin_fields`` writes the margin columns of a run's record table in
place, and everything else here reads its input without changing it.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .grid import PeriodicGrid, is_plus_zero, reflection_defect, sup_norm
from .models import LOCAL, ModelSpec
from .spectral import (
    half_period_integrals,
    half_period_nodes,
    is_pinned_at_zero,
    multiplier,
    tail_energy_fraction,
)

_EPS = 1e-300

#: Tail-energy fraction above which a record counts as under-resolved.
TAIL_THRESHOLD = 1e-8

#: Fewest records the Riccati audit reads: one interior record between the ends.
RICCATI_MIN_SAMPLES = 3


class DiagnosticRecord(NamedTuple):
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


#: The diagnostics.csv column order: the record's fields before its three audit inputs.
CSV_COLUMNS = DiagnosticRecord._fields[:-3]

#: A record as one row of a run's table (``RunResult.diagnostics``): a float64
#: per field, in field order, 144 bytes.
RECORD_DTYPE = np.dtype([(name, np.float64) for name in DiagnosticRecord._fields])


def diagnostic_coupling(model: ModelSpec) -> float:
    """Coupling constant used in E/F/G: the model's c for Q0, 1 otherwise."""
    return model.c if model.row.law == LOCAL else 1.0


def energy(grid: PeriodicGrid, y: np.ndarray, c: float) -> float:
    """E = integral of (u^2/2 - c*theta) of the stacked rows ``y`` =
    (omega[, theta]) with u = -c*omega, by trapezoid rule; a one-row ``y``
    has theta = +0.0 at every node.

    On a uniform periodic grid the trapezoid rule is spectrally accurate.
    """
    u = -c * y[0]
    integrand = 0.5 * u
    integrand *= u
    if len(y) > 1:  # subtracting c * (+0.0) would change no bit
        integrand -= np.multiply(c, y[1], out=u)
    return float(np.mean(integrand) * grid.period_L)


def compute_record(
    model: ModelSpec, grid: PeriodicGrid, y: np.ndarray, t: float, bkm_integral: float
) -> DiagnosticRecord:
    """The diagnostic row of the stacked rows ``y`` = (omega[, theta]) at
    time ``t``, with its audit inputs; the F-derivative margins are filled
    later.

    A theta model's one-row ``y`` has theta = +0.0 at every node, as in
    ``models.rhs``, and a theta row of +0.0s is dropped to that: such a
    theta is not transformed, and its sups, even defect, theta_x minimum,
    G and tail fraction are 0.  F and the strong term are computed only
    when omega vanishes at x = 0, G only when theta_x does; otherwise they
    carry 0 so that arbitrary exploratory data never aborts a run.
    Reflection about x = 0 and about x = L/2 coincide on the periodic grid,
    so each symmetry defect, over both symmetry points, is one number.
    """
    c = diagnostic_coupling(model)
    if len(y) > 1 and is_plus_zero(y[1]):
        y = y[:1]
    omega, zero = y[0], grid.index_of_zero
    half_idx = half_period_nodes(grid)[0]  # x in [0, L/2]
    # one transform of the stacked rows serves the tail fractions, read before
    # the spectra are differentiated in place; one inverse transform of them
    # gives omega'(0) for F and theta_x
    spectra = np.fft.rfft(y)
    tail = max(tail_energy_fraction(row, fhat) for row, fhat in zip(y, spectra))
    spectra *= multiplier(grid, "derivative")
    slopes = np.fft.irfft(spectra, n=grid.n_points)
    del spectra

    sup_omega = sup_norm(omega)
    F = strong = 0.0
    if is_pinned_at_zero(omega, sup_omega):
        inv_x, inv_x_squared = half_period_integrals(grid, omega, slopes[0][zero])
        F = c * inv_x
        strong = 0.5 * c * c * inv_x_squared
    G = even_defect = min_thetax_half = sup_theta = sup_theta_x = 0.0
    if len(y) > 1:
        theta, theta_x = y[1], slopes[1]
        sup_theta, sup_theta_x = sup_norm(theta), sup_norm(theta_x)
        even_defect = float(np.max(reflection_defect(theta, np.subtract))) / max(sup_theta, _EPS)
        min_thetax_half = float(np.min(theta_x[half_idx]))
        if is_pinned_at_zero(theta_x, sup_theta_x):
            G = c * half_period_integrals(grid, theta_x)[0]

    return DiagnosticRecord(
        t=t, E=energy(grid, y, c) if model.has_theta else 0.0, F=F, G=G,
        F_dot_measured=0.0, riccati_margin=0.0, strong_margin=0.0,
        sup_omega=sup_omega, bkm_integral=bkm_integral,
        odd_defect_omega=float(np.max(reflection_defect(omega, np.add))) / max(sup_omega, _EPS),
        even_defect_theta=even_defect,
        endpoint_omega=float(max(abs(omega[zero]), abs(omega[0]))),
        min_omega_half=float(np.min(omega[half_idx])), min_thetax_half=min_thetax_half,
        tail_energy_fraction=tail, strong_term=strong, sup_theta=sup_theta, sup_theta_x=sup_theta_x,
    )


def _three_point_slopes(t: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Derivative estimates on a possibly nonuniform time series.

    Interior points use the 3-point formula exact for quadratics; the ends
    fall back to one-sided slopes so every sample gets a finite value.
    """
    h, d = np.diff(t), np.diff(y)
    hl, hr = h[:-1], h[1:]
    dy = np.empty(t.size)
    dy[0], dy[-1] = d[0] / h[0], d[-1] / h[-1]
    # the interior (hl/hr * d[1:] + hr/hl * d[:-1]) / (hl + hr), in that order
    # and in place: a run's memory peaks here, over its record table, so one
    # temporary series is made beside h, d and dy
    mid = np.divide(hl, hr, out=dy[1:-1])
    mid *= d[1:]
    d[:-1] *= hr / hl
    mid += d[:-1]
    mid /= np.add(hl, hr, out=d[:-1])
    return dy


#: A row of ``riccati_audit``: the audited inequalities at one interior record.
#: riccati_margin is F_dot - F^2/L, strong_margin F_dot - (c^2/2) int omega^2/x^2,
#: cauchy_lhs F^2 and cauchy_rhs c^2 (L/2) int omega^2/x^2.
RICCATI_DTYPE = np.dtype([
    (name, np.float64)
    for name in ("t", "F", "F_dot", "riccati_margin", "strong_margin", "cauchy_lhs", "cauchy_rhs")
])


def riccati_audit(run) -> np.recarray:
    """Margins of the blow-up inequality chain at the interior records of a run,
    one ``RICCATI_DTYPE`` row per record.

    Read from the record table: dF/dt and both margins are the columns
    fill_margin_fields derived from the recorded F series, and the strong
    term was recorded with the same quadrature as F itself, which makes the
    Cauchy--Schwarz comparison an exact weighted-sum inequality.  The
    records hold the strong term at the run's own coupling c.
    """
    table = run.diagnostics
    if len(table) < RICCATI_MIN_SAMPLES:
        raise ValueError(f"riccati audit needs at least {RICCATI_MIN_SAMPLES} diagnostic samples")
    interior = table[1:-1]
    rows = np.empty(len(interior), RICCATI_DTYPE).view(np.recarray)
    rows.t, rows.F, rows.F_dot = interior.t, interior.F, interior.F_dot_measured
    rows.riccati_margin, rows.strong_margin = interior.riccati_margin, interior.strong_margin
    rows.cauchy_lhs = np.float_power(interior.F, 2.0)  # libm's pow, as a float's ** rounds
    rows.cauchy_rhs = run.period_L * interior.strong_term  # c^2 (L/2) int = L * strong term
    return rows


def fill_margin_fields(table: np.recarray, L: float) -> None:
    """Fill the F_dot_measured and both margin columns in place on the record
    table of a run of period ``L``, by centered differences of its F column."""
    if len(table) < 2:
        return
    F_dot = _three_point_slopes(table.t, table.F)
    table.F_dot_measured = F_dot
    # float_power squares with libm's pow, as a float's ** does for the audit's
    # cauchy_lhs; F * F, which an array's ** 2 computes, rounds differently in
    # about 0.1% of values
    table.riccati_margin = F_dot - np.float_power(table.F, 2.0) / L
    table.strong_margin = F_dot - table.strong_term


def resolved_until(table: np.recarray) -> float:
    """Time of the first record whose tail fraction exceeds TAIL_THRESHOLD;
    +inf if the run stays resolved.  A nan fraction exceeds nothing."""
    over = np.flatnonzero(table.tail_energy_fraction > TAIL_THRESHOLD)
    return float(table.t[over[0]]) if over.size else float("inf")
