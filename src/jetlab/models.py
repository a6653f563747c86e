"""The seven 1D vorticity models: velocity laws, closure algebra, right-hand sides."""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .grid import PeriodicField, PeriodicGrid
from .spectral import composite_weights, dealias_filter, multipliers

# Velocity laws: the spectral ones are keys of spectral.multipliers, whose
# multiplier takes omega's spectrum to u's; these two act on the nodes.
LOCAL = "local"  # u = -c*omega
HALF_LINE = "half_line"  # CKY: u = -x * integral_x^X omega(y)/y dy on [0, X], 0 elsewhere

# One row per model of omega_t = -w*u*omega_x [+ u_x*omega] [+ theta_x] and
# theta_t = -u*theta_x: the velocity law, the transport weight w (None: the
# spec's a_ok), the stretching term (spectral laws only) and theta.
ModelRow = namedtuple("ModelRow", "law transport stretching theta")

MODEL_TABLE = {
    "clm": ModelRow("integrated_hilbert", 0.0, True, False),
    "de_gregorio": ModelRow("integrated_hilbert", 1.0, True, False),
    "ccf": ModelRow("hilbert", 1.0, False, False),
    "okamoto": ModelRow("integrated_hilbert", None, True, False),
    "hou_luo": ModelRow("integrated_hilbert", 1.0, False, True),
    "cky": ModelRow(HALF_LINE, 1.0, False, True),
    "q0": ModelRow(LOCAL, 1.0, False, True),
}
KINDS = tuple(MODEL_TABLE)


@dataclass(frozen=True)
class ClosureParams:
    """Normal-jet closure exponents: boundary weight m and jet slope a_jet."""

    m: int
    a_jet: float

    def __post_init__(self) -> None:
        if self.m not in (1, 2):
            raise ValueError("m must be 1 or 2")


def closure_coefficient(p: ClosureParams) -> float:
    """Local-law coefficient c = 1/(2*a_jet + m + 2) of the closed boundary system."""
    denom = 2.0 * p.a_jet + p.m + 2.0
    if denom <= 0:
        raise ValueError(
            f"positivity condition violated: 2a + m + 2 = {denom:g} must be > 0"
        )
    return 1.0 / denom


@dataclass(frozen=True)
class ModelSpec:
    """One of the seven 1D models: a velocity law paired with a dynamical equation."""

    kind: str
    a_ok: float = 1.0  # Okamoto transport weight; a_ok = 1 recovers De Gregorio
    truncation_X: Optional[float] = None
    c: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in MODEL_TABLE:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.row.law == LOCAL and not (self.c is not None and self.c > 0):
            raise ValueError("Q0 requires a coefficient c > 0")
        if self.row.law == HALF_LINE and not (
            self.truncation_X is not None and self.truncation_X > 0
        ):
            raise ValueError("CKY requires a truncation bound X > 0")

    @property
    def row(self) -> ModelRow:
        return MODEL_TABLE[self.kind]

    @property
    def has_theta(self) -> bool:
        return self.row.theta

    def check_grid(self, grid: PeriodicGrid) -> None:
        """Raise ValueError unless the velocity law can be evaluated on ``grid``."""
        if self.row.law == HALF_LINE:
            _cky_cells(grid.n_points, grid.period_L, self.truncation_X)

    @classmethod
    def clm(cls) -> "ModelSpec":
        return cls("clm")

    @classmethod
    def de_gregorio(cls) -> "ModelSpec":
        return cls("de_gregorio")

    @classmethod
    def ccf(cls) -> "ModelSpec":
        return cls("ccf")

    @classmethod
    def okamoto(cls, a_ok: float = 1.0) -> "ModelSpec":
        return cls("okamoto", a_ok=a_ok)

    @classmethod
    def hou_luo(cls) -> "ModelSpec":
        return cls("hou_luo")

    @classmethod
    def cky(cls, truncation_X: float) -> "ModelSpec":
        return cls("cky", truncation_X=truncation_X)

    @classmethod
    def q0(cls, c: float) -> "ModelSpec":
        return cls("q0", c=c)

    @classmethod
    def q0_from_closure(cls, m: int, a_jet: float = 0.0) -> "ModelSpec":
        return cls.q0(closure_coefficient(ClosureParams(m, a_jet)))


@dataclass(frozen=True)
class EvolutionState:
    """(omega, theta, t) carrier; theta is present exactly for the theta models."""

    omega: PeriodicField
    theta: Optional[PeriodicField]
    time: float

    def __post_init__(self) -> None:
        if self.theta is not None and self.theta.grid != self.omega.grid:
            raise ValueError("omega and theta must share one grid")
        if self.time < 0:
            raise ValueError("time must be >= 0")

    @property
    def grid(self) -> PeriodicGrid:
        return self.omega.grid


@dataclass(frozen=True)
class StateRate:
    """Time derivative of an EvolutionState, as raw node values."""

    d_omega: np.ndarray
    d_theta: Optional[np.ndarray]


@lru_cache(maxsize=32)
def _cky_quadrature(n: int, period_L: float, X: float):
    """Node indices and per-start weight rows for integral_x^X on [0, X]."""
    p = _cky_cells(n, period_L, X)
    idx = (n // 2 + np.arange(p + 1)) % n
    rows = np.zeros((p + 1, p + 1))
    for i in range(p):
        rows[i, i:] = composite_weights(p - i)
    return idx, rows * (period_L / n)


def _cky_cells(n: int, period_L: float, X: float) -> int:
    """Cells in [0, X]; X must be a grid node in (0, L/2], never silently misaligned."""
    p_float = X / (period_L / n)
    p = int(round(p_float))
    if abs(p_float - p) > 1e-8 * n:
        raise ValueError("CKY truncation bound must coincide with a grid node")
    if p < 2 or p > n // 2:
        raise ValueError("CKY truncation bound must lie in (0, L/2]")
    return p


def _half_line_velocity(model: ModelSpec, grid: PeriodicGrid, omega: np.ndarray) -> np.ndarray:
    idx, rows = _cky_quadrature(grid.n_points, grid.period_L, model.truncation_X)
    x = grid.dx * np.arange(idx.size)
    integrand = np.zeros(idx.size)
    integrand[1:] = omega[idx[1:]] / x[1:]
    u = np.zeros(grid.n_points)
    u[idx[1:-1]] = -x[1:-1] * (rows[1:-1] @ integrand)
    return u


_REAL_SPACE_LAWS = {
    LOCAL: lambda model, grid, omega: -model.c * omega,
    HALF_LINE: _half_line_velocity,
}


def state_rows(model: ModelSpec, s: EvolutionState) -> np.ndarray:
    """The stacked rows (omega[, theta]) of ``s``, checked against the model."""
    if model.has_theta != (s.theta is not None):
        raise ValueError("state theta presence must match the model")
    return np.stack([f.values for f in (s.omega, s.theta) if f is not None])


def _evaluate(model: ModelSpec, grid: PeriodicGrid, y: np.ndarray, dealias=False, with_rate=True):
    """u of the stacked rows ``y = (omega[, theta])`` and, ``with_rate``, their rate: one
    rfft of ``y``, then u, u_x, omega_x, theta_x back in one batched irfft."""
    row, m = model.row, multipliers(grid)
    real_law = _REAL_SPACE_LAWS.get(row.law)
    y_hat = np.fft.rfft(y) if with_rate or real_law is None else None
    spectra = [] if real_law else [y_hat[0] * m[row.law]]
    if with_rate:
        spectra += [spectra[0] * m["derivative"]] if row.stretching else []
        spectra += list(y_hat * m["derivative"])
    back = list(np.fft.irfft(np.array(spectra), n=grid.n_points)) if spectra else []
    u = real_law(model, grid, y[0]) if real_law else back.pop(0)
    if not with_rate:
        return u, None

    u_x = back.pop(0) if row.stretching else None
    product = (lambda a, b: dealias_filter(a * b)) if dealias else np.multiply
    w = model.a_ok if row.transport is None else row.transport
    rate = np.empty_like(y)
    rate[0] = -w * product(u, back[0])
    if row.stretching:
        rate[0] += product(u_x, y[0])
    if row.theta:
        rate[0] += back[1]
        rate[1] = -product(u, back[1])
    return u, rate


def biot_savart(model: ModelSpec, omega: PeriodicField) -> PeriodicField:
    """Velocity from vorticity under the model's law (see ``MODEL_TABLE``).

    Q0 is the local algebraic law u = -c*omega; CCF takes u = H(omega);
    CLM, De Gregorio, Okamoto and Hou--Luo integrate u_x = H(omega) to the
    zero-mean periodic velocity; CKY evaluates the weighted half-line
    integral on [0, X] and leaves u = 0 elsewhere.
    """
    u, _ = _evaluate(model, omega.grid, omega.values[None, :], with_rate=False)
    return PeriodicField(omega.grid, u)


def rhs(model: ModelSpec, s: EvolutionState, dealias: bool = False) -> StateRate:
    """Right-hand side of the model's dynamical equation at state ``s``.

    All x-derivatives are spectral; with ``dealias`` the 2/3-rule filter is
    applied to the nonlinear products.
    """
    _, rate = _evaluate(model, s.grid, state_rows(model, s), dealias)
    return StateRate(rate[0], rate[1] if s.theta is not None else None)


def reconstruct_rho(theta: PeriodicField) -> PeriodicField:
    """Square-root carrier sqrt(theta), clamped at 0 where theta dips below -1e-12."""
    values = theta.values
    if np.any(values < -1e-12 * max(theta.sup_norm, 1e-300)):
        raise ValueError("theta is significantly negative; no real square root")
    return PeriodicField(theta.grid, np.sqrt(np.maximum(values, 0.0)))
