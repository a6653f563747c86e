"""The seven 1D vorticity models: velocity laws, closure algebra, right-hand sides."""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .grid import PeriodicField, PeriodicGrid
from .spectral import dealias_filter, multipliers

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


def _cky_cells(n: int, period_L: float, X: float) -> int:
    """Cells in [0, X]; X must be a grid node in (0, L/2], never silently misaligned."""
    p_float = X / (period_L / n)
    if not np.isfinite(p_float):
        raise ValueError("CKY truncation bound must lie in (0, L/2]")
    p = int(round(p_float))
    if abs(p_float - p) > 1e-8 * n:
        raise ValueError("CKY truncation bound must coincide with a grid node")
    if p < 2 or p > n // 2:
        raise ValueError("CKY truncation bound must lie in (0, L/2]")
    return p


def state_rows(model: ModelSpec, s: EvolutionState) -> np.ndarray:
    """The stacked rows (omega[, theta]) of ``s``, checked against the model."""
    if model.has_theta != (s.theta is not None):
        raise ValueError("state theta presence must match the model")
    return np.stack([f.values for f in (s.omega, s.theta) if f is not None])


class KernelPlan:
    """One model's velocity law and rate on one grid, planned once per run.

    The plan holds the model row's multipliers and transport weight and, for
    CKY, the validated half-line node arrays, so an evaluation only computes.
    A rate costs one rfft of the stacked rows ``y = (omega[, theta])`` and
    one batched irfft of u, u_x, omega_x and theta_x; with ``dealias``,
    ``dealias_filter`` filters all nonlinear products in one more pair.

    A one-row ``y`` of a theta model stands for theta = +0.0 at every node,
    which theta_t = -u*theta_x keeps exactly (each stage adds coef*(+-0.0) to
    +0.0).  Its rate is omega's row alone, with ``+ 0.0`` where theta_x was
    added, so omega's rate keeps the sign of zero the two-row rate gives.
    ``evolve.run`` steps such rows; ``rhs``, ``step_rk4`` and ``biot_savart``
    always pass the full rows.
    """

    def __init__(self, model: ModelSpec, grid: PeriodicGrid, dealias: bool = False):
        row, n = model.row, grid.n_points
        m = multipliers(grid)
        self.grid, self._dealias = grid, dealias
        self._multiplier = m.get(row.law)  # u's spectrum from omega's; None for the real-space laws
        self._derivative = m["derivative"]
        self._stretching, self._theta = row.stretching, row.theta
        self._weight = -(model.a_ok if row.transport is None else row.transport)
        # the spectra of [u,] [u_x,] and the rows' derivatives, back in one batched irfft
        self._n_velocity = (self._multiplier is not None) + row.stretching
        self._real_law = self._REAL_SPACE_LAWS.get(row.law)  # unbound: no reference cycle
        if row.law == LOCAL:
            self._minus_c = -model.c
        elif row.law == HALF_LINE:
            self._plan_half_line(_cky_cells(n, grid.period_L, model.truncation_X))

    def _local_velocity(self, omega: np.ndarray) -> np.ndarray:
        return self._minus_c * omega

    def _plan_half_line(self, p: int) -> None:
        # the nodes x = 0, dx, .., X = p*dx, taken from X down to 0 for the suffix
        # sums, where f = omega/x is 0 at x = 0
        grid = self.grid
        idx = (grid.index_of_zero + np.arange(p + 1)) % grid.n_points
        x = grid.dx * np.arange(p + 1)
        self._p, self._from_X, self._x_from_X = p, idx[:0:-1], x[:0:-1]
        self._inner, self._minus_x = idx[1:-1], -x[1:-1]

    def _half_line_velocity(self, omega: np.ndarray) -> np.ndarray:
        p = self._p
        g = np.zeros(p + 1)
        g[:-1] = omega[self._from_X] / self._x_from_X
        # tail[m]: unit-spacing integral of f over the last m cells by the rule of
        # spectral.composite_weights(m), as suffix sums of Simpson panels that end
        # at X (m even) or at the 3/8 block on the last three cells (m odd)
        panel = (g[:-2] + 4.0 * g[1:-1] + g[2:]) / 3.0
        tail = np.zeros(p + 1)
        tail[1] = 0.5 * (g[0] + g[1])
        tail[2::2] = np.cumsum(panel[0::2])
        if p >= 3:
            tail[3::2] = 0.375 * (g[0] + 3.0 * g[1] + 3.0 * g[2] + g[3])
            tail[5::2] += np.cumsum(panel[3::2])
        u = np.zeros(self.grid.n_points)
        u[self._inner] = self._minus_x * (self.grid.dx * tail[p - 1 : 0 : -1])
        return u

    _REAL_SPACE_LAWS = {LOCAL: _local_velocity, HALF_LINE: _half_line_velocity}

    def evaluate(self, y: np.ndarray, rate: Optional[np.ndarray] = None) -> np.ndarray:
        """u of the stacked rows ``y`` and, given ``rate``, their rate written there."""
        n = self.grid.n_points
        if rate is None:
            if self._multiplier is None:
                return self._real_law(self, y[0])
            return np.fft.irfft(np.fft.rfft(y[0]) * self._multiplier, n=n)
        y_hat = np.fft.rfft(y)
        spectra = np.empty((self._n_velocity + len(y), n // 2 + 1), complex)
        if self._multiplier is not None:
            np.multiply(y_hat[0], self._multiplier, out=spectra[0])
        if self._stretching:
            np.multiply(spectra[0], self._derivative, out=spectra[1])
        np.multiply(y_hat, self._derivative, out=spectra[-len(y) :])
        back = np.fft.irfft(spectra, n=n)
        u = back[0] if self._multiplier is not None else self._real_law(self, y[0])
        self._rate(y, u, back, rate)
        return u

    def _rate(self, y: np.ndarray, u: np.ndarray, back: np.ndarray, rate: np.ndarray) -> None:
        # omega_t = -w*u*omega_x [+ u_x*omega] [+ theta_x], theta_t = -u*theta_x
        theta = len(y) > 1  # a one-row y of a theta model has theta = +0.0
        derivatives = back[-len(y) :]  # omega_x[, theta_x]
        products = [u * derivatives[0]]
        if self._stretching:
            products.append(back[1] * y[0])
        if theta:
            products.append(u * derivatives[1])
        if self._dealias:
            products = dealias_filter(np.array(products))
        rate[0] = self._weight * products[0]
        if self._stretching:
            rate[0] += products[1]
        if theta:
            rate[0] += derivatives[1]
            rate[1] = -products[-1]
        elif self._theta:
            rate[0] += 0.0  # theta_x = +0.0; the sum turns -0.0 into +0.0


def biot_savart(model: ModelSpec, omega: PeriodicField) -> PeriodicField:
    """Velocity from vorticity under the model's law (see ``MODEL_TABLE``).

    Q0 is the local algebraic law u = -c*omega; CCF takes u = H(omega);
    CLM, De Gregorio, Okamoto and Hou--Luo integrate u_x = H(omega) to the
    zero-mean periodic velocity; CKY evaluates the weighted half-line
    integral on [0, X] and leaves u = 0 elsewhere.
    """
    u = KernelPlan(model, omega.grid).evaluate(omega.values[None, :])
    return PeriodicField(omega.grid, u)


def rhs(model: ModelSpec, s: EvolutionState, dealias: bool = False) -> StateRate:
    """Right-hand side of the model's dynamical equation at state ``s``.

    All x-derivatives are spectral; with ``dealias`` the 2/3-rule filter is
    applied to the nonlinear products.
    """
    y = state_rows(model, s)
    rate = np.empty_like(y)
    KernelPlan(model, s.grid, dealias).evaluate(y, rate)
    return StateRate(rate[0], rate[1] if s.theta is not None else None)


def reconstruct_rho(theta: PeriodicField) -> PeriodicField:
    """Square-root carrier sqrt(theta), clamped at 0 where theta dips below -1e-12."""
    values = theta.values
    if np.any(values < -1e-12 * max(theta.sup_norm, 1e-300)):
        raise ValueError("theta is significantly negative; no real square root")
    return PeriodicField(theta.grid, np.sqrt(np.maximum(values, 0.0)))
