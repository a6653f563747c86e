"""The seven 1D vorticity models: velocity laws, closure algebra, right-hand sides."""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .grid import PeriodicField, PeriodicGrid
from .spectral import dealias_filter, half_period_nodes, multiplier

# Velocity laws: the spectral ones are keys of spectral.MULTIPLIERS, whose
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
    CKY, the validated half-line node arrays, so :func:`rhs` only computes.
    A rate costs one rfft of the stacked rows ``y = (omega[, theta])`` and
    one batched irfft of u, u_x, omega_x and theta_x; with ``dealias``,
    ``dealias_filter`` filters all nonlinear products in one more pair.
    Each transform's input is dropped once its output exists, and the
    products are written into ``rate`` and u_x's row, so an evaluation
    holds no more than its spectra and their inverse transforms beside the
    rows it reads and writes.

    A one-row ``y`` of a theta model stands for theta = +0.0 at every node,
    which theta_t = -u*theta_x keeps exactly (each stage adds coef*(+-0.0) to
    +0.0).  Its rate is omega's row alone, with ``+ 0.0`` where theta_x was
    added, so omega's rate keeps the sign of zero the two-row rate gives.
    ``evolve.run`` steps such rows when theta starts at +0.0, and
    ``biot_savart`` passes omega's row alone, since u does not read theta.
    """

    def __init__(self, model: ModelSpec, grid: PeriodicGrid, dealias: bool = False):
        row, n = model.row, grid.n_points
        self.grid, self._dealias = grid, dealias
        self._real_law = self._REAL_SPACE_LAWS.get(row.law)  # unbound: no reference cycle
        self._multiplier = None if self._real_law else multiplier(grid, row.law)  # u-hat/omega-hat
        self._derivative = multiplier(grid, "derivative")
        self._stretching, self._theta = row.stretching, row.theta
        self._weight = -(model.a_ok if row.transport is None else row.transport)
        # the spectra of [u,] [u_x,] and the rows' derivatives, back in one batched irfft
        self._n_velocity = (self._multiplier is not None) + row.stretching
        if row.law == LOCAL:
            self._minus_c = -model.c
        elif row.law == HALF_LINE:
            self._plan_half_line(_cky_cells(n, grid.period_L, model.truncation_X))

    def _local_velocity(self, omega: np.ndarray) -> np.ndarray:
        return self._minus_c * omega

    def _plan_half_line(self, p: int) -> None:
        # the nodes x = 0, dx, .., X = p*dx of half_period_nodes, taken from X down
        # to 0 for the suffix sums, where f = omega/x is 0 at x = 0
        idx, x, _ = half_period_nodes(self.grid)
        self._p, self._from_X, self._x_from_X = p, idx[p:0:-1], x[p:0:-1]
        self._inner, self._minus_x = idx[1:p], -x[1:p]

    def _half_line_velocity(self, omega: np.ndarray) -> np.ndarray:
        p = self._p
        g = np.zeros(p + 1)
        np.divide(omega[self._from_X], self._x_from_X, out=g[:-1])
        # tail[m]: unit-spacing integral of f over the last m cells by the rule of
        # spectral.composite_weights(m), as suffix sums of Simpson panels that end
        # at X (m even) or at the 3/8 block on the last three cells (m odd)
        panel = np.multiply(g[1:-1], 4.0)
        panel += g[:-2]
        panel += g[2:]
        panel /= 3.0
        tail = np.zeros(p + 1)
        tail[1] = 0.5 * (g[0] + g[1])
        np.cumsum(panel[0::2], out=tail[2::2])
        if p >= 3:
            tail[3::2] = 0.375 * (g[0] + 3.0 * g[1] + 3.0 * g[2] + g[3])
            tail[5::2] += np.cumsum(panel[3::2], out=panel[3::2])
        inner = tail[p - 1 : 0 : -1]
        inner *= self.grid.dx
        inner *= self._minus_x
        u = np.zeros(self.grid.n_points)
        u[self._inner] = inner
        return u

    _REAL_SPACE_LAWS = {LOCAL: _local_velocity, HALF_LINE: _half_line_velocity}

    def _rate(self, y: np.ndarray, u: np.ndarray, back: np.ndarray, rate: np.ndarray) -> None:
        # omega_t = -w*u*omega_x [+ u_x*omega] [+ theta_x], theta_t = -u*theta_x;
        # the products u*omega_x, u_x*omega and u*theta_x go straight to the
        # rows rate[0], back[1] (u_x's) and rate[1]
        theta = len(y) > 1  # a one-row y of a theta model has theta = +0.0
        derivatives = back[-len(y) :]  # omega_x[, theta_x]
        products = [np.multiply(u, derivatives[0], out=rate[0])]
        if self._stretching:
            products.append(np.multiply(back[1], y[0], out=back[1]))
        if theta:
            products.append(np.multiply(u, derivatives[1], out=rate[1]))
        if self._dealias:
            for row, filtered in zip(products, dealias_filter(np.array(products))):
                row[...] = filtered
        rate[0] *= self._weight
        if self._stretching:
            rate[0] += back[1]
        if theta:
            rate[0] += derivatives[1]
            np.negative(rate[1], out=rate[1])
        elif self._theta:
            rate[0] += 0.0  # theta_x = +0.0; the sum turns -0.0 into +0.0


def biot_savart(model: ModelSpec, omega: PeriodicField) -> PeriodicField:
    """Velocity from vorticity under the model's law (see ``MODEL_TABLE``).

    Q0 is the local algebraic law u = -c*omega; CCF takes u = H(omega);
    CLM, De Gregorio, Okamoto and Hou--Luo integrate u_x = H(omega) to the
    zero-mean periodic velocity; CKY evaluates the weighted half-line
    integral on [0, X] and leaves u = 0 elsewhere.
    """
    plan, y = KernelPlan(model, omega.grid), omega.values[None, :]  # u does not read theta
    with np.errstate(over="ignore", invalid="ignore"):  # PeriodicField rejects a u that overflows
        u = rhs(plan, y, np.empty_like(y))  # the scratch rate may overflow where u does not
    return PeriodicField(omega.grid, u)


def rhs(plan: KernelPlan, y: np.ndarray, rate: np.ndarray) -> np.ndarray:
    """u of the stacked rows ``y`` = (omega[, theta]) under ``plan``; their rate
    is written to ``rate``, with spectral x-derivatives and, if the plan
    dealiases, the 2/3-rule filter applied to the nonlinear products."""
    n = plan.grid.n_points
    y_hat = np.fft.rfft(y)
    spectra = np.empty((plan._n_velocity + len(y), n // 2 + 1), complex)
    if plan._multiplier is not None:
        np.multiply(y_hat[0], plan._multiplier, out=spectra[0])
    if plan._stretching:
        np.multiply(spectra[0], plan._derivative, out=spectra[1])
    np.multiply(y_hat, plan._derivative, out=spectra[-len(y) :])
    del y_hat
    back = np.fft.irfft(spectra, n=n)
    del spectra
    u = back[0] if plan._multiplier is not None else plan._real_law(plan, y[0])
    plan._rate(y, u, back, rate)
    return u
