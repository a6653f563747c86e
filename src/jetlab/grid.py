"""Uniform periodic grids and sampled real fields on them."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class PeriodicGrid:
    """Uniform grid of ``n_points`` nodes on ``[-L/2, L/2)``.

    Nodes are ``x_j = -L/2 + j*L/n``; ``n_points`` must be even so that
    node 0 sits at ``-L/2``, node ``n/2`` sits exactly at ``x = 0`` and the
    half period ``[0, L/2]`` is a whole number of cells.
    """

    n_points: int
    period_L: float

    def __post_init__(self) -> None:
        if self.n_points % 2 != 0 or self.n_points < 8:
            raise ValueError("n_points must be an even integer >= 8")
        if not np.isfinite(self.period_L) or self.period_L <= 0:
            raise ValueError("period_L must be a positive real")
        if not np.isfinite(2.0 * np.pi * self.n_points / self.period_L):
            n, L = self.n_points, self.period_L
            raise ValueError(f"period_L = {L!r} is too small for {n:.3g} points: 2*pi*n/L is not finite")

    @property
    def dx(self) -> float:
        return self.period_L / self.n_points

    @cached_property
    def nodes(self) -> np.ndarray:
        n, L = self.n_points, self.period_L
        x = -L / 2 + (L / n) * np.arange(n)
        x.setflags(write=False)
        return x

    @cached_property
    def wavenumbers(self) -> np.ndarray:
        """Angular wavenumbers in ``numpy.fft.rfft`` ordering."""
        k = 2.0 * np.pi * np.fft.rfftfreq(self.n_points, d=self.dx)
        k.setflags(write=False)
        return k

    @property
    def index_of_zero(self) -> int:
        return self.n_points // 2


@dataclass(frozen=True)
class PeriodicField:
    """Samples of a smooth L-periodic function on a :class:`PeriodicGrid`."""

    grid: PeriodicGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.grid.n_points,):
            raise ValueError(
                f"values must have shape ({self.grid.n_points},), got {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("field values must be finite")
        object.__setattr__(self, "values", values)

    @property
    def sup_norm(self) -> float:
        return sup_norm(self.values)


def sup_norm(values: np.ndarray) -> float:
    """sup|values|, the one rule every sup of a field or a row is read by."""
    return float(np.max(np.abs(values)))


def reflect_values(values: np.ndarray) -> np.ndarray:
    # node j maps to node (n - j) mod n under x -> -x
    reflected = np.empty_like(values)
    reflected[0] = values[0]
    reflected[1:] = values[:0:-1]
    return reflected


def reflection_defect(values: np.ndarray, combine) -> np.ndarray:
    """|combine(values, reflect_values(values))| in one new row: ``np.add``
    measures how far ``values`` is from odd, ``np.subtract`` from even."""
    reflected = reflect_values(values)
    combine(values, reflected, out=reflected)
    return np.abs(reflected, out=reflected)


def is_plus_zero(values: np.ndarray) -> bool:
    """Whether every entry is +0.0: none is nonzero and none is -0.0."""
    return not (np.any(values) or np.any(np.signbit(values)))
