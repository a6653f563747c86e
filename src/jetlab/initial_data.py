"""Named initial-data generators for the experiment runner."""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .grid import PeriodicField, PeriodicGrid


def sin_fundamental(grid: PeriodicGrid, amplitude: float = 1.0) -> PeriodicField:
    k1 = 2.0 * np.pi / grid.period_L
    return PeriodicField(grid, amplitude * np.sin(k1 * grid.nodes))


def sin_k(grid: PeriodicGrid, k: int, amplitude: float = 1.0) -> PeriodicField:
    if not 1 <= k < grid.n_points // 2:
        raise ValueError("mode k must satisfy 1 <= k < n/2")
    return PeriodicField(
        grid, amplitude * np.sin(2.0 * np.pi * k * grid.nodes / grid.period_L)
    )


def zero(grid: PeriodicGrid) -> PeriodicField:
    return PeriodicField(grid, np.zeros(grid.n_points))


def custom_fourier(grid: PeriodicGrid, terms) -> PeriodicField:
    """Sum of a_k sin(2 pi k x / L) + b_k cos(2 pi k x / L) over [k, a_k, b_k] rows."""
    values = np.zeros(grid.n_points)
    x = grid.nodes
    for k, a, b in terms:
        if not 0 <= k < grid.n_points // 2:
            raise ValueError("mode k must satisfy 0 <= k < n/2")
        phase = 2.0 * np.pi * k * x / grid.period_L
        values += a * np.sin(phase) + b * np.cos(phase)
    return PeriodicField(grid, values)


def build_field(grid: PeriodicGrid, spec: Mapping) -> PeriodicField:
    """Build a field from a generator description {"name": ..., params}."""
    name = spec.get("name")
    if name == "sin_fundamental":
        return sin_fundamental(grid, spec.get("amplitude", 1.0))
    if name == "sin_k":
        return sin_k(grid, spec["k"], spec.get("amplitude", 1.0))
    if name == "zero":
        return zero(grid)
    if name == "custom_fourier":
        return custom_fourier(grid, spec["terms"])
    raise ValueError(f"unknown initial-data generator {name!r}")
