"""FFT-based periodic operators and singular-weight quadrature on the half period.

All operators act on :class:`~jetlab.grid.PeriodicField` and are pure
functions; nothing here keeps mutable state, so concurrent use is safe.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Tuple

import numpy as np

from .grid import PeriodicField, PeriodicGrid

_MEAN_TOL = 1e-12
_TINY = 1e-300


@lru_cache(maxsize=32)
def multipliers(grid: PeriodicGrid) -> Dict[str, np.ndarray]:
    """rfft-ordered multipliers i*k, 1/(i*k), Hilbert -i*sign(k) and its antiderivative
    -1/|k|; every Nyquist bin is zero, and every mean bin but the derivative's."""
    k = grid.wavenumbers
    m = {"derivative": 1j * k, "hilbert": np.full(k.size, -1j)}
    m["antiderivative"], m["integrated_hilbert"] = np.zeros(k.size, complex), np.zeros(k.size)
    m["derivative"][-1] = m["hilbert"][0] = m["hilbert"][-1] = 0.0
    m["antiderivative"][1:-1] = -1j / k[1:-1]
    m["integrated_hilbert"][1:-1] = -1.0 / k[1:-1]
    for values in m.values():
        values.setflags(write=False)
    return m


def apply_multiplier(values: np.ndarray, multiplier: np.ndarray) -> np.ndarray:
    """Apply an rfft-ordered multiplier along the last axis of ``values``."""
    return np.fft.irfft(np.fft.rfft(values) * multiplier, n=values.shape[-1])


def spectral_derivative(f: PeriodicField) -> PeriodicField:
    """Exact derivative of the trigonometric interpolant of ``f``.

    The Nyquist mode's derivative is set to zero.
    """
    return PeriodicField(f.grid, apply_multiplier(f.values, multipliers(f.grid)["derivative"]))


def hilbert_transform(f: PeriodicField) -> PeriodicField:
    """Periodic Hilbert transform with multiplier ``-i*sign(k)``.

    Mode ``k = 0`` maps to zero, so H(cos k~x) = sin k~x and
    H(sin k~x) = -cos k~x for the scaled wavenumbers ~x = 2*pi*x/L.
    """
    return PeriodicField(f.grid, apply_multiplier(f.values, multipliers(f.grid)["hilbert"]))


def antiderivative_zero_mean(f: PeriodicField) -> PeriodicField:
    """The unique zero-mean periodic antiderivative of a zero-mean field."""
    values = f.values
    mean = float(np.mean(values))
    if abs(mean) > _MEAN_TOL * max(float(np.max(np.abs(values))), _TINY):
        raise ValueError("no periodic antiderivative: input has nonzero mean")
    return PeriodicField(f.grid, apply_multiplier(values, multipliers(f.grid)["antiderivative"]))


@lru_cache(maxsize=64)
def composite_weights(n_intervals: int) -> np.ndarray:
    """Unit-spacing Newton--Cotes weights of order >= 4 on ``n_intervals`` cells.

    Composite Simpson when the interval count is even; Simpson plus a 3/8
    block on the last three cells when it is odd.  All weights are positive
    and sum to ``n_intervals`` exactly, so constants integrate exactly and
    the weighted Cauchy--Schwarz inequality holds verbatim in the discrete
    functionals built on top of this rule.
    """
    if n_intervals < 1:
        raise ValueError("need at least one interval")
    if n_intervals == 1:
        return np.array([0.5, 0.5])  # trapezoid; the CKY law applies it on its last cell
    if n_intervals == 2:
        return np.array([1.0, 4.0, 1.0]) / 3.0
    w = np.zeros(n_intervals + 1)
    if n_intervals % 2 == 0:
        w[0] = w[-1] = 1.0 / 3.0
        w[1:-1:2] = 4.0 / 3.0
        w[2:-1:2] = 2.0 / 3.0
    else:
        head = n_intervals - 3
        if head > 0:
            w[: head + 1] = composite_weights(head)
        w[head:] += np.array([1.0, 3.0, 3.0, 1.0]) * 3.0 / 8.0
    return w


def is_pinned_at_zero(f: PeriodicField) -> bool:
    """Whether ``f(0)`` vanishes relative to ``sup|f|``, as ``f(x)/x`` needs."""
    return abs(f.value_at_zero) <= 1e-10 * max(f.sup_norm, _TINY)


@lru_cache(maxsize=32)
def half_period_nodes(grid: PeriodicGrid) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Node indices and coordinates of x = 0 .. L/2 (the last index wraps to
    node 0), and the composite weights that integrate over them."""
    n, half = grid.n_points, grid.n_points // 2
    idx = (grid.index_of_zero + np.arange(half + 1)) % n
    x = grid.dx * np.arange(half + 1)
    weights = grid.dx * composite_weights(half)
    for values in (idx, x, weights):
        values.setflags(write=False)
    return idx, x, weights


def half_period_integrals(f: PeriodicField, slope_at_zero=None) -> Tuple[float, float]:
    """Integrate ``f(x)/x`` and ``f(x)^2/x^2`` over ``[0, L/2]``.

    The removable singularity at ``x = 0`` is handled by replacing the ratio
    ``f(x)/x`` there with ``f'(0)``: ``slope_at_zero`` when the caller has it,
    else the spectral derivative; this requires ``f(0) = 0``.  Both integrals
    use the one ratio at the grid nodes (no re-interpolation) with the
    order-4 composite rule above.  A square past the float range gives a
    second integral of +inf, without a warning; the first does not use it.
    """
    if not is_pinned_at_zero(f):
        raise ValueError("singular integrand: f(0) must vanish")
    idx, x, weights = half_period_nodes(f.grid)
    ratio = np.empty(x.size)
    ratio[1:] = f.values[idx[1:]] / x[1:]
    if slope_at_zero is None:
        slope_at_zero = apply_multiplier(f.values, multipliers(f.grid)["derivative"])[idx[0]]
    ratio[0] = slope_at_zero
    with np.errstate(over="ignore"):
        return float(weights @ ratio), float(weights @ ratio**2)


def _two_thirds_cut(n_points: int) -> int:
    """Highest mode the 2/3 rule keeps; the tail fraction measures the modes above it."""
    return (2 * (n_points // 2)) // 3


def dealias_filter(values: np.ndarray) -> np.ndarray:
    """2/3-rule low-pass along the last axis, used on nonlinear products when
    dealiasing is on; the rows of a stack are filtered in one transform pair."""
    n = values.shape[-1]
    fhat = np.fft.rfft(values)
    fhat[..., _two_thirds_cut(n) + 1 :] = 0.0
    return np.fft.irfft(fhat, n=n)


def resample(f: PeriodicField, n_new: int) -> PeriodicField:
    """Trigonometric resampling of ``f`` onto an ``n_new``-point grid."""
    n = f.grid.n_points
    fhat = np.fft.rfft(f.values)
    out = np.zeros(n_new // 2 + 1, dtype=complex)
    m = min(fhat.size, out.size)
    out[:m] = fhat[:m]
    if n_new > n:
        out[n // 2] *= 0.5  # split the old Nyquist bin between +/- modes
    grid = PeriodicGrid(n_new, f.grid.period_L)
    return PeriodicField(grid, np.fft.irfft(out, n=n_new) * (n_new / n))


def tail_energy_fraction(f: PeriodicField, fhat=None) -> float:
    """Fraction of spectral energy carried by the top third of the modes;
    ``fhat`` is ``rfft(f.values)`` when the caller has it."""
    if fhat is None:
        fhat = np.fft.rfft(f.values)
    power = np.abs(fhat) ** 2
    power[1:-1] *= 2.0
    total = float(np.sum(power[1:]))  # mean mode carries no roughness
    if total <= _TINY:
        return 0.0
    return float(np.sum(power[_two_thirds_cut(f.grid.n_points) + 1 :]) / total)
