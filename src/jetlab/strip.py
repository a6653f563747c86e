"""Degenerate elliptic stream solver on the (x, q) strip and boundary jets.

The stream equation  omega = -(d_xx + 4q d_qq + (4+2m) d_q) phi  is solved
per x-Fourier mode as a two-point problem on q in [0, 1]:

* Dirichlet phi = 0 at q = 1 (boundary stream normalization);
* at the degenerate end q = 0 the ODE itself, evaluated at q = 0, closes
  the system -- no extra boundary data, matching the fact that pole
  conditions are automatic in the squared-radius variable.

Second-order centered differences in q.  The q operator is one band
(bandwidths 1 lower / 2 upper, the upper-2 entry coming from the one-sided
q = 0 row); each x-mode adds its -k^2 diagonal.  All modes are solved
together by one elimination sweep over q, and the residual checks apply
the same band.

Strip values are stored x-contiguous (Fortran order of the (n, M+1) array),
so every transform over x reads and writes contiguous memory.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Tuple

import numpy as np

from .grid import PeriodicField, PeriodicGrid
from .spectral import multipliers

_EPS = 1e-300


@dataclass(frozen=True)
class StripGrid:
    """Periodic x-grid crossed with M+1 uniform q-nodes on [0, 1]."""

    x_grid: PeriodicGrid
    n_q_intervals: int

    def __post_init__(self) -> None:
        if self.n_q_intervals < 16:
            raise ValueError("need at least 16 q intervals")

    @property
    def dq(self) -> float:
        return 1.0 / self.n_q_intervals

    @property
    def q_nodes(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.n_q_intervals + 1)


@dataclass(frozen=True)
class StripField:
    """Real function sampled on the strip; values[i, j] = f(x_i, q_j).

    ``values`` is stored x-contiguous (Fortran order); other input is copied
    into that layout once.
    """

    grid: StripGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float, order="F")
        shape = (self.grid.x_grid.n_points, self.grid.n_q_intervals + 1)
        if values.shape != shape:
            raise ValueError(f"values must have shape {shape}, got {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("strip field values must be finite")
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class JetRecord:
    """Boundary Taylor data at q = 1: first two normal jets and the trace of omega."""

    phi1: PeriodicField  # phi_q(x, 1)
    phi2: PeriodicField  # phi_qq(x, 1)
    omega_boundary: PeriodicField
    m: int


def _band(m: int, M: int, dq: float) -> np.ndarray:
    """The q part of the operator, 4q d_qq + (4+2m) d_q, in the (1, 2)
    layout of :func:`solve_banded`, ab[2 + i - j, j] = a[i, j].

    Row 0 is the PDE at q = 0 with the 2nd-order one-sided phi'(0), rows
    1..M-1 are centred, row M is phi(1) = 0.  An x-mode's system adds -k^2
    to the diagonal of rows 0..M-1.
    """
    if m not in (1, 2):
        raise ValueError("m must be 1 or 2")
    ab = np.zeros((4, M + 1))
    b_coef = 4.0 + 2.0 * m
    ab[2, 0] = -3.0 * b_coef / (2 * dq)
    ab[1, 1] = 4.0 * b_coef / (2 * dq)
    ab[0, 2] = -b_coef / (2 * dq)
    q = dq * np.arange(1, M)
    ab[3, 0:M - 1] = 4.0 * q / dq**2 - b_coef / (2 * dq)  # sub-diagonal a[i, i-1]
    ab[2, 1:M] = -8.0 * q / dq**2  # diagonal a[i, i]
    ab[1, 2 : M + 1] = 4.0 * q / dq**2 + b_coef / (2 * dq)  # super-diagonal a[i, i+1]
    ab[2, M] = 1.0
    return ab


def solve_banded(ab: np.ndarray, k2: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve every x-mode's system at once, in place: column j of the complex,
    C-ordered (M+1, K) ``rhs`` is overwritten with the solution of the band
    ``ab`` (see :func:`_band`) minus ``k2[j]`` on the diagonal of rows
    0..M-1, and ``rhs`` is returned.

    Gaussian elimination without pivoting.  Row 0 first sheds its upper-2
    entry against row 1 (whose sub-diagonal is zero for m = 2), which makes
    the system tridiagonal; a Thomas sweep then solves it.  Every row is
    weakly diagonally dominant for m = 1 and 2, so no pivoting is needed.
    """
    M = ab.shape[1] - 1
    upper, lower = ab[1, 1:].tolist(), ab[3, :-1].tolist()  # a[i, i+1], a[i+1, i]
    pivot = np.subtract.outer(ab[2], k2)
    pivot[M] = ab[2, M]
    x = rhs  # eliminated in place
    f = ab[0, 2] / upper[1]  # row 0 -= f * row 1
    pivot[0] -= f * lower[0]
    upper[0] = upper[0] - f * pivot[1]  # now one entry per mode
    x[0] -= f * x[1]
    for i in range(1, M + 1):
        w = lower[i - 1] / pivot[i - 1]
        pivot[i] -= w * upper[i - 1]
        x[i] -= w * x[i - 1]
    x[M] /= pivot[M]
    for i in range(M - 1, -1, -1):
        x[i] -= upper[i] * x[i + 1]
        x[i] /= pivot[i]
    return x


# lines per block of the strip passes: q-columns in the transforms, x-rows
# when a field is saved
_RESIDUAL_BLOCK = 16


def _blocks(count: int):
    """(lo, hi) bounds of consecutive blocks of at most _RESIDUAL_BLOCK lines."""
    for lo in range(0, count, _RESIDUAL_BLOCK):
        yield lo, min(lo + _RESIDUAL_BLOCK, count)


def solve_elliptic(m: int, omega: StripField) -> StripField:
    """Solve the degenerate stream equation for phi given omega on the strip.

    The strip lives in one complex (M+1, n/2+1) buffer: omega is transformed
    a block of q-columns at a time, negated into it, solved in place, and phi
    is written back over it a block at a time in increasing q.  That is safe
    because x-contiguous column q of phi ends at byte 8n(q+1), before row
    q+1 of phi_hat starts at byte (8n+16)(q+1).  The returned values are a
    Fortran-ordered float view of the buffer.
    """
    grid = omega.grid
    n, M = grid.x_grid.n_points, grid.n_q_intervals
    rhs = np.empty((M + 1, n // 2 + 1), dtype=complex)
    for lo, hi in _blocks(M + 1):
        np.negative(np.fft.rfft(omega.values[:, lo:hi].T), out=rhs[lo:hi])
    rhs[M] = 0.0
    phi_hat = solve_banded(_band(m, M, grid.dq), grid.x_grid.wavenumbers**2, rhs)
    phi = phi_hat.view(float).reshape(-1)[: n * (M + 1)].reshape(M + 1, n)
    for lo, hi in _blocks(M + 1):
        phi[lo:hi] = np.fft.irfft(phi_hat[lo:hi], n=n)
    return StripField(grid, phi.T)


def _band_product(ab: np.ndarray, k2: np.ndarray, v: np.ndarray) -> np.ndarray:
    """A_k v_k for every mode on a window of q-columns ``v`` (K, w); ``ab`` is
    the band cut to the same window.  The window's first and last rows lack
    a neighbour, so only the rows inside it are the operator's."""
    res = ab[2] * v
    res[:, :-1] += ab[1, 1:] * v[:, 1:]
    res[:, :-2] += ab[0, 2:] * v[:, 2:]
    res[:, 1:] += ab[3, :-1] * v[:, :-1]
    res -= k2[:, None] * v
    return res


def elliptic_residuals(phi: StripField, omega: StripField, m: int) -> Tuple[float, float]:
    """(absolute, scaled) defect on q < 1 of the solver's own discrete system
    A_k phi_hat_k = -omega_hat_k.

    absolute is the max of the defect transformed back to x.  scaled is
    max|A_k phi_hat_k + omega_hat_k| over max(|A_k| |phi_hat_k|) +
    max|omega_hat_k|, which stays at rounding level for an exact solve while
    the band entries, and so the absolute defect, grow like M^2.  The
    diagonal is negative on q < 1, so |A_k| is |band| with +k^2.

    The pass runs a block of q-columns at a time: it transforms the block's
    phi columns with the band's halo (one column below, two above) and its
    omega columns, and inverse-transforms only that block of the defect, so
    no strip-sized array is allocated.
    """
    grid = phi.grid
    M = grid.n_q_intervals
    band = _band(m, M, grid.dq)
    abs_band = np.abs(band)
    k2 = grid.x_grid.wavenumbers**2
    absolute = worst = scale = omega_max = 0.0
    for lo, hi in _blocks(M):  # the rows q < 1
        a, b = max(lo - 1, 0), min(hi + 2, M + 1)
        rows = slice(lo - a, hi - a)
        phi_hat = np.fft.rfft(phi.values[:, a:b], axis=0)
        defect = np.fft.rfft(omega.values[:, lo:hi], axis=0)
        omega_max = max(omega_max, np.max(np.abs(defect)))
        defect += _band_product(band[:, a:b], k2, phi_hat)[:, rows]
        worst = max(worst, np.max(np.abs(defect)))
        scale = max(scale, np.max(_band_product(abs_band[:, a:b], -k2, np.abs(phi_hat))[:, rows]))
        physical = np.fft.irfft(defect, n=grid.x_grid.n_points, axis=0)
        absolute = max(absolute, np.max(np.abs(physical, out=physical)))
    return float(absolute), float(worst / max(scale + omega_max, _EPS))


def elliptic_residual(phi: StripField, omega: StripField, m: int) -> float:
    """Absolute defect of :func:`elliptic_residuals`."""
    return elliptic_residuals(phi, omega, m)[0]


def _boundary_first_derivative(values: np.ndarray, dq: float) -> np.ndarray:
    """4th-order one-sided d/dq at q = 1 (5-point backward stencil)."""
    return (
        25.0 * values[:, -1]
        - 48.0 * values[:, -2]
        + 36.0 * values[:, -3]
        - 16.0 * values[:, -4]
        + 3.0 * values[:, -5]
    ) / (12.0 * dq)


def _boundary_second_derivative(values: np.ndarray, dq: float) -> np.ndarray:
    """2nd-order one-sided d2/dq2 at q = 1 (4-point backward stencil)."""
    return (
        2.0 * values[:, -1]
        - 5.0 * values[:, -2]
        + 4.0 * values[:, -3]
        - 1.0 * values[:, -4]
    ) / dq**2


def extract_jets(
    phi: StripField, omega: StripField, m: int, phi2_route: str = "pde"
) -> JetRecord:
    """Boundary jets at q = 1.

    phi1 is the one-sided 4th-order derivative of the solved phi.  phi2 via
    the default "pde" route comes from the stream equation evaluated at
    q = 1 (where phi = 0 kills the x-derivatives):
    phi2 = (-omega(.,1) - (4+2m)*phi1) / 4, which is exact for the discrete
    solution; the "difference" route is the independent one-sided
    second-derivative cross-check, 2nd order in dq.
    """
    if phi2_route not in ("pde", "difference"):
        raise ValueError(f"unknown phi2 route {phi2_route!r}")
    x_grid = phi.grid.x_grid
    dq = phi.grid.dq
    phi1 = _boundary_first_derivative(phi.values, dq)
    omega_b = omega.values[:, -1].copy()
    if phi2_route == "pde":
        phi2 = (-omega_b - (4.0 + 2.0 * m) * phi1) / 4.0
    else:
        phi2 = _boundary_second_derivative(phi.values, dq)
    return JetRecord(
        phi1=PeriodicField(x_grid, phi1),
        phi2=PeriodicField(x_grid, phi2),
        omega_boundary=PeriodicField(x_grid, omega_b),
        m=m,
    )


def jet_relation_residual(jets: JetRecord) -> float:
    """Sup defect of  omega + 4*phi2 + 2(m+2)*phi1 = 0  relative to |omega|.

    Zero by construction when phi2 came from the PDE route; with the
    difference route it measures the cross-check disagreement instead.
    """
    omega_b = jets.omega_boundary.values
    defect = omega_b + 4.0 * jets.phi2.values + 2.0 * (jets.m + 2) * jets.phi1.values
    return float(np.max(np.abs(defect)) / max(np.max(np.abs(omega_b)), _EPS))


def closure_residual(jets: JetRecord, a_jet: float) -> float:
    """Sup distance of the jet pair from the linear closure phi2 = a_jet*phi1."""
    defect = jets.phi2.values - a_jet * jets.phi1.values
    return float(
        np.max(np.abs(defect)) / max(np.max(np.abs(jets.phi1.values)), _EPS)
    )


def compute_velocities(phi: StripField, m: int) -> Tuple[StripField, StripField]:
    """Velocity components v = phi_x (spectral) and g = m*phi + 2q*phi_q.

    phi_q uses centered differences in the interior and 2nd-order one-sided
    stencils at q = 0 and q = 1.
    """
    grid = phi.grid
    values = phi.values
    dq = grid.dq
    phi_x_hat = np.fft.rfft(values, axis=0) * multipliers(grid.x_grid)["derivative"][:, None]
    v = np.fft.irfft(phi_x_hat, n=grid.x_grid.n_points, axis=0)

    phi_q = np.empty_like(values)
    phi_q[:, 1:-1] = (values[:, 2:] - values[:, :-2]) / (2 * dq)
    phi_q[:, 0] = (-3 * values[:, 0] + 4 * values[:, 1] - values[:, 2]) / (2 * dq)
    phi_q[:, -1] = (3 * values[:, -1] - 4 * values[:, -2] + values[:, -3]) / (2 * dq)
    g = m * values + 2.0 * grid.q_nodes[None, :] * phi_q
    return StripField(grid, v), StripField(grid, g)


# -- manufactured solutions ---------------------------------------------------

_CASE_PROFILES: Dict[str, Tuple[Callable, Callable, Callable]] = {
    # name -> (h(q), h'(q), h''(q)) with phi = h(q) sin(k1 x)
    "linear": (lambda q: 1 - q, lambda q: -np.ones_like(q), lambda q: np.zeros_like(q)),
    "quadratic": (
        lambda q: (1 - q) + 0.5 * (1 - q) ** 2,
        lambda q: -1.0 - (1 - q),
        lambda q: np.ones_like(q),
    ),
    "quadratic_minus": (
        lambda q: (1 - q) - 0.5 * (1 - q) ** 2,
        lambda q: -q,
        lambda q: -np.ones_like(q),
    ),
    "exp": (
        lambda q: (1 - q) * np.exp(q),
        lambda q: -q * np.exp(q),
        lambda q: -(1 + q) * np.exp(q),
    ),
}

MANUFACTURED_CASES = tuple(_CASE_PROFILES)


def _case_profiles(name: str, m: int, grid: StripGrid) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(h(q), omega's q-profile, sin(k1 x)) of a manufactured case, whose
    phi = h(q) sin(k1 x) and omega are rank one on the strip."""
    if name not in _CASE_PROFILES:
        raise ValueError(
            f"unknown manufactured case {name!r}; choose from {', '.join(MANUFACTURED_CASES)}"
        )
    h, hp, hpp = _CASE_PROFILES[name]
    q = grid.q_nodes
    k1 = 2.0 * np.pi / grid.x_grid.period_L
    sin_x = np.sin(k1 * grid.x_grid.nodes)
    profile_omega = k1**2 * h(q) - 4.0 * q * hpp(q) - (4.0 + 2.0 * m) * hp(q)
    return h(q), profile_omega, sin_x


def _rank_one(grid: StripGrid, profile: np.ndarray, sin_x: np.ndarray) -> StripField:
    # built q-major and transposed, so the field is x-contiguous with no copy
    return StripField(grid, (profile[:, None] * sin_x[None, :]).T)


def manufactured_case(
    name: str, m: int, grid: StripGrid
) -> Tuple[StripField, StripField]:
    """Exact (phi, omega) pair with phi = h(q) sin of the fundamental x-mode."""
    h_q, omega_q, sin_x = _case_profiles(name, m, grid)
    return _rank_one(grid, h_q, sin_x), _rank_one(grid, omega_q, sin_x)


def manufactured_omega(name: str, m: int, grid: StripGrid) -> StripField:
    """The omega of :func:`manufactured_case` alone."""
    _, omega_q, sin_x = _case_profiles(name, m, grid)
    return _rank_one(grid, omega_q, sin_x)


def manufactured_error(name: str, m: int, phi: StripField) -> float:
    """Sup distance of ``phi`` from the case's exact phi = h(q) sin(k1 x),
    measured a block of q-columns at a time, so the exact phi is never built
    as a strip."""
    h_q, _, sin_x = _case_profiles(name, m, phi.grid)
    worst = 0.0
    for lo, hi in _blocks(h_q.size):
        error = phi.values[:, lo:hi] - (h_q[lo:hi, None] * sin_x[None, :]).T
        worst = max(worst, np.max(np.abs(error, out=error)))
    return float(worst)


# -- serialization ------------------------------------------------------------

_HEADER = struct.Struct("<qqd")  # n_x, M, period_L; payload is row-major <f8


def save_strip_field(field: StripField, path) -> None:
    """Flat little-endian binary (header n, M, L then row-major float64)
    plus a JSON sidecar describing the layout."""
    path = Path(path)
    grid = field.grid
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(grid.x_grid.n_points, grid.n_q_intervals, grid.x_grid.period_L))
        for lo, hi in _blocks(grid.x_grid.n_points):  # x-rows, so no strip-sized copy
            fh.write(np.ascontiguousarray(field.values[lo:hi], dtype="<f8"))
    sidecar = {
        "n_x": grid.x_grid.n_points,
        "n_q_intervals": grid.n_q_intervals,
        "period_L": grid.x_grid.period_L,
        "byte_order": "little",
        "header": "int64 n_x, int64 M, float64 L",
        "dtype": "<f8",
        "layout": "row-major, x index outermost",
    }
    path.with_suffix(path.suffix + ".json").write_text(
        json.dumps(sidecar, sort_keys=True, indent=2) + "\n"
    )


def load_strip_field(path) -> StripField:
    path = Path(path)
    raw = path.read_bytes()
    n, M, L = _HEADER.unpack_from(raw)
    values = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size).reshape(n, M + 1)
    grid = StripGrid(PeriodicGrid(int(n), float(L)), int(M))
    return StripField(grid, values.copy(order="F"))
