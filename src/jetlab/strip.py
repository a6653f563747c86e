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

The sweep hands the solution over a segment of _RESIDUAL_BLOCK q-rows at a
time from the top down, keeping the checkpoint rows of Griewank's binomial
schedule with _REPEATS repeat sweeps (8 rows at M = 1024; revolve, Griewank
& Walther, ACM TOMS 26, 2000), so the checks consume each segment as it
comes: ``jet-verify``'s
pass, :func:`manufactured_pass`, holds its checkpoints and one block's
arrays at a time, dropping each array once it is used and transforming in
half-blocks, and the field routes (``solve_elliptic``,
``elliptic_residuals``) feed the same checks a field's blocks, with the
same bits.

Strip values are stored x-contiguous (Fortran order of the (n, M+1) array),
so every transform over x reads and writes contiguous memory.  The solve,
the residual pass and the jets read omega through ``columns``, a block of
q-columns at a time, so a rank-one omega (every manufactured case) is never
built as a strip.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, NamedTuple, Tuple, Union

import numpy as np

from .coefficients import stream_coefficient
from .grid import PeriodicField, PeriodicGrid

_EPS = 1e-300


# lines per block of the strip passes: q-columns in the transforms and the
# finiteness check, q-rows per segment of the solve
_RESIDUAL_BLOCK = 8
# forward sweeps of a segment before the one that keeps its rows, in the
# solve's binomial checkpoint schedule
_REPEATS = 3


def _blocks(count: int):
    """(lo, hi) bounds of consecutive blocks of at most _RESIDUAL_BLOCK lines."""
    for lo in range(0, count, _RESIDUAL_BLOCK):
        yield lo, min(lo + _RESIDUAL_BLOCK, count)


def _halves(count: int):
    """(lo, hi) bounds of the halves of ``count`` lines, the larger first."""
    mid = (count + 1) // 2
    return [(0, mid), (mid, count)] if count > 1 else [(0, count)]


def _checkpoint_layout(M: int) -> int:
    """The checkpoint rows of :func:`solve_banded_segments` at M q-intervals:
    the fewest s for which C(s + _REPEATS, _REPEATS) reaches the segment
    count S, the most segments that s rows and _REPEATS repeat sweeps hand
    over."""
    S, rows = M // _RESIDUAL_BLOCK + 1, 0
    while math.comb(rows + _REPEATS, _REPEATS) < S:
        rows += 1
    return rows


def jet_verify_budget(n: int, M: int) -> int:
    """Bytes that ``jet-verify`` at n x-points and M q-intervals allocates at
    its peak, at most (see README): 24 per mode for each checkpoint row,
    68 complex spectrum rows for one block's arrays of the solve and the
    checks (the most measured is 61.8 at the sizes the tests guard, at
    n = 2048, M = 1024, and 64 at n = 1024, M = 64; the rest is margin), 80
    per q-node for the band and the manufactured profiles, and 64 KiB for
    the command."""
    K = n // 2 + 1
    return 24 * K * _checkpoint_layout(M) + 16 * K * 68 + 80 * (M + 1) + 2**16


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
        # a block of q-columns at a time: a strip-sized bool array would outgrow the solve
        if not all(np.isfinite(values[:, lo:hi]).all() for lo, hi in _blocks(shape[1])):
            raise ValueError("strip field values must be finite")
        object.__setattr__(self, "values", values)

    def columns(self, lo: int, hi: int, out=None) -> np.ndarray:
        """The x-contiguous (n, hi-lo) block of q-columns lo..hi-1, a view;
        ``out`` is unused (see :meth:`RankOneStripField.columns`)."""
        return self.values[:, lo:hi]


@dataclass(frozen=True)
class RankOneStripField:
    """Real strip function f(x_i, q_j) = q_profile[j] * x_profile[i], held as
    its two profiles; blocks of q-columns are built when they are read."""

    grid: StripGrid
    q_profile: np.ndarray
    x_profile: np.ndarray

    def __post_init__(self) -> None:
        q, x = np.asarray(self.q_profile, dtype=float), np.asarray(self.x_profile, dtype=float)
        shape = (self.grid.x_grid.n_points, self.grid.n_q_intervals + 1)
        if x.shape != shape[:1] or q.shape != shape[1:]:
            raise ValueError(f"values must have shape {shape}, got x {x.shape} by q {q.shape}")
        # every product is at most the product of the two sup norms
        if not np.isfinite(float(np.max(np.abs(q))) * float(np.max(np.abs(x)))):
            raise ValueError("strip field values must be finite")
        object.__setattr__(self, "q_profile", q)
        object.__setattr__(self, "x_profile", x)

    def columns(self, lo: int, hi: int, out=None) -> np.ndarray:
        """The x-contiguous (n, hi-lo) block of q-columns lo..hi-1, written
        into the first hi-lo rows of the (rows, n) scratch ``out`` if given."""
        out = np.empty((hi - lo, self.x_profile.size)) if out is None else out[: hi - lo]
        # a row at a time: numpy buffers the broadcast outer product, up to 128 KiB
        for row, q in zip(out, self.q_profile[lo:hi].tolist()):
            np.multiply(q, self.x_profile, out=row)
        return out.T


AnyStripField = Union[StripField, RankOneStripField]


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
    b_coef = stream_coefficient(m)
    ab = np.zeros((4, M + 1))
    ab[2, 0] = -3.0 * b_coef / (2 * dq)
    ab[1, 1] = 4.0 * b_coef / (2 * dq)
    ab[0, 2] = -b_coef / (2 * dq)
    q = dq * np.arange(1, M)
    ab[3, 0:M - 1] = 4.0 * q / dq**2 - b_coef / (2 * dq)  # sub-diagonal a[i, i-1]
    ab[2, 1:M] = -8.0 * q / dq**2  # diagonal a[i, i]
    ab[1, 2 : M + 1] = 4.0 * q / dq**2 + b_coef / (2 * dq)  # super-diagonal a[i, i+1]
    ab[2, M] = 1.0
    return ab


def solve_banded_segments(
    ab: np.ndarray, k2: np.ndarray, load: Callable[[int, int], np.ndarray]
) -> Iterator[Tuple[int, int, np.ndarray]]:
    """Solve every x-mode's system at once, a segment of q-rows at a time.

    Column j of the right-hand side is solved against the band ``ab`` (see
    :func:`_band`) minus ``k2[j]`` on the diagonal of rows 0..M-1.
    ``load(lo, hi)`` returns rows lo..hi-1 of the right-hand side as a new
    complex (hi-lo, K) array, which the solve then works in.  Yields
    (lo, hi, x) for the segments of :func:`_blocks` from the top one down,
    x being the solution's rows lo..hi-1.  Each x is handed over: the
    suspended solve keeps no reference to it, so the consumer may work in
    it, and it is freed as soon as the consumer drops it.

    Gaussian elimination without pivoting.  Row 0 first sheds its upper-2
    entry against row 1 (whose sub-diagonal is zero for m = 2), which makes
    the system tridiagonal; a Thomas sweep then solves it.  Every row is
    weakly diagonally dominant for m = 1 and 2, so no pivoting is needed.

    Neither the pivots nor the eliminated right-hand side are kept, but
    checkpoints of the carry, the pivot and eliminated right-hand side of
    the row below a segment, on Griewank's binomial schedule (revolve,
    Griewank & Walther, ACM TOMS 26, 2000).  To hand over segments [a, b)
    with ``free`` checkpoint rows and r repeat sweeps left, the solve sweeps
    from a's carry up to segment m and checkpoints m's, hands over the
    min(b - a - 1, C(free - 1 + r, r)) segments [m, b) with one row fewer,
    then [a, m) with one repeat fewer; a single segment is swept from its
    carry, keeping its rows, and substituted from the row just above it.
    Starting from no carry at segment 0 with _REPEATS repeats, that takes
    :func:`_checkpoint_layout` rows, and each segment is swept with the
    same operations each time, so the bits are those of a sweep that keeps
    every row.  ``load`` is called up to _REPEATS + 1 times for each
    segment (and, when row 0's segment is one row, for q-row 1 alone in
    each of the forward sweeps of segment 0) and must return the same
    values each time.  Besides the segment in hand, the solve holds its
    checkpoints and a segment of pivot rows.
    """
    M, K = ab.shape[1] - 1, k2.size
    segments, rows = list(_blocks(M + 1)), _checkpoint_layout(M)
    f = ab[0, 2] / ab[1, 2]  # row 0 -= f * row 1
    upper0 = ab[1, 1] - f * (ab[2, 1] - k2)  # a[0, 1], now one entry per mode
    pivots = np.empty((_RESIDUAL_BLOCK, K))  # of the segment's q-rows lo..hi-1
    checkpoints = np.empty((rows, K)), np.empty((rows, K), dtype=complex)  # carries, by depth
    # the carry, q-row lo-1 in the sweeps (pivot and eliminated right-hand
    # side), and q-row hi of the solution in the back substitution
    pivot_below, below, above = np.empty(K), np.empty(K, dtype=complex), np.empty(K, dtype=complex)
    # w's values in a complex array of zero imaginary part, so that w x is a
    # complex product without numpy's buffered cast of a real operand
    w_complex, w_upper, t = np.zeros(K, dtype=complex), np.empty(K), np.empty(K, dtype=complex)
    w = w_complex.real

    def coefficients(lo: int, hi: int):
        """The band entries that q-rows lo..hi-1 read, as Python floats:
        (base, upper, lower), entry i - base of each list belonging to
        q-row i: a[i, i+1] and a[i+1, i]."""
        base = max(lo - 1, 0)
        upper = ab[1, base + 1 : hi + 1].tolist()
        if base == 0:
            upper[0] = upper0
        return base, upper, ab[3, base:hi].tolist()

    def sweep(j: int, restore: bool = False) -> np.ndarray:
        """Load segment j and eliminate its rows against the carry, carrying
        the last one on; segment 0 sheds row 0 first, or restores it from
        checkpoint 0 if ``restore``.  The eliminated right-hand side is
        returned."""
        lo, hi = segments[j]
        base, upper, lower = coefficients(lo, hi)
        x = load(lo, hi)
        np.subtract(ab[2, lo:hi, None], k2, out=pivots[: hi - lo])  # diag - k^2 of each row
        if hi > M:
            pivots[M - lo].fill(ab[2, M])  # the row of phi(1) = 0 has no -k^2
        if restore:
            pivots[0], x[0] = checkpoints[0][0], checkpoints[1][0]
        elif lo == 0:  # row 1 is in the next segment only for segments of one row
            x[0] -= f * (x[1] if hi > 1 else load(1, 2)[0])
            pivots[0] -= f * lower[0]
        # the rows as views made once, q-row lo-1 (the carry) first
        p_rows, x_rows = [pivot_below, *pivots[: hi - lo]], [below, *x]
        for i in range(max(lo, 1), hi):
            s = i - lo
            p, xs = p_rows[s + 1], x_rows[s + 1]
            np.divide(lower[i - 1 - base], p_rows[s], w)
            np.multiply(w, upper[i - 1 - base], w_upper)
            np.subtract(p, w_upper, p)
            np.subtract(xs, np.multiply(w_complex, x_rows[s], t), xs)
        pivot_below[:], below[:] = pivots[hi - lo - 1], x[hi - lo - 1]
        return x

    def hand_over(a: int, b: int, free: int, repeats: int):
        """Yield segments b-1 down to a, from segment a's carry, which
        checkpoint row rows - free - 1 holds (segment 0 has none)."""
        depth = rows - free  # the row of this level's checkpoint
        while True:
            if a:
                pivot_below[:], below[:] = checkpoints[0][depth - 1], checkpoints[1][depth - 1]
            if b - a == 1:
                break
            m = b - min(b - a - 1, math.comb(free - 1 + repeats, repeats))
            for j in range(a, m):
                sweep(j)
            checkpoints[0][depth], checkpoints[1][depth] = pivot_below, below
            yield from hand_over(m, b, free - 1, repeats)
            b, repeats = m, repeats - 1
        # q-row 1 is solved by now, but a one-row segment 0 is the carry of
        # row 0 that the split at segment 1 kept in checkpoint row 0
        x = sweep(a, restore=segments[a][1] == 1)
        lo, hi = segments[a]
        base, upper, _ = coefficients(lo, hi)
        for i in range(hi - 1, lo - 1, -1):
            s = i - lo
            if i < M:  # x[s + 1] is not bound to a name: a view would keep x alive
                np.multiply(upper[i - base], x[s + 1] if i + 1 < hi else above, out=t)
                np.subtract(x[s], t, out=x[s])
            np.divide(x[s], pivots[s], out=x[s])
        above[:] = x[0]
        handed = [x]
        del x  # the consumer holds the segment alone, and the next one loads in its place
        yield lo, hi, handed.pop()

    yield from hand_over(0, len(segments), rows, _REPEATS)


def solve_banded(ab: np.ndarray, k2: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve every x-mode's system at once, in place: column j of the complex
    (M+1, K) ``rhs`` is overwritten with the solution of the band ``ab``
    minus ``k2[j]`` on the diagonal of rows 0..M-1, and ``rhs`` is returned
    (see :func:`solve_banded_segments`)."""
    for lo, hi, x in solve_banded_segments(ab, k2, lambda lo, hi: rhs[lo:hi].copy()):
        rhs[lo:hi] = x  # the rows below are still the right-hand side's
    return rhs


def _stream_rhs(omega: AnyStripField, scratch: np.ndarray) -> Callable[[int, int], np.ndarray]:
    """The ``load`` of :func:`solve_banded_segments` for the stream
    equation: -omega_hat on q-rows lo..hi-1, transformed from omega's
    columns built in the first hi-lo rows of ``scratch``, and 0 on the row
    phi(1) = 0."""
    M = omega.grid.n_q_intervals

    def load(lo: int, hi: int) -> np.ndarray:
        rhs = np.fft.rfft(omega.columns(lo, hi, scratch).T)
        planes = rhs.view(float)  # the same sign flips, without numpy's slow complex negative
        np.negative(planes, out=planes)
        if hi > M:
            rhs[M - lo] = 0.0
        return rhs

    return load


def _irfft_in_place(spectra: np.ndarray, n: int) -> np.ndarray:
    """The (rows, n) real inverse transforms of the C-contiguous complex
    (rows, n/2+1) ``spectra``, written over the spectra's own bytes half a
    block at a time: the first half's output ends before the second half's
    spectra begin."""
    rows = spectra.shape[0]
    out = spectra.view(float).reshape(-1)[: rows * n].reshape(rows, n)
    for a, b in _halves(rows):
        out[a:b] = np.fft.irfft(spectra[a:b], n=n)
    return out


def solve_elliptic(m: int, omega: AnyStripField) -> StripField:
    """Solve the degenerate stream equation for phi given omega on the strip.

    The solve streams (see :func:`solve_banded_segments`), and each solved
    segment is transformed back into phi a column at a time, so phi is the
    one strip-sized array.  omega is read a block of q-columns at a time (a
    rank-one omega is never built as a strip), built in phi's lowest
    columns: the segments come from the top down, so those are written last,
    after their own block was read.
    """
    grid = omega.grid
    n, M = grid.x_grid.n_points, grid.n_q_intervals
    phi = np.empty((n, M + 1), order="F")
    segments = solve_banded_segments(
        _band(m, M, grid.dq), grid.x_grid.wavenumbers**2, _stream_rhs(omega, phi.T)
    )
    for lo, hi, phi_hat in segments:
        for s in range(hi - lo):
            phi[:, lo + s] = np.fft.irfft(phi_hat[s], n=n)
        del phi_hat  # before the next segment loads
    return StripField(grid, phi)


def _scratch(grid: StripGrid) -> np.ndarray:
    """One (_RESIDUAL_BLOCK + 1, n) block of real rows, in which the strip
    passes build the blocks of q-columns of a rank-one field."""
    return np.empty((_RESIDUAL_BLOCK + 1, grid.x_grid.n_points))


def _band_product(ab: np.ndarray, k2: np.ndarray, v: np.ndarray, out: np.ndarray) -> np.ndarray:
    """A_k v_k for every mode on a window of q-columns ``v`` (K, w), written
    into ``out`` of the same shape; ``ab`` is the band cut to the same
    window.  The window's first and last rows lack a neighbour, so only the
    rows inside it are the operator's."""
    np.multiply(ab[2], v, out=out)
    out[:, :-1] += ab[1, 1:] * v[:, 1:]
    out[:, :-2] += ab[0, 2:] * v[:, 2:]
    out[:, 1:] += ab[3, :-1] * v[:, :-1]
    out -= k2[:, None] * v
    return out


class _ResidualPass:
    """The defect of A_k phi_hat_k = -omega_hat_k on q < 1 (see
    :func:`elliptic_residuals`), fed phi a block of q-columns at a time from
    the top down, in two steps: ``take(lo, hi, phi[:, lo:hi])`` transforms
    the block into the window, after which the caller may drop phi's block,
    and ``finish(lo, hi)`` finishes the rows; ``result()`` is the (absolute,
    scaled) pair.

    Each block's columns are transformed once, half a block at a time.
    Their spectra, followed by the halo (the lowest two spectra of the
    blocks before), make the window, and the block finishes every row whose
    stencil the window holds: [r-1, r+1], or [0, 2] for row 0, the one row
    with an upper-2 entry.  Only the window's band is cut, and the window's
    band product, and after it the moduli and their product, live in one
    scratch.  The defect is formed, and transformed back, half a block of
    rows at a time.
    """

    def __init__(self, band: np.ndarray, omega: AnyStripField, scratch: np.ndarray):
        grid = omega.grid
        self.band, self.omega, self.scratch = band, omega, scratch
        self.M, self.k2 = grid.n_q_intervals, grid.x_grid.wavenumbers**2
        # mode-contiguous, like the transforms over x, so that their blocks of columns are too
        shape = (self.k2.size, _RESIDUAL_BLOCK + 2)
        self.window, self.product = (np.empty(shape, complex, order="F") for _ in range(2))
        self.planes = self.product.reshape(-1, order="F").view(float)  # its bytes, as reals
        self.absolute = self.worst = self.scale = self.omega_max = 0.0

    def _width(self, lo: int, hi: int) -> int:
        """The window's q-columns lo..lo+width-1: the block and its halo."""
        return hi - lo + min(2, self.M + 1 - hi)

    def take(self, lo: int, hi: int, phi: np.ndarray) -> None:
        fresh, window = hi - lo, self.window[:, : self._width(lo, hi)]
        window[:, fresh:] = window[:, : window.shape[1] - fresh]  # the last window's first columns
        for a, b in _halves(fresh):
            window[:, a:b] = np.fft.rfft(phi[:, a:b], axis=0)

    def finish(self, lo: int, hi: int) -> None:
        first, last = (lo + 1 if lo else 0), min(hi + 1, self.M)  # the rows finished here
        if first >= last:
            return
        rows, width = slice(first - lo, last - lo), self._width(lo, hi)
        ab, window = self.band[:, lo : lo + width], self.window[:, :width]
        product = _band_product(ab, self.k2, window, self.product[:, :width])
        for a, b in _halves(last - first):
            defect = np.fft.rfft(self.omega.columns(first + a, first + b, self.scratch), axis=0)
            self.omega_max = max(self.omega_max, np.max(np.abs(defect)))
            defect += product[:, rows][:, a:b]
            self.worst = max(self.worst, np.max(np.abs(defect)))
            physical = np.fft.irfft(defect, n=self.scratch.shape[1], axis=0)
            del defect  # not alive beside the next half's spectra
            self.absolute = max(self.absolute, np.max(np.abs(physical, out=physical)))
        # |A_k| |phi_hat_k|: the moduli and their product in the product's bytes, as two
        # contiguous real blocks (its strided real and imaginary planes take twice the time)
        size = window.size
        moduli = self.planes[:size].reshape(window.shape, order="F")
        scaled = self.planes[size : 2 * size].reshape(window.shape, order="F")
        np.abs(window, out=moduli)
        _band_product(np.abs(ab), -self.k2, moduli, scaled)
        self.scale = max(self.scale, np.max(scaled[:, rows]))

    def result(self) -> Tuple[float, float]:
        return float(self.absolute), float(self.worst / max(self.scale + self.omega_max, _EPS))


def elliptic_residuals(phi: AnyStripField, omega: AnyStripField, m: int) -> Tuple[float, float]:
    """(absolute, scaled) defect on q < 1 of the solver's own discrete system
    A_k phi_hat_k = -omega_hat_k.

    absolute is the max of the defect transformed back to x.  scaled is
    max|A_k phi_hat_k + omega_hat_k| over max(|A_k| |phi_hat_k|) +
    max|omega_hat_k|, which stays at rounding level for an exact solve while
    the band entries, and so the absolute defect, grow like M^2.  The
    diagonal is negative on q < 1, so |A_k| is |band| with +k^2.

    phi's blocks of q-columns are fed from the top down to the pass that
    ``jet-verify`` feeds its solve's segments to (see
    :func:`manufactured_pass`); no strip-sized array is allocated.
    """
    grid = phi.grid
    check = _ResidualPass(_band(m, grid.n_q_intervals, grid.dq), omega, _scratch(grid))
    for lo, hi in reversed(list(_blocks(grid.n_q_intervals + 1))):  # from the top down
        check.take(lo, hi, phi.columns(lo, hi))
        check.finish(lo, hi)
    return check.result()


def elliptic_residual(phi: AnyStripField, omega: AnyStripField, m: int) -> float:
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


def extract_jets(top: np.ndarray, omega: AnyStripField, m: int) -> Dict[str, JetRecord]:
    """Boundary jets at q = 1 on both phi2 routes, by route, from phi's top
    five q-columns ``top`` (n, 5), the column q = 1 last.

    phi1 is the one-sided 4th-order derivative of phi.  phi2 via the "pde"
    route comes from the stream equation evaluated at q = 1 (where phi = 0
    kills the x-derivatives): phi2 = (-omega(.,1) - (4+2m)*phi1) / 4, which
    is exact for the discrete solution; the "difference" route is the
    independent one-sided second-derivative cross-check, 2nd order in dq.
    The two records share one phi1 and one omega(x, 1).
    """
    b = stream_coefficient(m)
    grid, x_grid = omega.grid, omega.grid.x_grid
    phi1 = _boundary_first_derivative(top, grid.dq)
    omega_b = omega.columns(grid.n_q_intervals, grid.n_q_intervals + 1)[:, 0].copy()
    phi2 = {
        "pde": (-omega_b - b * phi1) / 4.0,
        "difference": _boundary_second_derivative(top, grid.dq),
    }
    phi1, omega_b = PeriodicField(x_grid, phi1), PeriodicField(x_grid, omega_b)
    return {r: JetRecord(phi1, PeriodicField(x_grid, v), omega_b, m) for r, v in phi2.items()}


def jet_relation_residual(jets: JetRecord) -> float:
    """Sup defect of  omega + 4*phi2 + (4+2m)*phi1 = 0  relative to |omega|.

    Zero by construction when phi2 came from the PDE route; with the
    difference route it measures the cross-check disagreement instead.
    """
    omega_b = jets.omega_boundary.values
    defect = omega_b + 4.0 * jets.phi2.values + stream_coefficient(jets.m) * jets.phi1.values
    return float(np.max(np.abs(defect)) / max(np.max(np.abs(omega_b)), _EPS))


def closure_residual(jets: JetRecord, a_jet: float) -> float:
    """Sup distance of the jet pair from the linear closure phi2 = a_jet*phi1."""
    defect = jets.phi2.values - a_jet * jets.phi1.values
    return float(
        np.max(np.abs(defect)) / max(np.max(np.abs(jets.phi1.values)), _EPS)
    )


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


def manufactured_case(
    name: str, m: int, grid: StripGrid
) -> Tuple[RankOneStripField, RankOneStripField]:
    """Exact (phi, omega) pair with phi = h(q) sin of the fundamental x-mode;
    both are rank one on the strip."""
    if name not in _CASE_PROFILES:
        raise ValueError(
            f"unknown manufactured case {name!r}; choose from {', '.join(MANUFACTURED_CASES)}"
        )
    h, hp, hpp = _CASE_PROFILES[name]
    q = grid.q_nodes
    k1 = 2.0 * np.pi / grid.x_grid.period_L
    sin_x = np.sin(k1 * grid.x_grid.nodes)
    profile_omega = k1**2 * h(q) - 4.0 * q * hpp(q) - stream_coefficient(m) * hp(q)
    return RankOneStripField(grid, h(q), sin_x), RankOneStripField(grid, profile_omega, sin_x)


class ManufacturedChecks(NamedTuple):
    """What :func:`manufactured_pass` measures of one manufactured solve."""

    solve_max_error: float  # sup |phi - phi_exact|
    residuals: Tuple[float, float]  # (absolute, scaled), as elliptic_residuals
    jets: Dict[str, JetRecord]  # by phi2 route, as extract_jets


def manufactured_pass(
    phi_exact: AnyStripField, omega: AnyStripField, m: int
) -> ManufacturedChecks:
    """Solve for ``omega`` and check phi against ``phi_exact`` in one pass:
    the numbers, bit for bit, of solve_elliptic followed by the sup error
    and elliptic_residuals, and the jets of :func:`extract_jets`, with no
    strip-sized array.  Each segment of the solve is transformed back over
    its own bytes and fed to the checks as it comes, from the top down; the
    band and one scratch block serve the solve and the checks, and phi's top
    five q-columns are kept for the jets.  Each block's array is dropped as
    soon as the next step no longer needs it, so the pass holds one block's
    arrays at a time beside the solve's checkpoints."""
    grid = omega.grid
    band, scratch = _band(m, grid.n_q_intervals, grid.dq), _scratch(grid)
    residual, load = _ResidualPass(band, omega, scratch), _stream_rhs(omega, scratch)
    n = grid.x_grid.n_points
    error, top = 0.0, np.empty((n, 0))
    for lo, hi, phi_hat in solve_banded_segments(band, grid.x_grid.wavenumbers**2, load):
        phi = _irfft_in_place(phi_hat, n).T
        del phi_hat  # phi views its bytes, which go with phi
        # in the scratch, where a rank-one phi_exact's columns are built
        defect = np.subtract(phi, phi_exact.columns(lo, hi, scratch), out=scratch[: hi - lo].T)
        error = max(error, float(np.max(np.abs(defect, out=defect))))
        if top.shape[1] < 5:
            top = np.concatenate((phi[:, -5:], top), axis=1)[:, -5:]
        residual.take(lo, hi, phi)
        del phi  # not alive beside the residual pass's block arrays
        residual.finish(lo, hi)
    return ManufacturedChecks(error, residual.result(), extract_jets(top, omega, m))
