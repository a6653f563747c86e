import weakref

import numpy as np
import pytest

from jetlab import (
    MANUFACTURED_CASES,
    JetRecord,
    PeriodicField,
    PeriodicGrid,
    RankOneStripField,
    StripField,
    StripGrid,
    closure_residual,
    elliptic_residual,
    elliptic_residuals,
    extract_jets,
    jet_relation_residual,
    manufactured_case,
    solve_elliptic,
)
from jetlab import strip
from jetlab.cli import main
from jetlab.strip import _band


def strip_grid(n=64, M=256, L=2 * np.pi):
    return StripGrid(PeriodicGrid(n, L), M)


def assert_same_bits(actual, expected):
    assert actual.shape == expected.shape
    assert np.array_equal(actual.view(np.uint64), expected.view(np.uint64))


class TestGridAndField:
    def test_min_intervals(self):
        with pytest.raises(ValueError):
            StripGrid(PeriodicGrid(16, 1.0), 8)

    def test_shape_and_finiteness(self):
        grid = strip_grid(16, 16, 1.0)
        with pytest.raises(ValueError):
            StripField(grid, np.zeros((16, 16)))
        with pytest.raises(ValueError):
            StripField(grid, np.full((16, 17), np.inf))

    @pytest.mark.parametrize("column", [0, 15, 16, 32])  # blocks of 16 q-columns: 0..15, 16..31, 32
    def test_every_block_is_checked_for_finiteness(self, column):
        values = np.zeros((16, 33))
        values[5, column] = np.nan
        with pytest.raises(ValueError, match="must be finite"):
            StripField(strip_grid(16, 32), values)

    def test_values_are_stored_x_contiguous(self):
        grid = strip_grid(16, 32)
        c_values = np.random.RandomState(1).randn(16, 33)
        field = StripField(grid, c_values)
        assert field.values.flags.f_contiguous
        assert np.array_equal(field.values, c_values)
        assert StripField(grid, field.values).values is field.values  # no second copy

    def test_strip_builders_return_x_contiguous_values(self):
        phi_exact, omega = manufactured_case("exp", 2, strip_grid(16, 32))
        phi = solve_elliptic(2, omega)
        for values in (phi_exact.columns(0, 33), omega.columns(0, 33), phi.values):
            assert values.flags.f_contiguous

    def test_unknown_case_lists_the_cases(self):
        with pytest.raises(ValueError, match="choose from linear, quadratic, quadratic_minus, exp"):
            manufactured_case("cubic", 1, strip_grid(16, 16))


class TestRankOneField:
    """RankOneStripField against the dense strip it stands for."""

    def test_values_and_columns_are_the_outer_product(self):
        grid = strip_grid(16, 32)
        rng = np.random.RandomState(4)
        q, x = rng.randn(33), rng.randn(16)
        field = RankOneStripField(grid, q, x)
        values = field.columns(0, 33)
        assert values.flags.f_contiguous
        assert_same_bits(values, x[:, None] * q[None, :])
        scratch = np.full((4, 16), np.nan)
        block = field.columns(5, 8, scratch)
        assert block.shape == (16, 3) and np.shares_memory(block, scratch)
        assert_same_bits(block, values[:, 5:8])
        assert_same_bits(field.columns(32, 33), values[:, 32:])

    @pytest.mark.parametrize(
        "q_shape,x_shape", [((32,), (16,)), ((33,), (17,)), ((33, 1), (16,)), ((), (16,))]
    )
    def test_profile_shapes_are_checked(self, q_shape, x_shape):
        with pytest.raises(ValueError, match=r"values must have shape \(16, 33\)"):
            RankOneStripField(strip_grid(16, 32), np.ones(q_shape), np.ones(x_shape))

    @pytest.mark.parametrize(
        "q_entry,x_entry",
        [(np.nan, 1.0), (1.0, np.inf), (1e200, 1e200), (0.0, np.inf)],
        ids=["nan", "inf", "product-overflows", "zero-times-inf"],
    )
    def test_values_must_be_finite(self, q_entry, x_entry):
        q, x = np.ones(33), np.ones(16)
        q[7], x[3] = q_entry, x_entry
        with pytest.raises(ValueError, match="must be finite"):
            RankOneStripField(strip_grid(16, 32), q, x)

    def test_manufactured_fields_are_rank_one(self):
        phi, omega = manufactured_case("exp", 1, strip_grid(16, 32))
        assert isinstance(phi, RankOneStripField) and isinstance(omega, RankOneStripField)

    @pytest.mark.parametrize("block", [1, 5, 16, 64])
    @pytest.mark.parametrize("case", MANUFACTURED_CASES)
    @pytest.mark.parametrize("m", [1, 2])
    def test_strip_passes_see_the_bits_of_the_dense_copy(self, monkeypatch, m, case, block):
        monkeypatch.setattr(strip, "_RESIDUAL_BLOCK", block)
        grid = strip_grid(64, 48)
        _, omega = manufactured_case(case, m, grid)
        dense = StripField(grid, omega.columns(0, 49))
        phi = solve_elliptic(m, omega)
        assert_same_bits(phi.values, solve_elliptic(m, dense).values)
        assert elliptic_residuals(phi, omega, m) == elliptic_residuals(phi, dense, m)
        for route in ("pde", "difference"):
            jets, dense_jets = extract_jets(phi, omega, m, route), extract_jets(phi, dense, m, route)
            for name in ("phi1", "phi2", "omega_boundary"):
                assert_same_bits(getattr(jets, name).values, getattr(dense_jets, name).values)


class TestManufactured:
    """What jet-verify hands its pass, and the pass's blocked error, against
    the whole-strip pair."""

    @pytest.mark.parametrize("case", ["linear", "quadratic", "quadratic_minus", "exp"])
    @pytest.mark.parametrize("m", [1, 2])
    def test_omega_alone_is_the_pairs_omega(self, monkeypatch, capsys, case, m):
        # jet-verify builds the case once and hands its exact pair to the pass
        built, handed = [], []

        def recorded(log, call):
            return lambda *args: log.append(args) or call(*args)

        monkeypatch.setattr("jetlab.cli.manufactured_case", recorded(built, manufactured_case))
        monkeypatch.setattr(strip, "manufactured_case", recorded(built, manufactured_case))
        monkeypatch.setattr("jetlab.cli.manufactured_pass", recorded(handed, strip.manufactured_pass))
        main(["jet-verify", str(m), "48", case, "--n", "32"])
        assert [args[:2] for args in built] == [(case, m)]
        (phi_exact, omega, m_handed), = handed
        pair = manufactured_case(case, m, strip_grid(32, 48))
        assert m_handed == m
        for field, expected in zip((phi_exact, omega), pair):
            assert_same_bits(field.columns(0, 49), expected.columns(0, 49))

    @pytest.mark.parametrize("block", [1, 5, 16, 64])
    @pytest.mark.parametrize("case", ["linear", "exp"])
    def test_error_is_the_whole_strip_error(self, monkeypatch, case, block):
        monkeypatch.setattr(strip, "_RESIDUAL_BLOCK", block)
        grid = strip_grid(32, 48)
        phi_exact, omega = manufactured_case(case, 2, grid)
        phi = solve_elliptic(2, omega)
        expected = float(np.max(np.abs(phi.values - phi_exact.columns(0, 49))))
        assert expected > 0.0
        assert strip.manufactured_pass(phi_exact, omega, 2).solve_max_error == expected
        solved = phi.values.copy()
        assert strip.manufactured_pass(phi, omega, 2).solve_max_error == 0.0
        assert_same_bits(phi.values, solved)  # the error is formed in the scratch, not in phi


class TestSolveElliptic:
    def test_zero_maps_to_zero(self):
        grid = strip_grid(16, 32)
        omega = StripField(grid, np.zeros((16, 33)))
        phi = solve_elliptic(1, omega)
        assert np.max(np.abs(phi.values)) == 0.0

    @pytest.mark.parametrize("m", [1, 2])
    def test_manufactured_linear(self, m):
        # omega = ((4+2m+k^2) - k^2 q) sin x with k = 1 forces phi = (1-q) sin x
        grid = strip_grid(64, 256)
        phi_exact, omega = manufactured_case("linear", m, grid)
        boundary_coef = 4 + 2 * m + 1
        assert np.max(
            np.abs(
                omega.columns(0, 1)[:, 0]
                - boundary_coef * np.sin(grid.x_grid.nodes)
            )
        ) <= 1e-12  # omega(x, 0) = (7 - 0) sin for m = 1, (9 - 0) sin for m = 2
        phi = solve_elliptic(m, omega)
        assert np.max(np.abs(phi.values - phi_exact.columns(0, 257))) <= 1e-6
        assert elliptic_residual(phi, omega, m) <= 1e-10 * np.max(np.abs(omega.columns(0, 257)))

    @pytest.mark.parametrize("m", [1, 2])
    def test_order_two_convergence(self, m):
        errors = []
        for M in (64, 128, 256):
            grid = strip_grid(64, M)
            phi_exact, omega = manufactured_case("exp", m, grid)
            phi = solve_elliptic(m, omega)
            errors.append(np.max(np.abs(phi.values - phi_exact.columns(0, M + 1))))
        for e1, e2 in zip(errors, errors[1:]):
            assert 3.6 <= e1 / e2 <= 4.4

    @pytest.mark.parametrize("m", [1, 2])
    def test_scaled_residual_where_the_fixed_bound_fails(self, m):
        # band entries ~ 8/dq^2 ~ 3e7 make an exact solve's absolute defect
        # exceed 1e-10 max|omega|; the scaled defect stays at rounding level
        grid = strip_grid(64, 2048)
        _, omega = manufactured_case("linear", m, grid)
        phi = solve_elliptic(m, omega)
        assert elliptic_residual(phi, omega, m) > 1e-10 * np.max(np.abs(omega.columns(0, 2049)))
        assert elliptic_residuals(phi, omega, m)[1] <= 1e-14

    def test_k_zero_mode_handled(self):
        # pure x-mean forcing exercises the k = 0 branch
        grid = strip_grid(16, 64)
        q = grid.q_nodes
        omega = StripField(grid, np.tile(1.0 + q, (16, 1)))
        phi = solve_elliptic(1, omega)
        assert elliptic_residual(phi, omega, 1) <= 1e-10 * 2.0
        assert np.max(np.abs(phi.values[:, -1])) <= 1e-14  # Dirichlet at q = 1

    def test_maximum_principle_empirical(self):
        grid = strip_grid(32, 64)
        x = grid.x_grid.nodes
        q = grid.q_nodes
        for m in (1, 2):
            omega = StripField(
                grid, (2.0 + np.cos(x))[:, None] * (1.0 + q)[None, :]
            )
            phi = solve_elliptic(m, omega)
            assert np.min(phi.values) >= -1e-12

    def test_m_validated(self):
        grid = strip_grid(16, 32)
        with pytest.raises(ValueError):
            solve_elliptic(3, StripField(grid, np.zeros((16, 33))))

    def test_residual_validates_m(self):
        zero = StripField(strip_grid(16, 32), np.zeros((16, 33)))
        with pytest.raises(ValueError, match="m must be 1 or 2"):
            elliptic_residual(zero, zero, 3)

    @pytest.mark.parametrize("route", ["pde", "difference"])
    def test_jets_validate_m(self, route):
        zero = StripField(strip_grid(16, 32), np.zeros((16, 33)))
        phi = solve_elliptic(1, zero)
        with pytest.raises(ValueError, match="m must be 1 or 2"):
            extract_jets(phi, zero, 3, route)


def oracle_mode_matrices(m, grid):
    """Each x-mode's dense (M+1) x (M+1) matrix, unpacked from the shared band."""
    M = grid.n_q_intervals
    ab = _band(m, M, grid.dq)
    base = np.diag(ab[0, 2:], 2) + np.diag(ab[1, 1:], 1) + np.diag(ab[2]) + np.diag(ab[3, :-1], -1)
    rows_below_one = np.diag((np.arange(M + 1) < M).astype(float))
    for k in grid.x_grid.wavenumbers:
        yield base - float(k**2) * rows_below_one


def oracle_solve(m, omega):
    grid = omega.grid
    M = grid.n_q_intervals
    omega_hat = np.fft.rfft(omega.values, axis=0)
    phi_hat = np.empty_like(omega_hat)
    for mode, matrix in enumerate(oracle_mode_matrices(m, grid)):
        rhs = -omega_hat[mode]
        rhs[M] = 0.0
        phi_hat[mode] = np.linalg.solve(matrix, rhs)
    return np.fft.irfft(phi_hat, n=grid.x_grid.n_points, axis=0)


def oracle_residual(phi, omega, m):
    """The residual stencils written out by hand: interior rows, then q = 0."""
    grid = phi.grid
    M, dq = grid.n_q_intervals, grid.dq
    k = grid.x_grid.wavenumbers
    phi_hat = np.fft.rfft(phi.values, axis=0)
    omega_hat = np.fft.rfft(omega.values, axis=0)
    b_coef = 4.0 + 2.0 * m
    q = dq * np.arange(1, M)
    res = (
        4.0 * q * (phi_hat[:, 2:] - 2 * phi_hat[:, 1:M] + phi_hat[:, : M - 1]) / dq**2
        + b_coef * (phi_hat[:, 2:] - phi_hat[:, : M - 1]) / (2 * dq)
        - (k**2)[:, None] * phi_hat[:, 1:M]
        + omega_hat[:, 1:M]
    )
    res0 = (
        b_coef * (-3 * phi_hat[:, 0] + 4 * phi_hat[:, 1] - phi_hat[:, 2]) / (2 * dq)
        - k**2 * phi_hat[:, 0]
        + omega_hat[:, 0]
    )
    physical = np.fft.irfft(
        np.concatenate([res0[:, None], res], axis=1), n=grid.x_grid.n_points, axis=0
    )
    return float(np.max(np.abs(physical)))


def random_forcing(grid, seed):
    rng = np.random.RandomState(seed)
    x, q = grid.x_grid.nodes, grid.q_nodes
    values = np.zeros((grid.x_grid.n_points, grid.n_q_intervals + 1))
    for k in range(grid.x_grid.n_points // 2):
        values += rng.randn() * np.cos(k * x + rng.rand())[:, None] * np.exp(-k * q)[None, :]
    return StripField(grid, values)


class TestAgainstPerModeOracle:
    """The shared band against the per-mode matrices and hand-written stencils."""

    SIZES = [(16, 16), (32, 48), (64, 100), (64, 256), (128, 64)]

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("n,M", SIZES)
    def test_solve_matches_oracle(self, m, n, M):
        omega = random_forcing(strip_grid(n, M), seed=n + M + m)
        phi = solve_elliptic(m, omega).values
        expected = oracle_solve(m, omega)
        assert np.max(np.abs(phi - expected)) <= 1e-13 * np.max(np.abs(expected))
        assert elliptic_residuals(StripField(omega.grid, phi), omega, m)[1] <= 1e-14

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("n,M", SIZES)
    def test_residual_matches_oracle(self, m, n, M):
        grid = strip_grid(n, M)
        omega = random_forcing(grid, seed=n + M + m)
        phi = solve_elliptic(m, omega)
        noise = 1e-3 * np.random.RandomState(M).randn(*phi.values.shape)
        at_q0 = np.zeros_like(noise)
        at_q0[:, 0] = noise[:, 0]  # the one-sided q = 0 row carries the defect
        for delta in (noise, at_q0):
            perturbed = StripField(grid, phi.values + delta)
            expected = oracle_residual(perturbed, omega, m)
            assert expected > 1e-6 * np.max(np.abs(omega.values))
            assert abs(elliptic_residual(perturbed, omega, m) - expected) <= 1e-12 * expected

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("n,M", SIZES)
    def test_scaled_residual_matches_dense_oracle(self, m, n, M):
        grid = strip_grid(n, M)
        omega = random_forcing(grid, seed=n + M + m)
        noise = 1e-3 * np.random.RandomState(M).randn(n, M + 1)
        phi = StripField(grid, solve_elliptic(m, omega).values + noise)
        phi_hat = np.fft.rfft(phi.values, axis=0)
        omega_hat = np.fft.rfft(omega.values, axis=0)[:, :M]
        defect, scale = 0.0, 0.0
        for mode, matrix in enumerate(oracle_mode_matrices(m, grid)):
            defect = max(defect, np.max(np.abs(matrix[:M] @ phi_hat[mode] + omega_hat[mode])))
            scale = max(scale, np.max(np.abs(matrix[:M]) @ np.abs(phi_hat[mode])))
        expected = defect / (scale + np.max(np.abs(omega_hat)))
        assert abs(elliptic_residuals(phi, omega, m)[1] - expected) <= 1e-12 * expected


def two_pass_band_product(ab, k2, v):
    res = ab[2] * v
    res[:, :-1] += ab[1, 1:] * v[:, 1:]
    res[:, :-2] += ab[0, 2:] * v[:, 2:]
    res[:, 1:] += ab[3, :-1] * v[:, :-1]
    res -= k2[:, None] * v
    return res[:, :-1]


def two_pass_residuals(phi, omega, m):
    """The absolute and scaled residuals as two separate formulas, each with
    its own transforms of row-major copies of phi and omega: the oracle the
    one-pass form must match bit for bit."""
    grid = phi.grid
    M = grid.n_q_intervals
    phi_values = np.ascontiguousarray(phi.values)
    omega_values = np.ascontiguousarray(omega.columns(0, M + 1))
    band = _band(m, M, grid.dq)
    k2 = grid.x_grid.wavenumbers**2

    res = two_pass_band_product(band, k2, np.fft.rfft(phi_values, axis=0))
    res += np.fft.rfft(omega_values[:, :-1], axis=0)
    physical = np.fft.irfft(res, n=grid.x_grid.n_points, axis=0)
    absolute = float(np.max(np.abs(physical)))

    phi_hat = np.fft.rfft(phi_values, axis=0)
    omega_hat = np.fft.rfft(omega_values[:, :-1], axis=0)
    defect = np.max(np.abs(two_pass_band_product(band, k2, phi_hat) + omega_hat))
    scale = np.max(two_pass_band_product(np.abs(band), -k2, np.abs(phi_hat))) + np.max(
        np.abs(omega_hat)
    )
    return absolute, float(defect / max(scale, 1e-300))


def full_pivot_sweep(ab, k2, rhs):
    """The elimination of solve_banded keeping every pivot row, (M+1, K)
    reals: the oracle the checkpointed sweep must match bit for bit."""
    M = ab.shape[1] - 1
    upper, lower = ab[1, 1:].tolist(), ab[3, :-1].tolist()
    pivot = np.subtract.outer(ab[2], k2)
    pivot[M] = ab[2, M]
    x = rhs
    f = ab[0, 2] / upper[1]
    pivot[0] -= f * lower[0]
    upper[0] = upper[0] - f * pivot[1]
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


def one_pass_solve(m, omega):
    """The solve as one whole-strip pass: rfft, a negated C-ordered copy,
    the full-pivot sweep, irfft; the oracle the blocked solve must match bit
    for bit."""
    grid = omega.grid
    M = grid.n_q_intervals
    rhs = np.negative(np.fft.rfft(omega.columns(0, M + 1), axis=0).T, order="C")
    rhs[M] = 0.0
    phi_hat = full_pivot_sweep(_band(m, M, grid.dq), grid.x_grid.wavenumbers**2, rhs)
    return np.fft.irfft(phi_hat.T, n=grid.x_grid.n_points, axis=0)


class TestCheckpointedSweep:
    """solve_banded, which keeps one pivot row per block, against the sweep
    that keeps them all."""

    # M + 1 rows in blocks of 16: M = 31 fills two blocks, M = 16 and 32 leave
    # a top segment of one row, M = 100 spans seven.  Other block sizes are
    # TestResidualPass.test_block_size_does_not_change_the_bits.
    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("M", [16, 17, 31, 32, 33, 100])
    @pytest.mark.parametrize("n", [8, 64])
    def test_matches_full_pivot_sweep(self, m, M, n):
        ab, k2 = _band(m, M, 1.0 / M), strip_grid(n, M).x_grid.wavenumbers**2
        rng = np.random.default_rng(1000 * m + 10 * M + n)
        rhs = rng.standard_normal((M + 1, k2.size)) + 1j * rng.standard_normal((M + 1, k2.size))
        expected = full_pivot_sweep(ab, k2, rhs.copy())
        solved = strip.solve_banded(ab, k2, rhs)
        assert solved is rhs and solved.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("block", [1, 2, 5, 16])
    def test_segments_come_top_down_from_two_loads_each(self, monkeypatch, block):
        monkeypatch.setattr(strip, "_RESIDUAL_BLOCK", block)
        M = 33
        ab, k2 = _band(2, M, 1.0 / M), strip_grid(16, M).x_grid.wavenumbers**2
        rng = np.random.default_rng(block)
        rhs = rng.standard_normal((M + 1, k2.size)) + 1j * rng.standard_normal((M + 1, k2.size))
        loads = []

        def load(lo, hi):
            loads.append((lo, hi))
            return rhs[lo:hi].copy()

        segments = [(lo, hi, x.copy()) for lo, hi, x in strip.solve_banded_segments(ab, k2, load)]
        blocks = [(lo, min(lo + block, M + 1)) for lo in range(0, M + 1, block)]
        assert [(lo, hi) for lo, hi, _ in segments] == blocks[::-1]
        solution = np.concatenate([x for _, _, x in segments[::-1]])
        assert solution.tobytes() == full_pivot_sweep(ab, k2, rhs.copy()).tobytes()
        # the forward sweep, with row 1 read apart when it is not in row 0's segment,
        # then every segment below the top one again
        shed = [(1, 2)] if block == 1 else []
        assert loads == blocks[:1] + shed + blocks[1:] + blocks[-2::-1]

    @pytest.mark.parametrize("block", [1, 5, 16])
    def test_each_segment_is_handed_over(self, monkeypatch, block):
        # the suspended solve keeps no reference: a dropped segment is freed at once
        monkeypatch.setattr(strip, "_RESIDUAL_BLOCK", block)
        M = 33
        ab, k2 = _band(1, M, 1.0 / M), strip_grid(16, M).x_grid.wavenumbers**2
        rhs = np.random.default_rng(block).standard_normal((M + 1, k2.size)) + 0j
        handed = 0
        for lo, hi, x in strip.solve_banded_segments(ab, k2, lambda lo, hi: rhs[lo:hi].copy()):
            segment = weakref.ref(x)
            del x
            assert segment() is None, (lo, hi)
            handed += 1
        assert handed == len(range(0, M + 1, block))


class TestBlockedSolve:
    """solve_elliptic against the one-pass oracle, bit for bit."""

    SIZES = TestAgainstPerModeOracle.SIZES + [(256, 40), (64, 2048)]

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("n,M", SIZES)
    def test_matches_one_pass_oracle(self, m, n, M):
        omega = random_forcing(strip_grid(n, M), seed=n + M + m)
        assert_same_bits(solve_elliptic(m, omega).values, one_pass_solve(m, omega))

    @pytest.mark.parametrize("block", [1, 16, 64])
    @pytest.mark.parametrize("m", [1, 2])
    def test_omega_blocks_are_built_in_phi(self, monkeypatch, m, block):
        # phi is the solve's one strip: omega's blocks are built in its lowest
        # columns, which the top-down back substitution writes last
        monkeypatch.setattr(strip, "_RESIDUAL_BLOCK", block)
        _, omega = manufactured_case("exp", m, strip_grid(64, 100))
        scratches = []

        class Recorded:  # omega as the solve reads it
            grid = omega.grid

            def columns(self, lo, hi, out=None):
                scratches.append(out)
                return omega.columns(lo, hi, out)

        values = solve_elliptic(m, Recorded()).values
        assert values.base is None and values.flags.f_contiguous
        assert scratches and all(np.shares_memory(out, values) for out in scratches)
        assert_same_bits(values, one_pass_solve(m, StripField(omega.grid, omega.columns(0, 101))))


class TestResidualPass:
    """elliptic_residuals against the two-formula oracle, bit for bit."""

    # n/2+1 is odd for every n here, so no size fills a whole number of
    # blocks; (256, 40) spans several blocks
    SIZES = TestAgainstPerModeOracle.SIZES + [(256, 40), (64, 2048)]

    @staticmethod
    def assert_matches_oracle(phi, omega, m):
        expected = two_pass_residuals(phi, omega, m)
        assert elliptic_residuals(phi, omega, m) == expected
        assert elliptic_residual(phi, omega, m) == expected[0]

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("n,M", SIZES)
    def test_matches_two_formula_oracle(self, m, n, M):
        grid = strip_grid(n, M)
        omega = random_forcing(grid, seed=n + M + m)
        phi = solve_elliptic(m, omega)
        noise = 1e-3 * np.random.RandomState(M).randn(n, M + 1)
        for candidate in (phi, StripField(grid, phi.values + noise)):
            self.assert_matches_oracle(candidate, omega, m)

    @pytest.mark.parametrize("m", [1, 2])
    def test_matches_oracle_where_the_fixed_bound_fails(self, m):
        grid = strip_grid(64, 2048)
        _, omega = manufactured_case("linear", m, grid)
        self.assert_matches_oracle(solve_elliptic(m, omega), omega, m)

    @pytest.mark.parametrize("block", [1, 5, 7, 16, 2, 3, 64])
    def test_block_size_does_not_change_the_bits(self, monkeypatch, block):
        monkeypatch.setattr(strip, "_RESIDUAL_BLOCK", block)
        grid = strip_grid(64, 48)  # 33 modes
        omega = random_forcing(grid, seed=block)
        solved = solve_elliptic(1, omega).values
        assert_same_bits(solved, one_pass_solve(1, omega))
        phi = StripField(grid, solved + 1e-3)
        self.assert_matches_oracle(phi, omega, 1)

    @pytest.mark.parametrize("block", [1, 2, 3, 5, 16, 64])
    def test_each_phi_column_is_transformed_once(self, monkeypatch, block):
        monkeypatch.setattr(strip, "_RESIDUAL_BLOCK", block)
        grid = strip_grid(16, 20)
        omega = random_forcing(grid, seed=block)
        phi = solve_elliptic(1, omega)
        read = []

        class Recorded:  # phi as the pass reads it, column by column
            grid = phi.grid

            def columns(self, lo, hi, out=None):
                read.extend(range(lo, hi))
                return phi.columns(lo, hi, out)

        assert elliptic_residuals(Recorded(), omega, 1) == two_pass_residuals(phi, omega, 1)
        top_down = [range(lo, min(lo + block, 21)) for lo in reversed(range(0, 21, block))]
        assert read == [column for columns in top_down for column in columns]  # each once, top down


class TestStreamedPass:
    """manufactured_pass, jet-verify's one pass over the solve's segments,
    against the field routes and the whole-strip oracles, bit for bit."""

    @staticmethod
    def assert_matches_field_routes(case, m, grid):
        phi_exact, omega = manufactured_case(case, m, grid)
        checks = strip.manufactured_pass(phi_exact, omega, m)
        phi = solve_elliptic(m, omega)
        assert_same_bits(phi.values, one_pass_solve(m, omega))
        expected = float(np.max(np.abs(phi.values - phi_exact.columns(0, grid.n_q_intervals + 1))))
        assert checks.solve_max_error == expected
        assert checks.residuals == elliptic_residuals(phi, omega, m)
        assert checks.residuals == two_pass_residuals(phi, omega, m)
        assert set(checks.jets) == {"pde", "difference"}
        for route, jets in checks.jets.items():
            expected = extract_jets(phi, omega, m, route)
            for name in ("phi1", "phi2", "omega_boundary"):
                assert_same_bits(getattr(jets, name).values, getattr(expected, name).values)

    @pytest.mark.parametrize("n", [8, 64])
    @pytest.mark.parametrize("M", [16, 17, 31, 32, 33, 100])
    @pytest.mark.parametrize("case", MANUFACTURED_CASES)
    @pytest.mark.parametrize("m", [1, 2])
    def test_matches_the_field_routes(self, monkeypatch, m, case, M, n):
        # M + 1 columns in blocks: 17 columns fill one block of 16 with a top
        # segment of one column, 32 fill two, 101 leave a partial top segment
        for block in (1, 2, 3, 5, 16, 64):
            monkeypatch.setattr(strip, "_RESIDUAL_BLOCK", block)
            self.assert_matches_field_routes(case, m, strip_grid(n, M))

    def test_unknown_case_fails_before_the_solve(self, monkeypatch, capsys):
        def no_solve(*args):
            raise AssertionError("solved for an unknown case")

        monkeypatch.setattr(strip, "solve_banded_segments", no_solve)
        assert main(["jet-verify", "1", "16", "cubic", "--n", "16"]) == 1
        assert "choose from" in capsys.readouterr().err


class TestJets:
    def test_manufactured_linear_jets(self):
        grid = strip_grid(64, 256)
        phi_exact, omega = manufactured_case("linear", 1, grid)
        phi = solve_elliptic(1, omega)
        jets = extract_jets(phi, omega, 1)
        sin_x = np.sin(grid.x_grid.nodes)
        assert np.max(np.abs(jets.phi1.values + sin_x)) <= 1e-10
        assert np.max(np.abs(jets.phi2.values)) <= 1e-10
        assert np.max(np.abs(jets.omega_boundary.values - 6 * sin_x)) <= 1e-12
        assert jet_relation_residual(jets) <= 1e-12

    def test_zero_jets(self):
        grid = strip_grid(16, 32)
        omega = StripField(grid, np.zeros((16, 33)))
        jets = extract_jets(solve_elliptic(1, omega), omega, 1)
        assert jet_relation_residual(jets) == 0.0
        assert closure_residual(jets, 0.7) == 0.0

    def test_quadratic_recovers_phi2(self):
        grid = strip_grid(64, 256)
        phi_exact, omega = manufactured_case("quadratic", 1, grid)
        phi = solve_elliptic(1, omega)
        jets = extract_jets(phi, omega, 1)
        sin_x = np.sin(grid.x_grid.nodes)
        assert np.max(np.abs(jets.phi2.values - sin_x)) <= 1e-6

    def test_difference_route_cross_check(self):
        grid = strip_grid(64, 256)
        _, omega = manufactured_case("linear", 1, grid)
        phi = solve_elliptic(1, omega)
        jets_diff = extract_jets(phi, omega, 1, phi2_route="difference")
        assert jet_relation_residual(jets_diff) <= 1e-5

    @pytest.mark.parametrize("m", [1, 2])
    def test_phi2_routes_agree_at_second_order(self, m):
        gaps = []
        for M in (64, 128, 256):
            grid = strip_grid(64, M)
            _, omega = manufactured_case("exp", m, grid)
            phi = solve_elliptic(m, omega)
            pde = extract_jets(phi, omega, m, phi2_route="pde").phi2.values
            diff = extract_jets(phi, omega, m, phi2_route="difference").phi2.values
            gaps.append(np.max(np.abs(pde - diff)))
        for g1, g2 in zip(gaps, gaps[1:]):
            assert 3.4 <= g1 / g2 <= 4.6

    def test_perturbed_phi2_residual_is_linear(self):
        grid = strip_grid(64, 256)
        _, omega = manufactured_case("linear", 1, grid)
        phi = solve_elliptic(1, omega)
        jets = extract_jets(phi, omega, 1)
        delta = 1e-3
        sin_x = np.sin(grid.x_grid.nodes)
        perturbed = JetRecord(
            phi1=jets.phi1,
            phi2=PeriodicField(jets.phi2.grid, jets.phi2.values + delta * sin_x),
            omega_boundary=jets.omega_boundary,
            m=jets.m,
        )
        # base residual is ~0, so the defect is exactly 4 delta / ||omega||
        expected = 4 * delta / 6.0
        assert jet_relation_residual(perturbed) == pytest.approx(expected, rel=1e-9)

    def test_closure_residuals(self):
        grid = strip_grid(64, 256)
        for case, a_jet in [("linear", 0.0), ("quadratic_minus", 1.0)]:
            _, omega = manufactured_case(case, 1, grid)
            phi = solve_elliptic(1, omega)
            jets = extract_jets(phi, omega, 1)
            assert closure_residual(jets, a_jet) <= 1e-9

    def test_jet_relation_holds_for_random_forcing(self):
        rng = np.random.RandomState(5)
        grid = strip_grid(32, 64)
        x = grid.x_grid.nodes
        q = grid.q_nodes
        values = np.zeros((32, 65))
        for k in range(4):
            values += rng.randn() * np.cos(k * x)[:, None] * (q**k + 1)[None, :]
        omega = StripField(grid, values)
        for m in (1, 2):
            jets = extract_jets(solve_elliptic(m, omega), omega, m)
            assert jet_relation_residual(jets) <= 1e-12
