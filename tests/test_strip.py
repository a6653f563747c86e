import json

import numpy as np
import pytest

from jetlab import (
    JetRecord,
    PeriodicField,
    PeriodicGrid,
    StripField,
    StripGrid,
    closure_residual,
    compute_velocities,
    elliptic_residual,
    elliptic_residuals,
    extract_jets,
    jet_relation_residual,
    load_strip_field,
    manufactured_case,
    manufactured_error,
    manufactured_omega,
    save_strip_field,
    solve_elliptic,
)
from jetlab import strip
from jetlab.strip import _HEADER, _band


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
        for values in (phi_exact.values, omega.values, phi.values):
            assert values.flags.f_contiguous

    def test_unknown_case_lists_the_cases(self):
        with pytest.raises(ValueError, match="choose from linear, quadratic, quadratic_minus, exp"):
            manufactured_case("cubic", 1, strip_grid(16, 16))


class TestManufactured:
    """jet-verify's omega-only builder and blocked error against the whole-strip pair."""

    @pytest.mark.parametrize("case", ["linear", "quadratic", "quadratic_minus", "exp"])
    @pytest.mark.parametrize("m", [1, 2])
    def test_omega_alone_is_the_pairs_omega(self, case, m):
        grid = strip_grid(32, 48)
        assert_same_bits(manufactured_omega(case, m, grid).values, manufactured_case(case, m, grid)[1].values)

    @pytest.mark.parametrize("block", [1, 5, 16, 64])
    @pytest.mark.parametrize("case", ["linear", "exp"])
    def test_error_is_the_whole_strip_error(self, monkeypatch, case, block):
        monkeypatch.setattr(strip, "_RESIDUAL_BLOCK", block)
        grid = strip_grid(32, 48)
        phi_exact, omega = manufactured_case(case, 2, grid)
        phi = solve_elliptic(2, omega)
        expected = float(np.max(np.abs(phi.values - phi_exact.values)))
        assert expected > 0.0
        assert manufactured_error(case, 2, phi) == expected
        assert manufactured_error(case, 2, phi_exact) == 0.0

    def test_unknown_case_is_rejected_by_every_builder(self):
        grid = strip_grid(16, 16)
        zero = StripField(grid, np.zeros((16, 17)))
        for build in (lambda: manufactured_omega("cubic", 1, grid), lambda: manufactured_error("cubic", 1, zero)):
            with pytest.raises(ValueError, match="choose from"):
                build()


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
                omega.values[:, 0]
                - boundary_coef * np.sin(grid.x_grid.nodes)
            )
        ) <= 1e-12  # omega(x, 0) = (7 - 0) sin for m = 1, (9 - 0) sin for m = 2
        phi = solve_elliptic(m, omega)
        assert np.max(np.abs(phi.values - phi_exact.values)) <= 1e-6
        assert elliptic_residual(phi, omega, m) <= 1e-10 * np.max(np.abs(omega.values))

    @pytest.mark.parametrize("m", [1, 2])
    def test_order_two_convergence(self, m):
        errors = []
        for M in (64, 128, 256):
            grid = strip_grid(64, M)
            phi_exact, omega = manufactured_case("exp", m, grid)
            phi = solve_elliptic(m, omega)
            errors.append(np.max(np.abs(phi.values - phi_exact.values)))
        for e1, e2 in zip(errors, errors[1:]):
            assert 3.6 <= e1 / e2 <= 4.4

    @pytest.mark.parametrize("m", [1, 2])
    def test_scaled_residual_where_the_fixed_bound_fails(self, m):
        # band entries ~ 8/dq^2 ~ 3e7 make an exact solve's absolute defect
        # exceed 1e-10 max|omega|; the scaled defect stays at rounding level
        grid = strip_grid(64, 2048)
        _, omega = manufactured_case("linear", m, grid)
        phi = solve_elliptic(m, omega)
        assert elliptic_residual(phi, omega, m) > 1e-10 * np.max(np.abs(omega.values))
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
    phi_values, omega_values = np.ascontiguousarray(phi.values), np.ascontiguousarray(omega.values)
    band = _band(m, grid.n_q_intervals, grid.dq)
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


def one_pass_solve(m, omega):
    """The solve as one whole-strip pass: rfft, a negated C-ordered copy,
    the sweep, irfft; the oracle the blocked solve must match bit for bit."""
    grid = omega.grid
    M = grid.n_q_intervals
    rhs = np.negative(np.fft.rfft(omega.values, axis=0).T, order="C")
    rhs[M] = 0.0
    phi_hat = strip.solve_banded(_band(m, M, grid.dq), grid.x_grid.wavenumbers**2, rhs)
    return np.fft.irfft(phi_hat.T, n=grid.x_grid.n_points, axis=0)


class TestBlockedSolve:
    """solve_elliptic against the one-pass oracle, bit for bit."""

    SIZES = TestAgainstPerModeOracle.SIZES + [(256, 40), (64, 2048)]

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("n,M", SIZES)
    def test_matches_one_pass_oracle(self, m, n, M):
        omega = random_forcing(strip_grid(n, M), seed=n + M + m)
        assert_same_bits(solve_elliptic(m, omega).values, one_pass_solve(m, omega))

    @pytest.mark.parametrize("m", [1, 2])
    def test_phi_is_written_over_its_own_spectrum(self, m):
        n, M = 64, 100
        omega = random_forcing(strip_grid(n, M), seed=m)
        values = solve_elliptic(m, omega).values
        spectrum = values.base
        while spectrum.base is not None:
            spectrum = spectrum.base
        assert spectrum.dtype == complex and spectrum.shape == (M + 1, n // 2 + 1)
        assert values.flags.f_contiguous and np.shares_memory(values, spectrum)


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

    @pytest.mark.parametrize("block", [1, 5, 7, 16])
    def test_block_size_does_not_change_the_bits(self, monkeypatch, block):
        monkeypatch.setattr(strip, "_RESIDUAL_BLOCK", block)
        grid = strip_grid(64, 48)  # 33 modes
        omega = random_forcing(grid, seed=block)
        solved = solve_elliptic(1, omega).values
        assert_same_bits(solved, one_pass_solve(1, omega))
        phi = StripField(grid, solved + 1e-3)
        self.assert_matches_oracle(phi, omega, 1)


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


class TestVelocities:
    def test_manufactured_velocities(self):
        grid = strip_grid(64, 256)
        phi_exact, _ = manufactured_case("linear", 1, grid)
        v, g = compute_velocities(phi_exact, 1)
        x = grid.x_grid.nodes
        q = grid.q_nodes
        v_exact = np.cos(x)[:, None] * (1 - q)[None, :]
        g_exact = np.sin(x)[:, None] * (1 - 3 * q)[None, :]
        assert np.max(np.abs(v.values - v_exact)) <= 1e-12
        assert np.max(np.abs(g.values - g_exact)) <= 1e-12
        # boundary axial flow is twice the first jet: g(x, 1) = -2 sin x
        assert np.max(np.abs(g.values[:, -1] + 2 * np.sin(x))) <= 1e-12

    def test_constant_phi(self):
        grid = strip_grid(16, 32, 1.0)
        phi = StripField(grid, np.full((16, 33), 4.0))
        v, g = compute_velocities(phi, 2)
        assert np.max(np.abs(v.values)) <= 1e-12
        assert np.max(np.abs(g.values - 8.0)) <= 1e-11

    def test_no_flow_on_boundary_for_solver_output(self):
        grid = strip_grid(32, 64)
        _, omega = manufactured_case("exp", 1, grid)
        phi = solve_elliptic(1, omega)
        v, _ = compute_velocities(phi, 1)
        assert np.max(np.abs(v.values[:, -1])) <= 1e-11


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        grid = strip_grid(16, 32, 3.0)
        rng = np.random.RandomState(0)
        field = StripField(grid, rng.randn(16, 33))
        path = tmp_path / "field.bin"
        save_strip_field(field, path)
        back = load_strip_field(path)
        assert np.array_equal(back.values, field.values)
        assert back.grid.x_grid.period_L == 3.0
        sidecar = json.loads((tmp_path / "field.bin.json").read_text())
        assert sidecar["n_x"] == 16
        assert sidecar["n_q_intervals"] == 32
        assert sidecar["byte_order"] == "little"

    def test_payload_is_row_major_whatever_the_input_layout(self, tmp_path):
        grid = strip_grid(16, 32, 3.0)
        c_values = np.random.RandomState(2).randn(16, 33)
        payloads = []
        for values in (c_values, np.asfortranarray(c_values)):
            path = tmp_path / f"field_{len(payloads)}.bin"
            save_strip_field(StripField(grid, values), path)
            payloads.append(path.read_bytes())
        assert payloads[0] == payloads[1]
        assert payloads[0][_HEADER.size:] == c_values.astype("<f8").tobytes()

    @pytest.mark.parametrize("block", [1, 7, 16, 64])
    def test_payload_does_not_depend_on_the_block_of_rows(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(strip, "_RESIDUAL_BLOCK", block)
        c_values = np.random.RandomState(3).randn(40, 17)  # 40 rows: a partial last block for 7, 16
        for layout, values in (("c", c_values), ("f", np.asfortranarray(c_values))):
            path = tmp_path / f"field_{layout}.bin"
            save_strip_field(StripField(strip_grid(40, 16, 3.0), values), path)
            assert path.read_bytes()[_HEADER.size:] == c_values.astype("<f8").tobytes()
            assert_same_bits(load_strip_field(path).values, c_values)
