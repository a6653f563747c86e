import numpy as np
import pytest

from jetlab import (
    ClosureParams,
    EvolutionState,
    ModelSpec,
    PeriodicField,
    PeriodicGrid,
    antiderivative_zero_mean,
    biot_savart,
    closure_coefficient,
    hilbert_transform,
    reconstruct_rho,
    rhs,
    spectral_derivative,
)
from jetlab.grid import reflect_values
from jetlab.spectral import composite_weights, dealias_filter


def make_state(grid, omega_fn, theta_fn=None, t=0.0):
    omega = PeriodicField(grid, omega_fn(grid.nodes))
    theta = None if theta_fn is None else PeriodicField(grid, theta_fn(grid.nodes))
    return EvolutionState(omega, theta, t)


class TestClosureAlgebra:
    @pytest.mark.parametrize(
        "m,a,expected",
        [(1, 0.0, 1.0 / 3.0), (2, 0.0, 1.0 / 4.0), (1, 1.0, 1.0 / 5.0)],
    )
    def test_coefficients_exact(self, m, a, expected):
        assert closure_coefficient(ClosureParams(m, a)) == expected

    @pytest.mark.parametrize("m,a", [(1, -2.0), (2, -2.0), (1, -1.5)])
    def test_positivity_violation(self, m, a):
        with pytest.raises(ValueError, match="positivity condition violated"):
            closure_coefficient(ClosureParams(m, a))

    def test_m_restricted(self):
        with pytest.raises(ValueError):
            ClosureParams(3, 0.0)

    def test_q0_from_closure(self):
        assert ModelSpec.q0_from_closure(1, 0.0).c == pytest.approx(1.0 / 3.0, abs=0)


class TestModelSpec:
    def test_theta_flags(self):
        assert not ModelSpec.clm().has_theta
        assert not ModelSpec.de_gregorio().has_theta
        assert not ModelSpec.ccf().has_theta
        assert not ModelSpec.okamoto(0.3).has_theta
        assert ModelSpec.hou_luo().has_theta
        assert ModelSpec.cky(1.0).has_theta
        assert ModelSpec.q0(0.25).has_theta

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ModelSpec.q0(-1.0)
        with pytest.raises(ValueError):
            ModelSpec.cky(0.0)
        with pytest.raises(ValueError):
            ModelSpec("not_a_model")


class TestBiotSavart:
    def test_q0_local_law(self):
        grid = PeriodicGrid(64, 2.0)
        omega = PeriodicField(grid, np.sin(np.pi * grid.nodes))
        u = biot_savart(ModelSpec.q0(1.0 / 3.0), omega)
        assert np.max(np.abs(u.values + np.sin(np.pi * grid.nodes) / 3.0)) <= 1e-15

    def test_ccf_is_hilbert(self):
        grid = PeriodicGrid(64, 2.0)
        omega = PeriodicField(grid, np.sin(np.pi * grid.nodes))
        u = biot_savart(ModelSpec.ccf(), omega)
        assert np.max(np.abs(u.values + np.cos(np.pi * grid.nodes))) <= 1e-13

    def test_hou_luo_integrated_hilbert(self):
        L = 2.0
        grid = PeriodicGrid(64, L)
        omega = PeriodicField(grid, np.cos(2 * np.pi * grid.nodes / L))
        u = biot_savart(ModelSpec.hou_luo(), omega)
        # u_x = H(omega) = sin, with zero-mean antiderivative -(L/2pi) cos
        u_x = spectral_derivative(u)
        assert np.max(np.abs(u_x.values - np.sin(2 * np.pi * grid.nodes / L))) <= 1e-12
        exact = -(L / (2 * np.pi)) * np.cos(2 * np.pi * grid.nodes / L)
        assert np.max(np.abs(u.values - exact)) <= 1e-13
        assert abs(np.mean(u.values)) <= 1e-15

    def test_cky_closed_form(self):
        # omega(y) = y on [0, 1] with X = 1 inside a length-4 period:
        # u(x) = -x * integral_x^1 dy = -x (1 - x), exactly on the nodes
        grid = PeriodicGrid(64, 4.0)
        omega = PeriodicField(grid, grid.nodes.copy())
        u = biot_savart(ModelSpec.cky(1.0), omega)
        x = grid.nodes
        inside = (x >= 0) & (x <= 1)
        assert np.max(np.abs(u.values[inside] + x[inside] * (1 - x[inside]))) <= 1e-14
        assert np.max(np.abs(u.values[~inside])) == 0.0

    def test_cky_bound_must_sit_on_grid(self):
        grid = PeriodicGrid(64, 4.0)
        omega = PeriodicField(grid, np.zeros(64))
        with pytest.raises(ValueError, match="grid node"):
            biot_savart(ModelSpec.cky(1.0001), omega)
        with pytest.raises(ValueError, match="lie in"):
            biot_savart(ModelSpec.cky(3.0), omega)


class TestRhs:
    def test_clm_example(self):
        L = 2.0
        grid = PeriodicGrid(128, L)
        s = make_state(grid, lambda x: np.cos(2 * np.pi * x / L))
        rate = rhs(ModelSpec.clm(), s)
        exact = 0.5 * np.sin(4 * np.pi * grid.nodes / L)
        assert np.max(np.abs(rate.d_omega - exact)) <= 1e-12

    def test_q0_example(self):
        grid = PeriodicGrid(128, 2.0)
        s = make_state(grid, lambda x: np.sin(np.pi * x), lambda x: np.zeros_like(x))
        rate = rhs(ModelSpec.q0(1.0 / 3.0), s)
        x = grid.nodes
        exact = np.sin(np.pi * x) * np.pi * np.cos(np.pi * x) / 3.0
        assert np.max(np.abs(rate.d_omega - exact)) <= 1e-12
        assert np.max(np.abs(rate.d_theta)) == 0.0

    def test_ccf_example(self):
        L = 2.0
        grid = PeriodicGrid(128, L)
        s = make_state(grid, lambda x: np.sin(2 * np.pi * x / L))
        rate = rhs(ModelSpec.ccf(), s)
        exact = (2 * np.pi / L) * np.cos(2 * np.pi * grid.nodes / L) ** 2
        assert np.max(np.abs(rate.d_omega - exact)) <= 1e-12

    def test_de_gregorio_cos_is_steady(self):
        grid = PeriodicGrid(128, 2 * np.pi)
        s = make_state(grid, np.cos)
        rate = rhs(ModelSpec.de_gregorio(), s)
        assert np.max(np.abs(rate.d_omega)) <= 1e-13

    def test_okamoto_interpolates_clm_and_de_gregorio(self):
        grid = PeriodicGrid(128, 2 * np.pi)
        s = make_state(grid, lambda x: np.cos(x) + 0.4 * np.sin(2 * x))
        r_clm = rhs(ModelSpec.clm(), s)
        r_dg = rhs(ModelSpec.de_gregorio(), s)
        r_a0 = rhs(ModelSpec.okamoto(0.0), s)
        r_a1 = rhs(ModelSpec.okamoto(1.0), s)
        assert np.max(np.abs(r_a0.d_omega - r_clm.d_omega)) == 0.0
        assert np.max(np.abs(r_a1.d_omega - r_dg.d_omega)) == 0.0

    def test_hou_luo_assembled(self):
        L = 2 * np.pi
        grid = PeriodicGrid(128, L)
        s = make_state(grid, np.sin, lambda x: -np.cos(x))
        rate = rhs(ModelSpec.hou_luo(), s)
        u = biot_savart(ModelSpec.hou_luo(), s.omega)
        expected = (
            -u.values * spectral_derivative(s.omega).values
            + spectral_derivative(s.theta).values
        )
        assert np.max(np.abs(rate.d_omega - expected)) == 0.0
        expected_theta = -u.values * spectral_derivative(s.theta).values
        assert np.max(np.abs(rate.d_theta - expected_theta)) == 0.0

    def test_theta_presence_must_match(self):
        grid = PeriodicGrid(64, 2.0)
        with pytest.raises(ValueError):
            rhs(ModelSpec.clm(), make_state(grid, np.sin, lambda x: np.zeros_like(x)))
        with pytest.raises(ValueError):
            rhs(ModelSpec.q0(0.5), make_state(grid, np.sin))


def composed_velocity(model, omega):
    """u by the operator-at-a-time formulas: H, then the zero-mean antiderivative."""
    kind, grid = model.kind, omega.grid
    if kind == "q0":
        return -model.c * omega.values
    if kind == "ccf":
        return hilbert_transform(omega).values
    if kind != "cky":
        return antiderivative_zero_mean(hilbert_transform(omega)).values
    # dense half-line rule: u(x_i) = -x_i * integral_{x_i}^X omega(y)/y dy
    n, dx = grid.n_points, grid.dx
    p = int(round(model.truncation_X / dx))
    idx = (n // 2 + np.arange(p + 1)) % n
    x = dx * np.arange(p + 1)
    f = np.zeros(p + 1)
    f[1:] = omega.values[idx[1:]] / x[1:]
    u = np.zeros(n)
    for i in range(1, p):
        u[idx[i]] = -x[i] * dx * (composite_weights(p - i) @ f[i:])
    return u


def composed_rate(model, s, dealias):
    """(omega_t, theta_t) assembled model by model from separately computed terms."""
    def product(a, b):
        return dealias_filter(a * b) if dealias else a * b

    grid, omega = s.grid, s.omega.values
    u = composed_velocity(model, s.omega)
    omega_x = spectral_derivative(s.omega).values
    weight = {"clm": 0.0, "okamoto": model.a_ok}.get(model.kind, 1.0)
    d_omega = -weight * product(u, omega_x)
    if model.kind in ("clm", "de_gregorio", "okamoto"):
        u_x = spectral_derivative(PeriodicField(grid, u)).values
        d_omega = d_omega + product(u_x, omega)
    if s.theta is None:
        return d_omega, None
    theta_x = spectral_derivative(s.theta).values
    return d_omega + theta_x, -product(u, theta_x)


ALL_MODELS = [
    ModelSpec.clm(),
    ModelSpec.de_gregorio(),
    ModelSpec.ccf(),
    ModelSpec.okamoto(0.4),
    ModelSpec.hou_luo(),
    ModelSpec.cky(np.pi / 2),
    ModelSpec.q0(1 / 3),
]


class TestKernelAgainstComposedFormulas:
    @pytest.mark.parametrize("dealias", [False, True])
    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.kind)
    def test_rhs_and_velocity(self, model, dealias):
        grid = PeriodicGrid(256, 2 * np.pi)
        # two high omega modes put product content above the 2/3 cut that
        # De Gregorio's terms do not cancel, so the dealias filter acts
        def omega_fn(x):
            return np.sin(x) + 0.3 * np.cos(2 * x) + 0.05 * np.sin(50 * x) + 0.04 * np.cos(47 * x)

        def theta_fn(x):
            return 1 - np.cos(x) + 0.02 * np.cos(45 * x)

        s = make_state(grid, omega_fn, theta_fn if model.has_theta else None)

        def close(actual, expected):
            scale = np.max(np.abs(expected))
            assert scale > 0
            assert np.max(np.abs(actual - expected)) <= 1e-12 * scale

        close(biot_savart(model, s.omega).values, composed_velocity(model, s.omega))
        rate = rhs(model, s, dealias)
        d_omega, d_theta = composed_rate(model, s, dealias)
        close(rate.d_omega, d_omega)
        if model.has_theta:
            close(rate.d_theta, d_theta)
        else:
            assert rate.d_theta is None


def _cky_cases():
    for n in (16, 64, 1024, 4096):
        for p in sorted({2, 3, 4, 5, 6, 7, n // 4, n // 4 + 1, n // 2 - 1, n // 2}):
            yield n, p


class TestHalfLineLaw:
    """The CKY law's suffix sums against the dense per-start composite rule."""

    @pytest.mark.parametrize("n,p", list(_cky_cases()))
    def test_matches_dense_rule(self, n, p):
        grid = PeriodicGrid(n, 2.0)
        model = ModelSpec.cky(p * grid.dx)
        x = grid.nodes
        smooth = np.sin(np.pi * x) + 0.3 * np.sin(3 * np.pi * x) + 0.1 * np.cos(np.pi * x)
        rough = np.random.default_rng(n + p).standard_normal(n)
        for values in (smooth, rough):
            omega = PeriodicField(grid, values)
            expected = composed_velocity(model, omega)
            u = biot_savart(model, omega).values
            assert np.max(np.abs(u - expected)) <= 1e-13 * np.max(np.abs(expected))
            outside = np.ones(n, bool)
            outside[(grid.index_of_zero + np.arange(1, p)) % n] = False
            assert np.all(u[outside] == 0.0)

    def test_memory_is_linear(self):
        # a dense (p+1)^2 weight matrix at n = 16384, X = L/2 would be 537 MB
        import tracemalloc

        grid = PeriodicGrid(16384, 2.0)
        omega = PeriodicField(grid, np.sin(np.pi * grid.nodes))
        tracemalloc.start()
        try:
            biot_savart(ModelSpec.cky(1.0), omega)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20


class TestStructuralProperties:
    def _symmetric_state(self, n=256, L=2.0):
        grid = PeriodicGrid(n, L)
        x = grid.nodes
        omega = np.sin(np.pi * x) + 0.2 * np.sin(2 * np.pi * x)
        theta = 1.0 - np.cos(np.pi * x) + 0.1 * np.cos(2 * np.pi * x)
        return EvolutionState(
            PeriodicField(grid, omega), PeriodicField(grid, theta), 0.0
        )

    @pytest.mark.parametrize("model", [ModelSpec.q0(1 / 3), ModelSpec.hou_luo()])
    def test_parity_propagation(self, model):
        s = self._symmetric_state()
        rate = rhs(model, s)
        odd = np.max(np.abs(rate.d_omega + reflect_values(rate.d_omega)))
        even = np.max(np.abs(rate.d_theta - reflect_values(rate.d_theta)))
        scale = max(np.max(np.abs(rate.d_omega)), 1e-300)
        assert odd <= 1e-11 * scale
        assert even <= 1e-11 * max(np.max(np.abs(rate.d_theta)), 1e-300)

    @pytest.mark.parametrize("lam,mu", [(2, 1.7), (3, 0.6)])
    def test_q0_scaling_symmetry(self, lam, mu):
        # (omega', theta')(x) = ((mu/lam) omega(lam x), (mu^2/lam^2) theta(lam x))
        # must satisfy rhs' = ((mu^2/lam) omega_dot(lam x), (mu^3/lam^2) theta_dot(lam x))
        model = ModelSpec.q0(1 / 3)
        s = self._symmetric_state(n=256)
        n = s.grid.n_points
        rate = rhs(model, s)

        j = np.arange(n)
        scaled_idx = ((1 - lam) * (n // 2) + lam * j) % n  # nodes of x -> lam x
        omega_s = (mu / lam) * s.omega.values[scaled_idx]
        theta_s = (mu**2 / lam**2) * s.theta.values[scaled_idx]
        scaled = EvolutionState(
            PeriodicField(s.grid, omega_s), PeriodicField(s.grid, theta_s), 0.0
        )
        rate_s = rhs(model, scaled)

        expect_omega = (mu**2 / lam) * rate.d_omega[scaled_idx]
        expect_theta = (mu**3 / lam**2) * rate.d_theta[scaled_idx]
        scale = max(np.max(np.abs(expect_omega)), 1.0)
        assert np.max(np.abs(rate_s.d_omega - expect_omega)) <= 1e-10 * scale
        scale_t = max(np.max(np.abs(expect_theta)), 1.0)
        assert np.max(np.abs(rate_s.d_theta - expect_theta)) <= 1e-10 * scale_t

    def test_q0_velocity_equation_identity(self):
        # -c * omega_dot must equal -u u_x - c theta_x for u = -c omega
        c = 1 / 3
        model = ModelSpec.q0(c)
        s = self._symmetric_state()
        rate = rhs(model, s)
        u = -c * s.omega.values
        u_x = -c * spectral_derivative(s.omega).values
        theta_x = spectral_derivative(s.theta).values
        lhs = -c * rate.d_omega
        rhs_vals = -u * u_x - c * theta_x
        assert np.max(np.abs(lhs - rhs_vals)) <= 1e-10 * max(np.max(np.abs(lhs)), 1.0)

    @pytest.mark.parametrize("model", [ModelSpec.q0(1 / 3), ModelSpec.hou_luo()])
    def test_theta_transport_integral_identity(self, model):
        # d/dt int theta = int u_x theta for pure transport: the discrete
        # integrals of theta_dot and u_x*theta agree to rounding
        s = self._symmetric_state()
        rate = rhs(model, s)
        u = biot_savart(model, s.omega)
        u_x = spectral_derivative(u).values
        L = s.grid.period_L
        lhs = np.mean(rate.d_theta) * L
        rhs_int = np.mean(u_x * s.theta.values) * L
        assert abs(lhs - rhs_int) <= 1e-11 * max(abs(lhs), 1.0)

    def test_theta_extrema_preserved_pointwise(self):
        # transport keeps theta constant where theta_x = 0: theta_dot
        # vanishes at interior extrema of theta
        model = ModelSpec.q0(1 / 3)
        s = self._symmetric_state()
        rate = rhs(model, s)
        theta_x = np.abs(spectral_derivative(s.theta).values)
        flat = theta_x <= 1e-12 * np.max(theta_x)
        assert np.max(np.abs(rate.d_theta[flat])) <= 1e-11


class TestRho:
    def test_clamp_and_value(self):
        grid = PeriodicGrid(64, 2.0)
        theta = PeriodicField(grid, np.maximum(np.sin(np.pi * grid.nodes), 0.0))
        rho = reconstruct_rho(theta)
        assert np.max(np.abs(rho.values**2 - theta.values)) <= 1e-15

    def test_negative_theta_rejected(self):
        grid = PeriodicGrid(64, 2.0)
        theta = PeriodicField(grid, np.sin(np.pi * grid.nodes))
        with pytest.raises(ValueError, match="square root"):
            reconstruct_rho(theta)
