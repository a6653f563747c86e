import warnings

import numpy as np
import pytest

from jetlab import (
    PeriodicField,
    PeriodicGrid,
    antiderivative_zero_mean,
    hilbert_transform,
    resample,
    spectral_derivative,
    tail_energy_fraction,
)
from jetlab.spectral import composite_weights, dealias_filter, half_period_integrals

from conftest import SI_PI, SI_2PI, INT_SIN2_OVER_X2


def field(n, L, fn):
    grid = PeriodicGrid(n, L)
    return PeriodicField(grid, fn(grid.nodes))


class TestGrid:
    def test_layout(self):
        grid = PeriodicGrid(8, 2.0)
        assert grid.nodes[0] == -1.0
        assert grid.nodes[4] == 0.0
        assert grid.dx == 0.25

    @pytest.mark.parametrize("n", [7, 6, 0, -8])
    def test_rejects_bad_n(self, n):
        with pytest.raises(ValueError):
            PeriodicGrid(n, 1.0)

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            PeriodicGrid(16, 0.0)

    def test_field_shape_and_finiteness(self):
        grid = PeriodicGrid(8, 1.0)
        with pytest.raises(ValueError):
            PeriodicField(grid, np.zeros(7))
        with pytest.raises(ValueError):
            PeriodicField(grid, np.full(8, np.nan))


class TestDerivative:
    def test_single_mode(self):
        L = 3.0
        f = field(64, L, lambda x: np.sin(2 * np.pi * x / L))
        df = spectral_derivative(f)
        exact = (2 * np.pi / L) * np.cos(2 * np.pi * f.grid.nodes / L)
        assert np.max(np.abs(df.values - exact)) <= 1e-12

    def test_constant(self):
        f = field(32, 2.0, lambda x: np.full_like(x, 5.0))
        assert np.max(np.abs(spectral_derivative(f).values)) == 0.0

    def test_chain_rule_oracle(self):
        # f = exp(sin(pi x)) on L = 2; analytic derivative pi cos(pi x) exp(sin(pi x))
        f = field(128, 2.0, lambda x: np.exp(np.sin(np.pi * x)))
        df = spectral_derivative(f)
        x = f.grid.nodes
        exact = np.pi * np.cos(np.pi * x) * np.exp(np.sin(np.pi * x))
        assert np.max(np.abs(df.values - exact)) <= 1e-10

    def test_exact_on_resolved_random_field(self):
        rng = np.random.RandomState(7)
        n, L = 64, 5.0
        grid = PeriodicGrid(n, L)
        x = grid.nodes
        values = np.zeros(n)
        exact = np.zeros(n)
        for k in range(1, n // 2):  # every mode strictly below Nyquist
            a, b = rng.randn(2) / (1 + k)
            w = 2 * np.pi * k / L
            values += a * np.sin(w * x) + b * np.cos(w * x)
            exact += w * (a * np.cos(w * x) - b * np.sin(w * x))
        df = spectral_derivative(PeriodicField(grid, values))
        scale = np.max(np.abs(exact))
        assert np.max(np.abs(df.values - exact)) <= 1e-12 * scale


class TestHilbert:
    def test_cos_to_sin(self):
        L = 2.0
        f = field(64, L, lambda x: np.cos(2 * np.pi * x / L))
        h = hilbert_transform(f)
        assert np.max(np.abs(h.values - np.sin(2 * np.pi * f.grid.nodes / L))) <= 1e-13

    def test_constant_to_zero(self):
        f = field(32, 1.0, lambda x: np.full_like(x, 3.0))
        assert np.max(np.abs(hilbert_transform(f).values)) == 0.0

    def test_involution_on_zero_mean(self):
        L = 2.0
        f = field(
            128,
            L,
            lambda x: np.sin(2 * np.pi * x / L) + 0.3 * np.cos(6 * np.pi * x / L),
        )
        hh = hilbert_transform(hilbert_transform(f))
        assert np.max(np.abs(hh.values + f.values)) <= 1e-12

    def test_commutes_with_derivative(self):
        f = field(128, 2.0, lambda x: np.exp(np.sin(np.pi * x)) - 1.0)
        a = hilbert_transform(spectral_derivative(f))
        b = spectral_derivative(hilbert_transform(f))
        assert np.max(np.abs(a.values - b.values)) <= 1e-11


class TestAntiderivative:
    def test_sin(self):
        L = 2.0
        f = field(64, L, lambda x: np.sin(2 * np.pi * x / L))
        F = antiderivative_zero_mean(f)
        exact = -(L / (2 * np.pi)) * np.cos(2 * np.pi * f.grid.nodes / L)
        assert np.max(np.abs(F.values - exact)) <= 1e-13

    def test_zero(self):
        f = field(32, 1.0, lambda x: np.zeros_like(x))
        assert np.max(np.abs(antiderivative_zero_mean(f).values)) == 0.0

    def test_nonzero_mean_rejected(self):
        f = field(32, 1.0, lambda x: np.ones_like(x))
        with pytest.raises(ValueError, match="no periodic antiderivative"):
            antiderivative_zero_mean(f)

    def test_inverts_derivative_up_to_mean(self):
        f = field(128, 3.0, lambda x: np.exp(np.cos(2 * np.pi * x / 3.0)))
        g = antiderivative_zero_mean(spectral_derivative(f))
        expected = f.values - np.mean(f.values)
        assert np.max(np.abs(g.values - expected)) <= 1e-11


class TestHalfPeriodIntegral:
    def test_si_pi(self):
        f = field(512, 2.0, lambda x: np.sin(np.pi * x))
        I = half_period_integrals(f)[0]
        assert abs(I - SI_PI) <= 1e-9

    def test_si_2pi(self):
        f = field(512, 2.0, lambda x: np.sin(2 * np.pi * x))
        I = half_period_integrals(f)[0]
        assert abs(I - SI_2PI) <= 1e-9

    def test_zero_field(self):
        f = field(64, 2.0, lambda x: np.zeros_like(x))
        assert half_period_integrals(f) == (0.0, 0.0)

    def test_inv_x_squared_oracle(self):
        f = field(1024, 2.0, lambda x: np.sin(np.pi * x))
        I = half_period_integrals(f)[1]
        assert abs(I - INT_SIN2_OVER_X2) <= 1e-9

    def test_singular_integrand_rejected(self):
        f = field(64, 2.0, lambda x: np.cos(np.pi * x))
        with pytest.raises(ValueError, match="singular integrand"):
            half_period_integrals(f)

    def test_squares_past_the_float_range_are_inf_without_a_warning(self):
        # theta_x of cos(2 pi x / L) at L = 1e-100: (f/x)^2 passes 1e308
        L = 1e-100
        f = spectral_derivative(field(64, L, lambda x: np.cos(2 * np.pi * x / L)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            inv_x, inv_x_squared = half_period_integrals(f)
        assert np.isfinite(inv_x) and inv_x_squared == np.inf

    @pytest.mark.parametrize("index", [0, 1])
    def test_order_four_even_interval_counts(self, index):
        target = (SI_PI, INT_SIN2_OVER_X2)[index]
        errs = []
        for n in (32, 64, 128, 256):  # pure composite Simpson
            f = field(n, 2.0, lambda x: np.sin(np.pi * x))
            errs.append(abs(half_period_integrals(f)[index] - target))
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
        assert min(orders) >= 3.8 and max(orders) <= 4.3

    def test_odd_interval_counts_converge(self):
        # odd counts splice a 3/8 block whose O(h^5) share perturbs the
        # preasymptotic order; require monotone decay approaching 4
        ns = (34, 66, 130, 258)
        errs = []
        for n in ns:
            f = field(n, 2.0, lambda x: np.sin(np.pi * x))
            errs.append(abs(half_period_integrals(f)[0] - SI_PI))
        assert all(errs[i + 1] < errs[i] for i in range(len(errs) - 1))
        h = [2.0 / n for n in ns]
        final_order = np.log(errs[-2] / errs[-1]) / np.log(h[-2] / h[-1])
        assert final_order >= 3.5

    @pytest.mark.parametrize("n_int", [4, 5, 7, 16, 17, 33, 128])
    def test_weights_positive_and_exact_for_constants(self, n_int):
        w = composite_weights(n_int)
        assert w.size == n_int + 1
        assert np.all(w > 0)
        assert abs(np.sum(w) - n_int) <= 1e-12 * n_int


class TestResampleAndTail:
    def test_resample_exact_for_resolved(self):
        f = field(64, 2.0, lambda x: np.sin(np.pi * x) + 0.2 * np.cos(3 * np.pi * x))
        g = resample(f, 128)
        x2 = g.grid.nodes
        exact = np.sin(np.pi * x2) + 0.2 * np.cos(3 * np.pi * x2)
        assert np.max(np.abs(g.values - exact)) <= 1e-13

    def test_tail_fraction_low_and_high(self):
        low = field(128, 2.0, lambda x: np.sin(np.pi * x))
        assert tail_energy_fraction(low) <= 1e-28
        grid = PeriodicGrid(128, 2.0)
        high = PeriodicField(grid, np.sin(2 * np.pi * 60 * grid.nodes / 2.0))
        assert tail_energy_fraction(high) >= 0.99
        zero = PeriodicField(grid, np.zeros(128))
        assert tail_energy_fraction(zero) == 0.0

    @pytest.mark.parametrize("n", [8, 10, 64, 2048])
    def test_dealias_filter_empties_the_tail(self, n):
        # theorem runs reject dealias because the filter zeroes exactly the
        # modes the tail fraction behind resolved_until measures
        rng = np.random.default_rng(n)
        for _ in range(5):
            filtered = dealias_filter(rng.standard_normal(n))
            assert tail_energy_fraction(PeriodicField(PeriodicGrid(n, 2.0), filtered)) <= 1e-28

    @pytest.mark.parametrize("n", [10, 64, 2048, 8192])
    def test_dealias_filter_of_a_stack_is_bitwise_per_row(self, n):
        # the kernel filters all of an evaluation's products in one pair
        rows = np.random.default_rng(n).standard_normal((3, n))
        stacked = dealias_filter(rows)
        for row, filtered in zip(rows, stacked):
            assert filtered.tobytes() == dealias_filter(row).tobytes()
