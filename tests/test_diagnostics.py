import json

import numpy as np
import pytest

from jetlab import (
    CSV_COLUMNS,
    EvolutionState,
    ModelSpec,
    PeriodicField,
    PeriodicGrid,
    StepperConfig,
    energy,
    biot_savart,
    riccati_audit,
    resolved_until,
    run,
    spectral_derivative,
)
from jetlab import grid as grid_module, spectral
from jetlab.config import parse_config
from jetlab.diagnostics import (
    RECORD_DTYPE,
    DiagnosticRecord,
    _three_point_slopes,
    compute_record,
    diagnostic_coupling,
    fill_margin_fields,
)
from jetlab.evolve import REACHED_T_END, RunResult
from jetlab.grid import reflection_defect
from jetlab.models import state_rows
from jetlab.runner import emit_outputs
from jetlab.spectral import half_period_integrals, half_period_nodes, tail_energy_fraction

from conftest import F0_SIN, INT_PI_SIN_OVER_X, INT_SIN2_OVER_X2, rebound_calls, sin_state
from oracles import record_of, stepped, three_point_slopes, with_margins

Q0, CCF = ModelSpec("q0", c=1 / 3), ModelSpec("ccf")


class TestEnergy:
    def test_constant_theta(self):
        grid = PeriodicGrid(64, 2.0)
        s = EvolutionState(
            PeriodicField(grid, np.zeros(64)), PeriodicField(grid, np.full(64, 3.0)), 0.0
        )
        c = 0.25
        # E = -c K L for omega = 0, theta = K
        assert energy(grid, state_rows(Q0, s), c) == pytest.approx(-c * 3.0 * 2.0, abs=1e-14)

    def test_sin_analytic_value(self):
        # omega = sin(pi x), theta = 0, c = 1/3, L = 2:
        # E = (1/2)(1/9) integral sin^2 = 1/18
        s = sin_state(256)
        assert energy(s.grid, state_rows(Q0, s), 1 / 3) == pytest.approx(1.0 / 18.0, abs=1e-14)

    def test_grid_refinement_consistency(self):
        s = sin_state(128, theta_amplitude=0.3)
        E1 = energy(s.grid, state_rows(Q0, s), 1 / 3)
        s2 = sin_state(256, theta_amplitude=0.3)
        E2 = energy(s2.grid, state_rows(Q0, s2), 1 / 3)
        assert abs(E1 - E2) <= 1e-11 * max(abs(E1), 1.0)

    def test_requires_theta(self):
        # a model without theta records E = 0, though omega's u^2/2 is not 0;
        # a theta model's one-row y has theta = +0.0, the bits of two rows
        s = sin_state(64)
        assert record_of(CCF, EvolutionState(s.omega, None, 0.0), 0.0).E == 0.0
        y = state_rows(Q0, s)
        assert energy(s.grid, y[:1], 1 / 3) == energy(s.grid, y, 1 / 3) == record_of(Q0, s, 0.0).E != 0.0


class TestFunctionals:
    def test_F_sin_oracle(self):
        s = sin_state(1024)
        assert half_period_integrals(s.grid, s.omega.values)[0] / 3 == pytest.approx(F0_SIN, abs=1e-10)

    def test_F_zero(self):
        grid = PeriodicGrid(64, 2.0)
        assert half_period_integrals(grid, np.zeros(64))[0] == 0.0

    def test_G_oracle(self):
        # theta = 1 - cos(pi x): G = (1/3) integral_0^1 pi sin(pi x)/x dx
        grid = PeriodicGrid(1024, 2.0)
        theta = PeriodicField(grid, 1.0 - np.cos(np.pi * grid.nodes))
        G = half_period_integrals(grid, spectral_derivative(theta).values)[0] / 3
        assert G == pytest.approx(
            INT_PI_SIN_OVER_X / 3.0, abs=1e-9
        )

    def test_cauchy_schwarz_oracle_values(self):
        # F^2 = (Si(pi)/3)^2 <= c^2 (L/2) int_0^1 sin^2(pi x)/x^2 dx; both
        # sides frozen from the adaptive oracle
        lhs = F0_SIN**2
        rhs = (1 / 9) * 1.0 * INT_SIN2_OVER_X2
        assert lhs == pytest.approx(0.3810745382784536, rel=1e-12)
        assert rhs == pytest.approx(0.4950282859172280, rel=1e-12)
        assert lhs <= rhs

    def test_discrete_cauchy_schwarz_is_exact(self):
        # same nodes, same positive weights on both sides -> the weighted CS
        # inequality holds to rounding for any admissible field
        rng = np.random.RandomState(3)
        grid = PeriodicGrid(256, 2.0)
        x = grid.nodes
        values = np.zeros(256)
        for k in range(1, 12):
            values += rng.randn() / k * np.sin(np.pi * k * x)
        c, L = 0.7, 2.0
        inv_x, inv_x_squared = half_period_integrals(grid, values)
        F = c * inv_x
        rhs = L * (0.5 * c * c * inv_x_squared)  # = c^2 (L/2) int omega^2/x^2
        assert F**2 <= rhs * (1 + 1e-13) + 1e-300


class TestSymmetryMonitor:
    """The record's symmetry and sign columns."""

    def test_exact_symmetries(self):
        grid = PeriodicGrid(256, 2.0)
        x = grid.nodes
        s = EvolutionState(
            PeriodicField(grid, np.sin(np.pi * x)),
            PeriodicField(grid, np.cos(np.pi * x)),
            0.0,
        )
        m = record_of(Q0, s, 0.0)
        assert m.odd_defect_omega <= 1e-15
        assert m.even_defect_theta <= 1e-15
        assert m.endpoint_omega <= 1e-15

    def test_even_function_maximally_defective(self):
        grid = PeriodicGrid(128, 2.0)
        s = EvolutionState(PeriodicField(grid, np.cos(np.pi * grid.nodes)), None, 0.0)
        m = record_of(CCF, s, 0.0)
        assert m.odd_defect_omega == pytest.approx(2.0, abs=1e-14)

    def test_reproducible_across_grids(self):
        # random asymmetric field built from fixed Fourier data whose even
        # part peaks at x = 0 (positive cos coefficients), so the defect is
        # attained at a node every grid shares
        rng = np.random.RandomState(11)
        ks = np.arange(1, 9)
        b = np.abs(rng.randn(ks.size)) + 0.5
        a = 0.05 * rng.randn(ks.size)

        def build(n):
            grid = PeriodicGrid(n, 2.0)
            x = grid.nodes
            vals = np.zeros(n)
            for k, ak, bk in zip(ks, a, b):
                vals += ak * np.sin(np.pi * k * x) + bk * np.cos(np.pi * k * x)
            return EvolutionState(PeriodicField(grid, vals), None, 0.0)

        defects = [record_of(CCF, build(n), 0.0).odd_defect_omega for n in (128, 256, 512)]
        assert 0.0 < defects[0] <= 2.0
        assert max(defects) - min(defects) <= 1e-12
        # direct recomputation oracle: loop over nodes
        s = build(128)
        vals = s.omega.values
        n = 128
        direct = max(
            abs(vals[j] + vals[(n - j) % n]) for j in range(n)
        ) / np.max(np.abs(vals))
        assert defects[0] == pytest.approx(direct, abs=1e-15)

    def test_half_period_minima(self):
        grid = PeriodicGrid(128, 2.0)
        x = grid.nodes
        s = EvolutionState(
            PeriodicField(grid, np.sin(np.pi * x)),
            PeriodicField(grid, 1.0 - np.cos(np.pi * x)),
            0.0,
        )
        m = record_of(Q0, s, 0.0)
        assert m.min_omega_half >= -1e-15  # sin(pi x) >= 0 on [0, 1]
        assert m.min_thetax_half >= -1e-12  # theta_x = pi sin(pi x) >= 0


class TestRiccatiAudit:
    def test_zero_run(self):
        grid = PeriodicGrid(64, 2.0)
        init = EvolutionState(
            PeriodicField(grid, np.zeros(64)), PeriodicField(grid, np.zeros(64)), 0.0
        )
        res = run(ModelSpec("q0", c=1 / 3), init, StepperConfig(t_end=0.5, record_every=2))
        samples = riccati_audit(res)
        assert len(samples) >= 3
        for a in samples:
            assert a.F == 0.0 and a.F_dot == 0.0
            assert a.riccati_margin == 0.0 and a.strong_margin == 0.0
            assert a.cauchy_lhs == 0.0 and a.cauchy_rhs == 0.0  # 0 <= 0

    def test_needs_three_samples(self):
        class Fake:
            diagnostics = [None, None]
            states = []

        with pytest.raises(ValueError, match="at least 3"):
            riccati_audit(Fake())


def _pinned(f):
    return abs(f.values[f.grid.index_of_zero]) <= 1e-10 * max(f.sup_norm, 1e-300)


class TestStreamedRecords:
    """The audit inputs recorded during a run against the same quantities
    recomputed from every state of the run, the way the audits once did."""

    def test_against_replayed_states(self):
        model, c, L = ModelSpec("q0", c=1 / 3), 1 / 3, 2.0
        init = sin_state(128, theta_amplitude=0.5)
        cfg = StepperConfig(t_end=0.2, dt_max=0.005, record_every=3)
        res = run(model, init, cfg)

        # replay run()'s steps, keeping every state
        states = [init]
        while states[-1].time < cfg.t_end - 1e-14:
            s = states[-1]
            u = biot_savart(model, s.omega)
            dt = min(cfg.cfl * s.grid.dx / u.sup_norm, cfg.dt_max, cfg.t_end - s.time)
            states.append(stepped(model, s, dt))
        recorded = states[:: cfg.record_every]
        if len(states) % cfg.record_every != 1:
            recorded.append(states[-1])
        assert [s.time for s in recorded] == [r.t for r in res.diagnostics]

        strong = []
        for s, r in zip(recorded, res.diagnostics):
            theta_x = spectral_derivative(s.theta)
            pinned = _pinned(s.omega)
            inv_x, inv_x_squared = half_period_integrals(s.grid, s.omega.values) if pinned else (0.0, 0.0)
            strong.append(0.5 * c * c * inv_x_squared)
            assert r.strong_term == strong[-1]
            assert r.sup_theta == float(np.max(np.abs(s.theta.values)))
            assert r.sup_theta_x == float(np.max(np.abs(theta_x.values)))
            assert r.F == c * inv_x
            assert r.G == (c * half_period_integrals(s.grid, theta_x.values)[0] if _pinned(theta_x) else 0.0)
        assert all(x > 0 for x in strong)

        t = np.array([r.t for r in res.diagnostics])
        F = np.array([r.F for r in res.diagnostics])
        F_dot = three_point_slopes(t, F)
        # rows as (t, F, F_dot, riccati_margin, strong_margin, cauchy_lhs, cauchy_rhs)
        expected = [
            (
                float(t[i]),
                float(F[i]),
                float(F_dot[i]),
                float(F_dot[i] - F[i] ** 2 / L),
                float(F_dot[i] - strong[i]),
                float(F[i] ** 2),
                float(L * strong[i]),
            )
            for i in range(1, len(recorded) - 1)
        ]
        assert riccati_audit(res).tolist() == expected
        for i, r in enumerate(res.diagnostics):
            assert r.F_dot_measured == float(F_dot[i])
            assert r.strong_margin == float(F_dot[i] - strong[i])


def table_of(rows: int, **columns) -> np.recarray:
    """A record table of ``rows`` zero rows with the given columns set."""
    table = np.zeros(rows, RECORD_DTYPE).view(np.recarray)
    for name, values in columns.items():
        table[name] = values
    return table


def random_series(size: int, seed: int):
    """Strictly increasing, nonuniform times and F values of magnitudes 1e-100 to 1e100."""
    rng = np.random.default_rng(seed)
    t = np.cumsum(rng.uniform(1e-3, 1.0, size))
    return t, rng.standard_normal(size) * 10.0 ** rng.integers(-100, 100, size)


class TestRecords:
    def test_csv_row_parses_back(self, tmp_path):
        rec = record_of(Q0, sin_state(256), 0.125)
        config = parse_config(json.dumps({"model": {"name": "Q0"}, "outputs": {"directory": str(tmp_path)}}))
        table = np.array([rec], RECORD_DTYPE).view(np.recarray)
        emit_outputs(RunResult([], table, REACHED_T_END, 0.0, 2.0), config)
        row = (tmp_path / "diagnostics.csv").read_text().splitlines()[1]
        parts = row.split(",")
        assert len(parts) == len(CSV_COLUMNS)
        assert float(parts[0]) == 0.0
        assert float(parts[CSV_COLUMNS.index("bkm_integral")]) == 0.125

    def test_resolved_until(self):
        table = table_of(4, t=[0.0, 1.0, 2.0, 3.0], tail_energy_fraction=[0.0, 1e-9, 1e-7, 1.0])
        assert resolved_until(table) == 2.0
        assert resolved_until(table[:2]) == float("inf")

    def test_a_nan_tail_does_not_end_resolution(self):
        # a record past the float range has a nan tail fraction (Q0 with
        # amplitude 1e200): it exceeds no threshold, so the run stays resolved
        table = table_of(3, t=[0.0, 1.0, 2.0], tail_energy_fraction=[np.nan, np.nan, 1e-7])
        assert resolved_until(table[:2]) == float("inf")
        assert resolved_until(table) == 2.0

    @pytest.mark.parametrize("size", [2, 3, 5, 1000])
    def test_slopes_are_bitwise_the_loop(self, size):
        t, F = random_series(size, size)
        assert _three_point_slopes(t, F).tobytes() == three_point_slopes(t, F).tobytes()

    def test_margins_are_bitwise_the_loop(self):
        # 5000 F values of every magnitude, so a square rounded as F * F
        # rather than by libm's pow shows in some riccati margin
        rng = np.random.default_rng(7)
        t, F = random_series(5000, 7)
        table = table_of(5000, t=t, F=F, strong_term=rng.uniform(0.0, 1e3, 5000))
        records = [DiagnosticRecord(*row) for row in table.tolist()]
        fill_margin_fields(table, 2.0)
        expected = np.array(with_margins(records, 2.0), RECORD_DTYPE)
        assert table.tobytes() == expected.tobytes()


def symmetry_and_sign_monitor(s, theta_x) -> dict:
    """Odd/even defects, endpoint pinning, half-period minima and the theta
    scales of a state, from its fields; ``theta_x`` is None without theta."""
    grid = s.grid
    omega = s.omega.values
    sup_omega = max(s.omega.sup_norm, 1e-300)
    odd_defect = float(np.max(reflection_defect(omega, np.add))) / sup_omega
    endpoint = max(abs(omega[grid.index_of_zero]), abs(omega[0]))

    half_idx = half_period_nodes(grid)[0]  # x in [0, L/2]
    min_omega_half = float(np.min(omega[half_idx]))

    even_defect = min_thetax_half = sup_theta = sup_theta_x = 0.0
    if s.theta is not None:
        theta = s.theta.values
        sup_theta, sup_theta_x = s.theta.sup_norm, theta_x.sup_norm
        if sup_theta != 0.0:  # a theta of zeros is even: its defect is 0 / 1e-300
            even_defect = float(np.max(reflection_defect(theta, np.subtract))) / max(sup_theta, 1e-300)
        min_thetax_half = float(np.min(theta_x.values[half_idx]))

    return {
        "odd_defect_omega": odd_defect,
        "even_defect_theta": even_defect,
        "endpoint_omega": float(endpoint),
        "min_omega_half": min_omega_half,
        "min_thetax_half": min_thetax_half,
        "sup_theta": sup_theta,
        "sup_theta_x": sup_theta_x,
    }


def per_row_record(model, s, bkm_integral):
    """compute_record with one transform pair per quantity, as it was before
    the record's rows were batched: the oracle it must match bit for bit."""
    c = diagnostic_coupling(model)
    theta_x = spectral_derivative(s.theta) if s.theta is not None else None
    monitor = symmetry_and_sign_monitor(s, theta_x)
    F = strong = 0.0
    if _pinned(s.omega):
        inv_x, inv_x_squared = half_period_integrals(s.grid, s.omega.values)
        F, strong = c * inv_x, 0.5 * c * c * inv_x_squared
    G = 0.0
    if theta_x is not None and _pinned(theta_x):
        G = c * half_period_integrals(s.grid, theta_x.values)[0]
    tail = tail_energy_fraction(s.omega.values)
    if s.theta is not None:
        tail = max(tail, tail_energy_fraction(s.theta.values))
    return dict(
        t=s.time, E=energy(s.grid, state_rows(model, s), c) if s.theta is not None else 0.0, F=F, G=G,
        sup_omega=s.omega.sup_norm, bkm_integral=bkm_integral,
        tail_energy_fraction=tail, strong_term=strong, **monitor,
    )


def rough_state(n, seed, with_theta=True, odd=True):
    """Odd (or shifted) omega and even theta with 40 modes, so every tail is nonzero."""
    grid = PeriodicGrid(n, 2.0)
    x, rng = grid.nodes, np.random.RandomState(seed)
    omega = sum(rng.randn() / k * np.sin(np.pi * k * x + (0.0 if odd else 0.3)) for k in range(1, 41))
    theta = sum(rng.randn() / k**2 * np.cos(np.pi * k * x) for k in range(1, 41))
    return EvolutionState(
        PeriodicField(grid, omega), PeriodicField(grid, theta) if with_theta else None, 0.25
    )


class TestRecordTransforms:
    """compute_record's batched transforms: their count and their bits."""

    @staticmethod
    def fft_calls(monkeypatch, call):
        count = [0]
        for name in ("rfft", "irfft"):
            original = getattr(np.fft, name)

            def counted(*args, _original=original, **kwargs):
                count[0] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, counted)
        call()
        return count[0]

    @pytest.mark.parametrize("with_theta,calls", [(True, 4), (False, 2)])
    def test_fft_calls_per_record(self, monkeypatch, with_theta, calls):
        model = Q0 if with_theta else CCF
        s, records = rough_state(256, 1, with_theta), []
        assert self.fft_calls(monkeypatch, lambda: records.append(record_of(model, s, 0.0))) == calls
        assert records[0].F != 0.0 and (records[0].G != 0.0) == with_theta  # F and G computed

    @pytest.mark.parametrize(
        "model,theta_amplitude,sups,pins",
        [(CCF, None, 1, 1), (Q0, 0.0, 1, 1), (Q0, 0.5, 3, 2)],
        ids=["no-theta", "theta-plus-zero", "theta"],
    )
    def test_each_sup_and_pin_test_once_per_record(self, monkeypatch, model, theta_amplitude, sups, pins):
        # sup|.| once per row not known to be zero (omega[, theta, theta_x]),
        # and the pin test once for omega and once for theta_x
        s = sin_state(256, theta_amplitude or 0.0)
        s = EvolutionState(s.omega, None if theta_amplitude is None else s.theta, 0.0)
        sup_calls = rebound_calls(monkeypatch, grid_module, "sup_norm")
        pin_calls = rebound_calls(monkeypatch, spectral, "is_pinned_at_zero")
        record = record_of(model, s, 0.0)
        assert (len(sup_calls), len(pin_calls)) == (sups, pins)
        assert record.F != 0.0 and (record.G != 0.0) == bool(theta_amplitude)

    @pytest.mark.parametrize("n", [64, 256, 2048])
    @pytest.mark.parametrize("with_theta", [True, False])
    @pytest.mark.parametrize("odd", [True, False])
    def test_record_is_bitwise_the_per_row_formulas(self, n, with_theta, odd):
        model = Q0 if with_theta else CCF
        s = rough_state(n, n, with_theta, odd)
        record = record_of(model, s, 0.5)
        expected = per_row_record(model, s, 0.5)
        assert {name: repr(getattr(record, name)) for name in expected} == {
            name: repr(value) for name, value in expected.items()
        }
        assert (record.F != 0.0) == odd and record.tail_energy_fraction > 0.0

    @pytest.mark.parametrize("sign,calls", [(1.0, 2), (-1.0, 4)])
    def test_theta_of_zeros_is_not_transformed(self, monkeypatch, sign, calls):
        # +0.0 everywhere skips theta's transforms, in a two-row y as in the
        # one-row y a run steps; -0.0 is transformed
        model, odd = Q0, rough_state(256, 3)
        s = EvolutionState(odd.omega, PeriodicField(odd.grid, sign * np.zeros(256)), 0.25)
        y, records = state_rows(model, s), []
        assert self.fft_calls(monkeypatch, lambda: records.append(record_of(model, s, 0.5))) == calls
        if sign > 0:
            one_row = lambda: records.append(compute_record(model, s.grid, y[:1], 0.25, 0.5))
            assert self.fft_calls(monkeypatch, one_row) == calls
            assert np.array(records[1]).tobytes() == np.array(records[0]).tobytes()
        monkeypatch.undo()
        expected = per_row_record(model, s, 0.5)
        assert {name: repr(getattr(records[0], name)) for name in expected} == {
            name: repr(value) for name, value in expected.items()
        }
        assert (records[0].G, records[0].even_defect_theta, records[0].min_thetax_half) == (0.0,) * 3
        # the tail is the max over omega's row, then theta's: a nan in omega stays
        y[0, 7] = np.nan
        with np.errstate(invalid="ignore"):
            assert np.isnan(compute_record(model, s.grid, y, 0.25, 0.5).tail_energy_fraction)
