import numpy as np
import pytest

from jetlab import (
    DT_UNDERFLOW,
    REACHED_T_END,
    SUP_CAP_HIT,
    EvolutionState,
    ModelSpec,
    PeriodicField,
    PeriodicGrid,
    StepperConfig,
    estimate_blowup_time,
    run,
    step_rk4,
)

from conftest import sin_state


def fixed_dt_run(model, init, dt, t_end):
    s = init
    for _ in range(int(round(t_end / dt))):
        s = step_rk4(model, s, dt)
    return s


class TestStepRK4:
    def test_stationary_state(self):
        grid = PeriodicGrid(64, 2.0)
        s = EvolutionState(
            PeriodicField(grid, np.zeros(64)),
            PeriodicField(grid, np.full(64, 7.0)),
            0.0,
        )
        out = step_rk4(ModelSpec.q0(1 / 3), s, 0.05)
        assert np.max(np.abs(out.omega.values)) == 0.0
        assert np.max(np.abs(out.theta.values - 7.0)) == 0.0
        assert out.time == pytest.approx(0.05)

    def test_characteristics_oracle(self):
        # theta = 0 reduces Q0 to u_t + u u_x = 0 for u = -c omega; compare
        # with the implicit characteristic solution u = u0(x - u t) obtained
        # by fixed-point iteration, well before wave breaking at 3/pi
        c = 1 / 3
        model = ModelSpec.q0(c)
        init = sin_state(1024)
        t = 0.3
        s = fixed_dt_run(model, init, 1e-3, t)
        u_num = -c * s.omega.values
        x = init.grid.nodes
        u = np.zeros_like(x)
        for _ in range(200):
            u_next = -c * np.sin(np.pi * (x - u * t))
            if np.max(np.abs(u_next - u)) < 1e-15:
                u = u_next
                break
            u = u_next
        assert np.max(np.abs(u_num - u)) <= 1e-8

    def test_fourth_order_richardson(self):
        model = ModelSpec.q0(1 / 3)
        init = sin_state(128, theta_amplitude=0.1)
        t_end = 0.2
        ref = fixed_dt_run(model, init, t_end / 3200, t_end)
        errors = []
        for steps in (50, 100):
            s = fixed_dt_run(model, init, t_end / steps, t_end)
            errors.append(np.max(np.abs(s.omega.values - ref.omega.values)))
        ratio = errors[0] / errors[1]
        assert 14.0 <= ratio <= 18.0

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError):
            step_rk4(ModelSpec.q0(1 / 3), sin_state(64), 0.0)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_overflow_reported(self):
        grid = PeriodicGrid(64, 2.0)
        huge = PeriodicField(grid, 1e300 * np.sin(np.pi * grid.nodes))
        s = EvolutionState(huge, PeriodicField(grid, np.zeros(64)), 0.0)
        with pytest.raises(FloatingPointError, match="numerical overflow in stage"):
            step_rk4(ModelSpec.q0(1 / 3), s, 1e6)


class TestRun:
    def test_zero_data_reaches_t_end(self):
        grid = PeriodicGrid(64, 2.0)
        init = EvolutionState(
            PeriodicField(grid, np.zeros(64)), PeriodicField(grid, np.zeros(64)), 0.0
        )
        res = run(ModelSpec.q0(1 / 3), init, StepperConfig(t_end=1.0))
        assert res.termination == REACHED_T_END
        assert res.t_final == pytest.approx(1.0, abs=1e-12)
        for r in res.diagnostics:
            assert r.E == 0.0 and r.F == 0.0 and r.G == 0.0 and r.sup_omega == 0.0
            assert r.riccati_margin == 0.0 and r.strong_margin == 0.0

    def test_records_share_timestamps(self):
        # dt_max = 2^-7 binds, so record times are exact and midpoints are ties
        model, init = ModelSpec.q0(1 / 3), sin_state(128, theta_amplitude=0.2)
        cfg = StepperConfig(t_end=0.2, dt_max=2.0**-7, record_every=5)
        plain = run(model, init, cfg)
        assert plain.states == []
        times = np.array([r.t for r in plain.diagnostics])
        assert times[0] == 0.0 and times[-1] == pytest.approx(plain.t_final)
        tie = (times[1] + times[2]) / 2
        assert tie - times[1] == times[2] - tie
        wanted = [0.0, 0.07, 0.07, tie, 0.2, -1.0, 9.0]
        res = run(model, init, cfg, wanted)
        assert [r.t for r in res.diagnostics] == list(times)
        assert len(res.states) == len(wanted)
        for s, t_want in zip(res.states, wanted):
            # the strictly nearest recorded time wins, the earliest on a tie
            assert s.time == times[int(np.argmin(np.abs(times - t_want)))]
        assert res.states[0] is init and res.states[1] is res.states[2]
        assert res.states[3].time == times[1]

    def test_sup_cap_termination(self):
        # theta_x >= 0 feeds omega, so the sup genuinely grows
        init = sin_state(128, theta_amplitude=1.0)
        cfg = StepperConfig(t_end=50.0, omega_sup_cap=2.0, dt_max=0.01)
        res = run(ModelSpec.q0(1 / 3), init, cfg)
        assert res.termination == SUP_CAP_HIT
        assert res.diagnostics[-1].sup_omega >= 2.0
        assert res.t_final < 50.0

    def test_dt_underflow_termination(self):
        init = sin_state(64)
        cfg = StepperConfig(t_end=1.0, dt_min=0.5, dt_max=0.5)
        res = run(ModelSpec.q0(1 / 3), init, cfg)
        assert res.termination == DT_UNDERFLOW

    def test_bkm_integral_nondecreasing(self):
        init = sin_state(128, theta_amplitude=0.5)
        res = run(ModelSpec.q0(1 / 3), init, StepperConfig(t_end=0.5))
        bkm = [r.bkm_integral for r in res.diagnostics]
        assert all(b2 >= b1 for b1, b2 in zip(bkm, bkm[1:]))

    @pytest.mark.parametrize("dealias", [False, True])
    def test_four_rate_evaluations_per_step(self, monkeypatch, dealias):
        # the rate evaluated for the CFL speed is reused as the step's first stage
        import jetlab.evolve
        import jetlab.models

        calls = []
        original = jetlab.models._evaluate

        def counted(*args, **kwargs):
            calls.append(kwargs.get("with_rate", True))
            return original(*args, **kwargs)

        monkeypatch.setattr(jetlab.models, "_evaluate", counted)
        monkeypatch.setattr(jetlab.evolve, "_evaluate", counted)
        model, init = ModelSpec.q0(1 / 3), sin_state(64, theta_amplitude=0.2)
        cfg = StepperConfig(t_end=10 * 2.0**-7, dt_max=2.0**-7, dealias=dealias)
        res = run(model, init, cfg)
        assert res.termination == REACHED_T_END and res.t_final == 10 * 2.0**-7
        assert calls == [True] * 40

    @pytest.mark.parametrize("dealias", [False, True])
    def test_given_first_stage_is_bitwise_the_computed_one(self, dealias):
        from jetlab.models import _evaluate, state_rows

        for model in (ModelSpec.clm(), ModelSpec.hou_luo(), ModelSpec.cky(0.5)):
            s = sin_state(128, theta_amplitude=0.2)
            s = s if model.has_theta else EvolutionState(s.omega, None, 0.0)
            _, k1 = _evaluate(model, s.grid, state_rows(model, s), dealias)
            given = step_rk4(model, s, 1e-3, dealias, k1)
            computed = step_rk4(model, s, 1e-3, dealias)
            assert np.array_equal(given.omega.values, computed.omega.values)
            if model.has_theta:
                assert np.array_equal(given.theta.values, computed.theta.values)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_velocity_is_a_numerical_failure(self):
        # u = -c*omega overflows although omega itself is finite
        s = sin_state(64)
        init = EvolutionState(PeriodicField(s.grid, 2.0 * s.omega.values), s.theta, 0.0)
        with pytest.raises(FloatingPointError, match="velocity is not finite"):
            run(ModelSpec.q0(1e308), init, StepperConfig(t_end=1.0))

    def test_mismatched_theta_rejected(self):
        grid = PeriodicGrid(64, 2.0)
        no_theta = EvolutionState(PeriodicField(grid, np.zeros(64)), None, 0.0)
        with pytest.raises(ValueError):
            run(ModelSpec.q0(1 / 3), no_theta, StepperConfig(t_end=1.0))


class TestStepperConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            StepperConfig(t_end=1.0, cfl=0.0)
        with pytest.raises(ValueError):
            StepperConfig(t_end=1.0, cfl=1.5)
        with pytest.raises(ValueError):
            StepperConfig(t_end=1.0, dt_min=1e-2, dt_max=1e-3)
        with pytest.raises(ValueError):
            StepperConfig(t_end=-1.0)
        with pytest.raises(ValueError):
            StepperConfig(t_end=1.0, record_every=0)


class TestBlowupEstimator:
    def test_exact_reciprocal(self):
        t = np.linspace(2.0, 2.9, 32)
        series = np.column_stack([t, 1.0 / (3.0 - t)])
        est = estimate_blowup_time(series)
        assert est == pytest.approx(3.0, abs=1e-6)

    def test_constant_series(self):
        t = np.linspace(0.0, 1.0, 16)
        series = np.column_stack([t, np.ones_like(t)])
        assert estimate_blowup_time(series) is None

    def test_noise_robustness(self):
        # 1% multiplicative noise on 1/(5 - t); Monte Carlo over seeds
        t = np.linspace(3.0, 4.8, 64)
        for seed in range(20):
            rng = np.random.RandomState(seed)
            sup = (1.0 / (5.0 - t)) * (1.0 + 0.01 * rng.randn(t.size))
            est = estimate_blowup_time(np.column_stack([t, sup]))
            assert est is not None
            assert 4.9 <= est <= 5.1

    def test_too_few_samples(self):
        t = np.linspace(0.0, 1.0, 5)
        with pytest.raises(ValueError):
            estimate_blowup_time(np.column_stack([t, np.exp(t)]))

    def test_non_increasing_times_rejected(self):
        t = np.array([0.0, 0.1, 0.1, 0.3, 0.4, 0.5, 0.6, 0.7])
        with pytest.raises(ValueError):
            estimate_blowup_time(np.column_stack([t, np.exp(t)]))

    def test_positive_slope_is_no_blowup(self):
        t = np.linspace(0.0, 1.0, 16)
        sup = 1.0 / (1.0 + t)  # decaying sup -> 1/sup increasing
        assert estimate_blowup_time(np.column_stack([t, sup])) is None
