import json
from fractions import Fraction

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
)

from jetlab import biot_savart, evolve, models
from jetlab.config import parse_config
from jetlab.diagnostics import RECORD_DTYPE
from jetlab.evolve import FIT_FRACTION, FIT_RESIDUAL_THRESHOLD
from jetlab.models import KernelPlan, rhs, state_rows
from jetlab.runner import run_experiment
from jetlab.spectral import MULTIPLIERS, dealias_filter, multiplier

from conftest import rebound_calls, sin_state
from oracles import rate_of, record_of, stepped, with_margins


def fixed_dt_run(model, init, dt, t_end):
    s = init
    for _ in range(int(round(t_end / dt))):
        s = stepped(model, s, dt)
    return s


class TestStepRK4:
    def test_stationary_state(self):
        grid = PeriodicGrid(64, 2.0)
        s = EvolutionState(
            PeriodicField(grid, np.zeros(64)),
            PeriodicField(grid, np.full(64, 7.0)),
            0.0,
        )
        out = stepped(ModelSpec("q0", c=1 / 3), s, 0.05)
        assert np.max(np.abs(out.omega.values)) == 0.0
        assert np.max(np.abs(out.theta.values - 7.0)) == 0.0
        assert out.time == pytest.approx(0.05)

    def test_characteristics_oracle(self):
        # theta = 0 reduces Q0 to u_t + u u_x = 0 for u = -c omega; compare
        # with the implicit characteristic solution u = u0(x - u t) obtained
        # by fixed-point iteration, well before wave breaking at 3/pi
        c = 1 / 3
        model = ModelSpec("q0", c=c)
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
        model = ModelSpec("q0", c=1 / 3)
        init = sin_state(128, theta_amplitude=0.1)
        t_end = 0.2
        ref = fixed_dt_run(model, init, t_end / 3200, t_end)
        errors = []
        for steps in (50, 100):
            s = fixed_dt_run(model, init, t_end / steps, t_end)
            errors.append(np.max(np.abs(s.omega.values - ref.omega.values)))
        ratio = errors[0] / errors[1]
        assert 14.0 <= ratio <= 18.0

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_overflow_reported(self):
        grid = PeriodicGrid(64, 2.0)
        huge = PeriodicField(grid, 1e300 * np.sin(np.pi * grid.nodes))
        s = EvolutionState(huge, PeriodicField(grid, np.zeros(64)), 0.0)
        with pytest.raises(FloatingPointError, match="numerical overflow in stage"):
            stepped(ModelSpec("q0", c=1 / 3), s, 1e6)


class TestRun:
    def test_zero_data_reaches_t_end(self):
        grid = PeriodicGrid(64, 2.0)
        init = EvolutionState(
            PeriodicField(grid, np.zeros(64)), PeriodicField(grid, np.zeros(64)), 0.0
        )
        res = run(ModelSpec("q0", c=1 / 3), init, StepperConfig(t_end=1.0))
        assert res.termination == REACHED_T_END
        assert res.t_final == pytest.approx(1.0, abs=1e-12)
        for r in res.diagnostics:
            assert r.E == 0.0 and r.F == 0.0 and r.G == 0.0 and r.sup_omega == 0.0
            assert r.riccati_margin == 0.0 and r.strong_margin == 0.0

    def test_records_share_timestamps(self):
        # dt_max = 2^-7 binds, so record times are exact and midpoints are ties
        model, init = ModelSpec("q0", c=1 / 3), sin_state(128, theta_amplitude=0.2)
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
        res = run(ModelSpec("q0", c=1 / 3), init, cfg)
        assert res.termination == SUP_CAP_HIT
        assert res.diagnostics[-1].sup_omega >= 2.0
        assert res.t_final < 50.0

    def test_dt_underflow_termination(self):
        init = sin_state(64)
        cfg = StepperConfig(t_end=1.0, dt_min=0.5, dt_max=0.5)
        res = run(ModelSpec("q0", c=1 / 3), init, cfg)
        assert res.termination == DT_UNDERFLOW

    def test_dt_underflow_when_t_stops_advancing(self):
        # at t = 1 the CFL step, about 1e-17, is over dt_min but under half an ulp of t
        s = sin_state(64)
        init = EvolutionState(PeriodicField(s.grid, 1e16 * s.omega.values), s.theta, 1.0)
        cfg = StepperConfig(t_end=2.0, dt_min=1e-300, omega_sup_cap=1e17, record_every=1)
        res = run(ModelSpec("q0", c=1 / 3), init, cfg)
        assert res.termination == DT_UNDERFLOW and res.t_final == 1.0
        assert res.diagnostics.t.tolist() == [1.0]

    def test_bkm_integral_nondecreasing(self):
        init = sin_state(128, theta_amplitude=0.5)
        res = run(ModelSpec("q0", c=1 / 3), init, StepperConfig(t_end=0.5))
        bkm = [r.bkm_integral for r in res.diagnostics]
        assert all(b2 >= b1 for b1, b2 in zip(bkm, bkm[1:]))

    @pytest.mark.parametrize("dealias", [False, True])
    def test_four_rate_evaluations_per_step(self, monkeypatch, dealias):
        # the rate evaluated for the CFL speed is reused as the step's first stage
        calls = rebound_calls(monkeypatch, models, "rhs")
        model, init = ModelSpec("q0", c=1 / 3), sin_state(64, theta_amplitude=0.2)
        cfg = StepperConfig(t_end=10 * 2.0**-7, dt_max=2.0**-7, dealias=dealias)
        res = run(model, init, cfg)
        assert res.termination == REACHED_T_END and res.t_final == 10 * 2.0**-7
        assert len(calls) == 40

    def test_reference_run_counts(self, monkeypatch, tmp_path):
        # the theorem run, counted as perfbench's tracer counts it: 1033
        # steps of four rates each, and one rate for its snapshot's u column;
        # theta0 = +0.0, so every rate sees omega's row alone
        steps = rebound_calls(monkeypatch, evolve, "step_rk4")
        calls = rebound_calls(monkeypatch, models, "rhs")
        doc = {
            "model": {"name": "Q0", "c": 1.0 / 3.0},
            "grid": {"n": 2048, "L": 2.0},
            "stepper": {"t_end": 4.0, "dt_min": 1e-12, "dt_max": 0.01, "omega_sup_cap": 1e4},
            "outputs": {"directory": str(tmp_path / "out"), "snapshot_times": [0.5]},
        }
        result = run_experiment(parse_config(json.dumps(doc)))["result"]
        assert result.termination == SUP_CAP_HIT and len(result.diagnostics) == 105
        assert len(steps) == 1033 and len(calls) == 4 * 1033 + 1 == 4133
        assert [len(y) for _, y, _ in calls] == [1] * 4133

    @pytest.mark.parametrize("theta_amplitude, rows", [(0.0, 1), (0.2, 2)], ids=["zero", "nonzero"])
    def test_steps_in_two_stage_rows(self, monkeypatch, theta_amplitude, rows):
        # k[0] holds k1 and then the running sum, k[1] the current stage's
        # rate; a step of a state's rows always steps theta's row
        steps = rebound_calls(monkeypatch, evolve, "step_rk4")
        model, init = ModelSpec("q0", c=1 / 3), sin_state(64, theta_amplitude)
        run(model, init, StepperConfig(t_end=3 * 2.0**-7, dt_max=2.0**-7))
        stepped(model, init, 2.0**-7)
        shapes = [(k.shape, out.shape) for _, _, _, k, out in steps]
        assert shapes == [((2, rows, 64), (rows, 64))] * 3 + [((2, 2, 64), (2, 64))]

    @pytest.mark.parametrize(
        "entry, rows", [(0.0, 1), (5e-324, 2), (-0.0, 2)], ids=["zero", "nonzero", "minus-zero"]
    )
    def test_theta_row_is_stepped_unless_all_plus_zero(self, monkeypatch, entry, rows):
        # one entry of theta0 that is not +0.0 keeps theta's row in every evaluation
        calls = rebound_calls(monkeypatch, models, "rhs")
        s = sin_state(64)
        theta = np.zeros(64)
        theta[5] = entry
        init = EvolutionState(s.omega, PeriodicField(s.grid, theta), 0.0)
        cfg = StepperConfig(t_end=10 * 2.0**-7, dt_max=2.0**-7)
        run(ModelSpec("q0", c=1 / 3), init, cfg)
        assert [len(y) for _, y, _ in calls] == [rows] * 40

    @pytest.mark.parametrize("snapshot_times", [(), (0.0, 0.02)], ids=["none", "two"])
    def test_records_build_no_fields(self, monkeypatch, snapshot_times):
        # records read the stepped rows: a state, with its two fields, is
        # built only for a record nearer to a snapshot time than the states
        # kept so far, so a run without snapshots builds no field
        init, built = sin_state(64, theta_amplitude=0.2), []
        post_init = PeriodicField.__post_init__
        monkeypatch.setattr(PeriodicField, "__post_init__", lambda f: built.append(f) or post_init(f))
        cfg = StepperConfig(t_end=0.05, dt_max=0.004, record_every=1)
        times = run(ModelSpec("q0", c=1 / 3), init, cfg, snapshot_times).diagnostics.t
        kept, nearer = [init.time] * len(snapshot_times), 0
        for t in times:
            closer = [i for i, want in enumerate(snapshot_times) if abs(t - want) < abs(kept[i] - want)]
            for i in closer:
                kept[i] = t
            nearer += bool(closer)
        assert len(times) == 14 and nearer == (5 if snapshot_times else 0)
        assert len(built) == 2 * nearer

    def test_tiny_period_steps_at_the_cfl_scale(self, monkeypatch):
        # dx and the speed both scale with L, so the CFL steps do not depend on
        # it.  At L = 1e-305 the speed, about 1e-306, is under any absolute
        # floor such as 1e-300, which shrinks dt about 10^6-fold; a budget of
        # the two steps the run needs then ends it at once.
        steps = rebound_calls(monkeypatch, evolve, "step_rk4")
        monkeypatch.setattr(evolve, "STEP_BUDGET", 2)
        runs = []
        for L in (2.0, 1e-305):
            doc = {
                "model": {"name": "HouLuo"},
                "grid": {"n": 64, "L": L},
                "initial_data": {"theta": {"name": "zero"}},
                "stepper": {"t_end": 0.05},
            }
            config = parse_config(json.dumps(doc))
            result = run(config.model, config.initial_state(), config.stepper)
            assert result.termination == REACHED_T_END and result.t_final == 0.05
            runs.append([dt for _, _, dt, _, _ in steps])
            steps.clear()
        assert len(runs[0]) == 2 and runs[1] == runs[0]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_velocity_is_a_numerical_failure(self):
        # u = -c*omega overflows although omega itself is finite
        s = sin_state(64)
        init = EvolutionState(PeriodicField(s.grid, 2.0 * s.omega.values), s.theta, 0.0)
        with pytest.raises(FloatingPointError, match="velocity is not finite"):
            run(ModelSpec("q0", c=1e308), init, StepperConfig(t_end=1.0))

    def test_mismatched_theta_rejected(self):
        grid = PeriodicGrid(64, 2.0)
        no_theta = EvolutionState(PeriodicField(grid, np.zeros(64)), None, 0.0)
        with pytest.raises(ValueError):
            run(ModelSpec("q0", c=1 / 3), no_theta, StepperConfig(t_end=1.0))


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


def sampled(t0: float, t1: float, count: int, sup) -> np.ndarray:
    """(t, sup(t)) at ``count`` even times from t0 to t1."""
    t = np.linspace(t0, t1, count)
    return np.column_stack([t, sup(t)])


def noisy_pole(seed: int):
    """1/(5 - t) with 1% multiplicative noise."""
    return lambda t: (1.0 / (5.0 - t)) * (1.0 + 0.01 * np.random.RandomState(seed).randn(t.size))


# The series of TestBlowupEstimator, by name, for the polyfit oracle.
ESTIMATOR_SERIES = {
    "exact_reciprocal": sampled(2.0, 2.9, 32, lambda t: 1.0 / (3.0 - t)),
    "constant": sampled(0.0, 1.0, 16, np.ones_like),
    "positive_slope": sampled(0.0, 1.0, 16, lambda t: 1.0 / (1.0 + t)),
    **{f"noise_seed{seed}": sampled(3.0, 4.8, 64, noisy_pole(seed)) for seed in range(20)},
}


def polyfit_root(series):
    """The estimator's fit by ``np.polyfit``, the LAPACK route it replaced:
    the root, or None where the estimator gives none."""
    t, sup = np.asarray(series, dtype=float).T
    m = max(int(np.ceil(FIT_FRACTION * t.size)), 3)
    tt, yy = t[-m:], 1.0 / sup[-m:]
    slope, intercept = np.polyfit(tt, yy, 1)
    rms = np.sqrt(np.mean((yy - (slope * tt + intercept)) ** 2))
    with np.errstate(divide="ignore", invalid="ignore"):
        root = -intercept / slope
    if slope < 0 and rms / np.max(np.abs(yy)) <= FIT_RESIDUAL_THRESHOLD and np.isfinite(root):
        return float(root)
    return None


def exact_root(series) -> float:
    """The estimator's least-squares root in exact rational arithmetic, from
    the float samples of 1/sup."""
    t, sup = np.asarray(series, dtype=float).T
    m = max(int(np.ceil(FIT_FRACTION * t.size)), 3)
    tt, yy = [Fraction(v) for v in t[-m:]], [Fraction(v) for v in 1.0 / sup[-m:]]
    t_mean, y_mean = sum(tt) / m, sum(yy) / m
    slope = sum((a - t_mean) * (b - y_mean) for a, b in zip(tt, yy)) / sum((a - t_mean) ** 2 for a in tt)
    return float(t_mean - y_mean / slope)


class TestBlowupEstimator:
    def test_exact_reciprocal(self):
        est = estimate_blowup_time(ESTIMATOR_SERIES["exact_reciprocal"])
        assert est == pytest.approx(3.0, abs=1e-6)

    def test_constant_series(self):
        # a slope of exactly 0 forms no root: no ZeroDivisionError, no warning
        assert estimate_blowup_time(ESTIMATOR_SERIES["constant"]) is None

    def test_noise_robustness(self):
        # 1% multiplicative noise on 1/(5 - t); Monte Carlo over seeds
        for seed in range(20):
            est = estimate_blowup_time(ESTIMATOR_SERIES[f"noise_seed{seed}"])
            assert est is not None
            assert 4.9 <= est <= 5.1

    @pytest.mark.parametrize("name", sorted(ESTIMATOR_SERIES))
    def test_matches_the_polyfit_oracle(self, name):
        series = ESTIMATOR_SERIES[name]
        expected, est = polyfit_root(series), estimate_blowup_time(series)
        if expected is None:
            assert est is None
        else:
            assert est == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_reference_run_matches_the_polyfit_oracle(self, blowup_run):
        expected = polyfit_root(blowup_run.sup_series)
        assert expected is not None
        assert estimate_blowup_time(blowup_run.sup_series) == pytest.approx(expected, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("rate", [1e-4, 1e-5, 1e-6])
    def test_nearly_flat_line_is_the_exact_root(self, rate):
        # the root lies far past the window, so its digits rest on a tiny
        # slope: np.polyfit's root is 1e-10 to 7e-9 off here
        series = sampled(0.0, 0.5, 26, lambda t: 1.0 / (5.0 - rate * t + 1e-3 * rate * np.sin(7 * t)))
        assert estimate_blowup_time(series) == pytest.approx(exact_root(series), rel=1e-15, abs=0.0)

    def test_fit_calls_no_lapack(self, blowup_run, monkeypatch):
        def lapack(*args, **kwargs):
            raise AssertionError("the fit called a LAPACK routine")

        monkeypatch.setattr(np, "polyfit", lapack)
        monkeypatch.setattr(np.linalg, "lstsq", lapack)
        assert estimate_blowup_time(blowup_run.sup_series) is not None

    def test_too_few_samples(self):
        t = np.linspace(0.0, 1.0, 5)
        with pytest.raises(ValueError):
            estimate_blowup_time(np.column_stack([t, np.exp(t)]))

    def test_non_increasing_times_rejected(self):
        t = np.array([0.0, 0.1, 0.1, 0.3, 0.4, 0.5, 0.6, 0.7])
        with pytest.raises(ValueError):
            estimate_blowup_time(np.column_stack([t, np.exp(t)]))

    def test_positive_slope_is_no_blowup(self):
        # decaying sup -> 1/sup increasing
        assert estimate_blowup_time(ESTIMATOR_SERIES["positive_slope"]) is None


# The stepper as it was before the run kept one workspace: a kernel that
# rebuilds its spectra on every call, fresh arrays in every stage and states
# built at every step.  The workspace must reproduce it bit for bit.
def reference_half_line_velocity(model, grid, omega):
    p = int(round(model.truncation_X / grid.dx))
    idx = (grid.index_of_zero + np.arange(p + 1)) % grid.n_points
    x = grid.dx * np.arange(p + 1)
    f = np.zeros(p + 1)
    f[1:] = omega[idx[1:]] / x[1:]
    g = f[::-1]
    panel = (g[:-2] + 4.0 * g[1:-1] + g[2:]) / 3.0
    tail = np.zeros(p + 1)
    tail[1] = 0.5 * (g[0] + g[1])
    tail[2::2] = np.cumsum(panel[0::2])
    if p >= 3:
        tail[3::2] = 0.375 * (g[0] + 3.0 * g[1] + 3.0 * g[2] + g[3])
        tail[5::2] += np.cumsum(panel[3::2])
    u = np.zeros(grid.n_points)
    u[idx[1:-1]] = -x[1:-1] * (grid.dx * tail[p - 1 : 0 : -1])
    return u


REFERENCE_REAL_SPACE_LAWS = {
    "local": lambda model, grid, omega: -model.c * omega,
    "half_line": reference_half_line_velocity,
}


def reference_evaluate(model, grid, y, dealias=False, with_rate=True):
    row, m = model.row, {name: multiplier(grid, name) for name in MULTIPLIERS}
    real_law = REFERENCE_REAL_SPACE_LAWS.get(row.law)
    y_hat = np.fft.rfft(y) if with_rate or real_law is None else None
    spectra = [] if real_law else [y_hat[0] * m[row.law]]
    if with_rate:
        spectra += [spectra[0] * m["derivative"]] if row.stretching else []
        spectra += list(y_hat * m["derivative"])
    back = list(np.fft.irfft(np.array(spectra), n=grid.n_points)) if spectra else []
    u = real_law(model, grid, y[0]) if real_law else back.pop(0)
    if not with_rate:
        return u, None
    u_x = back.pop(0) if row.stretching else None
    product = (lambda a, b: dealias_filter(a * b)) if dealias else np.multiply
    w = model.a_ok if row.transport is None else row.transport
    rate = np.empty_like(y)
    rate[0] = -w * product(u, back[0])
    if row.stretching:
        rate[0] += product(u_x, y[0])
    if row.theta:
        rate[0] += back[1]
        rate[1] = -product(u, back[1])
    return u, rate


def reference_step(model, s, dt, dealias=False, k1=None):
    grid = s.grid
    y = state_rows(model, s)

    def rate(rows):
        return reference_evaluate(model, grid, rows, dealias)[1]

    def advanced(k, coef, stage):
        rows = y + coef * k
        if not np.all(np.isfinite(rows)):
            raise FloatingPointError(f"numerical overflow in stage {stage}")
        return rows

    if k1 is None:
        k1 = rate(y)
    k2 = rate(advanced(k1, dt / 2, 2))
    k3 = rate(advanced(k2, dt / 2, 3))
    k4 = rate(advanced(k3, dt, 4))
    out = advanced((k1 + 2 * k2 + 2 * k3 + k4) / 6.0, dt, 4)
    theta = PeriodicField(grid, out[1]) if s.theta is not None else None
    return EvolutionState(PeriodicField(grid, out[0]), theta, s.time + dt)


def reference_run(model, init, cfg, snapshot_times=()):
    state, snapshots, records = init, [init] * len(snapshot_times), []

    def record(s, bkm):
        records.append(record_of(model, s, bkm))
        for i, t_want in enumerate(snapshot_times):
            if abs(s.time - t_want) < abs(snapshots[i].time - t_want):
                snapshots[i] = s

    record(state, 0.0)
    bkm, step = 0.0, 0
    while True:
        sup_omega = state.omega.sup_norm
        if sup_omega >= cfg.omega_sup_cap:
            termination = SUP_CAP_HIT
            break
        if state.time >= cfg.t_end - 1e-14:
            termination = REACHED_T_END
            break
        u, k1 = reference_evaluate(model, state.grid, state_rows(model, state), cfg.dealias)
        speed = float(np.max(np.abs(u)))
        dt_cfl = cfg.cfl * init.grid.dx / max(speed, 1e-300)
        dt = min(min(dt_cfl, cfg.dt_max), cfg.t_end - state.time)
        if dt_cfl < cfg.dt_min or state.time + dt == state.time:
            termination = DT_UNDERFLOW
            break
        try:
            new_state = reference_step(model, state, dt, cfg.dealias, k1)
        except FloatingPointError:
            termination = SUP_CAP_HIT
            break
        bkm += 0.5 * dt * (sup_omega + new_state.omega.sup_norm)
        state = new_state
        step += 1
        if step % cfg.record_every == 0:
            record(state, bkm)
    if records[-1].t != state.time:
        record(state, bkm)
    return snapshots, with_margins(records, init.grid.period_L), termination, state.time


ALL_MODELS = [
    ModelSpec("clm"),
    ModelSpec("de_gregorio"),
    ModelSpec("ccf"),
    ModelSpec("okamoto", a_ok=0.5),
    ModelSpec("hou_luo"),
    ModelSpec("cky", truncation_X=0.5),
    ModelSpec("q0", c=1 / 3),
]


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def rough_state(model, n, zero_theta=False):
    """Twelve seeded modes each, odd omega and even theta, so that the 2/3
    filter removes part of every product; with ``zero_theta``, theta = +0.0."""
    grid = PeriodicGrid(n, 2.0)
    rng = np.random.default_rng(n)
    k = np.arange(1, 13)[:, None] * np.pi * grid.nodes
    omega = PeriodicField(grid, rng.uniform(-1, 1, 12) / np.arange(1, 13) @ np.sin(k))
    theta = PeriodicField(grid, 0.3 + 0.1 * rng.uniform(-1, 1, 12) @ np.cos(k))
    if zero_theta:
        theta = PeriodicField(grid, np.zeros(n))
    return EvolutionState(omega, theta if model.has_theta else None, 0.0)


def assert_same_run(model, init, cfg, snapshot_times=()):
    snapshots, records, termination, t_final = reference_run(model, init, cfg, snapshot_times)
    res = run(model, init, cfg, snapshot_times)
    assert res.termination == termination and same_bits(res.t_final, t_final)
    assert same_bits(res.diagnostics, np.array(records, RECORD_DTYPE).view(np.recarray))
    for got, want in zip(res.states, snapshots, strict=True):
        assert same_bits(got.time, want.time) and same_bits(got.omega.values, want.omega.values)
        if model.has_theta:
            assert same_bits(got.theta.values, want.theta.values)
    return res


@pytest.mark.parametrize("n", [64, 128])
@pytest.mark.parametrize("dealias", [False, True])
@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.kind)
class TestBitwiseAgainstReference:
    def test_kernel(self, model, dealias, n):
        s = rough_state(model, n)
        y = state_rows(model, s)
        u_ref, rate_ref = reference_evaluate(model, s.grid, y, dealias)
        u_only, _ = reference_evaluate(model, s.grid, y[:1], with_rate=False)
        assert same_bits(u_only, u_ref)
        assert same_bits(biot_savart(model, s.omega).values, u_ref)
        rate = rate_of(model, s, dealias)
        assert same_bits(rate[0], rate_ref[0])
        assert same_bits(rate[1], rate_ref[1]) if model.has_theta else len(rate) == 1
        got, want = stepped(model, s, 1e-3, dealias), reference_step(model, s, 1e-3, dealias)
        assert same_bits(got.omega.values, want.omega.values) and got.time == want.time
        if model.has_theta:
            assert same_bits(got.theta.values, want.theta.values)
            # a one-row y stands for theta = +0.0: omega's rate is the two-row one
            y = state_rows(model, rough_state(model, n, zero_theta=True))
            rate = np.empty_like(y[:1])
            rhs(KernelPlan(model, s.grid, dealias), y[:1], rate)
            assert same_bits(rate[0], reference_evaluate(model, s.grid, y, dealias)[1][0])

    def test_run(self, model, dealias, n):
        cfg = StepperConfig(t_end=0.05, dt_max=0.004, record_every=3, dealias=dealias)
        res = assert_same_run(model, rough_state(model, n), cfg, (0.0, 0.02, 0.05))
        assert res.termination == REACHED_T_END and len(res.diagnostics) > 3
        if model.has_theta:
            # theta0 = +0.0: the run steps omega alone, the reference both rows
            init = rough_state(model, n, zero_theta=True)
            res = assert_same_run(model, init, cfg, (0.0, 0.02, 0.05))
            assert res.termination == REACHED_T_END and len(res.diagnostics) > 3
            for s in res.states:
                assert not np.any(s.theta.values) and not np.any(np.signbit(s.theta.values))


class TestBitwiseEndings:
    def test_sup_cap(self):
        cfg = StepperConfig(t_end=50.0, omega_sup_cap=2.0, dt_max=0.01, record_every=7)
        init = sin_state(128, theta_amplitude=1.0)
        res = assert_same_run(ModelSpec("q0", c=1 / 3), init, cfg, (0.3,))
        assert res.termination == SUP_CAP_HIT

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflow_mid_step(self):
        # |u| ~ 1e200 is finite, but its rate overflows in the first stage
        s = sin_state(64)
        init = EvolutionState(PeriodicField(s.grid, 1e200 * s.omega.values), None, 0.0)
        cfg = StepperConfig(t_end=1.0, dt_min=1e-300, omega_sup_cap=1e300)
        res = assert_same_run(ModelSpec("ccf"), init, cfg)
        assert res.termination == SUP_CAP_HIT and res.t_final == 0.0

    @pytest.mark.parametrize("dealias", [False, True])
    def test_dt_underflow(self, dealias):
        # sup|omega| grows from 1, so the CFL step falls below 0.015 from 0.019
        cfg = StepperConfig(t_end=5.0, dt_min=0.015, dt_max=0.02, record_every=1, dealias=dealias)
        init = sin_state(128, theta_amplitude=1.0)
        res = assert_same_run(ModelSpec("q0", c=1 / 3), init, cfg, (0.1,))
        assert res.termination == DT_UNDERFLOW and len(res.diagnostics) > 3
