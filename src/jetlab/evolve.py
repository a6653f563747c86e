"""Adaptive RK4 time integration with blow-up termination and T* estimation."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .diagnostics import DiagnosticRecord, compute_record, fill_margin_fields
from .grid import PeriodicField, PeriodicGrid
from .models import EvolutionState, KernelPlan, ModelSpec, state_rows

REACHED_T_END = "reached_t_end"
SUP_CAP_HIT = "sup_cap_hit"
DT_UNDERFLOW = "dt_underflow"

_SPEED_FLOOR = 1e-300

# The most steps a run may take.  dt never exceeds dt_max, so parsing rejects
# a run with t_end / dt_max over the budget, and a run whose CFL step keeps dt
# far below dt_max stops here; either could not finish in reasonable time.
STEP_BUDGET = 10**6

# Fit settings of a run's blow-up estimate; the relaxed residual accepts the
# steeper-than-pole growth a spectral run shows once it leaves resolution.
FIT_FRACTION = 0.25
FIT_RESIDUAL_THRESHOLD = 0.5


@dataclass(frozen=True)
class StepperConfig:
    t_end: float
    cfl: float = 0.4
    dt_min: float = 1e-10
    dt_max: float = 0.05
    omega_sup_cap: float = 1e6
    record_every: int = 10
    dealias: bool = False

    def __post_init__(self) -> None:
        if not 0 < self.cfl <= 1:
            raise ValueError("cfl must lie in (0, 1]")
        if not 0 < self.dt_min <= self.dt_max:
            raise ValueError("need 0 < dt_min <= dt_max")
        if self.t_end <= 0 or self.omega_sup_cap <= 0:
            raise ValueError("t_end and omega_sup_cap must be positive")
        if self.record_every < 1:
            raise ValueError("record_every must be a positive integer")


@dataclass
class RunResult:
    states: List[EvolutionState]  # one snapshot state per requested time
    diagnostics: List[DiagnosticRecord]
    termination: str
    t_final: float
    period_L: float

    @property
    def sup_series(self) -> np.ndarray:
        return np.array([(r.t, r.sup_omega) for r in self.diagnostics])

    @cached_property
    def estimated_blowup_time(self) -> Optional[float]:
        """Pole-fit blow-up time of the sup history, fitted once (None below 8 records)."""
        if len(self.diagnostics) < 8:
            return None
        return estimate_blowup_time(self.sup_series, FIT_FRACTION, FIT_RESIDUAL_THRESHOLD)


def _rk4(plan: KernelPlan, y: np.ndarray, dt: float, k: np.ndarray, out: np.ndarray) -> None:
    """One classical RK4 step of the stacked rows ``y`` into ``out``.  ``k[0]``
    holds the rate at ``y``; ``k[1:]`` are stage buffers, and ``out`` carries
    each stage's rows before the result.  Every stage's rows are checked
    finite, so numpy's overflow warnings are not needed here."""

    def advanced(k_i: np.ndarray, coef: float, stage: int) -> np.ndarray:
        np.multiply(k_i, coef, out=out)
        np.add(y, out, out=out)
        if not np.isfinite(out).all():
            raise FloatingPointError(f"numerical overflow in stage {stage}")
        return out

    with np.errstate(over="ignore", invalid="ignore"):
        plan.evaluate(advanced(k[0], dt / 2, 2), k[1])
        plan.evaluate(advanced(k[1], dt / 2, 3), k[2])
        plan.evaluate(advanced(k[2], dt, 4), k[3])
        # (k1 + 2*k2 + 2*k3 + k4) / 6, in that order
        k[1] *= 2
        k[1] += k[0]
        k[2] *= 2
        k[1] += k[2]
        k[1] += k[3]
        k[1] /= 6.0
        advanced(k[1], dt, 4)


def _state(model: ModelSpec, grid: PeriodicGrid, y: np.ndarray, time: float) -> EvolutionState:
    """The state of the stacked rows ``y``, on copies of them; a theta model's
    one-row ``y`` has theta = +0.0 at every node."""
    theta = None
    if model.has_theta:
        theta = PeriodicField(grid, y[1].copy() if len(y) > 1 else np.zeros(grid.n_points))
    return EvolutionState(PeriodicField(grid, y[0].copy()), theta, time)


def step_rk4(
    model: ModelSpec, s: EvolutionState, dt: float, dealias: bool = False
) -> EvolutionState:
    """One classical 4-stage explicit step of the model's dynamics, run on the
    stacked rows (omega[, theta]) with one finiteness check per stage."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    plan = KernelPlan(model, s.grid, dealias)
    y = state_rows(model, s)
    k = np.empty((4,) + y.shape)
    plan.evaluate(y, k[0])
    out = np.empty_like(y)
    _rk4(plan, y, dt, k, out)
    return _state(model, s.grid, out, s.time + dt)


def run(
    model: ModelSpec, init: EvolutionState, cfg: StepperConfig, snapshot_times: Sequence[float] = ()
) -> RunResult:
    """March the model with CFL-limited RK4 steps until a termination event.

    dt = clamp(cfl * dx / max(|u|_inf, eps), dt_min, dt_max), additionally
    shortened to land exactly on t_end.  Diagnostics are recorded at t = 0,
    every ``record_every`` steps and at termination.  A CFL time step below
    dt_min is the recorded termination ``dt_underflow``, not a failure; an
    overflow inside a stage is treated as a sup-cap event at the last finite
    state; a non-finite velocity, and a run that has taken ``STEP_BUDGET``
    steps without ending, raise FloatingPointError.  The rate evaluated for
    the CFL speed is the step's first RK4 stage.
    ``RunResult.states`` keeps, for each of ``snapshot_times``, the
    recorded state nearest to it (the earliest on a tie), and no other state.

    The run steps the stacked rows (omega[, theta]) in one workspace: one
    :class:`KernelPlan` and fixed stage buffers.  It builds states only to
    record them.  A theta that starts at +0.0 at every node stays exactly
    +0.0, so the run then steps omega's row alone and records theta as zeros.
    """
    if model.has_theta != (init.theta is not None):
        raise ValueError("initial state theta presence must match the model")
    grid = init.grid
    plan = KernelPlan(model, grid, cfg.dealias)
    y = state_rows(model, init)
    if model.has_theta and not (np.any(y[1]) or np.any(np.signbit(y[1]))):
        y = y[:1]  # theta = +0.0 everywhere, and it stays so
    y_next = np.empty_like(y)
    k = np.empty((4,) + y.shape)

    snapshots = [init] * len(snapshot_times)
    records: List[DiagnosticRecord] = []

    def record(s: EvolutionState, bkm: float) -> None:
        records.append(compute_record(model, s, bkm))
        for i, t_want in enumerate(snapshot_times):
            if abs(s.time - t_want) < abs(snapshots[i].time - t_want):
                snapshots[i] = s

    t = init.time
    sup_omega = float(np.max(np.abs(y[0])))
    bkm = 0.0
    step = 0
    termination = None

    while True:
        if sup_omega >= cfg.omega_sup_cap:
            termination = SUP_CAP_HIT
            break
        if t >= cfg.t_end - 1e-14:
            termination = REACHED_T_END
            break
        if step >= STEP_BUDGET:
            raise FloatingPointError(
                f"step budget of {STEP_BUDGET} steps spent at t = {t:.6g} < t_end = {cfg.t_end:g}"
            )
        with np.errstate(over="ignore", invalid="ignore"):  # the speed is checked below
            speed = float(np.max(np.abs(plan.evaluate(y, k[0]))))
        if not np.isfinite(speed):
            raise FloatingPointError("velocity is not finite")
        if step == 0:
            record(init, 0.0)  # t = 0, once its velocity is known to be finite
        dt_cfl = cfg.cfl * grid.dx / max(speed, _SPEED_FLOOR)
        if dt_cfl < cfg.dt_min:
            termination = DT_UNDERFLOW
            break
        dt = min(min(dt_cfl, cfg.dt_max), cfg.t_end - t)
        try:
            _rk4(plan, y, dt, k, y_next)
        except FloatingPointError:
            termination = SUP_CAP_HIT  # left the representable range mid-step
            break
        y, y_next = y_next, y
        t += dt
        sup_new = float(np.max(np.abs(y[0])))
        bkm += 0.5 * dt * (sup_omega + sup_new)
        sup_omega = sup_new
        step += 1
        if step % cfg.record_every == 0:
            record(_state(model, grid, y, t), bkm)

    if not records or records[-1].t != t:
        record(init if step == 0 else _state(model, grid, y, t), bkm)
    fill_margin_fields(records, grid.period_L)
    return RunResult(snapshots, records, termination, t, grid.period_L)


def estimate_blowup_time(
    sup_series: Sequence[Tuple[float, float]],
    fit_fraction: float = 0.25,
    residual_threshold: float = 0.1,
) -> Optional[float]:
    """Pole-ansatz blow-up time from a sup-norm history.

    Fits 1/sup against t by least squares over the trailing ``fit_fraction``
    of the samples and returns the root of the fit when the slope is
    negative and the relative RMS residual is below ``residual_threshold``;
    otherwise returns None ("no blow-up detected").  The 1/(T - t) ansatz is
    a detection tool only; no growth rate is asserted.
    """
    arr = np.asarray(sup_series, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 8:
        raise ValueError("need at least 8 (t, sup) samples")
    t, sup = arr[:, 0], arr[:, 1]
    if np.any(np.diff(t) <= 0):
        raise ValueError("sample times must be strictly increasing")
    if np.any(sup <= 0):
        return None
    m = max(int(np.ceil(fit_fraction * t.size)), 3)
    tt, yy = t[-m:], 1.0 / sup[-m:]
    slope, intercept = np.polyfit(tt, yy, 1)
    if slope >= 0:
        return None
    fit = slope * tt + intercept
    rms = float(np.sqrt(np.mean((yy - fit) ** 2)))
    scale = max(float(np.max(np.abs(yy))), 1e-300)
    if rms / scale > residual_threshold:
        return None
    return float(-intercept / slope)
