"""Adaptive RK4 time integration with blow-up termination and T* estimation."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .diagnostics import RECORD_DTYPE, compute_record, fill_margin_fields
from .grid import PeriodicField, PeriodicGrid, is_plus_zero
from .models import EvolutionState, KernelPlan, ModelSpec, state_rows

REACHED_T_END = "reached_t_end"
SUP_CAP_HIT = "sup_cap_hit"
DT_UNDERFLOW = "dt_underflow"

# The most steps a run may take.  dt never exceeds dt_max, so parsing rejects
# a run with t_end / dt_max over the budget, and a run whose CFL step keeps dt
# far below dt_max stops here; either could not finish in reasonable time.
STEP_BUDGET = 10**6

# Fit settings of a run's blow-up estimate; the relaxed residual accepts the
# steeper-than-pole growth a spectral run shows once it leaves resolution.
FIT_MIN_SAMPLES = 8
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
    diagnostics: np.recarray  # one RECORD_DTYPE row per record, in one float buffer
    termination: str
    t_final: float
    period_L: float

    @property
    def sup_series(self) -> np.ndarray:
        return np.column_stack((self.diagnostics.t, self.diagnostics.sup_omega))

    @cached_property
    def estimated_blowup_time(self) -> Optional[float]:
        """Pole-fit blow-up time of the sup history, fitted once (None below FIT_MIN_SAMPLES)."""
        if len(self.diagnostics) < FIT_MIN_SAMPLES:
            return None
        return estimate_blowup_time(self.sup_series)


def _rk4(plan: KernelPlan, y: np.ndarray, dt: float, k: np.ndarray, out: np.ndarray) -> None:
    """One classical RK4 step of the stacked rows ``y`` into ``out``, in two
    stage rows.  ``k[0]`` holds the rate at ``y`` and becomes the running sum
    k1 + 2*k2 + 2*k3 + k4, added in that order; ``k[1]`` holds the current
    stage's rate, doubled only once the next stage's rows are formed from
    it.  ``out`` carries each stage's rows before the result.  Every stage's
    rows are checked finite, so numpy's overflow warnings are not needed here."""

    def advanced(k_i: np.ndarray, coef: float, stage: int) -> np.ndarray:
        np.multiply(k_i, coef, out=out)
        np.add(y, out, out=out)
        if not np.isfinite(out).all():
            raise FloatingPointError(f"numerical overflow in stage {stage}")
        return out

    acc, rate = k
    with np.errstate(over="ignore", invalid="ignore"):
        plan.evaluate(advanced(acc, dt / 2, 2), rate)
        for coef, stage in ((dt / 2, 3), (dt, 4)):
            advanced(rate, coef, stage)
            rate *= 2
            acc += rate
            plan.evaluate(out, rate)
        acc += rate
        acc /= 6.0
        advanced(acc, dt, 4)


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
    y = state_rows(model, s)
    plan = KernelPlan(model, s.grid, dealias)
    k = np.empty((2,) + y.shape)
    plan.evaluate(y, k[0])
    out = np.empty_like(y)
    _rk4(plan, y, dt, k, out)
    return _state(model, s.grid, out, s.time + dt)


def run(
    model: ModelSpec, init: EvolutionState, cfg: StepperConfig, snapshot_times: Sequence[float] = ()
) -> RunResult:
    """March the model with CFL-limited RK4 steps until a termination event.

    dt = clamp(cfl * dx / |u|_inf, dt_min, dt_max), additionally shortened to
    land exactly on t_end; the quotient is inf at u = 0 and past the float
    range.  Diagnostics are recorded at t = 0, every ``record_every`` steps
    and at termination.  A CFL time step below
    dt_min, or a step too small to advance t, is the recorded termination
    ``dt_underflow``, not a failure; an
    overflow inside a stage is treated as a sup-cap event at the last finite
    state; a non-finite velocity, and a run that has taken ``STEP_BUDGET``
    steps without ending, raise FloatingPointError.  The rate evaluated for
    the CFL speed is the step's first RK4 stage.
    ``RunResult.states`` keeps, for each of ``snapshot_times``, the
    recorded state nearest to it (the earliest on a tie), and no other state.

    The run steps the stacked rows (omega[, theta]) in one workspace: one
    :class:`KernelPlan`, the rows and their successor, and two stage rows
    (see ``_rk4``).  It builds states only to record them.  A theta that starts at +0.0 at every node stays exactly
    +0.0, so the run then steps omega's row alone and records theta as zeros.
    """
    grid = init.grid
    y = state_rows(model, init)
    plan = KernelPlan(model, grid, cfg.dealias)
    if model.has_theta and is_plus_zero(y[1]):
        y = y[:1].copy()  # theta = +0.0 everywhere, and it stays so; its row is freed
    y_next = np.empty_like(y)
    k = np.empty((2,) + y.shape)

    snapshots = [init] * len(snapshot_times)
    rows = bytearray()  # a float64 row of each record's fields, record after record

    def record(s: EvolutionState, bkm: float) -> None:
        with np.errstate(over="ignore", invalid="ignore"):  # an inf or nan stays visible in the CSV
            rows.extend(np.array(compute_record(model, s, bkm), dtype=np.float64))
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
        # no speed floor: a quotient past the float range is inf, which dt_max clamps
        dt_cfl = cfg.cfl * grid.dx / speed if speed > 0.0 else math.inf
        dt = min(min(dt_cfl, cfg.dt_max), cfg.t_end - t)
        if dt_cfl < cfg.dt_min or t + dt == t:  # below dt_min, or below half an ulp of t
            termination = DT_UNDERFLOW
            break
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

    del k, y_next  # the final record needs neither
    if not rows or np.frombuffer(rows)[-len(RECORD_DTYPE)] != t:  # the last record's t
        record(init if step == 0 else _state(model, grid, y, t), bkm)
    table = np.frombuffer(rows, RECORD_DTYPE).view(np.recarray)
    fill_margin_fields(table, grid.period_L)
    return RunResult(snapshots, table, termination, t, grid.period_L)


def estimate_blowup_time(sup_series: Sequence[Tuple[float, float]]) -> Optional[float]:
    """Pole-ansatz blow-up time from a sup-norm history.

    Fits 1/sup against t by least squares over the trailing ``FIT_FRACTION``
    of the samples and returns the root of the fit when the slope is
    negative, the relative RMS residual is below ``FIT_RESIDUAL_THRESHOLD``
    and 1/sup and the root are finite, and None otherwise ("no blow-up
    detected").  The 1/(T - t) ansatz detects; it asserts no growth rate.
    """
    arr = np.asarray(sup_series, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < FIT_MIN_SAMPLES:
        raise ValueError(f"need at least {FIT_MIN_SAMPLES} (t, sup) samples")
    t, sup = arr[:, 0], arr[:, 1]
    if np.any(np.diff(t) <= 0):
        raise ValueError("sample times must be strictly increasing")
    if np.any(sup <= 0):
        return None
    m = max(int(np.ceil(FIT_FRACTION * t.size)), 3)
    # a sup near the float floor overflows 1/sup, the residual or the root
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        tt, yy = t[-m:], 1.0 / sup[-m:]
        if not np.isfinite(yy).all():
            return None
        # least squares about the means, from numpy sums: a LAPACK fit would
        # fault in about 1 MB of library pages to find these two numbers
        t_mean, y_mean = tt.mean(), yy.mean()
        dt, dy = tt - t_mean, yy - y_mean
        slope = float(np.sum(dt * dy) / np.sum(dt * dt))
        rms = float(np.sqrt(np.mean((dy - slope * dt) ** 2)))
        # only a falling line has a root ahead; a flat one (slope 0) has none
        root = float(t_mean - y_mean / slope) if slope < 0 else math.nan
    scale = max(float(np.max(np.abs(yy))), 1e-300)
    # each test states what passes, so a nan fails it
    if rms / scale <= FIT_RESIDUAL_THRESHOLD and math.isfinite(root):
        return root
    return None
