"""Adaptive RK4 time integration with blow-up termination and T* estimation."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .diagnostics import DiagnosticRecord, compute_record, fill_margin_fields
from .grid import PeriodicField
from .models import EvolutionState, ModelSpec, _evaluate, biot_savart, state_rows

REACHED_T_END = "reached_t_end"
SUP_CAP_HIT = "sup_cap_hit"
DT_UNDERFLOW = "dt_underflow"

_SPEED_FLOOR = 1e-300

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


def step_rk4(
    model: ModelSpec, s: EvolutionState, dt: float, dealias: bool = False
) -> EvolutionState:
    """One classical 4-stage explicit step of the model's dynamics, run on the
    stacked rows (omega[, theta]) with one finiteness check per stage."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    grid = s.grid
    y = state_rows(model, s)

    def rate(rows: np.ndarray) -> np.ndarray:
        return _evaluate(model, grid, rows, dealias)[1]

    def advanced(k: np.ndarray, coef: float, stage: int) -> np.ndarray:
        rows = y + coef * k
        if not np.all(np.isfinite(rows)):
            raise FloatingPointError(f"numerical overflow in stage {stage}")
        return rows

    k1 = rate(y)
    k2 = rate(advanced(k1, dt / 2, 2))
    k3 = rate(advanced(k2, dt / 2, 3))
    k4 = rate(advanced(k3, dt, 4))
    out = advanced((k1 + 2 * k2 + 2 * k3 + k4) / 6.0, dt, 4)
    theta = PeriodicField(grid, out[1]) if s.theta is not None else None
    return EvolutionState(PeriodicField(grid, out[0]), theta, s.time + dt)


def run(
    model: ModelSpec, init: EvolutionState, cfg: StepperConfig, snapshot_times: Sequence[float] = ()
) -> RunResult:
    """March the model with CFL-limited RK4 steps until a termination event.

    dt = clamp(cfl * dx / max(|u|_inf, eps), dt_min, dt_max), additionally
    shortened to land exactly on t_end.  Diagnostics are recorded at t = 0,
    every ``record_every`` steps and at termination.  A CFL time step below
    dt_min is the recorded termination ``dt_underflow``, not a failure; an
    overflow inside a stage is treated as a sup-cap event at the last finite
    state.  ``RunResult.states`` keeps, for each of ``snapshot_times``, the
    recorded state nearest to it (the earliest on a tie), and no other state.
    """
    if model.has_theta != (init.theta is not None):
        raise ValueError("initial state theta presence must match the model")
    dx = init.grid.dx

    state = init
    snapshots = [init] * len(snapshot_times)
    records: List[DiagnosticRecord] = []

    def record(s: EvolutionState, bkm: float) -> None:
        records.append(compute_record(model, s, bkm))
        for i, t_want in enumerate(snapshot_times):
            if abs(s.time - t_want) < abs(snapshots[i].time - t_want):
                snapshots[i] = s

    record(state, 0.0)
    bkm = 0.0
    step = 0
    termination = None

    while True:
        sup_omega = state.omega.sup_norm
        if sup_omega >= cfg.omega_sup_cap:
            termination = SUP_CAP_HIT
            break
        if state.time >= cfg.t_end - 1e-14:
            termination = REACHED_T_END
            break
        u = biot_savart(model, state.omega)
        dt_cfl = cfg.cfl * dx / max(u.sup_norm, _SPEED_FLOOR)
        if dt_cfl < cfg.dt_min:
            termination = DT_UNDERFLOW
            break
        dt = min(min(dt_cfl, cfg.dt_max), cfg.t_end - state.time)
        try:
            new_state = step_rk4(model, state, dt, cfg.dealias)
        except FloatingPointError:
            termination = SUP_CAP_HIT  # left the representable range mid-step
            break
        bkm += 0.5 * dt * (sup_omega + new_state.omega.sup_norm)
        state = new_state
        step += 1
        if step % cfg.record_every == 0:
            record(state, bkm)

    if records[-1].t != state.time:
        record(state, bkm)
    fill_margin_fields(records, init.grid.period_L)
    return RunResult(snapshots, records, termination, state.time, init.grid.period_L)


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
