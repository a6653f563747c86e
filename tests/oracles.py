"""Closed-form solutions of two members of the model family, the
one-record-at-a-time derivative and margin rules of the diagnostics, and the
CLI's stepping, record and jet routes called on a state or a strip field,
for tests.

* Q0 with theta = 0 is inviscid Burgers: its law u = -c omega makes
  omega_t = c omega omega_x, so omega keeps its initial value along the
  characteristics x = xi - c omega0(xi) t until they cross, at
  T_s = 1 / (c max omega0').
* CLM has the Constantin-Lax-Majda formula (Comm. Pure Appl. Math. 38,
  1985), omega = 4 omega0 / ((2 - t H omega0)^2 + t^2 omega0^2) with
  jetlab's H (multiplier -i sign k), which blows up at
  T = 2 / max{H omega0 : omega0 = 0}.  The oracle computes its own H.
* ``three_point_slopes`` and ``with_margins`` fill dF/dt and the two margins
  of a run's records with a Python loop over the samples: an independent
  check of the column-wise fill.
"""

import numpy as np

from jetlab import EvolutionState, PeriodicField, diagnostics, evolve, models, strip


def burgers_q0(omega0, omega0_x, c: float, x: np.ndarray, t: float) -> np.ndarray:
    """omega(x, t) of Q0 with theta = 0 for t < T_s: omega0 at the foot xi
    of each characteristic, found by Newton's method on
    xi - c omega0(xi) t = x from xi = x."""
    xi = np.array(x, dtype=float)
    for _ in range(100):
        step = (xi - c * omega0(xi) * t - x) / (1.0 - c * omega0_x(xi) * t)
        xi -= step
        if np.max(np.abs(step)) <= 1e-15:
            break
    else:
        raise AssertionError(f"Newton's method did not converge at t = {t}")
    return omega0(xi)


def clm(omega0: PeriodicField, t: float) -> np.ndarray:
    """omega(., t) of CLM on omega0's grid, for t before its blow-up time."""
    w = omega0.values
    # H: -i sign(k) on the rfft bins, with the mean and Nyquist bins zeroed
    multiplier = np.full(w.size // 2 + 1, -1j)
    multiplier[0] = multiplier[-1] = 0.0
    h = np.fft.irfft(np.fft.rfft(w) * multiplier, n=w.size)
    return 4.0 * w / ((2.0 - t * h) ** 2 + (t * w) ** 2)


def three_point_slopes(t: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The 3-point derivative estimates of a nonuniform series, one sample at
    a time, with one-sided slopes at the ends."""
    m = t.size
    dy = np.empty(m)
    dy[0] = (y[1] - y[0]) / (t[1] - t[0])
    dy[-1] = (y[-1] - y[-2]) / (t[-1] - t[-2])
    for i in range(1, m - 1):
        hl = t[i] - t[i - 1]
        hr = t[i + 1] - t[i]
        dy[i] = (hl / hr * (y[i + 1] - y[i]) + hr / hl * (y[i] - y[i - 1])) / (hl + hr)
    return dy


def with_margins(records: list, L: float) -> list:
    """``DiagnosticRecord``s of a run of period ``L`` with F_dot_measured and
    both margins filled record by record from the F series."""
    if len(records) < 2:
        return records
    t = np.array([r.t for r in records])
    F = np.array([r.F for r in records])
    F_dot = three_point_slopes(t, F)
    return [
        r._replace(
            F_dot_measured=float(F_dot[i]),
            riccati_margin=float(F_dot[i] - F[i] ** 2 / L),
            strong_margin=float(F_dot[i] - r.strong_term),
        )
        for i, r in enumerate(records)
    ]


def rate_of(model, s, dealias=False) -> np.ndarray:
    """The rate rows (omega_t[, theta_t]) of the state ``s``, by ``models.rhs``."""
    y = models.state_rows(model, s)
    rate = np.empty_like(y)
    models.rhs(models.KernelPlan(model, s.grid, dealias), y, rate)
    return rate


def stepped(model, s, dt: float, dealias=False) -> EvolutionState:
    """The state one ``evolve.step_rk4`` step of ``dt`` after ``s``."""
    y, plan = models.state_rows(model, s), models.KernelPlan(model, s.grid, dealias)
    k, out = np.empty((2,) + y.shape), np.empty_like(y)
    models.rhs(plan, y, k[0])
    evolve.step_rk4(plan, y, dt, k, out)
    theta = PeriodicField(s.grid, out[1]) if model.has_theta else None
    return EvolutionState(PeriodicField(s.grid, out[0]), theta, s.time + dt)


def record_of(model, s, bkm_integral: float):
    """``diagnostics.compute_record`` of the stacked rows of the state ``s``."""
    return diagnostics.compute_record(model, s.grid, models.state_rows(model, s), s.time, bkm_integral)


def jets_of(phi, omega, m: int, route: str = "pde"):
    """``strip.extract_jets`` of the strip field ``phi``, on one phi2 route."""
    M = phi.grid.n_q_intervals
    return strip.extract_jets(phi.columns(M - 4, M + 1), omega, m)[route]
