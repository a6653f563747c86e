"""Closed-form solutions of two members of the model family, for tests.

* Q0 with theta = 0 is inviscid Burgers: its law u = -c omega makes
  omega_t = c omega omega_x, so omega keeps its initial value along the
  characteristics x = xi - c omega0(xi) t until they cross, at
  T_s = 1 / (c max omega0').
* CLM has the Constantin-Lax-Majda formula (Comm. Pure Appl. Math. 38,
  1985), omega = 4 omega0 / ((2 - t H omega0)^2 + t^2 omega0^2) with
  jetlab's H (multiplier -i sign k), which blows up at
  T = 2 / max{H omega0 : omega0 = 0}.  The oracle computes its own H.
"""

import numpy as np

from jetlab import PeriodicField


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
