"""Exact cross-checks of the cylindrical <-> squared-radius operator change.

Every catalog entry is a finite sum  phi(z, q) = sum_i c_i q^{p_i} T_i(z)
with T in {1, cos(f z), sin(f z)}.  Both operator routes are evaluated from
hand-coded power-rule derivatives (never finite differences) so that any
discrepancy reflects the transformation itself, not truncation error:

* (z, q) side:      -(d_zz + 4q d_qq + b(m) d_q) phi  at q = r^2, with the
                     solver's b(m) = 4+2m (coefficients.stream_coefficient)
* cylindrical side:  m = 1:  -(1/r)(d_zz + d_rr)(r phi)
                     m = 2:  -(1/r)(d_zz + d_rr + (1/r)d_r - 1/r^2)(r phi)
  computed from the explicit powers of psi(z, r) = r phi(z, r^2).

The swirl chain  omega_cyl = r * (-d_z v - 2 d_q g)  is checked on the same
cloud with v, g differentiated on the cylindrical side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from .coefficients import stream_coefficient

ONE, COS, SIN = "one", "cos", "sin"


@dataclass(frozen=True)
class _Term:
    coef: float
    power: int  # q exponent, >= 0
    trig: str  # one | cos | sin
    freq: int = 1

    def t(self, z: np.ndarray) -> np.ndarray:
        if self.trig == ONE:
            return np.ones_like(z)
        f = getattr(np, self.trig)
        return f(self.freq * z)

    def t_zz(self, z: np.ndarray) -> np.ndarray:
        if self.trig == ONE:
            return np.zeros_like(z)
        return -(self.freq**2) * self.t(z)


CATALOG: Dict[str, Tuple[_Term, ...]] = {
    "const": (_Term(1.0, 0, ONE),),
    "q": (_Term(1.0, 1, ONE),),
    "q_squared": (_Term(1.0, 2, ONE),),
    "q_cos": (_Term(1.0, 1, COS),),
    "q2_sin": (_Term(1.0, 2, SIN),),
    "poly_mix": (
        _Term(1.0, 0, COS, 2),
        _Term(2.0, 1, COS, 2),
        _Term(-3.0, 3, COS, 2),
    ),
    "cross": (_Term(0.5, 2, SIN, 1), _Term(-1.5, 1, COS, 3)),
}


def _zq_operator(terms, z, q, b_coef):
    total = np.zeros(np.broadcast(z, q).shape)
    for t in terms:
        qp = q**t.power
        d_q = t.power * q ** (t.power - 1) if t.power >= 1 else 0.0
        d_qq = (
            t.power * (t.power - 1) * q ** (t.power - 2) if t.power >= 2 else 0.0
        )
        total += -(t.coef * t.t_zz(z) * qp)
        total += -(4.0 * q * t.coef * d_qq * t.t(z))
        total += -(b_coef * t.coef * d_q * t.t(z))
    return total


def _cylindrical_operator(terms, z, r, m):
    # psi(z, r) = r * phi(z, r^2) = sum c_i r^(2p+1) T_i(z)
    total = np.zeros(np.broadcast(z, r).shape)
    for t in terms:
        p = 2 * t.power + 1
        psi = t.coef * r**p * t.t(z)
        psi_rr = t.coef * p * (p - 1) * r ** (p - 2) * t.t(z)
        psi_zz = t.coef * r**p * t.t_zz(z)
        acc = psi_zz + psi_rr
        if m == 2:
            psi_r = t.coef * p * r ** (p - 1) * t.t(z)
            acc += psi_r / r - psi / r**2
        total += -acc / r
    return total


def _swirl_chain_defect(terms, z, r, m, q_side):
    """max | (d_z v_r - d_r v_z) - r*omega | with the curl side built from
    the cylindrical power representations of the velocities:
    v_r(z, r) = -r phi_z(z, r^2),  v_z(z, r) = g(z, r^2)."""
    dz_vr = np.zeros(np.broadcast(z, r).shape)
    dr_vz = np.zeros(np.broadcast(z, r).shape)
    for t in terms:
        dz_vr += -t.coef * r ** (2 * t.power + 1) * t.t_zz(z)
        if t.power >= 1:
            dr_vz += (
                (m + 2 * t.power)
                * t.coef
                * (2 * t.power)
                * r ** (2 * t.power - 1)
                * t.t(z)
            )
    return float(np.max(np.abs((dz_vr - dr_vz) - r * q_side)))


def identity_case_names() -> Tuple[str, ...]:
    return tuple(CATALOG)


def operator_sides(test_id: str, m: int, z: np.ndarray, r: np.ndarray):
    """(z,q)-side and cylindrical-side operator values for one catalog entry."""
    b_coef = stream_coefficient(m)
    if test_id not in CATALOG:
        raise ValueError(f"unknown test id {test_id!r}")
    terms = CATALOG[test_id]
    z = np.asarray(z, dtype=float)
    r = np.asarray(r, dtype=float)
    return _zq_operator(terms, z, r**2, b_coef), _cylindrical_operator(terms, z, r, m)


def operator_identity_check(m: int, test_id: str) -> float:
    """Max discrepancy between the two operator routes on a sample cloud.

    Also folds in the swirl-chain defect; the result is exact-arithmetic
    zero up to rounding for every catalog function and both m.
    """
    r = np.linspace(0.04, 1.0, 25)[None, :]
    z = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)[:, None]
    q_side, cyl_side = operator_sides(test_id, m, z, r)
    defect = float(np.max(np.abs(q_side - cyl_side)))
    return max(defect, _swirl_chain_defect(CATALOG[test_id], z, r, m, q_side))
