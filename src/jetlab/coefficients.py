"""The m-dependence of the (Bm) system, written once.

No numpy and no other jetlab module: the CLI's parser reads ``M_VALUES`` for
its ``choices``, and ``jet-verify`` and ``identity-check`` read b(m) here
without loading the run-model stack.
"""

M_VALUES = (1, 2)  # the boundary weight m of (Bm): 2D Boussinesq and 3D axisymmetric Euler


def stream_coefficient(m: int) -> float:
    """b(m) = 4 + 2m of the stream operator d_xx + 4q d_qq + b(m) d_q of (Bm)."""
    if m not in M_VALUES:
        raise ValueError("m must be 1 or 2")
    return 4.0 + 2.0 * m


def closure_coefficient(m: int, a_jet: float) -> float:
    """Local-law coefficient c = 1/(2*a_jet + m + 2) of the closed boundary system."""
    stream_coefficient(m)
    denom = 2.0 * a_jet + m + 2.0
    if denom <= 0:
        raise ValueError(
            f"positivity condition violated: 2a + m + 2 = {denom:g} must be > 0"
        )
    return 1.0 / denom
