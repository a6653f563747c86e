import numpy as np
import pytest

from jetlab import coefficients, identities, identity_case_names, operator_identity_check, strip
from jetlab.identities import operator_sides


class TestOperatorIdentities:
    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("name", identity_case_names())
    def test_full_catalog_exact(self, m, name):
        assert operator_identity_check(m, name) <= 1e-12

    def test_phi_q_constant_values(self):
        # phi = q: the transformed operator gives -(4+2m); the cylindrical
        # side differentiates psi = r^3 directly
        z = np.linspace(0.0, 2 * np.pi, 8)
        r = np.linspace(0.1, 1.0, 9)
        for m, expected in [(1, -6.0), (2, -8.0)]:
            q_side, cyl_side = operator_sides("q", m, z[:, None], r[None, :])
            assert np.max(np.abs(q_side - expected)) <= 1e-13
            assert np.max(np.abs(cyl_side - expected)) <= 1e-13

    def test_phi_q_squared_profile(self):
        # phi = q^2 with m = 1: both sides equal -20 q
        z = np.zeros(1)
        r = np.linspace(0.1, 1.0, 9)
        q_side, cyl_side = operator_sides("q_squared", 1, z[:, None], r[None, :])
        expected = -20.0 * r[None, :] ** 2
        assert np.max(np.abs(q_side - expected)) <= 1e-12
        assert np.max(np.abs(cyl_side - expected)) <= 1e-12

    def test_unknown_case_rejected(self):
        with pytest.raises(ValueError, match="unknown test id"):
            operator_identity_check(1, "not_a_case")
        with pytest.raises(ValueError):
            operator_identity_check(3, "q")

    def test_operator_sides_validates_m(self):
        z, r = np.zeros((1, 1)), np.ones((1, 1))
        with pytest.raises(ValueError, match="m must be 1 or 2"):
            operator_sides("q", 3, z, r)

    def test_checks_the_solvers_stream_coefficient(self, monkeypatch):
        # one b(m) for the strip solver and the (z, q) side: a wrong b is seen
        assert strip.stream_coefficient is identities.stream_coefficient is coefficients.stream_coefficient
        monkeypatch.setattr(identities, "stream_coefficient", lambda m: 4.0 + 2.0 * m + 1e-6)
        for m in (1, 2):
            assert operator_identity_check(m, "q") > 1e-12

    def test_runs_quickly(self):
        import time

        start = time.time()
        for m in (1, 2):
            for name in identity_case_names():
                operator_identity_check(m, name)
        assert time.time() - start < 1.0
