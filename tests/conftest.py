import sys

import numpy as np
import pytest

from jetlab import (
    EvolutionState,
    ModelSpec,
    PeriodicField,
    PeriodicGrid,
    StepperConfig,
    run,
)

# Frozen oracle values, computed once by adaptive quadrature of the analytic
# integrands (scipy.integrate.quad / mpmath, 1e-13 agreement between the two).
SI_PI = 1.8519370519824661704
SI_2PI = 1.4181515761326284502
F0_SIN = SI_PI / 3.0  # = 0.61731235066082206
INT_SIN2_OVER_X2 = 4.4552545732550519  # integral_0^1 sin(pi x)^2 / x^2 dx
INT_PI_SIN_OVER_X = 5.8180318374188548  # integral_0^1 pi sin(pi x) / x dx


def sin_state(n: int, theta_amplitude: float = 0.0) -> EvolutionState:
    """omega0 = sin(pi x), theta0 = amplitude*(1 - cos(pi x)) on L = 2."""
    grid = PeriodicGrid(n, 2.0)
    x = grid.nodes
    omega = PeriodicField(grid, np.sin(np.pi * x))
    theta = PeriodicField(grid, theta_amplitude * (1.0 - np.cos(np.pi * x)))
    return EvolutionState(omega, theta, 0.0)


@pytest.fixture(scope="session")
def blowup_run():
    """The reference blow-up run: Q0, c = 1/3, L = 2, sin data, n = 2048,
    keeping the recorded states nearest t = 0.3, 0.6 and 0.9."""
    model = ModelSpec("q0", c=1.0 / 3.0)
    init = sin_state(2048)
    cfg = StepperConfig(
        t_end=4.0,
        cfl=0.4,
        dt_min=1e-12,
        dt_max=0.01,
        omega_sup_cap=1e4,
        record_every=10,
        dealias=False,
    )
    return run(model, init, cfg, snapshot_times=(0.3, 0.6, 0.9))


def rebound_calls(monkeypatch, module, name: str) -> list:
    """The argument tuple of each call of ``module.name`` from now on.  The
    function is rebound in every jetlab module that holds it, as perfbench's
    tracer rebinds the layers it wraps, so a call by any module's name counts."""
    original, calls = getattr(module, name), []

    def counted(*args):
        calls.append(args)
        return original(*args)

    for module_name, held in list(sys.modules.items()):
        if module_name.split(".")[0] == "jetlab":
            for attr, value in list(vars(held).items()):
                if value is original:
                    monkeypatch.setattr(held, attr, counted)
    return calls
