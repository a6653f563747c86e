"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
"""

import json
import time
from collections import namedtuple

import numpy as np
import pytest

from jetlab import (
    EvolutionState,
    ModelSpec,
    PeriodicField,
    PeriodicGrid,
    biot_savart,
    closure_coefficient,
    estimate_blowup_time,
    extract_jets,
    hilbert_transform,
    identity_case_names,
    jet_relation_residual,
    manufactured_case,
    operator_identity_check,
    resolved_until,
    rhs,
    riccati_audit,
    solve_elliptic,
    spectral_derivative,
    step_rk4,
    StepperConfig,
    StripGrid,
    run,
)
from jetlab.cli import main as cli_main
from jetlab.diagnostics import RICCATI_DTYPE
from jetlab.evolve import SUP_CAP_HIT
from jetlab.identities import operator_sides
from jetlab.spectral import half_period_integrals

import oracles
from conftest import F0_SIN, sin_state

L_RUN = 2.0
C_RUN = 1.0 / 3.0
BOUND = L_RUN / F0_SIN  # = 3.2398509407094075, L/F(0) with F(0) = Si(pi)/3


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {status}  {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_c01_closure_algebra():
    exact = (
        closure_coefficient(1, 0.0) == 1.0 / 3.0
        and closure_coefficient(2, 0.0) == 1.0 / 4.0
        and closure_coefficient(1, 1.0) == 1.0 / 5.0
    )
    raised = 0
    for m, a in [(1, -2.0), (1, -1.5), (2, -3.0)]:
        with pytest.raises(ValueError, match="positivity condition violated"):
            closure_coefficient(m, a)
        raised += 1
    report(1, "closure algebra", exact and raised == 3, "1/3, 1/4, 1/5 exact")


def test_c02_operator_identities():
    start = time.time()
    worst = max(
        operator_identity_check(m, name)
        for m in (1, 2)
        for name in identity_case_names()
    )
    z = np.zeros((1, 1))
    r = np.linspace(0.1, 1.0, 7)[None, :]
    q1, c1 = operator_sides("q", 1, z, r)
    q2, c2 = operator_sides("q", 2, z, r)
    values_ok = (
        np.max(np.abs(q1 + 6)) <= 1e-13
        and np.max(np.abs(c1 + 6)) <= 1e-13
        and np.max(np.abs(q2 + 8)) <= 1e-13
        and np.max(np.abs(c2 + 8)) <= 1e-13
    )
    elapsed = time.time() - start
    report(
        2,
        "operator identities",
        worst <= 1e-12 and values_ok and elapsed < 1.0,
        f"worst discrepancy {worst:.2e} in {elapsed:.2f}s",
    )


def test_c03_manufactured_elliptic():
    start = time.time()
    ok = True
    details = []
    for m in (1, 2):
        grid = StripGrid(PeriodicGrid(64, 2 * np.pi), 256)
        phi_exact, omega = manufactured_case("linear", m, grid)
        phi = solve_elliptic(m, omega)
        err = float(np.max(np.abs(phi.values - phi_exact.columns(0, 257))))
        ok &= err <= 1e-6
        details.append(f"m={m} err={err:.1e}")
        jets = extract_jets(phi, omega, m)
        ok &= jet_relation_residual(jets) <= 1e-12

        errors = []
        for M in (128, 256):
            g2 = StripGrid(PeriodicGrid(64, 2 * np.pi), M)
            pe, oe = manufactured_case("exp", m, g2)
            ph = solve_elliptic(m, oe)
            errors.append(float(np.max(np.abs(ph.values - pe.columns(0, M + 1)))))
        ratio = errors[0] / errors[1]
        ok &= 3.6 <= ratio <= 4.4
        details.append(f"ratio={ratio:.2f}")
    elapsed = time.time() - start
    ok &= elapsed < 10.0
    report(3, "manufactured elliptic solve", ok, "; ".join(details))


def test_c04_blowup_bound(blowup_run):
    F0 = C_RUN * half_period_integrals(sin_state(2048).omega)[0]  # the run's initial data
    t_star = estimate_blowup_time(blowup_run.sup_series)
    ok = (
        blowup_run.termination == SUP_CAP_HIT
        and abs(F0 - F0_SIN) <= 1e-12
        and t_star is not None
        and t_star <= 1.05 * BOUND
        and blowup_run.t_final < BOUND
    )
    report(
        4,
        "blow-up bound",
        ok,
        f"T*={t_star:.4f} <= 1.05*bound={1.05 * BOUND:.4f}, "
        f"t_final={blowup_run.t_final:.4f}, F0={F0:.10f}",
    )


Sample = namedtuple("Sample", RICCATI_DTYPE.names)


def test_c05_inequality_chain(blowup_run):
    t_res = resolved_until(blowup_run.diagnostics)
    # rows as Python floats: a float's ** squares with libm's pow, a numpy scalar's need not
    samples = [Sample(*row) for row in riccati_audit(blowup_run).tolist() if row[0] < t_res]
    assert len(samples) >= 10
    riccati_ok = all(
        a.riccati_margin >= -1e-4 * max(a.F**2, 1.0) for a in samples
    )
    cauchy_ok = all(
        a.cauchy_rhs - a.cauchy_lhs >= -1e-9 * a.cauchy_lhs for a in samples
    )
    F0 = float(blowup_run.diagnostics[0].F)
    envelope_ok = all(
        1.0 / a.F <= 1.0 / F0 - a.t / L_RUN + 1e-3 for a in samples if a.F > 0
    )
    worst_margin = min(a.riccati_margin for a in samples)
    report(
        5,
        "inequality chain",
        riccati_ok and cauchy_ok and envelope_ok,
        f"{len(samples)} resolved samples, min riccati margin {worst_margin:+.3e}",
    )


def test_c06_energy_conservation(blowup_run):
    t_res = resolved_until(blowup_run.diagnostics)
    records = [r for r in blowup_run.diagnostics if r.t < t_res]
    E0 = records[0].E
    drift = max(abs(r.E - E0) for r in records)
    ok = drift <= 1e-6 * max(abs(E0), 1.0)
    report(6, "energy conservation", ok, f"E0={E0:.8f}, max drift {drift:.2e}")


def test_c07_symmetry_and_sign(blowup_run):
    t_res = resolved_until(blowup_run.diagnostics)
    records = [r for r in blowup_run.diagnostics if r.t < t_res]
    defects_ok = all(
        r.odd_defect_omega <= 1e-9 and r.even_defect_theta <= 1e-9 for r in records
    )
    endpoint_ok = all(
        r.endpoint_omega <= 1e-9 * max(r.sup_omega, 1e-300) for r in records
    )
    sign_ok = all(
        r.min_omega_half >= -1e-8 * max(r.sup_omega, 1e-300) for r in records
    )
    worst = max(r.odd_defect_omega for r in records)
    report(
        7,
        "symmetry and sign preservation",
        defects_ok and endpoint_ok and sign_ok,
        f"max odd defect {worst:.2e} over {len(records)} samples",
    )


def test_resolution_cutoff_precedes_the_shock(blowup_run):
    # with theta = 0 the Q0 law u = -c*omega makes v = -c*omega a Burgers
    # solution, v_t + v v_x = 0, whose slope blows up at 1/max(-v0') =
    # 1/(c max omega0') = 3/pi for omega0 = sin(pi x): invariants must stop
    # being asserted before that
    shock = 1.0 / (C_RUN * np.pi)
    t_res = resolved_until(blowup_run.diagnostics)
    assert t_res < shock, f"resolved_until {t_res} is not before the shock time {shock}"


# max|omega - omega_exact| on the reference run, at the recorded states
# nearest t = 0.3, 0.6 and 0.9, was measured at 1.99e-13 (t = 0.305),
# 9.16e-13 (0.598) and 3.87e-9 (0.902); the bounds leave a small margin
BURGERS_BOUNDS = (2.0e-13, 1.0e-12, 3.9e-9)


def test_q0_without_theta_is_exact_burgers(blowup_run):
    t_res = resolved_until(blowup_run.diagnostics)
    assert [s.time < t_res for s in blowup_run.states] == [True] * 3
    for state, bound in zip(blowup_run.states, BURGERS_BOUNDS, strict=True):
        exact = oracles.burgers_q0(
            lambda x: np.sin(np.pi * x), lambda x: np.pi * np.cos(np.pi * x),
            C_RUN, state.grid.nodes, state.time,
        )
        error = float(np.max(np.abs(state.omega.values - exact)))
        assert error <= bound, f"max error {error:.3e} at t = {state.time:.4f} over {bound:.1e}"


def test_clm_is_exact_and_blows_up_on_time():
    # omega0 = sin(pi x) + 0.3 cos(pi x) = A sin(pi x + phase), A = sqrt(1.09):
    # H omega0 = +-A cos(pi x + phase), so max{H omega0 : omega0 = 0} = A
    grid = PeriodicGrid(1024, 2.0)
    x = grid.nodes
    omega0 = PeriodicField(grid, np.sin(np.pi * x) + 0.3 * np.cos(np.pi * x))
    cfg = StepperConfig(t_end=4.0, cfl=0.4, dt_min=1e-12, dt_max=0.01, omega_sup_cap=1e4)
    init = EvolutionState(omega0, None, 0.0)
    result = run(ModelSpec("clm"), init, cfg, snapshot_times=(0.5, 1.0, 1.5))
    blowup = 2.0 / np.hypot(1.0, 0.3)
    # measured: the errors 8.0e-14 (t = 0.492), 9.2e-13 (0.995) and 3.4e-11
    # (1.490); the sup cap at 1.91555, 1.1e-4 before the blow-up at 1.91565
    t_res = resolved_until(result.diagnostics)
    for state, bound in zip(result.states, (1.0e-13, 1.0e-12, 4.0e-11), strict=True):
        assert state.time < t_res
        error = float(np.max(np.abs(state.omega.values - oracles.clm(omega0, state.time))))
        assert error <= bound, f"max error {error:.3e} at t = {state.time:.4f} over {bound:.1e}"
    assert result.termination == SUP_CAP_HIT and t_res < blowup
    assert 0.0 < blowup - result.t_final <= 5e-4, f"t_final {result.t_final} against T = {blowup}"


def _self_convergence(model, L, omega0_fn, theta0_fn, n, dt, t_end, every=20):
    """Shared-node disagreement between (n, dt) and (2n, dt/2) runs.

    Grids n and 2n share every other node, so the comparison is spectrally
    sharp; all compared samples must stay inside the sup <= 100 window.
    """
    snapshots = []
    for points, step, stride in ((n, dt, every), (2 * n, dt / 2, 2 * every)):
        grid = PeriodicGrid(points, L)
        omega = PeriodicField(grid, omega0_fn(grid.nodes))
        theta = (
            None if theta0_fn is None else PeriodicField(grid, theta0_fn(grid.nodes))
        )
        state = EvolutionState(omega, theta, 0.0)
        snaps = [state.omega.values.copy()]
        for i in range(int(round(t_end / step))):
            state = step_rk4(model, state, step)
            if (i + 1) % stride == 0:
                snaps.append(state.omega.values.copy())
        snapshots.append(snaps)
    worst = 0.0
    sup_max = 0.0
    for coarse, fine in zip(*snapshots):
        sup = max(float(np.max(np.abs(fine))), 1e-300)
        sup_max = max(sup_max, sup)
        assert sup <= 100.0
        worst = max(worst, float(np.max(np.abs(coarse - fine[::2]))) / sup)
    return worst, sup_max


def test_c08_model_family_sanity():
    L = 2 * np.pi
    details = []

    # CLM: law u_x = H(omega); rhs on cos; growth window to sup ~ 7
    grid = PeriodicGrid(256, L)
    omega = PeriodicField(grid, np.cos(grid.nodes))
    u = biot_savart(ModelSpec("clm"), omega)
    assert np.max(np.abs(spectral_derivative(u).values - hilbert_transform(omega).values)) <= 1e-12
    state = EvolutionState(omega, None, 0.0)
    rate = rhs(ModelSpec("clm"), state)
    assert np.max(np.abs(rate[0] - 0.5 * np.sin(2 * grid.nodes))) <= 1e-12
    worst, sup = _self_convergence(ModelSpec("clm"), L, np.cos, None, 1024, 5e-4, 1.85)
    assert worst <= 1e-6
    details.append(f"CLM {worst:.1e}@sup{sup:.1f}")

    # CCF: law u = H(omega); rhs on sin; transport window
    omega_s = PeriodicField(grid, np.sin(grid.nodes))
    u = biot_savart(ModelSpec("ccf"), omega_s)
    assert np.max(np.abs(u.values + np.cos(grid.nodes))) <= 1e-13
    rate = rhs(ModelSpec("ccf"), EvolutionState(omega_s, None, 0.0))
    assert np.max(np.abs(rate[0] - np.cos(grid.nodes) ** 2)) <= 1e-12
    worst, sup = _self_convergence(ModelSpec("ccf"), L, np.sin, None, 512, 1e-3, 1.0)
    assert worst <= 1e-6
    details.append(f"CCF {worst:.1e}")

    # De Gregorio: cos is a steady state; generic datum for convergence
    rate = rhs(ModelSpec("de_gregorio"), state)
    assert np.max(np.abs(rate[0])) <= 1e-13
    u = biot_savart(ModelSpec("de_gregorio"), omega)
    assert np.max(np.abs(u.values + np.cos(grid.nodes))) <= 1e-13
    worst, sup = _self_convergence(
        ModelSpec("de_gregorio"),
        L,
        lambda x: np.cos(x) + 0.3 * np.sin(2 * x),
        None,
        512,
        1e-3,
        3.0,
    )
    assert worst <= 1e-6
    details.append(f"DG {worst:.1e}")

    # Okamoto: endpoints of the transport weight recover CLM and De Gregorio
    generic = EvolutionState(
        PeriodicField(grid, np.cos(grid.nodes) + 0.4 * np.sin(2 * grid.nodes)), None, 0.0
    )
    assert np.max(np.abs(
        rhs(ModelSpec("okamoto", a_ok=0.0), generic)[0]
        - rhs(ModelSpec("clm"), generic)[0]
    )) == 0.0
    assert np.max(np.abs(
        rhs(ModelSpec("okamoto", a_ok=1.0), generic)[0]
        - rhs(ModelSpec("de_gregorio"), generic)[0]
    )) == 0.0
    worst, sup = _self_convergence(ModelSpec("okamoto", a_ok=0.4), L, np.cos, None, 512, 1e-3, 1.7)
    assert worst <= 1e-6
    details.append(f"Okamoto {worst:.1e}")

    # Hou--Luo: law example and a resolved growth window
    omega_c = PeriodicField(grid, np.cos(grid.nodes))
    u = biot_savart(ModelSpec("hou_luo"), omega_c)
    assert np.max(np.abs(u.values + np.cos(grid.nodes))) <= 1e-13
    hl_state = EvolutionState(
        PeriodicField(grid, np.sin(grid.nodes)),
        PeriodicField(grid, -np.cos(grid.nodes)),
        0.0,
    )
    hl_rate = rhs(ModelSpec("hou_luo"), hl_state)
    u_hl = biot_savart(ModelSpec("hou_luo"), hl_state.omega)
    expected = (
        -u_hl.values * spectral_derivative(hl_state.omega).values
        + spectral_derivative(hl_state.theta).values
    )
    assert np.max(np.abs(hl_rate[0] - expected)) == 0.0
    worst, sup = _self_convergence(
        ModelSpec("hou_luo"), L, np.sin, lambda x: -np.cos(x), 1024, 5e-4, 0.8
    )
    assert worst <= 1e-6
    details.append(f"HL {worst:.1e}@sup{sup:.1f}")

    # CKY: closed-form law example and a compressing-bump window
    grid4 = PeriodicGrid(64, 4.0)
    omega_lin = PeriodicField(grid4, grid4.nodes.copy())
    u = biot_savart(ModelSpec("cky", truncation_X=1.0), omega_lin)
    x = grid4.nodes
    inside = (x >= 0) & (x <= 1)
    assert np.max(np.abs(u.values[inside] + x[inside] * (1 - x[inside]))) <= 1e-14

    def bump(center, width, amp=1.0):
        return lambda xs: amp * np.exp(-(((xs - center) / width) ** 2))

    cky = ModelSpec("cky", truncation_X=1.0)
    worst, sup = _self_convergence(
        cky, 4.0, bump(0.5, 0.12), bump(0.5, 0.12, 0.5), 1024, 1e-3, 0.4
    )
    assert worst <= 1e-6
    details.append(f"CKY {worst:.1e}")

    report(8, "model family sanity", True, "; ".join(details))


def test_c09_rk4_order():
    model = ModelSpec("q0", c=C_RUN)
    init = sin_state(128, theta_amplitude=0.1)
    t_end = 0.2

    def fixed_run(dt):
        s = init
        for _ in range(int(round(t_end / dt))):
            s = step_rk4(model, s, dt)
        return s

    ref = fixed_run(t_end / 3200)
    errors = [
        float(np.max(np.abs(fixed_run(t_end / steps).omega.values - ref.omega.values)))
        for steps in (50, 100)
    ]
    order = float(np.log2(errors[0] / errors[1]))
    report(9, "RK4 order", 3.8 <= order <= 4.2, f"measured order {order:.3f}")


def test_c10_determinism(tmp_path):
    doc = {
        "model": {"name": "Q0", "m": 1, "a": 0.0},
        "grid": {"n": 256, "L": 2.0},
        "initial_data": {
            "omega": {"name": "sin_fundamental"},
            "theta": {"name": "zero"},
        },
        "stepper": {"t_end": 0.5, "record_every": 5},
        "outputs": {"directory": ""},
        "tags": ["theorem-hypotheses"],
    }
    blobs = []
    for tag in ("first", "second"):
        doc["outputs"]["directory"] = str(tmp_path / tag)
        path = tmp_path / f"{tag}.json"
        path.write_text(json.dumps(doc))
        assert cli_main(["run-model", str(path)]) in (0, 3)
        blobs.append((tmp_path / tag / "diagnostics.csv").read_bytes())
    ok = blobs[0] == blobs[1] and len(blobs[0]) > 0
    report(10, "determinism", ok, f"{len(blobs[0])} bytes, byte-identical")
