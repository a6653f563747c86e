"""One configured experiment end to end: run, audit, write outputs."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Optional

import numpy as np

from .config import ExperimentConfig
from .diagnostics import CSV_COLUMNS, RICCATI_MIN_SAMPLES, resolved_until, riccati_audit
from .evolve import REACHED_T_END, RunResult, run
from .models import biot_savart
from .preflight import preflight_output_dir


def theorem_audit(result: RunResult, config: ExperimentConfig) -> Dict[str, object]:
    """Pass/fail of every theorem-run invariant, judged inside the resolved phase."""
    L = config.grid.period_L
    table = result.diagnostics
    t_res = resolved_until(table)
    res = table[table.t < t_res]
    out: Dict[str, object] = {
        "resolved_until": t_res if np.isfinite(t_res) else None
    }

    F0 = float(table.F[0])
    out["F0"] = F0
    bound = L / F0 if F0 > 0 else np.inf  # inf also when L/F(0) overflows
    out["bound_L_over_F0"] = bound if np.isfinite(bound) else None

    estimate = result.estimated_blowup_time
    out["estimated_blowup_time"] = estimate
    # the bound is only falsifiable once the horizon passes L/F(0)
    if config.stepper.t_end > bound:
        out["blowup_bound_holds"] = (
            estimate is not None
            and estimate <= 1.05 * L / F0
            and result.termination != REACHED_T_END
        )

    # each verdict is one comparison per resolved record, or per consecutive
    # pair of them: a nan fails it, and an inf or nan made on the way is no warning
    E0 = float(table.E[0])
    F, sup_theta = res.F, res.sup_theta
    with np.errstate(over="ignore", invalid="ignore"):
        sup_omega = np.maximum(res.sup_omega, 1e-300)
        sup_theta_x = np.maximum(res.sup_theta_x, 1e-300)
        verdicts = {
            "energy_conserved": np.abs(res.E - E0) <= 1e-6 * max(abs(E0), 1.0),
            "F_monotone": F[1:] >= F[:-1] - 1e-6 * np.maximum(np.abs(F[:-1]), 1.0),
            "G_nonnegative": res.G >= -1e-9,
            "symmetry_preserved": (res.odd_defect_omega <= 1e-9) & (res.even_defect_theta <= 1e-9),
            "endpoint_pinned": res.endpoint_omega <= 1e-9 * sup_omega,
            "sign_preserved": res.min_omega_half >= -1e-8 * sup_omega,
            "thetax_sign_preserved": res.min_thetax_half >= -1e-8 * sup_theta_x,
            "theta_max_principle": (
                sup_theta[1:] <= sup_theta[:-1] * (1.0 + 1e-9 * np.diff(res.t)) + 1e-300
            ),
        }
        # the inequality chain, on the resolved interior records
        if len(table) >= RICCATI_MIN_SAMPLES:
            chain = riccati_audit(result)
            chain = chain[chain.t < t_res]
            lhs = chain.cauchy_lhs
            verdicts["riccati_margin_ok"] = chain.riccati_margin >= -1e-4 * np.maximum(lhs, 1.0)
            verdicts["cauchy_schwarz_ok"] = chain.cauchy_rhs - lhs >= -1e-9 * lhs
            if F0 > 0:
                rising = chain[chain.F > 0]
                verdicts["envelope_ok"] = 1.0 / rising.F <= 1.0 / F0 - rising.t / L + 1e-3
    out.update((name, bool(np.all(holds))) for name, holds in verdicts.items())
    return out


def emit_outputs(
    result: RunResult,
    config: ExperimentConfig,
    audits: Optional[Dict[str, object]] = None,
) -> Dict[str, Path]:
    """Write diagnostics.csv, run.json and the run's snapshot states."""
    out = Path(config.output_dir)
    paths: Dict[str, Path] = {}

    csv_path = out / "diagnostics.csv"
    with open(csv_path, "w") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for row in result.diagnostics[list(CSV_COLUMNS)]:
            # tolist gives Python floats: an np.float64's repr is "np.float64(...)"
            fh.write(",".join(map(repr, row.tolist())) + "\n")
    paths["diagnostics"] = csv_path

    summary = {
        "config": config.raw,
        "termination": result.termination,
        "t_final": result.t_final,
        "n_samples": len(result.diagnostics),
        "estimated_blowup_time": result.estimated_blowup_time,
        "audits": audits if audits is not None else {},
    }
    json_path = out / "run.json"
    json_path.write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    paths["run"] = json_path

    for i, state in enumerate(result.states):
        u = biot_savart(config.model, state.omega)
        snap_path = out / f"snapshot_{i:03d}.csv"
        with open(snap_path, "w") as fh:
            fh.write(f"# t = {state.time!r}\n")
            fh.write("x,omega,theta,u\n")
            theta = state.theta.values if state.theta is not None else np.zeros_like(u.values)
            for row in zip(state.grid.nodes, state.omega.values, theta, u.values):
                fh.write(",".join(repr(float(v)) for v in row) + "\n")
        paths[f"snapshot_{i}"] = snap_path
    return paths


def run_experiment(config: ExperimentConfig) -> Dict[str, object]:
    """Pre-flight, run, audit (when tagged) and emit; returns a summary dict."""
    preflight_output_dir(config.output_dir)
    result = run(config.model, config.initial_state(), config.stepper, config.snapshot_times)
    audits = theorem_audit(result, config) if config.theorem_tagged else None
    paths = emit_outputs(result, config, audits)
    failed = []
    if audits:
        failed = [k for k, v in audits.items() if isinstance(v, bool) and not v]
    return {
        "result": result,
        "audits": audits,
        "paths": paths,
        "failed_audits": failed,
    }
