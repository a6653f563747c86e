"""Every metric the benchmark reports, with its unit, direction and purpose.

END_TO_END is printed with ``--trace 0`` and PER_LAYER with ``--trace 1``;
BENCHMARK.json lists the same names and units (smoke.py checks that).
``moves`` records, before any optimisation, which end-to-end metric on
which workload a change to the layer should move.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional


class Metric(NamedTuple):
    unit: str
    better: str
    bound: Optional[float] = None  # end-to-end only: allowed worsening share
    moves: str = ""  # per-layer only: the end-to-end metric and workload it should move


END_TO_END: Dict[str, Metric] = {
    "wall_s": Metric("s", "lower", 0.25),
    "setup_s": Metric("s", "lower", 0.25),
    "peak_rss_mb": Metric("MB", "lower", 0.05),
    "cpu_s": Metric("s", "lower", 0.25),
    "ok_frac": Metric("frac", "higher", 0.01),
}

_STEP = "wall_s on family-sweep and theorem-q0; jet-strip unchanged"
PER_LAYER: Dict[str, Metric] = {
    "spectral.fft.calls": Metric("count", "lower", moves=_STEP),
    "spectral.fft.calls_per_rhs": Metric("calls/rhs", "lower", moves=_STEP),
    "spectral.fft.s": Metric("s", "lower", moves=_STEP),
    "spectral.fft.bytes_computed": Metric("B", "lower", moves=_STEP),
    "spectral.fft.flops_computed": Metric("flop", "lower", moves=_STEP),
    "spectral.spectral_derivative.calls": Metric("count", "lower", moves=_STEP),
    "spectral.hilbert_transform.calls": Metric("count", "lower", moves=_STEP),
    "spectral.antiderivative_zero_mean.calls": Metric("count", "lower", moves=_STEP),
    "grid.field_checks": Metric("count", "lower", moves=_STEP),
    "grid.field_checks_per_step": Metric("checks/step", "lower", moves=_STEP),
    "grid.field_checks.s": Metric("s", "lower", moves=_STEP),
    "evolve.step_rk4.self_s": Metric("s", "lower", moves=_STEP),
    "evolve.steps": Metric("count", "lower", moves=_STEP),
    "evolve.step_rk4.us.p50": Metric("us", "lower", moves=_STEP),
    "evolve.step_rk4.us.p99": Metric("us", "lower", moves=_STEP),
    "evolve.run.self_s": Metric("s", "lower", moves=_STEP),
    "models.rhs.calls": Metric("count", "lower", moves=_STEP),
    "models.rhs.s": Metric("s", "lower", moves=_STEP),
    "models.biot_savart.calls_per_step": Metric("calls/step", "lower", moves=_STEP),
    "models.biot_savart.s": Metric("s", "lower", moves="wall_s, setup_s and peak_rss_mb on cky-fine; barely family-sweep"),
    "models.biot_savart.first_call_ms": Metric("ms", "lower", moves="setup_s and peak_rss_mb on cky-fine"),
    "diagnostics.compute_record.calls": Metric("count", "lower", moves="wall_s on theorem-q0 only"),
    "diagnostics.compute_record.s": Metric("s", "lower", moves="wall_s on theorem-q0 only"),
    "diagnostics.fill_margin_fields.s": Metric("s", "lower", moves="wall_s on theorem-q0 only"),
    "diagnostics.riccati_audit.s": Metric("s", "lower", moves="wall_s on theorem-q0 only"),
    "runner.theorem_audit.s": Metric("s", "lower", moves="wall_s on theorem-q0 only"),
    "runner.emit_outputs.s": Metric("s", "lower", moves="wall_s on theorem-q0 only"),
    "runner.output_bytes": Metric("B", "lower", moves="wall_s on theorem-q0 only"),
    "diagnostics.retained_state_bytes": Metric("B", "lower", moves="a count; below peak_rss_mb resolution at theorem-q0 size"),
    "strip.solve_elliptic.s": Metric("s", "lower", moves="wall_s and peak_rss_mb on jet-strip only"),
    "strip.solve_elliptic.banded_solves": Metric("count/solve", "lower", moves="wall_s on jet-strip only"),
    "strip.solve_elliptic.us_per_mode": Metric("us", "lower", moves="wall_s on jet-strip only"),
    "strip.elliptic_residual.s": Metric("s", "lower", moves="wall_s and peak_rss_mb on jet-strip only"),
    "strip.extract_jets.s": Metric("s", "lower", moves="wall_s on jet-strip only"),
    "strip.manufactured_case.s": Metric("s", "lower", moves="setup_s and wall_s on jet-strip only"),
    "config.parse_config.ms": Metric("ms", "lower", moves="setup_s on every workload"),
    "cli.sweep.member_s.max": Metric("s", "lower", moves="wall_s and cpu_s on family-sweep"),
    "cli.sweep.member_s.sum": Metric("s", "lower", moves="wall_s and cpu_s on family-sweep"),
    "cli.sweep.pool_efficiency": Metric("frac", "higher", moves="wall_s and cpu_s on family-sweep"),
    "trace.overhead_frac": Metric("frac", "lower", moves="none: traced vs untraced in-process total"),
}


def benchmark_entries() -> dict:
    """The end_to_end and per_layer lists of BENCHMARK.json."""
    return {
        "end_to_end": [
            {"name": n, "unit": m.unit, "better": m.better, "bound": m.bound}
            for n, m in END_TO_END.items()
        ],
        "per_layer": [
            {"name": n, "unit": m.unit, "better": m.better} for n, m in PER_LAYER.items()
        ],
    }
