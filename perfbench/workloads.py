"""The four benchmark workloads: inputs, CLI commands and thread settings.

Each workload writes its JSON inputs into a work directory and names the
CLI invocations that make up one iteration.  Output directories are
relative to the work directory, which is the CLI's working directory.

``family-sweep`` is the only seeded workload: the seed picks one of
``SWEEP_VARIANTS`` generated input sets (odd omega, even theta, a few low
Fourier modes), for each of which fingerprints were recorded.  The other
three are fixed references and ignore the seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

SWEEP_MODELS = ["CLM", "DeGregorio", "CCF", "Okamoto", "HouLuo", "CKY", "Q0"]
SWEEP_VARIANTS = 64
SWEEP_WORKERS = 2
STRIP_M = (1, 2)

# Amplitude budgets of the generated sweep data: sum |sin coeff| of omega
# and sum k |cos coeff| of theta.  They keep sup|u| under cfl*dx/dt_max for
# the whole horizon, so every member takes exactly t_end/dt_max = 500 steps
# and the work does not depend on the seed.
_OMEGA_BUDGET = 0.25
_THETA_SLOPE_BUDGET = 0.02

THEOREM_Q0 = {
    "model": {"name": "Q0", "c": 1.0 / 3.0},
    "grid": {"n": 2048, "L": 2.0},
    "initial_data": {"omega": {"name": "sin_fundamental"}, "theta": {"name": "zero"}},
    "stepper": {
        "t_end": 4.0, "cfl": 0.4, "dt_min": 1e-12, "dt_max": 0.01,
        "omega_sup_cap": 1e4, "record_every": 10, "dealias": False,
    },
    "outputs": {"directory": "out", "snapshot_times": [0.5]},
    "tags": ["theorem-hypotheses"],
}

# 40 steps of dt_max: the CFL step at this data is larger, so the step count
# is fixed; record_every exceeds it, so only t = 0 and t_end are recorded.
CKY_FINE = {
    "model": {"name": "CKY", "X": 1.0},
    "grid": {"n": 8192, "L": 2.0},
    "initial_data": {"omega": {"name": "sin_fundamental"}, "theta": {"name": "zero"}},
    "stepper": {
        "t_end": 0.004, "cfl": 0.4, "dt_min": 1e-12, "dt_max": 1e-4,
        "omega_sup_cap": 1e4, "record_every": 1000,
    },
    "outputs": {"directory": "out"},
}

SWEEP_TEMPLATE = {
    "model": {"name": "CLM", "a_ok": 0.5, "X": 1.0},
    "grid": {"n": 2048, "L": 2.0},
    "stepper": {
        "t_end": 0.5, "cfl": 0.4, "dt_min": 1e-12, "dt_max": 1e-3,
        "omega_sup_cap": 1e6, "record_every": 100,
    },
    "outputs": {"directory": "out"},
}

STRIP_CASE = {"M": 1024, "case": "exp", "n": 2048}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    env: Dict[str, str]  # thread settings added to the CLI environment


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "theorem-q0",
            "Q0 reference blow-up run: the only user of the E/F/G records, the audit chain and the snapshot writer",
            {},
        ),
        Workload(
            "family-sweep",
            "all seven velocity laws through the sweep's 2-worker process pool, with few diagnostic records",
            {"JETLAB_WORKERS": str(SWEEP_WORKERS), "OPENBLAS_NUM_THREADS": "1"},
        ),
        Workload(
            "cky-fine",
            "CKY at n = 8192, where the dense O(n^2) half-line quadrature dominates time, memory and set-up",
            {},
        ),
        Workload(
            "jet-strip",
            "jet-verify for m = 1 and 2: the only strip user; skips evolve, models and diagnostics (the stepping control)",
            {},
        ),
    )
}


def sweep_variant(seed: int) -> int:
    return seed % SWEEP_VARIANTS


def sweep_initial_data(variant: int) -> dict:
    """Seeded odd omega (sin modes 1-4) and even theta (cos modes 0-3)."""
    rng = random.Random(variant)
    omega = [rng.uniform(-1.0, 1.0) / k for k in range(1, 5)]
    theta = [rng.uniform(-1.0, 1.0) / max(k, 1) ** 2 for k in range(0, 4)]
    o_scale = _OMEGA_BUDGET / sum(abs(a) for a in omega)
    t_scale = _THETA_SLOPE_BUDGET / sum(abs(b) * max(k, 1) for k, b in enumerate(theta))
    return {
        "omega": {"name": "custom_fourier",
                  "terms": [[k, a * o_scale, 0.0] for k, a in enumerate(omega, start=1)]},
        "theta": {"name": "custom_fourier",
                  "terms": [[k, 0.0, b * t_scale] for k, b in enumerate(theta)]},
    }


def sweep_template(variant: int) -> dict:
    doc = json.loads(json.dumps(SWEEP_TEMPLATE))
    doc["initial_data"] = sweep_initial_data(variant)
    return doc


def write_inputs(name: str, seed: int, work: Path) -> dict:
    """Write the workload's input files into ``work``; return what was used.

    ``commands.json`` holds the CLI argument lists of one iteration, so that
    child processes run exactly what the harness chose.
    """
    work.mkdir(parents=True, exist_ok=True)
    (work / "commands.json").write_text(json.dumps(commands(name)))
    if name == "theorem-q0":
        (work / "config.json").write_text(json.dumps(THEOREM_Q0, indent=2))
        return {"seed_used": False}
    if name == "cky-fine":
        (work / "config.json").write_text(json.dumps(CKY_FINE, indent=2))
        return {"seed_used": False}
    if name == "family-sweep":
        variant = sweep_variant(seed)
        (work / "template.json").write_text(json.dumps(sweep_template(variant), indent=2))
        (work / "grid.json").write_text(json.dumps({"model.name": SWEEP_MODELS}))
        return {"seed_used": True, "variant": variant}
    if name == "jet-strip":
        (work / "strip.json").write_text(json.dumps(dict(STRIP_CASE, m=list(STRIP_M))))
        return {"seed_used": False}
    raise KeyError(name)


def commands(name: str) -> List[List[str]]:
    """CLI argument lists (after ``jetlab``) of one iteration of the workload."""
    if name in ("theorem-q0", "cky-fine"):
        return [["run-model", "config.json"]]
    if name == "family-sweep":
        return [["sweep", "template.json", "grid.json"]]
    if name == "jet-strip":
        return [
            ["jet-verify", str(m), str(STRIP_CASE["M"]), STRIP_CASE["case"],
             "--n", str(STRIP_CASE["n"]), "--out", f"out/m{m}"]
            for m in STRIP_M
        ]
    raise KeyError(name)


def fingerprint_key(name: str, seed: int) -> str:
    return f"{name}/{sweep_variant(seed)}" if name == "family-sweep" else name


def output_bytes(work: Path) -> Optional[int]:
    """Total bytes written under the CLI output directory."""
    out = work / "out"
    if not out.exists():
        return None
    return sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
