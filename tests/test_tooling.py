import ast
import importlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from jetlab.cli import main
from jetlab.grid import PeriodicGrid
from jetlab.strip import StripGrid, elliptic_residuals, manufactured_case, solve_elliptic

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def tracer_layers():
    """The (span, module, attribute) table of the per-layer tracer, read from
    its source so that the tracer itself is not imported."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["LAYERS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYERS table in {TRACER}")


def test_every_traced_layer_resolves():
    layers = tracer_layers()
    assert layers
    missing = [
        f"{module}.{attr}"
        for _, module, attr in layers
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []


def jetlab_env() -> dict:
    """This environment, with the repository's ``src`` first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


NUMPY_ONLY = """
import sys

from jetlab.cli import main

assert "scipy" not in sys.modules, "import jetlab.cli imported scipy"
sys.modules["scipy"] = None  # from here on, any scipy import fails
assert main(["jet-verify", "1", "128", "exp", "--n", "16"]) == 0
assert main(["run-model", sys.argv[1]]) == 0
"""


def test_jetlab_needs_only_numpy(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "model": {"name": "CCF"},
        "grid": {"n": 64},
        "stepper": {"t_end": 0.01},
        "outputs": {"directory": str(tmp_path / "out")},
    }))
    result = subprocess.run(
        [sys.executable, "-c", NUMPY_ONLY, str(config)],
        capture_output=True, text=True, env=jetlab_env(), timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "out" / "diagnostics.csv").exists()


def traced_peak(call) -> int:
    """Bytes allocated at the peak of ``call()`` above what was live before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


# Memory bounds are in units of one (n/2+1, M+1) complex128 spectrum, which
# takes the bytes of one (n, M+1) real strip plus one column.
MEMORY_N, MEMORY_M = 512, 256
MEMORY_UNIT = (MEMORY_N // 2 + 1) * (MEMORY_M + 1) * np.dtype(complex).itemsize


def test_strip_memory_guard():
    # the solve keeps its right-hand side and the sweep's pivots (half a
    # unit); the residual pass holds one block of q-columns
    grid = StripGrid(PeriodicGrid(MEMORY_N, 2 * np.pi), MEMORY_M)
    _, omega = manufactured_case("exp", 1, grid)
    phi = solve_elliptic(1, omega)
    assert traced_peak(lambda: solve_elliptic(1, omega)) <= 1.75 * MEMORY_UNIT
    assert traced_peak(lambda: elliptic_residuals(phi, omega, 1)) <= 0.6 * MEMORY_UNIT


def test_jet_verify_memory_guard():
    # omega plus the solve: no strip-sized exact phi, error or second spectrum
    argv = ["jet-verify", "1", str(MEMORY_M), "exp", "--n", str(MEMORY_N)]
    assert main(argv) == 0  # first-call caches are not the command's cost
    assert traced_peak(lambda: main(argv)) <= 2.9 * MEMORY_UNIT


# One failure of each class: (arguments, run-model document or None, exit code).
# The overflow case's Q0 velocity -c*omega overflows at c = 1e308; the CKY
# case's X/dx overflows to inf.
OVERFLOW = {
    "model": {"name": "Q0", "c": 1e308},
    "grid": {"n": 64},
    "initial_data": {"omega": {"name": "sin_k", "k": 1, "amplitude": 2}},
}
HUGE_CKY_X = {"model": {"name": "CKY", "X": 1e308}, "grid": {"n": 64, "L": 2.0}}
FAILURE_CONTRACT = {
    "usage": (["simulate"], None, 1),
    "not-utf8": (["run-model"], b"\x80{}", 1),
    "bad-field": (["run-model"], json.dumps({"model": {"name": "Q0", "a": -2.0}}).encode(), 1),
    "huge-cky-X": (["run-model"], json.dumps(HUGE_CKY_X).encode(), 1),
    "jet-verify-input": (["jet-verify", "1", "0", "exp"], None, 1),
    "numerical": (["run-model"], json.dumps(OVERFLOW).encode(), 2),
    "audit": (["jet-verify", "1", "16", "exp", "--n", "8"], None, 3),
}


@pytest.mark.parametrize("case", sorted(FAILURE_CONTRACT))
def test_failure_contract(tmp_path, case):
    """Each failure is its documented exit code and one stderr line, never a
    traceback or a numpy warning."""
    argv, document, code = FAILURE_CONTRACT[case]
    if document is not None:
        (tmp_path / "config.json").write_bytes(document)
        argv = [*argv, "config.json"]
    result = subprocess.run(
        [sys.executable, "-m", "jetlab.cli", *argv],
        capture_output=True, text=True, env=jetlab_env(), cwd=tmp_path, timeout=120,
    )
    assert result.returncode == code, result.stderr
    assert result.stderr.count("\n") == 1 and "Traceback" not in result.stderr
