import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

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
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    result = subprocess.run(
        [sys.executable, "-c", NUMPY_ONLY, str(config)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "out" / "diagnostics.csv").exists()
