"""Committed output digests: for each command below, its exit code, its stdout
and stderr lines and the SHA-256 of every file it writes, as ``golden.json``
holds them.  Any bit that moves in an output fails here.

The digests hold for the numpy version and machine they were recorded with,
so those are checked first.  Re-record with
``PYTHONPATH=src python tests/record_golden.py``; that changes check data, so
each changed digest is listed in CHANGES.md with the diff of its file.
"""

import contextlib
import hashlib
import io
import json
import platform
from pathlib import Path

import numpy as np

from jetlab.cli import main

GOLDEN = Path(__file__).with_name("golden.json")
ENV = {"JETLAB_WORKERS": "1"}  # the sweep runs its members in process

OMEGA = {"name": "custom_fourier", "terms": [[1, 0.8, 0.3], [2, -0.25, 0.1], [3, 0.05, -0.02]]}
THETA = {"name": "custom_fourier", "terms": [[0, 0.0, 0.05], [1, 0.02, 0.03], [2, 0.0, -0.01]]}
SEVEN = {
    "clm": {"name": "CLM"},
    "de_gregorio": {"name": "DeGregorio"},
    "ccf": {"name": "CCF"},
    "okamoto": {"name": "Okamoto", "a_ok": 0.5},
    "hou_luo": {"name": "HouLuo"},
    "cky": {"name": "CKY", "X": 0.5},
    "q0": {"name": "Q0", "m": 2, "a": 0.5},
}


def small(model: dict, theta=None, **stepper) -> dict:
    """A run at n = 64 that records every step and keeps a snapshot."""
    return {
        "model": model, "grid": {"n": 64, "L": 2.0},
        "initial_data": {"omega": OMEGA, "theta": theta or {"name": "zero"}},
        "stepper": {"t_end": 0.1, "dt_max": 0.01, "record_every": 1, **stepper},
        "outputs": {"directory": "out", "snapshot_times": [0.05]},
    }


THEOREM = {
    "model": {"name": "Q0", "c": 1.0 / 3.0}, "grid": {"n": 2048, "L": 2.0},
    "initial_data": {"omega": {"name": "sin_fundamental"}, "theta": {"name": "zero"}},
    "stepper": {"t_end": 4.0, "cfl": 0.4, "dt_min": 1e-12, "dt_max": 0.01,
                "omega_sup_cap": 1e4, "record_every": 10, "dealias": False},
    "outputs": {"directory": "out", "snapshot_times": [0.5]},
    "tags": ["theorem-hypotheses"],
}
FAILING = {  # past L/F(0) to t_end without blowing up, at n = 64: exit 3
    "model": {"name": "HouLuo"}, "grid": {"n": 64, "L": 2.0},
    "initial_data": {"omega": {"name": "sin_fundamental"},
                     "theta": {"name": "custom_fourier", "terms": [[0, 0.0, 0.05], [1, 0.0, 0.02]]}},
    "stepper": {"t_end": 2.0, "dt_max": 0.01, "omega_sup_cap": 1e4, "record_every": 5},
    "outputs": {"directory": "out"}, "tags": ["theorem-hypotheses"],
}
SWEEP = {
    "model": {"name": "CLM", "a_ok": 0.5, "X": 0.5}, "grid": {"n": 64, "L": 2.0},
    "initial_data": {"omega": OMEGA, "theta": THETA},
    "stepper": {"t_end": 0.05, "record_every": 2},
    "outputs": {"directory": "out"},
}

# name -> (argv, {document name: document}); every output path is relative
COMMANDS = {
    "theorem": (["run-model", "config.json"], {"config.json": THEOREM}),
    **{name: (["run-model", "config.json"], {"config.json": small(model)}) for name, model in SEVEN.items()},
    **{
        f"{name}_theta": (["run-model", "config.json"], {"config.json": small(SEVEN[name], THETA)})
        for name in ("hou_luo", "cky", "q0")
    },
    "dealiased": (["run-model", "config.json"], {"config.json": small(SEVEN["hou_luo"], THETA, dealias=True)}),
    "failing_audits": (["run-model", "config.json"], {"config.json": FAILING}),
    "sweep": (["sweep", "template.json", "grid.json"], {
        "template.json": SWEEP,
        "grid.json": {"model.name": ["CLM", "DeGregorio", "CCF", "Okamoto", "HouLuo", "CKY", "Q0"]},
    }),
    **{
        f"jet_verify_{m}_{case}": (["jet-verify", m, "256", case, "--n", "64", "--out", "out"], {})
        for m in ("1", "2") for case in ("exp", "quadratic")
    },
    "identity_check_1": (["identity-check", "1"], {}),
    "identity_check_2": (["identity-check", "2"], {}),
}


def made_with() -> dict:
    return {"numpy": np.__version__, "machine": platform.machine()}


def outcome(argv, documents: dict, directory: Path) -> dict:
    """Run ``main(argv)`` in ``directory``, an empty one, after writing the
    documents there: its exit code, stdout and stderr lines, and the SHA-256
    of each file it wrote, by relative path."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.chdir(directory):
        for name, doc in documents.items():
            Path(name).write_text(json.dumps(doc))
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
    paths = (path.relative_to(directory).as_posix() for path in sorted(directory.rglob("*")))
    files = {
        path: hashlib.sha256((directory / path).read_bytes()).hexdigest()
        for path in paths
        if (directory / path).is_file() and path not in documents
    }
    return {
        "exit": code,
        "stdout": stdout.getvalue().splitlines(),
        "stderr": stderr.getvalue().splitlines(),
        "files": files,
    }


def test_outputs_match_their_committed_digests(tmp_path, monkeypatch):
    golden = json.loads(GOLDEN.read_text())
    recorded = {key: golden[key] for key in made_with()}
    assert recorded == made_with(), (
        f"golden.json was recorded with {recorded}, this is {made_with()}: re-record it"
        " here before reading any digest mismatch as a code change"
    )
    for key, value in ENV.items():
        monkeypatch.setenv(key, value)
    assert sorted(golden["commands"]) == sorted(COMMANDS)
    moved = []
    for name, (argv, documents) in COMMANDS.items():
        (tmp_path / name).mkdir()
        if outcome(argv, documents, tmp_path / name) != golden["commands"][name]:
            moved.append(name)
    assert moved == []
