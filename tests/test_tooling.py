import ast
import gc
import importlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from jetlab.cli import main
from jetlab.config import GENERATORS, parse_config
from jetlab.diagnostics import CSV_COLUMNS
from jetlab.grid import PeriodicGrid
from jetlab.runner import run_experiment
from jetlab.spectral import MULTIPLIERS
from jetlab.strip import (
    StripGrid, _checkpoint_layout, elliptic_residuals, jet_verify_budget, manufactured_case,
    manufactured_pass, solve_elliptic,
)

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
README = ROOT / "README.md"


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


# The functions in src/jetlab that no CLI command enters, beside the routes that
# perfbench/tracer.py's LAYERS pins.  ROADMAP item 6 cuts those routes and
# re-points the tracer in one change; this list shrinks with that cut.  An entry
# names a function or a class (then all its methods).
UNENTERED = (
    "strip.StripField",  # the dense field: only the pinned solve_elliptic route builds one
    "strip.elliptic_residuals",  # called only by the pinned elliptic_residual
    "strip.closure_residual",  # kept for jet_report.json's closure keys (ROADMAP item 7)
    "cli.cli",  # the process entry around main; the guard calls main in process
    "cli._run_forked",  # the fork loop: the guard's sweep runs in process, with one worker
    "cli._member_child",  # runs only in a forked child
    "__init__.__getattr__",  # the package's lazy exports; the CLI imports each module by name
    "__init__.__dir__",  # the same lazy exports, as dir(jetlab) lists them
)


def defined_functions(package: Path) -> set:
    """``module.qualname`` of each function defined in ``package``'s modules,
    as ``co_qualname`` spells it."""
    names = set()

    def visit(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(f"{module}.{prefix}{child.name}")
                visit(child, module, f"{prefix}{child.name}.<locals>.")
            else:
                inner = f"{prefix}{child.name}." if isinstance(child, ast.ClassDef) else prefix
                visit(child, module, inner)

    for path in package.glob("*.py"):
        visit(ast.parse(path.read_text()), path.stem, "")
    return names


def cli_traffic(tmp_path) -> list:
    """Small versions of every command: a tagged Q0 run with a snapshot, a
    seven-model sweep, a dealiased run, jet-verify and identity-check for
    both m, and a usage error, each as (argv, exit code)."""
    def document(name, doc):
        (tmp_path / name).write_text(json.dumps({**doc, "outputs": {
            "directory": str(tmp_path / name[:-5]), **doc.get("outputs", {})}}))
        return str(tmp_path / name)

    cos = {"name": "custom_fourier", "terms": [[0, 0.0, 0.05], [1, 0.0, 0.02]]}  # theta_x(0) = 0
    theorem = document("theorem.json", {
        "model": {"name": "Q0", "c": 1 / 3}, "grid": {"n": 256},
        "stepper": {"t_end": 1.2, "dt_max": 0.01, "omega_sup_cap": 50.0, "record_every": 5},
        "outputs": {"snapshot_times": [0.5]}, "tags": ["theorem-hypotheses"],
    })
    template = document("template.json", {
        "model": {"name": "CLM", "a_ok": 0.5, "X": 0.5}, "grid": {"n": 64},
        "initial_data": {"omega": {"name": "sin_k", "k": 1, "amplitude": 0.2}, "theta": cos},
        "stepper": {"t_end": 0.05, "record_every": 2},
    })
    (tmp_path / "grid.json").write_text(json.dumps({"model.name": [
        "CLM", "DeGregorio", "CCF", "Okamoto", "HouLuo", "CKY", "Q0"]}))
    dealiased = document("dealias.json", {
        "model": {"name": "HouLuo"}, "grid": {"n": 64}, "initial_data": {"theta": cos},
        "stepper": {"t_end": 0.05, "dealias": True},
    })
    return [
        (["run-model", theorem], 0),
        (["sweep", template, str(tmp_path / "grid.json")], 0),
        (["run-model", dealiased], 0),
        (["jet-verify", "1", "16", "linear", "--n", "16"], 0),
        (["jet-verify", "2", "16", "quadratic", "--n", "16"], 0),
        (["identity-check", "1"], 0),
        (["identity-check", "2"], 0),
        (["simulate"], 1),
    ]


def test_cli_enters_every_function_but_the_named_ones(tmp_path, monkeypatch):
    """A function that only tests call fails here until it is cut or named."""
    import jetlab

    package = Path(jetlab.__file__).parent
    for name, module in list(sys.modules.items()):
        if name.startswith("jetlab."):  # a cache an earlier test filled is not entered again
            for value in list(vars(module).values()):
                getattr(value, "cache_clear", lambda: None)()
    commands = cli_traffic(tmp_path)
    monkeypatch.setenv("JETLAB_WORKERS", "1")
    entered, prefix = set(), str(package) + os.sep

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename.startswith(prefix):
            entered.add(f"{Path(code.co_filename).stem}.{code.co_qualname}")

    sys.setprofile(profile)
    try:
        codes = [main(argv) for argv, _ in commands]
    finally:
        sys.setprofile(None)
    assert codes == [code for _, code in commands]
    assert len((tmp_path / "theorem" / "diagnostics.csv").read_text().splitlines()) > 8

    def named(name, entries):
        return any(name == entry or name.startswith(entry + ".") for entry in entries)

    unentered = defined_functions(package) - entered
    pinned = {f"{module.removeprefix('jetlab.')}.{attr}" for _, module, attr in tracer_layers()}
    assert sorted(name for name in unentered - pinned if not named(name, UNENTERED)) == []
    assert [entry for entry in UNENTERED if not any(named(n, [entry]) for n in unentered)] == []


def test_readme_csv_header_is_the_record():
    fence = README.read_text().split("has a fixed column order")[1].split("```\n")[1]
    header = fence.split("\n")[0]
    assert header == ",".join(CSV_COLUMNS)


def test_readme_checkpoint_counts_are_the_layout():
    paragraph = " ".join(next(p for p in README.read_text().split("\n\n") if "`strip._REPEATS`" in p).split())
    quoted = {int(M): int(rows) for rows, M in re.findall(r"(\d+) rows at M = (\d+)", paragraph)}
    assert quoted == {M: _checkpoint_layout(M) for M in (1024, 8192)}


def test_readme_names_every_generator():
    paragraph = next(p for p in README.read_text().split("\n\n") if "Initial-data" in p)
    assert [name for name in GENERATORS if f"`{name}`" not in paragraph] == []


def test_readme_names_every_audit_key(tmp_path):
    # a tagged Q0 run past L/F(0), so that every key is present
    config = parse_config(json.dumps({
        "model": {"name": "Q0", "c": 1 / 3}, "grid": {"n": 64},
        "stepper": {"t_end": 4.0, "dt_max": 0.01, "omega_sup_cap": 50.0, "record_every": 5},
        "outputs": {"directory": str(tmp_path)}, "tags": ["theorem-hypotheses"],
    }))
    audits = run_experiment(config)["audits"]
    text = README.read_text()
    listed = text[text.index("The `audits` object"):].split("\n\n")[1]
    assert re.findall(r"^- `(\w+)`", listed, re.M) == list(audits)


def test_readme_names_every_multiplier():
    bullet = next(b for b in README.read_text().split("\n- ") if b.startswith("`spectral`:"))
    assert [name for name in MULTIPLIERS if f"`{name}`" not in bullet] == []


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


def small_run(tmp_path, **outputs) -> Path:
    """A small CCF run-model document that writes to ``outputs["directory"]``."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "model": {"name": "CCF"},
        "grid": {"n": 64},
        "stepper": {"t_end": 0.01},
        "outputs": outputs,
    }))
    return config


def test_jetlab_needs_only_numpy(tmp_path):
    config = small_run(tmp_path, directory=str(tmp_path / "out"))
    result = subprocess.run(
        [sys.executable, "-c", NUMPY_ONLY, str(config)],
        capture_output=True, text=True, env=jetlab_env(), timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "out" / "diagnostics.csv").exists()


def script_target() -> str:
    """``pyproject.toml``'s ``jetlab`` console script, as ``module:function``."""
    tomllib = pytest.importorskip("tomllib")
    return tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]["jetlab"]


def main_block_entry() -> str:
    """The function that ``jetlab/cli.py``'s ``__main__`` block passes to sys.exit."""
    tree = ast.parse((ROOT / "src" / "jetlab" / "cli.py").read_text())
    block = next(node for node in tree.body if isinstance(node, ast.If)
                 and ast.unparse(node.test) == "__name__ == '__main__'")
    (statement,) = block.body
    assert ast.unparse(statement.value.func) == "sys.exit"
    return statement.value.args[0].func.id


def test_console_script_is_the_main_block_entry():
    assert script_target() == f"jetlab.cli:{main_block_entry()}"


def test_main_in_process_does_not_freeze(tmp_path):
    frozen = gc.get_freeze_count()
    assert main(["run-model", str(small_run(tmp_path, directory=str(tmp_path / "out")))]) == 0
    assert gc.get_freeze_count() == frozen


# Runs the console script's target as its generated wrapper does, then checks
# that the entry froze the heap before the interpreter tears it down.
CONSOLE_SCRIPT = """
import gc, sys
from importlib import import_module

module, name = sys.argv.pop(1).split(":")
code = getattr(import_module(module), name)()
assert gc.get_freeze_count() > 0, "the process entry did not freeze the heap"
sys.exit(code)
"""


@pytest.mark.parametrize("route", ["module", "console_script"])
def test_process_entry_exits_with_mains_code(tmp_path, monkeypatch, route):
    prefix = ["-m", "jetlab.cli"] if route == "module" else ["-c", CONSOLE_SCRIPT, script_target()]
    config = small_run(tmp_path, directory="out")
    (tmp_path / "ref").mkdir()
    monkeypatch.chdir(tmp_path / "ref")
    assert main(["run-model", str(config)]) == 0  # the reference outputs, in process
    for argv, code in ((["run-model", str(config)], 0), (["run-model", "missing.json"], 1)):
        result = subprocess.run([sys.executable, *prefix, *argv], cwd=tmp_path, capture_output=True,
                                text=True, env=jetlab_env(), timeout=120)
        assert result.returncode == code, result.stderr
    for name in ("diagnostics.csv", "run.json"):
        assert (tmp_path / "out" / name).read_bytes() == (tmp_path / "ref" / "out" / name).read_bytes()


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
    # the solve keeps phi and its binomial pivot and right-hand-side
    # checkpoints; the residual pass holds one window of q-columns
    grid = StripGrid(PeriodicGrid(MEMORY_N, 2 * np.pi), MEMORY_M)
    _, omega = manufactured_case("exp", 1, grid)
    phi = solve_elliptic(1, omega)
    assert traced_peak(lambda: solve_elliptic(1, omega)) <= 1.25 * MEMORY_UNIT
    assert traced_peak(lambda: elliptic_residuals(phi, omega, 1)) <= 0.6 * MEMORY_UNIT


def test_jet_verify_memory_guard():
    # no strip-sized array at all: the solve streams its segments into the checks
    argv = ["jet-verify", "1", str(MEMORY_M), "exp", "--n", str(MEMORY_N)]
    assert main(argv) == 0  # first-call caches are not the command's cost
    assert traced_peak(lambda: main(argv)) <= 1.1 * MEMORY_UNIT


# small M, where the per-block arrays outweigh a spectrum, up to large M,
# where the checkpoints dominate, and n = 8, where the q-nodes do; m = 1
# linear, and the benchmark's own m = 2 exp command
@pytest.mark.parametrize(
    "n,M,m,case",
    [
        pytest.param(n, M, 1, "linear", id=f"{n}-{M}")
        for n, M in [(4096, 16), (4096, 64), (512, 256), (256, 2048), (2048, 1024), (8, 8192)]
    ]
    + [pytest.param(2048, 1024, 2, "exp", id="2048-1024-m2-exp")],
)
def test_jet_verify_stays_in_its_budget(n, M, m, case):
    argv = ["jet-verify", str(m), str(M), case, "--n", str(n)]
    assert main(argv) == 0
    assert traced_peak(lambda: main(argv)) <= jet_verify_budget(n, M)


def test_jet_verify_budget_is_not_loose():
    spectrum = (2048 // 2 + 1) * (1024 + 1) * np.dtype(complex).itemsize
    assert jet_verify_budget(2048, 1024) <= 0.087 * spectrum


# where the per-block arrays are large against the q-nodes: the pass holds
# one block's arrays at a time beside its checkpoints
@pytest.mark.parametrize("n,M", [(2048, 1024), (4096, 16)])
def test_manufactured_pass_holds_one_block(n, M):
    phi_exact, omega = manufactured_case("linear", 1, StripGrid(PeriodicGrid(n, 2 * np.pi), M))
    manufactured_pass(phi_exact, omega, 1)  # first-call caches are not the pass's cost
    checkpoints = 24 * (n // 2 + 1) * _checkpoint_layout(M)
    spectrum_row = 16 * (n // 2 + 1)
    per_block = traced_peak(lambda: manufactured_pass(phi_exact, omega, 1)) - checkpoints
    assert per_block <= 68 * spectrum_row


def test_manufactured_pass_keeps_few_checkpoints():
    # at M = 8192 the whole pass stays under what the q-node arrays and the
    # 64 checkpoint rows of two-level checkpointing would take alone (it keeps
    # 17), with a quarter to spare
    n, M = 512, 8192
    phi_exact, omega = manufactured_case("linear", 1, StripGrid(PeriodicGrid(n, 2 * np.pi), M))
    manufactured_pass(phi_exact, omega, 1)  # first-call caches are not the pass's cost
    peak = traced_peak(lambda: manufactured_pass(phi_exact, omega, 1))
    assert 1.25 * peak <= 80 * (M + 1) + 24 * (n // 2 + 1) * 64


# The traced peak of a three-step run at n = 16384 in rows of 8n bytes, per
# model and theta.  A run steps r rows (omega, and theta unless it is +0.0 at
# every node) in 4r: y, y_next and two RK4 stage rows.  An evaluation holds
# its s spectra (u's and u_x's where the law has them, and the r rows'
# derivatives) and their s inverse transforms at once.  The bound is 4r + 2s
# and one row for the rest (a record's transforms), one more for a velocity
# computed on the nodes (Q0, CKY) and two more for CKY's four half-line
# arrays of X/dx = n/2 entries.
RUN_ROW_BOUNDS = [
    ("CLM", None, 11),  # r = 1, s = 3
    ("DeGregorio", None, 11),
    ("CCF", None, 9),  # r = 1, s = 2
    ("Okamoto", None, 11),
    ("HouLuo", "zero", 9),  # r = 1, s = 2
    ("HouLuo", "nonzero", 15),  # r = 2, s = 3
    ("CKY", "zero", 10),  # r = 1, s = 1
    ("CKY", "nonzero", 16),  # r = 2, s = 2
    ("Q0", "zero", 8),  # r = 1, s = 1
    ("Q0", "nonzero", 14),  # r = 2, s = 2
]
THETA0 = {
    "zero": {"name": "zero"},
    "nonzero": {"name": "custom_fourier", "terms": [[0, 0.0, 0.3], [1, 0.0, 0.1]]},
}


@pytest.mark.parametrize(
    "name,theta,rows", RUN_ROW_BOUNDS, ids=[f"{m}-{t}" if t else m for m, t, _ in RUN_ROW_BOUNDS]
)
def test_run_stays_in_its_row_budget(tmp_path, name, theta, rows):
    n = 16384
    doc = {
        "model": {"name": name, "a_ok": 0.5, "X": 1.0},
        "grid": {"n": n, "L": 2.0},
        "initial_data": {"omega": {"name": "sin_fundamental"}},
        "stepper": {"t_end": 3e-5, "dt_max": 1e-5, "record_every": 1000},
        "outputs": {"directory": str(tmp_path)},
    }
    if theta:
        doc["initial_data"]["theta"] = THETA0[theta]
    config = parse_config(json.dumps(doc))
    assert len(run_experiment(config)["result"].diagnostics) == 2  # first-call caches are not the run's cost
    assert traced_peak(lambda: run_experiment(config)) <= rows * 8 * n


# A run holds its records as rows of 18 float64s, 144 bytes, in one growing
# buffer (at most 162 bytes a record with its spare capacity, 149 here).  At
# the peak, the margin fill or the blow-up fit holds a few float64 series
# beside it, 8 bytes a record each.  Records kept as objects of 18 boxed
# floats held about 480 bytes each, and such a run peaked at 537 a record.
RECORD_BYTES = 200


def test_records_stay_in_their_byte_budget(tmp_path):
    doc = {
        "model": {"name": "CCF"},
        "grid": {"n": 64, "L": 2.0},
        "initial_data": {"omega": {"name": "sin_fundamental"}},
        "stepper": {"t_end": 0.1, "dt_max": 1e-4, "record_every": 1},
        "outputs": {"directory": str(tmp_path)},
    }
    config = parse_config(json.dumps(doc))
    records = len(run_experiment(config)["result"].diagnostics)  # first-call caches are not the run's cost
    assert records == 1001
    assert traced_peak(lambda: run_experiment(config)) <= RECORD_BYTES * records


# One failure of each class: (arguments, run-model document or None, exit code).
# The overflow case's Q0 velocity -c*omega overflows at c = 1e308; the CKY
# case's X/dx overflows to inf; at L = 1e-320 the top wavenumber 2*pi*n/L is
# inf; an --n past the float range cannot make a grid.  The two huge amplitudes are no failure: their first record passes the
# float range (power spectrum, slopes, ratio), and the run ends at the sup cap.
# A snapshot of them writes u when u is finite, though the rate that
# biot_savart discards overflows; at 1e308 u is not finite, a numerical failure.
OVERFLOW = {
    "model": {"name": "Q0", "c": 1e308},
    "grid": {"n": 64},
    "initial_data": {"omega": {"name": "sin_k", "k": 1, "amplitude": 2}},
}
HUGE_CKY_X = {"model": {"name": "CKY", "X": 1e308}, "grid": {"n": 64, "L": 2.0}}
TINY_L = {"model": {"name": "Q0"}, "grid": {"n": 64, "L": 1e-320}}
NUL_DIRECTORY = {"model": {"name": "Q0"}, "grid": {"n": 64}, "outputs": {"directory": "a\x00b"}}
# NaN and Infinity under keys that no parser reads, which run.json would echo
UNREAD_NON_FINITE = {"model": {"name": "CCF", "note": float("nan")}, "grid": {"n": 64},
                     "stepper": {"t_end": 0.01}, "tags": [float("inf")]}


# F(0) of a 1e-310 amplitude is subnormal: 1/sup and L/F(0) pass the float range
TINY_AMPLITUDE = {
    "model": {"name": "Q0", "c": 1 / 3},
    "grid": {"n": 64},
    "initial_data": {"omega": {"name": "sin_fundamental", "amplitude": 1e-310}},
    "stepper": {"t_end": 0.2, "dt_max": 0.01, "record_every": 1},
    "tags": ["theorem-hypotheses"],
}


def huge_amplitude(amplitude: float, **outputs) -> bytes:
    omega = {"name": "sin_fundamental", "amplitude": amplitude}
    return json.dumps({"model": {"name": "DeGregorio"}, "grid": {"n": 64},
                       "initial_data": {"omega": omega}, "outputs": outputs}).encode()


FAILURE_CONTRACT = {
    "usage": (["simulate"], None, 1),
    "not-utf8": (["run-model"], b"\x80{}", 1),
    "bad-field": (["run-model"], json.dumps({"model": {"name": "Q0", "a": -2.0}}).encode(), 1),
    "huge-cky-X": (["run-model"], json.dumps(HUGE_CKY_X).encode(), 1),
    "tiny-L": (["run-model"], json.dumps(TINY_L).encode(), 1),
    "nul-in-output-directory": (["run-model"], json.dumps(NUL_DIRECTORY).encode(), 1),
    "non-finite-unread-keys": (["run-model"], json.dumps(UNREAD_NON_FINITE).encode(), 1),
    "record-past-the-float-range": (["run-model"], huge_amplitude(1e160), 0),
    "record-of-inf-and-nan": (["run-model"], huge_amplitude(1e308), 0),
    "snapshot-past-the-float-range": (["run-model"], huge_amplitude(1e160, snapshot_times=[0]), 0),
    "snapshot-of-inf-and-nan": (["run-model"], huge_amplitude(1e308, snapshot_times=[0]), 2),
    "theorem-run-below-the-float-range": (["run-model"], json.dumps(TINY_AMPLITUDE).encode(), 0),
    "jet-verify-input": (["jet-verify", "1", "0", "exp"], None, 1),
    "jet-verify-huge-n": (["jet-verify", "1", "16", "exp", "--n", "1" + "0" * 400], None, 1),
    "numerical": (["run-model"], json.dumps(OVERFLOW).encode(), 2),
    "audit": (["jet-verify", "1", "16", "exp", "--n", "8"], None, 3),
}


@pytest.mark.parametrize("case", sorted(FAILURE_CONTRACT))
def test_failure_contract(tmp_path, case):
    """Each failure is its documented exit code and one stderr line, never a
    traceback or a numpy warning; a run that exits 0 prints no stderr line,
    and its run.json is strict JSON, with no NaN or Infinity."""
    argv, document, code = FAILURE_CONTRACT[case]
    if document is not None:
        (tmp_path / "config.json").write_bytes(document)
        argv = [*argv, "config.json"]
    result = subprocess.run(
        [sys.executable, "-m", "jetlab.cli", *argv],
        capture_output=True, text=True, env=jetlab_env(), cwd=tmp_path, timeout=120,
    )
    assert result.returncode == code, result.stderr
    assert result.stderr.count("\n") == (code != 0) and "Traceback" not in result.stderr
    if argv[0] == "run-model" and code == 0:
        json.loads((tmp_path / "out" / "run.json").read_text(), parse_constant=reject_constant)


def reject_constant(name: str):
    raise ValueError(f"run.json holds {name}")


# numpy reads these when it loads; the CLI sets each to "1" unless it is preset
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def unpinned_env(**preset) -> dict:
    """``jetlab_env()`` without the BLAS thread variables, plus ``preset``.  This
    process carries the CLI's "1"s once it has imported ``jetlab.cli``."""
    env = jetlab_env()
    for var in BLAS_THREAD_VARS:
        env.pop(var, None)
    return {**env, **preset}


def python(argv, env) -> subprocess.CompletedProcess:
    result = subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env,
                            timeout=120)
    assert result.returncode == 0 and result.stderr == "", result.stderr
    return result


# A 2-worker sweep through main, then what it left in the process: no process
# pool machinery loaded, and no child unreaped.
FORKED_SWEEP = """
import os, sys

from jetlab.cli import main

os.cpu_count = lambda: 2
assert main(["sweep", *sys.argv[1:]]) == 0
loaded = [m for m in ("concurrent.futures", "multiprocessing", "hashlib") if m in sys.modules]
assert loaded == [], loaded
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    pass
else:
    raise AssertionError("a sweep child is still unreaped")
"""


def test_sweep_loads_no_process_pool_and_reaps_its_children(tmp_path):
    template = small_run(tmp_path, directory=str(tmp_path / "out"))
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"grid.n": [32, 64, 128]}))
    python(["-c", FORKED_SWEEP, str(template), str(grid)], {**jetlab_env(), "JETLAB_WORKERS": "2"})
    assert len(json.loads((tmp_path / "out" / "sweep_summary.json").read_text())) == 3


def test_every_exported_name_resolves():
    # in a fresh process every name goes through the lazy __getattr__, so a
    # name dropped from its module but left in the export table fails here
    code = "import jetlab\nprint([name for name in jetlab.__all__ if not hasattr(jetlab, name)])"
    assert python(["-c", code], jetlab_env()).stdout == "[]\n"


def test_import_jetlab_loads_no_numpy():
    code = ("import sys, jetlab\n"
            "print(sorted(m for m in sys.modules if m.startswith(('numpy', 'jetlab'))))")
    assert python(["-c", code], unpinned_env()).stdout == "['jetlab']\n"


def loaded_modules(module: str, prefixes=("jetlab",)) -> set:
    """The modules named by ``prefixes`` that a fresh ``import jetlab.<module>`` loads."""
    code = (f"import sys, jetlab.{module}\n"
            f"print(*sorted(m for m in sys.modules if m.startswith({tuple(prefixes)!r})))")
    return set(python(["-c", code], jetlab_env()).stdout.split())


def modules_after(argv) -> set:
    """The ``jetlab`` modules loaded once ``main(argv)`` has run in a fresh process."""
    code = ("import sys\n"
            "from jetlab.cli import main\n"
            f"assert main({argv!r}) == 0\n"
            "print(*sorted(m for m in sys.modules if m.startswith('jetlab')))")
    return set(python(["-c", code], jetlab_env()).stdout.splitlines()[-1].split())


# what main needs before it knows the command: the two leaves and grid
STARTUP = {"jetlab", *(f"jetlab.{name}" for name in ("cli", "coefficients", "grid", "preflight"))}
RUN_STACK = {f"jetlab.{name}" for name in (
    "config", "evolve", "diagnostics", "runner", "models", "spectral")}


def test_module_graph():
    # the CLI's start-up loads these 5 modules and no others; each command
    # loads its own stack, and the identity suite reads b(m) from its leaf
    assert loaded_modules("cli") == STARTUP
    assert loaded_modules("identities") == {"jetlab", "jetlab.coefficients", "jetlab.identities"}


@pytest.mark.parametrize("leaf", ["coefficients", "preflight"])
def test_leaf_modules_load_no_numpy_and_no_other_jetlab_module(leaf):
    assert loaded_modules(leaf, ("jetlab", "numpy")) == {"jetlab", f"jetlab.{leaf}"}


def test_run_model_loads_no_strip_or_identities(tmp_path):
    config = small_run(tmp_path, directory=str(tmp_path / "out"))
    assert not modules_after(["run-model", str(config)]) & {"jetlab.strip", "jetlab.identities"}


def test_jet_verify_loads_only_the_strip_stack():
    loaded = modules_after(["jet-verify", "2", "16", "linear", "--n", "16"])
    assert not loaded & RUN_STACK
    assert loaded == STARTUP | {"jetlab.strip"}


def test_identity_check_loads_only_the_identity_suite():
    loaded = modules_after(["identity-check", "1"])
    assert not loaded & {"jetlab.models", "jetlab.spectral"}
    assert loaded == STARTUP | {"jetlab.identities"}


def test_run_model_and_sweep_call_through_the_cli_seam(tmp_path, monkeypatch):
    # perfbench/child.py times each sweep member by rebinding cli.run_experiment;
    # a command that went round it would leave cli.sweep.member_s.* reading 0
    import jetlab.cli

    runs, run_experiment = [], jetlab.cli.run_experiment

    def counted(config):
        runs.append(config.output_dir)
        return run_experiment(config)

    monkeypatch.setattr(jetlab.cli, "run_experiment", counted)
    monkeypatch.setenv("JETLAB_WORKERS", "1")
    out = tmp_path / "out"
    config = small_run(tmp_path, directory=str(out))
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"model.name": ["CCF", "CLM"]}))
    assert main(["run-model", str(config)]) == 0
    assert main(["sweep", str(config), str(grid)]) == 0
    assert runs == [str(out), str(out / "sweep_0000"), str(out / "sweep_0001")]


@pytest.mark.parametrize("preset,expected", [
    ({}, "1 1 1"),
    ({"OPENBLAS_NUM_THREADS": "3"}, "3 1 1"),
])
def test_cli_runs_blas_on_one_thread_unless_preset(preset, expected):
    code = f"import os, jetlab.cli; print(*(os.environ[v] for v in {BLAS_THREAD_VARS!r}))"
    assert python(["-c", code], unpinned_env(**preset)).stdout == expected + "\n"


# F's half-period dot product has length n/2 + 1; at n = 65536 a threaded BLAS
# splits it, and the sums, so the CSV, would depend on the core count.
WIDE_GRID = {
    "model": {"name": "Q0", "c": 1 / 3},
    "grid": {"n": 65536},
    "initial_data": {"omega": {"name": "sin_fundamental"}, "theta": {"name": "zero"}},
    "stepper": {"t_end": 1.5e-4, "dt_max": 1e-3, "record_every": 1},
}


def test_diagnostics_do_not_depend_on_blas_threads(tmp_path):
    csv = []
    for name, preset in (("unset", {}), ("one", dict.fromkeys(BLAS_THREAD_VARS, "1"))):
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps({**WIDE_GRID, "outputs": {"directory": str(tmp_path / name)}}))
        python(["-m", "jetlab.cli", "run-model", str(config)], unpinned_env(**preset))
        csv.append((tmp_path / name / "diagnostics.csv").read_bytes())
    assert csv[0].count(b"\n") == 7 and csv[0] == csv[1]
