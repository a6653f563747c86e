"""Work done in a fresh interpreter on behalf of run.py.

    python3 perfbench/child.py setup   <workload> <work-dir> <result.json>
    python3 perfbench/child.py inproc  <workload> <work-dir> <result.json>
    python3 perfbench/child.py traced  <workload> <work-dir> <result.json> <spans.npz>
    python3 perfbench/child.py machine <result.json>

``setup`` does what a run does before its first RK4 step.  ``inproc`` runs
the workload's CLI commands in this process through ``jetlab.cli.main``
(the sweep members run serially), untraced; ``traced`` does the same with
the tracer installed.  jetlab is found through PYTHONPATH.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time
from pathlib import Path

import workloads

_T0 = time.perf_counter()


def _setup(name: str, work: Path) -> dict:
    t = {}
    import numpy as np

    from jetlab import PeriodicGrid, StripGrid, biot_savart, manufactured_case, parse_config

    t["import_s"] = time.perf_counter() - _T0
    if name == "jet-strip":
        case = json.loads((work / "strip.json").read_text())
        grid = StripGrid(PeriodicGrid(case["n"], 2.0 * np.pi), case["M"])
        for m in case["m"]:
            manufactured_case(case["case"], m, grid)
        t["build_s"] = time.perf_counter() - _T0 - t["import_s"]
        return t
    if name == "family-sweep":
        template = json.loads((work / "template.json").read_text())
        docs = []
        for model in workloads.SWEEP_MODELS:
            doc = json.loads(json.dumps(template))
            doc["model"]["name"] = model
            docs.append(doc)
    else:
        docs = [json.loads((work / "config.json").read_text())]
    for doc in docs:
        config = parse_config(json.dumps(doc))
        state = config.initial_state()
        biot_savart(config.model, state.omega)
    t["build_s"] = time.perf_counter() - _T0 - t["import_s"]
    return t


def _inproc(name: str, work: Path, tracer=None) -> dict:
    import jetlab.cli
    import jetlab.runner

    member_s = []
    if tracer is None:
        run_experiment = jetlab.runner.run_experiment

        def timed(config):
            t0 = time.perf_counter()
            try:
                return run_experiment(config)
            finally:
                member_s.append(time.perf_counter() - t0)

        jetlab.cli.run_experiment = timed
    os.chdir(work)
    exit_codes = []
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in json.loads((work / "commands.json").read_text()):
            exit_codes.append(jetlab.cli.main(argv))
    total = time.perf_counter() - t0
    return {"total_s": total, "exit_codes": exit_codes, "member_s": member_s}


def _machine() -> dict:
    import numpy as np
    import scipy

    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version")},
    }


def main(argv) -> int:
    mode = argv[0]
    if mode == "machine":
        result = _machine()
        out = Path(argv[1])
    else:
        name, work, out = argv[1], Path(argv[2]).resolve(), Path(argv[3]).resolve()
        if mode == "setup":
            result = _setup(name, work)
        elif mode == "inproc":
            result = _inproc(name, work)
        elif mode == "traced":
            import tracer as tracing

            tr = tracing.Tracer(name)
            tracing.install(tr)
            result = _inproc(name, work, tr)
            result.update(tracing.aggregate(tr))
            output = workloads.output_bytes(work)
            result["metrics"]["runner.output_bytes"] = output or 0
            tracing.save_spans(tr, Path(argv[4]).resolve())
        else:
            raise SystemExit(f"unknown mode {mode!r}")
    out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
