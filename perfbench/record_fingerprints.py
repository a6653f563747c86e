"""Record the output fingerprints the benchmark checks every run against.

    python3 perfbench/record_fingerprints.py

Runs each workload's CLI commands once (every sweep variant) and writes
``fingerprints.json``.  Run it only at a commit whose outputs are the
reference; the benchmark then treats any other output as a failure.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import checks
import workloads

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"


def record(name: str, seed: int, work: Path) -> dict:
    shutil.rmtree(work, ignore_errors=True)
    workloads.write_inputs(name, seed, work)
    env = dict(os.environ, PYTHONPATH=str(SRC), **workloads.WORKLOADS[name].env)
    codes = [
        subprocess.run([sys.executable, "-m", "jetlab.cli", *argv], cwd=work, env=env,
                       stdout=subprocess.DEVNULL).returncode
        for argv in workloads.commands(name)
    ]
    obs = checks.observe(name, work, codes)
    if name == "family-sweep":
        # every member must reach t_end in exactly t_end/dt_max steps (6 records)
        bad = [m for m in obs["members"]
               if m["termination"] != "reached_t_end" or m["n_rows"] != 6]
        if bad or obs["exit_codes"] != [0]:
            raise SystemExit(f"sweep variant {seed} does not run cleanly: {bad}")
    return obs


def main() -> int:
    work = BENCH / "_work" / "fingerprints"
    prints = {}
    for name in workloads.WORKLOADS:
        seeds = range(workloads.SWEEP_VARIANTS) if name == "family-sweep" else [0]
        for seed in seeds:
            prints[workloads.fingerprint_key(name, seed)] = record(name, seed, work)
            print(workloads.fingerprint_key(name, seed), flush=True)
    shutil.rmtree(work, ignore_errors=True)
    checks.FINGERPRINTS.write_text(json.dumps(prints, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
