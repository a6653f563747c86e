"""Smoke check of the benchmark at tiny sizes (about a minute).

    python3 perfbench/smoke.py [workload ...]

Shrinks every workload (n = 64, short horizons, a small strip), records
fingerprints of the shrunken runs, then drives the real end-to-end and
traced code paths once each and checks that every metric named in
metrics.py is emitted with its unit, that the outputs pass their checks,
and that BENCHMARK.json lists the same workloads and metrics.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import metrics
import record_fingerprints
import run
import workloads

TINY = {
    "THEOREM_Q0": {"grid": {"n": 64, "L": 2.0}, "stepper": dict(workloads.THEOREM_Q0["stepper"], t_end=0.2)},
    "CKY_FINE": {"grid": {"n": 64, "L": 2.0}},
    # 50 steps recorded every 10: the 6 rows the full-size sweep has
    "SWEEP_TEMPLATE": {"grid": {"n": 64, "L": 2.0},
                       "stepper": dict(workloads.SWEEP_TEMPLATE["stepper"], t_end=0.05, record_every=10)},
}


def shrink() -> None:
    for attr, changes in TINY.items():
        getattr(workloads, attr).update(changes)
    workloads.STRIP_CASE.update(M=32, n=64)


def check_benchmark_json(problems) -> None:
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    want = metrics.benchmark_entries()
    for key in ("end_to_end", "per_layer"):
        if doc[key] != want[key]:
            problems.append(f"BENCHMARK.json {key} differs from metrics.py")
    listed = {w["name"]: w["why"] for w in doc["workloads"]}
    if listed != {w.name: w.why for w in workloads.WORKLOADS.values()}:
        problems.append("BENCHMARK.json workloads differ from workloads.py")


def _problems(result) -> list:
    runs = result.get("samples") or [result["cli"], *result["passes"]]
    return [p for r in runs for p in r["problems"]] + result.get("count_repeat_problems", [])


def main(names) -> int:
    shrink()
    problems = []
    check_benchmark_json(problems)
    run.RESULTS.mkdir(parents=True, exist_ok=True)
    for name in names or workloads.WORKLOADS:
        wl = workloads.WORKLOADS[name]
        work = run.WORK_ROOT / f"smoke-{name}-{os.getpid()}"
        try:
            ref = record_fingerprints.record(name, 0, work)
            env = dict(os.environ, PYTHONPATH=str(run.SRC), **wl.env)
            for trace, table in ((0, metrics.END_TO_END), (1, metrics.PER_LAYER)):
                if trace:
                    result = run.per_layer(name, work, env, ref, 0, work / "spans.npz")
                else:
                    result = run.end_to_end(name, work, env, ref, 0)
                missing = sorted(set(table) - set(result["values"]))
                if missing:
                    problems.append(f"{name} trace {trace}: missing {missing}")
                if result["failed"]:
                    problems.append(f"{name} trace {trace}: {result['failed']} failed runs: "
                                    f"{_problems(result)[:3]}")
                print(f"{name} trace {trace}: {len(table) - len(missing)}/{len(table)} metrics, "
                      f"{result['attempted']} runs, {result['failed']} failed")
                for key in table:
                    if key in result["values"]:
                        print(f"    {key} = {result['values'][key]:.6g} {table[key].unit}")
        finally:
            shutil.rmtree(work, ignore_errors=True)
    for p in problems:
        print("FAIL:", p)
    print("smoke:", "FAIL" if problems else "OK")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
