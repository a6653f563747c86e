"""jetlab benchmark: drive the CLI end to end, or trace its layers in process.

    python3 perfbench/run.py --workload theorem-q0 --seed 1 --seconds 20 --trace 0

Run from anywhere; the checkout root is the parent of this directory and
jetlab is imported from its ``src/``.  One CLI invocation runs at a time
(a closed loop with one client); only ``family-sweep`` runs in parallel,
through the CLI's own 2-worker pool.

``--trace 0`` times fresh CLI processes for ``--seconds`` (at least
``MIN_ITERATIONS`` times), each after a set-up probe in a fresh interpreter,
and reports the end-to-end metrics as medians over the iterations.  ``--trace 1``
alternates untraced and traced in-process passes for ``--seconds`` and
reports the per-layer metrics.  Every iteration's outputs are checked
against the recorded fingerprints.  The last line of stdout is the JSON
result; a record with the machine, thread settings and every sample goes
to ``perfbench/_work/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import metrics
import workloads
from proctree import run_tree

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK_ROOT = BENCH / "_work"
RESULTS = WORK_ROOT / "results"

MIN_ITERATIONS = 5
CHILD_TIMEOUT_S = 60.0
# No new iteration starts after this, so a slow or hung program still lets
# the run end within the 180 s the benchmark promises.
HARD_STOP_S = 100.0
# Units whose values are exact counts; they must repeat across traced passes.
COUNT_UNITS = {"count", "calls/rhs", "checks/step", "calls/step", "count/solve", "B", "flop"}


class BenchError(RuntimeError):
    pass


def _child(*args) -> list:
    return [sys.executable, str(BENCH / "child.py"), *map(str, args)]


def _run_checked(argv, work: Path, env, log: str):
    usage = run_tree(argv, cwd=work, env=env, log_path=work / log, timeout_s=CHILD_TIMEOUT_S)
    if usage.exit_code != 0:
        tail = (work / log).read_text(errors="replace")[-2000:]
        raise BenchError(f"{argv[2:]} exited with {usage.exit_code}:\n{tail}")
    return usage


def _tree_check(name: str, usages) -> dict:
    """Self-check: wait4's CPU equals the child's own plus what it reaped,
    and for the sweep the reaped pool workers contributed to it."""
    own = [u.own_cpu_s for u in usages]
    if any(v is None for v in own):
        return {"ok": False, "why": "/proc/<pid>/stat unreadable"}
    total = sum(u.cpu_s for u in usages)
    own_s = sum(own)
    reaped_s = sum(u.reaped_cpu_s for u in usages)
    consistent = abs(own_s + reaped_s - total) <= 0.05 + 0.02 * total
    workers_counted = name != "family-sweep" or reaped_s > 0
    return {"ok": consistent and workers_counted, "cpu_s": total,
            "own_cpu_s": own_s, "reaped_cpu_s": reaped_s}


def _more(done: int, start: float, seconds: float) -> bool:
    """Whether to start another iteration: until ``seconds`` have passed and
    MIN_ITERATIONS are done, but never after HARD_STOP_S."""
    elapsed = time.perf_counter() - start
    if elapsed >= HARD_STOP_S and done:
        return False
    return done < MIN_ITERATIONS or elapsed < seconds


def _iteration(name: str, work: Path, env, ref: dict) -> dict:
    shutil.rmtree(work / "out", ignore_errors=True)
    usages = [
        run_tree([sys.executable, "-m", "jetlab.cli", *argv], cwd=work, env=env,
                 log_path=work / f"cli{i}.log", timeout_s=CHILD_TIMEOUT_S)
        for i, argv in enumerate(json.loads((work / "commands.json").read_text()))
    ]
    problems, identical = checks.check(name, work, [u.exit_code for u in usages], ref)
    tree = _tree_check(name, usages)
    if not tree["ok"]:
        problems.append(f"process-tree self-check failed: {tree}")
    return {
        "wall_s": sum(u.wall_s for u in usages),
        "cpu_s": sum(u.cpu_s for u in usages),
        "peak_rss_mb": max(u.peak_rss_mb for u in usages),
        "exit_codes": [u.exit_code for u in usages],
        "problems": problems,
        "diagnostics_identical": identical,
        "tree": tree,
    }


def end_to_end(name: str, work: Path, env, ref: dict, seconds: float) -> dict:
    # A set-up probe precedes every iteration, so that both sample the same
    # stretch of time and a burst of machine load moves neither median alone.
    setups, samples = [], []
    start = time.perf_counter()
    while _more(len(samples), start, seconds):
        usage = _run_checked(_child("setup", name, work, work / "setup.json"), work, env, "setup.log")
        setups.append({"wall_s": usage.wall_s, **json.loads((work / "setup.json").read_text())})
        samples.append(_iteration(name, work, env, ref))
    failed = sum(1 for s in samples if s["problems"])
    values = {
        "wall_s": statistics.median(s["wall_s"] for s in samples),
        "setup_s": statistics.median(s["wall_s"] for s in setups),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
        "cpu_s": statistics.median(s["cpu_s"] for s in samples),
        "ok_frac": (len(samples) - failed) / len(samples),
    }
    return {"attempted": len(samples), "failed": failed, "values": values,
            "samples": samples, "setup": setups}


def _inproc_pass(mode: str, name: str, work: Path, env, ref: dict, spans: Path) -> dict:
    shutil.rmtree(work / "out", ignore_errors=True)
    extra = [spans] if mode == "traced" else []
    _run_checked(_child(mode, name, work, work / f"{mode}.json", *extra), work, env, f"{mode}.log")
    result = json.loads((work / f"{mode}.json").read_text())
    result["problems"], result["diagnostics_identical"] = checks.check(
        name, work, result["exit_codes"], ref)
    return result


def per_layer(name: str, work: Path, env, ref: dict, seconds: float, spans: Path) -> dict:
    cli = _iteration(name, work, env, ref)
    # The sweep members run serially in process; BLAS threads as in the pool.
    inproc_env = dict(env, JETLAB_WORKERS="1")
    pairs = []
    start = time.perf_counter()
    while _more(2 * len(pairs), start, seconds):
        plain = _inproc_pass("inproc", name, work, inproc_env, ref, spans)
        traced = _inproc_pass("traced", name, work, inproc_env, ref, spans)
        pairs.append((plain, traced))
    runs = [cli] + [r for pair in pairs for r in pair]
    failed = sum(1 for r in runs if r["problems"])

    first = pairs[0][1]["metrics"]
    values = {}
    repeat_problems = []
    for key, metric in metrics.PER_LAYER.items():
        if key not in first:
            continue
        seen = [t["metrics"][key] for _, t in pairs]
        if metric.unit in COUNT_UNITS:
            values[key] = first[key]
            if any(v != first[key] for v in seen):
                repeat_problems.append(f"{key} did not repeat: {seen}")
        else:
            values[key] = statistics.median(seen)
    member_sums = [sum(p["member_s"]) for p, _ in pairs]
    member_maxes = [max(p["member_s"], default=0.0) for p, _ in pairs]
    is_sweep = name == "family-sweep"
    values["cli.sweep.member_s.max"] = statistics.median(member_maxes) if is_sweep else 0.0
    values["cli.sweep.member_s.sum"] = statistics.median(member_sums) if is_sweep else 0.0
    values["cli.sweep.pool_efficiency"] = (
        values["cli.sweep.member_s.sum"] / (workloads.SWEEP_WORKERS * cli["wall_s"])
        if is_sweep else 0.0)
    plain_total = statistics.median(p["total_s"] for p, _ in pairs)
    traced_total = statistics.median(t["total_s"] for _, t in pairs)
    values["trace.overhead_frac"] = traced_total / plain_total - 1.0
    if repeat_problems:
        failed += 1
    return {
        "attempted": len(runs), "failed": failed, "values": values,
        "cli": cli, "count_repeat_problems": repeat_problems,
        "passes": [{"untraced_total_s": p["total_s"], "traced_total_s": t["total_s"],
                    "member_s": p["member_s"], "problems": p["problems"] + t["problems"],
                    "diagnostics_identical": t["diagnostics_identical"]} for p, t in pairs],
        "layers": pairs[0][1]["layers"], "members": pairs[0][1]["members"],
        "spans": pairs[0][1]["spans"],
    }


def _read(path) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return ""


def machine_record(env) -> dict:
    cpu_model = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                      if line.startswith("model name")), None)
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        caches[f"L{level} {kind}"] = _read(index / "size")
    out = subprocess.run(_child("machine", RESULTS / f"machine-{os.getpid()}.json"),
                         env=env, timeout=60, capture_output=True)
    versions = {}
    if out.returncode == 0:
        path = RESULTS / f"machine-{os.getpid()}.json"
        versions = json.loads(path.read_text())
        path.unlink()
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "jetlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "python": platform.python_version(),
        **versions,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def thread_settings(name: str, env) -> dict:
    keys = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "JETLAB_WORKERS")
    settings = {k: env.get(k, "unset (machine default)") for k in keys}
    settings["processes"] = (
        f"CLI + {workloads.SWEEP_WORKERS} pool workers of 1 BLAS thread each"
        if name == "family-sweep" else "1 CLI process, BLAS threads at the machine default")
    return settings


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    name = args.workload

    if not (SRC / "jetlab" / "__init__.py").is_file():
        print(f"error: no jetlab sources under {SRC}", file=sys.stderr)
        return 2
    if subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "jetlab")],
                      timeout=120).returncode != 0:
        print("error: jetlab sources do not compile", file=sys.stderr)
        return 2
    ref = checks.load_fingerprints()[workloads.fingerprint_key(name, args.seed)]

    RESULTS.mkdir(parents=True, exist_ok=True)
    work = WORK_ROOT / f"{name}-{os.getpid()}"
    env = dict(os.environ, PYTHONPATH=str(SRC), **workloads.WORKLOADS[name].env)
    tag = f"{name}-seed{args.seed}"
    try:
        inputs = workloads.write_inputs(name, args.seed, work)
        if args.trace:
            run = per_layer(name, work, env, ref, args.seconds, RESULTS / f"{tag}.spans.npz")
        else:
            run = end_to_end(name, work, env, ref, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    table = metrics.PER_LAYER if args.trace else metrics.END_TO_END
    result = {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {k: {"value": run["values"][k], "unit": m.unit} for k, m in table.items()},
    }
    record = {
        "workload": name, "why": workloads.WORKLOADS[name].why, "seed": args.seed,
        "inputs": inputs, "seconds": args.seconds, "trace": args.trace,
        "machine": machine_record(env), "threads": thread_settings(name, env),
        "tolerance": {"rtol": checks.RTOL, "atol": checks.ATOL},
        "result": result, "run": run,
    }
    (RESULTS / f"{tag}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    identical = [s["diagnostics_identical"] for s in run.get("samples", run.get("passes", []))]
    print(f"{name}: seed {args.seed} ({'used' if inputs['seed_used'] else 'ignored'}), "
          f"{run['attempted']} runs, {run['failed']} failed")
    print(f"diagnostics.csv byte-identical to fingerprint: {identical}")
    for member in run.get("members", []):
        print("  " + json.dumps(member))
    for key, value in result["metrics"].items():
        print(f"  {key} = {value['value']:.6g} {value['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
