"""Command-line experiment runner.

Subcommands: run-model, sweep, jet-verify, identity-check.
Exit codes: 0 success, 1 configuration (usage, document, output-directory or
out-of-memory) error, 2 numerical failure, 3 invariant-audit failure; a sweep
exits with its first nonzero member code.  Every failure prints one line: an
error gets its line and code from the one table ``_FAILURES``, applied in
``main`` and, for isolation, to each sweep member.  JETLAB_WORKERS caps the
sweep worker pool (default and upper limit: the logical core count); a sweep
grid may have at most ``SWEEP_BUDGET`` members.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .config import ConfigError, _shaped, parse_config, read_document
from .identities import identity_case_names, operator_identity_check
from .grid import PeriodicGrid
from .runner import preflight_output_dir, run_experiment
from .strip import (
    MANUFACTURED_CASES,
    StripGrid,
    elliptic_residuals,
    extract_jets,
    jet_relation_residual,
    manufactured_error,
    manufactured_omega,
    solve_elliptic,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_AUDIT = 3
_STATUS = ("ok", "config_error", "numerical_failure", "audit_failure")  # by exit code

# The one failure table.  An error that ends a command, or a sweep member,
# prints one stderr line "<prefix>: <message>" and exits with the code of the
# first row it matches; ConfigError is a ValueError, so its row comes first.
_FAILURES = (
    ((MemoryError,), EXIT_CONFIG, "config error: out of memory"),
    ((ConfigError, OSError), EXIT_CONFIG, "config error"),
    ((FloatingPointError, ValueError), EXIT_NUMERICAL, "numerical failure"),
)
_FAILURE_TYPES = sum((row[0] for row in _FAILURES), ())

# The most members a sweep grid may have.  The grid's members are expanded and
# parsed before any runs, so the product of its list lengths is checked first.
SWEEP_BUDGET = 10**4


def _worker_count() -> int:
    env, cores = os.environ.get("JETLAB_WORKERS"), os.cpu_count() or 1
    try:
        return min(max(1, int(env)), cores) if env else cores
    except ValueError:
        raise ConfigError("JETLAB_WORKERS", f"expected a whole number, got {env!r}") from None


def _fail(exc: Exception) -> int:
    """Print ``exc`` as the one line of its ``_FAILURES`` row; return the row's exit code."""
    code, prefix = next(row[1:] for row in _FAILURES if isinstance(exc, row[0]))
    print(": ".join(filter(None, (prefix, str(exc)))), file=sys.stderr)
    return code


def _audit_exit(failed) -> int:
    """Exit 3 with one line naming the failed audits, else 0."""
    if failed:
        print(f"failed audits: {', '.join(failed)}", file=sys.stderr)
    return EXIT_AUDIT if failed else EXIT_OK


def _cmd_run_model(args) -> int:
    summary = run_experiment(parse_config(Path(args.config).read_bytes()))
    result = summary["result"]
    print(f"termination: {result.termination} at t = {result.t_final:.6g}")
    for name, path in summary["paths"].items():
        print(f"  {name}: {path}")
    return _audit_exit(summary["failed_audits"])


def _expand_grid(template: dict, axes: dict):
    """Cartesian product of the dotted-path override lists ``axes`` applied to
    the template; a ConfigError when an override path has the wrong shape."""
    paths = list(axes)
    for combo in itertools.product(*axes.values()):
        doc = json.loads(json.dumps(template))
        for path, value in zip(paths, combo):
            node = doc
            keys = path.split(".")
            for key in keys[:-1]:
                node = node.setdefault(key, {})
                if not isinstance(node, dict):
                    raise ConfigError(f"<grid> {path}", f"{key} is not an object")
            node[keys[-1]] = value
        yield doc


def _run_one_sweep(payload) -> dict:
    """Run one member, isolating its failure: it prints its line and sets the
    member's row, and the other members still run."""
    index, doc = payload
    try:
        summary = run_experiment(parse_config(json.dumps(doc)))
        code = EXIT_AUDIT if summary["failed_audits"] else EXIT_OK
    except _FAILURE_TYPES as exc:
        code, summary = _fail(exc), None
    result = summary["result"] if summary else None
    return {
        "index": index,
        "directory": doc["outputs"]["directory"],
        "status": _STATUS[code],
        "exit_code": code,
        "termination": result.termination if result else None,
        "t_final": result.t_final if result else None,
        "failed_audits": summary["failed_audits"] if summary else [],
    }


def _cmd_sweep(args) -> int:
    template = read_document(Path(args.template).read_bytes(), "<template>")
    grid_doc = read_document(Path(args.grid).read_bytes(), "<grid>")
    axes = {p: _shaped(grid_doc, p, list, f"<grid> {p}") for p in sorted(grid_doc)}
    size = math.prod(map(len, axes.values()))
    if size > SWEEP_BUDGET:
        raise ConfigError("<grid>", f"{size} members exceed the sweep budget of {SWEEP_BUDGET}")
    jobs = list(enumerate(_expand_grid(template, axes)))
    if not jobs:
        raise ConfigError("<grid>", "empty parameter grid")
    outputs = template.get("outputs")
    outputs = outputs if isinstance(outputs, dict) else {}  # the member parse rejects the rest
    base = _shaped(outputs, "directory", str, "outputs.directory", "out")
    for i, doc in jobs:
        if isinstance(doc.setdefault("outputs", {}), dict):
            doc["outputs"]["directory"] = str(Path(base) / f"sweep_{i:04d}")
        parse_config(json.dumps(doc))
    workers = min(_worker_count(), len(jobs))
    preflight_output_dir(base)

    if workers > 1:
        # imported here: the pool machinery costs every other command ~20 ms of start-up
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_run_one_sweep, jobs))
    else:
        rows = [_run_one_sweep(job) for job in jobs]
    summary_path = Path(base) / "sweep_summary.json"
    summary_path.write_text(json.dumps(rows, sort_keys=True, indent=2) + "\n")
    print(f"{len(rows)} runs -> {summary_path}")
    return next((r["exit_code"] for r in rows if r["exit_code"]), EXIT_OK)


def _cmd_jet_verify(args) -> int:
    try:
        grid = StripGrid(PeriodicGrid(args.n, 2.0 * np.pi), args.M)
        omega = manufactured_omega(args.case, args.m, grid)
    except ValueError as exc:
        raise ConfigError("jetlab jet-verify", str(exc)) from None
    if args.out:
        preflight_output_dir(args.out)
    phi = solve_elliptic(args.m, omega)
    pde_residual, pde_residual_scaled = elliptic_residuals(phi, omega, args.m)
    jets_pde = extract_jets(phi, omega, args.m, phi2_route="pde")
    jets_diff = extract_jets(phi, omega, args.m, phi2_route="difference")
    report = {
        "case": args.case,
        "m": args.m,
        "n": args.n,
        "M": args.M,
        "solve_max_error": manufactured_error(args.case, args.m, phi),
        "pde_residual": pde_residual,
        "pde_residual_scaled": pde_residual_scaled,
        "jet_relation_residual_pde": jet_relation_residual(jets_pde),
        "jet_relation_residual_difference": jet_relation_residual(jets_diff),
    }
    gates = {"jet_relation_residual_pde": 1e-12, "jet_relation_residual_difference": 1e-4}
    failed = [key for key, gate in gates.items() if not report[key] <= gate]
    report["pass"] = not failed
    text = json.dumps(report, sort_keys=True, indent=2)
    if args.out:
        path = Path(args.out) / "jet_report.json"
        path.write_text(text + "\n")
        print(path)
    else:
        print(text)
    return _audit_exit(failed)


def _cmd_identity_check(args) -> int:
    defects = {name: operator_identity_check(args.m, name) for name in identity_case_names()}
    for name, defect in defects.items():
        print(f"{name:12s} max discrepancy = {defect:.3e}")
    print(f"worst: {max(defects.values()):.3e}")
    return _audit_exit([name for name, defect in defects.items() if not defect <= 1e-12])


class _Parser(argparse.ArgumentParser):
    """Turns a usage error into a config error (subparsers share the class)."""

    def error(self, message):
        raise ConfigError(self.prog, message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="jetlab", description="1D boundary-jet blow-up laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run-model", help="run one configured experiment")
    p_run.add_argument("config", help="path to a JSON experiment document")
    p_run.set_defaults(func=_cmd_run_model)

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep over a template")
    p_sweep.add_argument("template", help="base JSON experiment document")
    p_sweep.add_argument("grid", help="JSON of dotted-path -> list of values")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_jet = sub.add_parser("jet-verify", help="manufactured strip-solver check")
    p_jet.add_argument("m", type=int, choices=(1, 2))
    p_jet.add_argument("M", type=int, help="number of q intervals")
    p_jet.add_argument("case", help=f"one of: {', '.join(MANUFACTURED_CASES)}")
    p_jet.add_argument("--n", type=int, default=64, help="x resolution")
    p_jet.add_argument("--out", help="directory for jet_report.json")
    p_jet.set_defaults(func=_cmd_jet_verify)

    p_id = sub.add_parser("identity-check", help="coordinate-change identity suite")
    p_id.add_argument("m", type=int, choices=(1, 2))
    p_id.set_defaults(func=_cmd_identity_check)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except _FAILURE_TYPES as exc:
        return _fail(exc)


if __name__ == "__main__":
    sys.exit(main())
