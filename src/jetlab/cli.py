"""Command-line experiment runner.

Subcommands: run-model, sweep, jet-verify, identity-check.
Exit codes: 0 success, 1 configuration or output-directory error, 2
numerical failure, 3 invariant-audit failure; a sweep exits with its first
nonzero member code.  JETLAB_WORKERS caps the sweep worker pool (default:
logical core count).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Callable

import numpy as np

from .config import ConfigError, parse_config
from .identities import identity_case_names, operator_identity_check
from .grid import PeriodicGrid
from .runner import preflight_output_dir, run_experiment
from .strip import (
    MANUFACTURED_CASES,
    StripGrid,
    elliptic_residual,
    extract_jets,
    jet_relation_residual,
    manufactured_case,
    solve_elliptic,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_AUDIT = 3
_STATUS = ("ok", "config_error", "numerical_failure", "audit_failure")  # by exit code


def _worker_count() -> int:
    env = os.environ.get("JETLAB_WORKERS")
    try:
        return max(1, int(env)) if env else os.cpu_count() or 1
    except ValueError:
        raise ConfigError("JETLAB_WORKERS", f"expected a whole number, got {env!r}") from None


def _experiment(read_text: Callable[[], str]):
    """Read, parse and run one experiment document: (exit code, summary or None).
    A config, file or output-directory error or a numerical failure prints one line."""
    try:
        summary = run_experiment(parse_config(read_text()))
    except (OSError, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG, None
    except (FloatingPointError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL, None
    return (EXIT_AUDIT if summary["failed_audits"] else EXIT_OK), summary


def _cmd_run_model(args) -> int:
    code, summary = _experiment(Path(args.config).read_text)
    if summary is None:
        return code
    result = summary["result"]
    print(f"termination: {result.termination} at t = {result.t_final:.6g}")
    for name, path in summary["paths"].items():
        print(f"  {name}: {path}")
    if summary["failed_audits"]:
        print(f"failed audits: {', '.join(summary['failed_audits'])}", file=sys.stderr)
    return code


def _expand_grid(template: dict, grid_doc: dict):
    """Cartesian product of dotted-path overrides applied to the template; a
    ConfigError when either document or an override path has the wrong shape."""
    for name, document in (("<template>", template), ("<grid>", grid_doc)):
        if not isinstance(document, dict):
            raise ConfigError(name, "top level must be an object")
    paths = sorted(grid_doc)
    for path in paths:
        if not isinstance(grid_doc[path], list):
            raise ConfigError(f"<grid> {path}", f"expected a list, got {grid_doc[path]!r}")
    for combo in itertools.product(*(grid_doc[p] for p in paths)):
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
    index, doc = payload
    code, summary = _experiment(lambda: json.dumps(doc))
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
    try:
        template = json.loads(Path(args.template).read_text())
        grid_doc = json.loads(Path(args.grid).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        jobs = list(enumerate(_expand_grid(template, grid_doc)))
        if not jobs:
            raise ConfigError("<grid>", "empty parameter grid")
        outputs = template.get("outputs", {})
        base = str(outputs.get("directory", "out")) if isinstance(outputs, dict) else "out"
        for i, doc in jobs:
            if isinstance(doc.setdefault("outputs", {}), dict):
                doc["outputs"]["directory"] = str(Path(base) / f"sweep_{i:04d}")
            parse_config(json.dumps(doc))
        workers = min(_worker_count(), len(jobs))
        preflight_output_dir(base)
    except (OSError, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_run_one_sweep, jobs))
    else:
        rows = [_run_one_sweep(job) for job in jobs]
    summary_path = Path(base) / "sweep_summary.json"
    summary_path.write_text(json.dumps(rows, sort_keys=True, indent=2) + "\n")
    print(f"{len(rows)} runs -> {summary_path}")
    return next((r["exit_code"] for r in rows if r["exit_code"]), EXIT_OK)


def _cmd_jet_verify(args) -> int:
    if args.case not in MANUFACTURED_CASES:
        print(
            f"config error: unknown case {args.case!r}; "
            f"choose from {', '.join(MANUFACTURED_CASES)}",
            file=sys.stderr,
        )
        return EXIT_CONFIG
    grid = StripGrid(PeriodicGrid(args.n, 2.0 * np.pi), args.M)
    phi_exact, omega = manufactured_case(args.case, args.m, grid)
    phi = solve_elliptic(args.m, omega)
    jets_pde = extract_jets(phi, omega, args.m, phi2_route="pde")
    jets_diff = extract_jets(phi, omega, args.m, phi2_route="difference")
    report = {
        "case": args.case,
        "m": args.m,
        "n": args.n,
        "M": args.M,
        "solve_max_error": float(np.max(np.abs(phi.values - phi_exact.values))),
        "pde_residual": elliptic_residual(phi, omega, args.m),
        "jet_relation_residual_pde": jet_relation_residual(jets_pde),
        "jet_relation_residual_difference": jet_relation_residual(jets_diff),
    }
    ok = (
        report["jet_relation_residual_pde"] <= 1e-12
        and report["jet_relation_residual_difference"] <= 1e-4
    )
    report["pass"] = bool(ok)
    text = json.dumps(report, sort_keys=True, indent=2)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "jet_report.json").write_text(text + "\n")
        print(out / "jet_report.json")
    else:
        print(text)
    return EXIT_OK if ok else EXIT_AUDIT


def _cmd_identity_check(args) -> int:
    worst = 0.0
    for name in identity_case_names():
        defect = operator_identity_check(args.m, name)
        worst = max(worst, defect)
        print(f"{name:12s} max discrepancy = {defect:.3e}")
    print(f"worst: {worst:.3e}")
    return EXIT_OK if worst <= 1e-12 else EXIT_AUDIT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jetlab", description="1D boundary-jet blow-up laboratory"
    )
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
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
