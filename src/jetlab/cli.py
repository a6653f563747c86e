"""Command-line experiment runner.

Subcommands: run-model, sweep, jet-verify, identity-check.
Exit codes: 0 success, 1 configuration (usage, document, output-directory or
out-of-memory) error, 2 numerical failure, 3 invariant-audit failure; a sweep
exits with its first nonzero member code.  Every failure prints one line: an
error gets its line and code from the one table ``_FAILURES``, applied in
``main`` and, for isolation, to each sweep member.  A sweep runs each member
in a forked child of its own, at most JETLAB_WORKERS at a time (default and
upper limit: the logical core count), and reaps each child itself; with one
worker, or where there is no ``os.fork``, the members run in this process.  A
sweep grid may have at most ``SWEEP_BUDGET`` members.  numpy's BLAS thread count
defaults to 1 (see README), and jet-verify checks its memory budget first.
The process entry is ``cli``: it runs ``main`` and then freezes the heap, so
that the exiting interpreter does not collect what the OS is about to reclaim.
"""

from __future__ import annotations

import os

# set before numpy loads: one BLAS thread, so F's bits do not depend on the core count
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import gc
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np

from .config import ConfigError, _shaped, parse_config, read_document
from .identities import identity_case_names, operator_identity_check
from .grid import PeriodicGrid
from .models import M_VALUES
from .runner import preflight_output_dir, run_experiment
from .strip import (
    MANUFACTURED_CASES, StripGrid, jet_relation_residual, jet_verify_budget, manufactured_case,
    manufactured_pass,
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


def _read_meminfo() -> str:
    """The kernel's memory report; an OSError where there is none."""
    return Path("/proc/meminfo").read_text()


def _physical_available() -> int:
    """Bytes of physical memory the kernel can grant: ``MemAvailable`` from
    /proc/meminfo, which counts the page cache it would reclaim, else the
    free pages (``SC_AVPHYS_PAGES``, MemFree), which do not."""
    try:
        for line in _read_meminfo().splitlines():
            if line.startswith("MemAvailable:"):
                return int(line.split()[1]) * 1024  # reported in kB
    except OSError:  # no /proc
        pass
    return os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def _memory_available() -> float:
    """Bytes this process may still allocate: the smaller of its address-space
    limit and the available physical memory, where the platform reports both."""
    try:
        import resource

        limit = resource.getrlimit(resource.RLIMIT_AS)[0]
        free = _physical_available()
    except (ImportError, ValueError, OSError):  # not Linux
        return math.inf
    return free if limit == resource.RLIM_INFINITY else min(limit, free)


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


def _read_bytes(path: str, name: str) -> bytes:
    """The bytes of the document at ``path``; a NUL in the path is a ConfigError at ``name``."""
    try:
        return Path(path).read_bytes()
    except ValueError as exc:  # an embedded NUL byte
        raise ConfigError(name, f"{path!r} is not a valid path: {exc}") from None


def _cmd_run_model(args) -> int:
    summary = run_experiment(parse_config(_read_bytes(args.config, "<document>")))
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


class _MemberLost(OSError):
    """A sweep member whose child process ended without sending its outcome."""


def _outcome(code: int, summary=None) -> dict:
    """The row fields that a member's run decides, from its exit code and its
    run summary (None when it did not run to the end)."""
    result = summary["result"] if summary else None
    return {
        "status": _STATUS[code],
        "exit_code": code,
        "termination": result.termination if result else None,
        "t_final": result.t_final if result else None,
        "failed_audits": summary["failed_audits"] if summary else [],
    }


def _run_one_sweep(doc) -> dict:
    """Run one member, isolating its failure: it prints its line and sets the
    member's outcome, and the other members still run."""
    try:
        summary = run_experiment(parse_config(json.dumps(doc)))
        return _outcome(EXIT_AUDIT if summary["failed_audits"] else EXIT_OK, summary)
    except _FAILURE_TYPES as exc:
        return _outcome(_fail(exc))


def _member_child(doc, write_end: int):
    """A forked member's whole life: run it, write its outcome to ``write_end``
    as one JSON object (a few hundred bytes, under PIPE_BUF), and leave by
    ``os._exit``, so that it never returns into the parent's code."""
    code = 1
    try:
        os.write(write_end, json.dumps(_run_one_sweep(doc)).encode())
        code = 0
    except BaseException:  # a member must not unwind into the parent's loop
        sys.excepthook(*sys.exc_info())
    finally:
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(code)


def _run_forked(jobs, workers: int) -> list:
    """The outcome of each member in ``jobs``, in index order, each run by
    ``_member_child`` in a child of its own, at most ``workers`` alive at once.
    A child that sends no outcome (killed, say) gets a ``_MemberLost`` row."""
    import select  # imported here: at the top they raised every command's peak by about 0.08 MB
    import signal

    outcomes, running, pending = [None] * len(jobs), {}, iter(jobs)
    try:
        while True:
            for index, doc in itertools.islice(pending, workers - len(running)):
                sys.stdout.flush()  # or the child would write the parent's buffers again
                sys.stderr.flush()
                read_end, write_end = os.pipe()
                pid = os.fork()
                if pid == 0:
                    _member_child(doc, write_end)
                os.close(write_end)
                running[read_end] = pid, index
            if not running:
                return outcomes
            for read_end in select.select(list(running), [], [])[0]:
                pid, index = running.pop(read_end)
                with open(read_end, "rb") as pipe:
                    sent = pipe.read()
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                if sent:
                    outcomes[index] = json.loads(sent)
                else:
                    how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
                    lost = _MemberLost(f"sweep member {index} ended without a result: {how}")
                    outcomes[index] = _outcome(_fail(lost))
    finally:  # reached with children alive only when the parent itself fails
        for read_end, (pid, _) in running.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(read_end)


def _cmd_sweep(args) -> int:
    template = read_document(_read_bytes(args.template, "<template>"), "<template>")
    grid_doc = read_document(_read_bytes(args.grid, "<grid>"), "<grid>")
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

    if workers > 1 and hasattr(os, "fork"):
        outcomes = _run_forked(jobs, workers)
    else:
        outcomes = [_run_one_sweep(doc) for _, doc in jobs]
    rows = [
        {"index": i, "directory": doc["outputs"]["directory"], **outcome}
        for (i, doc), outcome in zip(jobs, outcomes)
    ]
    summary_path = Path(base) / "sweep_summary.json"
    summary_path.write_text(json.dumps(rows, sort_keys=True, indent=2) + "\n")
    print(f"{len(rows)} runs -> {summary_path}")
    return next((r["exit_code"] for r in rows if r["exit_code"]), EXIT_OK)


def _cmd_jet_verify(args) -> int:
    try:
        grid = StripGrid(PeriodicGrid(args.n, 2.0 * np.pi), args.M)
        # checked before the solve allocates: the kernel may grant memory that it cannot back
        need, available = jet_verify_budget(args.n, args.M), _memory_available()
        if need > available:
            raise MemoryError(f"jet-verify needs {need} bytes, over the {available} available")
        phi_exact, omega = manufactured_case(args.case, args.m, grid)
    except (ValueError, OverflowError) as exc:  # OverflowError: an --n past the float range
        raise ConfigError("jetlab jet-verify", str(exc)) from None
    if args.out:
        preflight_output_dir(args.out)
    checks = manufactured_pass(phi_exact, omega, args.m)
    report = {
        "case": args.case,
        "m": args.m,
        "n": args.n,
        "M": args.M,
        "solve_max_error": checks.solve_max_error,
        "pde_residual": checks.residuals[0],
        "pde_residual_scaled": checks.residuals[1],
        "jet_relation_residual_pde": jet_relation_residual(checks.jets["pde"]),
        "jet_relation_residual_difference": jet_relation_residual(checks.jets["difference"]),
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
    p_jet.add_argument("m", type=int, choices=M_VALUES)
    p_jet.add_argument("M", type=int, help="number of q intervals")
    p_jet.add_argument("case", help=f"one of: {', '.join(MANUFACTURED_CASES)}")
    p_jet.add_argument("--n", type=int, default=64, help="x resolution")
    p_jet.add_argument("--out", help="directory for jet_report.json")
    p_jet.set_defaults(func=_cmd_jet_verify)

    p_id = sub.add_parser("identity-check", help="coordinate-change identity suite")
    p_id.add_argument("m", type=int, choices=M_VALUES)
    p_id.set_defaults(func=_cmd_identity_check)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except _FAILURE_TYPES as exc:
        return _fail(exc)


def cli() -> int:
    """The process entry of ``jetlab`` and ``python -m jetlab.cli``: ``main``'s
    exit code.  Every output file is closed when ``main`` returns; the heap is
    then frozen, so that the interpreter's collections at exit skip objects
    that the OS reclaims anyway (about 20 ms a process).  ``main`` itself never
    freezes, so a caller that runs it in process keeps a normal collector."""
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(cli())
