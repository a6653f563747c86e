"""Output checks against fingerprints recorded at the benchmark's seed commit.

Exact: exit codes, ``termination``, ``n_samples``, every boolean audit
verdict in ``run.json``, and ``pass`` of each jet report.
Within ``RTOL``/``ATOL`` (|a - b| <= RTOL * max(|a|, |b|) + ATOL): ``t_final``,
the numeric audit entries in ``NUMERIC_AUDITS``, the ``diagnostics.csv`` rows with
t < ``resolved_until`` of the fingerprint, ``solve_max_error``, and the
sweep members' ``t_final`` and last diagnostics row (their termination
and row count are exact).

Whether ``diagnostics.csv`` is byte-identical to the fingerprint is
reported for information only; rounding-level differences are allowed.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import List, Optional, Tuple

from workloads import STRIP_M

RTOL = 1e-8
ATOL = 1e-10
TAIL_THRESHOLD = 1e-8  # resolution threshold of jetlab's resolved_until
# Numeric audit entries that depend only on the resolved part of the run.
# estimated_blowup_time is fitted to the unresolved tail, so only the
# verdict built on it (blowup_bound_holds) is checked.
NUMERIC_AUDITS = ("F0", "bound_L_over_F0", "resolved_until")

FINGERPRINTS = Path(__file__).resolve().parent / "fingerprints.json"


def load_fingerprints() -> dict:
    return json.loads(FINGERPRINTS.read_text())


def _csv(path: Path) -> Tuple[str, List[List[float]]]:
    text = path.read_text()
    lines = text.splitlines()[1:]
    return hashlib.sha256(text.encode()).hexdigest(), [
        [float(v) for v in line.split(",")] for line in lines
    ]


def _run_dir(out: Path) -> dict:
    run = json.loads((out / "run.json").read_text())
    sha, rows = _csv(out / "diagnostics.csv")
    return {
        "termination": run["termination"],
        "t_final": run["t_final"],
        "n_samples": run["n_samples"],
        "audits": run["audits"],
        "diagnostics_sha256": sha,
        "diagnostics_rows": rows,
    }


def observe(name: str, work: Path, exit_codes: List[int]) -> dict:
    """Read the facts the fingerprint holds from a finished iteration."""
    out = work / "out"
    obs: dict = {"exit_codes": list(exit_codes)}
    if name in ("theorem-q0", "cky-fine"):
        obs.update(_run_dir(out))
    elif name == "family-sweep":
        summary = json.loads((out / "sweep_summary.json").read_text())
        members = []
        for row in sorted(summary, key=lambda r: r["index"]):
            sha, rows = _csv(work / row["directory"] / "diagnostics.csv")
            members.append({
                "termination": row["termination"],
                "t_final": row["t_final"],
                "n_rows": len(rows),
                "final_row": rows[-1],
                "diagnostics_sha256": sha,
            })
        obs["members"] = members
    elif name == "jet-strip":
        obs["reports"] = {}
        for m in STRIP_M:
            report = json.loads((out / f"m{m}" / "jet_report.json").read_text())
            obs["reports"][str(m)] = {
                "pass": report["pass"],
                "solve_max_error": report["solve_max_error"],
            }
    return obs


def close(a: Optional[float], b: Optional[float]) -> bool:
    if a is None or b is None:
        return a is b
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= RTOL * max(abs(a), abs(b)) + ATOL


def _resolved_until(rows: List[List[float]]) -> float:
    for row in rows:
        if row[-1] > TAIL_THRESHOLD:
            return row[0]
    return math.inf


def _compare_run(obs: dict, ref: dict, problems: List[str]) -> None:
    for key in ("termination", "n_samples"):
        if obs[key] != ref[key]:
            problems.append(f"{key}: {obs[key]!r} != {ref[key]!r}")
    if not close(obs["t_final"], ref["t_final"]):
        problems.append(f"t_final: {obs['t_final']!r} vs {ref['t_final']!r}")
    if set(obs["audits"]) != set(ref["audits"]):
        problems.append(f"audit keys differ: {sorted(obs['audits'])}")
    for key, want in ref["audits"].items():
        got = obs["audits"].get(key)
        if isinstance(want, bool):
            ok = got is want
        elif key in NUMERIC_AUDITS:
            ok = close(got, want)
        else:
            continue
        if not ok:
            problems.append(f"audit {key}: {got!r} != {want!r}")
    t_res = _resolved_until(ref["diagnostics_rows"])
    ref_rows = [r for r in ref["diagnostics_rows"] if r[0] < t_res]
    got_rows = obs["diagnostics_rows"][: len(ref_rows)]
    if len(got_rows) < len(ref_rows):
        problems.append(f"diagnostics.csv has {len(got_rows)} resolved rows, want {len(ref_rows)}")
    for i, (got, want) in enumerate(zip(got_rows, ref_rows)):
        bad = [j for j, (a, b) in enumerate(zip(got, want)) if not close(a, b)]
        if bad or len(got) != len(want):
            problems.append(f"diagnostics.csv row {i} differs in columns {bad}")
            break


def compare(name: str, obs: dict, ref: dict) -> Tuple[List[str], Optional[bool]]:
    """Problems found, and whether diagnostics.csv is byte-identical."""
    problems: List[str] = []
    if obs["exit_codes"] != ref["exit_codes"]:
        problems.append(f"exit codes {obs['exit_codes']} != {ref['exit_codes']}")
    identical: Optional[bool] = None
    if name in ("theorem-q0", "cky-fine"):
        _compare_run(obs, ref, problems)
        identical = obs["diagnostics_sha256"] == ref["diagnostics_sha256"]
    elif name == "family-sweep":
        if len(obs["members"]) != len(ref["members"]):
            problems.append("wrong number of sweep members")
        for i, (got, want) in enumerate(zip(obs["members"], ref["members"])):
            for key in ("termination", "n_rows"):
                if got[key] != want[key]:
                    problems.append(f"member {i} {key} {got[key]!r} != {want[key]!r}")
            if not close(got["t_final"], want["t_final"]):
                problems.append(f"member {i} t_final {got['t_final']!r}")
            if len(got["final_row"]) != len(want["final_row"]) or not all(
                close(a, b) for a, b in zip(got["final_row"], want["final_row"])
            ):
                problems.append(f"member {i} last diagnostics row differs")
        identical = all(
            g["diagnostics_sha256"] == w["diagnostics_sha256"]
            for g, w in zip(obs["members"], ref["members"])
        )
    elif name == "jet-strip":
        for m, want in ref["reports"].items():
            got = obs["reports"][m]
            if got["pass"] is not want["pass"]:
                problems.append(f"m={m} pass {got['pass']!r}")
            if not close(got["solve_max_error"], want["solve_max_error"]):
                problems.append(f"m={m} solve_max_error {got['solve_max_error']!r}")
    return problems, identical


def check(name: str, work: Path, exit_codes: List[int], ref: dict) -> Tuple[List[str], Optional[bool]]:
    """Observe and compare; a missing or unreadable output is a problem."""
    try:
        obs = observe(name, work, exit_codes)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"outputs unreadable: {type(exc).__name__}: {exc}"], None
    return compare(name, obs, ref)
