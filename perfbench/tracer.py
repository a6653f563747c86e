"""Spans and exact counts around jetlab's layers, recorded from outside.

`install` replaces layer functions by wrappers that record one span per
call: name, start, end, parent span and workload id (for a sweep, the
member).  The wrappers are bound wherever a jetlab module holds the
original function, because modules import each other's functions by name.
``numpy.fft.rfft``/``irfft`` wrappers also count transforms and the bytes
and flops they compute (2.5 N log2 N per real transform of length N).

Spans stay in flat arrays in memory; `aggregate` derives self time as a
span's duration minus the time its child spans cover, and `save_spans`
writes them when the run ends.  Nothing under ``src/`` is modified.
"""

from __future__ import annotations

import importlib
import math
import sys
import time
from array import array
from typing import Callable, Dict, List, Optional

import numpy as np

import jetlab.grid

# (span name, module, attribute): the public layer functions that are wrapped.
LAYERS = [
    ("config.parse_config", "jetlab.config", "parse_config"),
    ("runner.run_experiment", "jetlab.runner", "run_experiment"),
    ("runner.theorem_audit", "jetlab.runner", "theorem_audit"),
    ("runner.emit_outputs", "jetlab.runner", "emit_outputs"),
    ("evolve.run", "jetlab.evolve", "run"),
    ("evolve.step_rk4", "jetlab.evolve", "step_rk4"),
    ("models.rhs", "jetlab.models", "rhs"),
    ("models.biot_savart", "jetlab.models", "biot_savart"),
    ("spectral.spectral_derivative", "jetlab.spectral", "spectral_derivative"),
    ("spectral.hilbert_transform", "jetlab.spectral", "hilbert_transform"),
    ("spectral.antiderivative_zero_mean", "jetlab.spectral", "antiderivative_zero_mean"),
    ("diagnostics.compute_record", "jetlab.diagnostics", "compute_record"),
    ("diagnostics.fill_margin_fields", "jetlab.diagnostics", "fill_margin_fields"),
    ("diagnostics.riccati_audit", "jetlab.diagnostics", "riccati_audit"),
    ("strip.manufactured_case", "jetlab.strip", "manufactured_case"),
    ("strip.solve_elliptic", "jetlab.strip", "solve_elliptic"),
    ("strip.solve_banded", "jetlab.strip", "solve_banded"),
    ("strip.elliptic_residual", "jetlab.strip", "elliptic_residual"),
    ("strip.extract_jets", "jetlab.strip", "extract_jets"),
]
FIELD_CHECK = "grid.field_check"
FFT_NAMES = ("numpy.fft.rfft", "numpy.fft.irfft")


class Tracer:
    """In-memory span store; one instance per traced process."""

    def __init__(self, workload: str):
        self.workload = workload
        self.names: List[str] = []
        self.members: List[str] = [workload]
        self.member = 0
        self.name_of = array("i")
        self.parent = array("i")
        self.member_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.fft_bytes = 0
        self.fft_flops = 0.0
        self.retained_state_bytes = 0

    def wrap(self, name: str, fn: Callable, *, member: Optional[Callable] = None,
             account: Optional[Callable] = None, on_result: Optional[Callable] = None):
        """Wrapper of ``fn`` recording a span named ``name`` per call.

        ``member(args, kwargs)`` names the sweep member a call starts,
        ``account(args, kwargs)`` adds to counters, ``on_result(value)``
        inspects the return value.
        """
        nid = len(self.names)
        self.names.append(name)
        name_of, parent, member_of = self.name_of, self.parent, self.member_of
        start, end, stack = self.start, self.end, self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            outer = self.member
            if member is not None:
                self.members.append(member(args, kwargs))
                self.member = len(self.members) - 1
            if account is not None:
                account(args, kwargs)
            i = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            member_of.append(self.member)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                value = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
                self.member = outer
            if on_result is not None:
                on_result(value)
            return value

        return wrapper

    def _account_fft(self, inverse: bool):
        def account(args, kwargs):
            a = args[0]
            axis = kwargs.get("axis", -1)
            length = a.shape[axis]
            n = kwargs.get("n", args[1] if len(args) > 1 else None)
            if n is None:
                n = 2 * (length - 1) if inverse else length
            batch = a.size // length if length else 0
            out_bytes = n * 8 * batch if inverse else (n // 2 + 1) * 16 * batch
            self.fft_bytes += a.nbytes + out_bytes
            self.fft_flops += 2.5 * n * math.log2(max(n, 2)) * batch
        return account

    def _keep_state_bytes(self, result) -> None:
        held = sum(
            s.omega.values.nbytes + (s.theta.values.nbytes if s.theta is not None else 0)
            for s in result.states
        )
        self.retained_state_bytes = max(self.retained_state_bytes, held)


def _rebind(original, replacement) -> None:
    for name, module in list(sys.modules.items()):
        if name != "jetlab" and not name.startswith("jetlab."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap every layer in LAYERS, numpy's real FFTs and the field check."""
    import jetlab.cli  # noqa: F401  (so its imported names are rebound too)

    for span, module_name, attr in LAYERS:
        original = getattr(importlib.import_module(module_name), attr)
        kwargs = {}
        if span == "runner.run_experiment":
            kwargs["member"] = lambda a, k: f"{tracer.workload}/{a[0].raw['model']['name']}"
        if span == "evolve.run":
            kwargs["on_result"] = tracer._keep_state_bytes
        _rebind(original, tracer.wrap(span, original, **kwargs))
    np.fft.rfft = tracer.wrap(FFT_NAMES[0], np.fft.rfft, account=tracer._account_fft(False))
    np.fft.irfft = tracer.wrap(FFT_NAMES[1], np.fft.irfft, account=tracer._account_fft(True))
    field = jetlab.grid.PeriodicField
    field.__post_init__ = tracer.wrap(FIELD_CHECK, field.__post_init__)


def _ancestor_flags(parent: np.ndarray, is_target: np.ndarray) -> np.ndarray:
    """True where some ancestor span (not the span itself) is a target."""
    flags = np.zeros(parent.size, dtype=bool)
    has_parent = parent >= 0
    p = parent[has_parent]
    while True:
        new = np.zeros_like(flags)
        new[has_parent] = is_target[p] | flags[p]
        if np.array_equal(new, flags):
            return flags
        flags = new


def aggregate(tracer: Tracer) -> Dict[str, object]:
    """Per-name counts, inclusive and self times, and the derived layer metrics."""
    names = np.frombuffer(tracer.name_of, dtype=np.int32)
    parent = np.frombuffer(tracer.parent, dtype=np.int32)
    member_of = np.frombuffer(tracer.member_of, dtype=np.int32)
    dur = np.frombuffer(tracer.end) - np.frombuffer(tracer.start)
    covered = np.zeros(dur.size)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], dur[has_parent])
    self_t = np.maximum(dur - covered, 0.0)
    k = len(tracer.names)
    count = np.bincount(names, minlength=k)
    incl = np.bincount(names, weights=dur, minlength=k)
    excl = np.bincount(names, weights=self_t, minlength=k)
    idx = {name: i for i, name in enumerate(tracer.names)}

    def c(name):
        return int(count[idx[name]])

    def s(name):
        return float(incl[idx[name]])

    def own(name):
        return float(excl[idx[name]])

    fft_mask = np.isin(names, [idx[n] for n in FFT_NAMES])
    rhs_mask = names == idx["models.rhs"]
    in_rhs = _ancestor_flags(parent, rhs_mask)
    steps = c("evolve.step_rk4")
    step_us = dur[names == idx["evolve.step_rk4"]] * 1e6
    bs = np.flatnonzero(names == idx["models.biot_savart"])
    solves = c("strip.solve_elliptic")
    banded = c("strip.solve_banded")
    fft_calls = int(fft_mask.sum())
    rhs_calls = c("models.rhs")
    metrics = {
        "spectral.fft.calls": fft_calls,
        "spectral.fft.calls_per_rhs": float((fft_mask & in_rhs).sum() / rhs_calls) if rhs_calls else 0.0,
        "spectral.fft.s": float(dur[fft_mask].sum()),
        "spectral.fft.bytes_computed": tracer.fft_bytes,
        "spectral.fft.flops_computed": tracer.fft_flops,
        "spectral.spectral_derivative.calls": c("spectral.spectral_derivative"),
        "spectral.hilbert_transform.calls": c("spectral.hilbert_transform"),
        "spectral.antiderivative_zero_mean.calls": c("spectral.antiderivative_zero_mean"),
        "grid.field_checks": c(FIELD_CHECK),
        "grid.field_checks_per_step": c(FIELD_CHECK) / steps if steps else 0.0,
        "grid.field_checks.s": s(FIELD_CHECK),
        "evolve.step_rk4.self_s": own("evolve.step_rk4"),
        "evolve.steps": steps,
        "evolve.step_rk4.us.p50": float(np.percentile(step_us, 50)) if steps else 0.0,
        "evolve.step_rk4.us.p99": float(np.percentile(step_us, 99)) if steps else 0.0,
        "evolve.run.self_s": own("evolve.run"),
        "models.rhs.calls": rhs_calls,
        "models.rhs.s": s("models.rhs"),
        "models.biot_savart.calls_per_step": bs.size / steps if steps else 0.0,
        "models.biot_savart.s": s("models.biot_savart"),
        "models.biot_savart.first_call_ms": float(dur[bs[0]] * 1e3) if bs.size else 0.0,
        "diagnostics.compute_record.calls": c("diagnostics.compute_record"),
        "diagnostics.compute_record.s": s("diagnostics.compute_record"),
        "diagnostics.fill_margin_fields.s": s("diagnostics.fill_margin_fields"),
        "diagnostics.riccati_audit.s": s("diagnostics.riccati_audit"),
        "runner.theorem_audit.s": s("runner.theorem_audit"),
        "runner.emit_outputs.s": s("runner.emit_outputs"),
        "diagnostics.retained_state_bytes": tracer.retained_state_bytes,
        "strip.solve_elliptic.s": s("strip.solve_elliptic"),
        "strip.solve_elliptic.banded_solves": banded / solves if solves else 0.0,
        "strip.solve_elliptic.us_per_mode": s("strip.solve_elliptic") / banded * 1e6 if banded else 0.0,
        "strip.elliptic_residual.s": s("strip.elliptic_residual"),
        "strip.extract_jets.s": s("strip.extract_jets"),
        "strip.manufactured_case.s": s("strip.manufactured_case"),
        "config.parse_config.ms": s("config.parse_config") * 1e3,
    }
    layers = {
        name: {"calls": int(count[i]), "s": float(incl[i]), "self_s": float(excl[i])}
        for i, name in enumerate(tracer.names)
    }
    members = []
    for m in range(1, len(tracer.members)):
        mine = member_of == m
        m_steps = int((mine & (names == idx["evolve.step_rk4"])).sum())
        m_rhs = int((mine & rhs_mask).sum())
        members.append({
            "member": tracer.members[m],
            "steps": m_steps,
            "rhs_calls": m_rhs,
            "fft_calls_per_rhs": float((mine & fft_mask & in_rhs).sum() / m_rhs) if m_rhs else 0.0,
            "biot_savart_calls_per_step": float((mine & (names == idx["models.biot_savart"])).sum() / m_steps)
            if m_steps else 0.0,
            "run_experiment_s": float(dur[mine & (names == idx["runner.run_experiment"])].sum()),
        })
    return {"metrics": metrics, "layers": layers, "members": members, "spans": int(dur.size)}


def save_spans(tracer: Tracer, path) -> None:
    """Write every span: name, start, end, parent span index, workload id."""
    np.savez_compressed(
        path,
        names=np.array(tracer.names),
        workload_ids=np.array(tracer.members),
        name=np.frombuffer(tracer.name_of, dtype=np.int32),
        start=np.frombuffer(tracer.start),
        end=np.frombuffer(tracer.end),
        parent=np.frombuffer(tracer.parent, dtype=np.int32),
        workload_id=np.frombuffer(tracer.member_of, dtype=np.int32),
    )
