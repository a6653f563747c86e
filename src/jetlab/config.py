"""JSON experiment configuration: schema, defaults, validation.

The configuration document is plain JSON (see README for the schema).
Validation failures raise :class:`ConfigError` carrying the dotted path of
the offending field.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .evolve import StepperConfig
from .grid import PeriodicGrid, reflect_values
from .initial_data import build_field
from .models import HALF_LINE, LOCAL, MODEL_TABLE, EvolutionState, ModelSpec

DEFAULTS = {"n": 1024, "L": 2.0, "t_end": 10.0}  # the other defaults are StepperConfig's

THEOREM_TAG = "theorem-hypotheses"
_SYMMETRY_TOL = 1e-12

_KIND_BY_NAME = {kind.replace("_", ""): kind for kind in MODEL_TABLE}


class ConfigError(ValueError):
    """Configuration problem located at a dotted field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


@dataclass(frozen=True)
class ExperimentConfig:
    model: ModelSpec
    grid: PeriodicGrid
    omega0_spec: dict
    theta0_spec: Optional[dict]
    stepper: StepperConfig
    output_dir: str
    snapshot_times: tuple
    tags: tuple
    initial: EvolutionState = field(repr=False, compare=False)
    raw: dict = field(repr=False, default_factory=dict)

    @property
    def theorem_tagged(self) -> bool:
        return THEOREM_TAG in self.tags

    def initial_state(self) -> EvolutionState:
        return self.initial


def _check_theorem_symmetries(omega0, theta0) -> None:
    odd = np.max(np.abs(omega0.values + reflect_values(omega0.values)))
    if odd > _SYMMETRY_TOL * max(omega0.sup_norm, 1e-300):
        raise ConfigError("initial_data.omega", "omega0 must be odd about 0 and L/2")
    if theta0 is None:
        raise ConfigError("initial_data.theta", "theorem runs need a theta field")
    even = np.max(np.abs(theta0.values - reflect_values(theta0.values)))
    if even > _SYMMETRY_TOL * max(theta0.sup_norm, 1.0):
        raise ConfigError("initial_data.theta", "theta0 must be even about 0 and L/2")


def _number(section: dict, key: str, default, path: str, whole: bool = False):
    """``section[key]`` (else ``default``) as a finite float, or an int if ``whole``."""
    raw = section.get(key, default)
    try:
        value = float(raw)
    except (TypeError, ValueError, OverflowError):
        value = math.nan
    if not math.isfinite(value) or (whole and not value.is_integer()):
        kind = "whole number" if whole else "finite number"
        raise ConfigError(path, f"expected a {kind}, got {raw!r}")
    return int(value) if whole else value


def _shaped(section: dict, key: str, kind: type, path: str):
    """``section[key]`` (else an empty ``kind``), required to be a JSON object or list."""
    value = section.get(key, kind())
    if not isinstance(value, kind):
        expected = "an object" if kind is dict else "a list"
        raise ConfigError(path, f"expected {expected}, got {value!r}")
    return value


def _field(grid: PeriodicGrid, spec, path: str):
    try:
        return build_field(grid, spec)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(path, f"cannot build {spec!r}: {exc!r}") from None


def _parse_model(doc: dict) -> ModelSpec:
    section = doc.get("model")
    if not isinstance(section, dict) or "name" not in section:
        raise ConfigError("model.name", "a model name is required")
    kind = _KIND_BY_NAME.get(str(section["name"]).lower().replace("_", "").replace("-", ""))
    if kind is None:
        raise ConfigError("model.name", f"unknown model name {section['name']!r}")
    row = MODEL_TABLE[kind]
    params = {}
    if row.transport is None:
        params["a_ok"] = _number(section, "a_ok", 1.0, "model.a_ok")
    if row.law == HALF_LINE:
        params["truncation_X"] = _number(section, "X", None, "model.X")
    if row.law == LOCAL and "c" in section:
        params["c"] = _number(section, "c", None, "model.c")
    elif row.law == LOCAL:
        m = _number(section, "m", 1, "model.m", whole=True)
        a_jet = _number(section, "a", 0.0, "model.a")
        try:
            return ModelSpec.q0_from_closure(m, a_jet)
        except ValueError as exc:
            raise ConfigError("model.a", str(exc)) from None
    try:
        return ModelSpec(kind, **params)
    except ValueError as exc:
        raise ConfigError("model", str(exc)) from None


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a JSON experiment document, filling defaults."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("<document>", f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError("<document>", "top level must be an object")

    model = _parse_model(doc)

    grid_doc = _shaped(doc, "grid", dict, "grid")
    n = _number(grid_doc, "n", DEFAULTS["n"], "grid.n", whole=True)
    L = _number(grid_doc, "L", DEFAULTS["L"], "grid.L")
    try:
        grid = PeriodicGrid(n, L)
    except ValueError as exc:
        path = "grid.L" if str(exc).startswith("period_L") else "grid.n"
        raise ConfigError(path, str(exc)) from None
    try:
        model.check_grid(grid)
    except ValueError as exc:
        raise ConfigError("model.X", str(exc)) from None

    init_doc = _shaped(doc, "initial_data", dict, "initial_data")
    omega0_spec = init_doc.get("omega", {"name": "sin_fundamental"})
    theta0_spec = init_doc.get("theta") if model.has_theta else None
    if model.has_theta and theta0_spec is None:
        theta0_spec = {"name": "zero"}
    omega0 = _field(grid, omega0_spec, "initial_data.omega")
    theta0 = None if theta0_spec is None else _field(grid, theta0_spec, "initial_data.theta")

    step_doc = _shaped(doc, "stepper", dict, "stepper")
    dealias = step_doc.get("dealias", False)
    if not isinstance(dealias, bool):
        raise ConfigError("stepper.dealias", f"expected true or false, got {dealias!r}")
    args = {"t_end": DEFAULTS["t_end"], "dealias": dealias}
    for key in ("t_end", "cfl", "dt_min", "dt_max", "omega_sup_cap", "record_every"):
        if key in step_doc:
            args[key] = _number(step_doc, key, None, f"stepper.{key}", whole=key == "record_every")
    try:
        stepper = StepperConfig(**args)
    except ValueError as exc:
        raise ConfigError("stepper", str(exc)) from None

    out_doc = _shaped(doc, "outputs", dict, "outputs")
    output_dir = str(out_doc.get("directory", "out"))
    entries = dict(enumerate(_shaped(out_doc, "snapshot_times", list, "outputs.snapshot_times")))
    snapshot_times = tuple(_number(entries, i, None, "outputs.snapshot_times") for i in entries)

    tags = tuple(str(t) for t in _shaped(doc, "tags", list, "tags"))
    if THEOREM_TAG in tags:
        if stepper.dealias:
            # the 2/3 filter zeroes the modes resolved_until measures
            raise ConfigError("stepper.dealias", "theorem runs must not dealias")
        _check_theorem_symmetries(omega0, theta0)

    return ExperimentConfig(
        model=model,
        grid=grid,
        omega0_spec=omega0_spec,
        theta0_spec=theta0_spec,
        stepper=stepper,
        output_dir=output_dir,
        snapshot_times=snapshot_times,
        tags=tags,
        initial=EvolutionState(omega0, theta0, 0.0),
        raw=doc,
    )
