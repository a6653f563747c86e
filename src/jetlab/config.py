"""JSON experiment configuration: schema, defaults, validation.

The configuration document is plain JSON (see README for the schema).
Validation failures raise :class:`preflight.ConfigError` carrying the dotted
path of the offending field.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import evolve
from .coefficients import closure_coefficient, stream_coefficient
from .evolve import StepperConfig
from .grid import PeriodicField, PeriodicGrid, reflection_defect
from .models import HALF_LINE, LOCAL, MODEL_TABLE, EvolutionState, ModelSpec
from .preflight import ConfigError

DEFAULTS = {"n": 1024, "L": 2.0, "t_end": 10.0}  # the other defaults are StepperConfig's

THEOREM_TAG = "theorem-hypotheses"

# Far deeper than any experiment; shallow enough for the JSON round trips of a sweep
# member's copy (cli._expand_grid) and of run.json.
_MAX_DEPTH = 100

_SYMMETRY_TOL = 1e-12

_KIND_BY_NAME = {kind.replace("_", ""): kind for kind in MODEL_TABLE}


@dataclass(frozen=True)
class ExperimentConfig:
    model: ModelSpec
    grid: PeriodicGrid
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
    odd = np.max(reflection_defect(omega0.values, np.add))
    if odd > _SYMMETRY_TOL * max(omega0.sup_norm, 1e-300):
        raise ConfigError("initial_data.omega", "omega0 must be odd about 0 and L/2")
    if theta0 is None:
        raise ConfigError("initial_data.theta", "theorem runs need a theta field")
    even = np.max(reflection_defect(theta0.values, np.subtract))
    if even > _SYMMETRY_TOL * max(theta0.sup_norm, 1.0):
        raise ConfigError("initial_data.theta", "theta0 must be even about 0 and L/2")


def _checked(path: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``, with a ValueError it raises turned into a
    ConfigError at ``path``."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from None


def _number(section: dict, key: str, default, path: str, whole: bool = False):
    """``section[key]`` (else ``default``) as a finite float, or an int if ``whole``.
    Only JSON numbers qualify: a boolean or a numeric string is rejected."""
    raw = section.get(key, default)
    try:
        value = float(raw) if type(raw) in (int, float) else math.nan
    except OverflowError:
        value = math.nan
    if not math.isfinite(value) or (whole and not value.is_integer()):
        kind = "whole number" if whole else "finite number"
        raise ConfigError(path, f"expected a {kind}, got {raw!r}")
    return int(value) if whole else value


def _reject_non_finite(node, path: str = "") -> None:
    """A ConfigError at the first NaN or infinity left in ``node``: a key that no
    parser reads still reaches run.json, which must stay strict JSON."""
    if isinstance(node, float) and not math.isfinite(node):
        raise ConfigError(path, f"expected a finite number, got {node!r}")
    if isinstance(node, dict):
        for key, value in node.items():
            _reject_non_finite(value, f"{path}.{key}" if path else key)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            _reject_non_finite(value, f"{path}[{i}]")


def _shaped(section: dict, key: str, kind: type, path: str, default=None):
    """``section[key]`` (else ``default``, else an empty ``kind``), required to
    be a JSON object, list or string."""
    value = section.get(key, kind() if default is None else default)
    if not isinstance(value, kind):
        expected = {dict: "an object", list: "a list", str: "a string"}[kind]
        raise ConfigError(path, f"expected {expected}, got {value!r}")
    return value


def _phase(grid: PeriodicGrid, k: int, lowest: int) -> np.ndarray:
    """2 pi k x / L at the nodes, for a mode ``lowest <= k < n/2``."""
    if not lowest <= k < grid.n_points // 2:
        raise ValueError(f"mode k must satisfy {lowest} <= k < n/2")
    return 2.0 * np.pi * k * grid.nodes / grid.period_L


def _custom_fourier(grid: PeriodicGrid, spec: dict) -> np.ndarray:
    """Sum of a_k sin(2 pi k x / L) + b_k cos(2 pi k x / L) over [k, a_k, b_k] rows."""
    values = np.zeros(grid.n_points)
    for k, a, b in spec["terms"]:
        phase = _phase(grid, k, 0)
        values += a * np.sin(phase) + b * np.cos(phase)
    return values


# The initial-data generators: a field's values from the grid and a spec whose numbers
# _field has read.  sin_fundamental and sin_k with k = 1 round differently.
GENERATORS = {
    "sin_fundamental": lambda grid, spec: spec.get("amplitude", 1.0)
    * np.sin(2.0 * np.pi / grid.period_L * grid.nodes),
    "sin_k": lambda grid, spec: spec.get("amplitude", 1.0) * np.sin(_phase(grid, spec["k"], 1)),
    "zero": lambda grid, spec: np.zeros(grid.n_points),
    "custom_fourier": _custom_fourier,
}


def build_field(grid: PeriodicGrid, spec: dict) -> PeriodicField:
    """Build a field from a generator description {"name": ..., params}."""
    name = spec.get("name")
    if not isinstance(name, str) or name not in GENERATORS:  # a list or object name is unknown
        raise ValueError(f"unknown initial-data generator {name!r}")
    return PeriodicField(grid, GENERATORS[name](grid, spec))


def _field(grid: PeriodicGrid, spec, path: str):
    """Build an initial field; its numbers are read through ``_number``, with the
    mode numbers (``k`` and each custom_fourier row's first entry) whole."""
    if isinstance(spec, dict):
        spec = dict(spec)
        for key in ("amplitude", "k"):
            if key in spec:
                spec[key] = _number(spec, key, None, f"{path}.{key}", whole=key == "k")
        if "terms" in spec:
            rows = _shaped(spec, "terms", list, f"{path}.terms")
            spec["terms"] = [_fourier_row(row, f"{path}.terms[{i}]") for i, row in enumerate(rows)]
    try:
        return build_field(grid, spec)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(path, f"cannot build {spec!r}: {exc!r}") from None


def _fourier_row(row, path: str) -> list:
    if not isinstance(row, list) or len(row) != 3:
        raise ConfigError(path, f"expected [k, sin_coeff, cos_coeff], got {row!r}")
    entries = dict(enumerate(row))
    return [_number(entries, i, None, f"{path}[{i}]", whole=i == 0) for i in range(3)]


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
        _checked("model.m", stream_coefficient, m)
        params["c"] = _checked("model.a", closure_coefficient, m, a_jet)
    return _checked("model", ModelSpec, kind, **params)


def read_document(data: str | bytes, name: str) -> dict:
    """The JSON object in ``data`` (UTF-8 when bytes); a ConfigError at ``name``
    when it cannot be decoded or parsed, is not an object, or nests too deeply."""
    try:
        doc = json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    except (ValueError, RecursionError) as exc:  # undecodable, not JSON, digit limit, depth
        raise ConfigError(name, f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(name, "top level must be an object")
    level = [doc]
    for _ in range(_MAX_DEPTH):
        level = [v for node in level for v in (node.values() if isinstance(node, dict) else node)
                 if isinstance(v, (dict, list))]
    if level:
        raise ConfigError(name, f"nested more than {_MAX_DEPTH} levels deep")
    return doc


def parse_config(text: str | bytes) -> ExperimentConfig:
    """Parse and validate a JSON experiment document, filling defaults."""
    doc = read_document(text, "<document>")
    model = _parse_model(doc)

    grid_doc = _shaped(doc, "grid", dict, "grid")
    n = _number(grid_doc, "n", DEFAULTS["n"], "grid.n", whole=True)
    L = _number(grid_doc, "L", DEFAULTS["L"], "grid.L")
    try:
        grid = PeriodicGrid(n, L)
    except ValueError as exc:
        path = "grid.L" if str(exc).startswith("period_L") else "grid.n"
        raise ConfigError(path, str(exc)) from None
    _checked("model.X", model.check_grid, grid)

    init_doc = _shaped(doc, "initial_data", dict, "initial_data")
    omega0 = _field(grid, init_doc.get("omega", {"name": "sin_fundamental"}), "initial_data.omega")
    theta0_spec = {"name": "zero"} if init_doc.get("theta") is None else init_doc["theta"]
    theta0 = _field(grid, theta0_spec, "initial_data.theta") if model.has_theta else None

    step_doc = _shaped(doc, "stepper", dict, "stepper")
    dealias = step_doc.get("dealias", False)
    if not isinstance(dealias, bool):
        raise ConfigError("stepper.dealias", f"expected true or false, got {dealias!r}")
    args = {"t_end": DEFAULTS["t_end"], "dealias": dealias}
    for key in ("t_end", "cfl", "dt_min", "dt_max", "omega_sup_cap", "record_every"):
        if key in step_doc:
            args[key] = _number(step_doc, key, None, f"stepper.{key}", whole=key == "record_every")
    stepper = _checked("stepper", StepperConfig, **args)
    # dt never exceeds dt_max, so t_end / dt_max is a lower bound on the step count
    if stepper.t_end / stepper.dt_max > evolve.STEP_BUDGET:
        raise ConfigError(
            "stepper.t_end",
            f"needs at least t_end / dt_max = {stepper.t_end / stepper.dt_max:.3g} steps,"
            f" over the step budget of {evolve.STEP_BUDGET}",
        )

    out_doc = _shaped(doc, "outputs", dict, "outputs")
    output_dir = _shaped(out_doc, "directory", str, "outputs.directory", "out")
    entries = dict(enumerate(_shaped(out_doc, "snapshot_times", list, "outputs.snapshot_times")))
    snapshot_times = tuple(_number(entries, i, None, f"outputs.snapshot_times[{i}]") for i in entries)

    tags = tuple(str(t) for t in _shaped(doc, "tags", list, "tags"))
    if THEOREM_TAG in tags:
        if stepper.dealias:
            # the 2/3 filter zeroes the modes resolved_until measures
            raise ConfigError("stepper.dealias", "theorem runs must not dealias")
        _check_theorem_symmetries(omega0, theta0)
    _reject_non_finite(doc)  # after the parsers, whose messages name the keys they read

    return ExperimentConfig(
        model=model,
        grid=grid,
        stepper=stepper,
        output_dir=output_dir,
        snapshot_times=snapshot_times,
        tags=tags,
        initial=EvolutionState(omega0, theta0, 0.0),
        raw=doc,
    )
