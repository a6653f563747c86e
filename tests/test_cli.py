import json
import math
import os
import select
import signal
import sys

import numpy as np
import pytest

from jetlab import ConfigError, parse_config, rhs
from jetlab.cli import _memory_available, _worker_count, main
from jetlab.config import GENERATORS, build_field
from jetlab.grid import PeriodicGrid
from jetlab.models import ModelSpec
from jetlab.runner import run_experiment
from jetlab.spectral import half_period_integrals

from conftest import sin_state


def minimal_q0(tmp_path, **overrides):
    doc = {
        "model": {"name": "Q0", "m": 1, "a": 0.0},
        "grid": {"n": 128, "L": 2.0},
        "initial_data": {
            "omega": {"name": "sin_fundamental"},
            "theta": {"name": "zero"},
        },
        "stepper": {"t_end": 0.3, "record_every": 5},
        "outputs": {"directory": str(tmp_path / "out")},
    }
    for key, value in overrides.items():
        doc[key] = value
    return doc


class TestParseConfig:
    def test_minimal_document_defaults(self):
        config = parse_config(json.dumps({"model": {"name": "Q0", "m": 1, "a": 0.0}}))
        assert config.model.kind == "q0"
        assert config.model.c == pytest.approx(1.0 / 3.0, abs=0)
        assert config.grid.n_points == 1024
        assert config.grid.period_L == 2.0
        assert config.stepper.cfl == 0.4
        assert config.stepper.omega_sup_cap == 1e6
        assert config.stepper.record_every == 10
        assert config.stepper.dealias is False

    def test_positivity_violation_with_path(self):
        with pytest.raises(ConfigError, match="positivity condition violated") as err:
            parse_config(json.dumps({"model": {"name": "Q0", "m": 1, "a": -2.0}}))
        assert err.value.path == "model.a"

    def test_closure_weight_violation_with_path(self):
        with pytest.raises(ConfigError, match="m must be 1 or 2") as err:
            parse_config(json.dumps({"model": {"name": "Q0", "m": 3}}))
        assert err.value.path == "model.m"

    def test_okamoto_zero_weight_matches_clm(self):
        config = parse_config(
            json.dumps(
                {
                    "model": {"name": "Okamoto", "a_ok": 0.0},
                    "grid": {"n": 128, "L": 2.0},
                }
            )
        )
        state = sin_state(128)
        from jetlab.models import EvolutionState

        no_theta = EvolutionState(state.omega, None, 0.0)
        r_config = rhs(config.model, no_theta)
        r_clm = rhs(ModelSpec("clm"), no_theta)
        assert np.max(np.abs(r_config[0] - r_clm[0])) == 0.0

    def test_unknown_model(self):
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps({"model": {"name": "navier"}}))
        assert err.value.path == "model.name"

    @pytest.mark.parametrize(
        "grid,path",
        [
            ({"n": -4}, "grid.n"),
            ({"n": 15}, "grid.n"),
            ({"L": 0.0}, "grid.L"),
            ({"n": 4}, "grid.n"),
            ({"L": 1e-320}, "grid.L"),  # 2*pi*n/L is inf
        ],
    )
    def test_bad_grid(self, grid, path):
        doc = {"model": {"name": "CLM"}, "grid": grid}
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(doc))
        assert err.value.path == path

    def test_theorem_tag_validates_symmetry(self):
        doc = {
            "model": {"name": "Q0", "m": 1, "a": 0.0},
            "grid": {"n": 128, "L": 2.0},
            "initial_data": {
                "omega": {"name": "custom_fourier", "terms": [[1, 0.0, 1.0]]},
                "theta": {"name": "zero"},
            },
            "tags": ["theorem-hypotheses"],
        }
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(doc))
        assert err.value.path == "initial_data.omega"

    def test_not_json(self):
        with pytest.raises(ConfigError):
            parse_config("model: Q0")

    def test_theta_free_model_drops_theta(self):
        config = parse_config(json.dumps({"model": {"name": "CCF"}}))
        assert config.initial_state().theta is None

    def test_cky_requires_bound(self):
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps({"model": {"name": "CKY"}}))
        assert err.value.path == "model.X"

    def test_cky_bound_checked_against_grid(self):
        doc = {"model": {"name": "CKY", "X": 1.0}, "grid": {"n": 64, "L": 4.0}}
        assert parse_config(json.dumps(doc)).model.truncation_X == 1.0
        doc["model"]["X"] = 1.0001
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(doc))
        assert err.value.path == "model.X"


class TestGenerators:
    def test_named_generators(self):
        grid = PeriodicGrid(64, 2.0)
        x = grid.nodes
        f = build_field(grid, {"name": "sin_fundamental"})
        assert np.max(np.abs(f.values - np.sin(np.pi * x))) <= 1e-15
        f2 = build_field(grid, {"name": "sin_k", "k": 3, "amplitude": 0.5})
        assert np.max(np.abs(f2.values - 0.5 * np.sin(3 * np.pi * x))) <= 1e-15
        f3 = build_field(grid, {"name": "zero"})
        assert np.max(np.abs(f3.values)) == 0.0
        f4 = build_field(
            grid, {"name": "custom_fourier", "terms": [[1, 1.0, 0.0], [2, 0.0, 0.3]]}
        )
        expected = np.sin(np.pi * x) + 0.3 * np.cos(2 * np.pi * x)
        assert np.max(np.abs(f4.values - expected)) <= 1e-14
        with pytest.raises(ValueError):
            build_field(grid, {"name": "white_noise"})

    # n = 66 puts an odd number of cells in the half period; at L = 3,
    # sin_fundamental and sin_k with k = 1 round differently
    @pytest.mark.parametrize("n", [64, 66])
    def test_generators_keep_their_formulas(self, n):
        grid = PeriodicGrid(n, 3.0)
        x, L = grid.nodes, grid.period_L
        terms = [[0, 0.5, 0.25], [1, 1.0, 0.0], [3, -0.7, 0.3]]
        k1 = 2.0 * np.pi / L
        fourier = np.zeros(n)
        for k, a, b in terms:
            phase = 2.0 * np.pi * k * x / L
            fourier += a * np.sin(phase) + b * np.cos(phase)
        cases = [
            ({"name": "sin_fundamental"}, 1.0 * np.sin(k1 * x)),
            ({"name": "sin_fundamental", "amplitude": 0.75}, 0.75 * np.sin(k1 * x)),
            ({"name": "sin_k", "k": 1}, 1.0 * np.sin(2.0 * np.pi * 1 * x / L)),
            ({"name": "sin_k", "k": 3, "amplitude": 0.5}, 0.5 * np.sin(2.0 * np.pi * 3 * x / L)),
            ({"name": "zero"}, np.zeros(n)),
            ({"name": "custom_fourier", "terms": terms}, fourier),
        ]
        assert {spec["name"] for spec, _ in cases} == set(GENERATORS)
        for spec, expected in cases:
            assert build_field(grid, spec).values.tobytes() == expected.tobytes(), spec
        assert not np.array_equal(cases[0][1], cases[2][1])


class TestRunModel:
    def test_zero_data_outputs(self, tmp_path):
        doc = minimal_q0(tmp_path)
        doc["initial_data"]["omega"] = {"name": "zero"}
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(doc))
        assert main(["run-model", str(config_path)]) == 0
        csv_lines = (tmp_path / "out" / "diagnostics.csv").read_text().splitlines()
        header = csv_lines[0].split(",")
        for line in csv_lines[1:]:
            row = dict(zip(header, (float(v) for v in line.split(","))))
            assert row["E"] == 0.0 and row["F"] == 0.0 and row["G"] == 0.0
            assert row["sup_omega"] == 0.0
        summary = json.loads((tmp_path / "out" / "run.json").read_text())
        assert summary["termination"] == "reached_t_end"

    def test_config_error_exit_code(self, tmp_path):
        config_path = tmp_path / "bad.json"
        config_path.write_text(json.dumps({"model": {"name": "Q0", "m": 1, "a": -2}}))
        assert main(["run-model", str(config_path)]) == 1

    def test_missing_file_exit_code(self, tmp_path):
        assert main(["run-model", str(tmp_path / "nope.json")]) == 1

    def test_determinism_byte_identical(self, tmp_path):
        blobs = []
        for tag in ("a", "b"):
            doc = minimal_q0(tmp_path)
            doc["outputs"]["directory"] = str(tmp_path / tag)
            config_path = tmp_path / f"config_{tag}.json"
            config_path.write_text(json.dumps(doc))
            assert main(["run-model", str(config_path)]) == 0
            blobs.append((tmp_path / tag / "diagnostics.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_theorem_run_bound_matches_recomputation(self, tmp_path):
        doc = minimal_q0(tmp_path)
        doc["grid"] = {"n": 256, "L": 2.0}
        doc["stepper"] = {"t_end": 0.2, "record_every": 2}
        doc["tags"] = ["theorem-hypotheses"]
        config = parse_config(json.dumps(doc))
        summary = run_experiment(config)
        audits = summary["audits"]
        omega0 = config.initial_state().omega
        expected = 2.0 / (config.model.c * half_period_integrals(omega0)[0])
        assert audits["bound_L_over_F0"] == pytest.approx(expected, rel=1e-12)
        # t_end is below the bound, so the blow-up claim is not yet testable
        assert "blowup_bound_holds" not in audits
        assert not summary["failed_audits"]

    def test_snapshots_written(self, tmp_path):
        doc = minimal_q0(tmp_path)
        doc["outputs"]["snapshot_times"] = [0.0, 0.15]
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(doc))
        assert main(["run-model", str(config_path)]) == 0
        snap = (tmp_path / "out" / "snapshot_001.csv").read_text().splitlines()
        assert snap[1] == "x,omega,theta,u"
        assert len(snap) == 128 + 2


class TestConfigFailures:
    """Bad input ends in exit 1 and one config-error line naming the field."""

    def _run(self, tmp_path, capsys, doc):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(doc))
        code = main(["run-model", str(config_path)])
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("config error: ")
        assert not (tmp_path / "out").exists()
        return code, err

    @pytest.mark.parametrize(
        "key,value",
        [("t_end", float("nan")), ("t_end", float("inf")), ("omega_sup_cap", float("nan"))],
    )
    def test_non_finite_stepper_time(self, tmp_path, capsys, key, value):
        # De Gregorio's cos steady state never reaches the sup cap
        doc = minimal_q0(tmp_path, model={"name": "DeGregorio"})
        doc["initial_data"] = {"omega": {"name": "custom_fourier", "terms": [[1, 0.0, 1.0]]}}
        doc["stepper"][key] = value
        code, err = self._run(tmp_path, capsys, doc)
        assert code == 1 and f"stepper.{key}:" in err

    @pytest.mark.parametrize(
        "omega,stepper,path",
        [
            ({"name": "sin_k", "k": 2.7}, {}, "initial_data.omega.k"),
            ({"name": "sin_k", "k": True}, {}, "initial_data.omega.k"),
            ({"name": "sin_k", "k": 2, "amplitude": "2"}, {}, "initial_data.omega.amplitude"),
            (
                {"name": "custom_fourier", "terms": [[1.5, 1, 0]]},
                {},
                "initial_data.omega.terms[0][0]",
            ),
            ({"name": "sin_fundamental"}, {"t_end": True}, "stepper.t_end"),
        ],
        ids=["fractional-k", "boolean-k", "string-amplitude", "fractional-row-k", "boolean-t_end"],
    )
    def test_numbers_are_not_truncated(self, tmp_path, capsys, omega, stepper, path):
        doc = minimal_q0(tmp_path, model={"name": "DeGregorio"}, grid={"n": 64, "L": 2.0})
        doc["initial_data"] = {"omega": omega}
        doc["stepper"].update(stepper)
        code, err = self._run(tmp_path, capsys, doc)
        assert code == 1 and f"config error: {path}:" in err

    def test_step_budget(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("jetlab.evolve.STEP_BUDGET", 100)
        doc = minimal_q0(tmp_path)
        doc["stepper"].update(t_end=1.0, dt_max=0.01)
        assert parse_config(json.dumps(doc)).stepper.t_end == 1.0  # 100 steps fit
        doc["stepper"]["t_end"] = 1.5
        code, err = self._run(tmp_path, capsys, doc)
        assert code == 1 and "config error: stepper.t_end:" in err and "step budget" in err

    def test_step_budget_while_stepping(self, tmp_path, capsys, monkeypatch):
        # t_end / dt_max = 5 steps pass parsing, but |u| = 10/3 holds the CFL
        # step near 0.00375, so reaching t_end would take 14 steps
        monkeypatch.setattr("jetlab.evolve.STEP_BUDGET", 6)
        doc = minimal_q0(tmp_path, grid={"n": 64, "L": 2.0})
        doc["initial_data"]["omega"] = {"name": "sin_k", "k": 1, "amplitude": 10}
        doc["stepper"].update(t_end=0.05, dt_max=0.01)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(doc))
        code = main(["run-model", str(config_path)])
        err = capsys.readouterr().err
        assert code == 2 and err.count("\n") == 1
        assert err.startswith("numerical failure: step budget of 6 steps")

    def test_endless_steady_state_is_rejected_before_stepping(self, tmp_path, capsys, monkeypatch):
        # De Gregorio's cos steady state never reaches the sup cap, so a
        # 1e18-step horizon would run until killed
        def no_stepping(*args):
            raise AssertionError("stepping started")

        monkeypatch.setattr("jetlab.runner.run", no_stepping)
        doc = minimal_q0(tmp_path, model={"name": "DeGregorio"}, grid={"n": 64, "L": 2.0})
        doc["initial_data"] = {"omega": {"name": "custom_fourier", "terms": [[1, 0.0, 1.0]]}}
        doc["stepper"].update(t_end=1e9, dt_max=1e-9)
        code, err = self._run(tmp_path, capsys, doc)
        assert code == 1 and "config error: stepper.t_end:" in err

    def test_unallocatable_grid(self, tmp_path, capsys, monkeypatch):
        # grid.n = 2**40 runs out of memory where the initial data is built;
        # the stand-in raises there without asking for 8 TiB
        def no_memory(grid, spec):
            raise MemoryError(f"Unable to allocate {8 * grid.n_points} bytes")

        monkeypatch.setattr("jetlab.config.build_field", no_memory)
        doc = minimal_q0(tmp_path, grid={"n": 2**40, "L": 2.0})
        code, err = self._run(tmp_path, capsys, doc)
        assert code == 1
        assert err.startswith(f"config error: out of memory: Unable to allocate {2**43} bytes")

    def test_out_of_memory_while_stepping(self, tmp_path, capsys, monkeypatch):
        def no_memory(*args):
            raise MemoryError()

        monkeypatch.setattr("jetlab.runner.run", no_memory)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(minimal_q0(tmp_path)))
        assert main(["run-model", str(config_path)]) == 1
        assert capsys.readouterr().err == "config error: out of memory\n"

    def test_sweep_out_of_memory_while_validating(self, tmp_path, capsys, monkeypatch):
        def no_memory(grid, spec):
            raise MemoryError("Unable to allocate")

        monkeypatch.setattr("jetlab.config.build_field", no_memory)
        template_path = tmp_path / "template.json"
        template_path.write_text(json.dumps(minimal_q0(tmp_path)))
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps({"grid.n": [64, 2**40]}))
        assert main(["sweep", str(template_path), str(grid_path)]) == 1
        assert capsys.readouterr().err == "config error: out of memory: Unable to allocate\n"

    def test_fractional_grid_n(self, tmp_path, capsys):
        doc = minimal_q0(tmp_path, grid={"n": 64.7, "L": 2.0})
        code, err = self._run(tmp_path, capsys, doc)
        assert code == 1 and "grid.n:" in err

    def test_fractional_record_every(self, tmp_path, capsys):
        doc = minimal_q0(tmp_path)
        doc["stepper"]["record_every"] = 2.9
        code, err = self._run(tmp_path, capsys, doc)
        assert code == 1 and "stepper.record_every:" in err

    @pytest.mark.parametrize(
        "field,spec",
        [
            ("omega", {"name": "sin_k"}),
            ("omega", {"name": "white_noise"}),
            ("theta", {"name": "white_noise"}),
        ],
    )
    def test_bad_initial_data_untagged(self, tmp_path, capsys, field, spec):
        doc = minimal_q0(tmp_path)
        doc["initial_data"][field] = spec
        code, err = self._run(tmp_path, capsys, doc)
        assert code == 1 and f"initial_data.{field}:" in err

    @pytest.mark.parametrize(
        "spec,line",
        [
            (
                {"name": "white_noise"},
                "initial_data.omega: cannot build {'name': 'white_noise'}:"
                " ValueError(\"unknown initial-data generator 'white_noise'\")",
            ),
            ({"name": "sin_k"}, "initial_data.omega: cannot build {'name': 'sin_k'}: KeyError('k')"),
            (
                {"name": "sin_k", "k": 2, "amplitude": "2"},
                "initial_data.omega.amplitude: expected a finite number, got '2'",
            ),
            (
                {"name": "sin_k", "k": 32},
                "initial_data.omega: cannot build {'name': 'sin_k', 'k': 32}:"
                " ValueError('mode k must satisfy 1 <= k < n/2')",
            ),
        ],
        ids=["unknown", "missing-k", "string-amplitude", "out-of-range-k"],
    )
    def test_generator_error_lines(self, tmp_path, capsys, spec, line):
        doc = minimal_q0(tmp_path, grid={"n": 64, "L": 2.0})
        doc["initial_data"]["omega"] = spec
        code, err = self._run(tmp_path, capsys, doc)
        assert code == 1 and err == f"config error: {line}\n"

    @pytest.mark.parametrize("value", ["false", 0, None])
    def test_dealias_must_be_boolean(self, tmp_path, capsys, value):
        doc = minimal_q0(tmp_path)
        doc["stepper"]["dealias"] = value
        code, err = self._run(tmp_path, capsys, doc)
        assert code == 1 and "stepper.dealias:" in err

    def test_theorem_run_rejects_dealias(self, tmp_path, capsys):
        # the tail metric behind resolved_until is blind under the 2/3 filter
        doc = minimal_q0(tmp_path, tags=["theorem-hypotheses"])
        doc["stepper"]["dealias"] = True
        code, err = self._run(tmp_path, capsys, doc)
        assert code == 1 and "stepper.dealias:" in err

    def test_output_directory_under_file(self, tmp_path, capsys):
        (tmp_path / "blocker").write_text("not a directory")
        doc = minimal_q0(tmp_path)
        doc["outputs"]["directory"] = str(tmp_path / "blocker" / "out")
        code, err = self._run(tmp_path, capsys, doc)
        assert code == 1 and "blocker" in err

    def test_sweep_output_directory_under_file(self, tmp_path, capsys):
        (tmp_path / "blocker").write_text("not a directory")
        template = minimal_q0(tmp_path)
        template["outputs"]["directory"] = str(tmp_path / "blocker" / "out")
        template_path = tmp_path / "template.json"
        template_path.write_text(json.dumps(template))
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps({"model.a": [0.0, 0.5]}))
        assert main(["sweep", str(template_path), str(grid_path)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("config error: ")

    @pytest.mark.parametrize("directory", [None, 5, []])
    def test_output_directory_must_be_a_string(self, tmp_path, capsys, monkeypatch, directory):
        monkeypatch.chdir(tmp_path)
        doc = minimal_q0(tmp_path)
        doc["outputs"]["directory"] = directory
        code, err = self._run(tmp_path, capsys, doc)
        assert code == 1 and "outputs.directory:" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    def test_sweep_output_directory_must_be_a_string(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        template = minimal_q0(tmp_path)
        template["outputs"]["directory"] = None
        (tmp_path / "template.json").write_text(json.dumps(template))
        (tmp_path / "grid.json").write_text(json.dumps({"model.a": [0.0, 0.5]}))
        assert main(["sweep", "template.json", "grid.json"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("config error: outputs.directory:")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["grid.json", "template.json"]

    @pytest.mark.parametrize("times", [["abc"], 5, [0.1, float("nan")], [float("inf")], "0.5"])
    def test_bad_snapshot_times(self, tmp_path, capsys, times):
        doc = minimal_q0(tmp_path)
        doc["outputs"]["snapshot_times"] = times
        code, err = self._run(tmp_path, capsys, doc)
        if isinstance(times, list):  # the entry is named by its index: here the last
            i = len(times) - 1
            line = f"outputs.snapshot_times[{i}]: expected a finite number, got {times[i]!r}"
            assert code == 1 and err == f"config error: {line}\n"
        else:
            assert code == 1 and "outputs.snapshot_times:" in err

    @pytest.mark.parametrize(
        "path,value,line",
        [
            (("model", "note"), math.nan, "model.note: expected a finite number, got nan"),
            (("model", "a_ok"), math.inf, "model.a_ok: expected a finite number, got inf"),
            (("initial_data", "omega", "phase"), math.nan,
             "initial_data.omega.phase: expected a finite number, got nan"),
            (("outputs", "notes"), [[0.0, -math.inf]],
             "outputs.notes[0][1]: expected a finite number, got -inf"),
            (("tags",), ["x", math.nan], "tags[1]: expected a finite number, got nan"),
            # a key a parser reads keeps that parser's message, which names the entry
            (("outputs", "snapshot_times"), [0.1, math.nan],
             "outputs.snapshot_times[1]: expected a finite number, got nan"),
        ],
        ids=["unread-key", "a_ok-of-q0", "generator-key", "nested-list", "tag", "read-key"],
    )
    def test_non_finite_number_anywhere(self, tmp_path, capsys, path, value, line):
        doc = minimal_q0(tmp_path)
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        code, err = self._run(tmp_path, capsys, doc)
        assert code == 1 and err == f"config error: {line}\n"

    @pytest.mark.parametrize("where", ["template", "grid"])
    def test_sweep_stops_at_a_non_finite_number(self, tmp_path, capsys, monkeypatch, where):
        monkeypatch.setenv("JETLAB_WORKERS", "2")
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        template, axes = minimal_q0(tmp_path), {"model.a": [0.0, 0.5]}
        if where == "template":
            template["model"]["note"] = math.nan
        else:
            axes["model.note"] = [0.0, math.nan]
        (tmp_path / "template.json").write_text(json.dumps(template))
        (tmp_path / "grid.json").write_text(json.dumps(axes))
        assert main(["sweep", str(tmp_path / "template.json"), str(tmp_path / "grid.json")]) == 1
        err = capsys.readouterr().err
        assert err == "config error: model.note: expected a finite number, got nan\n"
        assert not (tmp_path / "out").exists()  # no member ran

    @pytest.mark.parametrize("key", ["grid", "initial_data", "stepper", "outputs", "tags"])
    def test_section_of_the_wrong_shape(self, tmp_path, capsys, key):
        doc = minimal_q0(tmp_path)
        doc[key] = 7
        code, err = self._run(tmp_path, capsys, doc)
        assert code == 1 and f"config error: {key}:" in err

    @pytest.mark.parametrize(
        "template,grid",
        [
            ([], {"model.a": [0.0]}),
            (None, {"model.a": [0.0]}),
            ({"outputs": []}, {"model.a": [0.0]}),
            ("minimal", {"grid.n": 64}),
            ("minimal", {"model.a": "0.5"}),
            ("minimal", [["model.a", 0.0]]),
            ("minimal", {"model.name.x": [1]}),
            ("minimal", {"outputs": [7]}),
            ("minimal", {"model.a": []}),
        ],
        ids=[
            "template-list",
            "template-null",
            "template-outputs-list",
            "grid-value-number",
            "grid-value-string",
            "grid-list",
            "grid-path-through-string",
            "grid-outputs-list",
            "grid-value-empty",
        ],
    )
    def test_sweep_inputs_of_the_wrong_shape(self, tmp_path, capsys, template, grid):
        if template == "minimal":
            template = minimal_q0(tmp_path)
        template_path = tmp_path / "template.json"
        template_path.write_text(json.dumps(template))
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps(grid))
        assert main(["sweep", str(template_path), str(grid_path)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("config error: ")
        assert not (tmp_path / "out").exists()

    def test_oversized_sweep_grid_is_rejected_before_expanding(self, tmp_path, capsys, monkeypatch):
        def expanded(template, axes):
            raise AssertionError("the grid was expanded")

        monkeypatch.setattr("jetlab.cli.SWEEP_BUDGET", 8)
        monkeypatch.setattr("jetlab.cli._expand_grid", expanded)
        template_path = tmp_path / "template.json"
        template_path.write_text(json.dumps(minimal_q0(tmp_path)))
        grid_path = tmp_path / "grid.json"
        grid = {"model.a": [0.0, 0.5, 1.0], "grid.n": [64, 128, 256], "stepper.cfl": [0.1, 0.2, 0.3]}
        grid_path.write_text(json.dumps(grid))
        assert main(["sweep", str(template_path), str(grid_path)]) == 1
        err = capsys.readouterr().err
        assert err == "config error: <grid>: 27 members exceed the sweep budget of 8\n"
        assert not (tmp_path / "out").exists()

    def test_bad_worker_count(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("JETLAB_WORKERS", "abc")
        template_path = tmp_path / "template.json"
        template_path.write_text(json.dumps(minimal_q0(tmp_path)))
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps({"model.a": [0.0, 0.5]}))
        assert main(["sweep", str(template_path), str(grid_path)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "JETLAB_WORKERS" in err

    @pytest.mark.parametrize(
        "env,cores,expected",
        [
            (None, 4, 4), (None, None, 1), ("0", 4, 1), ("3", 4, 3),
            ("10000", 4, 4), ("10000", None, 1),
        ],
    )
    def test_worker_count_is_at_most_the_core_count(self, monkeypatch, env, cores, expected):
        # read directly, so no pool of the requested size is ever started
        if env is None:
            monkeypatch.delenv("JETLAB_WORKERS", raising=False)
        else:
            monkeypatch.setenv("JETLAB_WORKERS", env)
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        assert _worker_count() == expected

    @pytest.mark.parametrize("where", ["<document>", "<template>", "<grid>"])
    def test_document_path_with_a_nul_byte(self, tmp_path, capsys, where):
        template_path = tmp_path / "template.json"
        template_path.write_text(json.dumps(minimal_q0(tmp_path)))
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps({"model.a": [0.0, 0.5]}))
        argv = {
            "<document>": ["run-model", "a\x00b"],
            "<template>": ["sweep", "a\x00b", str(grid_path)],
            "<grid>": ["sweep", str(template_path), "a\x00b"],
        }[where]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"config error: {where}: 'a\\x00b' is not a valid path: embedded null byte\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("where", ["run-model", "template", "grid"])
    @pytest.mark.parametrize(
        "data", [b"\x80{}", b"[" * 100_000], ids=["not-utf8", "nested-too-deeply"]
    )
    def test_undecodable_document(self, tmp_path, capsys, where, data):
        template_path = tmp_path / "template.json"
        template_path.write_text(json.dumps(minimal_q0(tmp_path)))
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps({"model.a": [0.0, 0.5]}))
        bad = tmp_path / "bad.json"
        bad.write_bytes(data)
        argv = {
            "run-model": ["run-model", str(bad)],
            "template": ["sweep", str(bad), str(grid_path)],
            "grid": ["sweep", str(template_path), str(bad)],
        }[where]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("config error: <")
        assert "not valid JSON" in err
        assert not (tmp_path / "out").exists()

    def test_deep_template_is_rejected_before_the_pool(self, tmp_path, capsys, monkeypatch):
        # 500 levels parse, but copying each member out of the template
        # (json.dumps, json.loads) would overflow the recursion limit
        monkeypatch.setenv("JETLAB_WORKERS", "2")
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        notes = "[" * 500 + "]" * 500
        template_path = tmp_path / "template.json"
        template_path.write_text(json.dumps(minimal_q0(tmp_path))[:-1] + f', "notes": {notes}}}')
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps({"model.a": [0.0, 0.5]}))
        assert main(["sweep", str(template_path), str(grid_path)]) == 1
        err = capsys.readouterr().err
        assert err == "config error: <template>: nested more than 100 levels deep\n"
        assert not (tmp_path / "out").exists()


class TestUsage:
    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate"],
            ["jet-verify", "3", "16", "exp"],
            ["jet-verify", "1", "abc", "exp"],
            ["run-model"],
            [],
        ],
        ids=["unknown-command", "bad-m-choice", "non-integer-M", "missing-path", "no-command"],
    )
    def test_usage_error_is_a_config_error(self, capsys, argv):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1 and captured.err.startswith("config error: jetlab")
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [["--help"], ["jet-verify", "--help"]])
    def test_help_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 0
        assert "usage: jetlab" in capsys.readouterr().out


class TestSweep:
    def test_sweep_grid(self, tmp_path, monkeypatch):
        monkeypatch.setenv("JETLAB_WORKERS", "2")
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        template = minimal_q0(tmp_path)
        template["outputs"]["directory"] = str(tmp_path / "sweepout")
        template_path = tmp_path / "template.json"
        template_path.write_text(json.dumps(template))
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps({"model.a": [0.0, 0.5], "grid.n": [64, 128]}))
        assert main(["sweep", str(template_path), str(grid_path)]) == 0
        summary = json.loads((tmp_path / "sweepout" / "sweep_summary.json").read_text())
        assert len(summary) == 4
        for row in summary:
            assert row["termination"] == "reached_t_end"
            assert (tmp_path / "sweepout" / f"sweep_{row['index']:04d}").is_dir()

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_failed_member_keeps_the_others(self, tmp_path, monkeypatch, workers):
        monkeypatch.setenv("JETLAB_WORKERS", workers)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        base = tmp_path / "sweepout"
        base.mkdir()
        (base / "sweep_0001").write_text("a file where member 1 writes")
        template = minimal_q0(tmp_path)
        template["outputs"]["directory"] = str(base)
        template_path = tmp_path / "template.json"
        template_path.write_text(json.dumps(template))
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps({"model.a": [0.0, 0.5, 1.0]}))
        assert main(["sweep", str(template_path), str(grid_path)]) == 1
        rows = json.loads((base / "sweep_summary.json").read_text())
        assert [r["exit_code"] for r in rows] == [0, 1, 0]
        assert [r["status"] for r in rows] == ["ok", "config_error", "ok"]
        assert rows[1]["termination"] is None and rows[1]["t_final"] is None
        for i in (0, 2):
            assert rows[i]["termination"] == "reached_t_end"
            assert (base / f"sweep_{i:04d}" / "diagnostics.csv").exists()

    @pytest.mark.parametrize("how", [
        f"killed by signal {signal.SIGKILL:d}", "exit status 7",
    ])
    def test_killed_member_keeps_the_others(self, tmp_path, monkeypatch, capsys, how):
        monkeypatch.setenv("JETLAB_WORKERS", "2")
        monkeypatch.setattr(os, "cpu_count", lambda: 2)

        def member_one_killed(config):
            if config.raw["model"]["a"] == 0.5:
                if how.startswith("killed"):
                    os.kill(os.getpid(), signal.SIGKILL)
                os._exit(7)
            return run_experiment(config)

        monkeypatch.setattr("jetlab.cli.run_experiment", member_one_killed)
        base = tmp_path / "sweepout"
        template = minimal_q0(tmp_path)
        template["outputs"]["directory"] = str(base)
        template_path = tmp_path / "template.json"
        template_path.write_text(json.dumps(template))
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps({"model.a": [0.0, 0.5, 1.0]}))
        assert main(["sweep", str(template_path), str(grid_path)]) == 1
        assert capsys.readouterr().err == (
            f"config error: sweep member 1 ended without a result: {how}\n"
        )
        rows = json.loads((base / "sweep_summary.json").read_text())
        assert [r["status"] for r in rows] == ["ok", "config_error", "ok"]
        assert rows[1]["exit_code"] == 1 and rows[1]["termination"] is None
        for i in (0, 2):
            assert (base / f"sweep_{i:04d}" / "diagnostics.csv").exists()
        with pytest.raises(ChildProcessError):  # every child was reaped
            os.waitpid(-1, os.WNOHANG)

    def test_failing_parent_kills_and_reaps_its_children(self, tmp_path, monkeypatch):
        monkeypatch.setenv("JETLAB_WORKERS", "2")
        monkeypatch.setattr(os, "cpu_count", lambda: 2)

        def parent_fails(*args):
            raise RuntimeError("the parent failed while two members ran")

        monkeypatch.setattr(select, "select", parent_fails)
        template = minimal_q0(tmp_path)
        template_path = tmp_path / "template.json"
        template_path.write_text(json.dumps(template))
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps({"model.a": [0.0, 0.5, 1.0]}))
        with pytest.raises(RuntimeError, match="the parent failed"):
            main(["sweep", str(template_path), str(grid_path)])
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_outputs_do_not_depend_on_the_worker_count(self, tmp_path, monkeypatch):
        # one member fails, as in test_failed_member_keeps_the_others; each run
        # writes below its own working directory, so the documents' paths agree
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        template = minimal_q0(tmp_path)
        template["outputs"]["directory"] = "sweepout"
        template_path = tmp_path / "template.json"
        template_path.write_text(json.dumps(template))
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps({"model.a": [0.0, 0.5, 1.0, 2.0]}))
        runs = {}
        for workers in ("1", "2"):
            monkeypatch.setenv("JETLAB_WORKERS", workers)
            (tmp_path / workers / "sweepout").mkdir(parents=True)
            (tmp_path / workers / "sweepout" / "sweep_0001").write_text("a file where member 1 writes")
            monkeypatch.chdir(tmp_path / workers)
            code = main(["sweep", str(template_path), str(grid_path)])
            files = {
                str(path.relative_to(tmp_path / workers)): path.read_bytes()
                for path in sorted((tmp_path / workers).rglob("*")) if path.is_file()
            }
            runs[workers] = code, files
        assert runs["1"][0] == 1
        assert len(runs["1"][1]) == 1 + 1 + 3 * 2  # summary, blocker, each member's csv and json
        assert runs["2"] == runs["1"]

    def test_member_out_of_memory_is_a_config_error(self, tmp_path, monkeypatch):
        monkeypatch.setenv("JETLAB_WORKERS", "1")

        def member_one_out_of_memory(config):
            if config.raw["model"]["a"] == 0.5:
                raise MemoryError("Unable to allocate")
            return run_experiment(config)

        monkeypatch.setattr("jetlab.cli.run_experiment", member_one_out_of_memory)
        base = tmp_path / "sweepout"
        template = minimal_q0(tmp_path)
        template["outputs"]["directory"] = str(base)
        template_path = tmp_path / "template.json"
        template_path.write_text(json.dumps(template))
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps({"model.a": [0.0, 0.5, 1.0]}))
        assert main(["sweep", str(template_path), str(grid_path)]) == 1
        rows = json.loads((base / "sweep_summary.json").read_text())
        assert [r["status"] for r in rows] == ["ok", "config_error", "ok"]
        assert rows[1]["exit_code"] == 1 and rows[1]["termination"] is None

    def test_sweep_rejects_bad_grid_value(self, tmp_path):
        template_path = tmp_path / "template.json"
        template_path.write_text(json.dumps(minimal_q0(tmp_path)))
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps({"model.a": [0.0, -2.0]}))
        assert main(["sweep", str(template_path), str(grid_path)]) == 1

    def test_sweep_output_directory_with_a_nul_byte(self, tmp_path, capsys):
        template = minimal_q0(tmp_path)
        template["outputs"]["directory"] = "a\x00b"
        template_path = tmp_path / "template.json"
        template_path.write_text(json.dumps(template))
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps({"model.a": [0.0, 0.5]}))
        assert main(["sweep", str(template_path), str(grid_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == (
            "config error: output directory 'a\\x00b' is not a valid path: embedded null byte\n"
        )


class TestJetVerify:
    def test_report_written(self, tmp_path):
        out = tmp_path / "jets"
        assert main(
            ["jet-verify", "1", "64", "linear", "--n", "32", "--out", str(out)]
        ) == 0
        report = json.loads((out / "jet_report.json").read_text())
        assert report["pass"] is True
        assert report["jet_relation_residual_pde"] <= 1e-12

    def test_unknown_case(self):
        assert main(["jet-verify", "1", "64", "cubic"]) == 1

    @pytest.mark.parametrize(
        "argv,expected",
        [
            (["1", "0", "exp"], "q intervals"),
            (["1", "16", "exp", "--n", "7"], "n_points"),
            (["1", "16", "exp", "--n", "-4"], "n_points"),
        ],
    )
    def test_bad_input_is_a_config_error(self, capsys, argv, expected):
        assert main(["jet-verify", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1 and captured.err.startswith("config error: ")
        assert expected in captured.err and captured.out == ""

    def test_memory_budget_is_checked_before_the_strip(self, capsys, monkeypatch):
        def no_strip(*args):
            raise AssertionError("manufactured_case called past the memory budget")

        # 24 x 9 x 2 + 16 x 9 x 68 + 80 x 65 + 2^16 = 80960 bytes at n = 16, M = 64
        monkeypatch.setattr("jetlab.strip.manufactured_case", no_strip)
        monkeypatch.setattr("jetlab.cli._memory_available", lambda: 80959)
        assert main(["jet-verify", "1", "64", "exp", "--n", "16"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == (
            "config error: out of memory: jet-verify needs 80960 bytes, over the 80959 available\n"
        )

    def test_memory_budget_that_fits_runs(self, capsys, monkeypatch):
        monkeypatch.setattr("jetlab.cli._memory_available", lambda: 80960)
        assert main(["jet-verify", "1", "64", "linear", "--n", "16"]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads Linux limits")
    def test_memory_available_is_the_smaller_limit(self, monkeypatch):
        import resource

        assert 0 < _memory_available() < math.inf  # the free physical memory is always read
        monkeypatch.setattr(resource, "getrlimit", lambda which: (12345, resource.RLIM_INFINITY))
        assert _memory_available() == 12345

    @staticmethod
    def fake_memory(monkeypatch, meminfo, limit=None):
        """The memory readers, patched: ``meminfo`` is the kernel report's text
        (an exception type is raised instead), MemFree is one 4 KiB page, and
        the address-space limit is ``limit`` (None: unlimited)."""
        import resource

        def read_meminfo():
            if isinstance(meminfo, str):
                return meminfo
            raise meminfo("no /proc/meminfo")

        pages = {"SC_AVPHYS_PAGES": 1, "SC_PAGE_SIZE": 4096}
        monkeypatch.setattr("jetlab.cli._read_meminfo", read_meminfo)
        monkeypatch.setattr(os, "sysconf", pages.__getitem__)
        soft = resource.RLIM_INFINITY if limit is None else limit
        monkeypatch.setattr(resource, "getrlimit", lambda which: (soft, resource.RLIM_INFINITY))

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads Linux limits")
    def test_memory_available_counts_reclaimable_cache(self, monkeypatch):
        report = "MemTotal:       16000000 kB\nMemFree:             4 kB\nMemAvailable:    7890000 kB\n"
        self.fake_memory(monkeypatch, report)
        assert _memory_available() == 7890000 * 1024
        self.fake_memory(monkeypatch, report, limit=12345)
        assert _memory_available() == 12345

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads Linux limits")
    @pytest.mark.parametrize("meminfo", ["MemTotal: 16000000 kB\nMemFree: 4 kB\n", OSError])
    def test_memory_available_falls_back_to_free_pages(self, monkeypatch, meminfo):
        self.fake_memory(monkeypatch, meminfo)
        assert _memory_available() == 4096

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads Linux limits")
    @pytest.mark.parametrize("available_kb,code", [(93, 0), (92, 1)])
    def test_memory_budget_against_mem_available(self, capsys, monkeypatch, available_kb, code):
        # the budget is 94672 bytes at M = 230, between 92 and 93 KiB; MemFree
        # (4096 bytes) would refuse both
        self.fake_memory(monkeypatch, f"MemFree: 4 kB\nMemAvailable: {available_kb} kB\n")
        assert main(["jet-verify", "1", "230", "linear", "--n", "16"]) == code
        err = capsys.readouterr().err
        assert err == ("" if code == 0 else
                       "config error: out of memory: jet-verify needs 94672 bytes, over the 94208 available\n")

    def test_output_directory_under_file(self, tmp_path, capsys):
        (tmp_path / "blocker").write_text("not a directory")
        out = tmp_path / "blocker" / "jets"
        assert main(["jet-verify", "1", "16", "linear", "--n", "8", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("config error: ") and "blocker" in err

    def test_output_directory_with_a_nul_byte(self, capsys, monkeypatch):
        def no_solve(*args):
            raise AssertionError("solved before --out was checked")

        monkeypatch.setattr("jetlab.strip.manufactured_pass", no_solve)
        assert main(["jet-verify", "1", "16", "exp", "--n", "8", "--out", "a\x00b"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == (
            "config error: output directory 'a\\x00b' is not a valid path: embedded null byte\n"
        )

    def test_output_directory_checked_before_the_solve(self, tmp_path, capsys, monkeypatch):
        def no_solve(*args):
            raise AssertionError("solved before --out was checked")

        monkeypatch.setattr("jetlab.strip.manufactured_pass", no_solve)
        (tmp_path / "blocker").write_text("not a directory")
        out = tmp_path / "blocker" / "jets"
        assert main(["jet-verify", "1", "16", "exp", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("config error: ") and "blocker" in err

    def test_unwritable_output_directory_checked_before_the_solve(
        self, tmp_path, capsys, monkeypatch
    ):
        def no_solve(*args):
            raise AssertionError("solved before --out was checked")

        monkeypatch.setattr("jetlab.strip.manufactured_pass", no_solve)
        out = tmp_path / "jets"
        (out / ".write_probe").mkdir(parents=True)  # fails the probe even as root
        assert main(["jet-verify", "1", "16", "exp", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1 and captured.err.startswith("config error: ")
        assert "not writable" in captured.err and captured.out == ""

    @pytest.mark.parametrize("where", ["manufactured_case", "manufactured_pass"])
    def test_out_of_memory_is_a_config_error(self, capsys, monkeypatch, where):
        # stands in for an n * (M+1) strip that cannot be allocated
        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 8.00 TiB")

        monkeypatch.setattr(f"jetlab.strip.{where}", no_memory)
        assert main(["jet-verify", "1", "16", "exp", "--n", "8"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "config error: out of memory: Unable to allocate 8.00 TiB\n"
        assert captured.out == ""

    @pytest.mark.parametrize("m", ["1", "2"])
    def test_report_carries_scaled_residual(self, capsys, m):
        assert main(["jet-verify", m, "1024", "exp", "--n", "16"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["pde_residual"] > 1e-12  # the band entries are ~ 8e6
        assert 0.0 < report["pde_residual_scaled"] <= 1e-14


class TestIdentityCheckCommand:
    def test_both_m_pass(self, capsys):
        assert main(["identity-check", "1"]) == 0
        assert main(["identity-check", "2"]) == 0
        out = capsys.readouterr().out
        assert "worst:" in out
