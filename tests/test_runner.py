import json

import numpy as np
import pytest

from jetlab import parse_config
from jetlab.diagnostics import CSV_COLUMNS, RECORD_DTYPE, resolved_until, riccati_audit
from jetlab.evolve import REACHED_T_END, RunResult
from jetlab.preflight import preflight_output_dir
from jetlab.runner import run_experiment, theorem_audit


def theorem_doc(out_dir, n=512):
    return {
        "model": {"name": "Q0", "m": 1, "a": 0.0},
        "grid": {"n": n, "L": 2.0},
        "initial_data": {
            "omega": {"name": "sin_fundamental"},
            "theta": {"name": "zero"},
        },
        "stepper": {
            "t_end": 4.0,
            "omega_sup_cap": 1000.0,
            "dt_max": 0.01,
            "record_every": 10,
        },
        "outputs": {"directory": str(out_dir)},
        "tags": ["theorem-hypotheses"],
    }


class TestPreflight:
    def test_creates_directory(self, tmp_path):
        out = preflight_output_dir(str(tmp_path / "a" / "b"))
        assert out.is_dir()

    def test_rejects_path_through_file(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        with pytest.raises(OSError):
            preflight_output_dir(str(blocker / "out"))


class TestTheoremPipeline:
    def test_blowup_run_passes_every_audit(self, tmp_path):
        config = parse_config(json.dumps(theorem_doc(tmp_path / "run")))
        summary = run_experiment(config)
        result = summary["result"]
        audits = summary["audits"]
        assert result.termination == "sup_cap_hit"
        assert summary["failed_audits"] == []
        assert audits["blowup_bound_holds"] is True
        assert audits["estimated_blowup_time"] <= 1.05 * audits["bound_L_over_F0"]
        assert (tmp_path / "run" / "diagnostics.csv").exists()
        run_json = json.loads((tmp_path / "run" / "run.json").read_text())
        assert run_json["termination"] == "sup_cap_hit"
        assert run_json["audits"]["blowup_bound_holds"] is True

    def test_audit_is_pure_postprocessing(self, tmp_path):
        config = parse_config(json.dumps(theorem_doc(tmp_path / "run2", n=256)))
        summary = run_experiment(config)
        again = theorem_audit(summary["result"], config)
        assert again == summary["audits"]

    def test_theta_driven_growth_passes_audits(self, tmp_path):
        # theta0 = 1 - cos(pi x) has theta_x >= 0 on the half period, so the
        # stretching term genuinely feeds omega and the sup grows physically
        doc = theorem_doc(tmp_path / "run3")
        doc["initial_data"]["theta"] = {
            "name": "custom_fourier",
            "terms": [[0, 0.0, 1.0], [1, 0.0, -1.0]],
        }
        config = parse_config(json.dumps(doc))
        summary = run_experiment(config)
        result = summary["result"]
        audits = summary["audits"]
        assert result.termination == "sup_cap_hit"
        assert summary["failed_audits"] == []
        assert audits["G_nonnegative"] and audits["thetax_sign_preserved"]
        # G(0) = (1/3) integral_0^1 pi sin(pi x)/x dx, frozen oracle value
        assert result.diagnostics[0].G == pytest.approx(1.9393439458062849, abs=1e-9)
        assert result.t_final < audits["bound_L_over_F0"]


CHAIN = ("riccati_margin_ok", "cauchy_schwarz_ok", "envelope_ok")


def chain_oracle(result, L) -> dict:
    """The inequality chain's verdicts, one sample at a time in Python floats."""
    t_res = resolved_until(result.diagnostics)
    rows = [row for row in riccati_audit(result).tolist() if row[0] < t_res]
    verdicts = {
        "riccati_margin_ok": all(margin >= -1e-4 * max(F**2, 1.0) for _, F, _, margin, *_ in rows),
        "cauchy_schwarz_ok": all(rhs - lhs >= -1e-9 * lhs for *_, lhs, rhs in rows),
    }
    F0 = float(result.diagnostics.F[0])
    if F0 > 0:
        verdicts["envelope_ok"] = all(1.0 / F <= 1.0 / F0 - t / L + 1e-3 for t, F, *_ in rows if F > 0)
    return verdicts


def small_theorem_config(tmp_path, amplitude=0.3, **stepper):
    """A tagged Q0 run at c = 1, n = 64, with a small theta that breaks the chain."""
    doc = theorem_doc(tmp_path, n=64)
    doc["model"] = {"name": "Q0", "c": 1}
    doc["initial_data"] = {
        "omega": {"name": "sin_fundamental", "amplitude": amplitude},
        "theta": {"name": "custom_fourier", "terms": [[1, 0.0, 0.02]]},
    }
    doc["stepper"] = {"t_end": 0.5, "dt_max": 0.01, "omega_sup_cap": 10, "record_every": 3, **stepper}
    return parse_config(json.dumps(doc))


class TestInequalityChain:
    """The three chain verdicts of theorem_audit against a per-sample oracle."""

    def test_a_failing_chain(self, tmp_path):
        summary = run_experiment(small_theorem_config(tmp_path))
        result, audits = summary["result"], summary["audits"]
        assert len(result.diagnostics) == 18
        assert {key: audits[key] for key in CHAIN} == chain_oracle(result, 2.0)
        assert (audits["riccati_margin_ok"], audits["envelope_ok"]) == (False, False)

    def test_the_reference_run(self, tmp_path, blowup_run):
        config = parse_config(json.dumps(theorem_doc(tmp_path, n=2048)))
        audits = theorem_audit(blowup_run, config)
        assert {key: audits[key] for key in CHAIN} == chain_oracle(blowup_run, 2.0)
        assert all(audits[key] for key in CHAIN)

    def test_two_records_have_no_chain(self, tmp_path):
        summary = run_experiment(small_theorem_config(tmp_path, record_every=100, t_end=0.05))
        assert len(summary["result"].diagnostics) == 2
        assert set(CHAIN) & set(summary["audits"]) == set()

    @pytest.mark.parametrize("key, F, margin, strong_term, holds", [
        ("riccati_margin_ok", 0.5, -1e-4, 1.0, True),  # the floor max(F^2, 1) = 1
        ("riccati_margin_ok", 0.5, -1.01e-4, 1.0, False),
        ("riccati_margin_ok", 100.0, -0.99, 1e4, True),  # 1e-4 F^2 = 1
        ("riccati_margin_ok", 100.0, -1.01, 1e4, False),
        ("cauchy_schwarz_ok", 100.0, 0.0, 5000.0 - 2.5e-6, True),  # F^2 - L * term = 5e-6
        ("cauchy_schwarz_ok", 100.0, 0.0, 5000.0 - 1e-5, False),
        ("envelope_ok", 2.0, 0.0, 4.0, True),  # 1/F(0) - t/L + 1e-3 = 0.501 at t = 1
        ("envelope_ok", 1.99, 0.0, 4.0, False),
        ("envelope_ok", 0.0, 0.0, 4.0, True),  # a row with F = 0 is left out
    ])
    def test_each_tolerance_at_its_edge(self, tmp_path, key, F, margin, strong_term, holds):
        # three resolved records, F(0) = 1 on L = 2: the middle one is the chain's one row
        table = np.zeros(3, RECORD_DTYPE).view(np.recarray)
        table.t, table.F = [0.0, 1.0, 2.0], [1.0, F, 1.0]
        table.riccati_margin[1], table.strong_term[1] = margin, strong_term
        result = RunResult([], table, REACHED_T_END, 2.0, 2.0)
        audits = theorem_audit(result, small_theorem_config(tmp_path))
        assert {name: audits[name] for name in CHAIN} == chain_oracle(result, 2.0)
        assert audits[key] is holds

    def test_no_envelope_below_a_positive_F0(self, tmp_path):
        summary = run_experiment(small_theorem_config(tmp_path, amplitude=-1))
        result, audits = summary["result"], summary["audits"]
        assert result.diagnostics.F[0] < 0
        assert "envelope_ok" not in audits
        assert {key: audits[key] for key in CHAIN[:2]} == chain_oracle(result, 2.0)


def per_record_csv(table) -> bytes:
    """diagnostics.csv by its rule: the header, then for each record the repr
    of each CSV column's value as a Python float, one attribute at a time."""
    lines = [",".join(CSV_COLUMNS)]
    lines += [",".join(repr(float(getattr(r, name))) for name in CSV_COLUMNS) for r in table]
    return ("\n".join(lines) + "\n").encode()


SEVEN_MODELS = {
    "CLM": {}, "DeGregorio": {}, "CCF": {}, "Okamoto": {"a_ok": 0.5},
    "HouLuo": {}, "CKY": {"X": 0.5}, "Q0": {"c": 1 / 3},
}


class TestCsvBytes:
    @pytest.mark.parametrize("name", SEVEN_MODELS)
    def test_every_record_is_written_by_the_rule(self, tmp_path, name):
        doc = {
            "model": {"name": name, **SEVEN_MODELS[name]},
            "grid": {"n": 64, "L": 2.0},
            "initial_data": {
                "omega": {"name": "sin_fundamental"},
                "theta": {"name": "custom_fourier", "terms": [[0, 0.0, 0.3], [1, 0.0, 0.1]]},
            },
            "stepper": {"t_end": 0.2, "dt_max": 0.01, "record_every": 1},
            "outputs": {"directory": str(tmp_path)},
        }
        table = run_experiment(parse_config(json.dumps(doc)))["result"].diagnostics
        assert len(table) == 21
        assert (tmp_path / "diagnostics.csv").read_bytes() == per_record_csv(table)

    def test_a_record_past_the_float_range(self, tmp_path):
        # E overflows to inf and the tail fraction is nan; a nan fraction
        # does not end resolution, so run.json has no resolved_until
        doc = theorem_doc(tmp_path, n=64)
        doc["initial_data"]["omega"]["amplitude"] = 1e200
        doc["stepper"].update(omega_sup_cap=1e300, record_every=1)
        table = run_experiment(parse_config(json.dumps(doc)))["result"].diagnostics
        written = (tmp_path / "diagnostics.csv").read_bytes()
        assert written == per_record_csv(table)
        cells = written.splitlines()[1].split(b",")
        assert (cells[CSV_COLUMNS.index("E")], cells[CSV_COLUMNS.index("tail_energy_fraction")]) == (
            b"inf", b"nan"
        )
        assert json.loads((tmp_path / "run.json").read_text())["audits"]["resolved_until"] is None
