import json

import pytest

from jetlab import parse_config
from jetlab.diagnostics import CSV_COLUMNS
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
