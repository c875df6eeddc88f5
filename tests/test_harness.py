import json
import math

import pytest

from modlavg import cli
from modlavg import harness as hs
from modlavg import lvalues as lv
from modlavg.arith import load_eigenforms
from modlavg.errors import AccuracyError, InvariantViolation


@pytest.fixture(scope="module")
def cfg():
    return hs.ExperimentConfig(discriminant=-4, weight=4, aux_prime=13)


class TestConfig:
    def test_default_levels(self, cfg):
        assert cfg.levels == [3, 7, 11]
        assert cfg.measure.sign == +1  # 13 = 1 mod 4 splits

    def test_bad_discriminant(self):
        with pytest.raises(InvariantViolation):
            hs.ExperimentConfig(discriminant=-5, weight=4, aux_prime=13)

    def test_inadmissible_level(self):
        with pytest.raises(InvariantViolation):
            hs.ExperimentConfig(discriminant=-4, weight=4, aux_prime=13,
                                levels=[5])

    def test_from_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "discriminant": -4, "weight": 4, "aux_prime": 13,
            "interval": [-2.0, 0.5], "levels": [7, 11],
        }))
        c = hs.ExperimentConfig.from_file(path)
        assert c.interval == (-2.0, 0.5) and c.levels == [7, 11]

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"discriminant": -4, "weight": 4,
                                    "aux_prime": 13, "bogus": 1}))
        with pytest.raises(InvariantViolation):
            hs.ExperimentConfig.from_file(path)


class TestMeasureMass:
    def test_full_interval(self, cfg):
        assert hs.measure_mass(cfg, -2.0, 2.0) == pytest.approx(1.0, abs=1e-10)

    def test_monotone(self, cfg):
        small = hs.measure_mass(cfg, -0.5, 0.5)
        large = hs.measure_mass(cfg, -1.0, 1.0)
        assert 0.0 < small < large < 1.0

    def test_empty(self, cfg):
        assert hs.measure_mass(cfg, 0.3, 0.3) == 0.0


class TestGeometricPrediction:
    def test_full_interval_printed_constant(self, cfg):
        # 2 * c_4 * L(1, chi) with c_4 = 80 pi and L = pi/4
        got = hs.geometric_prediction(cfg, -2.0, 2.0, constant="printed")
        assert got == pytest.approx(40.0 * math.pi ** 2, rel=1e-10)

    def test_monotone_in_interval(self, cfg):
        a = hs.geometric_prediction(cfg, -1.0, 0.5)
        b = hs.geometric_prediction(cfg, -1.5, 1.0)
        assert 0.0 <= a <= b

    def test_assembled_constant_value(self, cfg):
        # 4 |I_upper| / Gamma_C(2) = 4 * 4 pi * 2 pi^2 = 32 pi^3 at k = 4
        assert hs.assembled_constant(4) == pytest.approx(32.0 * math.pi ** 3,
                                                         rel=1e-10)


class TestSpectralSums:
    def test_zero_width(self, cfg):
        out = hs.spectral_sum(cfg, 7, 1.9, 1.9)
        assert out["value"] == 0.0 and out["count"] == 0

    def test_full_equals_sum_of_forms(self, cfg):
        out = hs.spectral_sum(cfg, 11, -2.0, 2.0)
        assert out["count"] == 2
        assert out["value"] == pytest.approx(
            sum(r["contribution"] for r in out["rows"]))

    def test_bin_additivity(self, cfg):
        full = hs.spectral_sum(cfg, 11, -2.0, 2.0)["value"]
        prop = hs.proportionality_test(cfg)
        shares = prop["levels"][11]["shares"]
        assert sum(shares) == pytest.approx(1.0, abs=1e-12)
        assert full > 0

    def test_measure_masses_sum_to_one(self, cfg):
        prop = hs.proportionality_test(cfg)
        assert sum(prop["measure_masses"]) == pytest.approx(1.0, abs=1e-9)

    def test_degenerate_level_flagged(self, cfg):
        prop = hs.proportionality_test(cfg)
        assert prop["levels"][3]["degenerate"] is True
        assert not prop["levels"][7]["degenerate"]


class TestAudit:
    def test_rows(self, cfg):
        audit = hs.geometric_side_audit(cfg, 7)
        by_orbit = {r["orbit"]: r for r in audit["rows"]}
        assert by_orbit["identity"]["value"] == 0.0
        assert "axiom" in by_orbit["identity"]["status"]
        assert by_orbit["swap"]["value"] == 0.0
        assert by_orbit["swap_upper"]["status"].startswith("verified-by-oracle")
        assert by_orbit["swap_lower"]["value"] == 0.0
        assert audit["upper_lower_gap"] <= 1e-8
        assert by_orbit["upper"]["value"] > 0.0

    def test_upper_value_assembles_local_data(self, cfg):
        # g^{-1} F_inf (1/V_N) L(0, chi): independent recomputation
        from modlavg import arch_local
        from modlavg.arith import dirichlet_l
        audit = hs.geometric_side_audit(cfg, 11)
        up = [r for r in audit["rows"] if r["orbit"] == "upper"][0]
        expected = (abs(arch_local.singular_upper_closed(4, 0, 0)) / 2.0
                    * 12.0 * dirichlet_l(-4, 0))
        assert up["value"] == pytest.approx(expected, rel=1e-12)


class TestRunExperiment:
    def test_deterministic_report(self, cfg, tmp_path):
        r1 = hs.run_experiment(cfg).to_json()
        r2 = hs.run_experiment(cfg).to_json()
        assert r1 == r2

    def test_written_outputs(self, tmp_path):
        cfg = hs.ExperimentConfig(discriminant=-4, weight=4, aux_prime=13,
                                  output_dir=str(tmp_path))
        hs.run_experiment(cfg)
        assert (tmp_path / "report.json").exists()
        assert (tmp_path / "forms.csv").exists()
        assert (tmp_path / "density.csv").exists()
        header = (tmp_path / "density.csv").read_text().splitlines()[0]
        assert header == "x,split,inert,sato_tate"

    def test_empty_level_list(self):
        cfg = hs.ExperimentConfig(discriminant=-4, weight=4, aux_prime=13,
                                  levels=[])
        report = hs.run_experiment(cfg)
        assert report.levels == []
        assert report.constants["c_printed"] > 0

    def test_level_independence_of_sums(self, cfg):
        report = hs.run_experiment(cfg)
        sums = {lvl["level"]: lvl["spectral_full"] for lvl in report.levels
                if lvl["forms"]}
        # the average identity: full sums at different levels agree closely
        vals = list(sums.values())
        assert abs(vals[0] - vals[1]) <= 1e-4 * abs(vals[0])

    def test_envelope_sections(self, cfg):
        report = hs.run_experiment(cfg)
        for key in ("printed", "assembled"):
            assert report.envelope[key]["ok"]


class TestIdentityCheck:
    def test_perturbed_contribution_fails(self, cfg):
        report = hs.run_experiment(cfg)
        c = report.constants
        contributions = {lvl["level"]: [r["contribution"] for r in lvl["forms"]]
                         for lvl in report.levels if lvl["forms"]}
        rows = report.envelope["assembled"]["rows"]
        budgets = {N: r["budget"] for N, r in rows.items()}
        target = 2.0 * c["c_assembled"] * c["L1"]
        assert sorted(budgets) == [7, 11]
        assert all(b < 1e-10 * target for b in budgets.values())

        def check(moved_level=None, moved_form=None):
            sums = {}
            for N, values in contributions.items():
                values = list(values)
                if N == moved_level:
                    values[moved_form] *= 1.0 + 1e-9
                sums[N] = math.fsum(values)
            return hs.identity_check(sums, budgets, 4, c["c_printed"],
                                     c["c_assembled"], c["L1"])

        shipped = check()
        assert shipped["printed"]["ok"] and shipped["assembled"]["ok"]
        for N, values in contributions.items():
            for i in range(len(values)):
                out = check(N, i)
                for key in ("printed", "assembled"):
                    assert not out[key]["ok"]
                    assert out[key]["violations"] == [N]

    def test_inaccurate_central_value_refused(self, cfg, monkeypatch):
        # a 1e-12 AFE-vs-Mellin gap passes central_value's default tolerance
        # but not the one the identity budget states
        afe = lv.CompletedL.lambda_afe

        def mellin(self, s, w=None):
            return afe(self, s) * (1.0 + 1e-12)

        monkeypatch.setattr(hs, "_FORM_CACHE", {})
        monkeypatch.setattr(lv.CompletedL, "lambda_mellin", mellin)
        monkeypatch.setattr(hs, "petersson_norm", lambda form: 1.0)
        with pytest.raises(AccuracyError,
                           match="7.4.a: central-value paths disagree"):
            hs._level_rows(cfg, 7)

    def test_fricke_sign_measured_once_per_form(self, cfg, monkeypatch):
        calls = []
        measure = lv.fricke_sign

        def counted(form, *args, **kwargs):
            calls.append(form.label)
            return measure(form, *args, **kwargs)

        monkeypatch.setattr(hs, "_FORM_CACHE", {})
        monkeypatch.setattr(lv, "fricke_sign", counted)
        # a sign measured by the harness itself counts as well
        monkeypatch.setattr(hs, "fricke_sign", counted, raising=False)
        rows = hs._level_rows(cfg, 11)
        assert sorted(calls) == ["11.4.a", "11.4.b"]
        stored = {f.label: f.atkin_lehner for f in load_eigenforms(cfg.data_path)}
        for r in rows:
            assert r["fricke"] == stored[r["label"]]

    def test_inaccurate_twisted_value_refused(self, cfg, monkeypatch):
        monkeypatch.setattr(hs, "_FORM_CACHE", {})
        monkeypatch.setattr(lv.CompletedL, "fe_residual", lambda self, s: 1e-12)
        monkeypatch.setattr(hs, "petersson_norm", lambda form: 1.0)
        with pytest.raises(AccuracyError,
                           match="level 7, 7.4.a: twisted split-point spread"):
            hs._level_rows(cfg, 7)


class TestCLI:
    def test_constants(self, capsys):
        assert cli.main(["constants", "--k", "4"]) == 0
        out = capsys.readouterr().out
        assert "h(k) = 5" in out

    def test_measures_table(self, capsys):
        assert cli.main(["measures", "--p", "3", "--delta", "-1",
                         "--max-n", "3"]) == 0
        out = capsys.readouterr().out
        assert "ok" in out

    def test_verify_local(self, capsys):
        assert cli.main(["verify-local", "--q", "2", "--vmax", "2"]) == 0

    def test_average_with_config(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "discriminant": -4, "weight": 4, "aux_prime": 13,
            "levels": [3, 7, 11], "output_dir": str(tmp_path / "out"),
        }))
        assert cli.main(["average", "--config", str(path)]) == 0
        assert (tmp_path / "out" / "report.json").exists()

    def test_lvalues_command(self, capsys):
        assert cli.main(["lvalues", "--forms", hs.default_data_path(),
                         "--twist", "-4"]) == 0
        out = capsys.readouterr().out
        assert "5.4.a" in out
