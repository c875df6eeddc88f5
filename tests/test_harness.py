import dataclasses
import json
import math
import os
import re
import subprocess
import sys

import pytest

from modlavg import cli
from modlavg import harness as hs
from modlavg import lvalues as lv
from modlavg import measures as ms
from modlavg.arith import dim_cusp_forms, dump_eigenforms, load_eigenforms
from modlavg.errors import AccuracyError, InvariantViolation
from modlavg.newforms import newforms


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

    def test_level_outside_stable_range(self):
        # chi_{-8}(-7) = 1 and level 7 has a form, but 7 <= |D| = 8
        with pytest.raises(InvariantViolation,
                           match=r"N = 7 with D = -8 .*stable range N > \|D\|"):
            hs.ExperimentConfig(discriminant=-8, weight=4, aux_prime=13,
                                levels=[7])

    @pytest.mark.parametrize("D, levels", [(-7, [3]), (-8, []), (-11, [2])])
    def test_default_levels_skip_unstable(self, D, levels):
        # admissible_levels gives 3, 5 / 5, 7 / 2, 7: levels 5 and 7 have
        # forms and lie at or below |D|, levels 2 and 3 have none
        c = hs.ExperimentConfig(discriminant=D, weight=4, aux_prime=13)
        assert c.levels == levels
        assert all(N > abs(D) or dim_cusp_forms(N, 4) == 0 for N in c.levels)

    def test_from_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "discriminant": -4, "weight": 4, "aux_prime": 13,
            "interval": [-2.0, 0.5], "levels": [7, 11],
        }))
        c = hs.ExperimentConfig.from_file(path)
        assert c.interval == (-2.0, 0.5) and c.levels == [7, 11]

    @pytest.mark.parametrize("fields, match", [
        ({"bins": 0}, "bins must be >= 1"),
        ({"bins": -2}, "bins must be >= 1"),
        ({"bins": True}, "bins must be an integer"),
        ({"bins": 2.0}, "bins must be an integer"),
        ({"weight": 4.0}, "weight must be an integer"),
        ({"discriminant": "-4"}, "discriminant must be an integer"),
        ({"aux_prime": 4}, "auxiliary prime 4 must be a prime not dividing D"),
        ({"aux_prime": 1}, "auxiliary prime 1 must be a prime"),
        ({"aux_prime": 2}, "auxiliary prime 2 must be a prime not dividing D"),
        ({"levels": [7, 7, 11]}, "levels must be distinct integers"),
        ({"levels": [3, 7, "11"]}, "levels must be distinct integers"),
        ({"levels": [3, 7, True]}, "levels must be distinct integers"),
        ({"levels": 7}, "levels must be distinct integers"),
        ({"levels": [3, 7, 10 ** 12 + 39]}, "levels must be distinct integers <= 1000000"),
        ({"levels": [3, 7, 9]}, "level 9 is not admissible"),
        ({"levels": [3, 5]}, "level 5 is not admissible"),
        ({"levels": [13]}, "level 13 is not admissible"),
        ({"interval": [1.0]}, "interval must be two numbers"),
        ({"interval": [-1.0, "2"]}, "interval must be two numbers"),
        ({"interval": [-1.0, float("nan")]}, "subinterval of [-2, 2]"),
        ({"interval": [-1.0, float("inf")]}, "subinterval of [-2, 2]"),
        ({"interval": 1.0}, "interval must be two numbers"),
        ({"interval": [1.0, -1.0]}, "subinterval of [-2, 2]"),
        ({"weight": None}, "weight must be an integer"),
        ({"weight": 4, "aux_prime": 13, "discriminant": -4, "zap": 1},
         "unknown config fields ['zap']"),
    ], ids=lambda x: json.dumps(x) if isinstance(x, dict) else None)
    def test_malformed_config_exits_2_with_one_line(self, tmp_path, capsys,
                                                     fields, match):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"discriminant": -4, "weight": 4,
                                    "aux_prime": 13, **fields}))
        with pytest.raises(InvariantViolation, match=re.escape(match)):
            hs.ExperimentConfig.from_file(path)
        assert cli.main(["average", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and match in err, err

    @pytest.mark.parametrize("text, match", [
        ('{"discriminant": -4, "weight": 4}', "missing config fields ['aux_prime']"),
        ("[-4, 4, 13]", "config is not a JSON object"),
        ("{not json", "parse error"),
    ])
    def test_malformed_config_file(self, tmp_path, text, match):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        with pytest.raises(InvariantViolation, match=re.escape(match)):
            hs.ExperimentConfig.from_file(path)

    def test_sweep_config_constructs(self, cfg):
        # the shape of the benchmark's warm calls: float tuple interval,
        # list levels, bins 2 to 8
        for bins in range(2, 9):
            c = hs.ExperimentConfig(
                discriminant=cfg.discriminant, weight=cfg.weight,
                aux_prime=cfg.aux_prime, interval=(-1.25, 0.5),
                levels=list(cfg.levels), data_path=cfg.data_path, bins=bins)
            assert c.interval == (-1.25, 0.5) and c.levels == [3, 7, 11]

    def test_eight_settable_fields(self):
        assert [f.name for f in dataclasses.fields(hs.ExperimentConfig)] == [
            "discriminant", "weight", "aux_prime", "interval", "levels",
            "data_path", "bins", "output_dir"]

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

    def test_is_the_measure_mass(self, cfg):
        for lo, hi in [(-2.0, 2.0), (-0.5, 0.5), (-3.0, 1.0), (1.0, 0.0)]:
            assert hs.measure_mass(cfg, lo, hi) == ms.mass(cfg.measure, lo, hi)


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
        assert not report.ok  # nothing was checked

    def test_data_file_read_once(self, cfg, monkeypatch):
        calls = []
        load = hs.load_eigenforms

        def counted(path, *args, **kwargs):
            calls.append(path)
            return load(path, *args, **kwargs)

        monkeypatch.setattr(hs, "_FORM_CACHE", {})
        monkeypatch.setattr(hs, "load_eigenforms", counted)
        hs.run_experiment(cfg)
        assert len(calls) == 1  # cold: one read serves levels 3, 7 and 11
        hs.run_experiment(cfg)
        assert len(calls) == 1  # warm: no read

    def test_level_independence_of_sums(self, cfg):
        report = hs.run_experiment(cfg)
        sums = {lvl["level"]: lvl["spectral_full"] for lvl in report.levels
                if lvl["forms"]}
        # the average identity: full sums at different levels agree closely
        vals = list(sums.values())
        assert abs(vals[0] - vals[1]) <= 1e-4 * abs(vals[0])

    def test_envelope_sections(self, cfg):
        report = hs.run_experiment(cfg)
        assert report.ok
        for key in ("printed", "assembled"):
            assert sorted(report.envelope[key]["rows"]) == [7, 11]
        assert "ok" not in json.loads(report.to_json())


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

    def test_nonpositive_sum_fails(self, cfg):
        c = hs.run_experiment(cfg).constants
        # a budget wide enough to pass any deviation does not pass S_N <= 0
        out = hs.identity_check({7: 0.0, 11: 1.0}, {7: 1e300, 11: 1e300}, 4,
                                c["c_printed"], c["c_assembled"], c["L1"])
        for key in ("printed", "assembled"):
            assert out[key]["violations"] == [7]
            assert not out[key]["ok"]

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


def test_identity_holds_at_level_19_with_generated_forms(tmp_path):
    # the images (z + j)/N of the triangle tile a full strip above height
    # 1/N; stopping them at height 36/N misses the identity at N = 19 by
    # 4.5e-9 relative, far outside its budget
    path = tmp_path / "forms19.jsonl"
    dump_eigenforms(newforms(19, 4, 400), path)
    rep = hs.run_experiment(hs.ExperimentConfig(
        discriminant=-4, weight=4, aux_prime=13, levels=[19],
        data_path=str(path)))
    assert rep.ok


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

    def test_average_without_forms_fails(self, tmp_path, capsys):
        # level 3 has no forms at weight 4, so the identity is not checked
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "discriminant": -4, "weight": 4, "aux_prime": 13, "levels": [3],
        }))
        assert cli.main(["average", "--config", str(path)]) == 1

    def test_average_outside_stable_range(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "discriminant": -8, "weight": 4, "aux_prime": 13, "levels": [7],
        }))
        assert cli.main(["average", "--config", str(path)]) == 2
        assert "stable range N > |D|" in capsys.readouterr().err

    def test_typed_error_exits_2_with_one_line(self, tmp_path):
        # 11.4.a cut to 50 coefficients cannot reach the AFE sums' length
        with open(hs.default_data_path(), encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh if line.strip()]
        for rec in records:
            if rec["label"] == "11.4.a":
                rec["coeffs"] = rec["coeffs"][:50]
        data = tmp_path / "truncated.jsonl"
        data.write_text("".join(json.dumps(r) + "\n" for r in records))
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "discriminant": -4, "weight": 4, "aux_prime": 13,
            "levels": [3, 7, 11], "data_path": str(data),
        }))
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        run = subprocess.run(
            [sys.executable, "-m", "modlavg.cli", "average", "--config", str(config)],
            capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
        assert run.returncode == 2
        lines = run.stderr.splitlines()
        assert len(lines) == 1 and "11.4.a" in lines[0], run.stderr
        assert "Traceback" not in run.stderr

    @pytest.mark.parametrize("argv", [
        ["measures", "--p", "4"],
        ["verify-local", "--q", "4"],
        ["verify-arch", "--k", "5"],
        ["constants", "--k", "3"],
        ["lvalues", "--forms", "/nonexistent/forms.jsonl"],
        ["average", "--config", "/nonexistent/config.json"],
        ["verify-local", "--vmax", "-3"],
        ["measures", "--csv", "--grid", "-3"],
        ["measures", "--grid", "0"],
        ["measures", "--max-n", "-2"],
    ], ids=lambda argv: " ".join(argv[:2]))
    def test_bad_input_exits_2_with_one_line(self, capsys, argv):
        # exit 1 is a failed check; bad input is exit 2 with no traceback
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "Traceback" not in err, err

    def test_lvalues_command(self, capsys):
        assert cli.main(["lvalues", "--forms", hs.default_data_path(),
                         "--twist", "-4"]) == 0
        out = capsys.readouterr().out
        assert "5.4.a" in out
