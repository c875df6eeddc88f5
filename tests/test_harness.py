import dataclasses
import json
import math
import os
import random
import re
import subprocess
import sys
from decimal import Decimal, localcontext

import numpy as np
import pytest

from modlavg import cli
from modlavg import harness as hs
from modlavg import lvalues as lv
from modlavg import measures as ms
from modlavg import numerics
from modlavg import padic_local as pl
from modlavg.arith import (class_number_weighted, dim_cusp_forms, dirichlet_l,
                            dump_eigenforms, load_eigenforms)
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
        ({"bins": 10 ** 4 + 1}, "bins must be <= 10000"),
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
        ({"levels": [-3]}, "level -3 is not admissible"),
        ({"interval": [1.0]}, "interval must be two numbers"),
        ({"interval": [-1.0, "2"]}, "interval must be two numbers"),
        ({"interval": [-1.0, float("nan")]}, "subinterval of [-2, 2]"),
        ({"interval": [-1.0, float("inf")]}, "subinterval of [-2, 2]"),
        ({"interval": 1.0}, "interval must be two numbers"),
        ({"interval": [1.0, -1.0]}, "subinterval of [-2, 2]"),
        ({"weight": None}, "weight must be an integer"),
        ({"data_path": 0}, "data_path must be a path or null"),
        ({"output_dir": 5}, "output_dir must be a path or null"),
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

    def test_bins_at_the_bound_run(self, cfg):
        # a run allocates bins + 1 edges and bins masses, and writes bins
        # shares per level: MAX_BINS itself runs, and one more is refused
        # when the config is built (above), before any of them
        report = hs.run_experiment(dataclasses.replace(cfg, bins=hs.MAX_BINS))
        assert len(report.proportionality["measure_masses"]) == hs.MAX_BINS == 10 ** 4

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
        # 2 * c_4 * L(1, chi) with c_4 = 80 pi and L = pi/4, at every level:
        # the assembled prediction over assembled_over_printed, which the
        # report carries in place of a per-level printed column
        assert cfg.interval == (-2.0, 2.0)
        report = hs.run_experiment(cfg)
        c = report.constants
        assert 2.0 * c["c_printed"] * c["L1"] == pytest.approx(40.0 * math.pi ** 2, rel=1e-10)
        for lvl in report.levels:
            assert lvl["prediction_assembled"] / c["assembled_over_printed"] == pytest.approx(
                40.0 * math.pi ** 2, rel=1e-10)
            assert not {"prediction_printed", "ratio_printed"} & set(lvl)

    def test_assembled_constant_value(self, cfg):
        # 4 |I_upper| / Gamma_C(2) = 4 * 4 pi * 2 pi^2 = 32 pi^3 at k = 4
        expected = 32.0 * math.pi ** 3
        assert abs(hs.assembled_constant(4) - expected) <= 2 * math.ulp(expected)

    @pytest.mark.parametrize("k", [4, 6, 8, 10, 12])
    def test_printed_constant_is_k_h_times_upper(self, k):
        # both constants carry pi d 2^k Gamma(k/2)^2 / Gamma(k) = |I_upper(0, 0)|
        from modlavg import arch_local
        upper = abs(arch_local.singular_upper_closed(k, 0.0, 0.0))
        assert arch_local.leading_constant(k) == pytest.approx(
            k * arch_local.alternating_weight_sum(k) * upper, rel=1e-13)

    @pytest.mark.parametrize("k", range(4, 42, 2))
    def test_target_within_its_budget_term(self, k):
        # 2 c_assembled L(1, chi_D) against a 50-digit reference: c_assembled
        # = (k-1) 2^k (k/2-1)! (2 pi)^(k/2) pi / (k-1)!, 32 pi^3 at k = 4, and
        # L(1, chi_D) = pi h_w(D) / sqrt|D|; identity_budget of no rows is the
        # target's term alone.  The worst case, 8.07 u at k = 30, needs more
        # than 8 units of roundoff; the log-Gamma assembly was 28 u off at
        # k = 12
        with localcontext() as ctx:
            ctx.prec = 50
            pi = Decimal("3.1415926535897932384626433832795028841971693993751")
            c = ((k - 1) * 2 ** k * math.factorial(k // 2 - 1) * (2 * pi) ** (k // 2) * pi
                 / math.factorial(k - 1))
            for D in (-3, -4, -7, -8, -11, -15, -20, -23):
                h = class_number_weighted(D)
                exact = 2 * c * pi * h.numerator / h.denominator / Decimal(-D).sqrt()
                target = 2.0 * hs.assembled_constant(k) * dirichlet_l(D, 1)
                gap = abs(Decimal(target) - exact)
                assert gap <= Decimal(hs.identity_budget([], target)), (D, k)

    @pytest.mark.parametrize("k", range(4, 22, 2))
    def test_main_term_exact_values(self, k):
        # |I_upper(0, 0)| against its Gamma closed form and its quadrature,
        # Gamma_C(k/2) against math.gamma, c_k and c_assembled against them,
        # and the audit's upper row against the target T as rationals times
        # powers of pi: row / T = (N + 1) Gamma_C(k/2) / (8 pi)
        al = hs.arch_local
        term = al.main_term(k)
        (upper, n_upper), (gamma_c, n_gamma) = term["upper"], term["gamma_c"]
        q_asm, n_asm = term["c_assembled"]
        value = float(upper) * math.pi
        assert (n_upper, n_gamma, n_asm) == (1, -k // 2, k // 2 + 1)
        assert value == pytest.approx(abs(al.singular_upper_closed(k, 0.0, 0.0)), rel=1e-13)
        assert value == pytest.approx(abs(al.singular_upper_quadrature(k, 0.0, 0.0)), rel=1e-7)
        assert float(gamma_c) * math.pi ** n_gamma == pytest.approx(
            2.0 * (2.0 * math.pi) ** (-k / 2) * math.gamma(k / 2), rel=1e-13)
        assert term["c_k"] == (k * al.alternating_weight_sum(k) * upper, 1)
        assert q_asm == 4 * upper / gamma_c
        for D, N in [(-4, 7), (-3, 5), (-7, 13), (-8, 13)]:
            # the row |I_upper| (N + 1) pi and T = 2 c_assembled pi, each
            # times h_w(D) / sqrt|D|
            h = class_number_weighted(D)
            row, target = (upper * (N + 1) * h, n_upper), (2 * q_asm * h, n_asm + 1)
            ratio = ((N + 1) * gamma_c / 8, n_gamma - 1)
            assert (row[0] / target[0], row[1] - target[1]) == ratio
            cfg = hs.ExperimentConfig(discriminant=D, weight=k, aux_prime=13, levels=[])
            audit = hs.geometric_side_audit(cfg, N)
            up = [r["value"] for r in audit["rows"] if r["orbit"] == "upper"][0]
            t = 2.0 * hs.assembled_constant(k) * dirichlet_l(D, 1)
            assert up / t == pytest.approx(float(ratio[0]) * math.pi ** ratio[1], rel=1e-14)

    def test_printed_ratio_k4(self, cfg):
        # c_assembled / c_printed = 4 / (k h(k) Gamma_C(k/2)), with h(4) = 5,
        # is 2 pi^2 / 5 at k = 4
        ratio = hs.run_experiment(cfg).constants["assembled_over_printed"]
        expected = 2.0 * math.pi ** 2 / 5.0
        assert abs(ratio - expected) <= 4 * math.ulp(expected)


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

    def test_editing_returned_rows_leaves_later_calls(self, cfg, monkeypatch):
        # spectral_sum hands out copies of the cached rows: doubling a
        # returned contribution doubled the cached one, so the next run key
        # reported twice the full sum at level 7 and failed the identity
        monkeypatch.setattr(hs, "_FORM_CACHE", {key: [dict(r) for r in rows]
                                                for key, rows in hs._FORM_CACHE.items()})
        expected = hs.run_experiment(cfg).to_json()
        value = hs.spectral_sum(cfg, 7, -2, 2)["value"]
        hs.spectral_sum(cfg, 7, -2, 2)["rows"][0]["contribution"] *= 2.0
        assert hs.spectral_sum(cfg, 7, -2, 2)["value"] == value
        assert hs.run_experiment(dataclasses.replace(cfg, bins=5)).ok
        assert hs.run_experiment(cfg).to_json() == expected

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

    def test_audit_built_once_per_level_per_run_key(self, cfg, monkeypatch):
        # the audit does not depend on J: two calls at different J build it
        # once per level, so the swapped orbits are enumerated once per level,
        # one enumeration for each of the two; another bin count is another
        # run key, which builds it again
        calls = []
        enumerate_cells = pl.brute_force_integral

        def counted(*args):
            calls.append(args)
            return enumerate_cells(*args)

        hs._run_entry.cache_clear()
        monkeypatch.setattr(pl, "brute_force_integral", counted)
        for interval in [(-1.0, 0.5), (0.2, 1.9)]:
            hs.run_experiment(dataclasses.replace(cfg, interval=interval))
        assert len(calls) == 2 * len(cfg.levels)
        for interval in [(-1.0, 0.5), (0.2, 1.9)]:
            hs.run_experiment(dataclasses.replace(cfg, interval=interval, bins=5))
        assert len(calls) == 2 * 2 * len(cfg.levels)


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
        assert sorted(report.envelope) == ["assembled"]
        assert sorted(report.envelope["assembled"]["rows"]) == [7, 11]
        assert "ok" not in json.loads(report.to_json())

    @staticmethod
    def _cold_runner(monkeypatch, tmp_path):
        # empties the harness's two per-process tables, _FORM_CACHE and the
        # run-key entries of _run_entry, its one lru_cache, so the first run
        # is cold in the harness; the exact tables of arith and lvalues (the
        # sieve, the trace tables, the Fricke and modularity rows) stay
        # warm.  Returns a runner that writes a default-config run with
        # changes and reads back its three files
        monkeypatch.setattr(hs, "_FORM_CACHE", {})
        tables = [value for value in vars(hs).values() if hasattr(value, "cache_clear")
                  and value.__module__ == hs.__name__]
        assert tables == [hs._run_entry]
        hs._run_entry.cache_clear()
        names = ("report.json", "forms.csv", "density.csv")

        def run(out, **changes):
            report = hs.run_experiment(hs.ExperimentConfig(**{
                "discriminant": -4, "weight": 4, "aux_prime": 13,
                "output_dir": str(tmp_path / out), **changes}))
            assert report.ok
            return {name: (tmp_path / out / name).read_bytes() for name in names}

        return run

    def test_warm_calls_write_the_cold_files(self, monkeypatch, tmp_path):
        # five calls at other (J, bins) fill the tables, and the default
        # config run again reads them: its three files must equal the cold
        # run's
        run = self._cold_runner(monkeypatch, tmp_path)
        cold = run("cold")
        for i, (interval, bins) in enumerate([((-1.0, 0.5), 3), ((0.2, 1.9), 7),
                                              ((-2.0, 2.0), 2), ((1.0, 1.0), 8),
                                              ((-0.3, 2.0), 4)]):
            warm = run(f"warm{i}", interval=interval, bins=bins)
            assert warm["forms.csv"] == cold["forms.csv"]
            assert warm["density.csv"] == cold["density.csv"]
        assert run("again") == cold

    def test_a_warm_call_at_another_discriminant_leaves_the_cold_files(
            self, monkeypatch, tmp_path):
        # D = -3 fills the constants table under another key (default levels
        # 2, 5 and 11); the default config must still write the cold bytes
        run = self._cold_runner(monkeypatch, tmp_path)
        cold = run("cold")
        assert hs.ExperimentConfig(discriminant=-3, weight=4,
                                   aux_prime=13).levels == [2, 5, 11]
        other = run("other", discriminant=-3)
        assert other["report.json"] != cold["report.json"]
        assert other["density.csv"] == cold["density.csv"]  # p = 13 alone
        assert run("again") == cold

    @staticmethod
    def _dumped(report) -> str:
        # the standard library's text of the returned report
        return json.dumps(dataclasses.asdict(report), indent=2, sort_keys=True) + "\n"

    def test_warm_calls_write_the_report_they_return(self, monkeypatch, tmp_path):
        # 200 seeded calls over three level lists, bins 1 to 40 and J of
        # every kind (float and int ends, all of [-2, 2], a point, a J no
        # form lies in); the frames of 120 (levels, bins) keys cycle through
        # the bounded table.  Each written report.json is the standard
        # library's text of the report the call returns, and forms.csv is
        # the cold call's of its levels
        self._cold_runner(monkeypatch, tmp_path)
        rng = random.Random(43)
        out = tmp_path / "out"
        level_lists = ([3, 7, 11], [7, 11], [])
        cold_forms = {}
        for levels in level_lists:
            hs.run_experiment(hs.ExperimentConfig(
                discriminant=-4, weight=4, aux_prime=13, levels=levels,
                output_dir=str(out)))
            cold_forms[tuple(levels)] = (out / "forms.csv").read_bytes()
        a_ps = sorted(r["a_p"] for N in (7, 11) for r in hs._level_rows(
            hs.ExperimentConfig(discriminant=-4, weight=4, aux_prime=13), N))
        empty = ((a_ps[0] + a_ps[1]) / 2.0, (2.0 * a_ps[1] + a_ps[0]) / 3.0)
        fixed = [(-2.0, 2.0), (-2, 2), (0, 1.5), (0.25, 0.25), empty]
        for i in range(200):
            interval = (fixed[i] if i < len(fixed)
                        else tuple(sorted(rng.uniform(-2.0, 2.0) for _ in range(2))))
            bins = 1 if i % 10 == 0 else 40 if i % 10 == 1 else rng.randint(1, 40)
            levels = level_lists[i % 3]
            report = hs.run_experiment(hs.ExperimentConfig(
                discriminant=-4, weight=4, aux_prime=13, levels=list(levels),
                interval=interval, bins=bins, output_dir=str(out)))
            if interval == empty and levels:
                assert [lvl["spectral_interval"] for lvl in report.levels] == [0.0] * len(levels)
            assert (out / "report.json").read_text(encoding="utf-8") == self._dumped(report)
            assert (out / "forms.csv").read_bytes() == cold_forms[tuple(levels)]
        info = hs._run_entry.cache_info()  # frames reused, and evicted
        assert info.hits > 0 and info.misses > info.maxsize

    def test_replaced_rows_are_written(self, monkeypatch, tmp_path):
        # the rows are replaced under an unchanged config: a new _FORM_CACHE
        # whose norms are twice the old.  The written files show the new
        # rows, which a frame keyed on the config alone would not, and the
        # run key's entry is rebuilt: the full sums, the bin shares' full
        # sums and the envelope are the new rows', which miss the target
        cfg = hs.ExperimentConfig(discriminant=-4, weight=4, aux_prime=13,
                                  output_dir=str(tmp_path))
        old = hs.run_experiment(cfg)
        norm = hs.petersson_norm
        monkeypatch.setattr(hs, "_FORM_CACHE", {})
        monkeypatch.setattr(hs, "petersson_norm", lambda form: 2.0 * norm(form))
        new = hs.run_experiment(cfg)
        assert [r["norm"] for lvl in new.levels for r in lvl["forms"]] == [
            2.0 * r["norm"] for lvl in old.levels for r in lvl["forms"]]
        full = [math.fsum(r["contribution"] for r in lvl["forms"]) for lvl in new.levels]
        assert [lvl["spectral_full"] for lvl in new.levels] == full
        assert [new.proportionality["levels"][N]["full"] for N in cfg.levels] == full
        assert old.ok and new.envelope["assembled"]["violations"] == [7, 11]
        assert (tmp_path / "report.json").read_text(encoding="utf-8") == self._dumped(new)
        forms = (tmp_path / "forms.csv").read_text().splitlines()[1:]
        assert [float(line.split(",")[5]) for line in forms] == [
            r["norm"] for lvl in new.levels for r in lvl["forms"]]

    def test_a_negative_zero_contribution_is_written_as_such(self, cfg, monkeypatch, tmp_path):
        # rows with a contribution 0.0, then the same rows with -0.0: the
        # two compare equal, but the second run must write -0.0
        run_cfg = dataclasses.replace(cfg, output_dir=str(tmp_path))
        written = []
        for zero in (0.0, -0.0):
            cache = {}
            for N in cfg.levels:
                rows = [dict(r) for r in hs._level_rows(cfg, N)]
                if N == 7:
                    rows[0]["contribution"] = zero
                cache[hs._form_key(cfg, N)] = rows
            monkeypatch.setattr(hs, "_FORM_CACHE", cache)
            report = hs.run_experiment(run_cfg)
            written.append((tmp_path / "report.json").read_text(encoding="utf-8"))
            assert written[-1] == self._dumped(report)
            line = (tmp_path / "forms.csv").read_text().splitlines()[1]
            assert line.startswith("7,7.4.a,") and line.endswith("," + repr(zero))
        assert ['"contribution": -0.0' in text for text in written] == [False, True]

    def test_printed_constant_past_the_floats_is_null(self, cfg, monkeypatch, tmp_path):
        # c_k overflows a float from k = 170 on, while the gated c_assembled
        # stays a normal float: the run goes on, with c_printed and the
        # exact ratio (no float from k = 150 on) written null and the
        # ledger's printed-constant line saying why
        report = hs.run_experiment(hs.ExperimentConfig(
            discriminant=-4, weight=170, aux_prime=13, levels=[],
            output_dir=str(tmp_path / "k170")))
        c = report.constants
        assert c["c_printed"] is None and c["assembled_over_printed"] is None
        assert 2.0 ** -1022 <= c["c_assembled"] < math.inf
        assert len(report.normalization_ledger) == 6
        assert report.normalization_ledger[3] == (
            "printed constant c_k (combinatorial closed form); c_k overflows a float "
            "at weight k = 170, so c_printed is null; assembled_over_printed "
            "underflows a float at weight k = 170, so it is null")
        text = (tmp_path / "k170" / "report.json").read_text(encoding="utf-8")
        assert text == self._dumped(report) and '"c_printed": null' in text
        # the per-level rows, at k = 4 with c_k refused as at k = 170: the
        # exact ratio does not read c_k's float, and the gate reads
        # c_assembled alone
        expected = hs.run_experiment(cfg)

        def refused(k):
            raise hs.DomainError(f"c_k overflows a float at weight k = {k}")

        monkeypatch.setattr(hs.arch_local, "leading_constant", refused)
        self._cold_runner(monkeypatch, tmp_path)
        try:
            report = hs.run_experiment(dataclasses.replace(cfg, output_dir=str(tmp_path / "k4")))
        finally:  # no later test may read the null constant or its frame
            hs._run_entry.cache_clear()
        assert report.ok and report.constants["c_printed"] is None
        assert report.constants["assembled_over_printed"] == \
            expected.constants["assembled_over_printed"]
        for lvl, before in zip(report.levels, expected.levels):
            assert lvl == before
        text = (tmp_path / "k4" / "report.json").read_text(encoding="utf-8")
        assert text == self._dumped(report)

    def test_a_warm_frame_renders_only_its_slots(self, cfg, monkeypatch, tmp_path):
        # at a (run key, bins) already seen, the write renders the 18
        # J-dependent leaves (the ends of J, its mass, five per level) and
        # nothing else: json.dumps sees only the leaves that are no finite
        # float, here the int ends of J and the null share of level 3, which
        # has no forms
        run_cfg = dataclasses.replace(cfg, output_dir=str(tmp_path))
        hs.run_experiment(dataclasses.replace(run_cfg, interval=(-1.0, 0.5)))
        calls = []
        dumps = json.dumps

        def counted(obj, *args, **kwargs):
            calls.append(obj)
            return dumps(obj, *args, **kwargs)

        monkeypatch.setattr(hs.json, "dumps", counted)
        report = hs.run_experiment(dataclasses.replace(run_cfg, interval=(0, 1)))
        leaves = hs._j_leaves(report)
        assert len(leaves) == 3 + 5 * len(cfg.levels) == 18
        assert calls == [leaf for leaf in leaves if type(leaf) is not float] == [0, 1, None]
        monkeypatch.undo()
        assert (tmp_path / "report.json").read_text(encoding="utf-8") == self._dumped(report)

    def test_warm_call_computes_no_constant(self, cfg, monkeypatch):
        # L(1, chi_D), the main term's floats and the density table do not
        # depend on J: a warm call reads them from its run key's entry
        expected = hs.run_experiment(cfg).to_json()
        calls = []
        for module, name in [(hs, "dirichlet_l"), (hs.arch_local, "main_term"),
                             (ms, "density_csv")]:
            def counted(*args, name=name, original=getattr(module, name)):
                calls.append(name)
                return original(*args)
            monkeypatch.setattr(module, name, counted)
        assert hs.run_experiment(cfg).to_json() == expected
        assert calls == []

    def test_warm_call_recomputes_no_share_sum_or_envelope(self, monkeypatch, tmp_path):
        # the bin shares, the full sums, the identity envelope, the measure,
        # the audits, the constants and the density table do not depend on
        # J: after one call at another J, a warm call reads them from its
        # run key's entry, and its report and files are a cold run's
        run = self._cold_runner(monkeypatch, tmp_path)
        cold = run("cold", interval=(0.2, 1.9), bins=5)
        run = self._cold_runner(monkeypatch, tmp_path)
        run("other", interval=(-1.0, 0.5), bins=5)
        calls = []

        def counted(name, original):
            def call(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            return call

        for module, name in [(hs, "proportionality_test"), (hs, "identity_budget"),
                             (hs, "identity_check"), (ms, "SatakeMeasure"),
                             (hs, "geometric_side_audit"), (hs, "dirichlet_l"),
                             (hs.arch_local, "leading_constant"), (ms, "density_csv")]:
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        assert run("warm", interval=(0.2, 1.9), bins=5) == cold
        assert calls == []

    def test_editing_a_warm_report_leaves_the_written_files(self, monkeypatch, tmp_path):
        # every list and dict of a warm report is changed in place: the bin
        # shares and masses, the envelope's rows and violations, the audit
        # rows, the forms rows, the config's levels and the ledger.  The
        # next warm call, the run key's first write, must still write the
        # cold run's three files
        cold = self._cold_runner(monkeypatch, tmp_path)("cold")
        run = self._cold_runner(monkeypatch, tmp_path)
        config = hs.ExperimentConfig(discriminant=-4, weight=4, aux_prime=13)
        hs.run_experiment(dataclasses.replace(config, interval=(-1.0, 0.5)))
        report = hs.run_experiment(config)
        edited = []

        def edit(obj):
            edited.append(obj)
            for key in (list(obj) if isinstance(obj, dict) else range(len(obj))):
                if isinstance(obj[key], (dict, list)):
                    edit(obj[key])
                else:
                    obj[key] = "edited"
            if isinstance(obj, dict):
                obj["edited"] = "edited"
            else:
                obj.append("edited")

        for field in dataclasses.fields(report):
            edit(getattr(report, field.name))
        prop, env = report.proportionality, report.envelope["assembled"]
        assert prop["levels"][7]["shares"][0] == prop["measure_masses"][0] == "edited"
        assert env["rows"][7]["budget"] == env["violations"][-1] == "edited"
        assert report.levels[1]["audit"]["rows"][0]["value"] == "edited"
        assert report.levels[1]["forms"][0]["contribution"] == "edited"
        assert report.config["levels"][-1] == report.normalization_ledger[0] == "edited"
        assert len(edited) > 40
        assert run("again") == cold

    def test_warm_call_runs_no_quadrature(self, monkeypatch, tmp_path):
        # the masses of J and of the bins are closed forms: after one cold
        # call, a warm call at a (J, bins) pair not seen before integrates
        # nothing, through the measures' helper or any binding of the rule
        run = self._cold_runner(monkeypatch, tmp_path)
        run("cold")

        def refuse(*args, **kwargs):
            raise AssertionError("quadrature on the warm path")

        monkeypatch.setattr(ms, "_integrate_against", refuse)
        rule = numerics.integrate
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "modlavg" and getattr(module, "integrate", None) is rule:
                monkeypatch.setattr(module, "integrate", refuse)
        assert numerics.integrate is refuse
        warm = json.loads(run("warm", interval=(-0.37, 1.61), bins=11)["report.json"])
        assert len(warm["proportionality"]["measure_masses"]) == 11

    def test_longer_files_are_replaced_without_a_stale_tail(self, tmp_path):
        names = ("report.json", "forms.csv", "density.csv")
        cfg = hs.ExperimentConfig(discriminant=-4, weight=4, aux_prime=13,
                                  output_dir=str(tmp_path / "fresh"))
        hs.run_experiment(cfg)
        fresh = {name: (tmp_path / "fresh" / name).read_bytes() for name in names}
        (tmp_path / "old").mkdir()
        for name in names:
            assert len(fresh[name]) < 30_000
            (tmp_path / "old" / name).write_bytes(b"x" * 30_000)
        hs.run_experiment(dataclasses.replace(cfg, output_dir=str(tmp_path / "old")))
        for name in names:
            assert (tmp_path / "old" / name).read_bytes() == fresh[name]

    def test_warm_calls_into_one_directory_leave_the_fresh_bytes(self, tmp_path):
        # each warm call rewrites the same three files at another length;
        # the last one, on the default config, must leave a fresh run's bytes
        names = ("report.json", "forms.csv", "density.csv")
        cfg = hs.ExperimentConfig(discriminant=-4, weight=4, aux_prime=13,
                                  output_dir=str(tmp_path / "fresh"))
        hs.run_experiment(cfg)
        shared = dataclasses.replace(cfg, output_dir=str(tmp_path / "shared"))
        sizes = set()
        for interval, bins in [((-1.0, 0.5), 3), ((0.2, 1.9), 7),
                               ((-2.0, 2.0), 2), ((1.0, 1.0), 40)]:
            hs.run_experiment(dataclasses.replace(shared, interval=interval,
                                                  bins=bins))
            sizes.add((tmp_path / "shared" / "report.json").stat().st_size)
        assert len(sizes) > 1
        hs.run_experiment(shared)
        for name in names:
            assert ((tmp_path / "shared" / name).read_bytes()
                    == (tmp_path / "fresh" / name).read_bytes())

    def test_short_writes_leave_the_fresh_bytes(self, monkeypatch, tmp_path):
        # os.write may write less than it is given; _replace loops until
        # every byte is down, over files both fresh and longer than the new
        names = ("report.json", "forms.csv", "density.csv")
        cfg = hs.ExperimentConfig(discriminant=-4, weight=4, aux_prime=13,
                                  output_dir=str(tmp_path / "fresh"))
        hs.run_experiment(cfg)
        fresh = {name: (tmp_path / "fresh" / name).read_bytes() for name in names}
        assert max(len(data) for data in fresh.values()) > 3 * 4096
        write, sizes = os.write, []

        def short_write(fd, data):
            sizes.append(len(data))
            return write(fd, bytes(data[:4096]))

        monkeypatch.setattr(os, "write", short_write)
        (tmp_path / "old").mkdir()
        for name in names:
            (tmp_path / "old" / name).write_bytes(b"x" * 40_000)
        for out in ("short", "old"):
            hs.run_experiment(dataclasses.replace(cfg, output_dir=str(tmp_path / out)))
            for name in names:
                assert (tmp_path / out / name).read_bytes() == fresh[name]
        assert sum(1 for size in sizes if size > 4096) > 3

    def test_non_ascii_label_is_written_as_utf8(self, tmp_path):
        forms = load_eigenforms(hs.default_data_path())
        renamed = [dataclasses.replace(f, label="7.4.é") if f.level == 7 else f
                   for f in forms]
        assert sum(f.level == 7 for f in forms) == 1
        path = tmp_path / "forms.jsonl"
        dump_eigenforms(renamed, path)
        hs.run_experiment(hs.ExperimentConfig(
            discriminant=-4, weight=4, aux_prime=13, data_path=str(path),
            output_dir=str(tmp_path / "out")))
        rows = (tmp_path / "out" / "forms.csv").read_bytes().splitlines()
        assert [row for row in rows if row.startswith(b"7,")][0].startswith(
            "7,7.4.é,".encode("utf-8"))
        report = (tmp_path / "out" / "report.json").read_bytes()
        assert b'"7.4.\\u00e9"' in report and report.isascii()

    def test_editing_a_report_leaves_the_next_call_alone(self, cfg):
        first = hs.run_experiment(cfg)
        expected = first.to_json()
        containers = []

        def collect(obj):
            if isinstance(obj, (dict, list)):
                containers.append(obj)
                for item in (obj.values() if isinstance(obj, dict) else obj):
                    collect(item)

        for field in dataclasses.fields(first):
            collect(getattr(first, field.name))
        for obj in containers:
            obj.clear()
        assert hs.run_experiment(cfg).to_json() == expected


def _stdlib_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


class TestReportWriter:
    @pytest.mark.parametrize("changes", [
        {},
        {"interval": (-1.0, 0.5), "bins": 3},
        {"interval": (0.2, 1.9), "bins": 7},
        {"interval": (-2.0, 2.0), "bins": 2},
        {"interval": (1.0, 1.0), "bins": 8},
        {"interval": (-0.3, 2.0), "bins": 40},
        {"bins": 1},
        {"levels": []},
    ], ids=["default", "J1", "J2", "J3", "J4", "J5", "one-bin", "no-levels"])
    def test_report_bytes_equal_json_dumps(self, cfg, changes):
        report = hs.run_experiment(dataclasses.replace(cfg, **changes))
        payload = {field.name: getattr(report, field.name)
                   for field in dataclasses.fields(report)}
        assert report.to_json() == _stdlib_json(payload)

    @pytest.mark.parametrize("k", [138, 148, 150, 156, 168, 170, 396])
    def test_large_weight_numbers_are_normal_or_null(self, k, tmp_path):
        # every reported number is a normal float, or null with its reason
        # in the ledger: the ratio was subnormal at k = 150 and 0.0 at 156
        # and 168, and the ledger's float of Gamma_C(k/2) refused k = 396
        report = hs.run_experiment(hs.ExperimentConfig(
            discriminant=-4, weight=k, aux_prime=13, levels=[], output_dir=str(tmp_path)))
        payload = {field.name: getattr(report, field.name)
                   for field in dataclasses.fields(report)}
        assert report.to_json() == _stdlib_json(payload)
        assert (tmp_path / "report.json").read_text(encoding="utf-8") == \
            _stdlib_json(payload) + "\n"
        c, printed = report.constants, report.normalization_ledger[3]
        nulls = {"c_printed": f"c_k overflows a float at weight k = {k}, so c_printed is null",
                 "assembled_over_printed": "assembled_over_printed underflows a float "
                                           f"at weight k = {k}, so it is null"}
        for name, reason in nulls.items():
            if c[name] is None:
                assert reason in printed
            else:
                assert 2.0 ** -1022 <= c[name] < math.inf and reason not in printed
        assert [name for name in nulls if c[name] is None] == (
            [] if k < 150 else ["assembled_over_printed"] if k < 170 else list(nulls))
        gamma_c = hs.arch_local._pi_text(hs.arch_local.main_term(k)["gamma_c"])
        assert report.normalization_ledger[4].endswith(f"Gamma_C(k/2) = {gamma_c}")

    @pytest.mark.parametrize("value", [np.int64(7), object()],
                             ids=["np.int64", "object"])
    def test_other_types_raise_type_error(self, cfg, value):
        # _frame's default= hook turns _SLOT into the marker and refuses any
        # other type, as json.dumps does without it
        assert hs._slot_text(hs._SLOT) == "\0"
        with pytest.raises(TypeError, match="is not JSON serializable"):
            hs._slot_text(value)
        report = hs.run_experiment(cfg)
        report.levels[0]["audit"]["rows"][0]["value"] = value
        for render in (report.to_json, lambda: hs._frame(report._payload())):
            with pytest.raises(TypeError, match="is not JSON serializable"):
                render()


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
            return hs.identity_check(sums, budgets, target)["assembled"]

        assert check()["ok"]
        for N, values in contributions.items():
            for i in range(len(values)):
                out = check(N, i)
                assert not out["ok"]
                assert out["violations"] == [N]

    def test_nonpositive_sum_fails(self, cfg):
        c = hs.run_experiment(cfg).constants
        # a budget wide enough to pass any deviation does not pass S_N <= 0
        out = hs.identity_check({7: 0.0, 11: 1.0}, {7: 1e300, 11: 1e300},
                                2.0 * c["c_assembled"] * c["L1"])["assembled"]
        assert out["violations"] == [7]
        assert not out["ok"]

    def test_inaccurate_central_value_refused(self, cfg, monkeypatch):
        # a 1e-12 AFE-vs-Mellin gap exceeds CENTRAL_WITNESS_TOL, the relative
        # error the identity budget states for each central value
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
        # both central values of 7.4.a pass one spread check, so the
        # untwisted one is refused first
        with pytest.raises(AccuracyError, match=r"7\.4\.a.*: split-point spread"):
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


def test_weight_6_reaches_the_gate_and_fails_there(tmp_path):
    # no weight is refused before the gate; at k = 6 the sums miss the
    # assembled target by a factor (2 pi)^(k/2 - 2) / Gamma(k/2) = pi, which
    # the gate sees at both levels, and the CLI exits 1, not 2
    path = tmp_path / "forms_k6.jsonl"
    dump_eigenforms(newforms(7, 6, 800) + newforms(11, 6, 800), path)
    rep = hs.run_experiment(hs.ExperimentConfig(
        discriminant=-4, weight=6, aux_prime=13, levels=[7, 11],
        data_path=str(path)))
    assert rep.envelope["assembled"]["violations"] == [7, 11]
    assert not rep.ok
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "discriminant": -4, "weight": 6, "aux_prime": 13, "levels": [7, 11],
        "data_path": str(path), "output_dir": str(tmp_path / "out")}))
    assert cli.main(["average", "--config", str(config)]) == 1


class TestCLI:
    def test_constants(self, capsys):
        # the exact forms next to the floats the report carries
        for k, h, forms in [(4, 5, ("80*pi", "32*pi^3", "2/5*pi^2")),
                            (6, 109, ("3488*pi", "128/3*pi^4", "4/327*pi^3"))]:
            assert cli.main(["constants", "--k", str(k)]) == 0
            lines = capsys.readouterr().out.splitlines()
            assert f"h(k) = {h}" in lines[0]
            c_k, c_asm = hs.arch_local.leading_constant(k), hs.assembled_constant(k)
            ratio = hs.run_experiment(hs.ExperimentConfig(
                discriminant=-4, weight=k, aux_prime=13, levels=[])).constants[
                    "assembled_over_printed"]
            assert lines[1:] == [f"c_k = {forms[0]} = {c_k!r}",
                                 f"c_assembled = {forms[1]} = {c_asm!r}",
                                 f"c_assembled/c_k = {forms[2]} = {ratio!r}"]
        # past the floats a reported-only constant prints its exact form and
        # the reason, as the report writes it null; the exit stays 0
        for k, refused in [(150, {"c_assembled/c_k": "underflows"}),
                           (160, {"c_assembled/c_k": "underflows"}),
                           (170, {"c_k": "overflows", "c_assembled/c_k": "underflows"})]:
            assert cli.main(["constants", "--k", str(k)]) == 0
            lines = capsys.readouterr().out.splitlines()
            assert len(lines) == 4
            term = hs.arch_local.main_term(k)
            for line, (name, key) in zip(lines[1:], [
                    ("c_k", "c_k"), ("c_assembled", "c_assembled"),
                    ("c_assembled/c_k", "assembled_over_printed")]):
                head = f"{name} = {hs.arch_local._pi_text(term[key])} "
                tail = (f"({name} {refused[name]} a float at weight k = {k})"
                        if name in refused else
                        f"= {hs.arch_local._pi_float(term[key], name, k)!r}")
                assert line == head + tail
                assert not line.endswith("= 0.0")

    def test_measures_table(self, capsys):
        assert cli.main(["measures", "--p", "3", "--delta", "-1",
                         "--max-n", "3"]) == 0
        out = capsys.readouterr().out
        assert "ok" in out
        assert out.splitlines()[1].startswith("mass = 1.0   quadrature ")

    def test_measures_exits_1_when_the_mass_leaves_its_oracle(self, capsys, monkeypatch):
        monkeypatch.setattr(ms, "mass", lambda m: 1.0 + 2e-14)
        assert cli.main(["measures", "--p", "3", "--delta", "-1", "--max-n", "3"]) == 1
        assert "FAIL" in capsys.readouterr().out.splitlines()[1]

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

    def test_aux_prime_past_the_stored_coefficients_exits_2(self, tmp_path):
        # a_2003 of a form with 2000 coefficients raised IndexError: exit 1
        # with a traceback
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"discriminant": -4, "weight": 4,
                                      "aux_prime": 2003, "levels": [7, 11]}))
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        run = subprocess.run(
            [sys.executable, "-m", "modlavg.cli", "average", "--config", str(config)],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
            cwd=tmp_path, timeout=120)
        assert run.returncode == 2
        assert run.stderr.splitlines() == [
            "modlavg average: InsufficientCoefficients: 7.4.a: c_2003 is past the "
            "stored coefficients (n = 2003, n_max = 2000)"], run.stderr

    def test_config_not_utf8_exits_2_with_one_line(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_bytes('{"discriminant": -4, "weight": 4, "aux_prime": 13, '
                         '"output_dir": "d\u00e9j\u00e0"}'.encode("latin-1"))
        with pytest.raises(InvariantViolation, match=f"^{re.escape(str(path))}: "):
            hs.ExperimentConfig.from_file(path)
        assert cli.main(["average", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"{path}: parse error" in err, err

    def test_data_file_not_utf8_exits_2_with_one_line(self, tmp_path, capsys):
        data = tmp_path / "forms.jsonl"
        data.write_bytes(b"\n" + '{"label": "\u00e9"}\n'.encode("latin-1"))
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"discriminant": -4, "weight": 4, "aux_prime": 13,
                                      "levels": [7, 11], "data_path": str(data)}))
        assert cli.main(["average", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"{data}:2: not UTF-8" in err, err

    def test_verify_local_non_prime_exits_2(self, tmp_path):
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        run = subprocess.run(
            [sys.executable, "-m", "modlavg.cli", "verify-local", "--q", "4"],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
            cwd=tmp_path, timeout=120)
        assert run.returncode == 2
        assert run.stderr.splitlines() == [
            "modlavg verify-local: DomainError: N = 4 is not prime"], run.stderr

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
        pytest.param(["verify-arch", "--s1", "nan"], id="verify-arch --s1 nan"),
        pytest.param(["verify-arch", "--s1", "inf"], id="verify-arch --s1 inf"),
        pytest.param(["constants", "--k", "526"], id="constants --k 526"),
        pytest.param(["verify-arch", "--k", "1100"], id="verify-arch --k 1100"),
        pytest.param(["verify-arch", "--s1", "0.6", "--s2", "0.5"],
                     id="verify-arch --s1 0.6 --s2 0.5"),
        *(pytest.param(["lvalues", "--forms", hs.default_data_path(), "--twist", D],
                       id=f"lvalues --twist {D}") for D in ("1", "0", "-12", "5", "-20")),
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
