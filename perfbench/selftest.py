"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/selftest.py

The perturbation tests show that every output check fails on a slightly
wrong input and passes on the reference.  The smoke tests run every
workload once at the smallest size (--seconds 1) and the traced run once,
which takes a few minutes; select them with ``-k smoke``.  The file is not
named test_*.py, so the repository's own test run does not collect it.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import child  # noqa: E402
import inputs  # noqa: E402
import pace  # noqa: E402

with open(os.path.join(HERE, "reference.json"), "r", encoding="utf-8") as _fh:
    REFERENCE = json.load(_fh)
with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)
DATA = os.path.join(ROOT, "src", "modlavg", "data", "eigenforms_k4.jsonl")


@pytest.fixture
def report():
    return copy.deepcopy(REFERENCE["report"])


def level_row(report, N):
    return next(lvl for lvl in report["levels"] if lvl["level"] == N)


# ---------------------------------------------------------------------------
# each check passes on the reference and fails on a perturbed input
# ---------------------------------------------------------------------------

def test_reference_passes_every_report_check(report):
    assert checks.check_identity(report) == []
    assert checks.check_fricke(report, checks.stored_fricke_signs(DATA)) == []
    assert checks.check_interval(report) == []


def test_identity_fails_when_level_7_is_scaled(report):
    level_row(report, 7)["spectral_full"] *= 1.0 + 3e-9
    problems = checks.check_identity(report)
    assert any("level 7: identity deviation" in p for p in problems)
    assert any("level 7: S_N / (2 c_printed L1)" in p for p in problems)


def test_identity_fails_on_a_wrong_l_value(report):
    report["constants"]["L1"] *= 1.0 + 1e-10
    assert checks.check_identity(report)


def test_fricke_fails_on_a_flipped_sign(report):
    row = level_row(report, 11)["forms"][0]
    row["fricke"] = -row["fricke"]
    problems = checks.check_fricke(report, checks.stored_fricke_signs(DATA))
    assert problems == [f"{row['label']}: measured Fricke sign {row['fricke']}, "
                        f"stored {-row['fricke']}"]


def test_interval_fails_on_a_wrong_interval_sum(report):
    level_row(report, 11)["spectral_interval"] *= 1.0 + 1e-9
    assert checks.check_interval(report)


def test_interval_fails_on_missing_bin(report):
    shares = report["proportionality"]["levels"]["7"]["shares"]
    report["proportionality"]["levels"]["7"]["shares"] = shares[:-1]
    assert checks.check_interval(report)


def forms_text():
    lines = ["level,label,a_p,central,central_twisted,norm,contribution"]
    for key, cols in REFERENCE["forms"].items():
        level, label = key.split("/")
        lines.append(",".join([level, label] + [repr(cols[c]) for c in
                     ("a_p", "central", "central_twisted", "norm", "contribution")]))
    return "\n".join(lines) + "\n"


def test_forms_drift_fails_past_its_tolerance():
    assert checks.forms_drift(forms_text(), REFERENCE["forms"]) == []
    norm = REFERENCE["forms"]["7/7.4.a"]["norm"]
    text = forms_text().replace(repr(norm), repr(norm * (1 + 1e-7)))
    assert checks.forms_drift(text, REFERENCE["forms"]) == []
    text = forms_text().replace(repr(norm), repr(norm * (1 + 1e-5)))
    problems = checks.forms_drift(text, REFERENCE["forms"])
    assert len(problems) == 1 and problems[0].startswith("7/7.4.a: norm = ")


def test_report_drift_sees_a_changed_number(report):
    forms = forms_text().encode()
    same = checks.report_drift(json.dumps(report).encode(), forms, REFERENCE)
    assert same["max_rel_drift"] == 0.0 and same["unmatched_paths"] == 0
    level_row(report, 11)["forms"][1]["norm"] *= 1.0 + 1e-12
    moved = checks.report_drift(json.dumps(report).encode(), forms, REFERENCE)
    assert not moved["report_identical"] and 5e-13 < moved["max_rel_drift"] < 2e-12


def test_sweep_outputs_fail_on_a_changed_byte(tmp_path, report):
    files = {"report.json": json.dumps(report).encode(),
             "forms.csv": forms_text().encode(), "density.csv": b"x,split\n0.0,1.0\n"}
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    stored = checks.stored_fricke_signs(DATA)
    assert child.check_sweep_outputs(str(tmp_path), stored, files) == []
    changed = dict(files, **{"density.csv": b"x,split\n0.0,1.5\n"})
    assert child.check_sweep_outputs(str(tmp_path), stored, changed) == [
        "density.csv differs from the cold call's"]


def test_oracle_checks_fail_past_the_suite_tolerances():
    assert checks.check_singular(4, 0.0, 0.0, 1.0 + 0.5e-6, 1.0) == []
    assert checks.check_singular(4, 0.0, 0.0, 1.0 + 2e-6, 1.0)
    assert checks.check_regular(4, 0.5, 0.05, 0.05, 1j * (1.0 + 0.5e-5), 1j) == []
    assert checks.check_regular(4, 0.5, 0.05, 0.05, 1j * (1.0 + 2e-5), 1j)
    assert checks.check_padic("q=3", {(1, 0): 4}, {(1, 0): 4}) == []
    assert checks.check_padic("q=3", {(1, 0): 4}, {(1, 0): 5})


def reference_table():
    return {int(N): {m: tr for m, tr in enumerate(values, start=1) if tr is not None}
            for N, values in REFERENCE["traces"].items()}


def dims():
    return {N: table[1] for N, table in reference_table().items()}


def test_trace_checks_fail_on_an_off_by_one():
    table = reference_table()
    oracle = {7: {m: table[7][m] for m in (1, 2, 3)}}
    assert checks.check_traces(table, dims(), REFERENCE["traces"], oracle) == []
    table[43][97] += 1
    assert checks.check_traces(table, dims(), REFERENCE["traces"], oracle) == [
        f"level 43: Tr T_97 = {table[43][97]}, reference {table[43][97] - 1}"]
    table = reference_table()
    table[59][1] += 1
    assert len(checks.check_traces(table, dims(), REFERENCE["traces"], oracle)) == 2
    table = reference_table()
    wrong_oracle = {7: {2: table[7][2] + 1}}
    assert checks.check_traces(table, dims(), REFERENCE["traces"], wrong_oracle)


def test_inputs_depend_only_on_the_seed():
    assert inputs.oracle_grid(3) == inputs.oracle_grid(3)
    assert inputs.oracle_grid(3) != inputs.oracle_grid(4)
    assert inputs.trace_pairs(5, 50) == inputs.trace_pairs(5, 50)
    draws = inputs.sweep_calls(7)
    first = [next(draws) for _ in range(20)]
    draws = inputs.sweep_calls(7)
    assert first == [next(draws) for _ in range(20)]
    assert all(-2.0 <= lo <= hi <= 2.0 and 2 <= bins <= 8 for lo, hi, bins in first)


def test_part_medians_takes_each_part_at_its_median():
    assert pace.part_medians([[1.0, 5.0], [3.0, 4.0], [2.0, 9.0]]) == 7.0
    assert pace.part_medians([[0.5, 0.25]]) == 0.75


def test_scale_uses_the_samples_within_a_span_and_nets_out_the_handler():
    nominal = pace.REF_NOMINAL_S
    # (stamp, loop, handler): the loop ran at twice the nominal time
    samples = [(t, 2 * nominal, 0.01) for t in (10.0, 10.5, 11.0, 11.5, 12.0, 12.5)]
    assert pace.net(samples, 10.2, 11.2) == 1.0 - 2 * 0.01
    assert abs(pace.scale(samples, 10.0, 12.5) - (2.5 - 6 * 0.01) / 2) < 1e-12
    # a span with fewer than MIN_SAMPLES inside takes the nearest ones
    slow = samples + [(30.0, 8 * nominal, 0.0)]
    assert pace.scale(slow, 11.0, 11.1) == pace.scale(samples, 11.0, 11.1)


def test_sampler_samples_while_work_runs():
    sampler = pace.Sampler().start()
    try:
        end = time.monotonic() + 0.4
        while time.monotonic() < end:
            sum(range(1000))
    finally:
        samples = sampler.stop()
    assert len(samples) >= 4
    assert all(0 < loop <= spent for _, loop, spent in samples)


def test_oracle_grid_times_every_part():
    grid = inputs.oracle_grid(2)
    grid = dict(grid, regular=grid["regular"][1:], padic=grid["padic"][:30])
    sampler = pace.Sampler().start()
    try:
        clock = pace.PartClock(sampler)
        found, _, _ = child.run_oracle_grid(grid, clock)
    finally:
        sampler.stop()
    assert found == []
    # 3 upper singular, 1 lower, 1 regular, the negative axis, 2 p-adic blocks
    assert len(clock.raw) == len(clock.scaled) == 8
    assert all(t > 0 for t in clock.raw + clock.scaled)


# ---------------------------------------------------------------------------
# smoke: every workload once, the traced run once, and the refusal
# ---------------------------------------------------------------------------

def run_benchmark(cwd, *args):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=400)
    return proc


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_smoke_workload(workload):
    proc = run_benchmark(ROOT, "--workload", workload, "--seed", "1",
                         "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stdout
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_smoke_traced_run():
    proc = run_benchmark(ROOT, "--workload", "oracles", "--seed", "1",
                         "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stdout
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    layer = {name: m["value"] for name, m in result["metrics"].items()}
    assert layer["arith.load_eigenforms.calls"] == 1
    assert layer["lvalues.petersson_norm.calls"] == 3
    assert layer["lvalues.fricke_sign.calls"] == 3


def test_smoke_refuses_outside_a_checkout(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_benchmark(tmp_path, "--workload", "oracles", "--seed", "1",
                         "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
