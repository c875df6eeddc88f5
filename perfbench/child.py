"""Work that runs in a fresh interpreter, one process at a time.

    python3 child.py <mode> <args.json>

The parent sets PYTHONPATH to the checkout's ``src`` and pins thread
counts.  Each mode reads its arguments from the JSON file and writes its
result, a JSON object, to ``args["result"]``.  Every mode but the layer
profile runs a pace.Sampler from its start and scales its times by it.
``time.monotonic`` stamps are comparable with the parent's, so the parent
can time from the moment it spawned the child and scale that time by the
samples the child returns.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import runpy
import statistics
import sys
import time

import checks
import inputs
import pace
from tracing import Tracer, instrument

HERE = os.path.dirname(os.path.abspath(__file__))
MAX_PROBLEMS = 20
TRACE_CHUNK = 100   # (N, m) pairs timed together in the trace table
PADIC_BLOCK = 26    # p-adic enumerations timed together in the oracle grid


def load_reference() -> dict:
    with open(os.path.join(HERE, "reference.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def read_outputs(out_dir: str) -> dict:
    out = {}
    for name in ("report.json", "forms.csv", "density.csv"):
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = fh.read()
    return out


def report_problems(report: dict, stored_signs: dict) -> list:
    return (checks.check_identity(report) + checks.check_fricke(report, stored_signs)
            + checks.check_interval(report))


def span_factory(tracer):
    if tracer is None:
        return lambda name: contextlib.nullcontext()
    return tracer.span


# ---------------------------------------------------------------------------
# setup: import and the config/data parse
# ---------------------------------------------------------------------------

def mode_setup(args: dict, sampler: pace.Sampler) -> dict:
    import modlavg  # noqa: F401
    from modlavg import arith, harness

    cfg = harness.ExperimentConfig.from_file(args["config"])
    forms = arith.load_eigenforms(cfg.data_path)
    return {"t_ready": time.monotonic(), "forms": len(forms)}


# ---------------------------------------------------------------------------
# cli: `modlavg average`, as `python3 -m modlavg.cli` runs it
# ---------------------------------------------------------------------------

def mode_cli(args: dict, sampler: pace.Sampler) -> dict:
    """Run the CLI in this interpreter; its exit code becomes this
    process's (see main)."""
    sys.argv = ["modlavg", "average", "--config", args["config"]]
    try:
        runpy.run_module("modlavg.cli", run_name="__main__", alter_sys=True)
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    return {"exit_code": code}


# ---------------------------------------------------------------------------
# interval sweep: warm run_experiment calls after one cold call
# ---------------------------------------------------------------------------

def sweep_config(harness, base, lo: float, hi: float, bins: int):
    return harness.ExperimentConfig(
        discriminant=base.discriminant, weight=base.weight,
        aux_prime=base.aux_prime, interval=(lo, hi), levels=list(base.levels),
        data_path=base.data_path, bins=bins, output_dir=base.output_dir)


def check_sweep_outputs(out_dir: str, stored_signs: dict, baseline: dict) -> list:
    """A warm call's files: the report passes the identity checks, and the
    J-independent files equal the cold call's byte for byte."""
    files = read_outputs(out_dir)
    problems = report_problems(json.loads(files["report.json"]), stored_signs)
    for name in ("forms.csv", "density.csv"):
        if files[name] != baseline[name]:
            problems.append(f"{name} differs from the cold call's")
    return problems


def mode_sweep(args: dict, sampler: pace.Sampler) -> dict:
    from modlavg import harness

    cfg = harness.ExperimentConfig.from_file(args["config"])
    harness.run_experiment(cfg)
    t_ready = time.monotonic()
    stored = checks.stored_fricke_signs(cfg.data_path)
    baseline = read_outputs(cfg.output_dir)
    problems = report_problems(json.loads(baseline["report.json"]), stored)
    failed = 1 if problems else 0
    calls, scaled = [], []
    start = time.monotonic()
    for lo, hi, bins in inputs.sweep_calls(args["seed"]):
        if calls and time.monotonic() - start >= args["seconds"]:
            break
        call_cfg = sweep_config(harness, cfg, lo, hi, bins)
        error = None
        t0 = time.monotonic()
        try:
            harness.run_experiment(call_cfg)
        except Exception as exc:  # a raising call is a failed operation
            error = exc
        t1 = time.monotonic()
        calls.append(pace.net(sampler.samples, t0, t1))
        scaled.append(pace.scale(sampler.samples, t0, t1))
        if error is not None:
            failed += 1
            problems.append(f"J=({lo:.4f},{hi:.4f}) bins={bins}: {error!r}")
            continue
        found = check_sweep_outputs(cfg.output_dir, stored, baseline)
        if found:
            failed += 1
            problems.extend(found)
    return {"t_ready": t_ready, "calls": calls, "scaled": scaled,
            "attempted": len(calls) + 1,
            "failed": failed, "problems": problems[:MAX_PROBLEMS]}


# ---------------------------------------------------------------------------
# oracle grid
# ---------------------------------------------------------------------------

def run_oracle_grid(grid: dict, clock: pace.PartClock | None = None) -> tuple:
    """Every oracle of the grid against its closed form.  Returns
    (problems, worst singular gap, worst regular gap).  With ``clock``,
    times each quadrature item and each block of PADIC_BLOCK p-adic
    enumerations as a part, checks included, in the grid's order."""
    from modlavg import arch_local as al
    from modlavg import padic_local as pl

    problems = []
    sing_worst = reg_worst = 0.0

    def lap():
        if clock is not None:
            clock.lap()

    for k, s1, s2 in grid["singular"]:
        closed = al.singular_upper_closed(k, s1, s2)
        quad = al.singular_upper_quadrature(k, s1, s2)
        sing_worst = max(sing_worst, checks.rel_gap(closed, quad))
        problems += checks.check_singular(k, s1, s2, closed, quad)
        lap()
    k, s1, s2 = grid["lower"]
    lower = al.singular_lower_quadrature(k, s1, s2)
    reflected = -al.singular_upper_closed(k, -s2, -s1)
    sing_worst = max(sing_worst, checks.rel_gap(lower, reflected))
    problems += checks.check_singular(k, s1, s2, reflected, lower)
    lap()
    for k, x, s1, s2 in grid["regular"]:
        quad = al.regular_integral_quadrature(k, x, s1, s2)
        closed = al.regular_integral_closed(k, x, s1, s2)
        reg_worst = max(reg_worst, checks.rel_gap(closed, quad))
        problems += checks.check_regular(k, x, s1, s2, closed, quad)
        lap()
    k, x, s1, s2 = grid["negative"]
    if (al.regular_integral_quadrature(k, x, s1, s2) != 0.0
            or al.regular_integral_closed(k, x, s1, s2) != 0.0):
        problems.append(f"regular integral at x = {x:.4f} < 0 is not zero")
    lap()
    for i, (q, delta, kind, vx, w) in enumerate(grid["padic"], start=1):
        place = pl.PlaceSpec(q=q, kind=kind, chi_q=delta)
        closed = pl.regular_closed_form(place, vx, w)
        brute = pl.brute_force_integral(
            place, pl.OrbitDatum(kind="regular", vx=vx, v1mx=w),
            window=grid["padic_window"])
        problems += checks.check_padic(f"q={q} delta={delta} {kind} vx={vx} w={w}",
                                       closed.as_dict(), brute.value.as_dict())
        if i % PADIC_BLOCK == 0 or i == len(grid["padic"]):
            lap()
    return problems, sing_worst, reg_worst


def mode_oracles(args: dict, sampler: pace.Sampler) -> dict:
    """The seed's grid, repeated for about ``seconds``: a further round
    starts while it would end no later than half a round past them."""
    import modlavg  # noqa: F401  -- before the clock starts
    grid = inputs.oracle_grid(args["seed"])
    sweeps, rounds, problems, failed = [], [], [], 0
    sing_worst = reg_worst = 0.0
    start = time.monotonic()
    while not sweeps or time.monotonic() - start + 0.5 * sweeps[-1] < args["seconds"]:
        clock = pace.PartClock(sampler)
        found, sing_gap, reg_gap = run_oracle_grid(grid, clock)
        sweeps.append(math.fsum(clock.raw))
        rounds.append(clock.scaled)
        sing_worst, reg_worst = max(sing_worst, sing_gap), max(reg_worst, reg_gap)
        if found:
            failed += 1
            problems.extend(found)
    return {"sweeps": sweeps, "work_s": pace.part_medians(rounds),
            "attempted": len(sweeps), "failed": failed,
            "singular_worst_rel_gap": sing_worst, "regular_worst_rel_gap": reg_worst,
            "problems": problems[:MAX_PROBLEMS]}


# ---------------------------------------------------------------------------
# Hecke traces
# ---------------------------------------------------------------------------

def trace_table(seed: int, m_bound: int, clock: pace.PartClock | None = None) -> dict:
    """Tr T_m over the seed's (N, m) pairs, in their order.  With
    ``clock``, times each TRACE_CHUNK pairs as a part."""
    from modlavg import arith

    table = {}
    pairs = inputs.trace_pairs(seed, m_bound)
    for i in range(0, len(pairs), TRACE_CHUNK):
        for N, m in pairs[i:i + TRACE_CHUNK]:
            table.setdefault(N, {})[m] = arith.eichler_selberg_trace(
                N, inputs.TRACE_WEIGHT, m)
        if clock is not None:
            clock.lap()
    return table


def trace_oracle_values() -> dict:
    """Tr T_m from exact q-expansions at the levels the oracle reaches."""
    from modlavg import modforms

    out = {}
    for N in inputs.ORACLE_CHECK_LEVELS:
        space = modforms.CuspSpace(N, inputs.TRACE_WEIGHT, length=200)
        out[N] = {m: space.trace_hecke(m)
                  for m in range(1, inputs.ORACLE_CHECK_M + 1) if m % N}
    return out


def check_trace_table(table: dict, oracle: dict, reference: dict) -> list:
    from modlavg import arith

    dims = {N: arith.dim_cusp_forms(N, inputs.TRACE_WEIGHT) for N in table}
    return checks.check_traces(table, dims, reference["traces"], oracle)


def mode_traces(args: dict, sampler: pace.Sampler) -> dict:
    import modlavg  # noqa: F401  -- before the clock starts
    clock = pace.PartClock(sampler)
    table = trace_table(args["seed"], args["m_bound"], clock)
    t0 = time.perf_counter()
    oracle = trace_oracle_values()
    oracle_s = time.perf_counter() - t0
    problems = check_trace_table(table, oracle, load_reference())
    return {"traces_s": math.fsum(clock.raw), "chunks": clock.scaled, "oracle_s": oracle_s,
            "traces": sum(len(v) for v in table.values()),
            "problems": problems[:MAX_PROBLEMS]}


# ---------------------------------------------------------------------------
# layer profile: the four workloads' calls, traced or not
# ---------------------------------------------------------------------------

def layer_targets():
    """(span name, places to patch, counter) for every layer boundary."""
    from modlavg import (arch_local, arith, harness, lvalues, measures,
                         padic_local, reg_tail)

    def cells(result):
        return "padic_local.brute_force_integral.cells_accepted", len(result.cells)

    return [
        ("arith.load_eigenforms", [(arith, "load_eigenforms"), (harness, "load_eigenforms")], None),
        ("arith.dirichlet_l", [(arith, "dirichlet_l"), (harness, "dirichlet_l")], None),
        ("arith.eichler_selberg_trace", [(arith, "eichler_selberg_trace")], None),
        ("lvalues.fricke_sign", [(lvalues, "fricke_sign"), (harness, "fricke_sign")], None),
        ("lvalues.petersson_norm", [(lvalues, "petersson_norm"), (harness, "petersson_norm")], None),
        ("harness.measure_mass", [(harness, "measure_mass")], None),
        ("harness.geometric_side_audit", [(harness, "geometric_side_audit")], None),
        ("harness.proportionality_test", [(harness, "proportionality_test")], None),
        ("harness.write_outputs", [(harness, "_write_outputs")], None),
        ("padic_local.brute_force_integral", [(padic_local, "brute_force_integral")], cells),
        ("reg_tail.tail_envelope", [(reg_tail, "tail_envelope")], None),
        ("measures.density", [(measures, "density")], None),
        ("arch_local.regular_integral_quadrature",
         [(arch_local, "regular_integral_quadrature")], None),
        ("arch_local.singular_quadrature",
         [(arch_local, "singular_upper_quadrature"), (arch_local, "singular_lower_quadrature")],
         None),
        ("arch_local.closed_forms",
         [(arch_local, "singular_upper_closed"), (arch_local, "regular_integral_closed")], None),
    ]


AFE_MELLIN_TOL = 1e-8   # the agreement central_value requires


def central_normalized(comp, lam: float) -> float:
    """A completed value at the center in the analytic normalization, as
    lvalues.central_value divides it."""
    s_c = comp.form.weight / 2.0
    return lam / (comp.conductor ** (s_c / 2.0)
                  * (2.0 * math.pi) ** (-s_c) * math.gamma(s_c))


def replay_level_rows(cfg, forms, N: int, span) -> tuple:
    """The rows harness._level_rows builds at level N, from the same public
    lvalues calls, with the Fricke sign measured once and handed to the
    Mellin route.  Returns (rows, largest AFE-Mellin gap)."""
    from modlavg import arith, lvalues

    k, D = cfg.weight, cfg.discriminant
    s_c = k / 2.0
    at_level = sorted((f for f in forms if f.level == N and f.weight == k),
                      key=lambda f: f.label)
    if len(at_level) != arith.dim_cusp_forms(N, k):
        raise ValueError(f"data file holds {len(at_level)} forms at level {N}")
    rows, worst = [], 0.0
    for f in at_level:
        w = lvalues.fricke_sign(f)
        with span("lvalues.afe"):
            comp = lvalues.CompletedL(f)
            lam_afe = comp.lambda_afe(s_c)
        with span("lvalues.mellin"):
            lam_mellin = comp.lambda_mellin(s_c, w=w)
        with span("lvalues.afe"):
            twisted = lvalues.CompletedL(f, twist=D)
            lam_twisted = twisted.lambda_afe(s_c)
        norm = lvalues.petersson_norm(f)
        afe = central_normalized(comp, lam_afe)
        mellin = central_normalized(comp, lam_mellin)
        twisted_afe = central_normalized(twisted, lam_twisted)
        worst = max(worst, abs(afe - mellin) / max(abs(afe), abs(mellin), 1e-12))
        central = 0.0 if comp.eps == -1 else afe
        central_twisted = 0.0 if twisted.eps == -1 else twisted_afe
        rows.append({
            "label": f.label, "a_p": f.a(cfg.aux_prime),
            "central": central, "central_twisted": central_twisted,
            "eps": comp.eps, "eps_twisted": twisted.eps, "fricke": w,
            "norm": norm, "contribution": central * central_twisted / norm,
        })
    return rows, worst


def mode_profile(args: dict, sampler: None) -> dict:
    from modlavg import arith, harness

    tracer = Tracer(args["run_id"]) if args["traced"] else None
    span = span_factory(tracer)
    problems = []
    with instrument(tracer, layer_targets()):
        with span("segment.experiment"):
            cfg = harness.ExperimentConfig.from_file(args["config"])
            forms = arith.load_eigenforms(cfg.data_path)
            gap = 0.0
            # hand the rows to run_experiment through its form cache, so it
            # does only the work that follows the per-form values; without
            # that cache it recomputes them, which the trace then shows
            cache = getattr(harness, "_FORM_CACHE", {})
            for N in cfg.levels:
                rows, worst = replay_level_rows(cfg, forms, N, span)
                gap = max(gap, worst)
                cache[(cfg.data_path, N, cfg.weight, cfg.discriminant,
                       cfg.aux_prime)] = rows
            harness.run_experiment(cfg)
        if gap > AFE_MELLIN_TOL:
            problems.append(f"AFE and Mellin central values differ by {gap:.2e}")
        stored = checks.stored_fricke_signs(cfg.data_path)
        outputs = read_outputs(cfg.output_dir)
        report = json.loads(outputs["report.json"])
        problems += report_problems(report, stored)

        with span("segment.sweep"):
            calls = inputs.sweep_calls(args["seed"])
            for _ in range(args["sweep_calls"]):
                harness.run_experiment(sweep_config(harness, cfg, *next(calls)))
        problems += check_sweep_outputs(cfg.output_dir, stored, outputs)

        with span("segment.oracles"):
            found, sing_worst, reg_worst = run_oracle_grid(
                inputs.oracle_grid(args["seed"]))
        problems += found

        with span("segment.traces"):
            table = trace_table(args["seed"], args["m_bound"])
            with span("modforms.trace_oracle"):
                oracle = trace_oracle_values()
        problems += check_trace_table(table, oracle, load_reference())
    t_end = time.monotonic()

    result = {
        "t_end": t_end, "outputs": {k: v.decode() for k, v in outputs.items()},
        "afe_mellin_gap": gap,
        "identity_rel_dev": max(checks.identity_deviations(report).values(),
                                default=math.nan),
        "singular_worst_rel_gap": sing_worst, "regular_worst_rel_gap": reg_worst,
        "problems": problems[:MAX_PROBLEMS],
    }
    if tracer is not None:
        result["self_times"] = tracer.self_times()
        result["experiment_self_times"] = tracer.self_times(within="segment.experiment")
        result["counts"] = tracer.counts
        tracer.write(args["spans"])
    return result


MODES = {"setup": mode_setup, "cli": mode_cli, "sweep": mode_sweep,
         "oracles": mode_oracles, "traces": mode_traces, "profile": mode_profile}
SAMPLES_AFTER_READY_S = 1.0   # samples a result keeps past its t_ready


def main() -> int:
    mode, args_path = sys.argv[1], sys.argv[2]
    sampler = None if mode == "profile" else pace.Sampler().start()
    with open(args_path, "r", encoding="utf-8") as fh:
        args = json.load(fh)
    try:
        result = MODES[mode](args, sampler)
    finally:
        samples = sampler.stop() if sampler else []
    if samples:
        # the parent scales its own spans (spawn to t_ready, or to exit)
        # by these; a sweep keeps only those of its set-up
        keep_until = result.get("t_ready", math.inf) + SAMPLES_AFTER_READY_S
        result["samples"] = [s for s in samples if s[0] <= keep_until]
        result["reference_loop_s"] = statistics.median(s[1] for s in samples)
    with open(args["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return result.get("exit_code", 0)


if __name__ == "__main__":
    sys.exit(main())
