"""The modlavg benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Without --workload it runs all four
workloads in turn.  With --trace 0 it prints the end-to-end metrics, with
--trace 1 the per-layer metrics of a traced run.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Lines before it name every metric with its unit, the environment and the
sample counts.  See perfbench/README.md for what each number means.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import checks
import pace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CONFIG = os.path.join(ROOT, "demos", "config_example.json")

WORKLOADS = ("experiment", "interval_sweep", "oracles", "hecke_traces")
SETUP_PROBES = 5          # set-up samples per run; setup_s is their median
TRACE_M_BOUND = 400       # hecke_traces: Tr T_m for m < this
PROFILE_M_BOUND = 200     # the layer profile's trace table
PROFILE_SWEEP_CALLS = 40  # the layer profile's warm run_experiment calls
RUN_BUDGET_S = 170.0      # every child is killed once a run has used this
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)

# per-layer metrics of the traced run, in the order they are printed
LAYERS = (
    "arith.load_eigenforms", "arith.eichler_selberg_trace", "arith.dirichlet_l",
    "lvalues.petersson_norm", "lvalues.mellin", "lvalues.afe", "lvalues.fricke_sign",
    "harness.measure_mass", "harness.geometric_side_audit",
    "harness.proportionality_test", "harness.write_outputs",
    "padic_local.brute_force_integral",
    "arch_local.regular_integral_quadrature", "arch_local.singular_quadrature",
    "arch_local.closed_forms",
    "reg_tail.tail_envelope", "measures.density", "modforms.trace_oracle",
)
WITNESSES = (
    "lvalues.afe_mellin_gap", "harness.identity_rel_dev",
    "harness.report_max_rel_drift", "arch_local.regular_worst_rel_gap",
    "arch_local.singular_worst_rel_gap",
)


class Run:
    """One benchmark run: its work directory, deadline and counters."""

    def __init__(self, workload: str, seed: int, seconds: int):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.work = tempfile.mkdtemp(dir=ROOT, prefix=".perfbench_work_")
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.rss_mb = []
        self.refs = []
        self.env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0",
                        **{name: "1" for name in THREAD_VARS})
        self._n = 0

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def path(self, name: str) -> str:
        self._n += 1
        return os.path.join(self.work, f"{self._n:04d}-{name}")

    def fail(self, problems) -> None:
        self.failed += 1
        self.problems.extend(problems)

    def spawn(self, argv: list, work: bool = True) -> dict:
        """Run one child to completion and return its exit code, wall time
        from spawn to exit, peak RSS and spawn stamp.  The peak RSS of a
        workload's own children (``work``) feeds peak_rss_mb."""
        err_path = self.path("stderr.txt")
        with open(err_path, "wb") as err:
            t0 = time.monotonic()
            proc = subprocess.Popen(argv, env=self.env, cwd=ROOT,
                                    stdout=subprocess.DEVNULL, stderr=err)
            pidfd = os.pidfd_open(proc.pid)
            try:
                ready, _, _ = select.select([pidfd], [], [],
                                            max(self.deadline - time.monotonic(), 0.0))
                if not ready:
                    proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.monotonic() - t0
            finally:
                os.close(pidfd)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if work:
            self.rss_mb.append(usage.ru_maxrss / 1024.0)
        with open(err_path, "rb") as fh:
            tail = fh.read()[-2000:].decode(errors="replace")
        return {"code": proc.returncode, "wall": wall, "t0": t0,
                "rss_mb": usage.ru_maxrss / 1024.0, "timed_out": not ready,
                "stderr": tail}

    def child(self, mode: str, args: dict, work: bool = True):
        """Run child.py in ``mode``; return (spawn info, result or None).
        A result counts only from a child that exited 0, except in the
        cli mode, whose exit code is the CLI's."""
        args = dict(args, result=self.path(f"{mode}-result.json"))
        args_path = self.path(f"{mode}-args.json")
        with open(args_path, "w", encoding="utf-8") as fh:
            json.dump(args, fh)
        info = self.spawn([sys.executable, os.path.join(HERE, "child.py"), mode, args_path],
                          work)
        if ((info["code"] != 0 and mode != "cli") or info["timed_out"]
                or not os.path.exists(args["result"])):
            return info, None
        with open(args["result"], "r", encoding="utf-8") as fh:
            result = json.load(fh)
        if "reference_loop_s" in result:
            self.refs.append(result["reference_loop_s"])
        return info, result

    def config(self) -> tuple:
        """A copy of the shipped default config writing to a fresh dir."""
        out_dir = self.path("out")
        with open(CONFIG, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
        cfg["output_dir"] = out_dir
        path = self.path("config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        return path, out_dir

    def measuring(self, start: float, durations: list) -> bool:
        """Whether to start another operation: always the first, then
        while it would end no later than half an operation past --seconds,
        and never past the run's budget."""
        now = time.monotonic()
        if now > self.deadline - 5.0:
            return False
        if not durations:
            return True
        return now - start + 0.5 * statistics.fmean(durations) < self.seconds


def child_failure(what: str, info: dict) -> list:
    reason = "timed out" if info["timed_out"] else f"exit code {info['code']}"
    return [f"{what} {reason}: {info['stderr'].strip()[-400:]}"]


def setup_samples(run: Run) -> list:
    """Interpreter start through import modlavg and the config/data parse."""
    samples = []
    for _ in range(SETUP_PROBES):
        config, _ = run.config()
        run.attempted += 1
        info, result = run.child("setup", {"config": config}, work=False)
        if result is None:
            run.fail(child_failure("set-up probe", info))
            continue
        samples.append(pace.scale(result["samples"], info["t0"], result["t_ready"]))
    return samples


def tail(samples: list) -> tuple:
    """The highest of TAIL_PERCENTILES with at least ten samples beyond
    it, as (percentile, value); None when there are too few samples."""
    ordered = sorted(samples)
    for pct in TAIL_PERCENTILES:
        index = math.ceil(pct / 100.0 * len(ordered)) - 1
        if len(ordered) - 1 - index >= 10:
            return pct, ordered[index]
    return None


def load_reference() -> dict:
    with open(os.path.join(HERE, "reference.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def check_cli_outputs(out_dir: str, reference: dict) -> tuple:
    """(problems, drift, report bytes) for one `modlavg average` run."""
    files = {}
    for name in ("report.json", "forms.csv"):
        path = os.path.join(out_dir, name)
        if not os.path.exists(path):
            return [f"{name} was not written"], None, None
        with open(path, "rb") as fh:
            files[name] = fh.read()
    report = json.loads(files["report.json"])
    stored = checks.stored_fricke_signs(os.path.join(SRC, "modlavg", "data",
                                                     report["config"]["data_path"]))
    problems = checks.check_identity(report) + checks.check_fricke(report, stored)
    problems += checks.forms_drift(files["forms.csv"].decode(), reference["forms"])
    drift = checks.report_drift(files["report.json"], files["forms.csv"], reference)
    return problems, drift, files["report.json"]


def run_cli(run: Run, reference: dict) -> dict:
    """One `modlavg average` on the default config in a fresh interpreter
    (child.py's cli mode runs it as `python3 -m modlavg.cli` does, with
    the sampler on).  ``wall`` is spawn to exit, net of the sampler."""
    config, out_dir = run.config()
    run.attempted += 1
    info, result = run.child("cli", {"config": config})
    problems, drift, report = check_cli_outputs(out_dir, reference)
    if result is None:
        problems = problems or ["the cli child left no result"]
    else:
        end = info["t0"] + info["wall"]
        info["wall"] = pace.net(result["samples"], info["t0"], end)
        info["scaled"] = pace.scale(result["samples"], info["t0"], end)
    if problems:
        # the exit code itself goes to cli_exit_ok_share, never to failures
        run.fail(child_failure("modlavg average", info) + problems)
    info["drift"], info["report"] = drift, report
    return info


def workload_experiment(run: Run) -> tuple:
    reference = load_reference()
    setups = setup_samples(run)
    runs = []
    start = time.monotonic()
    while run.measuring(start, [r["wall"] for r in runs]):
        runs.append(run_cli(run, reference))
    walls = [r["wall"] for r in runs]
    scaled = [r["scaled"] for r in runs if "scaled" in r]
    drift = runs[-1]["drift"] or {}
    info = {
        "experiment_s": (statistics.median(walls), "s", len(walls)),
        "cli_exit_ok_share": (sum(r["code"] == 0 for r in runs) / len(runs), "share", len(runs)),
        "report_identical": (drift.get("report_identical"), "bool", 1),
        "forms_identical": (drift.get("forms_identical"), "bool", 1),
        "harness.report_max_rel_drift": (drift.get("max_rel_drift"), "ratio", 1),
        "numbers not in both reports": (drift.get("unmatched_paths"), "count", 1),
    }
    return setups, (statistics.median(scaled) if scaled else None, len(scaled)), info


def workload_interval_sweep(run: Run) -> tuple:
    config, _ = run.config()
    info, result = run.child("sweep", {"config": config, "seed": run.seed,
                                       "seconds": run.seconds})
    if result is None:
        run.attempted += 1
        run.fail(child_failure("sweep worker", info))
        return [], None, {}
    run.attempted += result["attempted"]
    run.failed += result["failed"]
    run.problems += result["problems"]
    calls = result["calls"]
    extra = {"sweep_call_s": (statistics.median(calls), "s", len(calls))}
    found = tail(calls)
    if found:
        extra["sweep_call_s.tail"] = (found[1], f"s@p{found[0]:g}", len(calls))
    setup = pace.scale(result["samples"], info["t0"], result["t_ready"])
    return [setup], (statistics.median(result["scaled"]), len(calls)), extra


def workload_oracles(run: Run) -> tuple:
    setups = setup_samples(run)
    info, result = run.child("oracles", {"seed": run.seed, "seconds": run.seconds})
    if result is None:
        run.attempted += 1
        run.fail(child_failure("oracle worker", info))
        return setups, None, {}
    run.attempted += result["attempted"]
    run.failed += result["failed"]
    run.problems += result["problems"]
    sweeps = result["sweeps"]
    extra = {
        "oracle_sweep_s": (statistics.median(sweeps), "s", len(sweeps)),
        "arch_local.singular_worst_rel_gap": (result["singular_worst_rel_gap"], "ratio", 1),
        "arch_local.regular_worst_rel_gap": (result["regular_worst_rel_gap"], "ratio", 1),
    }
    return setups, (result["work_s"], len(sweeps)), extra


def workload_hecke_traces(run: Run) -> tuple:
    setups = setup_samples(run)
    tables, chunks, oracle, walls = [], [], [], []
    start = time.monotonic()
    while run.measuring(start, walls):
        run.attempted += 1
        info, result = run.child("traces", {"seed": run.seed, "m_bound": TRACE_M_BOUND})
        walls.append(info["wall"])
        if result is None:
            run.fail(child_failure("trace table", info))
            continue
        if result["problems"]:
            run.fail(result["problems"])
        tables.append(result["traces_s"])
        chunks.append(result["chunks"])
        oracle.append(result["oracle_s"])
    if not tables:
        return setups, None, {}
    extra = {"traces_s": (statistics.median(tables), "s", len(tables)),
             "modforms.trace_oracle_s": (statistics.median(oracle), "s", len(oracle))}
    return setups, (pace.part_medians(chunks), len(tables)), extra


WORKLOAD_RUNNERS = {
    "experiment": workload_experiment,
    "interval_sweep": workload_interval_sweep,
    "oracles": workload_oracles,
    "hecke_traces": workload_hecke_traces,
}


def measure(run: Run) -> tuple:
    """End-to-end metrics of one workload, with tracing off, and their
    sample counts."""
    setups, work, info = WORKLOAD_RUNNERS[run.workload](run)
    metrics = {}
    if setups and work and work[0] is not None:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "work_s": {"value": work[0], "unit": "s"},
            "peak_rss_mb": {"value": max(run.rss_mb), "unit": "MB"},
        }
    else:
        run.problems.append("no complete sample")
    info["failed_share"] = (run.failed / max(run.attempted, 1), "share", run.attempted)
    if run.refs:
        info["reference_loop_s (median over children)"] = (
            statistics.median(run.refs), "s", len(run.refs))
    counts = {"setup_s": len(setups), "work_s": work[1] if work else 0,
              "peak_rss_mb": len(run.rss_mb)}
    return metrics, info, counts


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

def trace(run: Run) -> tuple:
    """Per-layer metrics from the layer profile, run once traced and once
    untraced, next to one untraced `modlavg average`."""
    reference = load_reference()
    cli = run_cli(run, reference)
    runs = {}
    for traced in (0, 1):
        config, _ = run.config()
        run.attempted += 1
        info, result = run.child("profile", {
            "config": config, "seed": run.seed, "traced": traced,
            "run_id": f"{run.workload}-{run.seed}", "sweep_calls": PROFILE_SWEEP_CALLS,
            "m_bound": PROFILE_M_BOUND,
            "spans": os.path.join(ROOT, ".perfbench_out", f"spans-{run.workload}.jsonl")})
        if result is None:
            run.fail(child_failure("layer profile", info))
            return {}, {}, {}
        if result["problems"]:
            run.fail(result["problems"])
        if result["outputs"]["report.json"].encode() != cli["report"]:
            run.fail(["the replayed report.json differs from modlavg average's"])
        runs[traced] = (info, result)
    (plain_info, plain), (traced_info, traced) = runs[0], runs[1]
    plain_total = plain["t_end"] - plain_info["t0"]
    traced_total = traced["t_end"] - traced_info["t0"]
    self_times, exp_self = traced["self_times"], traced["experiment_self_times"]
    named = sum(exp_self.get(name, (0.0, 0))[0] for name in LAYERS)
    outputs = traced["outputs"]
    drift = checks.report_drift(outputs["report.json"].encode(),
                                outputs["forms.csv"].encode(), reference)
    metrics = {}
    for name in LAYERS:
        secs, calls = self_times.get(name, (0.0, 0))
        metrics[f"{name}_s"] = {"value": secs, "unit": "s"}
        metrics[f"{name}.calls"] = {"value": calls, "unit": "count"}
    metrics["padic_local.brute_force_integral.cells_accepted"] = {
        "value": traced["counts"].get("padic_local.brute_force_integral.cells_accepted", 0),
        "unit": "count"}
    witnesses = {
        "lvalues.afe_mellin_gap": traced["afe_mellin_gap"],
        "harness.identity_rel_dev": traced["identity_rel_dev"],
        "harness.report_max_rel_drift": drift["max_rel_drift"],
        "arch_local.regular_worst_rel_gap": traced["regular_worst_rel_gap"],
        "arch_local.singular_worst_rel_gap": traced["singular_worst_rel_gap"],
    }
    for name in WITNESSES:
        metrics[name] = {"value": witnesses[name], "unit": "ratio"}
    metrics["trace.overhead_share"] = {
        "value": traced_total / plain_total - 1.0, "unit": "share"}
    metrics["trace.named_layers_share_of_experiment"] = {
        "value": named / cli["wall"], "unit": "share"}
    info = {
        "experiment_s (untraced modlavg average)": (cli["wall"], "s", 1),
        "profile_total_s (untraced)": (plain_total, "s", 1),
        "profile_total_s (traced)": (traced_total, "s", 1),
        "report_identical": (drift["report_identical"], "bool", 1),
        "failed_share": (run.failed / max(run.attempted, 1), "share", run.attempted),
    }
    shares = sorted(((exp_self.get(name, (0.0, 0))[0] / cli["wall"], name)
                     for name in LAYERS), reverse=True)
    for share, name in shares[:6]:
        info[f"share of experiment_s: {name}"] = (share, "share", 1)
    return metrics, info, {}


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def environment(args) -> dict:
    def version(name):
        try:
            return importlib.metadata.version(name)
        except importlib.metadata.PackageNotFoundError:
            return None

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(), "numpy": version("numpy"),
        "scipy": version("scipy"), "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu, "threads": {name: "1" for name in THREAD_VARS},
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "ref_nominal_s": pace.REF_NOMINAL_S, "sample_every_s": pace.SAMPLE_EVERY_S,
        "sizes": {"setup_probes": SETUP_PROBES, "trace_m_bound": TRACE_M_BOUND,
                  "profile_m_bound": PROFILE_M_BOUND,
                  "profile_sweep_calls": PROFILE_SWEEP_CALLS},
    }


def run_workload(workload: str, args) -> dict:
    run = Run(workload, args.seed, args.seconds)
    try:
        metrics, info, counts = (trace if args.trace else measure)(run)
    finally:
        run.close()
    print(f"== {workload} (seed {args.seed}, trace {args.trace})")
    for name, entry in metrics.items():
        print(f"{name} = {entry['value']!r} {entry['unit']} (n = {counts.get(name, 1)})")
    for name, (value, unit, samples) in info.items():
        print(f"{name} = {value!r} {unit} (n = {samples})")
    for problem in run.problems[:20]:
        print(f"problem: {problem}")
    return {"correct": run.failed == 0 and bool(metrics), "attempted": max(run.attempted, 1),
            "failed": run.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in (os.path.join(SRC, "modlavg", "__init__.py"), CONFIG)
               if not os.path.exists(p)]
    if missing:
        print(f"not a modlavg checkout: missing {missing}", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
    print("env " + json.dumps(environment(args), sort_keys=True))
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    results = {w: run_workload(w, args) for w in workloads}
    if len(results) == 1:
        final = results[workloads[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": entry for w, r in results.items()
                        for name, entry in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
