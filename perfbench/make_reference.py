"""Write reference.json: what the benchmark compares outputs against.

    PYTHONPATH=src python3 perfbench/make_reference.py

It runs the shipped default config once and stores the SHA-256 digests of
report.json, forms.csv and density.csv, the parsed report.json and
forms.csv, and the exact trace table the hecke_traces workload computes.
Regenerate it only on purpose, and say so with the change: the numbers
become the baseline that later drift is measured against.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile

import checks
import inputs
from modlavg import arith, harness

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TRACE_M_BOUND = 400


def main() -> None:
    cfg = harness.ExperimentConfig.from_file(
        os.path.join(ROOT, "demos", "config_example.json"))
    work = tempfile.mkdtemp(dir=ROOT, prefix=".perfbench_ref_")
    try:
        cfg.output_dir = work
        harness.run_experiment(cfg)
        files = {}
        for name in ("report.json", "forms.csv", "density.csv"):
            with open(os.path.join(work, name), "rb") as fh:
                files[name] = fh.read()
    finally:
        shutil.rmtree(work)
    forms = {f"{level}/{label}": cols for (level, label), cols
             in checks.parse_forms_csv(files["forms.csv"].decode()).items()}
    traces = {}
    for N in inputs.TRACE_LEVELS:
        traces[str(N)] = [arith.eichler_selberg_trace(N, inputs.TRACE_WEIGHT, m)
                          if m % N else None for m in range(1, TRACE_M_BOUND)]
    reference = {
        "report_sha256": checks.sha256(files["report.json"]),
        "forms_sha256": checks.sha256(files["forms.csv"]),
        "report": json.loads(files["report.json"]),
        "forms": forms,
        "traces": traces,
    }
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
