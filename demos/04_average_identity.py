#!/usr/bin/env python3
"""The headline experiment: averages of central products against the
split-measure prediction.

For the quadratic character of discriminant -4, weight 4 and auxiliary
prime 13 (a split prime), the admissible small prime levels are 3, 7, 11.
The script sums L(1/2, f) L(1/2, f x chi) / <f, f> over the newforms of
each level, compares the full sums against both leading constants (printed
and assembled-from-local-data), checks the identity against the assembled
one, and prints the eigenvalue-bin shares against the split-measure masses.
"""

from modlavg.harness import ExperimentConfig, run_experiment

cfg = ExperimentConfig(discriminant=-4, weight=4, aux_prime=13,
                       interval=(-2.0, 2.0))
print(f"levels: {cfg.levels} (admissible primes with nontrivial sign "
      f"condition and small cusp spaces)")

report = run_experiment(cfg)
c = report.constants
print(f"\nL(1, chi) = {c['L1']:.10f}")
print(f"printed constant   2 c L = {2 * c['c_printed'] * c['L1']:.6f}")
print(f"assembled constant 2 c L = {2 * c['c_assembled'] * c['L1']:.6f}")
print(f"c_assembled / c_printed  = {c['assembled_over_printed']:.15f} "
      "(2 pi^2 / 5 at k = 4)")

print("\nper-level sums:")
for lvl in report.levels:
    if not lvl["forms"]:
        print(f"  level {lvl['level']:2d}: empty cusp space")
        continue
    print(f"  level {lvl['level']:2d}: S = {lvl['spectral_full']:.6f}   "
          f"S / (2 c_printed L) = {lvl['spectral_full'] / (2 * c['c_printed'] * c['L1']):.6f}   "
          f"S / (2 c_assembled L) = {lvl['spectral_full'] / (2 * c['c_assembled'] * c['L1']):.6f}")
    for r in lvl["forms"]:
        print(f"      {r['label']}: a_13 = {r['a_p']:+.4f}  "
              f"contribution = {r['contribution']:.4f}")

print("\neigenvalue-bin shares vs measure masses (4 bins):")
prop = report.proportionality
print("  masses: " + " ".join(f"{m:.4f}" for m in prop["measure_masses"]))
for N, row in sorted(prop["levels"].items()):
    if row["degenerate"]:
        print(f"  level {N:2d}: degenerate (no forms)")
    else:
        print(f"  level {N:2d}: shares "
              + " ".join(f"{s:.4f}" for s in row["shares"])
              + f"   L1 distance {row['l1_distance']:.4f}")

print("\nfinite-level identity, |S - 2 c_assembled L| against its propagated "
      "error budget:")
for N, r in sorted(report.envelope["assembled"]["rows"].items()):
    print(f"  level {N:2d}: deviation {r['deviation']:.3e}   "
          f"budget {r['budget']:.3e}   "
          f"{'within budget' if r['deviation'] <= r['budget'] else 'EXCEEDS budget'}")
print(f"  identity holds at every level with forms: {report.ok}")

print("\nnormalization ledger:")
for line in report.normalization_ledger:
    print(f"  - {line}")

print("\ngeometric audit at level 7:")
audit = [lvl for lvl in report.levels if lvl["level"] == 7][0]["audit"]
for row in audit["rows"]:
    print(f"  {row['orbit']:>10}: {row['value']:.6f}  [{row['status']}]")
print(f"  upper/lower relative gap: {audit['upper_lower_gap']:.2e}")
print(f"  regular tail bound: {audit['regular_tail_bound']['sum']:.3e}")
