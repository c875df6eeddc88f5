#!/usr/bin/env python3
"""Newforms, central L-values and Petersson norms.

Loads the shipped eigenform coefficient tables (validated on load against
the eigenvalue bound and the Hecke extension of their primes), measures
each form's Fricke sign directly from its q-expansion, computes central
values along two independent routes, and integrates the Petersson norms.
"""

from modlavg.arith import eichler_selberg_trace, load_eigenforms
from modlavg.harness import default_data_path
from modlavg.lvalues import CompletedL, central_value, petersson_norm

forms = load_eigenforms(default_data_path())
print(f"loaded {len(forms)} newforms from {default_data_path()}")

print("\ncoefficients and traces (first primes):")
for p in (2, 3, 13):
    for N in (5, 7, 11):
        batch = [f for f in forms if f.level == N]
        total = sum(f.c(p) for f in batch)
        tr = eichler_selberg_trace(N, 4, p)
        print(f"  level {N:2d}: sum of c_{p} = {total:+.6f}   "
              f"trace formula = {tr:+d}")

print("\nper-form analytic data:")
for f in forms:
    cv = central_value(f)
    cvt = central_value(f, twist=-4)
    nrm = petersson_norm(f)
    print(f"  {f.label}: w = {cv.fricke:+d}, L(1/2) = {cv.value:.8f} "
          f"(two paths differ by {abs(cv.afe - cv.mellin):.1e}), "
          f"L(1/2, twisted by -4) = {cvt.value:.8f} (sign {cvt.eps:+d}), "
          f"norm = {nrm:.8e}")

print("\nfunctional-equation residuals (split-point variation):")
for f in forms[:2]:
    comp = CompletedL(f)
    comp_t = CompletedL(f, twist=-4)
    for s_an in (0.3, 0.5, 0.7):
        s = s_an + 1.5
        print(f"  {f.label} s_an = {s_an}: plain {comp.fe_residual(s):.2e}  "
              f"twisted {comp_t.fe_residual(s):.2e}")
