#!/usr/bin/env python3
"""Local orbital integrals: every closed form against an independent oracle.

Archimedean side: the degenerate (triangular) orbit integrals of the
discrete-series matrix coefficient have a one-term Gamma closed form; the
regular orbits have Beta * Beta * 2F1 closed forms.  Both are checked here
against direct 2-d quadrature.

Non-archimedean side: all integrals reduce to exact lattice-cell sums; the
closed forms are compared cell-by-cell against brute-force enumeration, and
the Gauss sums come out as i sqrt(|D|).
"""

import math

from modlavg import arch_local as al
from modlavg import padic_local as pl

print("archimedean degenerate orbit (upper triangular), k = 4:")
closed = al.singular_upper_closed(4, 0.0, 0.0)
quad = al.singular_upper_quadrature(4, 0.0, 0.0)
print(f"  Gamma closed form = {closed:.12f}")
print(f"  2-d quadrature    = {quad:.12f}")
print(f"  printed display   = {al.singular_upper_display(4):.6f}   "
      "(its wrong half-integer Gamma reduction is visible here)")
lo = al.singular_lower_quadrature(4, 0.05, 0.03)
refl = -al.singular_upper_closed(4, -0.03, -0.05)
print(f"  lower orbit reflection gap: {abs(lo - refl) / abs(refl):.2e}")

print("\nregular archimedean orbits, hypergeometric closed form:")
for (k, x) in ((4, 0.5), (6, 0.25), (4, 1.8)):
    qd = al.regular_integral_quadrature(k, x, 0.04, 0.03)
    cl = al.regular_integral_closed(k, x, 0.04, 0.03)
    print(f"  k = {k}, x = {x}: closed {cl:.10e}  "
          f"rel gap {abs(qd - cl) / abs(cl):.2e}")

print("\nexact cell enumeration at an unramified place (q = 3, split):")
place = pl.PlaceSpec(q=3, kind="unramified", chi_q=+1)
for vx, w in ((0, 0), (2, 0), (-2, -2)):
    orbit = pl.OrbitDatum(kind="regular", vx=vx, v1mx=w)
    res = pl.brute_force_integral(place, orbit, window=10)
    closed = pl.regular_closed_form(place, vx, w)
    print(f"  v(x) = {vx:+d}, v(1-x) = {w:+d}: cells {list(res.cells)}, "
          f"closed form matches: {closed.as_dict() == res.value.as_dict()}")

print("\nthe level place kills everything except v(1-x) = 0, v(x) >= 1:")
lvl = pl.PlaceSpec(q=7, kind="level", chi_q=-1)
for vx, w in ((1, 0), (2, 0), (0, 1), (-1, -1)):
    orbit = pl.OrbitDatum(kind="regular", vx=vx, v1mx=w)
    val = pl.brute_force_integral(lvl, orbit, window=10).value
    shown = val.as_dict() if not val.is_zero() else 0
    print(f"  v(x) = {vx:+d}, v(1-x) = {w:+d}: {shown}")

print("\nswapped degenerate orbits vanish identically at the level place:")
for kind in ("swap_upper", "swap_lower"):
    cells = pl.brute_force_integral(lvl, pl.OrbitDatum(kind=kind), 10).cells
    print(f"  {kind}: {len(cells)} accepted cells")

print("\ndouble-coset transforms at the auxiliary prime (q = 3):")
for delta in (+1, -1):
    quots = [pl.hecke_transform_quotient(3, delta, n, 1e-8, 0.0, "upper").real
             for n in range(5)]
    print(f"  sign {delta:+d}: normalized transform values "
          + " ".join(f"{v:+.6f}" for v in quots)
          + "   (limits: 1 then " + ("2" if delta > 0 else "0") + ")")

print("\nGauss sums:")
for D in (-3, -4, -7, -8, -11):
    g = pl.gauss_sum(D)
    print(f"  D = {D:3d}: g = {g:.10f}  |g| - sqrt|D| = "
          f"{abs(g) - math.sqrt(-D):+.2e}")
