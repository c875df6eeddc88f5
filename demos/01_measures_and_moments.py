#!/usr/bin/env python3
"""Walk through the split/inert measures on [-2, 2].

For a prime p and a sign (the quadratic character value at p) there is a
probability density on the Satake segment [-2, 2]: the inert one is the
familiar unramified Plancherel density, the split one is tilted toward
positive eigenvalues.  Both converge to the semicircle as p grows.

This script prints the density at a few points, verifies the unit mass (the
closed form and its quadrature), tabulates the Hecke-transfer moments (the
defining property: the measure of the n-th double-coset function is 2 for
split, 0 for inert), and shows the drift of the first moment toward the
symmetric semicircle value.
"""

import math

from modlavg import measures as ms

print("densities at x = 0 and x = 1")
for p in (2, 3, 5, 13):
    split = ms.SatakeMeasure(p=p, sign=+1)
    inert = ms.SatakeMeasure(p=p, sign=-1)
    print(f"  p = {p:2d}: split ({ms.density(split, 0.0):.6f}, "
          f"{ms.density(split, 1.0):.6f})   "
          f"inert ({ms.density(inert, 0.0):.6f}, {ms.density(inert, 1.0):.6f})   "
          f"semicircle ({ms.sato_tate_density(0.0):.6f}, "
          f"{ms.sato_tate_density(1.0):.6f})")

print("\nunit mass (closed form, and the quadrature of moment 0):")
for p in (2, 7, 13):
    for sign in (+1, -1):
        m = ms.SatakeMeasure(p=p, sign=sign)
        print(f"  p = {p:2d}, sign = {sign:+d}: mass = {ms.mass(m)!r}, "
              f"quadrature = {ms.moment(m, 0)!r}")

print("\ntransfer moments (target: 1, then 2,2,... split / 0,0,... inert):")
for p in (3, 5):
    split = ms.SatakeMeasure(p=p, sign=+1)
    inert = ms.SatakeMeasure(p=p, sign=-1)
    srow = [ms.moment(split, n) for n in range(6)]
    irow = [ms.moment(inert, n) for n in range(6)]
    print(f"  p = {p}: split " + " ".join(f"{v:+.6f}" for v in srow))
    print(f"         inert " + " ".join(f"{v:+.6f}" for v in irow))

print("\nthe split bias 2/sqrt(p) decays toward the symmetric limit:")
out = ms.sato_tate_limit_check(+1, 1, [2, 5, 13, 41, 151, 601])
for p, v in zip(out["primes"], out["moments"]):
    print(f"  p = {p:4d}: first moment = {v:+.6f}  "
          f"(2/sqrt(p) = {2.0 / math.sqrt(p):.6f})")
print(f"  semicircle limit: {out['limit']:+.6f}")

print("\nspectral density on the unitary segment: series vs closed form")
p = 2
for theta in (0.3, 1.1, 2.0):
    s = 1j * theta / math.log(p)
    closed = ms.spectral_density(p, 1.0, s)
    series = ms.spectral_density_series(p, 1.0, s)
    print(f"  theta = {theta:.1f}: closed {closed:.12f}  "
          f"|closed - series| = {abs(closed - series):.2e}")

gap = ms.density_change_of_variables_check(2)
print(f"\ntransporting the line density to [-2, 2] reproduces the split "
      f"density pointwise (max gap {gap:.2e})")
