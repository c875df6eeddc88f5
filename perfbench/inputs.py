"""Workload inputs, made from the seed alone.  The package receives only
what these functions return."""

from __future__ import annotations

import math
import random

# admissible prime levels <= 59 for (D, p) = (-4, 13); dimensions 0..14
TRACE_LEVELS = (3, 7, 11, 19, 23, 31, 43, 47, 59)
TRACE_WEIGHT = 4
ORACLE_CHECK_LEVELS = (7, 11)   # levels the q-expansion oracle reaches
ORACLE_CHECK_M = 24             # Tr T_m checked against it for m <= this
# the oracle grid's quadrature points: (k, s1, s2) of the upper singular
# integrals and of the lower one at points of acceptance criterion 05, and
# (k, x, s1, s2) of the regular orbits, one each side of x = 1
SINGULAR_POINTS = ((4, 0.1, -0.05), (6, 0.1, -0.05), (8, 0.1, -0.05))
LOWER_POINT = (4, 0.07, 0.02)
REGULAR_ORBITS = ((4, 0.4127, 0.0513, 0.0378), (6, 1.8342, 0.0461, 0.0624))


def _rng(workload: str, seed) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def sweep_calls(seed: int):
    """Endless (lo, hi, bins) for warm run_experiment calls."""
    rng = _rng("interval_sweep", seed)
    while True:
        lo, hi = sorted(rng.uniform(-2.0, 2.0) for _ in range(2))
        yield lo, hi, rng.randint(2, 8)


def oracle_grid(seed: int) -> dict:
    """The seed's grid, in the shape of acceptance criteria 05, 07 and 08.

    The quadrature points are fixed: the adaptive 2-d quadrature is most
    of a grid's time, and its cost moves with the point by up to half, so
    seeded points would make the seed, not the code, set the spread.  The
    seed sets the order of the items and the negative-axis point.  A run
    repeats its grid and times every part (see child.mode_oracles).
    """
    rng = _rng("oracles", seed)
    singular = list(SINGULAR_POINTS)
    regular = list(REGULAR_ORBITS)
    rng.shuffle(singular)
    rng.shuffle(regular)
    negative = (4, -rng.uniform(0.1, 2.9), 0.05, 0.03)
    padic = []
    for q in (2, 3, 5, 7):
        for delta in (+1, -1):
            for kind in ("unramified", "level"):
                for w in range(-4, 5):
                    for vx in ([w] if w < 0 else (range(0, 5) if w == 0 else [0])):
                        padic.append((q, delta, kind, vx, w))
    rng.shuffle(padic)
    return {"singular": singular, "lower": LOWER_POINT, "regular": regular,
            "negative": negative, "padic": padic, "padic_window": 14}


def trace_pairs(seed: int, m_bound: int) -> list:
    """(N, m) for m < m_bound, gcd(m, N) = 1, at every trace level, in a
    seeded order."""
    pairs = [(N, m) for N in TRACE_LEVELS for m in range(1, m_bound)
             if math.gcd(m, N) == 1]
    _rng("hecke_traces", seed).shuffle(pairs)
    return pairs
