"""Non-archimedean local integrals by exact lattice-cell enumeration.

Local integrals of the torus-period kind reduce, place by place, to sums of
unit-coset cell weights over the valuations (v(a), v(b)) of the two torus
variables.  A cell is accepted iff some central scaling puts the orbit
matrix into the place's test-function support; that membership depends only
on valuations and is decided exactly here, for three supports:

  * unramified maximal (Z_q K_q),
  * level (Z_N K_0(N), with the 1/V_N = N+1 volume normalization),
  * Hecke double coset of signature (r, r') with r >= r' (Smith invariants:
    content exactly r', determinant valuation r + r').

Ramified places are not enumerated; only their Gauss sums live here.

Orbits are the regular family (parameterized by v(x), v(1-x)) and the five
singular representatives; weights are tracked exactly as Laurent data in
(chi(q) q^{s1}, q^{-s2}).  The Hecke singular transforms rest on two
identities, each stated once: the closed transform is the local L-factor
times the pole-free quotient, and the lower side is chi(q)^n times the upper
side at (-s2, -s1), which on Laurent data exchanges the two exponents.

The membership rule is one function over integer arrays of valuations, so a
window of cells is decided in blocks of rows, exactly (integer arithmetic
throughout; a zero matrix entry has no valuation and is left out of the
rule, not given a sentinel one); ``membership_oracle`` is that rule at one
cell.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import reduce

import numpy as np

from ._record import Record, set_field
from .arith import _as_int, _check_negative_fundamental, _check_prime, _factorize, kronecker
from .errors import DomainError, InvariantViolation, PoleError, WindowError

__all__ = [
    "PlaceSpec",
    "OrbitDatum",
    "LaurentValue",
    "membership_oracle",
    "regular_closed_form",
    "brute_force_integral",
    "support_box",
    "hecke_transform_closed",
    "hecke_transform_quotient",
    "gauss_sum",
    "local_conductor_exponents",
    "n_minus_reflection_check",
]

_BLOCK_ROWS = 32  # rows of v(a) that brute_force_integral decides at once


# ---------------------------------------------------------------------------
# places and orbits
# ---------------------------------------------------------------------------

class PlaceSpec(Record):
    """A place q of kind unramified, level or hecke, the character value
    chi_q at q, and at a Hecke place its signature r >= r2."""

    __slots__ = ("q", "kind", "chi_q", "r", "r2")

    def __init__(self, q: int, kind: str = "unramified", chi_q: int = +1, r: int = 0,
                 r2: int = 0):
        set_field(self, "q", q)
        set_field(self, "kind", kind)
        set_field(self, "chi_q", chi_q)
        set_field(self, "r", r)
        set_field(self, "r2", r2)
        _check_prime(q)
        if kind not in ("unramified", "level", "hecke"):
            raise DomainError(f"unknown place kind {kind!r}")
        # a float or a bool is refused (_as_int) before any comparison
        chi_q, r, r2 = _as_int(chi_q, "chi_q"), _as_int(r, "r"), _as_int(r2, "r2")
        if kind == "hecke" and r < r2:
            raise DomainError("hecke signature requires r >= r'")
        if chi_q not in (+1, -1):
            raise DomainError("chi_q must be +1 or -1")


class OrbitDatum(Record):
    """Regular orbit (valuations of x and 1-x) or a singular representative.

    kind: "regular" | "upper" | "lower" | "swap_upper" | "swap_lower",
    the singular names meaning the degenerate upper-triangular, lower-
    triangular and their two swapped companions.
    """

    __slots__ = ("kind", "vx", "v1mx")

    def __init__(self, kind: str = "regular", vx: int = 0, v1mx: int = 0):
        set_field(self, "kind", kind)
        set_field(self, "vx", vx)
        set_field(self, "v1mx", v1mx)
        if kind not in ("regular", "upper", "lower", "swap_upper", "swap_lower"):
            raise DomainError(f"unknown orbit kind {kind!r}")
        for value, name in ((vx, "vx"), (v1mx, "v1mx")):
            _as_int(value, name)  # a float or a bool is refused
        if kind == "regular":
            # x + (1 - x) = 1 forces the valuation pattern below
            ok = (
                (v1mx < 0 and vx == v1mx)
                or (v1mx == 0 and vx >= 0)
                or (v1mx > 0 and vx == 0)
            )
            if not ok:
                raise InvariantViolation(
                    f"impossible orbit valuations v(x)={vx}, v(1-x)={v1mx}"
                )


def _entry_valuations(orbit: OrbitDatum, va, vb) -> tuple:
    """Valuations of the four matrix entries (None for a zero entry) and of
    the determinant, elementwise over integer arrays va, vb."""
    if orbit.kind == "upper":      # [[b, a], [0, 1]]
        return (vb, va, None, 0), vb
    if orbit.kind == "lower":      # [[a, 0], [b, 1]]
        return (va, None, vb, 0), va
    ab = va + vb
    if orbit.kind == "regular":
        return (ab, va + orbit.vx, vb, 0), ab + orbit.v1mx
    if orbit.kind == "swap_upper":  # [[0, a], [b, 1]]
        return (None, va, vb, 0), ab
    # swap_lower: [[ab, a], [b, 0]]
    return (ab, va, vb, None), ab


def _weight_exponents(orbit: OrbitDatum, va, vb) -> tuple:
    """Exponent pair (m, n) of the cell weight (chi(q) q^{s1})^m q^{-n s2}."""
    if orbit.kind == "regular":
        return va, vb
    if orbit.kind == "upper":
        return va, vb - va
    if orbit.kind == "lower":
        return va - vb, vb
    return va, vb  # both swapped orbits carry the regular-shaped weight


def _accepted(place: PlaceSpec, orbit: OrbitDatum, va, vb):
    """Elementwise over integer arrays va, vb: True iff some central scaling
    lands the orbit matrix of the cell (va, vb) in the support.

    Scaling by q^lam adds lam to each entry valuation and 2 lam to the
    determinant's, which the support fixes at R (r + r' at the Hecke place,
    else 0): so lam2 = R - v(det) must be even, and lam = lam2 / 2.  Every
    entry then lands in the support iff the smallest present one does, so
    one test decides them all: low + lam >= 0, or == r' at the Hecke place,
    whose content is exactly q^r'.  The level place adds the lower-left
    test.  Parity and lam are `& 1` and `>> 1`, exact floors on int64 as on
    Python ints; on Python ints (one cell) only operators and the builtin
    min run, so a single cell takes no numpy call."""
    entries, det_v = _entry_valuations(orbit, va, vb)
    hecke = place.kind == "hecke"
    lam2 = (place.r + place.r2 if hecke else 0) - det_v
    lam = lam2 >> 1
    low = reduce(min if type(lam2) is int else np.minimum,
                 [e for e in entries if e is not None])
    shifted = low + lam
    ok = ((lam2 & 1) == 0) & (shifted == place.r2 if hecke else shifted >= 0)
    if place.kind == "level":
        # the lower-left entry must be nonzero and fall in the maximal ideal
        ok = ok & (entries[2] is not None and entries[2] + lam >= 1)
    return ok


def membership_oracle(place: PlaceSpec, orbit: OrbitDatum, va: int, vb: int) -> bool:
    """True iff some central scaling lands the orbit matrix in the support."""
    return bool(_accepted(place, orbit, va, vb))


# ---------------------------------------------------------------------------
# exact Laurent bookkeeping
# ---------------------------------------------------------------------------

class LaurentValue(Record):
    """Finite integer combination of terms (chi(q) q^{s1})^m q^{-n s2},
    held as sorted pairs ((m, n), coeff)."""

    __slots__ = ("terms",)

    def __init__(self, terms: tuple = ()):
        set_field(self, "terms", terms)

    @staticmethod
    def from_dict(d: dict) -> "LaurentValue":
        items = tuple(sorted((mn, c) for mn, c in d.items() if c != 0))
        return LaurentValue(terms=items)

    def as_dict(self) -> dict:
        return dict(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def evaluate(self, delta: int, q: int, s1: complex, s2: complex) -> complex:
        total = 0.0j
        for (m, n), c in self.terms:
            total += c * (delta * q ** complex(s1)) ** m * q ** (-n * complex(s2))
        return total

    def reflected(self, delta: int) -> "LaurentValue":
        """Image under (s1, s2) -> (-s2, -s1), valid for delta = +-1."""
        d = {}
        for (m, n), c in self.terms:
            sign = delta ** ((m + n) % 2)
            key = (n, m)
            d[key] = d.get(key, 0) + sign * c
        return LaurentValue.from_dict(d)


def _volume_factor(place: PlaceSpec) -> int:
    if place.kind == "level":
        return place.q + 1  # 1 / V_N under vol(K Z / Z) = 1
    return 1


class BruteForceResult(Record):
    __slots__ = ("value", "touched_boundary", "cells")
    _shown = ("value", "touched_boundary")

    def __init__(self, value: LaurentValue, touched_boundary: bool, cells: tuple = ()):
        set_field(self, "value", value)
        set_field(self, "touched_boundary", touched_boundary)
        set_field(self, "cells", cells)


def brute_force_integral(place: PlaceSpec, orbit: OrbitDatum,
                         window: int) -> BruteForceResult:
    """Sum accepted cell weights over |v(a)|, |v(b)| <= window, exactly.

    The cells are decided _BLOCK_ROWS rows of v(a) at a time, so the
    temporaries stay bounded as the window grows: one _accepted pass per
    block, whose flat hit indices become the (v(a), v(b)) cells as Python
    ints.  The boundary test and the weight counts read that cell list.
    Regular orbits have bounded support; if it touches the window edge a
    WindowError is raised.  Singular orbits have one-sided infinite
    geometric support, so a touched boundary is reported, not an error.
    """
    window = _as_int(window, "window")
    if window < 1:
        raise DomainError(f"window must be an int >= 1, got {window!r}")
    width = 2 * window + 1
    vb_row = np.arange(-window, window + 1)
    cells = []
    for lo in range(-window, window + 1, _BLOCK_ROWS):
        va_col = np.arange(lo, min(lo + _BLOCK_ROWS, window + 1))[:, None]
        hits = _accepted(place, orbit, va_col, vb_row).ravel().nonzero()[0].tolist()
        # blocks run up v(a) and the flat indices are row-major, so the
        # cells come out sorted
        cells += [(lo + i // width, i % width - window) for i in hits]
    touched = any(max(abs(va), abs(vb)) == window for va, vb in cells)
    if touched and orbit.kind == "regular":
        raise WindowError(
            f"regular-orbit support touches the window boundary (B={window})"
        )
    counts = Counter(_weight_exponents(orbit, va, vb) for va, vb in cells)
    vol = _volume_factor(place)
    val = LaurentValue.from_dict({mn: vol * c for mn, c in counts.items()})
    return BruteForceResult(value=val, touched_boundary=touched, cells=tuple(cells))


def support_box(place: PlaceSpec, orbit: OrbitDatum) -> tuple:
    """Predicted support box ((va_lo, va_hi), (vb_lo, vb_hi)) for regular
    orbits at an unramified place, from the eliminated inequality system."""
    if orbit.kind != "regular" or place.kind != "unramified":
        raise DomainError("support box is stated for regular unramified orbits")
    w, vx = orbit.v1mx, orbit.vx
    return (w - vx, -w), (w, vx - w)


def regular_closed_form(place: PlaceSpec, vx: int, v1mx: int) -> LaurentValue:
    """Closed form of the regular local integral as exact Laurent data.

    The support reduces to a single diagonal of cells: v(a) + v(b) = 0 when
    v(1-x) = 0 (level: with v(b) >= 1), and v(a) = v(b) - v(1-x) with
    v(b) in [v(1-x), 0] when v(1-x) < 0.  Vanishes when v(1-x) > 0, and at
    the level place whenever v(1-x) != 0.
    """
    orbit = OrbitDatum(kind="regular", vx=vx, v1mx=v1mx)  # validates datum
    if place.kind == "unramified":
        if v1mx > 0:
            return LaurentValue()
        if v1mx == 0:
            return LaurentValue.from_dict({(-n, n): 1 for n in range(vx + 1)})
        return LaurentValue.from_dict(
            {(vb - v1mx, vb): 1 for vb in range(v1mx, 1)}
        )
    if place.kind == "level":
        if v1mx != 0 or vx < 1:
            return LaurentValue()
        vol = _volume_factor(place)
        return LaurentValue.from_dict({(-n, n): vol for n in range(1, vx + 1)})
    raise DomainError(f"no closed form for place kind {place.kind!r}")


# ---------------------------------------------------------------------------
# singular transforms of the Hecke double cosets (auxiliary place)
# ---------------------------------------------------------------------------

def _local_l(delta: int, q: int, z: complex) -> complex:
    """L_q(z, chi) = 1 / (1 - chi(q) q^{-z})."""
    den = 1.0 - delta * q ** (-complex(z))
    if abs(den) < 1e-13:
        raise PoleError(f"local L-factor pole at z = {z}")
    return 1.0 / den


def _check_hecke(delta: int, n: int, side: str) -> int:
    """Refuse delta other than +-1 (a bool, a float or a string too, by
    _as_int), n < 0 and an unknown side, before any arithmetic; returns n as
    an int."""
    if _as_int(delta, "delta") not in (+1, -1):
        raise DomainError(f"delta must be +1 or -1, got {delta!r}")
    n = _as_int(n, "index n")
    if n < 0:
        raise DomainError(f"index n must be an int >= 0, got {n!r}")
    if side not in ("upper", "lower"):
        raise DomainError(f"side must be 'upper' or 'lower', got {side!r}")
    return n


def _upper_cells(n: int) -> tuple:
    """Exponents (m, n') of the upper cells (chi(q) q^{s1})^m q^{-n' s2}: the
    heads of the families v(b) = +-n (one family at n = 0), geometric of ratio
    chi(q) q^{s1+s2} up v(a), and the single cells v(b) = n - 2 alpha, 0 < alpha < n."""
    return {(0, n), (-n, 0)}, {(-a, n - a) for a in range(1, n)}


def hecke_transform_quotient(q: int, delta: int, n: int, s1: complex, s2: complex,
                             side: str) -> complex:
    """The singular transform of the n-th double-coset function divided by
    its local L-factor; finite at s = 0, and 1 at n = 0.  The upper side is
        q^{-n s2} + delta^-n q^{-n s1} + (1 - delta q^{s1+s2})
            * sum_{alpha=1}^{n-1} delta^-alpha q^{-alpha s1 - (n-alpha) s2},
    the lower side delta^n times the upper side at (-s2, -s1).  Tends to 2
    (delta = +1) and 0 (delta = -1) for every n >= 1.  A q that is not prime
    is DomainError.
    """
    _check_prime(q)
    n = _check_hecke(delta, n, side)
    s1, s2 = complex(s1), complex(s2)
    if side == "lower":
        return delta ** n * hecke_transform_quotient(q, delta, n, -s2, -s1, "upper")
    x, y = delta * q ** s1, q ** -s2
    heads, middle = (sum(x ** m * y ** k for m, k in cells) for cells in _upper_cells(n))
    return heads + (1.0 - delta * q ** (s1 + s2)) * middle


def hecke_transform_closed(q: int, delta: int, n: int, s1: complex, s2: complex,
                           side: str) -> complex:
    """Value of the singular integral of the n-th double-coset function: the
    local L-factor L_q(-s1-s2) (upper) or L_q(s1+s2) (lower) times
    hecke_transform_quotient; PoleError at its pole (delta = +1, s1 + s2 = 0)."""
    quotient = hecke_transform_quotient(q, delta, n, s1, s2, side)
    z = complex(s1) + complex(s2)
    return _local_l(delta, q, -z if side == "upper" else z) * quotient


def hecke_singular_window(q: int, n: int, side: str, window: int) -> LaurentValue:
    """Window-clipped Laurent data of the three coset families (v(a) <= window
    on the upper side, exponents exchanged on the lower), for exact comparison
    against the brute-force enumeration; the cells do not depend on chi(q)."""
    n, window = _check_hecke(+1, n, side), _as_int(window, "window")
    if window < n + 1:
        raise DomainError("need window > n")
    heads, middle = _upper_cells(n)
    cells = middle | {(m + j, k - j) for m, k in heads for j in range(window - m + 1)}
    upper = LaurentValue.from_dict(dict.fromkeys(cells, 1))
    return upper if side == "upper" else upper.reflected(+1)


# ---------------------------------------------------------------------------
# Gauss sums
# ---------------------------------------------------------------------------

def gauss_sum(D: int) -> complex:
    """g(chi_D) = sum_a chi_D(a) e^{2 pi i a / |D|} for fundamental D < 0.

    Equals i * sqrt(|D|) for the odd quadratic character.
    """
    D = _check_negative_fundamental(D)
    mod = abs(D)
    re = math.fsum(
        kronecker(D, a) * math.cos(2.0 * math.pi * a / mod) for a in range(1, mod)
    )
    im = math.fsum(
        kronecker(D, a) * math.sin(2.0 * math.pi * a / mod) for a in range(1, mod)
    )
    return complex(re, im)


def local_conductor_exponents(D: int) -> dict:
    """Prime factorization q -> m of the conductor |D|; the local Gauss sum
    at each ramified q has absolute value q^{m/2}."""
    return _factorize(abs(D))


# ---------------------------------------------------------------------------
# reflection checks
# ---------------------------------------------------------------------------

# valuation window of the enumerations in n_minus_reflection_check
REFLECTION_WINDOW = 12


def n_minus_reflection_check(q: int, delta: int) -> dict:
    """Check the lower/upper singular reflection at an unramified place and
    the level-place closed form, by exact enumeration over the valuation
    window REFLECTION_WINDOW.

    Returns the observed discrepancies (all should be zero / tiny).
    """
    place = PlaceSpec(q=q, kind="unramified", chi_q=delta)
    up = brute_force_integral(place, OrbitDatum(kind="upper"), REFLECTION_WINDOW).value
    lo = brute_force_integral(place, OrbitDatum(kind="lower"), REFLECTION_WINDOW).value
    laurent_gap = 0
    refl = up.reflected(delta).as_dict()
    lod = lo.as_dict()
    for key in set(refl) | set(lod):
        laurent_gap = max(laurent_gap, abs(refl.get(key, 0) - lod.get(key, 0)))

    # level place: lower orbit sums to (q+1) chi(q) q^{-s1-s2} L_q(s1+s2)
    lvl = PlaceSpec(q=q, kind="level", chi_q=delta)
    lo_lvl = brute_force_integral(lvl, OrbitDatum(kind="lower"), REFLECTION_WINDOW).value
    s1, s2 = 0.111, 0.073
    closed = (q + 1) * delta * q ** (-(s1 + s2)) * _local_l(delta, q, s1 + s2)
    # subtract the geometric tail beyond the window
    ratio = delta * q ** (-(s1 + s2))
    tail = (q + 1) * ratio ** (REFLECTION_WINDOW + 1) / (1.0 - ratio)
    level_gap = abs(lo_lvl.evaluate(delta, q, s1, s2) - (closed - tail))

    # the basic support is the n = 0 double coset, so the singular integrals
    # ARE the local L-factors: their cells are the n = 0 Hecke window, which
    # is the exact statement that the normalized quotients are identically 1
    f_up = up == hecke_singular_window(q, 0, "upper", REFLECTION_WINDOW)
    f_lo = lo == hecke_singular_window(q, 0, "lower", REFLECTION_WINDOW)
    return {
        "laurent_gap": laurent_gap,
        "level_gap": level_gap,
        "f_quotient_upper_is_one": f_up,
        "f_quotient_lower_is_one": f_lo,
    }
