"""Satake-parameter measures on [-2, 2] and their spectral densities.

For a prime p and a sign delta = chi(p), the split measure (delta = +1) and
the inert measure (delta = -1, the unramified Plancherel measure) are

    split: (p-1)/(2 pi) * sqrt(4 - x^2) / (sqrt(p) + 1/sqrt(p) - x)^2
    inert: (p+1)/(2 pi) * sqrt(4 - x^2) / ((sqrt(p) + 1/sqrt(p))^2 - x^2)

Both are probability measures and tend to the semicircle (Sato-Tate) measure
as p grows.  The module also provides the Hecke-operator transfer polynomials
(traces of the double-coset functions on unramified principal series), an
independent coset-sum oracle for them, and the generating density F with its
even/odd coefficient series.

Every integral against a density on [-2, 2] (masses, moments) goes through
one helper in the angle x = 2 cos(theta), which removes the square-root
endpoint behaviour.
"""

from __future__ import annotations

import cmath
import math
import numbers

import numpy as np

from ._record import Record, set_field
from .arith import _as_int, _check_prime
from .errors import DomainError, PoleError
from .numerics import QuadratureSpec, integrate, interval

__all__ = [
    "SatakeMeasure",
    "SatakePolynomial",
    "density",
    "sato_tate_density",
    "density_csv",
    "mass",
    "satake_poly",
    "coset_list",
    "satake_coset_oracle",
    "moment",
    "basis_moment",
    "spectral_density",
    "spectral_density_series",
    "series_coefficient",
    "real_part_density",
    "density_change_of_variables_check",
    "sato_tate_limit_check",
]


class SatakeMeasure(Record):
    """Measure on [-2, 2] attached to a prime p and a sign chi(p), +1
    (split) or -1 (inert / Plancherel)."""

    __slots__ = ("p", "sign")

    def __init__(self, p: int, sign: int):
        set_field(self, "p", p)
        set_field(self, "sign", sign)
        _check_prime(p)
        if _as_int(sign, "sign") not in (+1, -1):  # True is refused
            raise DomainError("sign must be +1 or -1")


def _check_support(x) -> None:
    xs = np.asarray(x, dtype=float)
    outside = ~((-2.0 <= xs) & (xs <= 2.0))
    if outside.any():
        raise DomainError(f"x = {float(xs[outside][0])} outside [-2, 2]")


def density(m: SatakeMeasure, x):
    """Density of the measure at x in [-2, 2], a point or an array; zero at
    the endpoints."""
    _check_support(x)
    p = m.p
    root = np.sqrt(np.maximum(4.0 - x * x, 0.0))
    c = math.sqrt(p) + 1.0 / math.sqrt(p)
    if m.sign == +1:
        # float_power is libm pow, as a float's ** 2, so a point and a batch
        # give the same bits (numpy's ** 2 on arrays squares instead)
        return (p - 1) / (2.0 * math.pi) * root / np.float_power(c - x, 2)
    return (p + 1) / (2.0 * math.pi) * root / (c * c - x * x)


def sato_tate_density(x):
    """Semicircle density, the large-p limit of both measures."""
    _check_support(x)
    return np.sqrt(np.maximum(4.0 - x * x, 0.0)) / (2.0 * math.pi)


def density_csv(p: int, grid: int) -> str:
    """CSV table of the split, inert and Sato-Tate densities at the grid + 1
    equally spaced points of [-2, 2], with a header line; p must be a
    prime and grid an int >= 1."""
    p = _check_prime(p)
    grid = _as_int(grid, "density grid")
    if grid < 1:
        raise DomainError(f"density grid {grid} must be >= 1")
    x = -2.0 + 4.0 * np.arange(grid + 1) / grid
    columns = (x, density(SatakeMeasure(p=p, sign=+1), x),
               density(SatakeMeasure(p=p, sign=-1), x), sato_tate_density(x))
    rows = zip(*(col.tolist() for col in columns))
    return "".join(["x,split,inert,sato_tate\n"]
                   + [",".join(map(repr, row)) + "\n" for row in rows])


def _integrate_against(dens, f, lo: float = -2.0, hi: float = 2.0) -> float:
    """Integral of f(x) dens(x) dx over [lo, hi] clamped to [-2, 2] (0.0 if
    empty), in the angle coordinate: dx = 2 sin(theta) dtheta."""
    lo, hi = max(lo, -2.0), min(hi, 2.0)
    if lo >= hi:
        return 0.0

    def g(th):
        x = 2.0 * np.cos(th)
        return f(x) * dens(x) * 2.0 * np.sin(th)

    spec = QuadratureSpec(domain=interval(math.acos(hi / 2.0), math.acos(lo / 2.0)),
                          rel_tol=1e-12, abs_tol=1e-14)
    return integrate(g, spec).require().real


def mass(m: SatakeMeasure, lo: float = -2.0, hi: float = 2.0) -> float:
    """Mass of the measure on [lo, hi] (clamped to [-2, 2]).  Each bound must
    be a real number, infinities included; a string, bool, None, complex or
    NaN bound is DomainError."""
    for name, x in (("lo", lo), ("hi", hi)):
        if isinstance(x, bool) or not isinstance(x, numbers.Real) or x != x:
            raise DomainError(f"mass bound {name} = {x!r} is not a real number")
    return _integrate_against(lambda x: density(m, x), lambda x: 1.0, lo, hi)


# ---------------------------------------------------------------------------
# transfer polynomials psi_n and the coset-sum oracle
# ---------------------------------------------------------------------------

def chebyshev_x(j: int, x):
    """X_j(x) = 2 cos(j theta) under x = 2 cos(theta); X_0 = 2."""
    if j == 0:
        return 2.0 if not isinstance(x, complex) else complex(2.0)
    prev, cur = 2.0, x
    for _ in range(j - 1):
        prev, cur = cur, x * cur - prev
    return cur


class SatakePolynomial(Record):
    """p-normalized trace polynomial of the n-th Hecke double coset.

    Stored on the basis {1, X_1, X_2, ...} as coeffs, pairs (j,
    coefficient): coefficient 1 on X_n and (1 - 1/p) on every lower index
    of the same parity (index 0 standing for the constant 1, not X_0 = 2).
    The full transfer is p^(n/2) times this.
    """

    __slots__ = ("n", "p", "coeffs")

    def __init__(self, n: int, p: int, coeffs: tuple):
        set_field(self, "n", n)
        set_field(self, "p", p)
        set_field(self, "coeffs", coeffs)

    def evaluate(self, x):
        total = 0.0 if not isinstance(x, complex) else 0.0j
        for j, cf in self.coeffs:
            base = 1.0 if j == 0 else chebyshev_x(j, x)
            total = total + cf * base
        return total


def _check_index(n: int) -> int:
    """n as an int when it is an index n >= 0 (of a double coset or of X_n);
    a float or a bool (_as_int) or a negative n is DomainError."""
    n = _as_int(n, "index n")
    if n < 0:
        raise DomainError("index n must be >= 0")
    return n


def satake_poly(n: int, p: int) -> SatakePolynomial:
    n = _check_index(n)
    _check_prime(p)
    if n == 0:
        return SatakePolynomial(n=0, p=p, coeffs=((0, 1.0),))
    coeffs = [(n, 1.0)]
    low = 1.0 - 1.0 / p
    j = n - 2
    while j >= 0:
        coeffs.append((j, low))
        j -= 2
    return SatakePolynomial(n=n, p=p, coeffs=tuple(coeffs))


def coset_list(n: int, p: int) -> list:
    """Single-coset data (a, d, multiplicity) for the n-th double coset.

    Representatives are upper triangular with diagonal (p^a, p^d); the
    multiplicity counts the admissible top-right entries.
    """
    n = _check_index(n)
    _check_prime(p)
    if n == 0:
        return [(0, 0, 1)]
    out = [(n, 0, p ** n)]
    for k in range(1, n + 1):
        mult = 1 if k == n else p ** (n - k) - p ** (n - k - 1)
        out.append((n - k, k, mult))
    return out


def satake_coset_oracle(n: int, p: int, s: complex) -> complex:
    """Trace of the n-th double-coset function on unramified principal series.

    Sums the half-density-twisted central character over the explicit single
    cosets; must equal p^(n/2) * psi_n(p^s + p^(-s)).
    """
    total = 0.0j
    for a, d, mult in coset_list(n, p):
        diff = a - d
        total += mult * p ** (-diff / 2.0) * p ** (-diff * complex(s))
    return total


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

def moment(m: SatakeMeasure, n: int) -> float:
    """Measure of the n-th Hecke double-coset function.

    Integrates the full transfer p^(n/2) psi_n against the measure.  The
    contract: 1 for n = 0; for n >= 1, 2 when sign = +1 and 0 when -1.
    """
    n = _check_index(n)
    psi = satake_poly(n, m.p)
    scale = m.p ** (n / 2.0)
    return scale * _integrate_against(lambda x: density(m, x), psi.evaluate)


def basis_moment(m: SatakeMeasure, n: int) -> float:
    """Integral of the basis function X_n (X_0 = 2) against the measure."""
    n = _check_index(n)
    return _integrate_against(lambda x: density(m, x), lambda x: chebyshev_x(n, x))


def sato_tate_basis_moment(n: int) -> float:
    """Integral of X_n against the semicircle measure (2 for n = 0, else 0)."""
    return _integrate_against(sato_tate_density, lambda x: chebyshev_x(n, x))


# ---------------------------------------------------------------------------
# the generating density F and its series
# ---------------------------------------------------------------------------

def _sign_power_ratio(m: int, delta: complex) -> complex:
    """(delta^m - delta^(-m)) / (delta - delta^(-1)) as a polynomial limit.

    Evaluated as delta^(m-1) + delta^(m-3) + ... + delta^(1-m), which is
    well defined at delta = +-1 (value m * delta^(m-1)).
    """
    if m <= 0:
        return 0.0 + 0.0j
    return sum(complex(delta) ** (m - 1 - 2 * j) for j in range(m))


def _check_delta(delta) -> complex:
    """delta as a complex number; zero, infinite or NaN is DomainError (the
    one rule of the closed form and the series)."""
    d = complex(delta)
    if d == 0 or not cmath.isfinite(d):
        raise DomainError(f"delta = {delta!r} must be finite and nonzero")
    return d


def series_coefficient(n: int, p: int, delta: complex) -> complex:
    """Coefficient C_n of p^(n(s - 1/2)) in the density series; C_0 = 1.
    n must be an index n >= 0, p a prime and delta finite and nonzero."""
    n = _check_index(n)
    _check_prime(p)
    d = _check_delta(delta)
    if n == 0:
        return 1.0 + 0.0j
    return d ** n + d ** (-n) - (p - 1) * _sign_power_ratio(n - 1, d)


def spectral_density(p: int, delta: complex, s: complex) -> complex:
    """Closed form (1 - p^(2s)) / ((1 - T/delta)(1 - delta T)), T = p^(s-1/2);
    delta must be finite and nonzero."""
    _check_prime(p)
    d = _check_delta(delta)
    t = p ** (complex(s) - 0.5)
    denom = (1.0 - t / d) * (1.0 - d * t)
    if abs(denom) < 1e-14:
        raise PoleError(f"spectral density pole at T = {t}")
    return (1.0 - p ** (2.0 * complex(s))) / denom


# coefficients per parity part in spectral_density_series
SERIES_TERMS = 50


def spectral_density_series(p: int, delta: complex, s: complex) -> complex:
    """Truncated series for the density, summed by parity depth.

    SERIES_TERMS counts coefficients per parity part (even indices up to
    2*SERIES_TERMS, odd up to 2*SERIES_TERMS - 1), so the truncation error
    is of order p^(-SERIES_TERMS) times a linear factor.  p must be a
    prime and delta finite and nonzero, as in spectral_density.
    """
    _check_prime(p)
    _check_delta(delta)
    t = p ** (complex(s) - 0.5)
    total = 1.0 + 0.0j
    tn = 1.0 + 0.0j
    for n in range(1, 2 * SERIES_TERMS + 1):
        tn = tn * t
        total += series_coefficient(n, p, delta) * tn
    return total


def real_part_density(p: int, s: complex) -> complex:
    """(F(s) + F(-s))/2 in its displayed closed form, for delta = 1."""
    num = (1.0 - 1.0 / p) * (2.0 - p ** (2 * complex(s)) - p ** (-2 * complex(s)))
    den = (1.0 + 1.0 / p - p ** (-0.5 + complex(s)) - p ** (-0.5 - complex(s))) ** 2
    return 0.5 * num / den


# interior points of [-2, 2] at which the transported density is compared
CHECK_GRID_POINTS = 1000


def density_change_of_variables_check(p: int) -> float:
    """Transport the s-line density to [-2, 2] and compare with the split
    density pointwise at CHECK_GRID_POINTS interior points; returns the
    maximum discrepancy."""
    m = SatakeMeasure(p=p, sign=+1)
    logp = math.log(p)
    xs = np.linspace(-2.0, 2.0, CHECK_GRID_POINTS + 2)[1:-1]
    worst = 0.0
    for x in xs:
        theta = math.acos(x / 2.0)
        s = 1j * theta / logp
        mu_s = real_part_density(p, s).real
        transported = mu_s / (math.pi * math.sqrt(4.0 - x * x))
        worst = max(worst, abs(transported - density(m, x)))
    return worst


def sato_tate_limit_check(sign: int, n: int, primes) -> dict:
    """Moments of X_n along a prime sequence, with the semicircle target."""
    primes = list(primes)
    if any(q >= r for q, r in zip(primes, primes[1:])):
        raise DomainError("prime sequence must be increasing")
    vals = [basis_moment(SatakeMeasure(p=q, sign=sign), n) for q in primes]
    target = sato_tate_basis_moment(n)
    return {"primes": primes, "moments": vals, "limit": target}
