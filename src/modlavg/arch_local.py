"""Archimedean local integrals for the weight-k discrete-series test function.

The test function is the formal degree times the conjugate lowest-weight
matrix coefficient; it is supported on positive-determinant matrices.  This
module evaluates:

  * the two singular torus integrals (over the upper and lower triangular
    degenerate orbits), each both in closed form via Gamma factors and by
    direct 2-d quadrature of the defining double integral;
  * the printed constant h(k) and the leading constant c_k built from it,
    in exact integer arithmetic;
  * the regular orbital integrals, by quadrature over the positive quadrant
    and via a Beta * Beta * 2F1 closed form.

Every closed form here is cross-checked against quadrature in the test
suite; the quadrature path is the ground truth.
"""

from __future__ import annotations

import cmath
import math

from .errors import DomainError
from .numerics import (
    QuadratureSpec,
    beta,
    hyp2f1,
    integrate,
    log_gamma,
    quadrant,
)

__all__ = [
    "default_formal_degree",
    "matrix_coefficient",
    "alternating_weight_sum",
    "leading_constant",
    "singular_upper_closed",
    "singular_upper_display",
    "singular_upper_quadrature",
    "singular_term_closed",
    "singular_term_quadrature",
    "singular_lower_quadrature",
    "regular_integral_closed",
    "regular_integral_quadrature",
]


def default_formal_degree(k: int) -> float:
    """Formal degree (k-1)/2 under the hyperbolic-area normalization."""
    return (k - 1) / 2.0


def _check_weight(k: int) -> None:
    if k % 2 != 0 or k < 4:
        raise ValueError(f"weight k = {k} must be an even integer >= 4")


def matrix_coefficient(g, k: int, d: float) -> complex:
    """Value of the test function at a 2x2 real matrix g.

    d * (2 sqrt(det g))^k / (a + d_entry + i(b - c))^k for det g > 0, else 0.
    """
    _check_weight(k)
    (a, b), (c, dd) = (g[0][0], g[0][1]), (g[1][0], g[1][1])
    det = a * dd - b * c
    if det <= 0:
        return 0.0j
    num = (2.0 * math.sqrt(det)) ** k
    den = complex(a + dd, b - c) ** k
    return d * num / den


# ---------------------------------------------------------------------------
# printed constants
# ---------------------------------------------------------------------------

def alternating_weight_sum(k: int) -> int:
    """1 + sum over n of C(k, 2n+1) (-1)^(k/2-n) (k/2+n-1)! (k/2-n-2)!.

    Exact integer arithmetic; n runs from 0 to k/2 - 2.
    """
    _check_weight(k)
    m = k // 2
    total = 1
    for n in range(0, m - 1):
        total += (
            math.comb(k, 2 * n + 1)
            * (-1) ** (m - n)
            * math.factorial(m + n - 1)
            * math.factorial(m - n - 2)
        )
    return total


def leading_constant(k: int, d: float) -> float:
    """c_k = d 2^k pi (k ((k/2-1)!)^2 / (k-1)!) h(k), with h the printed sum."""
    _check_weight(k)
    m = k // 2
    ratio = k * math.factorial(m - 1) ** 2 / math.factorial(k - 1)
    return d * 2.0 ** k * math.pi * ratio * alternating_weight_sum(k)


# ---------------------------------------------------------------------------
# singular integrals: upper-triangular orbit
# ---------------------------------------------------------------------------

def singular_term_closed(k: int, j: int, s1: complex, s2: complex) -> complex:
    """Factored Gamma form of the j-th binomial term.

    Gamma((k-j-s)/2) Gamma((k+j+s)/2) Gamma(k/2+s2) Gamma(k/2+s1)
    / (Gamma(k) Gamma(k+s)), with s = s1 + s2.
    """
    s = complex(s1) + complex(s2)
    log_val = (
        log_gamma((k - j - s) / 2.0)
        + log_gamma((k + j + s) / 2.0)
        + log_gamma(k / 2.0 + s2)
        + log_gamma(k / 2.0 + s1)
        - log_gamma(k)
        - log_gamma(k + s)
    )
    return cmath.exp(log_val)


def singular_term_quadrature(k: int, j: int, s1: complex, s2: complex,
                             rel_tol: float = 1e-9) -> complex:
    """2-d quadrature of the j-th term's double integral over the quadrant.

    For odd j this equals the factored Gamma form; for even j the underlying
    integrand is odd in the first variable and the full-line combination
    vanishes, which is what this returns (the sign factor is kept).
    """
    s = complex(s1) + complex(s2)

    def f(a, b):
        if a <= 0.0 or b <= 0.0:
            return 0.0
        sign = 1.0 if (1 + k - j) % 2 == 0 else 0.0
        if sign == 0.0:
            # odd power of sgn: the a > 0 and a < 0 halves cancel exactly
            return 0.0
        return (
            2.0
            * b ** (k / 2.0 + complex(s2) - 1.0)
            * a ** (k - j - s - 1.0)
            * (b + 1.0) ** j
            / (a * a + (b + 1.0) ** 2) ** k
        )

    spec = QuadratureSpec(domain=quadrant(), rel_tol=rel_tol, abs_tol=1e-12)
    return integrate(f, spec).require()


def singular_upper_closed(k: int, s1: complex, s2: complex,
                          d: float | None = None) -> complex:
    """Closed form of the upper singular integral: the binomial assembly
    2^k d sum over odd j of C(k,j) i^(k-j) times the Gamma-factored term."""
    _check_weight(k)
    if d is None:
        d = default_formal_degree(k)
    total = 0.0j
    for j in range(1, k, 2):
        total += math.comb(k, j) * 1j ** (k - j) * singular_term_closed(k, j, s1, s2)
    return 2.0 ** k * d * total


def singular_upper_display(k: int, d: float | None = None) -> complex:
    """The printed closed form at s1 = s2 = 0:
    -2^k i pi d k ((k/2-1)!)^2 h(k) / (k-1)!.

    Kept verbatim for comparison; its modulus equals c_k by construction,
    but it does not agree with the Gamma assembly (see the test suite).
    """
    _check_weight(k)
    if d is None:
        d = default_formal_degree(k)
    m = k // 2
    ratio = k * math.factorial(m - 1) ** 2 / math.factorial(k - 1)
    return -(2.0 ** k) * 1j * math.pi * d * ratio * alternating_weight_sum(k)


def singular_upper_quadrature(k: int, s1: complex, s2: complex,
                              d: float | None = None,
                              rel_tol: float = 1e-9) -> complex:
    """Direct quadrature of the defining double integral of the upper
    singular orbit, after folding the sign character onto (0, oo):

    d 2^k Int Int b^(k/2+s2-1) a^(-s1-s2-1)
                  [ (b+1-ia)^(-k) - (b+1+ia)^(-k) ] da db
    """
    _check_weight(k)
    if d is None:
        d = default_formal_degree(k)
    s = complex(s1) + complex(s2)

    def f(a, b):
        if a <= 0.0 or b <= 0.0:
            return 0.0j
        bracket = complex(b + 1.0, -a) ** (-k) - complex(b + 1.0, a) ** (-k)
        return b ** (k / 2.0 + complex(s2) - 1.0) * a ** (-s - 1.0) * bracket

    spec = QuadratureSpec(domain=quadrant(), rel_tol=rel_tol, abs_tol=1e-12)
    return d * 2.0 ** k * integrate(f, spec).require()


def singular_lower_quadrature(k: int, s1: complex, s2: complex,
                              d: float | None = None,
                              rel_tol: float = 1e-9) -> complex:
    """Direct quadrature of the lower-triangular singular orbit integral:

    d 2^k Int Int a^(k/2-s1-1) b^(s1+s2-1)
                  [ (a+1+ib)^(-k) - (a+1-ib)^(-k) ] db da

    Satisfies lower(s1, s2) = -upper(-s2, -s1); the integrand is supported
    on a > 0.
    """
    _check_weight(k)
    if d is None:
        d = default_formal_degree(k)
    s = complex(s1) + complex(s2)

    def f(a, b):
        if a <= 0.0 or b <= 0.0:
            return 0.0j
        bracket = complex(a + 1.0, b) ** (-k) - complex(a + 1.0, -b) ** (-k)
        return a ** (k / 2.0 - complex(s1) - 1.0) * b ** (s - 1.0) * bracket

    spec = QuadratureSpec(domain=quadrant(), rel_tol=rel_tol, abs_tol=1e-12)
    return d * 2.0 ** k * integrate(f, spec).require()


# ---------------------------------------------------------------------------
# regular orbital integrals
# ---------------------------------------------------------------------------

def _quadrant_integral(k: int, x: float, eps: int, dlt: int, nu: int,
                       s1: complex, s2: complex, rel_tol: float) -> complex:
    """Int over (0,oo)^2 of a^(rho-1) b^(sigma-1) / (a x + eps b + dlt i (a b + nu))^k."""
    rho = k / 2.0 - complex(s1)
    sigma = k / 2.0 + complex(s2)

    def f(a, b):
        if a <= 0.0 or b <= 0.0:
            return 0.0j
        den = complex(a * x + eps * b, dlt * (a * b + nu)) ** k
        return a ** (rho - 1.0) * b ** (sigma - 1.0) / den

    spec = QuadratureSpec(domain=quadrant(), rel_tol=rel_tol, abs_tol=1e-13)
    return integrate(f, spec).require()


def regular_integral_quadrature(k: int, x: float, s1: complex, s2: complex,
                                rel_tol: float = 1e-9) -> complex:
    """Regular orbital integral at the real point x, by quadrature.

    Zero for x < 0; for 0 < x < 1 and x > 1 the integral splits into the
    two stated quadrant combinations.
    """
    _check_weight(k)
    if x == 0.0 or x == 1.0:
        raise DomainError("x must avoid 0 and 1")
    if x < 0.0:
        return 0.0j
    if x < 1.0:
        i1 = _quadrant_integral(k, x, -1, +1, +1, s1, s2, rel_tol)
        i2 = _quadrant_integral(k, x, -1, -1, +1, s1, s2, rel_tol)
        return (1.0 - x) ** (k / 2.0) * (i1 - (-1.0) ** k * i2)
    i1 = _quadrant_integral(k, x, +1, -1, -1, s1, s2, rel_tol)
    i2 = _quadrant_integral(k, x, +1, +1, -1, s1, s2, rel_tol)
    return (x - 1.0) ** (k / 2.0) * (i1 - (-1.0) ** k * i2)


def regular_integral_closed(k: int, x: float, s1: complex, s2: complex) -> complex:
    """Beta * Beta * 2F1 closed form of the regular orbital integral.

    Derived by rotating each quadrant integral onto an Euler integral; the
    two members of each pair are conjugate phases of a common real-type
    factor, leaving an explicit sine prefactor.  Ground truth is the
    quadrature path.
    """
    _check_weight(k)
    if x == 0.0 or x == 1.0:
        raise DomainError("x must avoid 0 and 1")
    if x < 0.0:
        return 0.0j
    rho = k / 2.0 - complex(s1)
    sigma = k / 2.0 + complex(s2)
    common = (
        beta(sigma, k - sigma)
        * beta(rho, k - rho)
        * hyp2f1(k - sigma, rho, k, 1.0 - x)
    )
    if x < 1.0:
        phase = cmath.sin(cmath.pi * (rho - sigma - k) / 2.0)
        return (1.0 - x) ** (k / 2.0) * common * 2.0j * phase
    phase = cmath.sin(cmath.pi * (rho + sigma - k) / 2.0)
    return (x - 1.0) ** (k / 2.0) * common * 2.0j * phase
