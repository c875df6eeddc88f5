"""Archimedean local integrals for the weight-k discrete-series test function.

The test function is the formal degree d = (k-1)/2 times the conjugate
lowest-weight matrix coefficient; it is supported on positive-determinant
matrices.  This module evaluates:

  * the two singular torus integrals (over the upper and lower triangular
    degenerate orbits) by direct 2-d quadrature of the defining double
    integral, and the upper one in closed form as one Gamma product;
  * the main term's factors, each an exact rational times a power of pi
    (main_term), their floats (_pi_float) and their text (_pi_text);
  * the regular orbital integrals, by quadrature over the positive quadrant
    and via a Beta * Beta * 2F1 closed form.

With s = s1 + s2 that product is I_upper = i sqrt(pi) d 2^(k-s) Gamma(k/2+s1)
Gamma(k/2+s2) Gamma((1-s)/2) / (Gamma(k) Gamma(1+s/2)) on the convergence
domain Re s < 1, Re(k/2 + s_i) > 0: two Beta integrals, reflection, duplication.

The three quadratures evaluate their integrands in power form
(_power_integrand).  Per node one division gives v = A(a) B(b) / D, where
D is the orbit's linear denominator and A, B are 1-d powers of the nodes
that hold sqrt a or sqrt b and the real parts of the exponents over k, so
|v|^k is exactly the integrand's modulus; the integrand is Im v^k (the
singular orbits) or v^k (the regular ones), by squaring, times a
unit-modulus phase only when (s1, s2) is complex.  Without the folded
powers |v| <= 1/2, or 1/(2 sqrt x) for a regular orbit at x > 1, and every
partial power lies between |v| and |v|^k, so nothing overflows before the
integrand itself does.

Every closed form here is cross-checked against quadrature in the test
suite; the quadrature path is the ground truth.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np

from .arith import _check_weight
from .errors import AccuracyError, DomainError
from .numerics import (
    _DE_NODES,
    IntegralResult,
    QuadratureSpec,
    _is_nonpositive_integer,
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
    "main_term",
    "singular_upper_closed",
    "singular_upper_display",
    "singular_upper_quadrature",
    "singular_lower_quadrature",
    "regular_integral_closed",
    "regular_integral_quadrature",
]


def default_formal_degree(k: int) -> float:
    """Formal degree (k-1)/2 under the hyperbolic-area normalization."""
    return (k - 1) / 2.0


def matrix_coefficient(g, k: int) -> complex:
    """Value of the test function at a 2x2 real matrix g.

    d * (2 sqrt(det g))^k / (a + d_entry + i(b - c))^k for det g > 0, else
    0, with d the formal degree.
    """
    _check_weight(k)
    (a, b), (c, dd) = (g[0][0], g[0][1]), (g[1][0], g[1][1])
    det = a * dd - b * c
    if det <= 0:
        return 0.0j
    num = (2.0 * math.sqrt(det)) ** k
    den = complex(a + dd, b - c) ** k
    return default_formal_degree(k) * num / den


# ---------------------------------------------------------------------------
# the main term and the printed constants
# ---------------------------------------------------------------------------

def alternating_weight_sum(k: int) -> int:
    """1 + sum over n of C(k, 2n+1) (-1)^(k/2-n) (k/2+n-1)! (k/2-n-2)!.

    Exact integer arithmetic; n runs from 0 to k/2 - 2.
    """
    _check_weight(k)
    m = k // 2
    return 1 + sum(
        math.comb(k, 2 * n + 1)
        * (-1) ** (m - n)
        * math.factorial(m + n - 1)
        * math.factorial(m - n - 2)
        for n in range(m - 1)
    )


def main_term(k: int) -> dict:
    """The main term's factors at weight k, name -> (q, n) for q pi^n, q a
    Fraction: upper = |I_upper(0, 0)| = (k-1) 2^(k-1) ((k/2-1)!)^2 / (k-1)! pi,
    singular_upper_closed's Gamma quotient at the origin; gamma_c =
    Gamma_C(k/2) = 2 (k/2-1)! (2 pi)^(-k/2); c_k = k h(k) upper; c_assembled =
    4 upper / gamma_c = 2^(3k/2) (k/2-1)! / (k-2)! pi^(k/2+1); and their
    ratio assembled_over_printed = c_assembled / c_k = 4 / (k h(k) gamma_c)."""
    k = _check_weight(k)
    m, f = k // 2, math.factorial(k // 2 - 1)
    upper = Fraction((k - 1) * 2 ** (k - 1) * f * f, math.factorial(k - 1))
    c_k = k * alternating_weight_sum(k) * upper
    c_asm = Fraction(2 ** (3 * m) * f, math.factorial(k - 2))
    return {"upper": (upper, 1), "gamma_c": (Fraction(f, 2 ** (m - 1)), -m),
            "c_k": (c_k, 1), "c_assembled": (c_asm, m + 1),
            "assembled_over_printed": (c_asm / c_k, m)}


def _pi_float(term: tuple, name: str, k: int) -> float:
    """q pi^n for term = (q, n), q an int or Fraction, as a normal float.

    q 2^s, scaled into [1/2, 2), is rounded once, times math.pi ** n, and
    the product rounded once and scaled back by 2^-s: the bits of
    float(q) * math.pi ** n wherever q, pi^n and the product are normal
    floats, and the value also where q alone is not.  DomainError naming
    ``name`` and k unless the value and pi^n are normal floats."""
    num, den = term[0].numerator, term[0].denominator
    s = den.bit_length() - num.bit_length()
    try:
        power = math.pi ** term[1]
        value = math.ldexp((num << max(s, 0)) / (den << max(-s, 0)) * power, -s)
    except OverflowError:
        power = value = math.inf
    if not (2.0 ** -1022 <= abs(value) < math.inf and 2.0 ** -1022 <= power < math.inf):
        way = "overflows" if abs(value) >= 1.0 else "underflows"
        raise DomainError(f"{name} {way} a float at weight k = {k}")
    return value


def _pi_text(term: tuple) -> str:
    """The exact form of term = (q, n), q pi^n, as ``q*pi^n``."""
    q, n = term
    return f"{q}*pi{'' if n == 1 else f'^{n}'}"


def leading_constant(k: int) -> float:
    """c_k = k h(k) |I_upper(0, 0)|, h the printed sum, from main_term."""
    return _pi_float(main_term(k)["c_k"], "c_k", k)


# ---------------------------------------------------------------------------
# quadrant integrands in power form
# ---------------------------------------------------------------------------

# log of the largest float, less a margin: the parts of a complex square
# can overflow a little before its modulus does
_LOG_HUGE = math.log(np.finfo(float).max) - 1.0


def _power(v: np.ndarray, k: int) -> np.ndarray:
    """v^k in place, by squaring from the leading bit of k."""
    base = v.copy() if k & (k - 1) else None
    for bit in bin(k)[3:]:
        v *= v
        if bit == "1":
            v *= base
    return v


def _power_integrand(k: int, fold_a: tuple, fold_b: tuple, parts, imag: bool):
    """The quadrant integrand a^(r_a k/2 + e_a) b^(r_b k/2 + e_b) D^(-k), or
    the powers times Im D^(-k) when imag, for fold_a = (r_a, e_a), fold_b =
    (r_b, e_b), each r a bool, and D = re + i im, (re, im) = parts(a, b).

    Per node it takes v = A(a) B(b) / D as A B (re - i im) / (re^2 + im^2),
    one division.  A = a^(Re e_a / k), times sqrt a when r_a, and B likewise,
    so |v|^k is exactly the modulus of the integrand.  Then v^k by squaring
    in place (_power), its imaginary part when imag, and the unit-modulus
    1-d phase a^(i Im e_a) b^(i Im e_b) only when an exponent is complex:
    no log, atan2, sin or exp per node, and a real exponent pair with imag
    gives a real integrand.

    Nothing overflows early.  Each caller's D keeps the folded square roots
    at |sqrt(a^r_a b^r_b) / D| <= 1/2, so on the nodes, which lie in
    [2.0e-31, 5.0e30], |v| is at most top, the largest a^(Re e_a / k) times
    the largest b^(Re e_b / k) over 2, and every partial power of v lies
    between |v| and |v|^k.
    Only where top^k passes the float range can a square meet inf - inf or
    0 inf; there a NaN node is set to inf, as its modulus is, so the
    integrand never returns NaN.
    """
    (r_a, e_a), (r_b, e_b) = ((r, complex(e)) for r, e in (fold_a, fold_b))
    ends = (math.log(_DE_NODES[0]), math.log(_DE_NODES[-1]))
    log_top = sum(max(e.real / k * end for end in ends) for e in (e_a, e_b)) - math.log(2.0)
    may_overflow = k * log_top > _LOG_HUGE

    def fold(t, r, e):
        power = t ** (e.real / k)
        return power * np.sqrt(t) if r else power

    def f(a, b):
        re, im = parts(a, b)
        m = fold(a, r_a, e_a) * fold(b, r_b, e_b)
        m /= re * re + im * im
        v = np.empty(m.shape, complex)
        np.multiply(m, re, out=v.real)
        np.multiply(m, -im, out=v.imag)
        _power(v, k)
        out = v.imag if imag else v
        if e_a.imag or e_b.imag:
            out = out * np.exp(1j * e_a.imag * np.log(a))
            out *= np.exp(1j * e_b.imag * np.log(b))
        if may_overflow:
            out[np.isnan(out)] = math.inf
        return out

    return f


# ---------------------------------------------------------------------------
# singular integrals: upper and lower triangular orbits
# ---------------------------------------------------------------------------

def singular_upper_closed(k: int, s1: complex, s2: complex) -> complex:
    """I_upper = i sqrt(pi) d 2^(k-s) Gamma(k/2+s1) Gamma(k/2+s2) Gamma((1-s)/2)
    / (Gamma(k) Gamma(1+s/2)), s = s1 + s2.  The a-integral is the Mellin
    transform Int_0^oo t^(mu-1) (1 -+ it)^(-k) dt = e^(+-i pi mu/2) B(mu, k-mu)
    at mu = -s, the b-integral is B(k/2+s2, k/2+s1), and reflection and
    duplication fold sin(-pi s/2) Gamma(-s) into the quotient.  Duplication,
    2^k sqrt(pi) / Gamma(k) = 2 pi / (Gamma(k/2) Gamma((k+1)/2)), also keeps
    2^k out of the arithmetic.  DomainError outside the convergence domain
    Re s < 1, Re(k/2 + s_i) > 0; 0 where 1 + s/2 is a pole of Gamma.
    """
    _check_weight(k)
    s = s1 + s2
    if not (s.real < 1.0 and k / 2.0 + min(s1.real, s2.real) > 0.0):
        raise DomainError(f"I_upper diverges at k = {k}, (s1, s2) = ({s1}, {s2})")
    if _is_nonpositive_integer(1.0 + s / 2.0):
        return 0.0j
    log_val = (log_gamma(k / 2.0 + s1) + log_gamma(k / 2.0 + s2)
               + log_gamma((1.0 - s) / 2.0) - s * math.log(2.0)
               - log_gamma(k / 2.0) - log_gamma((k + 1) / 2.0)
               - log_gamma(1.0 + s / 2.0))
    return 2j * math.pi * default_formal_degree(k) * cmath.exp(log_val)


def singular_upper_display(k: int) -> complex:
    """The printed closed form at s1 = s2 = 0, -i c_k: kept for comparison,
    it does not agree with the Gamma closed form (see the test suite)."""
    return -1j * leading_constant(k)


def singular_upper_quadrature(k: int, s1: complex, s2: complex) -> complex:
    """Direct quadrature of the defining double integral of the upper
    singular orbit, after folding the sign character onto (0, oo):

    d 2^k Int Int b^(k/2+s2-1) a^(-s1-s2-1)
                  [ (b+1-ia)^(-k) - (b+1+ia)^(-k) ] da db

    The bracket is -2i Im D^(-k), D = (b+1) + ia, which keeps its relative
    accuracy as a -> 0, and -2i d 2^k multiplies the finished integral.  The
    integrand b^(k/2+s2-1) a^(-s1-s2-1) Im D^(-k) is _power_integrand's,
    with sqrt b folded into v: |sqrt b / D| <= sqrt b / (b+1) <= 1/2.  A
    real (s1, s2) gives a real integrand.
    """
    s = s1 + s2
    return _singular_value(k, s1, s2, _power_integrand(
        k, (False, -s - 1.0), (True, s2 - 1.0), lambda a, b: (b + 1.0, a), imag=True))


def singular_lower_quadrature(k: int, s1: complex, s2: complex) -> complex:
    """Direct quadrature of the lower-triangular singular orbit integral:

    d 2^k Int Int a^(k/2-s1-1) b^(s1+s2-1)
                  [ (a+1+ib)^(-k) - (a+1-ib)^(-k) ] db da

    Satisfies lower(s1, s2) = -upper(-s2, -s1); the integrand is supported
    on a > 0.  The bracket is -2i Im D^(-k), D = (a+1) - ib, as in
    singular_upper_quadrature: the integrand a^(k/2-s1-1) b^(s1+s2-1)
    Im D^(-k) is _power_integrand's, with sqrt a folded into v,
    |sqrt a / D| <= 1/2, and a real (s1, s2) gives a real integrand.
    """
    s = s1 + s2
    return _singular_value(k, s1, s2, _power_integrand(
        k, (True, -s1 - 1.0), (False, s - 1.0), lambda a, b: (a + 1.0, -b), imag=True))


def _singular_value(k: int, s1: complex, s2: complex, f) -> complex:
    """-2i d 2^k times the quadrant integral of f, the real integrand of
    either singular orbit.  DomainError when d 2^k overflows, before any
    quadrature; AccuracyError, naming k, (s1, s2), and the error and the
    tolerance of the value the caller gets, when it does not converge."""
    k = _check_weight(k)
    scale = _pi_float(((k - 1) << (k - 1), 0), "d 2^k", k)  # d 2^k = (k-1) 2^(k-1)
    # abs_tol holds for the returned value, after the factor 2 d 2^k, so it
    # cannot swamp rel_tol at high weight, where the integral is tiny (about
    # 1e-300 at k = 1000).  The step gap grows with k as sin(k theta)
    # oscillates faster: 1.4e-8 relative at k = 200, whose value is within
    # 1e-13 of the closed form, hence rel_tol 1e-7; 5e-2 at k = 1000, refused
    spec = QuadratureSpec(domain=quadrant(), rel_tol=1e-7, abs_tol=0.5e-12 / scale)
    result = integrate(f, spec)
    if not result.converged:
        tol = spec.abs_tol + spec.rel_tol * abs(result.value)
        raise AccuracyError(
            f"singular orbital integral at k = {k}, (s1, s2) = ({s1}, {s2}): "
            f"error estimate {2.0 * scale * result.error:.3e} exceeds "
            f"tolerance {2.0 * scale * tol:.3e}")
    return -2j * scale * result.value


# ---------------------------------------------------------------------------
# regular orbital integrals
# ---------------------------------------------------------------------------

def _regular_prefactor(k: int, x: float) -> float:
    """|x - 1|^(k/2), in front of both forms of the regular orbital
    integral; DomainError when it overflows a float."""
    try:
        return abs(x - 1.0) ** (k / 2.0)
    except OverflowError:
        raise DomainError(f"|x - 1|^(k/2) overflows a float at k = {k}, x = {x}") from None


# acceptance of a regular orbital integral: its combined error estimate,
# after the prefactor, within REGULAR_ABS_TOL + REGULAR_REL_TOL |value|
REGULAR_REL_TOL, REGULAR_ABS_TOL = 1e-9, 1e-13


def _quadrant_integral(k: int, x: float, s1: complex, s2: complex) -> IntegralResult:
    """Int over (0,oo)^2 of a^(rho-1) b^(sigma-1) / (a x + eps b + i (1 - eps a b))^k,
    eps = sign(x - 1), rho = k/2 - s1, sigma = k/2 + s2.

    The integrand is _power_integrand's with sqrt a and sqrt b folded into
    v: for x < 1, |D| >= 1 + ab >= 2 sqrt(ab), and for x > 1, |D| >=
    a x + b >= 2 sqrt(a b x), so |sqrt(ab) / D| <= 1/2, or 1/(2 sqrt x).
    |D|^2 overflows only for x past about 2.7e123, far above the 5.0e30
    that regular_integral_quadrature accepts; there it gives a zero term,
    the integrand's limit.
    """
    eps = 1 if x > 1.0 else -1
    f = _power_integrand(k, (True, -s1 - 1.0), (True, s2 - 1.0),
                         lambda a, b: (a * x + eps * b, 1.0 - eps * a * b),
                         imag=False)
    spec = QuadratureSpec(domain=quadrant(), rel_tol=REGULAR_REL_TOL,
                          abs_tol=REGULAR_ABS_TOL)
    return integrate(f, spec)


def regular_integral_quadrature(k: int, x: float, s1: complex, s2: complex) -> complex:
    """Regular orbital integral at the real point x, by quadrature.

    Zero for x < 0; for 0 < x < 1 and x > 1 it is |x - 1|^(k/2) (I_+ -
    (-1)^k I_-), where I_+ is _quadrant_integral and I_- the same integral
    with the denominator a x + eps b - i (1 - eps a b).  I_- at (s1, s2) is
    the conjugate of I_+ at the conjugate exponents, node by node, so a
    real (s1, s2) takes one quadrature and its conjugate, and a complex one
    a second quadrature at (conj s1, conj s2).  Each quadrant integrand
    is a power of one complex quotient per node (see _quadrant_integral)
    and never returns a NaN.  DomainError when |x - 1|^(k/2) overflows a
    float, before any quadrature.  The value is accepted when its combined
    error |x - 1|^(k/2) (err_+ + err_-), a reused quadrature's error
    counted for both quadrants, is within REGULAR_ABS_TOL + REGULAR_REL_TOL
    |value|, else AccuracyError: at (4, x, 0.05, 0.03) it accepts x up to
    about 195.1 and refuses larger x, where the prefactor lifts the
    quadrants' own errors past the tolerance of the product.  Once 1/x, the scale of a in the quadrant integrands, lies
    below the smallest node (about 2.0e-31), the integrands underflow on
    every node and the error estimate shrinks with the value, so such x is
    AccuracyError before any quadrature.
    """
    _check_weight(k)
    if x == 0.0 or x == 1.0:
        raise DomainError("x must avoid 0 and 1")
    if x < 0.0:
        return 0.0j
    prefactor = _regular_prefactor(k, x)
    if 1.0 / x < _DE_NODES[0]:
        raise AccuracyError(f"regular orbital integral at k = {k}, x = {x}: 1/x "
                            f"lies below the smallest quadrature node "
                            f"{_DE_NODES[0]:.1e}")
    plus = _quadrant_integral(k, x, s1, s2)
    if complex(s1).imag or complex(s2).imag:
        conj = _quadrant_integral(k, x, s1.conjugate(), s2.conjugate())
    else:
        conj = plus
    value = prefactor * (plus.value - (-1.0) ** k * conj.value.conjugate())
    error = prefactor * (plus.error + conj.error)
    # an infinite or NaN error fails the comparison too
    if not error <= REGULAR_ABS_TOL + REGULAR_REL_TOL * abs(value):
        raise AccuracyError(f"regular orbital integral at k = {k}, x = {x}: "
                            f"error estimate {error:.3e} exceeds tolerance")
    return value


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
    prefactor = _regular_prefactor(k, x)
    rho = k / 2.0 - complex(s1)
    sigma = k / 2.0 + complex(s2)
    common = (
        beta(sigma, k - sigma)
        * beta(rho, k - rho)
        * hyp2f1(k - sigma, rho, k, 1.0 - x)
    )
    # the phase is sin(pi (rho - sigma - k)/2) = (-1)^(k/2) sin(-pi s/2) for
    # x < 1 and sin(pi (rho + sigma - k)/2) = sin(pi (s2 - s1)/2) for x > 1,
    # taken from s1 and s2: through rho and sigma the rounding of k/2 cost
    # 2.2e-14 of the value at (4, 10, 0.05, 0.03)
    if x < 1.0:
        phase = (-1) ** (k // 2) * cmath.sin(-cmath.pi * (s1 + s2) / 2.0)
    else:
        phase = cmath.sin(cmath.pi * (s2 - s1) / 2.0)
    return prefactor * common * 2.0j * phase
