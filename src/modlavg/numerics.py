"""Special functions and quadrature used by every other module.

All arithmetic is double precision.  Series are accumulated with compensated
summation.  Every integral uses one double-exponential rule with one node
table, s = exp(pi/2 sinh t): a half line [a, oo) through x = a + s, an
interval through x = a + (b - a) s/(1 + s) (tanh-sinh) and the quadrant as a
tensor product, all evaluated on numpy arrays.  An integrand that decays
from a goes on the half line [a, oo), not on an interval cut off far out:
the Mellin integral of 7.4.a x chi_-8 in lvalues has an error estimate of
5.1e-14 on [a, 40] and of 2.4e-17 on [a, oo).  One error model serves every
domain: the gap between two step sizes, plus the weight on the outermost
nodes, plus a few ulps of sum |w f| (Takahasi-Mori 1974; Mori-Sugihara,
J. Comput. Appl. Math. 127, 2001).  Quadrature is deterministic: identical
inputs give bit-identical outputs.

The special functions need nothing beyond numpy.  log Gamma is the Stirling
series after the recurrence has carried Re z up to 12, with the reflection
formula below Re z = 1/2 (DLMF 5.11.1, 5.5.1, 5.5.3); on the real axis it
is math.lgamma.  The upper incomplete Gamma(a, x) is a finite sum for
integer a (DLMF sec. 8.4).  For other a it is Gamma(a) less the power
series of gamma(a, x) below x = a + 1, and Legendre's continued fraction,
by the modified Lentz method, from there on (DLMF secs. 8.7, 8.9).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AccuracyError, ConvergenceError, DomainError, PoleError

__all__ = [
    "QuadratureSpec",
    "IntegralResult",
    "interval",
    "half_line",
    "quadrant",
    "integrate",
    "log_gamma",
    "gamma",
    "beta",
    "gamma_upper",
    "hyp2f1",
]


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def interval(a: float, b: float) -> tuple:
    """The domain [a, b]."""
    return ("interval", float(a), float(b))


def half_line(a: float) -> tuple:
    """The domain [a, oo)."""
    return ("half_line", float(a))


def quadrant() -> tuple:
    """The domain (0, oo) x (0, oo).  Its integrand is ``f(a, b)``: it
    receives broadcastable arrays of strictly positive nodes."""
    return ("quadrant",)


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and domain for one integral."""

    domain: tuple = field(default_factory=lambda: interval(0.0, 1.0))
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12

    def __post_init__(self):
        if not (self.rel_tol > 0 and self.abs_tol > 0):  # NaN fails too
            raise DomainError(f"tolerances must be strictly positive, got rel_tol = "
                              f"{self.rel_tol}, abs_tol = {self.abs_tol}")


@dataclass(frozen=True)
class IntegralResult:
    value: complex
    error: float
    converged: bool

    @property
    def real(self) -> float:
        return self.value.real

    def require(self) -> complex:
        if not self.converged:
            raise AccuracyError(
                f"quadrature error estimate {self.error:.3e} exceeds tolerance"
            )
        return self.value


# exp-sinh rule: nodes s = exp(pi/2 sinh t) at t = i h for |t| <= _DE_T_MAX;
# the fine step is 1/_DE_STEPS_PER_UNIT and every other node gives the
# coarse step 2h, so the two estimates share evaluations
_DE_T_MAX = 4.5
_DE_STEPS_PER_UNIT = 32
# quadrant integrand rows evaluated at once; even.  16 rows of 289 nodes
# hold 74 KB of complex values, as 32 rows of floats did: the arch_local
# integrands build complex blocks, and at 32 rows the oracles' peak RSS was
# no lower than with float blocks, at 16 it is about 0.3 MB lower
_DE_BLOCK_ROWS = 16
_DE_ROUNDOFF_ULPS = 4.0      # roundoff term, in ulps of sum |w f|


def _exp_sinh_rule() -> tuple:
    """Nodes and fine-step weights of the 1-d exp-sinh rule on (0, oo)."""
    n = int(round(_DE_T_MAX * _DE_STEPS_PER_UNIT))
    h = 1.0 / _DE_STEPS_PER_UNIT
    t = np.arange(-n, n + 1) * h
    u = 0.5 * math.pi * np.sinh(t)
    nodes = np.exp(u)
    weights = h * 0.5 * math.pi * np.cosh(t) * nodes
    return nodes, weights


_DE_NODES, _DE_WEIGHTS = _exp_sinh_rule()


def _error(fine: complex, coarse: complex, edge: float, mass: float) -> float:
    """The error model of every domain: step gap, edge weight, roundoff."""
    err = (abs(fine - coarse) + edge
           + _DE_ROUNDOFF_ULPS * np.finfo(float).eps * mass)
    return float(err) if math.isfinite(err) else math.inf


def _checked_sum(terms: np.ndarray) -> complex:
    """The sum of the terms; DomainError when a term is NaN.  A NaN term
    always makes the sum NaN, so the terms are searched only then.  A NaN
    sum of terms without NaN is inf - inf: returned, the error is infinite
    and the integral not converged."""
    total = complex(terms.sum())
    if cmath.isnan(total) and np.isnan(terms).any():
        raise DomainError("integrand returned NaN")
    return total


def _integrate_line(f, dom) -> tuple:
    """The exp-sinh rule on [a, oo) through x = a + s, or on [a, b] through
    x = a + (b - a) s/(1 + s); returns (value at the fine step, error)."""
    s, w = _DE_NODES, _DE_WEIGHTS
    if dom[0] == "half_line":
        x = dom[1] + s
    elif dom[0] == "interval":
        a, b = dom[1], dom[2]
        x = a + (b - a) * s / (1.0 + s)
        w = w * (b - a) / (1.0 + s) ** 2
    else:
        raise DomainError(f"unknown domain kind {dom[0]!r}")
    with np.errstate(all="ignore"):
        terms = w * np.broadcast_to(f(x), x.shape)
        fine = _checked_sum(terms)
        coarse = 2.0 * complex(terms[::2].sum())
    size = np.abs(terms)
    return fine, _error(fine, coarse, float(size[0] + size[-1]), float(size.sum()))


def _integrate_quadrant(f) -> tuple:
    """Tensor exp-sinh rule for a vectorised f over (0, oo)^2.

    Returns (value at the fine step, error).  The edge term is the sum of
    |w f| over the outermost rows and columns.
    """
    a, w = _DE_NODES, _DE_WEIGHTS
    n = a.size
    fine = even = 0.0j          # the coarse-step value is 4 * even
    mass = edge = 0.0
    for lo in range(0, n, _DE_BLOCK_ROWS):
        hi = min(lo + _DE_BLOCK_ROWS, n)
        with np.errstate(all="ignore"):
            vals = np.broadcast_to(f(a[lo:hi, None], a[None, :]), (hi - lo, n))
            terms = w[lo:hi, None] * w[None, :] * vals
            fine += _checked_sum(terms)
            even += complex(terms[::2, ::2].sum())
        size = np.abs(terms)
        mass += float(size.sum())
        edge += float(size[:, 0].sum() + size[:, -1].sum())
        if lo == 0:
            edge += float(size[0, 1:-1].sum())
        if hi == n:
            edge += float(size[-1, 1:-1].sum())
    return fine, _error(fine, 4.0 * even, edge, mass)


def integrate(f, spec: QuadratureSpec) -> IntegralResult:
    """Quadrature of ``f`` over ``spec.domain`` by the exp-sinh rule with
    steps 1/16 and 1/32 on |t| <= 4.5.

    ``f`` receives a numpy array of nodes (two broadcastable arrays on the
    quadrant) and returns values of the broadcast shape, or a scalar.  The
    error is the gap between the two steps plus the weight on the outermost
    nodes and a roundoff term; the result is converged when the error is
    finite and within abs_tol + rel_tol |value|.  Use ``.require()`` to
    raise on failure.
    """
    dom = spec.domain
    if dom[0] == "quadrant":
        val, err = _integrate_quadrant(f)
    else:
        val, err = _integrate_line(f, dom)
    # an infinite value has an infinite error, and an infinite tolerance
    converged = bool(math.isfinite(err) and err <= spec.abs_tol + spec.rel_tol * abs(val))
    return IntegralResult(value=val, error=err, converged=converged)


# ---------------------------------------------------------------------------
# gamma / beta
# ---------------------------------------------------------------------------

def _is_nonpositive_integer(z: complex) -> bool:
    z = complex(z)
    return z.imag == 0.0 and z.real <= 0.0 and z.real == int(z.real)


# log Gamma: recurrence up to Re z >= _STIRLING_MIN_RE, then the Stirling
# series with the coefficients B_2m / (2m (2m - 1)), m = 1..8, whose next
# term is below 1e-18 there
_STIRLING_MIN_RE = 12.0
_STIRLING_COEFFS = (1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0,
                    1.0 / 1188.0, -691.0 / 360360.0, 1.0 / 156.0,
                    -3617.0 / 122400.0)
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _log_gamma_stirling(z: complex) -> complex:
    """Stirling series for Re z >= _STIRLING_MIN_RE (DLMF 5.11.1)."""
    r = 1.0 / z
    r2 = r * r
    series = 0.0j
    for c in reversed(_STIRLING_COEFFS):
        series = series * r2 + c
    return (z - 0.5) * cmath.log(z) - z + _HALF_LOG_2PI + series * r


def _log_gamma_right(z: complex) -> complex:
    """Principal log Gamma for Re z >= 1/2 and Im z >= 0: shift up to the
    Stirling region and take out log(z (z+1) ... (z+n-1)).  The factors
    turn the product counter-clockwise; each time its imaginary part turns
    negative its argument has passed pi, so the principal log of the
    product is 2 pi i short."""
    n = max(0, math.ceil(_STIRLING_MIN_RE - z.real))
    prod, flips = 1.0 + 0.0j, 0
    for j in range(n):
        before = prod.imag
        prod *= z + j
        flips += before >= 0.0 > prod.imag
    return _log_gamma_stirling(z + n) - cmath.log(prod) - 2j * math.pi * flips


def log_gamma(z: complex) -> complex:
    """Principal branch of log Gamma: analytic off (-oo, 0], real on the
    positive axis; on the negative axis the limit from Im z > 0 (from
    below when Im z is -0.0).

    On the real axis math.lgamma gives the modulus.  Elsewhere Re z >= 1/2
    goes by recurrence and the Stirling series, and Re z < 1/2 by the
    reflection log pi - log Gamma(1 - z) - log sin(pi z), with the log of
    the sine continued analytically over the upper half plane (DLMF 5.5.3).
    A non-finite z raises DomainError and a pole PoleError.
    """
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError(f"log_gamma needs a finite argument, got z = {z}")
    if _is_nonpositive_integer(z):
        raise PoleError(f"log_gamma pole at z = {z}")
    if math.copysign(1.0, z.imag) < 0.0:
        return log_gamma(z.conjugate()).conjugate()
    if z.imag == 0.0:
        # lgamma gives log |Gamma|; from above, each pole passed on the way
        # down from 0 turns the argument by -pi
        x = z.real
        return complex(math.lgamma(x), -math.pi * math.ceil(-x) if x < 0.0 else 0.0)
    if z.real >= 0.5:
        return _log_gamma_right(z)
    # for Im z >= 0, sin(pi z) = (i/2) e^(-i pi z) (1 - e^(2 pi i z)) with
    # |e^(2 pi i z)| <= 1, and 1 - e^(2 pi i z) = -expm1(2 pi i w), w = z
    # less the nearest integer, in real arithmetic
    x, y = z.real, z.imag
    a, b = -2.0 * math.pi * y, 2.0 * math.pi * (x - round(x))
    one_minus_q = complex(2.0 * math.sin(0.5 * b) ** 2 - math.expm1(a) * math.cos(b),
                          -math.exp(a) * math.sin(b))
    log_sin = (complex(math.pi * y - math.log(2.0), math.pi * (0.5 - x))
               + cmath.log(one_minus_q))
    return math.log(math.pi) - log_gamma(1.0 - z) - log_sin


def gamma(z: complex) -> complex:
    return np.exp(log_gamma(z))


def beta(z: complex, w: complex) -> complex:
    """B(z, w) = Gamma(z) Gamma(w) / Gamma(z + w), symmetric in (z, w)."""
    for arg in (z, w):
        if _is_nonpositive_integer(arg):
            raise PoleError(f"beta pole at argument {arg}")
    if _is_nonpositive_integer(complex(z) + complex(w)):
        raise PoleError(f"beta: z + w = {complex(z)+complex(w)} is a Gamma pole")
    return np.exp(log_gamma(z) + log_gamma(w) - log_gamma(complex(z) + complex(w)))


# ---------------------------------------------------------------------------
# upper incomplete Gamma
# ---------------------------------------------------------------------------

# the series and the continued fraction stop at each x once its new term or
# factor is within _GAMMA_INC_TOL of nothing or of 1; a few ulps, since a factor
# that has converged still rounds to 1 +- eps
_GAMMA_INC_TOL = 4.0 * np.finfo(float).eps
_GAMMA_INC_MAX_TERMS = 400
# the largest a whose Gamma(a) is a finite float (1.79769e308); Gamma(a, x)
# is refused above it, where Gamma(a) and (a - 1)! overflow
_GAMMA_MAX_A = 171.6243769563027


def _times_power_exp(a: float, x: np.ndarray, s: np.ndarray) -> np.ndarray:
    """x^a e^-x s for s > 0: the direct product where it is a finite float,
    and exp(a log x - x + log s) where it overflows, near _GAMMA_MAX_A,
    where x^a e^-x alone passes the float range but s scales it back."""
    with np.errstate(over="ignore"):
        out = np.exp(a * np.log(x) - x) * s
    big = np.isinf(out)
    if big.any():
        out[big] = np.exp(a * np.log(x[big]) - x[big] + np.log(s[big]))
    return out


def _gamma_lower_series(a: float, x: np.ndarray) -> np.ndarray:
    """gamma(a, x) = x^a e^-x sum_n x^n / (a (a+1) ... (a+n)) (DLMF sec. 8.7),
    for x < a + 1, where the terms fall from the first.  Each x stops at
    its own first small term, so its value does not depend on the others
    in the array."""
    term = np.full_like(x, 1.0 / a)
    total = term.copy()
    out = np.empty_like(x)
    live, xs = np.arange(x.size), x
    for n in range(1, _GAMMA_INC_MAX_TERMS):
        term *= xs / (a + n)
        total += term
        done = term <= _GAMMA_INC_TOL * total
        if done.any():
            out[live[done]] = total[done]
            keep = ~done
            live, xs, term, total = live[keep], xs[keep], term[keep], total[keep]
            if not live.size:
                return _times_power_exp(a, x, out)
    raise ConvergenceError(f"incomplete Gamma series did not converge at a = {a}")


def _gamma_upper_fraction(a: float, x: np.ndarray) -> np.ndarray:
    """Gamma(a, x) = x^a e^-x / (x + 1 - a - 1 (1 - a) / (x + 3 - a - ...))
    (Legendre; DLMF sec. 8.9) by the modified Lentz method, for x >= a + 1.
    There the Lentz divisors stay above half the partial denominators
    (checked for 0 < a <= 30), so they need no guard against 0.  Each x
    stops at its own first factor within _GAMMA_INC_TOL of 1, so its value
    does not depend on the others in the array."""
    b = x + 1.0 - a
    c = np.full_like(x, math.inf)
    d = 1.0 / b
    h = d.copy()
    out = np.empty_like(x)
    live = np.arange(x.size)
    for i in range(1, _GAMMA_INC_MAX_TERMS):
        an = -i * (i - a)
        b += 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        step = d * c
        h *= step
        done = np.abs(step - 1.0) <= _GAMMA_INC_TOL
        if done.any():
            out[live[done]] = h[done]
            keep = ~done
            live, b, c, d, h = live[keep], b[keep], c[keep], d[keep], h[keep]
            if not live.size:
                return _times_power_exp(a, x, out)
    raise ConvergenceError(f"incomplete Gamma fraction did not converge at a = {a}")


def gamma_upper(a: float, x) -> np.ndarray:
    """Upper incomplete Gamma(a, x), the integral of t^(a-1) e^-t over
    [x, oo), for real 0 < a <= _GAMMA_MAX_A at every point of an array of
    finite x > 0; any other a or x is DomainError.

    Integer a is the finite sum (a-1)! e^-x sum_(j<a) x^j / j! (DLMF sec. 8.4);
    other a take Gamma(a) less the series of gamma(a, x) below x = a + 1,
    and the continued fraction from there on.
    """
    a = float(a)
    x = np.asarray(x, dtype=float)
    if not 0.0 < a <= _GAMMA_MAX_A:  # NaN and infinities fail too
        raise DomainError(f"gamma_upper needs 0 < a <= {_GAMMA_MAX_A}, got a = {a}")
    if not np.all((x > 0.0) & (x < math.inf)):
        raise DomainError("gamma_upper needs every x finite and > 0")
    if a.is_integer():
        acc = np.ones_like(x)
        for j in range(int(a) - 1, 0, -1):
            acc = 1.0 + acc * x / j
        return math.factorial(int(a) - 1) * np.exp(-x) * acc
    out = np.empty_like(x)
    low = x < a + 1.0
    if low.any():
        out[low] = math.gamma(a) - _gamma_lower_series(a, x[low])
    if not low.all():
        out[~low] = _gamma_upper_fraction(a, x[~low])
    return out


# ---------------------------------------------------------------------------
# Gauss hypergeometric function
# ---------------------------------------------------------------------------

_MAX_2F1_TERMS = 6000
_2F1_TOL = 1e-16  # a term below this share of the sum, three times running, ends it


def _hyp2f1_series(a, b, c, z):
    """Gauss series with compensated summation; |z| must be < 1."""
    total = 1.0 + 0.0j
    comp = 0.0j  # Kahan compensation
    term = 1.0 + 0.0j
    n = 0
    small_streak = 0
    while n < _MAX_2F1_TERMS:
        term = term * ((a + n) * (b + n)) / ((c + n) * (n + 1)) * z
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        n += 1
        if term == 0:
            return total
        if abs(term) <= _2F1_TOL * max(abs(total), 1e-30):
            small_streak += 1
            if small_streak >= 3:
                return total
        else:
            small_streak = 0
    raise ConvergenceError(
        f"2F1 series did not converge for z = {z} (|z| = {abs(z):.4f})"
    )


def hyp2f1(a: complex, b: complex, c: complex, z: complex) -> complex:
    """Gauss hypergeometric 2F1 for complex parameters.

    Uses the Gauss series when |z| <= 1/2, otherwise the Pfaff map
    z -> z/(z-1) when that shrinks the argument; arguments on the cut
    [1, oo) are rejected.
    """
    a, b, c, z = complex(a), complex(b), complex(c), complex(z)
    if _is_nonpositive_integer(c):
        raise PoleError(f"2F1 undefined for c = {c}")
    if z.imag == 0.0 and z.real >= 1.0:
        raise DomainError(f"2F1 argument z = {z} lies on the cut [1, oo)")
    if z == 0:
        return 1.0 + 0.0j

    w = z / (z - 1.0)
    if abs(z) <= 0.5:
        return _hyp2f1_series(a, b, c, z)
    if abs(w) <= 0.5 or abs(w) < abs(z):
        # Pfaff: F(a,b;c;z) = (1-z)^(-a) F(a, c-b; c; z/(z-1))
        return (1.0 - z) ** (-a) * _hyp2f1_series(a, c - b, c, w)
    if abs(z) < 1.0:
        return _hyp2f1_series(a, b, c, z)
    raise ConvergenceError(
        f"2F1: no convergent series for z = {z} after Pfaff transformation"
    )
