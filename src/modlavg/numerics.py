"""Special functions and quadrature used by every other module.

All arithmetic is double precision.  Series are accumulated with compensated
summation.  Every integral uses one double-exponential rule with one node
table, s = exp(pi/2 sinh t): the half line directly, an interval through
x = a + (b - a) s/(1 + s) (tanh-sinh) and the quadrant as a tensor product,
all evaluated on numpy arrays.  One error model serves every domain: the gap
between two step sizes, plus the weight on the outermost nodes, plus a few
ulps of sum |w f| (Takahasi-Mori 1974; Mori-Sugihara, J. Comput. Appl. Math.
127, 2001).  Quadrature is deterministic: identical inputs give
bit-identical outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.special

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
    "hyp2f1",
]


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def interval(a: float, b: float) -> tuple:
    """The domain [a, b]."""
    return ("interval", float(a), float(b))


def half_line() -> tuple:
    """The domain [0, oo)."""
    return ("half_line",)


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
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be strictly positive")


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
_DE_BLOCK_ROWS = 32          # quadrant integrand rows evaluated at once; even
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


def _integrate_line(f, dom) -> tuple:
    """The exp-sinh rule on [0, oo), or on [a, b] through
    x = a + (b - a) s/(1 + s); returns (value at the fine step, error)."""
    s, w = _DE_NODES, _DE_WEIGHTS
    if dom[0] == "half_line":
        x = s
    elif dom[0] == "interval":
        a, b = dom[1], dom[2]
        x = a + (b - a) * s / (1.0 + s)
        w = w * (b - a) / (1.0 + s) ** 2
    else:
        raise ValueError(f"unknown domain kind {dom[0]!r}")
    with np.errstate(all="ignore"):
        terms = w * np.broadcast_to(f(x), x.shape)
    if np.isnan(terms).any():
        raise DomainError("integrand returned NaN")
    size = np.abs(terms)
    fine = complex(terms.sum())
    coarse = 2.0 * complex(terms[::2].sum())
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
        if np.isnan(terms).any():
            raise DomainError("integrand returned NaN")
        size = np.abs(terms)
        fine += complex(terms.sum())
        even += complex(terms[::2, ::2].sum())
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


def log_gamma(z: complex) -> complex:
    """Principal branch of log Gamma."""
    if _is_nonpositive_integer(z):
        raise PoleError(f"log_gamma pole at z = {z}")
    return complex(scipy.special.loggamma(complex(z)))


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
# Gauss hypergeometric function
# ---------------------------------------------------------------------------

_MAX_2F1_TERMS = 6000


def _hyp2f1_series(a, b, c, z, tol=1e-16):
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
        if abs(term) <= tol * max(abs(total), 1e-30):
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
