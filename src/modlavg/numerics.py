"""Special functions and quadrature used by every other module.

All arithmetic is double precision.  Series are accumulated with compensated
summation.  1-d integrals use adaptive quadrature (``scipy.integrate.quad``).
The one 2-d domain, the quadrant (0, oo)^2, uses a fixed tensor
double-exponential (exp-sinh) rule evaluated on numpy arrays; its error is
the gap between two step sizes plus the weight the rule puts on its outermost
nodes (Takahasi-Mori 1974; Mori-Sugihara, J. Comput. Appl. Math. 127, 2001).
Quadrature is deterministic: identical inputs give bit-identical outputs.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.integrate
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
    return ("interval", float(a), float(b))


def half_line() -> tuple:
    """The domain [0, oo)."""
    return ("half_line",)


def quadrant() -> tuple:
    """The domain (0, oo) x (0, oo).  Its integrand is a numpy-vectorised
    ``f(a, b)``: it receives broadcastable arrays of strictly positive
    nodes and returns an array of their broadcast shape."""
    return ("quadrant",)


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances, subdivision budget (1-d only) and domain for one integral."""

    domain: tuple = field(default_factory=lambda: interval(0.0, 1.0))
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_subdivisions: int = 200

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be strictly positive")
        if self.max_subdivisions < 1:
            raise ValueError("max subdivisions must be >= 1")


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


def _check_nan(x):
    if isinstance(x, complex):
        if math.isnan(x.real) or math.isnan(x.imag):
            raise DomainError("integrand returned NaN")
    elif math.isnan(x):
        raise DomainError("integrand returned NaN")
    return x


def _quad_real(f, a, b, spec):
    with warnings.catch_warnings():
        # roundoff / subdivision warnings are already reflected in the
        # returned error estimate, which drives the converged flag
        warnings.simplefilter("ignore", scipy.integrate.IntegrationWarning)
        val, err = scipy.integrate.quad(
            f, a, b,
            epsabs=spec.abs_tol, epsrel=spec.rel_tol,
            limit=spec.max_subdivisions,
        )
    return val, err


def _integrate_1d(f, dom, spec):
    kind = dom[0]
    if kind == "interval":
        a, b = dom[1], dom[2]
        g = f
    elif kind == "half_line":
        # t = u / (1 - u) maps [0, 1) onto [0, oo)
        a, b = 0.0, 1.0

        def g(u, _f=f):
            if u >= 1.0:
                return 0.0j
            w = 1.0 - u
            return _f(u / w) / (w * w)
    else:
        raise ValueError(f"unknown 1-d domain kind {kind!r}")

    sample = _check_nan(complex(g(a + 0.5 * (b - a) * 0.6180339887498949)))
    if sample.imag == 0.0:
        # keep the common all-real path to a single quad call
        def g_real(t):
            return _check_nan(complex(g(t))).real
        val, err = _quad_real(g_real, a, b, spec)
        return complex(val), err

    re, er = _quad_real(lambda t: _check_nan(complex(g(t))).real, a, b, spec)
    im, ei = _quad_real(lambda t: _check_nan(complex(g(t))).imag, a, b, spec)
    return complex(re, im), er + ei


# exp-sinh rule on the quadrant: nodes a = exp(pi/2 sinh t) at t = i h for
# |t| <= _DE_T_MAX; the fine step is 1/_DE_STEPS_PER_UNIT and every other
# node gives the coarse step 2h, so the two estimates share evaluations
_DE_T_MAX = 4.5
_DE_STEPS_PER_UNIT = 32
_DE_BLOCK_ROWS = 32          # integrand rows evaluated at once; even
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


def _integrate_quadrant(f) -> tuple:
    """Tensor exp-sinh rule for a vectorised f over (0, oo)^2.

    Returns (value at the fine step, error).  The error adds the gap to the
    coarse step, the sum of |w f| over the outermost rows and columns (a
    witness of the truncation at |t| = _DE_T_MAX) and _DE_ROUNDOFF_ULPS ulps
    of the sum of |w f|.
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
    err = (abs(fine - 4.0 * even) + edge
           + _DE_ROUNDOFF_ULPS * np.finfo(float).eps * mass)
    return fine, float(err) if math.isfinite(err) else math.inf


def integrate(f, spec: QuadratureSpec) -> IntegralResult:
    """Quadrature of ``f`` over ``spec.domain``.

    1-d domains are finite intervals or the half line [0, oo) (via the
    substitution t = u/(1-u)), integrated adaptively.  The 2-d domain is
    the quadrant, integrated by a fixed tensor double-exponential rule with
    step sizes 1/16 and 1/32 on |t| <= 4.5; its error is the gap between
    the two steps plus the weight on the outermost nodes and a roundoff
    term.  The result carries an error estimate and a converged flag; use
    ``.require()`` to raise on failure.
    """
    dom = spec.domain
    if dom[0] == "quadrant":
        val, err = _integrate_quadrant(f)
        slack = 1.0
    else:
        val, err = _integrate_1d(f, dom, spec)
        # quad error estimates are conservative; allow a small factor of slack
        slack = 50.0
    tol = spec.abs_tol + spec.rel_tol * abs(val)
    converged = bool(err <= slack * tol + 1e-300)
    return IntegralResult(value=val, error=float(err), converged=converged)


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
