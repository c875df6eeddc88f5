"""Completed L-functions, central values and Petersson norms of newforms.

Conventions: for a weight-k level-N newform with arithmetic coefficients
c_n, the completed function is

    Lambda(s) = C^{s/2} (2 pi)^{-s} Gamma(s) sum c_n n^{-s}

in the arithmetic variable s (center k/2, conductor C); the analytic
normalization used by callers is s_an = s - (k-1)/2, so the central point
is s_an = 1/2.  Twists by a quadratic character of fundamental discriminant
D coprime to N have conductor N D^2.

Every value of a form in the upper half plane comes from one evaluator,
q_expansion_eval: a Horner sum truncated at the fewest stored coefficients
whose certified tail is within QEXP_TAIL_TOL, refusing when the stored
coefficients cannot reach it.  The Fricke sign, the Mellin route and the
Petersson norm all use it.

Central values are computed along two routes: a smoothed approximate
functional equation with incomplete-Gamma weights, and (untwisted) direct
Mellin quadrature of the q-expansion split at 1/sqrt(N) through the Fricke
involution.  The Fricke sign itself is measured numerically with a wide
margin, never assumed, and once per central value.

The Petersson norm takes the cusps at infinity and 0 exactly above heights
1 and 1/N, by Parseval, and meshes only the band between the unit arc and
height 1, checking that mesh against itself with every panel count doubled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .arith import Eigenform, is_fundamental_discriminant, kronecker
from .errors import (
    AccuracyError,
    DomainError,
    InsufficientCoefficients,
    InvariantViolation,
)
from .numerics import QuadratureSpec, gamma_upper, integrate, interval

__all__ = [
    "q_expansion_eval",
    "fricke_sign",
    "CompletedL",
    "central_value",
    "CentralValue",
    "petersson_norm",
]


# ---------------------------------------------------------------------------
# q-expansion evaluation with certified tails
# ---------------------------------------------------------------------------

# absolute tail every q-expansion value is certified to
QEXP_TAIL_TOL = 1e-17


def _tail_bound(k: int, y: float, start: int) -> float:
    """Upper bound for sum_{n >= start} n^{(k+1)/2} e^{-2 pi n y}.

    Uses |c_n| <= d(n) n^{(k-1)/2} <= n^{(k+1)/2} and a geometric majorant:
    the ratio of consecutive summands, (1 + 1/n)^{(k+1)/2} e^{-2 pi y},
    decreases in n, so its value at ``start`` bounds every later one and
    the majorant holds whenever that value is below 1.
    """
    a = (k + 1) / 2.0
    t = math.exp(-2.0 * math.pi * y)
    ratio = (1.0 + 1.0 / start) ** a * t
    if ratio >= 1.0:
        return math.inf
    first = start ** a * t ** start
    return first / (1.0 - ratio)


def q_expansion_eval(form: Eigenform, z):
    """Value of the form at z (Im z > 0), a point or an array of points,
    from its stored coefficients.

    Sums the first n coefficients, n the fewest whose certified tail at the
    lowest point is within QEXP_TAIL_TOL; raises InsufficientCoefficients
    when the stored coefficients cannot reach that bound.
    """
    zs = np.asarray(z, dtype=complex)
    if zs.size == 0 or not np.all(zs.imag > 0):
        raise DomainError("need Im z > 0")
    k, y, n_max = form.weight, float(zs.imag.min()), form.n_max
    # the tail bound does not increase with its start, so bisect; n_max + 1
    # means no stored count suffices
    n, hi = 0, n_max + 1
    while n < hi:
        mid = (n + hi) // 2
        if _tail_bound(k, y, mid + 1) <= QEXP_TAIL_TOL:
            hi = mid
        else:
            n = mid + 1
    if n > n_max:
        raise InsufficientCoefficients(
            f"{form.label}: tail at Im z = {y:.4f} exceeds {QEXP_TAIL_TOL:.0e} "
            f"with {n_max} coefficients"
        )
    # a point goes through the same array arithmetic as a batch, so both
    # give the same bits
    q = np.exp(2j * np.pi * np.atleast_1d(zs))
    acc = np.zeros_like(q)
    for c in reversed(form.coeffs[:n]):
        acc = acc * q + c
    values = acc * q
    return complex(values[0]) if zs.ndim == 0 else values


# ---------------------------------------------------------------------------
# Fricke sign
# ---------------------------------------------------------------------------

def fricke_sign(form: Eigenform) -> int:
    """Sign w in phi(-1/(N z)) = w N^{k/2} z^k phi(z), measured numerically.

    Both candidate signs are scored on sample points; the winner must beat
    the loser by a factor of 1e3, else the sign is reported ambiguous.
    """
    N, k = form.level, form.weight
    rt = math.sqrt(N)
    samples = [complex(0.17, 1.21) / rt, complex(-0.33, 0.94) / rt,
               complex(0.05, 1.48) / rt, complex(0.41, 1.05) / rt,
               complex(-0.11, 0.87) / rt]
    res = {+1: 0.0, -1: 0.0}
    for z in samples:
        lhs = q_expansion_eval(form, -1.0 / (N * z))
        rhs = N ** (k / 2.0) * z ** k * q_expansion_eval(form, z)
        scale = max(abs(lhs), abs(rhs), 1e-30)
        for w in (+1, -1):
            res[w] = max(res[w], abs(lhs - w * rhs) / scale)
    best = +1 if res[+1] < res[-1] else -1
    if res[-best] < 1e3 * res[best]:
        raise InvariantViolation(
            f"{form.label}: ambiguous Fricke sign (residuals {res})"
        )
    if form.atkin_lehner is not None and form.atkin_lehner != best:
        raise InvariantViolation(
            f"{form.label}: measured Fricke sign {best} contradicts stored "
            f"{form.atkin_lehner}"
        )
    return best


# ---------------------------------------------------------------------------
# completed L-functions
# ---------------------------------------------------------------------------

@dataclass
class CompletedL:
    """Completed L-function of a form, optionally twisted by chi_D."""

    form: Eigenform
    twist: int | None = None  # fundamental discriminant D < 0
    # functional-equation sign (arithmetic center), measured at construction
    eps: int = field(init=False)

    def __post_init__(self):
        if self.twist is not None:
            if not is_fundamental_discriminant(self.twist):
                raise DomainError(f"twist {self.twist} is not a fundamental discriminant")
            if math.gcd(self.form.level, self.twist) != 1:
                raise InvariantViolation("twist discriminant must be prime to N")
        self._coeffs = self._twisted_coeffs()
        self._sums = {}  # (s, t_split) -> the two sums; eps does not enter
        self.eps = self._determine_eps()

    @property
    def conductor(self) -> int:
        if self.twist is None:
            return self.form.level
        return self.form.level * self.twist * self.twist

    def _twisted_coeffs(self):
        if self.twist is None:
            return list(self.form.coeffs)
        D = self.twist
        return [kronecker(D, n) * c
                for n, c in enumerate(self.form.coeffs, start=1)]

    # -- smoothed approximate functional equation ---------------------------

    def _afe_sums(self, s: float, t_split: float) -> tuple:
        """The two incomplete-Gamma sums at arithmetic s, split point t,
        computed once for each pair."""
        if (s, t_split) in self._sums:
            return self._sums[s, t_split]
        k = self.form.weight
        q_root = math.sqrt(self.conductor)
        coeffs = self._coeffs
        x_cut = 50.0
        n_stop = int(x_cut * q_root / (2.0 * math.pi * min(t_split, 1.0 / t_split))) + 2
        if n_stop > len(coeffs):
            raise InsufficientCoefficients(
                f"{self.form.label}: need {n_stop} coefficients for the "
                f"functional-equation sums, have {len(coeffs)}"
            )
        n = np.arange(1, n_stop + 1, dtype=float)
        c = np.asarray(coeffs[:n_stop], dtype=float)
        x1 = 2.0 * math.pi * n * t_split / q_root
        x2 = 2.0 * math.pi * n / (t_split * q_root)
        sum1 = float(np.sum(c * (2.0 * math.pi * n) ** (-s) * gamma_upper(s, x1)))
        sum2 = float(np.sum(c * (2.0 * math.pi * n) ** (s - k) * gamma_upper(k - s, x2)))
        self._sums[s, t_split] = sum1, sum2
        return sum1, sum2

    def lambda_afe(self, s: float, t_split: float = 1.0,
                   eps: int | None = None) -> float:
        """Completed value at arithmetic s via the smoothed sum."""
        if eps is None:
            eps = self.eps
        cond = self.conductor
        sum1, sum2 = self._afe_sums(s, t_split)
        return cond ** (s / 2.0) * sum1 + eps * cond ** ((self.form.weight - s) / 2.0) * sum2

    def _determine_eps(self) -> int:
        """Pick the sign making the completed value split-point independent."""
        k = self.form.weight
        s_test = k / 2.0 + 0.35
        spread = {}
        for eps in (+1, -1):
            vals = [self.lambda_afe(s_test, t, eps) for t in (0.7, 1.0, 1.4)]
            spread[eps] = max(vals) - min(vals)
        scale = max(abs(self.lambda_afe(s_test, 1.0, +1)), 1e-30)
        best = +1 if spread[+1] < spread[-1] else -1
        if spread[-best] < 1e3 * (spread[best] + 1e-16 * scale):
            raise InvariantViolation(
                f"{self.form.label}: functional-equation sign ambiguous "
                f"(spreads {spread})"
            )
        return best

    def _scale(self) -> float:
        """Natural size of the completed function (for residuals at points
        where the value itself vanishes, e.g. odd-sign centers)."""
        return abs(self.lambda_afe(self.form.weight / 2.0 + 0.35, 1.0)) + 1e-300

    def fe_residual(self, s: float) -> float:
        """Split-point variation of the completed value at arithmetic s,
        relative to the larger of the local and natural scales; small iff
        the assumed functional equation holds."""
        vals = [self.lambda_afe(s, t) for t in (0.75, 1.0, 1.3)]
        ref = max(max(abs(v) for v in vals), self._scale())
        return (max(vals) - min(vals)) / ref

    def fe_symmetry_residual(self, s: float) -> float:
        """|Lambda(s) - eps Lambda(k - s)| relative, with the two sides
        computed at different split points (non-trivial check)."""
        k = self.form.weight
        a = self.lambda_afe(s, 0.85)
        b = self.lambda_afe(k - s, 1.2)
        return abs(a - self.eps * b) / max(abs(a), self._scale())

    # -- direct Mellin quadrature (untwisted) -------------------------------

    def lambda_mellin(self, s: float, w: int) -> float:
        """Completed value by quadrature of the q-expansion, split at
        1/sqrt(N) through the Fricke involution with sign ``w``.  Untwisted
        forms only."""
        if self.twist is not None:
            raise DomainError("Mellin path implemented for untwisted forms")
        form = self.form
        N, k = form.level, form.weight
        spec = QuadratureSpec(domain=interval(1.0 / math.sqrt(N), 40.0),
                              rel_tol=1e-12, abs_tol=1e-14)

        def j_integral(sv):
            # one evaluator call per integral: the lowest node, 1/sqrt(N),
            # sets the coefficient count for every node
            def f(y):
                return (q_expansion_eval(form, 1j * y) * y ** (sv - 1.0)).real
            res = integrate(f, spec)
            if not res.converged:
                raise AccuracyError(f"{form.label}: Mellin quadrature error {res.error:.2e}")
            return res.real

        eps_arith = w * (-1) ** (k // 2)
        return (N ** (s / 2.0) * j_integral(s)
                + eps_arith * N ** ((k - s) / 2.0) * j_integral(k - s))


@dataclass(frozen=True)
class CentralValue:
    value: float
    eps: int
    forced_zero: bool
    afe: float
    mellin: float | None
    fricke: int | None  # measured Fricke sign; None when twisted
    spread: float | None  # split-point spread at the center; None untwisted


def central_value(form: Eigenform, twist: int | None = None,
                  tol: float = 1e-8) -> CentralValue:
    """Central L-value in the analytic normalization (s_an = 1/2).

    Untwisted values are computed by both the smoothed-sum and Mellin
    routes, which must agree to ``tol`` relative; the Mellin route uses the
    Fricke sign, measured once and returned; twisted values return their
    split-point spread at the center instead.  A sign eps = -1 forces the
    value 0, reported through the flag.
    """
    comp = CompletedL(form, twist=twist)
    k = form.weight
    s_c = k / 2.0
    gamma_factor = (comp.conductor ** (s_c / 2.0)
                    * (2.0 * math.pi) ** (-s_c) * math.gamma(s_c))
    lam_afe = comp.lambda_afe(s_c)
    afe = lam_afe / gamma_factor
    mellin = fricke = spread = None
    if twist is None:
        fricke = fricke_sign(form)
        lam_mel = comp.lambda_mellin(s_c, fricke)
        mellin = lam_mel / gamma_factor
        scale = max(abs(afe), abs(mellin), 1e-12)
        if abs(afe - mellin) / scale > tol:
            raise AccuracyError(
                f"{form.label}: central-value paths disagree "
                f"(afe {afe:.12e}, mellin {mellin:.12e})"
            )
    else:
        spread = comp.fe_residual(s_c)
    forced_zero = comp.eps == -1
    return CentralValue(value=0.0 if forced_zero else afe, eps=comp.eps,
                        forced_zero=forced_zero, afe=afe, mellin=mellin,
                        fricke=fricke, spread=spread)


# ---------------------------------------------------------------------------
# Petersson norm
# ---------------------------------------------------------------------------

def _gl_panels(a: float, b: float, panels: int, rule: tuple):
    """Composite Gauss-Legendre mesh on [a, b] from ``rule`` = leggauss(order)."""
    nodes, weights = rule
    edges = np.linspace(a, b, panels + 1)[:, None]
    half, mid = 0.5 * (edges[1:] - edges[:-1]), 0.5 * (edges[1:] + edges[:-1])
    return (mid + half * nodes).ravel(), (half * weights).ravel()


# default Gauss-Legendre mesh of the band below height 1: panels across
# the strip, panels up the band, and nodes per panel
NORM_X_PANELS = 6
NORM_Y_PANELS = 2
NORM_ORDER = 12
# largest relative change of the norm allowed when every panel count doubles
NORM_TOL = 1e-13


def _cusp_strip(form: Eigenform, Y: float) -> float:
    """Integral of y^(k-2) |phi|^2 over one period above height Y, by
    Parseval: sum |c_n|^2 Gamma(k-1, 4 pi n Y) / (4 pi n)^(k-1).  Past the
    stored coefficients |c_n|^2 <= n^(k+1) and Gamma(a, x) <= x^(a-1) e^-x
    / (1 - (a-1)/x) bound the sum by Y^(k-2) / (4 pi (1 - (k-2)/x)) times
    _tail_bound; that must fall below the last bit of the stored sum."""
    k, m = form.weight, form.n_max + 1
    n = np.arange(1, m, dtype=float)
    c = np.asarray(form.coeffs, dtype=float)
    total = float(np.sum(c * c * gamma_upper(k - 1, 4.0 * math.pi * n * Y)
                         / (4.0 * math.pi * n) ** (k - 1)))
    x = 4.0 * math.pi * m * Y
    tail = (Y ** (k - 2) / (4.0 * math.pi * (1.0 - (k - 2) / x))
            * _tail_bound(2 * k - 1, 2.0 * Y, m)) if x > k - 2 else math.inf
    if not tail <= 2.0 ** -53 * total:
        raise InsufficientCoefficients(f"{form.label}: cusp strip above height "
                                       f"{Y:.4f} has a tail of {tail:.2e}")
    return total


def petersson_norm(form: Eigenform, x_panels: int = NORM_X_PANELS,
                   y_panels: int = NORM_Y_PANELS,
                   order: int = NORM_ORDER) -> float:
    """Petersson norm: the integral of y^(k-2) |phi|^2 dx dy over a
    fundamental domain of the level group, the standard triangle F and the
    N pieces -1/(F + j) at the cusp 0, which the Fricke involution (keeping
    y^k |phi|^2) carries to (F + j)/N.  F above height 1 and the (F + j)/N
    above height 1/N each fill one period strip, given exactly by Parseval.
    The band |x| <= 1/2, sqrt(1 - x^2) <= y <= 1 and its N images are
    meshed, with one evaluator call for each; the same mesh with every
    panel count doubled gives the value, and a change beyond NORM_TOL of
    the norm raises AccuracyError.
    """
    N, k = form.level, form.weight
    rule = np.polynomial.legendre.leggauss(order)
    bands = []
    for m in (1, 2):
        xs, wxs = _gl_panels(-0.5, 0.5, m * x_panels, rule)
        ts, wts = _gl_panels(0.0, 1.0, m * y_panels, rule)
        y_low = np.sqrt(1.0 - xs * xs)[:, None]
        ys = y_low + (1.0 - y_low) * ts
        z = xs[:, None] + 1j * ys
        vals = np.abs(q_expansion_eval(form, z)) ** 2
        for j in range(N):
            vals += np.abs(q_expansion_eval(form, (z + j) / N)) ** 2 / N ** k
        weights = wxs[:, None] * (1.0 - y_low) * wts * ys ** (k - 2.0)
        bands.append(float(np.sum(weights * vals)))
    coarse, fine = bands
    norm = _cusp_strip(form, 1.0) + _cusp_strip(form, 1.0 / N) + fine
    if not abs(fine - coarse) <= NORM_TOL * norm:
        raise AccuracyError(
            f"{form.label}: Petersson norm moves by {abs(fine - coarse) / norm:.2e} "
            f"relative when the mesh doubles, above {NORM_TOL:.0e}")
    return norm
