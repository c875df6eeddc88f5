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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.integrate
import scipy.special

from .arith import Eigenform, kronecker
from .errors import (
    AccuracyError,
    DomainError,
    InsufficientCoefficients,
    InvariantViolation,
)

__all__ = [
    "q_expansion_eval",
    "fricke_sign",
    "CompletedL",
    "central_value",
    "CentralValue",
    "petersson_norm",
    "petersson_norm_terms",
    "oldform_mellin_ratio",
]


# ---------------------------------------------------------------------------
# q-expansion evaluation with certified tails
# ---------------------------------------------------------------------------

# absolute tail every q-expansion value is certified to
QEXP_TAIL_TOL = 1e-17


def _tail_bound(k: int, y: float, start: int) -> float:
    """Upper bound for sum_{n >= start} n^{(k+1)/2} e^{-2 pi n y}.

    Uses |c_n| <= d(n) n^{(k-1)/2} <= n^{(k+1)/2} and a geometric majorant
    valid once the summand is decreasing by a fixed ratio.
    """
    a = (k + 1) / 2.0
    t = math.exp(-2.0 * math.pi * y)
    ratio = (1.0 + 1.0 / start) ** a * t
    if ratio >= 0.9:
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

def fricke_sign(form: Eigenform, margin: float = 1e3) -> int:
    """Sign w in phi(-1/(N z)) = w N^{k/2} z^k phi(z), measured numerically.

    Both candidate signs are scored on sample points; the winner must beat
    the loser by ``margin``, else the sign is reported ambiguous.
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
    if res[-best] < margin * res[best]:
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
    eps: int | None = None    # functional-equation sign (arithmetic center)

    def __post_init__(self):
        if self.twist is not None:
            if math.gcd(self.form.level, self.twist) != 1:
                raise InvariantViolation("twist discriminant must be prime to N")
        self._coeffs = self._twisted_coeffs()
        if self.eps is None:
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
        """The two incomplete-Gamma sums at arithmetic s, split point t."""
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
        g1 = scipy.special.gammaincc(s, x1) * scipy.special.gamma(s)
        g2 = scipy.special.gammaincc(k - s, x2) * scipy.special.gamma(k - s)
        sum1 = float(np.sum(c * (2.0 * math.pi * n) ** (-s) * g1))
        sum2 = float(np.sum(c * (2.0 * math.pi * n) ** (s - k) * g2))
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
        y0 = 1.0 / math.sqrt(N)

        def j_integral(sv):
            def f(y):
                return (q_expansion_eval(form, 1j * y) * y ** (sv - 1.0)).real
            val, err = scipy.integrate.quad(f, y0, 40.0, epsabs=1e-14,
                                            epsrel=1e-12, limit=300)
            if err > 1e-9:
                raise AccuracyError(f"Mellin quadrature error {err:.2e}")
            return val

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


def central_value(form: Eigenform, twist: int | None = None,
                  tol: float = 1e-8) -> CentralValue:
    """Central L-value in the analytic normalization (s_an = 1/2).

    Untwisted values are computed by both the smoothed-sum and Mellin
    routes, which must agree to ``tol`` relative; the Mellin route uses the
    Fricke sign, measured once and returned.  A sign eps = -1 forces the
    value 0, reported through the flag.
    """
    comp = CompletedL(form, twist=twist)
    k = form.weight
    s_c = k / 2.0
    gamma_factor = (comp.conductor ** (s_c / 2.0)
                    * (2.0 * math.pi) ** (-s_c) * math.gamma(s_c))
    lam_afe = comp.lambda_afe(s_c)
    afe = lam_afe / gamma_factor
    mellin = fricke = None
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
    if comp.eps == -1:
        return CentralValue(value=0.0, eps=-1, forced_zero=True,
                            afe=afe, mellin=mellin, fricke=fricke)
    return CentralValue(value=afe, eps=+1, forced_zero=False,
                        afe=afe, mellin=mellin, fricke=fricke)


# ---------------------------------------------------------------------------
# Petersson norm
# ---------------------------------------------------------------------------

def _gl_panels(a: float, b: float, panels: int, order: int, log_scale: bool):
    nodes, weights = np.polynomial.legendre.leggauss(order)
    xs, ws = [], []
    if log_scale:
        edges = np.exp(np.linspace(math.log(a), math.log(b), panels + 1))
    else:
        edges = np.linspace(a, b, panels + 1)
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = 0.5 * (hi - lo)
        mid = 0.5 * (hi + lo)
        xs.append(mid + half * nodes)
        ws.append(half * weights)
    return np.concatenate(xs), np.concatenate(ws)


# default Gauss-Legendre mesh of petersson_norm: panels across the strip,
# log-spaced panels up the height, and nodes per panel
NORM_X_PANELS = 6
NORM_Y_PANELS = 10
NORM_ORDER = 12


def petersson_norm(form: Eigenform, x_panels: int = NORM_X_PANELS,
                   y_panels: int = NORM_Y_PANELS, order: int = NORM_ORDER,
                   y_cut: float = 36.0) -> float:
    """Petersson norm: the integral of y^(k-2) |phi|^2 over a fundamental
    domain of the level group.

    The domain is unfolded to (N+1) translates of the standard modular
    triangle; translates near the lower cusp are evaluated through the
    Fricke identity, which turns them into values of phi at height >=
    sqrt(3)/(2N); q_expansion_eval certifies the tail of every value.
    Fixed composite Gauss-Legendre panels keep the result deterministic and
    allow mesh-refinement convergence checks.
    """
    N, k = form.level, form.weight
    xs, wxs = _gl_panels(-0.5, 0.5, x_panels, order, log_scale=False)
    total = 0.0
    for x, wx in zip(xs, wxs):
        y_low = math.sqrt(max(1.0 - x * x, 0.0))
        ys, wys = _gl_panels(y_low, y_cut, y_panels, order, log_scale=True)
        z = x + 1j * ys
        vals = np.abs(q_expansion_eval(form, z)) ** 2
        for j in range(N):
            zj = (z + j) / N
            vals += np.abs(q_expansion_eval(form, zj)) ** 2 / N ** k
        integrand = ys ** (k - 2.0) * vals
        total += wx * float(np.sum(wys * integrand))
    return float(total)


def petersson_norm_terms(level: int) -> int:
    """Number of positive terms petersson_norm adds up on its default mesh:
    level + 1 values of |phi|^2 at each node.  Times the unit roundoff it
    is the stated rounding term of that sum, relative to the norm."""
    return (level + 1) * NORM_X_PANELS * NORM_ORDER * NORM_Y_PANELS * NORM_ORDER


# ---------------------------------------------------------------------------
# the oldform Mellin shift (series identity)
# ---------------------------------------------------------------------------

def oldform_mellin_ratio(coeffs, N: int, s: complex, n_terms: int | None = None) -> complex:
    """Ratio L(s, g_N) / L(s, g) for the level-raising shift g_N with
    coefficients N * c_{n/N}; equals N^{1-s} term by term."""
    if n_terms is None:
        n_terms = len(coeffs)
    num = sum(N * c / (N * n) ** complex(s)
              for n, c in enumerate(coeffs[: n_terms // N], start=1))
    den = sum(c / n ** complex(s)
              for n, c in enumerate(coeffs[: n_terms // N], start=1))
    return num / den
